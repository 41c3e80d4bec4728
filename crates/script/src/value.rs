//! Script values with Tcl semantics: every value has a canonical string
//! form, and lists/numbers are recovered from strings on demand.

use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

use crate::error::ScriptError;

thread_local! {
    /// One shared empty string so [`Value::empty`] never allocates.
    static EMPTY: Rc<str> = Rc::from("");
}

/// A script value.
///
/// Internally shimmered between representations for efficiency (an
/// integer stays an integer until something asks for its string form),
/// but semantically *everything is a string*, exactly as in Tcl: two
/// values are equal iff their string forms are equal.
#[derive(Clone, Debug)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A floating-point number.
    Double(f64),
    /// A string.
    Str(Rc<str>),
    /// A list (canonical string form is Tcl list syntax).
    List(Rc<Vec<Value>>),
}

impl Value {
    /// The empty string.
    pub fn empty() -> Value {
        Value::Str(EMPTY.with(Rc::clone))
    }

    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Creates a boolean value (Tcl booleans are 0/1 integers).
    pub fn bool(b: bool) -> Value {
        Value::Int(b as i64)
    }

    /// Returns the canonical string form.
    ///
    /// String values lend out their backing storage (`Cow::Borrowed`);
    /// only numbers and lists render a fresh `String`. Callers that need
    /// ownership use [`Cow::into_owned`].
    pub fn as_str(&self) -> Cow<'_, str> {
        match self {
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Double(d) => Cow::Owned(format_double(*d)),
            Value::Str(s) => Cow::Borrowed(&**s),
            Value::List(items) => Cow::Owned(format_list(items)),
        }
    }

    /// Returns the canonical string form as a shared `Rc<str>`, reusing
    /// the allocation when the value is already a string.
    pub fn as_rc_str(&self) -> Rc<str> {
        match self {
            Value::Str(s) => Rc::clone(s),
            other => Rc::from(&*other.as_str()),
        }
    }

    /// Interprets the value as an integer.
    pub fn as_int(&self) -> Result<i64, ScriptError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Double(d) if d.fract() == 0.0 => Ok(*d as i64),
            other => {
                let s = other.as_str();
                let t = s.trim();
                if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                    i64::from_str_radix(hex, 16)
                        .map_err(|_| ScriptError::new(format!("expected integer but got \"{s}\"")))
                } else {
                    t.parse::<i64>()
                        .map_err(|_| ScriptError::new(format!("expected integer but got \"{s}\"")))
                }
            }
        }
    }

    /// Interprets the value as a float.
    pub fn as_double(&self) -> Result<f64, ScriptError> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Double(d) => Ok(*d),
            other => {
                let s = other.as_str();
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| ScriptError::new(format!("expected number but got \"{s}\"")))
            }
        }
    }

    /// Interprets the value as a boolean: 0/1, true/false, yes/no, on/off.
    pub fn as_bool(&self) -> Result<bool, ScriptError> {
        if let Value::Int(i) = self {
            return Ok(*i != 0);
        }
        if let Value::Double(d) = self {
            return Ok(*d != 0.0);
        }
        let s = self.as_str();
        match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" | "on" => Ok(true),
            "0" | "false" | "no" | "off" => Ok(false),
            _ => match self.as_double() {
                Ok(d) => Ok(d != 0.0),
                Err(_) => Err(ScriptError::new(format!(
                    "expected boolean but got \"{s}\""
                ))),
            },
        }
    }

    /// Interprets the value as a list, parsing its string form if needed.
    pub fn as_list(&self) -> Result<Vec<Value>, ScriptError> {
        self.list_view().map(Cow::into_owned)
    }

    /// Borrowed list view: a `Value::List` lends its elements without
    /// copying them; anything else parses its string form.
    pub fn list_view(&self) -> Result<Cow<'_, [Value]>, ScriptError> {
        match self {
            Value::List(items) => Ok(Cow::Borrowed(items.as_slice())),
            other => parse_list(&other.as_str()).map(Cow::Owned),
        }
    }

    /// Mutable list access for in-place `lappend`: shimmers the value to
    /// a list (left untouched if its string form is not one) and
    /// un-shares it, so a uniquely held list grows without copying.
    pub(crate) fn list_mut(&mut self) -> Result<&mut Vec<Value>, ScriptError> {
        if !matches!(self, Value::List(_)) {
            *self = Value::list(parse_list(&self.as_str())?);
        }
        match self {
            Value::List(items) => Ok(Rc::make_mut(items)),
            _ => Err(ScriptError::new("expected list")),
        }
    }

    /// Returns `true` if this is the empty string / empty list.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Str(s) => s.is_empty(),
            Value::List(l) => l.is_empty(),
            _ => false,
        }
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(items))
    }
}

impl PartialEq for Value {
    // Tcl equality: string forms match (numeric fast paths first).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Rc::from(s.as_str()))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bool(b)
    }
}

/// Formats a double the way Tcl does: integers keep a trailing `.0`.
fn format_double(d: f64) -> String {
    if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e15 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

/// Formats a list in Tcl syntax: elements separated by single spaces,
/// braced when they contain metacharacters or are empty. Elements whose
/// braces are unbalanced (or that end in a backslash) cannot be braced
/// and fall back to backslash quoting, as in Tcl proper.
pub fn format_list(items: &[Value]) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let s = item.as_str();
        if !needs_quoting(&s) {
            out.push_str(&s);
        } else if braces_balanced(&s) && !s.contains('\\') {
            out.push('{');
            out.push_str(&s);
            out.push('}');
        } else {
            for c in s.chars() {
                if c.is_whitespace() || matches!(c, '{' | '}' | '[' | ']' | '$' | '"' | '\\' | ';')
                {
                    out.push('\\');
                }
                out.push(c);
            }
        }
    }
    out
}

fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.chars().any(|c| {
            c.is_whitespace() || matches!(c, '{' | '}' | '[' | ']' | '$' | '"' | '\\' | ';')
        })
}

fn braces_balanced(s: &str) -> bool {
    let mut depth = 0i64;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
}

/// Parses a string as a Tcl list: whitespace-separated words, with
/// `{...}` grouping (nesting allowed) and `"..."` grouping.
pub fn parse_list(s: &str) -> Result<Vec<Value>, ScriptError> {
    let b: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        while i < b.len() && b[i].is_whitespace() {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        let mut word = String::new();
        if b[i] == '{' {
            let mut depth = 1;
            i += 1;
            while i < b.len() {
                match b[i] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                word.push(b[i]);
                i += 1;
            }
            if depth != 0 {
                return Err(ScriptError::new("unmatched open brace in list"));
            }
            i += 1; // closing brace
        } else if b[i] == '"' {
            i += 1;
            while i < b.len() && b[i] != '"' {
                if b[i] == '\\' && i + 1 < b.len() {
                    i += 1;
                }
                word.push(b[i]);
                i += 1;
            }
            if i >= b.len() {
                return Err(ScriptError::new("unmatched quote in list"));
            }
            i += 1;
        } else {
            while i < b.len() && !b[i].is_whitespace() {
                if b[i] == '\\' && i + 1 < b.len() {
                    i += 1;
                }
                word.push(b[i]);
                i += 1;
            }
        }
        out.push(Value::from(word));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_forms() {
        assert_eq!(Value::Int(42).as_str(), "42");
        assert_eq!(Value::Double(2.5).as_str(), "2.5");
        assert_eq!(Value::Double(3.0).as_str(), "3.0");
        assert_eq!(Value::str("hi").as_str(), "hi");
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::str(" 17 ").as_int().unwrap(), 17);
        assert_eq!(Value::str("0x1F").as_int().unwrap(), 31);
        assert_eq!(Value::str("2.75").as_double().unwrap(), 2.75);
        assert!(Value::str("nope").as_int().is_err());
    }

    #[test]
    fn bool_coercions() {
        for (s, b) in [
            ("1", true),
            ("true", true),
            ("Yes", true),
            ("0", false),
            ("off", false),
        ] {
            assert_eq!(Value::str(s).as_bool().unwrap(), b, "{s}");
        }
        assert!(Value::str("maybe").as_bool().is_err());
        assert!(Value::Double(0.5).as_bool().unwrap());
    }

    #[test]
    fn equality_is_string_equality() {
        assert_eq!(Value::Int(5), Value::str("5"));
        assert_ne!(Value::Int(5), Value::str("5.0"));
        assert_eq!(Value::Double(1.5), Value::str("1.5"));
    }

    #[test]
    fn list_formatting_braces_when_needed() {
        let l = Value::list(vec![Value::str("a"), Value::str("b c"), Value::str("")]);
        assert_eq!(l.as_str(), "a {b c} {}");
    }

    #[test]
    fn list_parsing_roundtrips() {
        let l = Value::str("a {b c} {} {d {e f}}").as_list().unwrap();
        assert_eq!(l.len(), 4);
        assert_eq!(l[1].as_str(), "b c");
        assert_eq!(l[2].as_str(), "");
        assert_eq!(l[3].as_str(), "d {e f}");
        let inner = l[3].as_list().unwrap();
        assert_eq!(inner[1].as_str(), "e f");
    }

    #[test]
    fn quoted_list_elements() {
        let l = Value::str(r#"one "two three" four"#).as_list().unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l[1].as_str(), "two three");
    }

    #[test]
    fn unbalanced_lists_error() {
        assert!(Value::str("{a b").as_list().is_err());
        assert!(Value::str("\"a b").as_list().is_err());
    }

    #[test]
    fn list_of_lists_roundtrip_via_string() {
        let inner = Value::list(vec![Value::str("x y"), Value::Int(2)]);
        let outer = Value::list(vec![inner.clone(), Value::str("z")]);
        let reparsed = Value::str(outer.as_str()).as_list().unwrap();
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed[0].as_list().unwrap()[0].as_str(), "x y");
    }

    #[test]
    fn int_valued_double_coerces_to_int() {
        assert_eq!(Value::Double(4.0).as_int().unwrap(), 4);
        assert!(Value::Double(4.5).as_int().is_err());
    }
}
