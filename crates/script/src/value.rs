//! Script values with Tcl semantics: every value has a canonical string
//! form, and lists/numbers are recovered from strings on demand.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::fmt::{self, Write as _};
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
    List(Rc<ListItems>),
    /// A string that remembers its list form: the form a value rests in
    /// between invocations (an object's field), where the same text is
    /// read as a list again and again. `Str` stays the form of strings
    /// the VM makes and drops.
    Memo(Rc<MemoStr>),
}

/// A string and, once something has asked for it, the list it parses
/// to — or the error that parse ended in. The text never changes, so
/// the memo is never stale; whoever replaces the text replaces both.
#[derive(Debug)]
pub struct MemoStr {
    text: Rc<str>,
    list: OnceCell<Result<Rc<ListItems>, ScriptError>>,
}

impl MemoStr {
    fn list(&self) -> Result<&Rc<ListItems>, ScriptError> {
        self.list
            .get_or_init(|| parse_list(&self.text).map(ListItems::shared))
            .as_ref()
            .map_err(Clone::clone)
    }
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

    /// The same value in the memoised form. A string shares its text; a
    /// list renders its text once and keeps its items as the memo if
    /// they would read the same parsed back from it (no `Double` among
    /// them), else it is re-read from its text like any other string.
    pub fn into_memo(self) -> Value {
        let (text, list) = match self {
            Value::Memo(_) => return self,
            Value::Str(s) => (s, OnceCell::new()),
            Value::List(items) if survives_text(&items) => {
                (Rc::from(format_list(&items)), OnceCell::from(Ok(items)))
            }
            other => (Rc::from(&*other.as_str()), OnceCell::new()),
        };
        Value::Memo(Rc::new(MemoStr { text, list }))
    }

    /// The string form, where the value holds it as text.
    pub fn text(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Memo(m) => Some(&m.text),
            Value::Int(_) | Value::Double(_) | Value::List(_) => None,
        }
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
        match self.text() {
            Some(s) => Cow::Borrowed(s),
            None => {
                let mut out = String::new();
                self.write_to(&mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Appends the canonical string form to `out`: what
    /// `out.push_str(&v.as_str())` does, without the temporary.
    pub(crate) fn write_to(&self, out: &mut String) {
        match self {
            // Writing to a `String` cannot fail.
            Value::Int(i) => drop(write!(out, "{i}")),
            Value::Double(d) => write_double(out, *d),
            Value::Str(s) => out.push_str(s),
            Value::Memo(m) => out.push_str(&m.text),
            Value::List(items) => {
                write_list(out, items);
            }
        }
    }

    /// Returns the canonical string form as a shared `Rc<str>`, reusing
    /// the allocation when the value is already a string.
    pub fn as_rc_str(&self) -> Rc<str> {
        match self {
            Value::Str(s) => Rc::clone(s),
            Value::Memo(m) => Rc::clone(&m.text),
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
                parse_int(&s)
                    .ok_or_else(|| ScriptError::new(format!("expected integer but got \"{s}\"")))
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
        let t = s.trim();
        let is = |words: [&str; 4]| words.iter().any(|w| t.eq_ignore_ascii_case(w));
        if is(["1", "true", "yes", "on"]) {
            return Ok(true);
        }
        if is(["0", "false", "no", "off"]) {
            return Ok(false);
        }
        let number = self.as_double().map(|d| d != 0.0);
        number.map_err(|_| ScriptError::new(format!("expected boolean but got \"{s}\"")))
    }

    /// Interprets the value as a list, parsing its string form if needed.
    pub fn as_list(&self) -> Result<Vec<Value>, ScriptError> {
        self.list_view().map(Cow::into_owned)
    }

    /// Borrowed list view: a `Value::List` lends its elements without
    /// copying them and a `Value::Memo` lends its memo, parsing its text
    /// the first time only; anything else parses its string form.
    pub fn list_view(&self) -> Result<Cow<'_, [Value]>, ScriptError> {
        match self {
            Value::List(items) => Ok(Cow::Borrowed(items.as_slice())),
            Value::Memo(m) => m.list().map(|items| Cow::Borrowed(items.as_slice())),
            other => parse_list(&other.as_str()).map(Cow::Owned),
        }
    }

    /// The list form behind an `Rc`: shared with a `Value::List` or a
    /// `Value::Memo`, parsed afresh from anything else.
    pub(crate) fn shared_list(&self) -> Result<Rc<ListItems>, ScriptError> {
        match self {
            Value::List(items) => Ok(Rc::clone(items)),
            Value::Memo(m) => m.list().map(Rc::clone),
            other => parse_list(&other.as_str()).map(ListItems::shared),
        }
    }

    /// Mutable list access for in-place `lappend`: shimmers the value to
    /// a list (left untouched if its string form is not one) and
    /// un-shares it, so a uniquely held list grows without copying.
    pub(crate) fn list_mut(&mut self) -> Result<&mut Vec<Value>, ScriptError> {
        if !matches!(self, Value::List(_)) {
            *self = Value::List(self.shared_list()?);
        }
        match self {
            Value::List(items) => Ok(&mut Rc::make_mut(items).0),
            _ => Err(ScriptError::new("expected list")),
        }
    }

    /// Returns `true` if this is the empty string / empty list.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Str(s) => s.is_empty(),
            Value::Memo(m) => m.text.is_empty(),
            Value::List(l) => l.is_empty(),
            Value::Int(_) | Value::Double(_) => false,
        }
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(ListItems::shared(items))
    }
}

/// A list's items. Dropping them recurses into the lists among them as
/// far as [`DROP_DEPTH`] levels; below that, item vectors are handed to
/// the outermost drop on this thread, which frees them from a heap
/// stack. However deeply a value nests, dropping it costs bounded host
/// stack, and a list of ordinary depth drops as a `Vec` does. (The
/// `Drop` is here rather than on [`Value`], so dropping a number or a
/// string runs no code of it.)
#[derive(Clone, Debug)]
pub struct ListItems(Vec<Value>);

/// How many list drops may nest on the host stack.
const DROP_DEPTH: u32 = 256;

thread_local! {
    /// How many [`ListItems`] drops are under way on this thread.
    static DROPPING: Cell<u32> = const { Cell::new(0) };
    /// Item vectors met deeper than [`DROP_DEPTH`], for the outermost
    /// drop to free.
    static DEFERRED: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

impl ListItems {
    fn shared(items: Vec<Value>) -> Rc<ListItems> {
        Rc::new(ListItems(items))
    }
}

impl std::ops::Deref for ListItems {
    type Target = Vec<Value>;

    fn deref(&self) -> &Vec<Value> {
        &self.0
    }
}

impl Drop for ListItems {
    fn drop(&mut self) {
        let items = std::mem::take(&mut self.0);
        let depth = DROPPING.get();
        if depth >= DROP_DEPTH {
            // (Once the thread is tearing down its locals, the items
            // drop here instead.)
            let _ = DEFERRED.try_with(|d| d.borrow_mut().push(items));
            return;
        }
        DROPPING.set(depth + 1);
        drop(items);
        if depth == 0 {
            while let Some(items) = DEFERRED.try_with(|d| d.borrow_mut().pop()).ok().flatten() {
                drop(items);
            }
        }
        DROPPING.set(depth);
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

/// Integer text: decimal or `0x` hex, surrounding whitespace ignored.
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    // The commonest case, decided exactly without the general parser:
    // 1 to 18 ASCII digits, which cannot overflow.
    if (1..=18).contains(&s.len()) && s.bytes().all(|b| b.is_ascii_digit()) {
        return Some(s.bytes().fold(0, |n, b| n * 10 + i64::from(b - b'0')));
    }
    let t = s.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => i64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}

/// Writes a double the way Tcl does: integers keep a trailing `.0`.
fn write_double(out: &mut String, d: f64) {
    // Writing to a `String` cannot fail.
    let _ = if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e15 {
        write!(out, "{d:.1}")
    } else {
        write!(out, "{d}")
    };
}

/// Formats a list in Tcl syntax: elements separated by single spaces,
/// braced when they contain metacharacters or are empty. Elements whose
/// braces are unbalanced (or that contain a backslash) cannot be braced
/// and fall back to backslash quoting, as in Tcl proper.
pub fn format_list(items: &[Value]) -> String {
    let mut out = String::new();
    write_list(&mut out, items);
    out
}

/// [`format_list`] into a caller's buffer: numbers print in place (they
/// never need quoting) and every string element is classified in one
/// pass. Returns how the text written must itself be quoted as an
/// element of an enclosing list, which follows from its elements, so a
/// nested list is never scanned again: elements written plain or braced
/// leave it balanced and free of backslashes. The lists being written
/// are kept on a heap stack, so nesting depth costs no host stack.
fn write_list(out: &mut String, items: &[Value]) -> Quoting {
    let mut open = Open::new(items, out.len());
    // The lists `open` is nested in, innermost last.
    let mut outer: Vec<Open<'_>> = Vec::new();
    loop {
        let Some(item) = open.items.next() else {
            let Some(parent) = outer.pop() else {
                return open.whole;
            };
            // A nested list is written braced, which it nearly always
            // is, then amended to what its elements called for.
            match open.whole {
                Quoting::Plain => drop(out.remove(open.mark)),
                Quoting::Brace => out.push('}'),
                Quoting::Backslash => {
                    let inner = out.split_off(open.mark + 1);
                    out.truncate(open.mark);
                    write_escaped(out, &inner);
                }
            }
            let whole = open.whole;
            open = parent;
            open.whole = open.whole.max(whole);
            continue;
        };
        if !std::mem::take(&mut open.first) {
            out.push(' ');
        }
        let quoting = match item {
            Value::Str(s) => write_quoted(out, s),
            Value::Memo(m) => write_quoted(out, &m.text),
            Value::List(inner) => {
                let mark = out.len();
                out.push('{');
                outer.push(std::mem::replace(&mut open, Open::new(inner, mark)));
                continue;
            }
            number @ (Value::Int(_) | Value::Double(_)) => {
                number.write_to(out);
                Quoting::Plain
            }
        };
        open.whole = open.whole.max(quoting);
    }
}

/// A list [`write_list`] is in the middle of: the items left to write,
/// how the list must be quoted so far, and where its text starts.
struct Open<'a> {
    items: std::slice::Iter<'a, Value>,
    first: bool,
    whole: Quoting,
    mark: usize,
}

impl<'a> Open<'a> {
    fn new(items: &'a [Value], mark: usize) -> Open<'a> {
        Open {
            items: items.iter(),
            first: true,
            whole: match items.len() {
                1 => Quoting::Plain,
                _ => Quoting::Brace,
            },
            mark,
        }
    }
}

/// Writes one string element, quoted as it must be.
fn write_quoted(out: &mut String, s: &str) -> Quoting {
    let quoting = Quoting::of(s);
    match quoting {
        Quoting::Plain => out.push_str(s),
        Quoting::Brace => {
            out.push('{');
            out.push_str(s);
            out.push('}');
        }
        Quoting::Backslash => write_escaped(out, s),
    }
    quoting
}

/// Whether parsing the text of these items back gives items that behave
/// as these do. Strings do by the codec's round trip and an `Int` is its
/// decimal text to every coercion; a `Double` is not (`as_int` takes
/// `Double(4.0)` and refuses `"4.0"`).
fn survives_text(items: &[Value]) -> bool {
    // Nested lists wait on a heap stack: depth costs no host stack.
    let (mut items, mut nested) = (items, Vec::new());
    loop {
        for item in items {
            match item {
                Value::Int(_) | Value::Str(_) | Value::Memo(_) => {}
                Value::Double(_) => return false,
                Value::List(inner) => nested.push(inner.as_slice()),
            }
        }
        match nested.pop() {
            Some(next) => items = next,
            None => return true,
        }
    }
}

/// How a list element is written — the contract `format_list` keeps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Quoting {
    /// Non-empty, no whitespace and none of `{ } [ ] $ " \ ;`: as is.
    Plain,
    /// Otherwise, if its braces balance and it has no backslash: `{…}`.
    Brace,
    /// Otherwise: a backslash before each whitespace or metacharacter.
    Backslash,
}

/// What the codec's scans need to know about a byte, one bit each (so a
/// scan can OR together what it saw). `WIDE` is the lead byte of a
/// multi-byte character, which may be a space.
const PLAIN: u8 = 0;
const META: u8 = 1;
const OPEN: u8 = 2;
const CLOSE: u8 = 4;
const ESCAPE: u8 = 8;
const WIDE: u8 = 16;
const CLASS: [u8; 256] = {
    let mut table = [PLAIN; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'{' => OPEN,
            b'}' => CLOSE,
            b'\\' => ESCAPE,
            b'[' | b']' | b'$' | b'"' | b';' | b'\t'..=b'\r' | b' ' => META,
            0xC0.. => WIDE,
            _ => PLAIN,
        };
        b += 1;
    }
    table
};

impl Quoting {
    fn of(s: &str) -> Quoting {
        let (mut seen, mut depth, mut dipped) = (PLAIN, 0i64, false);
        for &b in s.as_bytes() {
            let class = CLASS[usize::from(b)];
            seen |= class;
            depth += i64::from(class == OPEN) - i64::from(class == CLOSE);
            dipped |= depth < 0;
        }
        // Multi-byte characters are looked at only if nothing else
        // already decided the element needs quoting.
        let quote = s.is_empty()
            || seen & !WIDE != PLAIN
            || (seen == WIDE && s.chars().any(|c| !c.is_ascii() && c.is_whitespace()));
        match (quote, dipped || depth != 0 || seen & ESCAPE != 0) {
            (false, _) => Quoting::Plain,
            (true, false) => Quoting::Brace,
            (true, true) => Quoting::Backslash,
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        let special = if c.is_ascii() {
            CLASS[c as usize] != PLAIN
        } else {
            c.is_whitespace()
        };
        if special {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Byte length of the character at byte `i` of `s` and whether it is
/// whitespace. ASCII is decided from the byte alone; `char::is_whitespace`
/// is consulted only for multi-byte characters, so U+0085, U+00A0 and
/// U+2003 separate words exactly as they always did.
#[inline]
fn char_at(s: &str, i: usize) -> (usize, bool) {
    match s.as_bytes().get(i) {
        Some(b'\t'..=b'\r' | b' ') => (1, true),
        Some(0x80..) => s
            .get(i..)
            .and_then(|rest| rest.chars().next())
            .map_or((1, false), |c| (c.len_utf8(), c.is_whitespace())),
        _ => (1, false),
    }
}

/// Parses a string as a Tcl list: whitespace-separated words, with
/// `{...}` grouping (nesting allowed) and `"..."` grouping. One pass
/// over the bytes; a word without escapes is cut straight from `s`.
pub fn parse_list(s: &str) -> Result<Vec<Value>, ScriptError> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(&first) = b.get(i) {
        let (len, space) = char_at(s, i);
        if space {
            i += len;
            continue;
        }
        let grouped = matches!(first, b'{' | b'"');
        let start = i + usize::from(grouped);
        // Where the word's text ends, and its text if escapes changed it.
        let (end, built) = match first {
            b'{' => {
                let mut depth = 1i64;
                let close = b.get(start..).unwrap_or(&[]).iter().position(|&c| {
                    depth += i64::from(c == b'{') - i64::from(c == b'}');
                    depth == 0
                });
                match close {
                    Some(n) => (start + n, None),
                    None => return Err(ScriptError::new("unmatched open brace in list")),
                }
            }
            _ => {
                let quoted = first == b'"';
                // Once a backslash is met the word is built in `built`,
                // from runs of `s`; `run` is where the next one starts.
                let (mut built, mut run) = (None::<String>, start);
                i = start;
                let end = loop {
                    match b.get(i) {
                        Some(&c) if CLASS[usize::from(c)] == PLAIN => i += 1,
                        Some(b'"') if quoted => break i,
                        None if quoted => return Err(ScriptError::new("unmatched quote in list")),
                        None => break i,
                        // `\x` stands for `x`, whatever `x` is; a backslash
                        // that ends the input, for itself.
                        Some(b'\\') => {
                            let word = built.get_or_insert_with(String::new);
                            word.push_str(s.get(run..i).unwrap_or(""));
                            run = if i + 1 < b.len() { i + 1 } else { i };
                            i = run + char_at(s, run).0;
                        }
                        Some(_) => match char_at(s, i) {
                            (_, true) if !quoted => break i,
                            (len, _) => i += len,
                        },
                    }
                };
                if let Some(word) = &mut built {
                    word.push_str(s.get(run..end).unwrap_or(""));
                }
                (end, built)
            }
        };
        out.push(Value::Str(match built {
            Some(word) => Rc::from(word),
            None => Rc::from(s.get(start..end).unwrap_or("")),
        }));
        // Past the closing brace or quote; a bare word ends on the
        // separator, which the next round skips.
        i = end + usize::from(grouped);
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
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    fn memo(s: &str) -> Value {
        Value::str(s).into_memo()
    }

    #[test]
    fn memo_reads_as_its_text_without_copying_it() {
        let v = memo(" 17 ");
        assert!(matches!(v.as_str(), Cow::Borrowed(" 17 ")));
        assert!(Rc::ptr_eq(&v.as_rc_str(), &v.as_rc_str()));
        assert_eq!(v.as_int().unwrap(), 17);
        assert!(v.as_bool().unwrap());
        assert_eq!(v, Value::str(" 17 "));
        assert_eq!(v, memo(" 17 "));
        assert!(memo("").is_empty() && !v.is_empty());
        // A string moves into the form with its text shared.
        let s = Value::str("a b");
        assert!(Rc::ptr_eq(
            &s.as_rc_str(),
            &s.clone().into_memo().as_rc_str()
        ));
    }

    #[test]
    fn memo_parses_once_and_shares_the_list() {
        let v = memo("a {b c} d");
        let first = v.shared_list().unwrap();
        assert_eq!(first.len(), 3);
        // The second reader, and a clone of the value, get the same list.
        assert!(Rc::ptr_eq(&first, &v.clone().shared_list().unwrap()));
        assert!(matches!(v.list_view().unwrap(), Cow::Borrowed(_)));
        // `lappend` un-shares: the memo keeps what the text says.
        let mut grown = v.clone();
        grown.list_mut().unwrap().push(Value::str("e"));
        assert_eq!(grown.as_str(), "a {b c} d e");
        assert_eq!(v.list_view().unwrap().len(), 3);
        // Text that is not a list says so every time, and stays a string.
        let bad = memo("{a b");
        let e1 = bad.list_view().unwrap_err();
        assert_eq!(bad.list_view().unwrap_err(), e1);
        assert_eq!(bad.clone().list_mut().unwrap_err(), e1);
        assert_eq!(bad.as_str(), "{a b");
    }

    #[test]
    fn a_list_made_memo_keeps_its_items_unless_text_would_change_them() {
        let items = Value::list(vec![Value::str("a b"), Value::Int(2)]);
        let kept = items.clone().into_memo();
        assert_eq!(kept.as_str(), "{a b} 2");
        assert!(Rc::ptr_eq(
            &kept.shared_list().unwrap(),
            &items.shared_list().unwrap()
        ));
        // `Double(4.0)` is an integer to `incr`; the text "4.0" is not.
        let lossy = Value::list(vec![Value::Double(4.0)]).into_memo();
        assert_eq!(lossy.as_str(), "4.0");
        assert!(lossy.list_view().unwrap()[0].as_int().is_err());
    }

    #[test]
    fn int_valued_double_coerces_to_int() {
        assert_eq!(Value::Double(4.0).as_int().unwrap(), 4);
        assert!(Value::Double(4.5).as_int().is_err());
    }
}
