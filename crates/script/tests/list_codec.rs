//! Differential test of the list codec against the one it replaced.
//!
//! `parse_list` used to copy its input into a `Vec<char>` and build
//! every word in a fresh `String`; `format_list` used to render every
//! element to a temporary and scan it three times. Both are kept here,
//! and only here, as the reference — moved verbatim, except that the
//! reference formatter renders its elements through [`reference::text`]
//! (the old `Value::as_str`) so that nothing under test is on its side
//! of the comparison. The single-pass codec must agree with them on
//! every input: same words or same error from parsing, same bytes from
//! formatting, and the same round trips.
//!
//! The reference knows strings and lists only. The memoised string form
//! (`Value::Memo`, what an object's field rests in) must be
//! indistinguishable from the string it holds, so the generator puts it
//! at every depth — list form not yet asked for, already parsed, or
//! kept from the list it was made from — and the reference reads it as
//! its text.

use proptest::prelude::*;
use rover_script::{format_list, parse_list, Value};

mod reference {
    use std::borrow::Cow;

    use rover_script::{ScriptError, Value};

    /// The canonical string form, as `Value::as_str` rendered it.
    pub fn text(v: &Value) -> Cow<'_, str> {
        match v {
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Double(d) => Cow::Owned(format_double(*d)),
            Value::Str(s) => Cow::Borrowed(&**s),
            Value::List(items) => Cow::Owned(format_list(items)),
            Value::Memo(_) => Cow::Borrowed(v.text().unwrap_or_default()),
        }
    }

    fn format_double(d: f64) -> String {
        if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e15 {
            format!("{d:.1}")
        } else {
            format!("{d}")
        }
    }

    pub fn format_list(items: &[Value]) -> String {
        let mut out = String::new();
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let s = text(item);
            if !needs_quoting(&s) {
                out.push_str(&s);
            } else if braces_balanced(&s) && !s.contains('\\') {
                out.push('{');
                out.push_str(&s);
                out.push('}');
            } else {
                for c in s.chars() {
                    if c.is_whitespace()
                        || matches!(c, '{' | '}' | '[' | ']' | '$' | '"' | '\\' | ';')
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
}

/// What a parse is compared on: the words, or the error text.
fn parsed(r: Result<Vec<Value>, rover_script::ScriptError>) -> Result<Vec<String>, String> {
    match r {
        Ok(words) => Ok(words.iter().map(|w| w.as_str().into_owned()).collect()),
        Err(e) => Err(e.message),
    }
}

/// Heavy on the characters the codec treats specially: list and script
/// metacharacters, every ASCII space `char::is_whitespace` knows (VT and
/// FF included), the non-ASCII spaces, and multi-byte letters whose
/// UTF-8 shares lead bytes with those spaces.
const ALPHABET: &[char] = &[
    '{', '{', '}', '}', '"', '"', '\\', '\\', '\\', '$', '[', ']', ';', ' ', ' ', ' ', '\t', '\n',
    '\u{b}', '\u{c}', '\r', '\u{85}', '\u{a0}', '\u{2003}', '\u{3000}', 'a', 'b', 'z', '0', '7',
    '-', '.', 'é', 'Â', 'λ', '→', 'あ', '語', '🙂',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A memoised string whose list form has been asked for: the memo holds
/// the parsed items, or the parse error.
fn warm(s: String) -> Value {
    let v = Value::str(s).into_memo();
    let _ = v.list_view();
    v
}

/// How every item of `v`'s list form coerces, and the items of those
/// items, `depth` levels down.
fn coercions(v: &Value, depth: u32) -> String {
    let items = v.as_list().unwrap_or_default();
    let one = |i: &Value| {
        let below = if depth > 0 {
            coercions(i, depth - 1)
        } else {
            String::new()
        };
        format!(
            "{:?} {:?} {:?} [{below}]",
            i.as_str(),
            i.as_int().ok(),
            i.as_bool().ok()
        )
    };
    items.iter().map(one).collect::<Vec<_>>().join(", ")
}

/// Value trees: `Int`, `Double`, `Str`, `Memo` (cold and warm) and
/// `List` down to `depth`, a list now and then turned into the `Memo`
/// that keeps it.
fn tree(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0)].prop_map(Value::Int),
        (-1.0e6..1.0e6f64).prop_map(Value::Double),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(3.0),
            Just(1.0e15),
            Just(2.5e-7)
        ]
        .prop_map(Value::Double),
        text().prop_map(Value::str),
        text().prop_map(Value::str),
        text().prop_map(|s| Value::str(s).into_memo()),
        text().prop_map(warm),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let list = || proptest::collection::vec(tree(depth - 1), 0..5).prop_map(Value::list);
    prop_oneof![leaf, list(), list().prop_map(Value::into_memo)].boxed()
}

proptest! {
    #[test]
    fn parse_agrees_with_the_reference(s in text()) {
        prop_assert_eq!(
            parsed(parse_list(&s)),
            parsed(reference::parse_list(&s)),
            "input {:?}", s
        );
    }

    #[test]
    fn format_agrees_with_the_reference(items in proptest::collection::vec(tree(3), 0..6)) {
        let want = reference::format_list(&items);
        prop_assert_eq!(&format_list(&items), &want, "items {:?}", items);
        // `as_str` on the list value is the same rendering.
        prop_assert_eq!(&*Value::list(items.clone()).as_str(), &want);

        // Wherever the reference pair round-trips, so does the new one
        // (and the formatted text always parses the same either way).
        let texts: Vec<String> = items.iter().map(|v| reference::text(v).into_owned()).collect();
        let back = parsed(parse_list(&want));
        prop_assert_eq!(&back, &parsed(reference::parse_list(&want)), "text {:?}", want);
        if parsed(reference::parse_list(&want)) == Ok(texts.clone()) {
            prop_assert_eq!(back, Ok(texts));
        }
    }

    #[test]
    fn a_memo_is_the_string_it_holds(v in tree(3)) {
        // Whatever it was made from: same text, and a list form whose
        // items read as parsing that text reads them (or the same error),
        // the second time as the first.
        let want = reference::text(&v).into_owned();
        let memo = v.clone().into_memo();
        prop_assert_eq!(&*memo.as_str(), &want);
        prop_assert_eq!(&memo, &Value::str(&want));
        prop_assert_eq!(memo.is_empty(), want.is_empty());
        for _ in 0..2 {
            prop_assert_eq!(
                parsed(memo.as_list()),
                parsed(reference::parse_list(&want)),
                "text {:?}", want
            );
        }
        // ...and coerces as it: the items a list-made memo keeps were
        // never through text, so this is what `into_memo` has to decide.
        prop_assert_eq!(coercions(&memo, 3), coercions(&Value::str(&want), 3));
    }

    #[test]
    fn format_then_parse_round_trips(words in proptest::collection::vec(text(), 0..6)) {
        // The codec's own guarantee, whatever the reference does: what
        // `format_list` writes, `parse_list` reads back.
        let items: Vec<Value> = words.iter().map(Value::str).collect();
        prop_assert_eq!(parsed(parse_list(&format_list(&items))), Ok(words));
    }
}

/// Cases pinned from the reference, by hand.
#[test]
fn pinned_cases_match_the_reference() {
    let ok = |s: &str, want: &[&str]| {
        let want: Vec<String> = want.iter().map(|w| (*w).to_owned()).collect();
        assert_eq!(
            parsed(reference::parse_list(s)),
            Ok(want.clone()),
            "reference on {s:?}"
        );
        assert_eq!(parsed(parse_list(s)), Ok(want), "parse_list on {s:?}");
    };
    let err = |s: &str, want: &str| {
        assert_eq!(
            parsed(reference::parse_list(s)),
            Err(want.to_owned()),
            "reference on {s:?}"
        );
        assert_eq!(
            parsed(parse_list(s)),
            Err(want.to_owned()),
            "parse_list on {s:?}"
        );
    };
    // A word ending in a lone backslash keeps it.
    ok("a b\\", &["a", "b\\"]);
    ok("\\", &["\\"]);
    // ...but inside quotes the input ends before the closing quote.
    err("\"a\\", "unmatched quote in list");
    err("{a {b} c", "unmatched open brace in list");
    err("x {", "unmatched open brace in list");
    err("\"a b", "unmatched quote in list");
    err("x \"", "unmatched quote in list");
    // `\"` inside quotes is a quote; the backslash goes.
    ok(r#""a\"b" c"#, &["a\"b", "c"]);
    ok(r#""a\\" c"#, &["a\\", "c"]);
    // Escaped whitespace joins a bare word, ASCII or not.
    ok("a\\ b c", &["a b", "c"]);
    ok("a\\\u{2003}b\u{2003}c", &["a\u{2003}b", "c"]);
    ok("a\\\tb", &["a\tb"]);
    // Every `char::is_whitespace` separates; U+200B (not a space) and
    // letters sharing a lead byte with the spaces do not.
    ok(
        "a\u{85}b\u{a0}c\u{3000}d\u{b}e\u{c}f",
        &["a", "b", "c", "d", "e", "f"],
    );
    ok("a\u{200b}b Âb é", &["a\u{200b}b", "Âb", "é"]);
    // Braces do not see backslashes; text after a close starts a word.
    ok("{a\\} b}", &["a\\", "b}"]);
    ok("{a}b {}{}", &["a", "b", "", ""]);
    ok("\"a\"b", &["a", "b"]);
    // A bare word may hold quotes and braces past its first character.
    ok("a\"b a{b }", &["a\"b", "a{b", "}"]);
    ok("", &[]);
    ok(" \t\n ", &[]);

    // Elements that are exactly one brace cannot be braced.
    for (items, want) in [
        (vec!["{"], "\\{"),
        (vec!["}"], "\\}"),
        (vec!["}{"], "\\}\\{"),
        (vec!["{}"], "{{}}"),
        (
            vec!["", "a b", "a\\b", "$x", "a;b"],
            "{} {a b} a\\\\b {$x} {a;b}",
        ),
        (
            vec!["a\u{a0}b", "é", "a\u{2003}{"],
            "{a\u{a0}b} é a\\\u{2003}\\{",
        ),
    ] {
        let items: Vec<Value> = items.into_iter().map(Value::str).collect();
        assert_eq!(reference::format_list(&items), want);
        assert_eq!(format_list(&items), want);
        assert_eq!(
            parsed(parse_list(want)),
            parsed(reference::parse_list(want))
        );
    }
    // Numbers print in place; a nested list is quoted where it stands.
    let nested = Value::list(vec![
        Value::Int(-7),
        Value::Double(3.0),
        Value::list(vec![]),
        Value::list(vec![Value::str("a")]),
        Value::list(vec![Value::str("a b"), Value::Int(2)]),
        Value::list(vec![Value::str("{")]),
    ]);
    let want = "-7 3.0 {} a {{a b} 2} \\\\\\{";
    assert_eq!(reference::text(&nested), want);
    assert_eq!(nested.as_str(), want);
}
