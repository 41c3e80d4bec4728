//! Parser for the Tcl-subset RDO language.
//!
//! Grammar (faithful Tcl subset):
//!
//! - A script is commands separated by newlines or `;`.
//! - `#` at command position starts a comment to end of line.
//! - Words are separated by blanks. A word is braced (`{...}`, literal,
//!   nestable, no substitution), quoted (`"..."`, with substitution), or
//!   bare (with substitution).
//! - Substitutions: `$name`, `${name}`, `$name(index)` (array element;
//!   the index is itself substituted), and `[script]` command
//!   substitution. Backslash escapes: `\n \t \r \\ \" \$ \[ \] \{ \} \;`
//!   and backslash-newline (continuation, becomes a space).

use std::rc::Rc;

use crate::error::ScriptError;

/// A parsed script: a sequence of commands.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Script {
    pub commands: Vec<Command>,
}

/// One command: a non-empty sequence of words.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Command {
    pub words: Vec<Word>,
}

/// One word of a command.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Word {
    /// `{...}`: literal text, substitutions deferred. Shared so that
    /// the compiled program pushes it with an `Rc` clone, not a copy of
    /// the (possibly large) literal.
    Braced(Rc<str>),
    /// Bare or quoted word: fragments to substitute and concatenate.
    Subst(Vec<Frag>),
}

/// A fragment of a substituted word.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Frag {
    /// Literal text, shared for the same reason.
    Lit(Rc<str>),
    /// Variable reference: name, plus array index fragments for
    /// `$name(index)`.
    Var(String, Option<Vec<Frag>>),
    /// `[script]` command substitution (inner source; compiled inline,
    /// its own parse error raised only when the substitution runs).
    Cmd(Rc<str>),
}

/// Maximum nesting depth of substitution fragments (`$a($b($c(...`).
/// The parser recurses once per nested array index, so attacker-supplied
/// source of the form `$a($a($a(...` would otherwise grow the call stack
/// linearly in input length and abort the process with a stack overflow.
/// Real RDO scripts nest a handful deep; 100 is far past any of them.
const MAX_PARSE_DEPTH: usize = 100;

struct P<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

pub(crate) fn parse_script(src: &str) -> Result<Script, ScriptError> {
    let mut p = P {
        s: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    let mut commands = Vec::new();
    loop {
        p.skip_command_separators();
        if p.at_end() {
            break;
        }
        if p.peek() == b'#' {
            p.skip_line();
            continue;
        }
        let cmd = p.parse_command()?;
        if !cmd.words.is_empty() {
            commands.push(cmd);
        }
    }
    Ok(Script { commands })
}

impl<'a> P<'a> {
    fn at_end(&self) -> bool {
        self.i >= self.s.len()
    }

    fn peek(&self) -> u8 {
        self.s[self.i]
    }

    fn bump(&mut self) -> u8 {
        let c = self.s[self.i];
        self.i += 1;
        c
    }

    fn skip_blanks(&mut self) {
        while !self.at_end() && matches!(self.peek(), b' ' | b'\t') {
            self.i += 1;
        }
    }

    fn skip_command_separators(&mut self) {
        while !self.at_end() && matches!(self.peek(), b' ' | b'\t' | b'\n' | b'\r' | b';') {
            self.i += 1;
        }
    }

    fn skip_line(&mut self) {
        while !self.at_end() && self.peek() != b'\n' {
            self.i += 1;
        }
    }

    fn parse_command(&mut self) -> Result<Command, ScriptError> {
        let mut words = Vec::new();
        loop {
            self.skip_blanks();
            if self.at_end() || matches!(self.peek(), b'\n' | b'\r' | b';') {
                break;
            }
            // Backslash-newline continuation between words.
            if self.peek() == b'\\' && self.i + 1 < self.s.len() && self.s[self.i + 1] == b'\n' {
                self.i += 2;
                continue;
            }
            words.push(self.parse_word()?);
        }
        Ok(Command { words })
    }

    fn parse_word(&mut self) -> Result<Word, ScriptError> {
        match self.peek() {
            b'{' => self.parse_braced(),
            b'"' => self.parse_quoted(),
            _ => self.parse_bare(),
        }
    }

    fn parse_braced(&mut self) -> Result<Word, ScriptError> {
        debug_assert_eq!(self.peek(), b'{');
        self.bump();
        let start = self.i;
        let mut depth = 1usize;
        while !self.at_end() {
            match self.bump() {
                b'\\' if !self.at_end() => {
                    self.i += 1;
                }
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let text = std::str::from_utf8(&self.s[start..self.i - 1])
                            .map_err(|_| ScriptError::parse("script is not valid UTF-8"))?;
                        return Ok(Word::Braced(Rc::from(text)));
                    }
                }
                _ => {}
            }
        }
        Err(ScriptError::parse("missing close-brace"))
    }

    fn parse_quoted(&mut self) -> Result<Word, ScriptError> {
        debug_assert_eq!(self.peek(), b'"');
        self.bump();
        let frags = self.parse_frags(|c| c == b'"')?;
        if self.at_end() {
            return Err(ScriptError::parse("missing close-quote"));
        }
        self.bump(); // closing quote
        Ok(Word::Subst(frags))
    }

    fn parse_bare(&mut self) -> Result<Word, ScriptError> {
        let frags = self.parse_frags(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r' | b';'))?;
        Ok(Word::Subst(frags))
    }

    /// Parses substitution fragments until `stop` matches (not consumed)
    /// or end of input.
    fn parse_frags(&mut self, stop: impl Fn(u8) -> bool) -> Result<Vec<Frag>, ScriptError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            self.depth -= 1;
            return Err(ScriptError::parse("substitution nesting too deep"));
        }
        let out = self.parse_frags_inner(stop);
        self.depth -= 1;
        out
    }

    fn parse_frags_inner(&mut self, stop: impl Fn(u8) -> bool) -> Result<Vec<Frag>, ScriptError> {
        let mut frags = Vec::new();
        let mut lit = String::new();
        macro_rules! flush {
            () => {
                if !lit.is_empty() {
                    frags.push(Frag::Lit(Rc::from(std::mem::take(&mut lit))));
                }
            };
        }
        while !self.at_end() && !stop(self.peek()) {
            match self.peek() {
                b'\\' => {
                    self.bump();
                    if self.at_end() {
                        lit.push('\\');
                        break;
                    }
                    let c = self.bump();
                    lit.push_str(&escape_char(c));
                }
                b'$' => {
                    self.bump();
                    if self.at_end() {
                        lit.push('$');
                        break;
                    }
                    match self.parse_varref()? {
                        Some(frag) => {
                            flush!();
                            frags.push(frag);
                        }
                        None => lit.push('$'),
                    }
                }
                b'[' => {
                    flush!();
                    frags.push(Frag::Cmd(self.parse_bracketed()?));
                }
                _ => {
                    // Collect one UTF-8 character.
                    let start = self.i;
                    self.i += utf8_len(self.s[self.i]);
                    let chunk = std::str::from_utf8(&self.s[start..self.i.min(self.s.len())])
                        .map_err(|_| ScriptError::parse("script is not valid UTF-8"))?;
                    lit.push_str(chunk);
                }
            }
        }
        flush!();
        Ok(frags)
    }

    /// Parses the variable reference after a consumed `$`. Returns `None`
    /// if what follows cannot be a variable name (the `$` is literal).
    fn parse_varref(&mut self) -> Result<Option<Frag>, ScriptError> {
        if self.peek() == b'{' {
            self.bump();
            let start = self.i;
            while !self.at_end() && self.peek() != b'}' {
                self.i += 1;
            }
            if self.at_end() {
                return Err(ScriptError::parse("missing close-brace for variable name"));
            }
            let name = std::str::from_utf8(&self.s[start..self.i])
                .map_err(|_| ScriptError::parse("script is not valid UTF-8"))?
                .to_owned();
            self.bump();
            return Ok(Some(Frag::Var(name, None)));
        }
        let start = self.i;
        while !self.at_end() && is_name_char(self.peek()) {
            self.i += 1;
        }
        if self.i == start {
            return Ok(None);
        }
        let name = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| ScriptError::parse("script is not valid UTF-8"))?
            .to_owned();
        // Array element: $name(index), index itself substituted.
        if !self.at_end() && self.peek() == b'(' {
            self.bump();
            let idx = self.parse_frags(|c| c == b')')?;
            if self.at_end() {
                return Err(ScriptError::parse("missing close-paren in array reference"));
            }
            self.bump();
            return Ok(Some(Frag::Var(name, Some(idx))));
        }
        Ok(Some(Frag::Var(name, None)))
    }

    /// Parses `[...]`, returning the inner source text.
    fn parse_bracketed(&mut self) -> Result<Rc<str>, ScriptError> {
        debug_assert_eq!(self.peek(), b'[');
        self.bump();
        let start = self.i;
        let mut depth = 1usize;
        while !self.at_end() {
            match self.bump() {
                b'\\' if !self.at_end() => {
                    self.i += 1;
                }
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        let text = std::str::from_utf8(&self.s[start..self.i - 1])
                            .map_err(|_| ScriptError::parse("script is not valid UTF-8"))?;
                        return Ok(Rc::from(text));
                    }
                }
                // Braces protect brackets inside command substitution.
                b'{' => {
                    let mut bdepth = 1usize;
                    while !self.at_end() && bdepth > 0 {
                        match self.bump() {
                            b'\\' if !self.at_end() => self.i += 1,
                            b'{' => bdepth += 1,
                            b'}' => bdepth -= 1,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        Err(ScriptError::parse("missing close-bracket"))
    }
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b':'
}

fn escape_char(c: u8) -> String {
    match c {
        b'n' => "\n".into(),
        b't' => "\t".into(),
        b'r' => "\r".into(),
        b'\n' => " ".into(),
        other => (other as char).to_string(),
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(src: &str) -> Script {
        parse_script(src).expect("parse")
    }

    #[test]
    fn simple_commands_split() {
        let s = script("set x 1\nset y 2; set z 3");
        assert_eq!(s.commands.len(), 3);
        assert_eq!(s.commands[0].words.len(), 3);
    }

    #[test]
    fn comments_are_skipped() {
        let s = script("# leading comment\nset x 1\n  # another\nset y 2");
        assert_eq!(s.commands.len(), 2);
    }

    #[test]
    fn braced_words_are_literal() {
        let s = script("if {$x > 1} {puts $x}");
        assert_eq!(s.commands[0].words.len(), 3);
        assert_eq!(s.commands[0].words[1], Word::Braced("$x > 1".into()));
        assert_eq!(s.commands[0].words[2], Word::Braced("puts $x".into()));
    }

    #[test]
    fn nested_braces() {
        let s = script("proc f {a} {if {$a} {puts {x y}}}");
        match &s.commands[0].words[3] {
            Word::Braced(b) => assert_eq!(&**b, "if {$a} {puts {x y}}"),
            w => panic!("unexpected word {w:?}"),
        }
    }

    #[test]
    fn variable_fragments() {
        let s = script("puts $x");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Var("x".into(), None)])
        );
        let s = script("puts ab$x.cd");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![
                Frag::Lit("ab".into()),
                Frag::Var("x".into(), None),
                Frag::Lit(".cd".into()),
            ])
        );
    }

    #[test]
    fn braced_variable_name() {
        let s = script("puts ${a b}");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Var("a b".into(), None)])
        );
    }

    #[test]
    fn array_reference_with_substituted_index() {
        let s = script("puts $arr($i)");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Var(
                "arr".into(),
                Some(vec![Frag::Var("i".into(), None)])
            )])
        );
    }

    #[test]
    fn command_substitution() {
        let s = script("set y [expr 1 + 2]");
        assert_eq!(
            s.commands[0].words[2],
            Word::Subst(vec![Frag::Cmd("expr 1 + 2".into())])
        );
    }

    #[test]
    fn nested_command_substitution() {
        let s = script("set y [lindex [split $s ,] 0]");
        assert_eq!(
            s.commands[0].words[2],
            Word::Subst(vec![Frag::Cmd("lindex [split $s ,] 0".into())])
        );
    }

    #[test]
    fn quoted_words_substitute() {
        let s = script(r#"puts "hello $name""#);
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![
                Frag::Lit("hello ".into()),
                Frag::Var("name".into(), None)
            ])
        );
    }

    #[test]
    fn escapes() {
        let s = script(r#"puts "a\tb\n\$x""#);
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Lit("a\tb\n$x".into())])
        );
    }

    #[test]
    fn backslash_newline_continues_command() {
        let s = script("set x \\\n 1");
        assert_eq!(s.commands.len(), 1);
        assert_eq!(s.commands[0].words.len(), 3);
    }

    #[test]
    fn dollar_without_name_is_literal() {
        let s = script("puts a$ b");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Lit("a$".into())])
        );
    }

    #[test]
    fn brackets_inside_braces_in_command_sub() {
        let s = script("set y [foreach v {a ]b} {puts $v}]");
        assert_eq!(
            s.commands[0].words[2],
            Word::Subst(vec![Frag::Cmd("foreach v {a ]b} {puts $v}".into())])
        );
    }

    #[test]
    fn deep_array_nesting_is_rejected_not_a_stack_overflow() {
        // Fuzz finding: `$a($a($a(...` recursed once per level with no
        // bound — a few thousand bytes of hostile source aborted the
        // process. The depth budget turns it into a typed parse error.
        let bomb = "puts ".to_owned() + &"$a(".repeat(50_000);
        let err = parse_script(&bomb).unwrap_err();
        assert!(err.parse, "depth exhaustion must be a parse error");
        assert!(err.message.contains("nesting too deep"));
    }

    #[test]
    fn nesting_under_the_budget_still_parses() {
        let mut src = "$v".to_owned();
        for _ in 0..(MAX_PARSE_DEPTH / 2) {
            src = format!("$a({src})");
        }
        assert!(parse_script(&format!("puts {src}")).is_ok());
    }

    #[test]
    fn parse_errors_carry_the_parse_flag() {
        for src in ["puts {a", "puts \"a", "puts [cmd", "puts $arr(1"] {
            assert!(parse_script(src).unwrap_err().parse, "{src:?}");
        }
    }

    #[test]
    fn unicode_literals_survive() {
        let s = script("puts héllo→");
        assert_eq!(
            s.commands[0].words[1],
            Word::Subst(vec![Frag::Lit("héllo→".into())])
        );
    }
}
