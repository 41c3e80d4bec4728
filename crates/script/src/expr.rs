//! `expr`: arithmetic, comparison, logic and a few math functions over
//! script values, lowered once per source text.
//!
//! [`lower`] turns an expression source into an *operand list* — the
//! `$var` and `[cmd]` substitutions in source order — and *operator
//! code*, a postfix program over those operands. At run time the VM
//! substitutes every operand left to right first (each one a *single*
//! value, so text with spaces never splices into the grammar), then
//! [`eval`] runs the operator code. That is exactly the order the
//! original substitute-while-tokenizing evaluator had, and it is
//! contract: every operand of `&&`, `||` and `?:` is substituted and
//! evaluated, taken or not. Lexical and grammar errors are lowered to
//! an [`EOp::Raise`] at the point the one-pass evaluator met them, so
//! they still surface after exactly the same side effects.
//!
//! Inside `expr`, array references take literal indices (`$a(k)`);
//! computed indices use command substitution (`[set a($i)]`).

use std::rc::Rc;

use crate::error::Exc;
use crate::value::{parse_int, Value};

/// One substitution the VM performs before the operator code runs.
pub(crate) enum Operand {
    /// `$name` or `$name(index)`.
    Var(String, Option<String>),
    /// `[script]` — evaluated outside depth accounting.
    Cmd(Rc<str>),
}

/// Postfix operator code.
pub(crate) enum EOp {
    Const(Value),
    /// The n-th substituted operand. Lowering emits each exactly once
    /// (one per `$var`/`[cmd]` in the source), so evaluation moves it.
    Arg(u32),
    Neg,
    Not,
    BitNot,
    Bin(BinFn),
    Ternary,
    /// Math function (its name, for messages) over the top `argc` values.
    Func(&'static str, MathFn, u32),
    Raise(String),
}

/// Binary operators and math functions are resolved, when the expression
/// is lowered, to the function that implements them — as the compiler
/// resolves a builtin's name — so evaluation never looks at their text.
pub(crate) type BinFn = fn(&Value, &Value) -> Result<Value, Exc>;
type MathFn = fn(&str, &[Value]) -> Result<Value, Exc>;

enum Tok {
    Val(EOp),
    Ident(String),
    Op(&'static str),
}

/// Lowers `src`; never fails — malformed input lowers to code that
/// raises when (and only when) it runs.
pub(crate) fn lower(src: &str) -> (Vec<Operand>, Rc<[EOp]>) {
    let mut operands = Vec::new();
    let ops = match tokenize(src, &mut operands) {
        // A lexical error stops substitution where it stands.
        Err(msg) => vec![EOp::Raise(msg)],
        Ok(toks) => {
            let mut p = P {
                toks,
                i: 0,
                out: Vec::new(),
            };
            if let Err(msg) = p.ternary() {
                p.out.push(EOp::Raise(msg));
            } else if p.i != p.toks.len() {
                p.out.push(EOp::Raise(format!(
                    "extra tokens after expression in \"{src}\""
                )));
            }
            p.out
        }
    };
    (operands, ops.into())
}

// ----------------------------------------------------------------------
// Tokenizer.

/// Scans a balanced group whose opener was just consumed; returns the
/// inner text and leaves `*i` past the closer.
fn balanced(b: &[char], i: &mut usize, open: char, close: char) -> Option<String> {
    let mut depth = 1;
    let mut s = String::new();
    while *i < b.len() {
        if b[*i] == open {
            depth += 1;
        } else if b[*i] == close {
            depth -= 1;
            if depth == 0 {
                *i += 1;
                return Some(s);
            }
        }
        s.push(b[*i]);
        *i += 1;
    }
    None
}

fn tokenize(src: &str, operands: &mut Vec<Operand>) -> Result<Vec<Tok>, String> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut operand = |o: Operand| {
        operands.push(o);
        Tok::Val(EOp::Arg(operands.len() as u32 - 1))
    };
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '0'..='9' | '.' => {
                let (v, used) = lex_number(&b[i..])?;
                toks.push(Tok::Val(EOp::Const(v)));
                i += used;
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < b.len() && b[i] != '"' {
                    if b[i] == '\\' && i + 1 < b.len() {
                        i += 1;
                        s.push(match b[i] {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                    } else {
                        s.push(b[i]);
                    }
                    i += 1;
                }
                if i >= b.len() {
                    return Err("unterminated string in expression".into());
                }
                i += 1;
                toks.push(Tok::Val(EOp::Const(Value::from(s))));
            }
            '{' => {
                i += 1;
                let s = balanced(&b, &mut i, '{', '}').ok_or("unterminated brace in expression")?;
                toks.push(Tok::Val(EOp::Const(Value::from(s))));
            }
            '$' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_' || b[i] == ':') {
                    i += 1;
                }
                if i == start {
                    return Err("lone \"$\" in expression".into());
                }
                let name: String = b[start..i].iter().collect();
                let idx = if i < b.len() && b[i] == '(' {
                    i += 1;
                    let s = balanced(&b, &mut i, '(', ')');
                    Some(s.ok_or("unmatched paren in array reference")?)
                } else {
                    None
                };
                toks.push(operand(Operand::Var(name, idx)));
            }
            '[' => {
                i += 1;
                let s = balanced(&b, &mut i, '[', ']').ok_or("unmatched bracket in expression")?;
                toks.push(operand(Operand::Cmd(Rc::from(s))));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                match word.as_str() {
                    "true" | "yes" | "on" => toks.push(Tok::Val(EOp::Const(Value::Int(1)))),
                    "false" | "no" | "off" => toks.push(Tok::Val(EOp::Const(Value::Int(0)))),
                    "eq" => toks.push(Tok::Op("eq")),
                    "ne" => toks.push(Tok::Op("ne")),
                    _ => toks.push(Tok::Ident(word)),
                }
            }
            _ => {
                const TWO: [&str; 8] = ["||", "&&", "==", "!=", "<=", ">=", "<<", ">>"];
                const ONE: &str = "+-*/%<>!~&|^()?:,";
                let two: String = b[i..(i + 2).min(b.len())].iter().collect();
                if let Some(op) = TWO.iter().find(|&&o| o == two) {
                    toks.push(Tok::Op(op));
                    i += 2;
                } else if let Some(k) = ONE.find(c) {
                    toks.push(Tok::Op(&ONE[k..k + 1]));
                    i += 1;
                } else {
                    return Err(format!("unexpected character '{c}' in expression"));
                }
            }
        }
    }
    Ok(toks)
}

fn lex_number(b: &[char]) -> Result<(Value, usize), String> {
    // Hex.
    if b.len() >= 2 && b[0] == '0' && (b[1] == 'x' || b[1] == 'X') {
        let mut i = 2;
        while i < b.len() && b[i].is_ascii_hexdigit() {
            i += 1;
        }
        let s: String = b[2..i].iter().collect();
        let v = i64::from_str_radix(&s, 16).map_err(|_| format!("bad hex literal 0x{s}"))?;
        return Ok((Value::Int(v), i));
    }
    let mut i = 0;
    let mut is_float = false;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i < b.len() && b[i] == '.' {
        is_float = true;
        i += 1;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < b.len() && (b[i] == 'e' || b[i] == 'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == '+' || b[j] == '-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let s: String = b[..i].iter().collect();
    let v = if is_float {
        s.parse::<f64>().map(Value::Double).ok()
    } else {
        s.parse::<i64>().map(Value::Int).ok()
    };
    Ok((v.ok_or_else(|| format!("bad number \"{s}\""))?, i))
}

// ----------------------------------------------------------------------
// Parser: recursive descent emitting postfix code. Operators are emitted
// where the one-pass evaluator applied them, so an `Err` here — pushed
// as a trailing `Raise` by `lower` — fires after the same evaluations.

struct P {
    toks: Vec<Tok>,
    i: usize,
    out: Vec<EOp>,
}

/// Binary precedence levels, loosest first. `&&` and `||` are ordinary
/// binary operators here: both sides are always evaluated.
const LEVELS: [&[(&str, BinFn)]; 10] = [
    &[("||", |a, b| Ok(Value::bool(a.as_bool()? || b.as_bool()?)))],
    &[("&&", |a, b| Ok(Value::bool(a.as_bool()? && b.as_bool()?)))],
    &[("|", |a, b| Ok(Value::Int(a.as_int()? | b.as_int()?)))],
    &[("^", |a, b| Ok(Value::Int(a.as_int()? ^ b.as_int()?)))],
    &[("&", |a, b| Ok(Value::Int(a.as_int()? & b.as_int()?)))],
    &[
        ("==", |a, b| Ok(Value::bool(value_cmp(a, b).is_eq()))),
        ("!=", |a, b| Ok(Value::bool(value_cmp(a, b).is_ne()))),
        ("eq", |a, b| Ok(Value::bool(a.as_str() == b.as_str()))),
        ("ne", |a, b| Ok(Value::bool(a.as_str() != b.as_str()))),
    ],
    &[
        ("<", |a, b| Ok(Value::bool(value_cmp(a, b).is_lt()))),
        (">", |a, b| Ok(Value::bool(value_cmp(a, b).is_gt()))),
        ("<=", |a, b| Ok(Value::bool(value_cmp(a, b).is_le()))),
        (">=", |a, b| Ok(Value::bool(value_cmp(a, b).is_ge()))),
    ],
    &[
        ("<<", |a, b| shift(a, b, i64::wrapping_shl)),
        (">>", |a, b| shift(a, b, i64::wrapping_shr)),
    ],
    // Wrapping throughout: i64::MIN / -1 must not take the server down
    // with the RDO that computed it.
    &[
        ("+", |a, b| {
            arith("+", false, a, b, i64::wrapping_add, |d, e| d + e)
        }),
        ("-", |a, b| {
            arith("-", false, a, b, i64::wrapping_sub, |d, e| d - e)
        }),
    ],
    &[
        ("*", |a, b| {
            arith("*", false, a, b, i64::wrapping_mul, |d, e| d * e)
        }),
        ("/", |a, b| {
            arith("/", true, a, b, i64::wrapping_div_euclid, |d, e| d / e)
        }),
        ("%", |a, b| {
            arith("%", true, a, b, i64::wrapping_rem_euclid, |d, e| d % e)
        }),
    ],
];

impl P {
    fn peek_op(&self) -> Option<&'static str> {
        match self.toks.get(self.i) {
            Some(Tok::Op(o)) => Some(o),
            _ => None,
        }
    }

    fn eat(&mut self, op: &str) -> bool {
        if self.peek_op() == Some(op) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, op: &str) -> Result<(), String> {
        if self.eat(op) {
            Ok(())
        } else {
            Err(format!("expected \"{op}\" in expression"))
        }
    }

    fn ternary(&mut self) -> Result<(), String> {
        self.binary(0)?;
        if self.eat("?") {
            self.ternary()?;
            self.require(":")?;
            self.ternary()?;
            self.out.push(EOp::Ternary);
        }
        Ok(())
    }

    fn binary(&mut self, level: usize) -> Result<(), String> {
        let Some(ops) = LEVELS.get(level) else {
            return self.unary();
        };
        self.binary(level + 1)?;
        let find = |sym: &str| ops.iter().find(|(s, _)| *s == sym);
        while let Some(&(_, op)) = self.peek_op().and_then(find) {
            self.i += 1;
            self.binary(level + 1)?;
            self.out.push(EOp::Bin(op));
        }
        Ok(())
    }

    fn unary(&mut self) -> Result<(), String> {
        for (sym, op) in [("-", EOp::Neg), ("!", EOp::Not), ("~", EOp::BitNot)] {
            if self.eat(sym) {
                self.unary()?;
                self.out.push(op);
                return Ok(());
            }
        }
        if self.eat("+") {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<(), String> {
        if self.eat("(") {
            self.ternary()?;
            return self.require(")");
        }
        match self.toks.get_mut(self.i) {
            Some(Tok::Val(v)) => {
                let v = std::mem::replace(v, EOp::Ternary);
                self.out.push(v);
                self.i += 1;
                Ok(())
            }
            Some(Tok::Ident(name)) => {
                let name = std::mem::take(name);
                self.i += 1;
                if !self.eat("(") {
                    // A bare word is a string operand (Tcl would reject
                    // this; accepting it keeps `expr $x eq abc` usable).
                    self.out.push(EOp::Const(Value::from(name)));
                    return Ok(());
                }
                let mut argc = 0;
                if !self.eat(")") {
                    loop {
                        self.ternary()?;
                        argc += 1;
                        if self.eat(")") {
                            break;
                        }
                        self.require(",")?;
                    }
                }
                // An unknown name raises where the call would have run:
                // after its arguments were evaluated.
                self.out.push(match FUNCS.iter().find(|(n, _)| *n == name) {
                    Some(&(name, f)) => EOp::Func(name, f, argc),
                    None => EOp::Raise(format!("unknown math function \"{name}\"")),
                });
                Ok(())
            }
            _ => Err("missing operand in expression".into()),
        }
    }
}

// ----------------------------------------------------------------------
// Evaluator.

/// Runs operator code over the operands on top of `stack` (its last `n`
/// values), replacing them with the result.
pub(crate) fn eval(code: &[EOp], stack: &mut Vec<Value>, n: usize) -> Result<(), Exc> {
    let base = stack.len() - n;
    // Lowered code is well formed; `empty` only keeps a pop total.
    let pop = |stack: &mut Vec<Value>| stack.pop().unwrap_or_else(Value::empty);
    for op in code {
        let v = match op {
            EOp::Const(v) => v.clone(),
            EOp::Arg(k) => std::mem::replace(&mut stack[base + *k as usize], Value::Int(0)),
            EOp::Raise(msg) => return Err(Exc::err(msg.clone())),
            EOp::Func(name, f, argc) => {
                let at = stack.len() - *argc as usize;
                let v = f(name, &stack[at..])?;
                stack.truncate(at);
                v
            }
            EOp::Neg => {
                let v = pop(stack);
                match as_num(&v) {
                    Some(Num::I(i)) => Value::Int(i.wrapping_neg()),
                    Some(Num::D(d)) => Value::Double(-d),
                    None => return Err(Exc::err(format!("can't negate \"{v}\""))),
                }
            }
            EOp::Not => Value::bool(!pop(stack).as_bool()?),
            EOp::BitNot => Value::Int(!pop(stack).as_int()?),
            EOp::Bin(op) => {
                let (rhs, lhs) = (pop(stack), pop(stack));
                op(&lhs, &rhs)?
            }
            EOp::Ternary => {
                let (b, a, cond) = (pop(stack), pop(stack), pop(stack));
                if cond.as_bool()? {
                    a
                } else {
                    b
                }
            }
        };
        stack.push(v);
    }
    let v = pop(stack);
    stack.truncate(base);
    stack.push(v);
    Ok(())
}

/// Numeric operand: integer where possible, double otherwise.
enum Num {
    I(i64),
    D(f64),
}

fn as_num(v: &Value) -> Option<Num> {
    if let Value::Int(i) = v {
        return Some(Num::I(*i));
    }
    if let Value::Double(d) = v {
        return Some(Num::D(*d));
    }
    let s = v.as_str();
    match parse_int(&s) {
        Some(i) => Some(Num::I(i)),
        None => s.trim().parse().ok().map(Num::D),
    }
}

fn shift(a: &Value, b: &Value, by: fn(i64, u32) -> i64) -> Result<Value, Exc> {
    let (x, n) = (a.as_int()?, b.as_int()?);
    if !(0..64).contains(&n) {
        return Err(Exc::err("shift amount out of range"));
    }
    Ok(Value::Int(by(x, n as u32)))
}

fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (as_num(a), as_num(b)) {
        (Some(x), Some(y)) => {
            let (x, y) = match (x, y) {
                (Num::I(i), Num::I(j)) => return i.cmp(&j),
                (Num::I(i), Num::D(d)) => (i as f64, d),
                (Num::D(d), Num::I(j)) => (d, j as f64),
                (Num::D(d), Num::D(e)) => (d, e),
            };
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        }
        _ => a.as_str().cmp(&b.as_str()),
    }
}

/// `+ - * / %`: integer when both operands are, double otherwise; an
/// operator that `divides` rejects a zero right-hand side.
fn arith(
    op: &str,
    divides: bool,
    a: &Value,
    b: &Value,
    int: fn(i64, i64) -> i64,
    float: fn(f64, f64) -> f64,
) -> Result<Value, Exc> {
    let (x, y) = match (as_num(a), as_num(b)) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(Exc::err(format!(
                "can't use non-numeric operand in \"{op}\" ({a} {op} {b})"
            )))
        }
    };
    let (d, e) = match (x, y) {
        (Num::I(_), Num::I(0)) if divides => return Err(Exc::err("divide by zero")),
        (Num::I(i), Num::I(j)) => return Ok(Value::Int(int(i, j))),
        (Num::I(i), Num::D(e)) => (i as f64, e),
        (Num::D(d), Num::I(j)) => (d, j as f64),
        (Num::D(d), Num::D(e)) => (d, e),
    };
    if divides && e == 0.0 {
        return Err(Exc::err("divide by zero"));
    }
    Ok(Value::Double(float(d, e)))
}

const FUNCS: [(&str, MathFn); 9] = [
    ("abs", |_, args| match args {
        [x] => match as_num(x) {
            Some(Num::I(i)) => Ok(Value::Int(i.wrapping_abs())),
            Some(Num::D(d)) => Ok(Value::Double(d.abs())),
            None => Err(Exc::err("abs() needs a number")),
        },
        _ => Err(Exc::err("abs() takes one argument")),
    }),
    ("int", |f, args| Ok(Value::Int(one(f, args)? as i64))),
    ("double", |f, args| Ok(Value::Double(one(f, args)?))),
    ("round", |f, args| {
        Ok(Value::Int(one(f, args)?.round() as i64))
    }),
    ("sqrt", |f, args| Ok(Value::Double(one(f, args)?.sqrt()))),
    ("min", |f, args| extreme(f, args, std::cmp::Ordering::Less)),
    ("max", |f, args| {
        extreme(f, args, std::cmp::Ordering::Greater)
    }),
    ("pow", |f, args| {
        two(f, args).map(|(x, y)| Value::Double(x.powf(y)))
    }),
    ("fmod", |f, args| {
        let (x, y) = two(f, args)?;
        if y == 0.0 {
            return Err(Exc::err("divide by zero"));
        }
        Ok(Value::Double(x % y))
    }),
];

fn one(f: &str, args: &[Value]) -> Result<f64, Exc> {
    match args {
        [x] => Ok(x.as_double()?),
        _ => Err(Exc::err(format!("{f}() takes one argument"))),
    }
}

fn two(f: &str, args: &[Value]) -> Result<(f64, f64), Exc> {
    match args {
        [x, y] => Ok((x.as_double()?, y.as_double()?)),
        _ => Err(Exc::err(format!("{f}() takes two arguments"))),
    }
}

/// `min`/`max`: an argument replaces the best so far when it compares
/// `wanted` to it.
fn extreme(f: &str, args: &[Value], wanted: std::cmp::Ordering) -> Result<Value, Exc> {
    let Some((mut best, rest)) = args.split_first() else {
        return Err(Exc::err(format!("{f}() needs arguments")));
    };
    for a in rest {
        if value_cmp(a, best) == wanted {
            best = a;
        }
    }
    Ok(best.clone())
}
