//! The fused lowering against the reference: the same compiler without
//! its fusion step ([`compile::unfused`]). Every source here runs under
//! both, and both must give the same result or error text and flags,
//! the same `steps_used` and the same `puts` output — on the fuzz
//! script corpus, on every `tests/programs.rs` program, on generated
//! loop-heavy scripts, and on the jump-target shapes fusion must not
//! cross. (Debug builds also check that every program leaves its value
//! stack balanced, which a fused pair with a jump landing inside it
//! would not.)

#![cfg(test)]

use proptest::prelude::*;

use crate::compile::{self, Op};
use crate::{Budget, HostEnv, Interp, NoHost, ScriptError, Value};

/// Two interpreters, one per lowering, run in lockstep. Its interface is
/// the part of [`Interp`]'s that `tests/programs.rs` uses, so that file
/// compiles here with `Pair` standing for `Interp` (see [`programs`]).
pub(crate) struct Pair {
    fused: Interp,
    reference: Interp,
    output: String,
}

/// Everything a host observes of one evaluation.
fn observed(r: &Result<Value, ScriptError>, steps: u64, output: &str) -> String {
    let head = match r {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!(
            "err budget={} parse={} {}",
            e.budget_exhausted, e.parse, e.message
        ),
    };
    format!("{head}\nsteps {steps}\noutput {output:?}")
}

impl Pair {
    pub(crate) fn with_budget(budget: Budget) -> Pair {
        Pair {
            fused: Interp::with_budget(budget),
            reference: Interp::with_budget(budget),
            output: String::new(),
        }
    }

    /// Evaluates `src` in both interpreters and returns the fused one's
    /// result, after checking the two agree on everything observable.
    pub(crate) fn eval(&mut self, host: &mut dyn HostEnv, src: &str) -> Result<Value, ScriptError> {
        let got = self.fused.eval(host, src);
        let want = compile::unfused(|| self.reference.eval(host, src));
        let output = self.fused.take_output();
        assert_eq!(
            observed(&got, self.fused.steps_used(), &output),
            observed(
                &want,
                self.reference.steps_used(),
                &self.reference.take_output()
            ),
            "the lowerings disagree on:\n{src}"
        );
        self.output.push_str(&output);
        got
    }

    pub(crate) fn steps_used(&self) -> u64 {
        self.fused.steps_used()
    }

    pub(crate) fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }
}

/// One evaluation under both lowerings in fresh interpreters: the
/// observed outcome, which the two agree on.
fn both(budget: Budget, src: &str) -> String {
    let mut pair = Pair::with_budget(budget);
    let r = pair.eval(&mut NoHost, src);
    observed(&r, pair.steps_used(), &pair.take_output())
}

/// `tests/programs.rs`, compiled in here with `rover_script::Interp`
/// standing for [`Pair`]: every program runs under both lowerings, and
/// its outcome digest is still checked against the golden file.
mod programs {
    mod rover_script {
        pub(crate) use super::super::Pair as Interp;
        pub(crate) use crate::{Budget, NoHost, ScriptError, Value};
    }
    include!("../tests/programs.rs");
}

#[test]
fn the_fuzz_script_corpus_agrees() {
    // The fuzz plane's budget, on its seed sources and their mutants.
    let budget = Budget {
        max_steps: 20_000,
        max_depth: 32,
    };
    for src in rover_fuzz::corpus::script_corpus() {
        both(budget, src);
    }
    for seed in [1, 2] {
        for iteration in 0..1_500 {
            let case = rover_fuzz::run_case(rover_fuzz::Codec::Script, seed, iteration);
            both(budget, &String::from_utf8_lossy(&case.input));
        }
    }
}

/// How many of each fused op `src` compiles to: discarding
/// `SetDrop`/`IncrDrop`, `Bin`, `BinJumpIfFalse`, and (the one unfused
/// shape counted) `incr`s that pop their amount.
fn ops(src: &str) -> [usize; 4] {
    let prog = compile::script(src).expect("compiles");
    let count = |f: fn(&Op) -> bool| prog.code.iter().filter(|op| f(op)).count();
    [
        count(|op| matches!(op, Op::SetDrop(_) | Op::IncrDrop(..))),
        count(|op| matches!(op, Op::Bin(_))),
        count(|op| matches!(op, Op::BinJumpIfFalse(..))),
        count(|op| matches!(op, Op::Incr(_, None) | Op::IncrDrop(_, None))),
    ]
}

#[test]
fn the_loop_shapes_fuse_and_the_reference_does_not() {
    let spin = "set s 0; set i 0; while {$i < $n} {incr s 3; incr i}; set s";
    // `set s 0`, `set i 0`, `incr s 3` and the body's last `incr i`
    // discard; the test branches on its `Bin`; `3` is carried.
    assert_eq!(ops(spin), [4, 0, 1, 0]);
    assert_eq!(compile::unfused(|| ops(spin)), [0, 0, 0, 1]);
    // Only a lone binary operator over two substitutions is a `Bin`.
    assert_eq!(ops("expr {$a + $b}")[1], 1);
    assert_eq!(ops("if {$a eq $b} {}")[2], 1);
    for src in [
        "expr {$a + 1}",
        "expr {$a + $b + $c}",
        "expr {-$a}",
        "expr {$a}",
        "if {$a} {}",
    ] {
        assert_eq!(ops(src)[1..3], [0, 0], "{src}");
    }
    // Only a literal amount that reads as an integer is carried.
    for (src, pops) in [("incr x 0x10", 0), ("incr x 1.5", 1), ("incr x $k", 1)] {
        assert_eq!(ops(src)[3], pops, "{src}");
    }
}

/// Jump-target shapes, each run both ways and pinned: (source, observed
/// outcome, recorded from the build before fusion).
const PINNED: &[(&str, &str)] = &[
    // The then-branch jumps to the `Pop` after the else-branch's `set`.
    (
        "set x 0; set c 1; if {$c} {incr x} else {set y 1}; set x",
        "ok 1\nsteps 6\noutput \"\"",
    ),
    (
        "set x 0; set c 0; if {$c} {incr x} else {set y 1}; list $x $y",
        "ok 0 1\nsteps 6\noutput \"\"",
    ),
    (
        "set x 0; foreach c {1 0 1} {if {$c} {incr x} else {set y $c}; set z $c}; list $x $y $z",
        "ok 2 0 1\nsteps 18\noutput \"\"",
    ),
    (
        "set n 0; set i 0; while {$i < 6} {incr i; if {$i % 2} continue; incr n}; list $i $n",
        "ok 6 3\nsteps 42\noutput \"\"",
    ),
    (
        "set n 0; for {set i 0} {$i < 9} {incr i} {if {$i == 5} break; incr n}; list $i $n",
        "ok 5 5\nsteps 39\noutput \"\"",
    ),
    (
        "set n 0; foreach e {a b c d} {if {$e eq \"c\"} {continue}; lappend l $e; incr n}; list $n $l",
        "ok 3 {a b d}\nsteps 22\noutput \"\"",
    ),
    (
        "set x 1; list [catch {incr x} m] $m [catch {incr x y} m] $m $x",
        "ok 0 2 1 {expected integer but got \"y\"} 2\nsteps 6\noutput \"\"",
    ),
    (
        "set x 5; catch {incr x}; catch {set x} v; set v",
        "ok 6\nsteps 6\noutput \"\"",
    ),
    (
        "foreach v {a b z} {switch $v {a {set r 1} b - c {set r 2} default {set r 3}}; lappend out $r}; set out",
        "ok 1 2 3\nsteps 14\noutput \"\"",
    ),
    (
        "proc bump {v} {set w $v; incr w}\nproc tail {} {set t 4; incr t 2}\nlist [bump 1] [tail]",
        "ok 2 6\nsteps 9\noutput \"\"",
    ),
    (
        "set a(k) 1; list [catch {incr a} m] $m [catch {set a 2} m] $m",
        "ok 1 {can't read \"a\": variable is array} 1 {can't set \"a\": variable is array}\nsteps 6\noutput \"\"",
    ),
    // Carried `incr` amounts, and branches on a fused `Bin`.
    (
        "set i 0; set n 5; while {$i < $n} {incr i 2}; list $i [incr i -1]",
        "ok 6 5\nsteps 16\noutput \"\"",
    ),
    (
        "set x 1; list [catch {incr x 1.5} m] $m [incr x 0x10] [incr x { 2 }] $x",
        "ok 1 {expected integer but got \"1.5\"} 17 19 19\nsteps 6\noutput \"\"",
    ),
    (
        "set a 1; set b x; list [catch {if {$a + $b} {set r 1}} m] $m",
        "ok 1 {can't use non-numeric operand in \"+\" (1 + x)}\nsteps 6\noutput \"\"",
    ),
    (
        "set a 2; set b 3; if {$a > $b} {set r gt} elseif {$a == $b} {set r eq} else {set r lt}",
        "ok lt\nsteps 6\noutput \"\"",
    ),
    (
        "set i 0; while 1 {incr i}",
        "err budget=true parse=false execution budget exhausted\nsteps 101\noutput \"\"",
    ),
];

#[test]
fn jump_target_shapes_agree_and_are_pinned() {
    for (src, want) in PINNED {
        let budget = Budget {
            max_steps: if src.contains("while 1") { 100 } else { 10_000 },
            max_depth: 16,
        };
        assert_eq!(&both(budget, src), want, "{src}");
    }
}

/// Decodes a script from a tape of numbers: statements over a few
/// variables — `while`/`for`/`foreach`/`if`/`catch`/`switch` bodies of
/// `incr`/`set`/`lappend`, comparisons, `break` and `continue` — inside
/// and outside a proc.
struct Gen<'a> {
    tape: &'a [u32],
    at: usize,
}

impl Gen<'_> {
    fn pick(&mut self, n: u32) -> u32 {
        let v = self.tape.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        v % n
    }

    fn var(&mut self) -> &'static str {
        ["i", "n", "s", "x", "l"][self.pick(5) as usize]
    }

    fn operand(&mut self) -> String {
        match self.pick(4) {
            0 => self.pick(5).to_string(),
            1 => format!("[incr {}]", self.var()),
            _ => format!("${}", self.var()),
        }
    }

    /// What `lappend` appends: never a variable, since `lappend x $x`
    /// doubles `x`'s text every step, and memory is not yet budgeted.
    fn element(&mut self) -> String {
        match self.pick(2) {
            0 => self.pick(5).to_string(),
            _ => format!("[incr {}]", self.var()),
        }
    }

    fn test(&mut self) -> String {
        let op = ["<", "<=", "==", "!=", ">", "eq"][self.pick(6) as usize];
        let (a, b) = (self.operand(), self.operand());
        match self.pick(5) {
            0 => format!("!({a} {op} {b})"),
            1 => format!("{a} {op} {b} && ${} < 9", self.var()),
            _ => format!("{a} {op} {b}"),
        }
    }

    fn body(&mut self, depth: u32) -> String {
        let n = 1 + self.pick(3);
        let sep = if self.pick(2) == 0 { "; " } else { "\n" };
        (0..n)
            .map(|_| self.stmt(depth + 1))
            .collect::<Vec<_>>()
            .join(sep)
    }

    fn stmt(&mut self, depth: u32) -> String {
        let kinds = if depth >= 3 { 7 } else { 14 };
        match self.pick(kinds) {
            0 | 1 => format!("incr {}", self.var()),
            2 => format!("incr {} {}", self.var(), self.operand()),
            3 => format!("set {} {}", self.var(), self.operand()),
            4 => format!("lappend {} {}", self.var(), self.element()),
            5 => ["break", "continue", "set s"][self.pick(3) as usize].to_owned(),
            6 => format!("puts -nonewline [string length ${}]", self.var()),
            7 | 8 => format!("while {{{}}} {{{}}}", self.test(), self.body(depth)),
            9 => format!(
                "for {{set {v} 0}} {{{}}} {{incr {v}}} {{{}}}",
                self.test(),
                self.body(depth),
                v = self.var()
            ),
            10 => {
                let list = ["{1 2 3}", "$l", "{}", "{a b}"][self.pick(4) as usize];
                format!("foreach {} {list} {{{}}}", self.var(), self.body(depth))
            }
            11 => match self.pick(3) {
                0 => format!("if {{{}}} {{{}}}", self.test(), self.body(depth)),
                1 => format!(
                    "if {{{}}} {{{}}} else {{{}}}",
                    self.test(),
                    self.body(depth),
                    self.body(depth)
                ),
                _ => format!(
                    "if {{{}}} {{{}}} elseif {{{}}} {{{}}} else {{{}}}",
                    self.test(),
                    self.body(depth),
                    self.test(),
                    self.body(depth),
                    self.body(depth)
                ),
            },
            12 => format!("catch {{{}}} m", self.body(depth)),
            _ => format!(
                "switch ${} {{0 {{{}}} 1 - 2 {{{}}} default {{{}}}}}",
                self.var(),
                self.body(depth),
                self.body(depth),
                self.body(depth)
            ),
        }
    }

    fn script(&mut self) -> String {
        let mut src = String::new();
        if self.pick(2) == 0 {
            src.push_str("set i 0; set n 3; set s 0; set x 1; set l {}\n");
        }
        let main = self.body(0);
        if self.pick(2) == 0 {
            src.push_str(&format!(
                "proc p {{i}} {{set n 2; {main}}}\nlist [catch {{p {}}} r] $r",
                self.pick(4)
            ));
        } else {
            src.push_str(&main);
        }
        if self.pick(2) == 0 {
            src.push_str(&format!("\nincr {}", self.var()));
        }
        src
    }
}

proptest! {
    #[test]
    fn generated_loop_scripts_agree(
        tape in proptest::collection::vec(any::<u32>(), 8..160),
        steps in prop_oneof![Just(25u64), Just(120u64), Just(600u64), Just(3_000u64)],
    ) {
        let src = Gen { tape: &tape, at: 0 }.script();
        both(Budget { max_steps: steps, max_depth: 16 }, &src);
    }
}
