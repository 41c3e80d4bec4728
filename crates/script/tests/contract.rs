//! The evaluator's accounting contract, one named trap per test. Each
//! of these is behaviour a compiler is tempted to "improve" (short-
//! circuit `&&`, hoist a parse, skip a dead branch) and must not:
//! `steps_used` feeds `interp_cost`, so every virtual-time figure in
//! the repo depends on these staying exactly as the tree-walking
//! evaluator had them.

use rover_script::{Budget, Interp, NoHost, ScriptError, Value};

fn run(budget: Budget, src: &str) -> (Result<String, ScriptError>, u64) {
    let mut i = Interp::with_budget(budget);
    let r = i.eval(&mut NoHost, src).map(|v| v.as_str().into_owned());
    (r, i.steps_used())
}

fn ok(src: &str) -> (String, u64) {
    let (r, steps) = run(Budget::default(), src);
    (r.expect("evaluates"), steps)
}

#[test]
fn expr_is_eager_an_untaken_arm_still_runs_and_fails() {
    let (r, steps) = run(Budget::default(), "expr {1 ? 2 : [error untaken]}");
    assert_eq!(r.unwrap_err().message, "untaken");
    assert_eq!(steps, 3);
    // Both sides of && and || are substituted too.
    assert_eq!(
        ok("set t 0; expr {0 && [incr t]}; expr {1 || [incr t]}; set t"),
        ("2".into(), 8)
    );
}

#[test]
fn expr_operands_substitute_left_to_right_before_any_operator_runs() {
    assert_eq!(
        ok("set t 0; list [catch {expr {[incr t] + [incr t] / 0}} m] $m $t"),
        ("1 {divide by zero} 2".into(), 7)
    );
    // A failing operand stops substitution of the ones after it.
    assert_eq!(
        ok("set t 0; list [catch {expr {$nosuch + [incr t]}} m] $t"),
        ("1 0".into(), 5)
    );
}

#[test]
fn a_body_parses_only_when_it_first_runs_and_its_error_is_never_cached() {
    let src = "proc f {c} {if {$c} {set x \"open} else {return fine}}\nf 0";
    assert_eq!(ok(src), ("fine".into(), 5));
    let mut i = Interp::new();
    i.eval(&mut NoHost, src).unwrap();
    for _ in 0..2 {
        let e = i.eval(&mut NoHost, "f 1").unwrap_err();
        assert!(e.parse, "{e}");
        assert_eq!(e.message, "missing close-quote");
    }
    // Loop bodies likewise: zero iterations never look at the body.
    assert_eq!(ok("while {0} {\"}; foreach x {} {\"}; set r ok").0, "ok");
}

#[test]
fn word_substitution_counts_toward_depth_but_expr_substitution_does_not() {
    let budget = Budget {
        max_steps: 1_000,
        max_depth: 4,
    };
    let (r, steps) = run(budget, "list [list [list [list [list [list 1]]]]]");
    assert_eq!(
        r.unwrap_err().message,
        "too many nested evaluations (possible infinite recursion)"
    );
    assert_eq!(steps, 5);
    let (r, steps) = run(
        budget,
        "expr {[expr {[expr {[expr {[expr {[expr {1}]}]}]}]}]}",
    );
    assert_eq!(r.unwrap(), "1");
    assert_eq!(steps, 12);
}

#[test]
fn budget_exhaustion_inside_catch_stops_at_the_identical_step() {
    let budget = Budget {
        max_steps: 100,
        max_depth: 16,
    };
    for src in [
        "catch {while {1} {}} m; set m",
        "catch {catch {for {set i 0} {1} {incr i} {}}}",
        "proc f {} {catch {f}; f}; f",
    ] {
        let (r, steps) = run(budget, src);
        assert!(r.unwrap_err().budget_exhausted, "{src}");
        assert_eq!(steps, 101, "{src}");
    }
}

#[test]
fn a_proc_named_like_a_builtin_is_defined_but_never_called() {
    let mut i = Interp::new();
    let v = i
        .eval(
            &mut NoHost,
            "proc set {a b} {return hijacked}\nproc llength {l} {return -1}\n\
             set x 4\nlist $x [llength {a b}] [info procs]",
        )
        .unwrap();
    assert_eq!(v, Value::str("4 2 {llength set}"));
    assert!(i.has_proc("set"));
    // …even when the name is computed, or the proc appears mid-loop.
    assert_eq!(
        ok("set n 0\nforeach c {incr incr} {if {$n} {proc incr {v} {error no}}; $c n}\nset n").0,
        "2"
    );
}

#[test]
fn hostile_arithmetic_wraps_instead_of_panicking() {
    const MIN: &str = "(-9223372036854775807 - 1)";
    assert_eq!(ok(&format!("expr {{{MIN} / -1}}")).0, i64::MIN.to_string());
    assert_eq!(ok(&format!("expr {{{MIN} % -1}}")).0, "0");
    assert_eq!(ok(&format!("expr {{-{MIN}}}")).0, i64::MIN.to_string());
    assert_eq!(ok(&format!("expr {{abs({MIN})}}")).0, i64::MIN.to_string());
    assert_eq!(
        ok("set i 9223372036854775807; incr i").0,
        i64::MIN.to_string()
    );
    assert_eq!(
        ok("set i -9223372036854775807; incr i -2").0,
        "9223372036854775807"
    );
}

#[test]
fn glob_matching_is_polynomial_because_it_costs_one_step() {
    // `string match` charges a single step whatever its arguments, so
    // its cost must be bounded by their size: the recursive matcher
    // took minutes on the first of these and would not finish the rest.
    let timed = |src: &str| {
        let t0 = std::time::Instant::now();
        let out = ok(src);
        assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
        out
    };
    let six = format!("string match {}b {}", "*a".repeat(6), "a".repeat(120));
    assert_eq!(timed(&six), ("0".into(), 1));
    let sixteen = "*a".repeat(16);
    let text = "a".repeat(4096);
    assert_eq!(
        timed(&format!("string match {sixteen}b {text}")),
        ("0".into(), 1)
    );
    assert_eq!(
        timed(&format!("string match {sixteen}b {text}b")),
        ("1".into(), 1)
    );
    // The same matcher behind `lsearch` and `switch -glob`.
    assert_eq!(
        timed(&format!("lsearch [list x {text} {text}b] {sixteen}b")),
        ("2".into(), 2)
    );
    assert_eq!(
        timed(&format!(
            "switch -glob {text} {{{sixteen}b {{set r no}} {sixteen} {{set r yes}}}}"
        )),
        ("yes".into(), 2)
    );
    // Non-ASCII text takes the `char` path; same bound, same answers.
    let wide = "é".repeat(2048);
    assert_eq!(
        timed(&format!("string match {}x {wide}", "*é".repeat(16))),
        ("0".into(), 1)
    );
}
