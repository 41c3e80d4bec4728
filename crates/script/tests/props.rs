//! Property tests for the interpreter: list quoting round-trips, expr
//! agrees with Rust integer semantics, budgets always terminate, and
//! evaluation is deterministic.

use proptest::prelude::*;

use std::sync::atomic::{AtomicU64, Ordering};

use rover_script::{format_list, parse_list, Budget, Interp, NoHost, ScriptError, Value};

/// Makes `src` text no thread has compiled yet, so its first evaluation
/// is a cold compile and its second a program-cache hit.
fn never_seen(src: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("{src}\n# {}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Runs a script in a fresh interpreter, reducing the outcome to
/// comparable data: result-or-error string plus the exact step count.
fn outcome(src: &str) -> (Result<String, ScriptError>, u64) {
    let mut i = Interp::with_budget(Budget {
        max_steps: 20_000,
        max_depth: 16,
    });
    let r = i.eval(&mut NoHost, src).map(|v| v.as_str().into_owned());
    (r, i.steps_used())
}

proptest! {
    #[test]
    fn list_format_parse_roundtrip(
        items in proptest::collection::vec("[ -~]{0,20}", 0..12),
    ) {
        // Printable-ASCII strings (the RDO data plane) survive list
        // quoting exactly.
        let vals: Vec<Value> = items.iter().map(Value::str).collect();
        let s = format_list(&vals);
        let back = parse_list(&s).unwrap();
        let got: Vec<String> = back.iter().map(|v| v.as_str().into_owned()).collect();
        prop_assert_eq!(got, items);
    }

    #[test]
    fn nested_list_roundtrip(
        inner in proptest::collection::vec("[a-z ]{0,10}", 0..6),
        outer_tail in proptest::collection::vec("[a-z]{1,8}", 0..6),
    ) {
        let inner_v = Value::list(inner.iter().map(Value::str).collect());
        let mut items = vec![inner_v.clone()];
        items.extend(outer_tail.iter().map(Value::str));
        let s = format_list(&items);
        let back = parse_list(&s).unwrap();
        prop_assert_eq!(back.len(), items.len());
        let inner_back = back[0].as_list().unwrap();
        let got: Vec<String> = inner_back.iter().map(|v| v.as_str().into_owned()).collect();
        prop_assert_eq!(got, inner);
    }

    #[test]
    fn expr_add_mul_matches_rust(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let mut i = Interp::new();
        let sum = i.eval(&mut NoHost, &format!("expr {{{a} + {b}}}")).unwrap();
        prop_assert_eq!(sum, Value::Int(a + b));
        let prod = i.eval(&mut NoHost, &format!("expr {{{a} * {b}}}")).unwrap();
        prop_assert_eq!(prod, Value::Int(a.wrapping_mul(b)));
    }

    #[test]
    fn expr_comparisons_match_rust(a in -1000i64..1000, b in -1000i64..1000) {
        let mut i = Interp::new();
        for (op, expect) in [
            ("<", a < b), ("<=", a <= b), (">", a > b), (">=", a >= b),
            ("==", a == b), ("!=", a != b),
        ] {
            let v = i.eval(&mut NoHost, &format!("expr {{{a} {op} {b}}}")).unwrap();
            prop_assert_eq!(v, Value::bool(expect), "{} {} {}", a, op, b);
        }
    }

    #[test]
    fn expr_division_matches_euclid(a in -1000i64..1000, b in 1i64..100) {
        let mut i = Interp::new();
        let q = i.eval(&mut NoHost, &format!("expr {{{a} / {b}}}")).unwrap();
        prop_assert_eq!(q, Value::Int(a.div_euclid(b)));
        let r = i.eval(&mut NoHost, &format!("expr {{{a} % {b}}}")).unwrap();
        prop_assert_eq!(r, Value::Int(a.rem_euclid(b)));
    }

    #[test]
    fn foreach_sum_matches_iterator(xs in proptest::collection::vec(-100i64..100, 0..40)) {
        let list = format_list(&xs.iter().map(|x| Value::Int(*x)).collect::<Vec<_>>());
        let mut i = Interp::new();
        let v = i
            .eval(&mut NoHost, &format!("set s 0\nforeach x {{{list}}} {{incr s $x}}\nset s"))
            .unwrap();
        prop_assert_eq!(v.as_int().unwrap(), xs.iter().sum::<i64>());
    }

    #[test]
    fn lsort_integer_matches_rust_sort(xs in proptest::collection::vec(-500i64..500, 0..30)) {
        let list = format_list(&xs.iter().map(|x| Value::Int(*x)).collect::<Vec<_>>());
        let mut i = Interp::new();
        let v = i.eval(&mut NoHost, &format!("lsort -integer {{{list}}}")).unwrap();
        let got: Vec<i64> = v.as_list().unwrap().iter().map(|x| x.as_int().unwrap()).collect();
        let mut want = xs.clone();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn arbitrary_scripts_never_hang_or_panic(src in "[ -~\\n]{0,200}") {
        // Any byte soup either evaluates, errors, or exhausts the
        // budget — within bounded steps and without panicking.
        let mut i = Interp::with_budget(Budget { max_steps: 20_000, max_depth: 16 });
        let _ = i.eval(&mut NoHost, &src);
        prop_assert!(i.steps_used() <= 20_001);
    }

    #[test]
    fn evaluation_is_deterministic(
        xs in proptest::collection::vec(0i64..50, 1..10),
    ) {
        let list = format_list(&xs.iter().map(|x| Value::Int(*x)).collect::<Vec<_>>());
        let src = format!(
            "set out {{}}\nforeach x {{{list}}} {{lappend out [expr {{$x * $x}}]}}\nset out"
        );
        let mut a = Interp::new();
        let mut b = Interp::new();
        let va = a.eval(&mut NoHost, &src).unwrap();
        let vb = b.eval(&mut NoHost, &src).unwrap();
        prop_assert_eq!(va.as_str(), vb.as_str());
        prop_assert_eq!(a.steps_used(), b.steps_used());
    }

    #[test]
    fn warm_program_cache_matches_cold_compile(src in "[ -~\\n]{0,200}") {
        // The program cache is wall-clock only: over arbitrary byte
        // soup, the evaluation that compiles a source and the ones that
        // find it compiled must agree on the result, the error, and the
        // exact step count.
        let src = never_seen(&src);
        let cold = outcome(&src);
        prop_assert_eq!(&cold, &outcome(&src));
        prop_assert_eq!(&cold, &outcome(&src));
    }

    #[test]
    fn warm_loops_match_cold_loops(
        n in 0u32..40,
        inc in 1i64..5,
        calls in 1u32..6,
    ) {
        // Structured hot-path scripts: loops re-entering their bodies
        // and procs called repeatedly — what compile-once accelerates.
        let src = never_seen(&format!(
            "proc step {{d}} {{global s; incr s $d}}\n\
             set s 0\n\
             for {{set i 0}} {{$i < {n}}} {{incr i}} {{step {inc}}}\n\
             set j 0\n\
             while {{$j < {calls}}} {{incr j; step {inc}}}\n\
             foreach k {{1 2 3}} {{step $k}}\n\
             set s"
        ));
        let cold = outcome(&src);
        prop_assert_eq!(&cold, &outcome(&src));
        let expect = i64::from(n) * inc + i64::from(calls) * inc + 6;
        prop_assert_eq!(cold.0.unwrap(), expect.to_string());
    }

    #[test]
    fn string_commands_agree_with_rust(s in "[a-zA-Z0-9 ]{0,30}") {
        let mut i = Interp::new();
        let len = i.eval(&mut NoHost, &format!("string length {{{s}}}")).unwrap();
        prop_assert_eq!(len.as_int().unwrap() as usize, s.chars().count());
        let lower = i.eval(&mut NoHost, &format!("string tolower {{{s}}}")).unwrap();
        prop_assert_eq!(lower.as_str(), s.to_lowercase());
    }
}
