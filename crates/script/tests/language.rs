//! The language, command by command, through the public API: variables
//! and substitution, control flow, procs, `expr`, lists and strings,
//! error handling, budgets, and the host-command seam.

use rover_script::{Budget, HostEnv, Interp, NoHost, ScriptError, Value};

fn ev(src: &str) -> Value {
    Interp::new().eval(&mut NoHost, src).expect("eval")
}

fn ev_err(src: &str) -> ScriptError {
    Interp::new()
        .eval(&mut NoHost, src)
        .expect_err("expected error")
}

// ------------------------------------------------------------------
// Variables and substitution.

#[test]
fn set_and_get() {
    assert_eq!(ev("set x 5; set x"), Value::Int(5));
    assert_eq!(ev("set x hello; set y $x; set y"), Value::str("hello"));
}

#[test]
fn unset_removes() {
    let e = ev_err("set x 1; unset x; set x");
    assert!(e.message.contains("no such variable"), "{e}");
}

#[test]
fn incr_and_append() {
    assert_eq!(ev("set i 10; incr i; incr i 5"), Value::Int(16));
    assert_eq!(ev("incr fresh 3"), Value::Int(3));
    assert_eq!(ev("set s ab; append s cd ef"), Value::str("abcdef"));
}

#[test]
fn string_interpolation() {
    assert_eq!(
        ev(r#"set n world; set g "hello $n!""#),
        Value::str("hello world!")
    );
}

#[test]
fn command_substitution_nested() {
    assert_eq!(ev("set x [expr {1 + [expr {2 * 3}]}]"), Value::Int(7));
}

#[test]
fn arrays() {
    assert_eq!(
        ev("set a(x) 1; set a(y) 2; expr {$a(x) + $a(y)}"),
        Value::Int(3)
    );
    assert_eq!(ev("set a(k) v; array size a"), Value::Int(1));
    assert_eq!(ev("array set m {one 1 two 2}; set m(two)"), Value::Int(2));
    assert_eq!(ev("set a(x) 1; array names a"), Value::str("x"));
    assert_eq!(ev("array exists nope"), Value::Int(0));
}

#[test]
fn array_scalar_confusion_errors() {
    assert!(ev_err("set a(x) 1; set a").message.contains("is array"));
    assert!(ev_err("set a 1; set a(x) 2")
        .message
        .contains("isn't array"));
}

// ------------------------------------------------------------------
// Control flow.

#[test]
fn if_elseif_else() {
    assert_eq!(
        ev("set x 5; if {$x > 3} {set r big} else {set r small}"),
        Value::str("big")
    );
    assert_eq!(
        ev("set x 2; if {$x > 3} {set r a} elseif {$x > 1} {set r b} else {set r c}"),
        Value::str("b")
    );
    assert_eq!(ev("if {0} {set r a}"), Value::empty());
}

#[test]
fn while_loop_with_break_continue() {
    let v = ev("set s 0
                set i 0
                while {$i < 10} {
                    incr i
                    if {$i == 3} {continue}
                    if {$i == 6} {break}
                    incr s $i
                }
                set s");
    // 1 + 2 + 4 + 5 = 12
    assert_eq!(v, Value::Int(12));
}

#[test]
fn for_loop() {
    assert_eq!(
        ev("set s 0; for {set i 1} {$i <= 4} {incr i} {incr s $i}; set s"),
        Value::Int(10)
    );
}

#[test]
fn foreach_single_and_multi_var() {
    assert_eq!(
        ev("set s 0; foreach x {1 2 3} {incr s $x}; set s"),
        Value::Int(6)
    );
    assert_eq!(
        ev("set out {}; foreach {k v} {a 1 b 2} {lappend out $k=$v}; join $out ,"),
        Value::str("a=1,b=2")
    );
}

#[test]
fn switch_exact_glob_and_default() {
    assert_eq!(
        ev("switch b {a {set r 1} b {set r 2} default {set r 3}}"),
        Value::Int(2)
    );
    assert_eq!(
        ev("switch zzz {a {set r 1} default {set r 3}}"),
        Value::Int(3)
    );
    assert_eq!(
        ev("switch -glob mail.inbox {mail.* {set r mail} default {set r other}}"),
        Value::str("mail")
    );
}

#[test]
fn switch_fallthrough() {
    assert_eq!(
        ev("switch a {a - b {set r ab} c {set r c}}"),
        Value::str("ab")
    );
}

// ------------------------------------------------------------------
// Procs.

#[test]
fn proc_definition_and_call() {
    assert_eq!(
        ev("proc double {x} {expr {$x * 2}}; double 21"),
        Value::Int(42)
    );
}

#[test]
fn proc_defaults_and_args() {
    assert_eq!(
        ev("proc greet {{who world}} {return hello-$who}; greet"),
        Value::str("hello-world")
    );
    assert_eq!(
        ev("proc greet {{who world}} {return hello-$who}; greet rover"),
        Value::str("hello-rover")
    );
    assert_eq!(
        ev("proc count {args} {llength $args}; count a b c"),
        Value::Int(3)
    );
}

#[test]
fn proc_wrong_arity_errors() {
    assert!(ev_err("proc f {a b} {set a}; f 1")
        .message
        .contains("wrong # args"));
    assert!(ev_err("proc f {a} {set a}; f 1 2")
        .message
        .contains("wrong # args"));
}

#[test]
fn proc_locals_do_not_leak() {
    let e = ev_err("proc f {} {set local 9}; f; set local");
    assert!(e.message.contains("no such variable"));
}

#[test]
fn global_links_into_proc() {
    assert_eq!(
        ev("set g 10; proc bump {} {global g; incr g}; bump; bump; set g"),
        Value::Int(12)
    );
}

#[test]
fn recursion_works() {
    assert_eq!(
        ev("proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr {$n - 1}]]}}; fact 10"),
        Value::Int(3_628_800)
    );
}

#[test]
fn infinite_recursion_is_caught() {
    let e = ev_err("proc f {} {f}; f");
    assert!(
        e.message.contains("nested") || e.budget_exhausted,
        "unexpected error: {e}"
    );
}

// ------------------------------------------------------------------
// expr.

#[test]
fn expr_arithmetic() {
    assert_eq!(ev("expr {2 + 3 * 4}"), Value::Int(14));
    assert_eq!(ev("expr {(2 + 3) * 4}"), Value::Int(20));
    assert_eq!(ev("expr {7 / 2}"), Value::Int(3));
    assert_eq!(ev("expr {7 % 3}"), Value::Int(1));
    assert_eq!(ev("expr {7.0 / 2}"), Value::Double(3.5));
    assert_eq!(ev("expr {1 + 2.5}"), Value::Double(3.5));
    assert_eq!(ev("expr {-3 + 1}"), Value::Int(-2));
}

#[test]
fn expr_comparisons_and_logic() {
    assert_eq!(ev("expr {3 < 4 && 4 <= 4}"), Value::Int(1));
    assert_eq!(ev("expr {3 > 4 || 0}"), Value::Int(0));
    assert_eq!(ev("expr {!0}"), Value::Int(1));
    assert_eq!(ev("expr {\"abc\" eq \"abc\"}"), Value::Int(1));
    assert_eq!(ev("expr {\"abc\" ne \"abd\"}"), Value::Int(1));
    assert_eq!(ev("expr {10 == 10.0}"), Value::Int(1));
    assert_eq!(ev("expr {\"b\" > \"a\"}"), Value::Int(1));
}

#[test]
fn expr_bitwise_and_shift() {
    assert_eq!(ev("expr {6 & 3}"), Value::Int(2));
    assert_eq!(ev("expr {6 | 3}"), Value::Int(7));
    assert_eq!(ev("expr {6 ^ 3}"), Value::Int(5));
    assert_eq!(ev("expr {1 << 10}"), Value::Int(1024));
    assert_eq!(ev("expr {~0}"), Value::Int(-1));
}

#[test]
fn expr_ternary_and_functions() {
    assert_eq!(ev("expr {5 > 3 ? 10 : 20}"), Value::Int(10));
    assert_eq!(ev("expr {abs(-7)}"), Value::Int(7));
    assert_eq!(ev("expr {min(4, 2, 9)}"), Value::Int(2));
    assert_eq!(ev("expr {max(4, 2, 9)}"), Value::Int(9));
    assert_eq!(ev("expr {int(3.9)}"), Value::Int(3));
    assert_eq!(ev("expr {round(3.5)}"), Value::Int(4));
    assert_eq!(ev("expr {pow(2.0, 10)}"), Value::Double(1024.0));
}

#[test]
fn expr_divide_by_zero() {
    assert!(ev_err("expr {1 / 0}").message.contains("divide by zero"));
    assert!(ev_err("expr {1 % 0}").message.contains("divide by zero"));
}

#[test]
fn expr_with_variables_containing_spaces() {
    // A value with spaces stays a single operand.
    assert_eq!(ev("set s {a b}; expr {$s eq \"a b\"}"), Value::Int(1));
}

#[test]
fn expr_hex_literals() {
    assert_eq!(ev("expr {0xFF + 1}"), Value::Int(256));
}

// ------------------------------------------------------------------
// Lists and strings.

#[test]
fn list_operations() {
    assert_eq!(ev("llength {a b c}"), Value::Int(3));
    assert_eq!(ev("lindex {a b c} 1"), Value::str("b"));
    assert_eq!(ev("lindex {a b c} end"), Value::str("c"));
    assert_eq!(ev("lrange {a b c d e} 1 3"), Value::str("b c d"));
    assert_eq!(ev("lrange {a b c} 1 end"), Value::str("b c"));
    assert_eq!(ev("linsert {a c} 1 b"), Value::str("a b c"));
    assert_eq!(ev("lsearch {a bb ccc} b*"), Value::Int(1));
    assert_eq!(ev("lsearch {a b} zz"), Value::Int(-1));
    assert_eq!(ev("lsort {c a b}"), Value::str("a b c"));
    assert_eq!(ev("lsort -integer {10 2 33}"), Value::str("2 10 33"));
    assert_eq!(
        ev("lsort -integer -decreasing {10 2 33}"),
        Value::str("33 10 2")
    );
    assert_eq!(ev("lreverse {1 2 3}"), Value::str("3 2 1"));
    assert_eq!(ev("concat {a b} {c} {d e}"), Value::str("a b c d e"));
    assert_eq!(ev("join {a b c} -"), Value::str("a-b-c"));
    assert_eq!(ev("split a,b,,c ,"), Value::str("a b {} c"));
    assert_eq!(
        ev("set l {}; lappend l x; lappend l y z; set l"),
        Value::str("x y z")
    );
}

#[test]
fn string_operations() {
    assert_eq!(ev("string length héllo"), Value::Int(5));
    assert_eq!(ev("string index abcdef 2"), Value::str("c"));
    assert_eq!(ev("string index abcdef end"), Value::str("f"));
    assert_eq!(ev("string range abcdef 1 3"), Value::str("bcd"));
    assert_eq!(ev("string tolower AbC"), Value::str("abc"));
    assert_eq!(ev("string toupper AbC"), Value::str("ABC"));
    assert_eq!(ev("string trim {  hi  }"), Value::str("hi"));
    assert_eq!(ev("string match *.txt notes.txt"), Value::Int(1));
    assert_eq!(ev("string compare a b"), Value::Int(-1));
    assert_eq!(ev("string first lo hello"), Value::Int(3));
    assert_eq!(ev("string repeat ab 3"), Value::str("ababab"));
}

#[test]
fn lreplace_variants() {
    assert_eq!(ev("lreplace {a b c d} 1 2"), Value::str("a d"));
    assert_eq!(ev("lreplace {a b c d} 1 2 X Y"), Value::str("a X Y d"));
    assert_eq!(ev("lreplace {a b c} 0 0 z"), Value::str("z b c"));
    assert_eq!(ev("lreplace {a b c} end end"), Value::str("a b"));
}

#[test]
fn lassign_binds_and_returns_rest() {
    assert_eq!(ev("lassign {1 2 3 4} a b; list $a $b"), Value::str("1 2"));
    assert_eq!(ev("lassign {1 2 3 4} a b"), Value::str("3 4"));
    assert_eq!(
        ev("lassign {1} a b c; list $a $b $c"),
        Value::str("1 {} {}")
    );
}

#[test]
fn string_last_and_replace() {
    assert_eq!(ev("string last l hello"), Value::Int(3));
    assert_eq!(ev("string last zz hello"), Value::Int(-1));
    assert_eq!(ev("string replace abcdef 1 3"), Value::str("aef"));
    assert_eq!(ev("string replace abcdef 1 3 XY"), Value::str("aXYef"));
    assert_eq!(ev("string replace abc 5 9 X"), Value::str("abc"));
}

#[test]
fn string_map_substitutes_longest_first_in_order() {
    assert_eq!(ev("string map {a b} banana"), Value::str("bbnbnb"));
    assert_eq!(ev("string map {ab X b Y} abb"), Value::str("XY"));
    assert_eq!(ev("string map {} hello"), Value::str("hello"));
    assert_eq!(
        ev("string map {urn:rover: {}} urn:rover:mail/inbox"),
        Value::str("mail/inbox")
    );
}

#[test]
fn format_basic() {
    assert_eq!(ev("format %s-%d x 7"), Value::str("x-7"));
    assert_eq!(ev("format %5d 42"), Value::str("   42"));
    assert_eq!(ev("format %-5d| 42"), Value::str("42   |"));
    assert_eq!(ev("format %.2f 3.14159"), Value::str("3.14"));
    assert_eq!(ev("format %x 255"), Value::str("ff"));
    assert_eq!(ev(r#"format "100%% done""#), Value::str("100% done"));
}

// ------------------------------------------------------------------
// Error handling.

#[test]
fn catch_captures_errors() {
    assert_eq!(ev("catch {error boom} msg"), Value::Int(1));
    assert_eq!(ev("catch {error boom} msg; set msg"), Value::str("boom"));
    assert_eq!(ev("catch {set ok 1} msg"), Value::Int(0));
}

#[test]
fn error_propagates_uncaught() {
    assert_eq!(ev_err("error kaboom").message, "kaboom");
}

#[test]
fn invalid_command_reports_name() {
    assert!(ev_err("frobnicate 1 2").message.contains("frobnicate"));
}

// ------------------------------------------------------------------
// Budgets (safe execution).

#[test]
fn step_budget_stops_infinite_loop() {
    let mut i = Interp::with_budget(Budget {
        max_steps: 10_000,
        max_depth: 64,
    });
    let e = i
        .eval(&mut NoHost, "while {1} {}")
        .expect_err("must exhaust");
    assert!(e.budget_exhausted);
    assert!(i.steps_used() >= 10_000);
}

#[test]
fn budget_errors_are_not_catchable() {
    let mut i = Interp::with_budget(Budget {
        max_steps: 10_000,
        max_depth: 64,
    });
    let e = i
        .eval(&mut NoHost, "catch {while {1} {}} msg; set msg")
        .expect_err("uncatchable");
    assert!(e.budget_exhausted);
}

#[test]
fn a_list_nested_200_000_deep_renders_and_frees_on_a_small_thread() {
    // Rendering a value and dropping it both walk its nesting; neither
    // may spend host stack per level. A 2 MiB thread is what
    // `std::thread::spawn` gives a host's worker.
    const DEPTH: usize = 200_000;
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let lens = worker
        .spawn(|| {
            let mut i = Interp::with_budget(Budget {
                max_steps: 2_000_000,
                max_depth: 64,
            });
            let src = "set l {}; set i 0; while {$i < 200000} {set l [list $l]; incr i}; set l";
            let v = i.eval(&mut NoHost, src).expect("builds");
            drop(i);
            let script = v.as_str().len();
            // The same depth built from Rust, through the memo form a
            // field rests in (which renders it and checks its items).
            let mut deep = Value::list(Vec::new());
            for _ in 0..DEPTH {
                deep = Value::list(vec![deep]);
            }
            let memo = deep.into_memo().as_str().len();
            drop(v);
            (script, memo)
        })
        .expect("spawns")
        .join()
        .expect("no overflow");
    assert_eq!(lens, (2 * DEPTH, 2 * DEPTH));
}

#[test]
fn steps_accumulate_and_reset() {
    let mut i = Interp::new();
    i.eval(&mut NoHost, "set x 1").unwrap();
    let used = i.steps_used();
    assert!(used >= 1);
    i.reset_steps();
    assert_eq!(i.steps_used(), 0);
}

// ------------------------------------------------------------------
// Host environment.

struct Adder {
    calls: usize,
}

impl HostEnv for Adder {
    fn call(
        &mut self,
        _interp: &mut Interp,
        name: &str,
        args: &[Value],
    ) -> Option<Result<Value, ScriptError>> {
        if name != "host::add" {
            return None;
        }
        self.calls += 1;
        let mut sum = 0;
        for a in args {
            match a.as_int() {
                Ok(i) => sum += i,
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok(Value::Int(sum)))
    }
}

#[test]
fn host_commands_dispatch() {
    let mut host = Adder { calls: 0 };
    let mut i = Interp::new();
    let v = i.eval(&mut host, "expr {[host::add 1 2 3] * 10}").unwrap();
    assert_eq!(v, Value::Int(60));
    assert_eq!(host.calls, 1);
}

#[test]
fn host_errors_are_catchable() {
    let mut host = Adder { calls: 0 };
    let mut i = Interp::new();
    let v = i.eval(&mut host, "catch {host::add x} m; set m").unwrap();
    assert!(v.as_str().contains("expected integer"));
}

#[test]
fn procs_shadow_host_but_not_builtins() {
    let mut host = Adder { calls: 0 };
    let mut i = Interp::new();
    i.eval(&mut host, "proc host::add {a b} {return proc-won}")
        .unwrap();
    assert_eq!(
        i.eval(&mut host, "host::add 1 2").unwrap(),
        Value::str("proc-won")
    );
    assert_eq!(host.calls, 0);
}

// ------------------------------------------------------------------
// Output and misc.

#[test]
fn puts_accumulates_output() {
    let mut i = Interp::new();
    i.eval(&mut NoHost, "puts hello; puts -nonewline wor; puts ld")
        .unwrap();
    assert_eq!(i.take_output(), "hello\nworld\n");
    assert_eq!(i.take_output(), "");
}

#[test]
fn info_exists_and_procs() {
    assert_eq!(ev("set x 1; info exists x"), Value::Int(1));
    assert_eq!(ev("info exists nope"), Value::Int(0));
    assert_eq!(ev("set a(k) 1; info exists a(k)"), Value::Int(1));
    assert_eq!(ev("set a(k) 1; info exists a(j)"), Value::Int(0));
    assert_eq!(
        ev("proc f {} {}; proc g {} {}; info procs"),
        Value::str("f g")
    );
}

#[test]
fn eval_command() {
    assert_eq!(ev("set cmd {expr {6 * 7}}; eval $cmd"), Value::Int(42));
}

#[test]
fn set_global_roundtrip_api() {
    let mut i = Interp::new();
    i.set_global("seed", Value::Int(99));
    assert_eq!(
        i.eval(&mut NoHost, "expr {$seed + 1}").unwrap(),
        Value::Int(100)
    );
    assert_eq!(i.get_global("seed"), Some(Value::Int(99)));
    assert_eq!(i.get_global("missing"), None);
}

#[test]
fn comments_and_semicolons() {
    assert_eq!(
        ev("# a comment\nset x 1; # not a comment here, an arg-less statement?\nset x"),
        Value::Int(1)
    );
}

#[test]
fn empty_script_yields_empty() {
    assert_eq!(ev(""), Value::empty());
    assert_eq!(ev("   \n\t ; ;; \n"), Value::empty());
}

#[test]
fn a_realistic_rdo_method() {
    // Filter a list of mail summaries by sender, the way the E5
    // migration experiment's RDO does.
    let v = ev(r#"
        proc filter_by_sender {summaries who} {
            set out {}
            foreach s $summaries {
                set from [lindex $s 0]
                if {[string match $who $from]} {
                    lappend out $s
                }
            }
            return $out
        }
        set box {{alice hello 120} {bob lunch 80} {alice patch 2000}}
        llength [filter_by_sender $box alice]
    "#);
    assert_eq!(v, Value::Int(2));
}
