// Program-scale interpreter tests: multi-proc Tcl programs of the kind
// real RDOs are made of.
//
// Besides its own assertions, every test folds each evaluation's full
// observable outcome (result or error text and flags, `steps_used`,
// `puts` output) into a digest and checks it against the `program`
// lines of `crates/fuzz/golden/script_outcomes.txt`, recorded from the
// tree-walking evaluator the compiled one replaced: step accounting
// feeds every virtual-time figure, so it is contract, not detail.
//
// (Plain comments, not `//!`: the library's unit tests `include!` this
// file to run every program under both of the compiler's lowerings.)

use rover_script::{Budget, Interp, NoHost, ScriptError, Value};

const GOLDEN: &str = include_str!("../../fuzz/golden/script_outcomes.txt");

/// One test's interpreter plus the running outcome digest (FNV-1a).
struct Program {
    name: &'static str,
    interp: Interp,
    digest: u64,
}

impl Program {
    fn new(name: &'static str) -> Program {
        Program::with_budget(name, Budget::default())
    }

    fn with_budget(name: &'static str, budget: Budget) -> Program {
        Program {
            name,
            interp: Interp::with_budget(budget),
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn eval(&mut self, src: &str) -> Result<Value, ScriptError> {
        let r = self.interp.eval(&mut NoHost, src);
        let outcome = format!(
            "{:?}\n{}\n{:?}\n",
            r.as_ref().map(|v| v.as_str().into_owned()),
            self.interp.steps_used(),
            self.interp.take_output()
        );
        for b in outcome.bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        r
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let line = format!("program {} {:016x}", self.name, self.digest);
        assert!(
            GOLDEN.lines().any(|l| l == line),
            "outcome digest moved (or is unrecorded): {line}"
        );
    }
}

fn ev(name: &'static str, src: &str) -> Value {
    Program::new(name).eval(src).expect("program evaluates")
}

#[test]
fn insertion_sort_program() {
    let v = ev(
        "insertion_sort_program",
        r#"
        proc insert_sorted {lst x} {
            set out {}
            set placed 0
            foreach e $lst {
                if {!$placed && $x < $e} {
                    lappend out $x
                    set placed 1
                }
                lappend out $e
            }
            if {!$placed} {lappend out $x}
            return $out
        }
        proc isort {lst} {
            set out {}
            foreach x $lst {set out [insert_sorted $out $x]}
            return $out
        }
        isort {5 3 9 1 7 3 8 2 6 4}
    "#,
    );
    assert_eq!(v.as_str(), "1 2 3 3 4 5 6 7 8 9");
}

#[test]
fn word_frequency_with_arrays() {
    let v = ev(
        "word_frequency_with_arrays",
        r#"
        proc freq {text} {
            foreach w [split $text] {
                if {$w eq ""} {continue}
                if {[info exists n($w)]} {
                    incr n($w)
                } else {
                    set n($w) 1
                }
            }
            set out {}
            foreach k [lsort [array names n]] {
                lappend out [list $k $n($k)]
            }
            return $out
        }
        freq "the cat and the dog and the bird"
    "#,
    );
    assert_eq!(v.as_str(), "{and 2} {bird 1} {cat 1} {dog 1} {the 3}");
}

#[test]
fn bank_account_state_machine() {
    let mut i = Program::new("bank_account_state_machine");
    i.eval(
        r#"
        set balance 100
        proc deposit {amt} {
            global balance
            if {$amt <= 0} {error "bad amount"}
            incr balance $amt
            return $balance
        }
        proc withdraw {amt} {
            global balance
            if {$amt > $balance} {error "insufficient funds"}
            incr balance [expr {-$amt}]
            return $balance
        }
        "#,
    )
    .unwrap();
    assert_eq!(i.eval("deposit 50").unwrap(), Value::Int(150));
    assert_eq!(i.eval("withdraw 120").unwrap(), Value::Int(30));
    let err = i.eval("withdraw 31").unwrap_err();
    assert!(err.message.contains("insufficient"));
    assert_eq!(i.eval("set balance").unwrap(), Value::Int(30));
    // catch-based client code recovers.
    assert_eq!(
        i.eval("if {[catch {withdraw 1000} msg]} {set msg}")
            .unwrap()
            .as_str(),
        "insufficient funds"
    );
}

#[test]
fn matrix_transpose_via_nested_lists() {
    let v = ev(
        "matrix_transpose_via_nested_lists",
        r#"
        proc transpose {m} {
            set rows [llength $m]
            set cols [llength [lindex $m 0]]
            set out {}
            for {set c 0} {$c < $cols} {incr c} {
                set row {}
                for {set r 0} {$r < $rows} {incr r} {
                    lappend row [lindex [lindex $m $r] $c]
                }
                lappend out $row
            }
            return $out
        }
        transpose {{1 2 3} {4 5 6}}
    "#,
    );
    assert_eq!(v.as_str(), "{1 4} {2 5} {3 6}");
}

#[test]
fn ackermann_small_with_recursion_budget() {
    let mut i = Program::with_budget(
        "ackermann_small_with_recursion_budget",
        Budget {
            max_steps: 500_000,
            max_depth: 64,
        },
    );
    let v = i
        .eval(
            r#"
            proc ack {m n} {
                if {$m == 0} {return [expr {$n + 1}]}
                if {$n == 0} {return [ack [expr {$m - 1}] 1]}
                return [ack [expr {$m - 1}] [ack $m [expr {$n - 1}]]]
            }
            ack 2 3
            "#,
        )
        .unwrap();
    assert_eq!(v, Value::Int(9));
}

#[test]
fn csv_like_parsing_and_report() {
    let v = ev(
        "csv_like_parsing_and_report",
        r#"
        set csv "alice,9,design\nbob,14,review\ncarol,16,retro"
        set total 0
        set names {}
        foreach line [split $csv "\n"] {
            lassign [split $line ,] who slot title
            lappend names $who
            incr total $slot
        }
        format "%s booked, slots sum %d" [join $names +] $total
    "#,
    );
    assert_eq!(v.as_str(), "alice+bob+carol booked, slots sum 39");
}

#[test]
fn switch_driven_command_dispatcher() {
    let v = ev(
        "switch_driven_command_dispatcher",
        r#"
        proc dispatch {cmd args} {
            switch -glob $cmd {
                get* {return "GET [lindex $args 0]"}
                put* {return "PUT [lindex $args 0]=[lindex $args 1]"}
                default {error "unknown command $cmd"}
            }
        }
        list [dispatch get_field n] [dispatch put_field n 42] [catch {dispatch frob} m] $m
    "#,
    );
    assert_eq!(v.as_str(), "{GET n} {PUT n=42} 1 {unknown command frob}");
}

#[test]
fn string_processing_pipeline() {
    let v = ev(
        "string_processing_pipeline",
        r#"
        proc slugify {s} {
            set s [string tolower [string trim $s]]
            set out {}
            foreach w [split $s] {
                if {$w ne ""} {lappend out $w}
            }
            join $out -
        }
        slugify "  Rover: a Toolkit   for MOBILE access  "
    "#,
    );
    assert_eq!(v.as_str(), "rover:-a-toolkit-for-mobile-access");
}

#[test]
fn fizzbuzz_builds_correct_list() {
    let v = ev(
        "fizzbuzz_builds_correct_list",
        r#"
        set out {}
        for {set i 1} {$i <= 15} {incr i} {
            if {$i % 15 == 0} {lappend out fizzbuzz} \
            elseif {$i % 3 == 0} {lappend out fizz} \
            elseif {$i % 5 == 0} {lappend out buzz} \
            else {lappend out $i}
        }
        set out
    "#,
    );
    assert_eq!(
        v.as_str(),
        "1 2 fizz 4 buzz fizz 7 8 fizz buzz 11 fizz 13 14 fizzbuzz"
    );
}

#[test]
fn deep_data_structure_roundtrip() {
    // An address book as nested lists, queried with lindex/lsearch.
    let v = ev(
        "deep_data_structure_roundtrip",
        r#"
        set book {}
        lappend book {alice {phone 555-1234 room 401}}
        lappend book {bob {phone 555-9876 room 112}}
        proc lookup {book who field} {
            foreach e $book {
                if {[lindex $e 0] eq $who} {
                    set props [lindex $e 1]
                    set i [lsearch $props $field]
                    if {$i >= 0} {return [lindex $props [expr {$i + 1}]]}
                }
            }
            return ""
        }
        list [lookup $book alice room] [lookup $book bob phone] [lookup $book carol phone]
    "#,
    );
    assert_eq!(v.as_str(), "401 555-9876 {}");
}

#[test]
fn long_running_program_fits_default_budget() {
    let mut i = Program::new("long_running_program_fits_default_budget");
    let v = i
        .eval(
            "set acc 0
             for {set i 0} {$i < 20000} {incr i} {
                 set acc [expr {($acc + $i) % 997}]
             }
             set acc",
        )
        .unwrap();
    // Cross-checked in Rust.
    let mut acc = 0i64;
    for i in 0..20_000 {
        acc = (acc + i) % 997;
    }
    assert_eq!(v, Value::Int(acc));
    assert!(i.interp.steps_used() < 1_000_000);
}

#[test]
fn upvar_implements_pass_by_name() {
    let v = ev(
        "upvar_implements_pass_by_name",
        r#"
        proc double_it {varname} {
            upvar $varname x
            set x [expr {$x * 2}]
        }
        set n 21
        double_it n
        set n
    "#,
    );
    assert_eq!(v, Value::Int(42));
}

#[test]
fn upvar_list_helper_mutates_caller() {
    let v = ev(
        "upvar_list_helper_mutates_caller",
        r#"
        proc push {listname item} {
            upvar 1 $listname l
            lappend l $item
        }
        proc pop {listname} {
            upvar 1 $listname l
            set last [lindex $l end]
            set l [lrange $l 0 end-1]
            return $last
        }
        set stack {}
        push stack a
        push stack b
        push stack c
        set got [pop stack]
        list $got $stack
    "#,
    );
    assert_eq!(v.as_str(), "c {a b}");
}

#[test]
fn upvar_hash_zero_reaches_global() {
    let v = ev(
        "upvar_hash_zero_reaches_global",
        r#"
        set counter 0
        proc helper {} {
            proc_inner
        }
        proc proc_inner {} {
            upvar #0 counter c
            incr c
        }
        helper
        helper
        set counter
    "#,
    );
    assert_eq!(v, Value::Int(2));
}

#[test]
fn upvar_chain_through_two_frames() {
    let v = ev(
        "upvar_chain_through_two_frames",
        r#"
        proc outer {} {
            set local 5
            middle local
            return $local
        }
        proc middle {name} {
            upvar 1 $name m
            inner m
        }
        proc inner {name} {
            upvar 1 $name i
            incr i 10
        }
        outer
    "#,
    );
    assert_eq!(v, Value::Int(15));
}

#[test]
fn upvar_outside_proc_errors() {
    let e = Program::new("upvar_outside_proc_errors")
        .eval("upvar x y")
        .unwrap_err();
    assert!(e.message.contains("procedure") || e.message.contains("upvar"));
}
