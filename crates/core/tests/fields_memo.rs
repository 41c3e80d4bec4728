//! Differential test of memoised fields against the design they
//! replaced.
//!
//! A field used to be a `String`: `rover::get` copied it into the VM and
//! every list command over it parsed that copy, on every call. It is now
//! a value that parses its text once per object image and hands the VM a
//! reference. The old behaviour is still reachable, exactly: an object
//! just decoded from its wire image has every memo cold. So arm A runs a
//! random sequence of calls on one long-lived object (memos warm, lists
//! kept from `rover::set`, values shared through rollbacks) and arm B
//! runs the same sequence re-decoding its object from `to_bytes()` before
//! every call — parse per call, as before. Result, `steps`, `mutated`,
//! `output` or the error must agree call by call, and the wire image at
//! every step.

use proptest::prelude::*;
use rover_core::{RoverObject, Urn};
use rover_script::{format_list, Budget, Value};
use rover_wire::Wire;

/// Readers that take a field through every list consumer, writers that
/// store what they were given (strings, grown lists, lists holding
/// `expr` results), and the ways a write is undone.
const CODE: &str = r#"
proc each {k} {
    set out {}
    foreach w [rover::get $k {}] {lappend out <$w>}
    return $out
}
proc pairs {k} {
    set out {}
    foreach {a b} [rover::get $k {}] {lappend out $b $a}
    return $out
}
proc at {k i} {lindex [rover::get $k {}] $i}
proc len {k} {llength [rover::get $k]}
proc cat {a b} {concat [rover::get $a {}] [rover::get $b {}]}
proc text {k} {
    set v [rover::get $k {}]
    puts $v
    list [string length $v] [expr {$v eq ""}]
}
proc nested {k} {
    set n 0
    foreach row [rover::get $k {}] {incr n [llength $row]}
    return $n
}
proc bump {k} {
    set l [rover::get $k {}]
    set n [lindex $l 0]
    incr n
    list $n [lindex [lindex $l end] 1]
}
proc put {k v} {rover::set $k $v}
proc push {k v} {
    set l [rover::get $k {}]
    lappend l $v
    rover::set $k $l
    llength $l
}
proc pushnum {k} {
    set l [rover::get $k {}]
    lappend l [expr {2.0 * 2}] [expr {3 + 4}] [list a [expr {1.5 + 1.5}] {}]
    rover::set $k $l
}
proc copy {a b} {rover::set $b [rover::get $a]}
proc del {k} {rover::del $k}
proc keys {p} {rover::keys $p}
proc boom {k v} {
    rover::set $k $v
    rover::del k0
    set n [llength [rover::get $k]]
    error "kapow $n"
}
"#;

/// Field and argument text: canonical lists, the same with loose
/// spacing, and strings over the characters the codec treats specially —
/// braces that do not balance, backslashes, quotes, every kind of space.
fn text() -> BoxedStrategy<String> {
    let canonical = || {
        words().prop_map(|w| {
            let items: Vec<Value> = w.iter().map(Value::str).collect();
            format_list(&items)
        })
    };
    let loose = words().prop_map(|w| {
        let items: Vec<String> = w.iter().map(|s| format_list(&[Value::str(s)])).collect();
        format!(" \t{}\u{2003}\n", items.join(" \u{a0} "))
    });
    prop_oneof![canonical(), canonical(), loose, raw(), Just(String::new())].boxed()
}

fn raw() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        '{', '}', '{', '}', '"', '\\', '$', '[', ']', ';', ' ', ' ', '\t', '\n', '\u{b}', '\u{85}',
        '\u{a0}', '\u{2003}', 'a', 'b', '0', '7', '-', '.', 'é', '語',
    ];
    proptest::collection::vec(0..ALPHABET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn words() -> impl Strategy<Value = Vec<String>> {
    let word = prop_oneof![
        raw(),
        Just("a".to_owned()),
        Just("7".to_owned()),
        Just("4.0".to_owned()),
        Just("-12".to_owned()),
        Just("x y".to_owned()),
        Just(String::new()),
    ];
    proptest::collection::vec(word, 0..6)
}

fn key() -> impl Strategy<Value = String> {
    (0..4u8).prop_map(|i| format!("k{i}"))
}

/// One step of a sequence.
#[derive(Clone, Debug)]
enum Step {
    /// `run_method`.
    Call(&'static str, Vec<String>),
    /// `run_query`: whatever the method writes is rolled back.
    Query(&'static str, Vec<String>),
    /// `fields.insert` from Rust.
    Insert(String, String),
}

fn step() -> BoxedStrategy<Step> {
    prop_oneof![
        call().prop_map(|(m, a)| Step::Call(m, a)),
        call().prop_map(|(m, a)| Step::Call(m, a)),
        call().prop_map(|(m, a)| Step::Query(m, a)),
        (key(), text()).prop_map(|(k, v)| Step::Insert(k, v)),
    ]
    .boxed()
}

fn call() -> impl Strategy<Value = (&'static str, Vec<String>)> {
    let one = |m: &'static str| key().prop_map(move |k| (m, vec![k])).boxed();
    let two = |m: &'static str| {
        (key(), key())
            .prop_map(move |(a, b)| (m, vec![a, b]))
            .boxed()
    };
    let with = |m: &'static str| {
        (key(), text())
            .prop_map(move |(k, v)| (m, vec![k, v]))
            .boxed()
    };
    let index = prop_oneof![
        (0..6u8).prop_map(|i| i.to_string()),
        Just("end".to_owned()),
        Just("end-1".to_owned())
    ];
    prop_oneof![
        one("each"),
        one("pairs"),
        (key(), index).prop_map(|(k, i)| ("at", vec![k, i])).boxed(),
        one("len"),
        two("cat"),
        one("text"),
        one("nested"),
        one("bump"),
        with("put"),
        with("push"),
        one("pushnum"),
        two("copy"),
        one("del"),
        prop_oneof![Just("*"), Just("k[12]"), Just("k?")]
            .prop_map(|p| ("keys", vec![p.to_owned()]))
            .boxed(),
        with("boom"),
    ]
}

/// What one step is compared on.
fn apply(obj: &mut RoverObject, step: &Step) -> String {
    let run = |r: Result<rover_core::MethodRun, rover_core::RoverError>| match r {
        Ok(run) => format!(
            "ok {:?} steps={} mutated={} output={:?}",
            run.result.as_str(),
            run.steps,
            run.mutated,
            run.output
        ),
        Err(e) => format!("err {e:?}"),
    };
    let values = |args: &[String]| args.iter().map(Value::str).collect::<Vec<_>>();
    match step {
        Step::Call(m, args) => run(obj.run_method(m, &values(args), Budget::default())),
        Step::Query(m, args) => run(obj.run_query(m, &values(args), Budget::default())),
        Step::Insert(k, v) => {
            obj.fields.insert(k.clone(), v.as_str());
            "inserted".to_owned()
        }
    }
}

proptest! {
    #[test]
    fn warm_memos_agree_with_parse_per_call(
        fields in proptest::collection::vec(text(), 0..4),
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let mut warm = RoverObject::new(Urn::parse("urn:rover:t/memo").unwrap(), "t")
            .with_code(CODE);
        for (i, v) in fields.iter().enumerate() {
            warm.fields.insert(format!("k{i}"), v.as_str());
        }
        let mut cold_image = warm.to_bytes();
        for (n, step) in steps.iter().enumerate() {
            let mut cold = RoverObject::from_bytes(&cold_image).unwrap();
            prop_assert_eq!(
                apply(&mut warm, step),
                apply(&mut cold, step),
                "step {} of {:?}", n, steps
            );
            cold_image = cold.to_bytes();
            prop_assert_eq!(&warm.to_bytes(), &cold_image, "after step {} of {:?}", n, steps);
            prop_assert_eq!(warm.size_bytes(), cold.size_bytes());
        }
    }
}
