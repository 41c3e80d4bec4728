//! The server's read-only `Invoke` runs the method on the stored object
//! in place ([`RoverObject::run_query`]), so the field memos a call
//! makes serve the next one. The scratch copy it used to run on is kept
//! here, and only here, as the reference for results and steps.

#![cfg(test)]

use std::rc::Rc;

use rover_script::{Budget, Value};
use rover_sim::Sim;
use rover_wire::{
    Bytes, Decoder, HostId, OpStatus, Priority, QrpcRequest, RequestId, RoverOp, SessionId,
    Version, Wire,
};

use super::pipeline::Admitted;
use super::ServerRef;
use crate::config::ServerConfig;
use crate::object::RoverObject;
use crate::payload::InvokePayload;
use crate::urn::Urn;
use crate::world::World;

fn urn() -> Urn {
    Urn::parse("urn:rover:invoke/index").expect("static urn")
}

fn server() -> ServerRef {
    let sv = World::new(0).server(ServerConfig::workstation(HostId(99)));
    sv.borrow_mut().put_object(
        RoverObject::new(urn(), "index")
            .with_code(
                "proc n {} {llength [rover::get ids]}
                 proc sum {k} {set s 0; foreach v [rover::get ids] {incr s $v}; expr {$s * $k}}
                 proc scribble {v} {rover::set ids $v; rover::set extra 1; llength [rover::get ids]}
                 proc broken {} {rover::set ids {}; error boom}",
            )
            .with_field("ids", "1 2 3 4")
            .with_field("note", "left alone"),
    );
    sv
}

/// Executes an `Invoke` of `method args…`: the reply's status and result
/// text, and the steps it was charged.
fn invoke(sv: &ServerRef, method: &str, args: &[&str]) -> (OpStatus, String, u64) {
    let payload = InvokePayload {
        method: method.to_owned(),
        args: args.iter().map(|a| a.to_string()).collect(),
    };
    let req = QrpcRequest {
        req_id: RequestId(1),
        client: HostId(1),
        session: SessionId(1),
        op: RoverOp::Invoke {
            method: method.to_owned(),
        },
        urn: urn().as_str().to_owned(),
        base_version: Version(0),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: 0,
        payload: payload.to_bytes(),
        read_vector: Vec::new(),
    };
    let (reply, steps) = sv
        .borrow_mut()
        .perform(&mut Sim::new(1), &Admitted::new(req));
    let result = match reply.status {
        OpStatus::Ok => Decoder::new(&reply.payload).get_str().expect("result"),
        _ => String::new(),
    };
    (reply.status, result, steps)
}

/// What the scratch-copy path replied: the method run on a clone of the
/// stored object, which is then thrown away.
fn on_a_scratch_copy(sv: &ServerRef, method: &str, args: &[&str]) -> (OpStatus, String, u64) {
    let mut scratch = sv.borrow().get_object(&urn()).expect("stored").clone();
    let args: Vec<Value> = args.iter().map(|a| Value::str(*a)).collect();
    match scratch.run_method(method, &args, Budget::default()) {
        Ok(run) => (OpStatus::Ok, run.result.as_str().into_owned(), run.steps),
        Err(_) => (OpStatus::ExecError, String::new(), 0),
    }
}

fn ids(sv: &ServerRef) -> Value {
    let sv = sv.borrow();
    let obj = sv.get_object(&urn()).expect("stored");
    obj.fields.value("ids").expect("field").clone()
}

#[test]
fn a_second_invoke_reuses_the_memo_the_first_one_made() {
    let sv = server();
    // Decoded fields rest as plain text until a method reads them.
    assert!(matches!(ids(&sv), Value::Str(_)));
    assert_eq!(invoke(&sv, "n", &[]).1, "4");
    // The read promoted the stored field itself, not a copy's.
    let first = ids(&sv);
    let Value::Memo(first) = &first else {
        panic!("the stored field was not read in place");
    };
    assert_eq!(invoke(&sv, "sum", &["2"]).1, "20");
    let second = ids(&sv);
    let Value::Memo(second) = &second else {
        panic!("the memo was replaced");
    };
    assert!(Rc::ptr_eq(first, second));
}

#[test]
fn results_and_steps_equal_the_scratch_copy_path() {
    let sv = server();
    let calls: [(&str, &[&str]); 6] = [
        ("n", &[]),
        ("sum", &["3"]),
        ("scribble", &["a b"]),
        ("n", &[]),
        ("broken", &[]),
        ("sum", &["x"]),
    ];
    for (method, args) in calls {
        let want = on_a_scratch_copy(&sv, method, args);
        assert_eq!(invoke(&sv, method, args), want, "{method} {args:?}");
    }
    assert_eq!(invoke(&sv, "nosuch", &[]).0, OpStatus::NoSuchMethod);
}

#[test]
fn a_method_that_writes_leaves_the_stored_object_and_its_image_unchanged() {
    let sv = server();
    invoke(&sv, "n", &[]);
    let before = sv.borrow().get_object(&urn()).expect("stored").clone();
    let image: Bytes = before.to_bytes();
    assert_eq!(
        invoke(&sv, "scribble", &["p q r s t"]),
        (OpStatus::Ok, "5".into(), 9)
    );
    assert_eq!(invoke(&sv, "broken", &[]).0, OpStatus::ExecError);
    let sv = sv.borrow();
    let after = sv.get_object(&urn()).expect("stored");
    assert_eq!(after, &before);
    assert_eq!(after.to_bytes(), image);
    assert!(after.field("extra").is_none());
}
