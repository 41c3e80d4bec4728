//! Settling as a value: each case puts one request of a class in
//! flight on a disconnected client, takes the bare [`Client`] out of its
//! handle, and settles the request once by giving up and once by a
//! non-`Ok` reply — no event loop runs while it settles. Both must
//! leave the same client behind: pins, in-flight imports, pending
//! exports, tentative copy, session and stable log.

#![cfg(test)]

use std::collections::HashMap;
use std::rc::Rc;

use rover_log::RecordKind;
use rover_net::LinkSpec;
use rover_sim::Sim;
use rover_wire::{Bytes, HostId, OpStatus, Priority, QrpcReply, RequestId, Version};

use super::{Answer, Client};
use crate::config::ClientConfig;
use crate::session::Guarantees;
use crate::urn::Urn;
use crate::world::{counter_object, World};

#[derive(Clone, Copy, Debug)]
enum Class {
    Import,
    Export,
    Invoke,
    Ping,
}

fn urn() -> Urn {
    Urn::parse("urn:rover:settle/c").expect("static urn")
}

/// Everything settling unwinds, as comparable values: the cached
/// entry's pin count and tentative `n`, in-flight imports, pending
/// exports, whether the session still waits on its own write, and the
/// stable log's live records.
#[derive(Debug, PartialEq)]
struct Residue {
    pins: usize,
    tentative_n: Option<String>,
    inflight_imports: HashMap<Urn, u64>,
    dirty_ops: HashMap<Urn, usize>,
    own_write_pending: bool,
    log: Vec<(u64, RecordKind, Bytes)>,
}

fn residue(c: &Client) -> Residue {
    let entry = c.cache.peek(&urn()).expect("cached");
    Residue {
        pins: entry.pending_ops,
        tentative_n: entry
            .tentative
            .as_ref()
            .and_then(|t| t.field("n").map(str::to_owned)),
        inflight_imports: c.inflight_imports.clone(),
        dirty_ops: c.dirty_ops.clone(),
        own_write_pending: c.sessions[&1].needs_own_writes(&urn()),
        log: c
            .log
            .records()
            .map(|r| (r.seq, r.kind, r.payload.clone()))
            .collect(),
    }
}

/// A disconnected client with counter `c` cached and one request of
/// `class` in flight (issued, logged, queued, its probe parked).
/// Returns the bare client and the request's id.
fn in_flight(class: Class) -> (Sim, Client, u64) {
    let mut w = World::new(1);
    let link = w.link(LinkSpec::ETHERNET_10M, HostId(1), HostId(2));
    w.net.set_up(&mut w.sim, link, false);
    let cfg = ClientConfig::thinkpad(HostId(1), HostId(2));
    let links = w.links_of(HostId(1));
    let World { mut sim, net, .. } = w;
    let cl = Client::new(&mut sim, &net, cfg, links);
    let session = Client::create_session(&cl, Guarantees::ALL, true);
    let counter = counter_object(&urn(), 0);
    cl.borrow_mut()
        .cache
        .install_committed(Rc::new(counter), sim.now());
    let prio = Priority::NORMAL;
    match class {
        Class::Import => {
            // The session has read a newer version than the cached
            // copy: a monotonic-reads miss, issued as a QRPC.
            let newer = Version(cl.borrow().cache.version(&urn()).0 + 1);
            cl.borrow_mut()
                .sessions
                .get_mut(&session.0)
                .expect("session")
                .note_read(&urn(), newer);
            Client::import(&cl, &mut sim, &urn(), session, prio).expect("import");
        }
        Class::Export => {
            Client::export(&cl, &mut sim, &urn(), session, "add", &["1"], prio).expect("export");
        }
        Class::Invoke => {
            Client::invoke_remote(&cl, &mut sim, &urn(), session, "add", &["1"], prio)
                .expect("invoke");
        }
        Class::Ping => {
            Client::ping(&cl, &mut sim, session, prio);
        }
    }
    sim.run();
    let c = Rc::try_unwrap(cl).ok().expect("sole owner").into_inner();
    let id = c.next_req - 1;
    assert!(c.outstanding.contains_key(&id), "{class:?} in flight");
    (sim, c, id)
}

/// Settles one request of `class` by giving up and one by refusing
/// it; checks both outcomes and returns what each left behind, with
/// what was there before.
fn both_ways(class: Class) -> (Residue, Residue, Residue) {
    let (mut sim, mut c, id) = in_flight(class);
    let before = residue(&c);
    let settled = c.abandon(&mut sim, id).expect("outstanding");
    assert_eq!(settled.outcome.status, OpStatus::Unreachable);
    let given_up = residue(&c);

    let (mut sim, mut c, id) = in_flight(class);
    let reply = QrpcReply {
        req_id: RequestId(id),
        status: OpStatus::Rejected,
        version: Version(0),
        payload: Bytes::new(),
    };
    let Some(Answer::Settle(settled)) = c.answer(&mut sim, reply) else {
        panic!("a refusal settles {class:?}");
    };
    assert_eq!(settled.outcome.status, OpStatus::Rejected);
    assert!(!c.outstanding.contains_key(&id));
    (before, given_up, residue(&c))
}

/// No request record is left live; the retirement's completion marker
/// is.
fn retired(r: &Residue) -> bool {
    !r.log.iter().any(|l| l.1 == RecordKind::Request)
        && r.log.iter().any(|l| l.1 == RecordKind::Completion)
}

#[test]
fn import_give_up_and_refusal_unwind_alike() {
    let (before, given_up, refused) = both_ways(Class::Import);
    assert_eq!((before.pins, before.inflight_imports.len()), (1, 1));
    assert_eq!(given_up, refused);
    assert_eq!((refused.pins, refused.inflight_imports.len()), (0, 0));
    assert!(retired(&refused));
}

#[test]
fn export_give_up_and_refusal_unwind_alike() {
    let (before, given_up, refused) = both_ways(Class::Export);
    assert_eq!(before.pins, 1);
    assert_eq!(before.tentative_n.as_deref(), Some("1"));
    assert_eq!(before.dirty_ops.get(&urn()), Some(&1));
    assert!(before.own_write_pending);
    assert_eq!(given_up, refused);
    assert_eq!(refused.pins, 0);
    assert_eq!(refused.tentative_n, None);
    assert!(refused.dirty_ops.is_empty());
    assert!(!refused.own_write_pending);
    assert!(retired(&refused));
}

#[test]
fn invoke_give_up_and_refusal_unwind_alike() {
    let (before, given_up, refused) = both_ways(Class::Invoke);
    assert_eq!(before.pins, 1);
    assert_eq!(given_up, refused);
    assert_eq!(refused.pins, 0);
    assert!(retired(&refused));
}

#[test]
fn ping_give_up_and_refusal_unwind_alike() {
    let (before, given_up, refused) = both_ways(Class::Ping);
    assert_eq!(before.pins, 0);
    assert_eq!(given_up, refused);
    assert!(retired(&refused));
}

#[test]
fn a_reply_after_a_give_up_is_a_duplicate() {
    let (mut sim, mut c, id) = in_flight(Class::Export);
    c.abandon(&mut sim, id).expect("outstanding");
    let after = residue(&c);
    let reply = QrpcReply {
        req_id: RequestId(id),
        status: OpStatus::Ok,
        version: Version(2),
        payload: Bytes::new(),
    };
    assert!(c.answer(&mut sim, reply).is_none());
    assert!(c.abandon(&mut sim, id).is_none());
    assert_eq!(sim.stats.counter("client.duplicate_replies"), 1);
    assert_eq!(residue(&c), after);
}
