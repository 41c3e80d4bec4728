//! The admission gate as a value: each case drives [`Server::gate`] on a
//! bare server — no event loop runs — and checks which of its four
//! answers it gives (reply now, drop, hold, run) and why.

#![cfg(test)]

use std::rc::Rc;

use rover_sim::{Sim, SimDuration};
use rover_wire::{
    HostId, MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest, RequestId, RoverOp, SessionId,
    Version, Wire,
};

use super::pipeline::{Gate, Staged};
use super::Server;
use crate::config::{CommitPolicy, ServerConfig};
use crate::payload::ExportPayload;
use crate::urn::Urn;
use crate::world::{counter_object, World};

const CLIENT: HostId = HostId(1);

fn urn() -> Urn {
    Urn::parse("urn:rover:gate/c").expect("static urn")
}

/// A bare volatile server holding one counter at version 1. Its group
/// is two commits wide, so one executed commit stays staged.
fn server() -> Server {
    let mut cfg = ServerConfig::workstation(HostId(99));
    cfg.commit = CommitPolicy::Group {
        max_batch: 2,
        window: SimDuration::from_secs(1),
    };
    let sv = World::new(0).server(cfg);
    let mut s = Rc::try_unwrap(sv).ok().expect("sole owner").into_inner();
    s.put_object(counter_object(&urn(), 0));
    s
}

/// Export `add 1` as request `id`, ordered at `seq` (0 = unordered).
fn export(id: u64, seq: u64) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(id),
        client: CLIENT,
        session: SessionId(1),
        op: RoverOp::Export {
            method: "add".into(),
        },
        urn: urn().as_str().to_owned(),
        base_version: Version(1),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: 0,
        payload: ExportPayload {
            method: "add".into(),
            args: vec!["1".into()],
            session_seq: seq,
        }
        .to_bytes(),
        read_vector: Vec::new(),
    }
}

/// Runs `req` through the gate and, if admitted, executes it; with
/// `stage` the commit also stages into the pending group.
fn run(s: &mut Server, sim: &mut Sim, req: QrpcRequest, stage: bool) {
    let Gate::Run(adm) = s.gate(sim, req) else {
        panic!("a fresh request runs");
    };
    let ex = s.execute(sim, adm).expect("no crash scripted");
    if stage {
        assert!(matches!(s.stage(sim, ex), Staged::Arm { .. }));
    }
}

/// The reply a `Gate::Reply` carries, and who it goes to.
fn replied(gate: Gate) -> (HostId, QrpcReply) {
    let Gate::Reply(out) = gate else {
        panic!("expected a reply now");
    };
    assert_eq!(out.env.kind, MsgKind::Reply);
    assert_eq!(out.replies, 1);
    (
        out.to,
        QrpcReply::from_shared(&out.env.body).expect("reply"),
    )
}

#[test]
fn fresh_request_runs() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    let gate = s.gate(&mut sim, export(1, 0));
    let Gate::Run(adm) = gate else {
        panic!("a fresh request runs");
    };
    assert_eq!(adm.req.req_id, RequestId(1));
    assert_eq!(adm.urn, Some(urn()));
}

#[test]
fn unauthenticated_request_is_rejected_now() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    s.require_auth(&[7]);
    let (to, reply) = replied(s.gate(&mut sim, export(1, 0)));
    assert_eq!((to, reply.status), (CLIENT, OpStatus::Rejected));
    assert_eq!(sim.stats.counter("server.auth_rejected"), 1);
}

#[test]
fn retransmission_of_an_executed_request_replays_its_reply() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    run(&mut s, &mut sim, export(1, 0), false);
    let (_, reply) = replied(s.gate(&mut sim, export(1, 0)));
    assert_eq!(
        (reply.req_id, reply.status, reply.version),
        (RequestId(1), OpStatus::Ok, Version(2))
    );
    assert_eq!(sim.stats.counter("server.dedup_replay"), 1);
}

#[test]
fn retransmission_of_a_staged_commit_is_dropped() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    run(&mut s, &mut sim, export(1, 0), true);
    let gate = s.gate(&mut sim, export(1, 0));
    assert!(matches!(gate, Gate::Drop));
    assert_eq!(sim.stats.counter("server.dup_while_staged"), 1);
}

#[test]
fn request_below_the_floor_gets_the_committed_state() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    let mut ack = export(5, 0);
    ack.acked_below = 4;
    run(&mut s, &mut sim, ack, false);
    let (_, reply) = replied(s.gate(&mut sim, export(3, 0)));
    assert_eq!(
        (reply.req_id, reply.status, reply.version),
        (RequestId(3), OpStatus::Ok, Version(2))
    );
    assert_eq!(sim.stats.counter("server.below_floor_duplicate"), 1);
    assert_eq!(sim.stats.counter("server.dedup_replay"), 0);
}

#[test]
fn stale_ordered_duplicate_gets_the_committed_state() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    run(&mut s, &mut sim, export(1, 1), false);
    // A second id carrying the consumed sequence 1: never re-executed.
    let (_, reply) = replied(s.gate(&mut sim, export(2, 1)));
    assert_eq!((reply.status, reply.version), (OpStatus::Ok, Version(2)));
    assert_eq!(sim.stats.counter("server.stale_duplicate"), 1);
}

#[test]
fn out_of_order_write_is_held_then_released_by_its_predecessor() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    let gate = s.gate(&mut sim, export(2, 2));
    assert!(matches!(gate, Gate::Hold));
    assert_eq!(sim.stats.counter("server.held_out_of_order"), 1);
    assert_eq!(s.queue_depth(), 1);
    let skey = (CLIENT.0, 1);
    assert!(s.next_held(skey).is_none());
    run(&mut s, &mut sim, export(1, 1), false);
    let next = s.next_held(skey).expect("successor released");
    assert_eq!(next.req.req_id, RequestId(2));
}

#[test]
fn write_behind_a_read_floor_is_held() {
    let (mut s, mut sim) = (server(), Sim::new(1));
    let mut req = export(1, 0);
    req.read_vector = vec![(urn().as_str().to_owned(), 2)];
    let gate = s.gate(&mut sim, req);
    assert!(matches!(gate, Gate::Hold));
    assert_eq!(sim.stats.counter("server.wfr_held"), 1);
    assert_eq!(s.wfr_held_count(), 1);
}
