//! Cross-shard writes-follow-reads gate, exercised at the wire level:
//! a request carrying a session read-vector whose floor is ahead of
//! the server's committed copy is held, drained when the local version
//! catches up, and dropped (for client retransmission) by a crash.

use rover_core::{
    Client, ClientConfig, ExportPayload, Guarantees, Priority, ReexecuteResolver, Server,
    ServerConfig, Urn, World,
};
use rover_log::MemStore;
use rover_net::{LinkSpec, Net};
use rover_sim::Sim;
use rover_wire::{Envelope, HostId, QrpcRequest, RequestId, RoverOp, SessionId, Version, Wire};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

struct Rig {
    sim: Sim,
    net: Net,
    link: rover_net::LinkId,
    server: rover_core::ServerRef,
    client: rover_core::ClientRef,
    session: SessionId,
}

/// Rig with the counter `c` seeded *before* the WAL attaches, so the
/// initial checkpoint covers it and crash-restart brings it back.
fn rig() -> (Rig, Version) {
    let mut w = World::new(11);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    let v0 = w.put_counter(&urn("c"), 0).unwrap();
    Server::attach_wal(&server, &mut w.sim, Box::new(MemStore::new())).unwrap();
    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let link = w.links_of(CLIENT)[0];
    let World { sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    (
        Rig {
            sim,
            net,
            link,
            server,
            client,
            session,
        },
        v0,
    )
}

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

/// An unordered export of `add k` on `c`, carrying a read-vector floor
/// of `floor` for `c` itself — as a write arriving from a session that
/// already read version `floor` of the object via another shard.
fn wfr_export(req_id: u64, k: &str, floor: u64) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(req_id),
        client: CLIENT,
        session: SessionId(77),
        op: RoverOp::Export {
            method: "add".into(),
        },
        urn: urn("c").as_str().to_owned(),
        base_version: Version(1),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: 0,
        payload: ExportPayload {
            method: "add".into(),
            args: vec![k.into()],
            session_seq: 0,
        }
        .to_bytes(),
        read_vector: vec![(urn("c").as_str().to_owned(), floor)],
    }
}

fn field_n(r: &Rig) -> u64 {
    r.server
        .borrow()
        .get_object(&urn("c"))
        .unwrap()
        .field("n")
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn wfr_gate_holds_write_until_local_version_reaches_floor() {
    let (mut r, v0) = rig();

    // A write whose session read version v0+2 elsewhere: must not be
    // admitted into older state.
    let env = Envelope::request(CLIENT, SERVER, &wfr_export(9001, "5", v0.0 + 2));
    r.net.send(&mut r.sim, r.link, env).unwrap();
    r.sim.run();
    assert_eq!(r.server.borrow().wfr_held_count(), 1, "write must be held");
    assert_eq!(r.sim.stats.counter("server.wfr_checked"), 1);
    assert_eq!(r.sim.stats.counter("server.wfr_held"), 1);
    assert_eq!(field_n(&r), 0, "held write must not execute");

    // Two ordinary commits advance the object to v0+2; the second one
    // drains the hold and the gated write finally executes.
    let p = Client::import(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert!(p.is_ready());
    for _ in 0..2 {
        let h = Client::export(
            &r.client,
            &mut r.sim,
            &urn("c"),
            r.session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        r.sim.run();
        assert!(h.committed.is_ready());
    }
    assert_eq!(r.server.borrow().wfr_held_count(), 0, "hold must drain");
    assert_eq!(r.sim.stats.counter("server.wfr_drained"), 1);
    assert_eq!(
        field_n(&r),
        7,
        "two client adds of 1 plus the drained add of 5"
    );
    let v = r.server.borrow().get_object(&urn("c")).unwrap().version;
    assert_eq!(v.0, v0.0 + 3);
}

#[test]
fn wfr_hold_is_volatile_and_dropped_by_crash_recovery() {
    let (mut r, v0) = rig();

    let env = Envelope::request(CLIENT, SERVER, &wfr_export(9001, "5", v0.0 + 2));
    r.net.send(&mut r.sim, r.link, env).unwrap();
    r.sim.run();
    assert_eq!(r.server.borrow().wfr_held_count(), 1);

    // Power-fail and recover: held requests die with volatile state —
    // the issuing client's QRPC layer retransmits them.
    Server::crash_now(&r.server, &mut r.sim);
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    assert_eq!(r.server.borrow().wfr_held_count(), 0);
    assert_eq!(r.sim.stats.counter("server.wfr_dropped_on_recovery"), 1);
    assert_eq!(field_n(&r), 0, "dropped hold must not execute");
}

#[test]
fn satisfied_read_vector_admits_immediately() {
    let (mut r, v0) = rig();

    // Floor already met by the committed copy: no hold, executes now.
    let env = Envelope::request(CLIENT, SERVER, &wfr_export(9001, "5", v0.0));
    r.net.send(&mut r.sim, r.link, env).unwrap();
    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.wfr_checked"), 1);
    assert_eq!(r.sim.stats.counter("server.wfr_held"), 0);
    assert_eq!(r.server.borrow().wfr_held_count(), 0);
    assert_eq!(field_n(&r), 5);
}

#[test]
fn unsharded_traffic_never_touches_the_wfr_gate() {
    let (mut r, _v0) = rig();
    let p = Client::import(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert!(p.is_ready());
    let h = Client::export(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert!(h.committed.is_ready());
    // A single-homed client attaches no read vector, so the gate is
    // never even checked — its wire format and admission path are
    // byte-identical to the pre-federation code.
    assert_eq!(r.sim.stats.counter("server.wfr_checked"), 0);
}
