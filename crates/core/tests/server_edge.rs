//! Server edge cases through the public API: bad methods, exec errors,
//! missing objects, malformed operations, dedup capacity pressure.

use rover_core::{
    Client, ClientConfig, Guarantees, OpStatus, Priority, ReexecuteResolver, RoverObject,
    ServerConfig, Urn, World,
};
use rover_net::LinkSpec;
use rover_sim::Sim;
use rover_wire::HostId;

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

struct Rig {
    sim: Sim,
    server: rover_core::ServerRef,
    client: rover_core::ClientRef,
    session: rover_wire::SessionId,
}

fn rig() -> Rig {
    let mut w = World::new(3);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let World { sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    Rig {
        sim,
        server,
        client,
        session,
    }
}

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

fn obj(p: &str, code: &str) -> RoverObject {
    RoverObject::new(urn(p), "counter")
        .with_code(code)
        .with_field("n", "0")
}

#[test]
fn export_of_unknown_method_reports_no_such_method() {
    let mut r = rig();
    r.server.borrow_mut().put_object(obj("c", "proc ok {} {}"));
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
    // The local apply fails first — the API rejects before queueing.
    match Client::export(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "missing",
        &[],
        Priority::NORMAL,
    ) {
        Err(rover_core::RoverError::NoSuchMethod(_)) => {}
        Err(e) => panic!("unexpected error {e}"),
        Ok(_) => panic!("export of missing method must fail locally"),
    }
    // Nothing was queued.
    assert_eq!(Client::outstanding_count(&r.client), 0);
}

#[test]
fn remote_invoke_of_unknown_method_is_a_server_status() {
    let mut r = rig();
    r.server
        .borrow_mut()
        .put_object(obj("c", "proc ok {} {return fine}"));
    let p = Client::invoke_remote(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "missing",
        &[],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::NoSuchMethod);
}

#[test]
fn server_side_script_error_is_exec_error() {
    let mut r = rig();
    r.server
        .borrow_mut()
        .put_object(obj("c", "proc boom {} {error kapow}"));
    let p = Client::invoke_remote(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "boom",
        &[],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::ExecError);
    // The server object is unchanged (failed methods roll back).
    assert_eq!(
        r.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("0")
    );
}

#[test]
fn budget_exhaustion_at_server_is_contained() {
    let mut r = rig();
    r.server
        .borrow_mut()
        .put_object(obj("c", "proc spin {} {while {1} {}}"));
    let p = Client::invoke_remote(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "spin",
        &[],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    // The runaway RDO was killed by its budget; the server answered.
    assert_eq!(p.poll().unwrap().status, OpStatus::ExecError);

    // And the server still serves other requests afterwards.
    let p2 = Client::ping(&r.client, &mut r.sim, r.session, Priority::NORMAL);
    r.sim.run();
    assert_eq!(p2.poll().unwrap().status, OpStatus::Ok);
}

#[test]
fn invoke_on_missing_object() {
    let mut r = rig();
    let p = Client::invoke_remote(
        &r.client,
        &mut r.sim,
        &urn("ghost"),
        r.session,
        "m",
        &[],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::NoSuchObject);
}

#[test]
fn dedup_capacity_pressure_still_behaves() {
    // A tiny dedup cache forces evictions; without retransmissions the
    // results stay exactly-once.
    let mut w = World::new(4);
    let mut scfg = ServerConfig::workstation(SERVER);
    scfg.dedup_capacity = 4;
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let World { mut sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::NORMAL).unwrap();
    sim.run();
    assert!(p.is_ready());
    for _ in 0..20 {
        let h = Client::export(
            &client,
            &mut sim,
            &urn("c"),
            session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        sim.run();
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved);
    }
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("20")
    );
}

#[test]
fn export_rollback_preserves_tentative_consistency() {
    // A method that errors against *current server state* (but
    // succeeded locally against a stale base) must not corrupt the
    // server object.
    let mut r = rig();
    r.server
        .borrow_mut()
        .put_object(RoverObject::new(urn("c"), "strict").with_code(
            "proc claim {who} {
                     if {[rover::has owner]} {error \"already claimed\"}
                     rover::set owner $who
                 }",
        ));
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

    // Someone else claims it at the server, bumping the version.
    {
        let mut sv = r.server.borrow_mut();
        let mut cur = sv.get_object(&urn("c")).unwrap().clone();
        cur.fields.insert("owner".into(), "eve");
        cur.version = rover_wire::Version(cur.version.0 + 1);
        sv.put_object(cur);
    }

    // Our claim succeeds locally (stale base) but conflicts at the
    // server; the "strict" type has no resolver → Conflict reflected.
    let h = Client::export(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "claim",
        &["alice"],
        Priority::NORMAL,
    )
    .unwrap();
    r.sim.run();
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Conflict);
    assert_eq!(
        r.server
            .borrow()
            .get_object(&urn("c"))
            .unwrap()
            .field("owner"),
        Some("eve")
    );
    // The client's committed copy now shows the server's truth.
    let committed = Client::cached_object(&r.client, &urn("c"), false).unwrap();
    assert_eq!(committed.field("owner"), Some("eve"));
}
