//! Server durability integration tests: write-ahead commit log,
//! crash-restart recovery, scripted crash points, torn-tail truncation,
//! held-buffer drop accounting, checkpoint compaction, and the warm
//! `import_store` regression.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rover_core::{
    counter_object, Client, ClientConfig, CrashPoint, ExportPayload, Guarantees, OpStatus,
    Priority, ReexecuteResolver, Server, ServerConfig, ServerEvent, Urn, World,
};
use rover_log::{FaultKind, FaultStore, FileStore, FlushPolicy, MemStore, OpLog, RecordKind};
use rover_net::{LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::{
    Bytes, CommitRecord, Envelope, HostId, QrpcReply, QrpcRequest, RequestId, RoverOp, SessionId,
    Version, Wire,
};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

struct Rig {
    sim: Sim,
    net: Net,
    server: rover_core::ServerRef,
    client: rover_core::ClientRef,
    session: rover_wire::SessionId,
}

/// Client + server over a healthy Ethernet link with a counter object
/// at the server; the client probes aggressively so crash tests
/// converge fast.
fn rig(seed: u64, scfg: ServerConfig) -> Rig {
    let mut w = World::new(seed);
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    cfg.rto_max = SimDuration::from_secs(40);
    let client = w.client(cfg, LinkSpec::ETHERNET_10M);
    let World { sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    Rig {
        sim,
        net,
        server,
        client,
        session,
    }
}

fn attach_mem_wal(r: &mut Rig) {
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
}

fn import(r: &mut Rig) {
    let p = Client::import(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    r.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
}

fn export_add(r: &mut Rig) -> rover_core::ExportHandle {
    Client::export(
        &r.client,
        &mut r.sim,
        &urn("c"),
        r.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap()
}

fn server_field_n(r: &Rig) -> String {
    r.server
        .borrow()
        .get_object(&urn("c"))
        .unwrap()
        .field("n")
        .unwrap()
        .to_owned()
}

/// Restart the server automatically a moment after every crash.
fn auto_restart(r: &Rig, delay: SimDuration) {
    let sv = r.server.clone();
    Server::on_event(&r.server, move |sim, ev| {
        if matches!(ev, ServerEvent::Crashed { .. }) {
            let sv = sv.clone();
            sim.schedule_after(delay, move |sim| {
                Server::crash_restart(&sv, sim).unwrap();
            });
        }
    });
}

#[test]
fn wal_attach_writes_initial_checkpoint_and_logs_commits() {
    let mut r = rig(11, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    let after_attach = r.server.borrow().wal_device_len();
    assert!(after_attach > 0, "fresh attach writes a checkpoint");
    assert_eq!(r.sim.stats.counter("server.checkpoints"), 1);

    import(&mut r);
    for _ in 0..3 {
        let h = export_add(&mut r);
        r.sim.run();
        assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);
    }
    // Every executed request (the import included) was committed to the
    // device before its reply left.
    assert_eq!(r.sim.stats.counter("server.wal_appends"), 4);
    assert!(r.server.borrow().wal_device_len() > after_attach);
    assert!(r.server.borrow().wal_attached());
}

#[test]
fn crash_restart_recovers_objects_ordering_and_dedup() {
    let mut r = rig(12, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    import(&mut r);
    for _ in 0..5 {
        let h = export_add(&mut r);
        r.sim.run();
        assert!(h.committed.is_ready());
    }
    let before = r.server.borrow().export_store();

    Server::crash_restart(&r.server, &mut r.sim).unwrap();

    // Recovery rebuilt the exact durable state: same canonical image.
    assert_eq!(r.server.borrow().export_store(), before);
    assert_eq!(server_field_n(&r), "5");
    assert!(r.sim.stats.counter("server.recovered_commits") > 0);
    assert!(!r.server.borrow().is_crashed());

    // And the restarted server keeps serving.
    let h = export_add(&mut r);
    r.sim.run();
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);
    assert_eq!(server_field_n(&r), "6");
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn lost_reply_of_durable_commit_replays_from_recovered_dedup() {
    let mut r = rig(13, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    import(&mut r);
    auto_restart(&r, SimDuration::from_secs(1));

    // Flush 1 was the import; cut power as soon as flush 3 is durable,
    // before its reply can leave the host. The crash runs as its own
    // event: crashing inside the listener would re-enter it.
    let flushes = Rc::new(Cell::new(0));
    let sv = r.server.clone();
    Server::on_event(&r.server, move |sim, ev| {
        if matches!(ev, ServerEvent::GroupCommit { .. }) {
            flushes.set(flushes.get() + 1);
            if flushes.get() == 3 {
                let sv = sv.clone();
                sim.schedule_after(SimDuration::ZERO, move |sim| Server::crash_now(&sv, sim));
            }
        }
    });
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(export_add(&mut r));
        r.sim.run_for(SimDuration::from_millis(200));
    }
    r.sim.run();

    for h in &handles {
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved);
    }
    assert_eq!(server_field_n(&r), "4", "every export applied exactly once");
    assert_eq!(r.sim.stats.counter("server.crashes"), 1);
    assert_eq!(r.sim.stats.counter("server.reply_dropped_crashed"), 1);
    assert_eq!(
        r.sim.stats.counter("server.dedup_miss_reexec"),
        0,
        "retransmit of the durable commit hit the recovered dedup cache"
    );
    assert!(
        r.sim.stats.counter("server.dedup_replay") >= 1,
        "the lost reply was replayed, not re-executed"
    );
    assert!(r.sim.stats.counter("client.retransmits") >= 1);
}

#[test]
fn before_append_crash_lets_retransmission_execute_freshly() {
    let mut r = rig(14, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    import(&mut r);
    auto_restart(&r, SimDuration::from_secs(1));

    r.server
        .borrow_mut()
        .script_crash(3, CrashPoint::BeforeAppend);
    let mut handles = Vec::new();
    for _ in 0..4 {
        handles.push(export_add(&mut r));
        r.sim.run_for(SimDuration::from_millis(200));
    }
    r.sim.run();

    for h in &handles {
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved);
    }
    // Nothing was committed or replied for the crashed request, so its
    // retransmission is a clean first execution — still exactly once.
    assert_eq!(server_field_n(&r), "4");
    assert_eq!(r.sim.stats.counter("server.crashes"), 1);
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn torn_append_crashes_host_and_recovery_truncates_tail() {
    let mut r = rig(15, ServerConfig::workstation(SERVER));

    // Measure where the device stands after the attach checkpoint and
    // the import's commit, then arm a short write that tears the middle
    // of the first export's commit frame.
    let probe = {
        let mut p = rig(15, ServerConfig::workstation(SERVER));
        attach_mem_wal(&mut p);
        import(&mut p);
        let len = p.server.borrow().wal_device_len();
        len
    };
    let mut store = FaultStore::new(MemStore::new());
    store.push_fault(probe + 30, FaultKind::ShortWrite);
    Server::attach_wal(&r.server, &mut r.sim, Box::new(store)).unwrap();
    auto_restart(&r, SimDuration::from_secs(1));
    import(&mut r);

    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(export_add(&mut r));
        r.sim.run_for(SimDuration::from_millis(200));
    }
    r.sim.run();

    for h in &handles {
        assert!(h.committed.is_ready());
    }
    assert_eq!(
        r.sim.stats.counter("server.wal_append_failed"),
        1,
        "the torn flush downed the host"
    );
    assert_eq!(r.sim.stats.counter("server.crashes"), 1);
    assert!(
        r.sim.stats.counter("server.recovery_truncated_tail") > 0,
        "recovery discarded the torn frame"
    );
    assert_eq!(
        server_field_n(&r),
        "3",
        "all exports converged exactly once"
    );
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn held_out_of_order_writes_are_dropped_and_counted_on_recovery() {
    let mut r = rig(16, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);

    // Inject an ordered export whose predecessor never arrives: the
    // server holds it. (Raw envelope: the client API always sends in
    // order, so the gap must be crafted at the wire level.)
    let req = QrpcRequest {
        req_id: RequestId(90),
        client: CLIENT,
        session: SessionId(7),
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
            args: vec!["1".into()],
            session_seq: 5,
        }
        .to_bytes(),
        read_vector: Vec::new(),
    };
    let link = r.net.up_link_between(CLIENT, SERVER).unwrap();
    r.net
        .send(&mut r.sim, link, Envelope::request(CLIENT, SERVER, &req))
        .unwrap();
    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.held_out_of_order"), 1);

    let events: Rc<RefCell<Vec<ServerEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    Server::on_event(&r.server, move |_sim, ev| {
        sink.borrow_mut().push(ev.clone())
    });

    Server::crash_restart(&r.server, &mut r.sim).unwrap();

    assert_eq!(
        r.sim.stats.counter("server.held_dropped_on_recovery"),
        1,
        "the held write died with the volatile state — explicitly counted"
    );
    let recovered = events
        .borrow()
        .iter()
        .find_map(|ev| match ev {
            ServerEvent::Recovered { held_dropped, .. } => Some(*held_dropped),
            _ => None,
        })
        .expect("Recovered event emitted");
    assert_eq!(recovered, 1);
    // The counter object itself never executed the held write.
    assert_eq!(server_field_n(&r), "0");
}

#[test]
fn warm_import_store_replaces_state_wholesale() {
    // Build a server with real executed/dedup/ordering state.
    let mut a = rig(17, ServerConfig::workstation(SERVER));
    import(&mut a);
    for _ in 0..3 {
        let h = export_add(&mut a);
        a.sim.run();
        assert!(h.committed.is_ready());
    }
    let snapshot = a.server.borrow().export_store();

    // A *warm* server with different objects and its own at-most-once
    // state imports the snapshot: everything pre-import must be gone.
    let mut b = rig(18, ServerConfig::workstation(SERVER));
    b.server
        .borrow_mut()
        .put_object(counter_object(&urn("other"), 0));
    import(&mut b);
    for _ in 0..2 {
        let h = export_add(&mut b);
        b.sim.run();
        assert!(h.committed.is_ready());
    }
    assert!(b.server.borrow().object_count() >= 2);

    let loaded = b.server.borrow_mut().import_store(&snapshot).unwrap();
    assert_eq!(loaded, 1);
    assert_eq!(
        b.server.borrow().object_count(),
        1,
        "pre-import objects cleared, not merged"
    );
    assert!(b.server.borrow().get_object(&urn("other")).is_none());
    assert_eq!(server_field_n(&b), "3");
    // Canonical round-trip: the importing server's state is now exactly
    // the snapshot — no stale dedup/floor/ordering entries survive.
    assert_eq!(b.server.borrow().export_store(), snapshot);
}

#[test]
fn checkpoints_compact_the_device() {
    let run = |checkpoint_every: usize| {
        let mut scfg = ServerConfig::workstation(SERVER);
        scfg.checkpoint_every = checkpoint_every;
        let mut r = rig(19, scfg);
        attach_mem_wal(&mut r);
        import(&mut r);
        for _ in 0..24 {
            let h = export_add(&mut r);
            r.sim.run();
            assert!(h.committed.is_ready());
        }
        let out = (
            r.server.borrow().wal_device_len(),
            r.sim.stats.counter("server.checkpoints"),
        );
        out
    };
    let (unbounded, ckpt_off) = run(0);
    let (bounded, ckpt_on) = run(4);
    assert_eq!(ckpt_off, 1, "only the attach checkpoint");
    assert!(ckpt_on > 1, "periodic checkpoints fired");
    assert!(
        bounded < unbounded,
        "compaction keeps the device smaller: {bounded} vs {unbounded}"
    );
}

#[test]
fn recover_constructor_rebuilds_server_from_file_device() {
    let dir = std::env::temp_dir().join(format!("rover-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.wal");

    let mut r = rig(20, ServerConfig::workstation(SERVER));
    Server::attach_wal(
        &r.server,
        &mut r.sim,
        Box::new(FileStore::open(&path).unwrap()),
    )
    .unwrap();
    import(&mut r);
    for _ in 0..4 {
        let h = export_add(&mut r);
        r.sim.run();
        assert!(h.committed.is_ready());
    }
    let image = r.server.borrow().export_store();

    // A brand-new incarnation built straight from the device.
    let reborn = Server::recover(
        &r.net,
        ServerConfig::workstation(SERVER),
        &mut r.sim,
        Box::new(FileStore::open(&path).unwrap()),
    )
    .unwrap();
    assert_eq!(reborn.borrow().export_store(), image);
    assert_eq!(
        reborn.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("4")
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_server_drops_traffic_and_events_narrate_the_outage() {
    let mut r = rig(21, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    import(&mut r);

    let events: Rc<RefCell<Vec<ServerEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    Server::on_event(&r.server, move |_sim, ev| {
        sink.borrow_mut().push(ev.clone())
    });

    // Commit 2 stages and the host dies before its flush.
    r.server
        .borrow_mut()
        .script_crash(2, CrashPoint::AfterAppend);
    let h = export_add(&mut r);
    r.sim.run_for(SimDuration::from_secs(2));
    assert!(r.server.borrow().is_crashed());
    assert!(!h.committed.is_ready(), "reply never left the dead host");

    // Traffic during the outage vanishes: the RTO probe chain needs two
    // strikes (~2 × rto) before the first retransmission reaches the
    // dead host, so leave the outage open well past that.
    r.sim.run_for(SimDuration::from_secs(13));
    assert!(r.sim.stats.counter("server.dropped_while_crashed") > 0);

    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    r.sim.run();
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);

    let evs = events.borrow();
    assert!(
        matches!(evs[0], ServerEvent::Crashed { durable_commits } if durable_commits == 1),
        "crash event carries the durable-commit count: {evs:?}"
    );
    assert!(
        evs.iter().any(|e| matches!(
            e,
            ServerEvent::Recovered { commits, .. } if *commits == 1
        )),
        "recovery replayed the import alone; the staged export died: {evs:?}"
    );
    assert_eq!(r.sim.stats.counter("server.staged_lost_on_crash"), 1);
    assert_eq!(
        server_field_n(&r),
        "1",
        "the retransmission executed freshly"
    );
}

#[test]
fn recovery_rejects_a_record_kind_it_does_not_write() {
    // One commit record framed on its own (kind 0x10), as servers that
    // flushed each commit outside a group wrote them: refused, never
    // skipped with its commit.
    let reply = QrpcReply {
        req_id: RequestId(1),
        status: OpStatus::Ok,
        version: Version(1),
        payload: Bytes::new(),
    };
    let rec = CommitRecord {
        client: CLIENT,
        req_id: RequestId(1),
        acked_below: 0,
        session: SessionId(1),
        session_seq: 0,
        urn: urn("c").as_str().to_owned(),
        obj: None,
        reply,
    };
    let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).unwrap();
    log.append(RecordKind::Other(0x10), rec.to_bytes()).unwrap();
    log.flush().unwrap();
    let mut w = World::new(24);
    let store = Box::new(log.into_store());
    let res = Server::recover(&w.net, ServerConfig::workstation(SERVER), &mut w.sim, store);
    assert!(res.is_err());
}

#[test]
fn crash_event_counts_only_the_crashed_servers_commits() {
    // Two servers on one simulator share its stats: a crash must report
    // the crashed server's own durable commits.
    let mut w = World::new(23);
    w.net.register_host(CLIENT, |_sim, _net, _env: Envelope| {});
    let mut servers = Vec::new();
    for host in [SERVER, HostId(3)] {
        let server = w.server(ServerConfig::workstation(host));
        let link = w.link(LinkSpec::ETHERNET_10M, CLIENT, host);
        Server::attach_wal(&server, &mut w.sim, Box::new(MemStore::new())).unwrap();
        servers.push((server, link, host));
    }
    let World { mut sim, net, .. } = w;
    // Two commits on the first server, three on the second.
    for ((_, link, host), n) in servers.iter().zip([2, 3]) {
        for id in 1..=n {
            let req = QrpcRequest {
                req_id: RequestId(id),
                client: CLIENT,
                session: SessionId(1),
                op: RoverOp::Ping,
                urn: urn("c").as_str().to_owned(),
                base_version: Version(0),
                priority: Priority::NORMAL,
                auth: 0,
                acked_below: 0,
                payload: Bytes::new(),
                read_vector: Vec::new(),
            };
            net.send(&mut sim, *link, Envelope::request(CLIENT, *host, &req))
                .unwrap();
        }
    }
    sim.run();
    assert_eq!(sim.stats.counter("server.wal_appends"), 5);

    let events: Rc<RefCell<Vec<ServerEvent>>> = Rc::default();
    let sink = events.clone();
    let first = &servers[0].0;
    Server::on_event(first, move |_sim, ev| sink.borrow_mut().push(ev.clone()));
    Server::crash_now(first, &mut sim);
    assert_eq!(
        *events.borrow(),
        [ServerEvent::Crashed { durable_commits: 2 }]
    );
}

#[test]
fn commit_replies_received_before_crash_always_survive_recovery() {
    // The soak's first durability invariant at unit scale: any reply
    // the client processed corresponds to a commit that outlives the
    // crash.
    let mut r = rig(22, ServerConfig::workstation(SERVER));
    attach_mem_wal(&mut r);
    import(&mut r);
    let mut replied = Vec::new();
    for _ in 0..6 {
        let h = export_add(&mut r);
        r.sim.run();
        assert!(h.committed.is_ready());
        replied.push(h.req);
    }
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    for req in replied {
        assert!(
            r.server.borrow().executed_contains(CLIENT, req),
            "replied commit {req:?} lost by recovery"
        );
    }
}

#[test]
fn wal_attach_is_rejected_twice_and_restart_requires_wal() {
    let mut r = rig(23, ServerConfig::workstation(SERVER));
    assert!(Server::crash_restart(&r.server, &mut r.sim).is_err());
    attach_mem_wal(&mut r);
    assert!(
        Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).is_err(),
        "double attach rejected"
    );
}

/// Raw-wire driver used by the committed-prefix property test: sends
/// pre-built export requests straight over the link, collecting replies
/// at a sink handler.
struct RawRig {
    sim: Sim,
    net: Net,
    server: rover_core::ServerRef,
    link: rover_net::LinkId,
    replies: Rc<RefCell<Vec<QrpcReply>>>,
}

fn raw_rig(seed: u64, checkpoint_every: usize) -> RawRig {
    let mut w = World::new(seed);
    let mut scfg = ServerConfig::workstation(SERVER);
    scfg.checkpoint_every = checkpoint_every;
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    let link = w.link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
    let World { sim, net, .. } = w;
    let replies: Rc<RefCell<Vec<QrpcReply>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = replies.clone();
    net.register_host(CLIENT, move |_sim, _net, env: Envelope| {
        if let Ok(rep) = QrpcReply::from_shared(&env.body) {
            sink.borrow_mut().push(rep);
        }
    });
    RawRig {
        sim,
        net,
        server,
        link,
        replies,
    }
}

/// Ordered export `j` (0-based): session_seq j+1, base version j+1.
fn raw_export(j: u64) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(j + 1),
        client: CLIENT,
        session: SessionId(1),
        op: RoverOp::Export {
            method: "add".into(),
        },
        urn: urn("c").as_str().to_owned(),
        base_version: Version(j + 1),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below: 0,
        payload: ExportPayload {
            method: "add".into(),
            args: vec!["1".into()],
            session_seq: j + 1,
        }
        .to_bytes(),
        read_vector: Vec::new(),
    }
}

fn raw_send(r: &mut RawRig, j: u64) {
    let env = Envelope::request(CLIENT, SERVER, &raw_export(j));
    let _ = r.net.send(&mut r.sim, r.link, env);
    r.sim.run();
}

mod committed_prefix {
    use super::*;
    use proptest::prelude::*;

    // Crash the write-ahead device at an arbitrary byte offset:
    // recovery must yield exactly the committed-prefix state — the
    // canonical state image (objects, versions, expected_seq, floors,
    // dedup replies) of a crash-free oracle that executed only the
    // durable commits — and the full request stream must then converge
    // with zero re-executions.
    proptest! {
        #[test]
        fn recovery_equals_committed_prefix_oracle(
            k in 3u64..9,
            frac in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            // Dry run: learn the device geometry (attach-checkpoint
            // size and final length) for this k.
            let (base_len, full_len) = {
                let mut d = raw_rig(seed, 0);
                Server::attach_wal(&d.server, &mut d.sim, Box::new(MemStore::new())).unwrap();
                let base = d.server.borrow().wal_device_len();
                for j in 0..k {
                    raw_send(&mut d, j);
                }
                let full = d.server.borrow().wal_device_len();
                (base, full)
            };
            prop_assert!(full_len > base_len);
            let cut = base_len + ((full_len - base_len) as f64 * frac) as u64;

            // Faulted run: the flush crossing `cut` tears mid-frame and
            // downs the host.
            let mut f = raw_rig(seed, 0);
            let mut store = FaultStore::new(MemStore::new());
            store.push_fault(cut, FaultKind::ShortWrite);
            Server::attach_wal(&f.server, &mut f.sim, Box::new(store)).unwrap();
            for j in 0..k {
                raw_send(&mut f, j);
            }
            prop_assert!(f.server.borrow().is_crashed());
            let replied: Vec<RequestId> =
                f.replies.borrow().iter().map(|rep| rep.req_id).collect();

            Server::crash_restart(&f.server, &mut f.sim).unwrap();
            let m = f.sim.stats.counter("server.recovered_commits");
            prop_assert!(m < k);

            // Every reply the client saw is covered by a recovered
            // commit (replies only leave after the append is durable).
            for req in &replied {
                prop_assert!(f.server.borrow().executed_contains(CLIENT, *req));
            }

            // Oracle: a crash-free volatile server fed exactly the
            // committed prefix. Canonical state images must match.
            let mut o = raw_rig(seed, 0);
            for j in 0..m {
                raw_send(&mut o, j);
            }
            prop_assert_eq!(
                f.server.borrow().export_store(),
                o.server.borrow().export_store(),
                "recovered state != committed-prefix oracle (m={})", m
            );

            // Convergence: replaying the whole stream (the client's
            // retransmissions) dedups the prefix and executes the rest.
            for j in 0..k {
                raw_send(&mut f, j);
            }
            prop_assert_eq!(
                f.server.borrow().get_object(&urn("c")).unwrap().field("n"),
                Some(format!("{k}").as_str())
            );
            prop_assert_eq!(f.sim.stats.counter("server.dedup_miss_reexec"), 0);
        }
    }
}

mod committed_prefix_real_file {
    use super::*;
    use proptest::prelude::*;
    use std::path::{Path, PathBuf};

    /// A fresh scratch directory per proptest case.
    fn case_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rover-durab-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `path`'s sibling with `.suffix` appended to the whole name.
    fn sibling(path: &Path, suffix: &str) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// Reboots a server from the file at `path` and checks it against
    /// the committed-prefix oracle: its canonical state is that of a
    /// crash-free server fed exactly the first `m` exports (`m` read off
    /// the recovered counter), and replaying all `k` then dedups the
    /// prefix and executes the rest, exactly once each. Returns `m`.
    fn reboot_matches_oracle(path: &Path, seed: u64, k: u64) -> u64 {
        let mut f = raw_rig(seed, 0);
        Server::attach_wal(
            &f.server,
            &mut f.sim,
            Box::new(FileStore::open(path).unwrap()),
        )
        .unwrap();
        let m: u64 = server_n(&f.server).parse().unwrap();
        assert!(m <= k);
        let mut o = raw_rig(seed, 0);
        for j in 0..m {
            raw_send(&mut o, j);
        }
        assert_eq!(
            f.server.borrow().export_store(),
            o.server.borrow().export_store(),
            "recovered state != committed-prefix oracle (m={m})"
        );
        for j in 0..k {
            raw_send(&mut f, j);
        }
        assert_eq!(server_n(&f.server), k.to_string());
        assert_eq!(f.sim.stats.counter("server.dedup_miss_reexec"), 0);
        m
    }

    fn server_n(server: &rover_core::ServerRef) -> String {
        server
            .borrow()
            .get_object(&urn("c"))
            .unwrap()
            .field("n")
            .unwrap()
            .to_owned()
    }

    // The committed-prefix oracle again, but on a *real* file: the WAL
    // is written through `FileStore` (real `fsync`), the crash tears it
    // at an arbitrary byte offset, and recovery re-opens the same path.
    // A device shows a tear two ways: the file cut short (`set_len`), or
    // the lost bytes read back as the zeros of the preallocated tail,
    // the length kept. The sim-backed run above proves the logic; this
    // proves the file backend.
    proptest! {
        #[test]
        fn recovery_equals_committed_prefix_oracle_on_real_files(
            k in 3u64..9,
            frac in 0.0f64..1.0,
            seed in 0u64..500,
            into_zeros: bool,
        ) {
            let dir = case_dir("cp");
            let path = dir.join("w.wal");

            // Full run onto the real device, learning its geometry.
            let (base_len, full_len) = {
                let mut d = raw_rig(seed, 0);
                let store = FileStore::open(&path).unwrap();
                Server::attach_wal(&d.server, &mut d.sim, Box::new(store)).unwrap();
                let base = d.server.borrow().wal_device_len();
                for j in 0..k {
                    raw_send(&mut d, j);
                }
                let full = d.server.borrow().wal_device_len();
                (base, full)
            };
            prop_assert!(full_len > base_len);
            // The file is allocated ahead of the log, with zeros.
            let raw = std::fs::read(&path).unwrap();
            prop_assert!(raw.len() as u64 > full_len);
            prop_assert!(raw[full_len as usize..].iter().all(|&b| b == 0));

            // Power failure: everything past `cut` never hit the disk.
            let cut = base_len + ((full_len - base_len) as f64 * frac) as u64;
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            if into_zeros {
                use std::os::unix::fs::FileExt;
                file.write_all_at(&vec![0; raw.len() - cut as usize], cut).unwrap();
            } else {
                file.set_len(cut).unwrap();
            }
            file.sync_data().unwrap();
            drop(file);

            let m = reboot_matches_oracle(&path, seed, k);
            prop_assert!(m <= k);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // A crash at every step of a checkpoint's name swap. With
        // checkpoints every few commits the device is reset (recycled)
        // several times; afterwards `w.wal` holds the newest generation
        // and `w.wal.spare` the one before it. Rebuild the on-disk state
        // after each step of the last swap (`hard_link(path, prev)`,
        // `rename(spare, path)`, `rename(prev, spare)`) and reboot:
        // recovery removes the leftover names and lands on a committed
        // prefix — the older image (state 0, 1) or the newer (2, 3).
        #[test]
        fn interrupted_reset_recovers_a_committed_prefix(
            k in 4u64..10,
            every in 1usize..4,
            seed in 0u64..500,
            step in 0u8..4,
        ) {
            let dir = case_dir("swap");
            let path = dir.join("w.wal");
            let spare = sibling(&path, ".spare");
            let prev = sibling(&path, ".prev");
            {
                let mut d = raw_rig(seed, every);
                let store = FileStore::open(&path).unwrap();
                Server::attach_wal(&d.server, &mut d.sim, Box::new(store)).unwrap();
                for j in 0..k {
                    raw_send(&mut d, j);
                }
                prop_assert!(d.sim.stats.counter("server.checkpoints") >= 2);
            }
            prop_assert!(spare.exists() && !prev.exists());
            let newer = dir.join("newer");
            match step {
                // Spare written and synced, no name moved yet.
                0 => {
                    std::fs::rename(&path, &newer).unwrap();
                    std::fs::rename(&spare, &path).unwrap();
                    std::fs::rename(&newer, &spare).unwrap();
                }
                // `path` linked as `.prev`.
                1 => {
                    std::fs::rename(&path, &newer).unwrap();
                    std::fs::rename(&spare, &path).unwrap();
                    std::fs::hard_link(&path, &prev).unwrap();
                    std::fs::rename(&newer, &spare).unwrap();
                }
                // The new image renamed over `path`.
                2 => std::fs::rename(&spare, &prev).unwrap(),
                // `.prev` renamed to `.spare`: the completed swap.
                _ => {}
            }

            let m = reboot_matches_oracle(&path, seed, k);
            if step >= 2 {
                prop_assert_eq!(m, k);
            }
            prop_assert!(!prev.exists(), "leftover .prev survived open");
            prop_assert!(!spare.exists(), "leftover .spare survived open");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
