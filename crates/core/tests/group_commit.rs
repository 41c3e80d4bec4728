//! Group-commit engine integration tests: batched WAL flushes hold
//! replies until the group is durable, size-cap and window triggers,
//! per-client reply coalescing, the staged-duplicate gate, mid-batch
//! flush failure via `FaultStore`, and the committed-prefix property at
//! batch granularity (a torn batch tail is discarded whole).

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, CommitPolicy, ExportPayload, Guarantees, OpStatus, Priority,
    ReexecuteResolver, Server, ServerConfig, ServerEvent, Urn, World,
};
use rover_log::{FaultKind, FaultStore, MemStore};
use rover_net::{LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::{
    Envelope, HostId, MsgKind, QrpcReply, QrpcRequest, ReplyBatch, RequestId, RoverOp, SessionId,
    Version, Wire,
};

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

fn urn(p: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{p}")).unwrap()
}

fn group_cfg(max_batch: usize, window: SimDuration) -> ServerConfig {
    let mut cfg = ServerConfig::workstation(SERVER);
    cfg.commit = CommitPolicy::Group { max_batch, window };
    cfg
}

/// Raw-wire driver: pre-built export requests straight over the link,
/// replies (single and coalesced batches) collected at a sink.
struct RawRig {
    sim: Sim,
    net: Net,
    server: rover_core::ServerRef,
    link: rover_net::LinkId,
    replies: Rc<RefCell<Vec<QrpcReply>>>,
}

fn raw_rig(seed: u64, scfg: ServerConfig) -> RawRig {
    let mut w = World::new(seed);
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    let link = w.link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
    let World { sim, net, .. } = w;
    let replies: Rc<RefCell<Vec<QrpcReply>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = replies.clone();
    net.register_host(CLIENT, move |_sim, _net, env: Envelope| match env.kind {
        MsgKind::Reply => {
            if let Ok(rep) = QrpcReply::from_shared(&env.body) {
                sink.borrow_mut().push(rep);
            }
        }
        MsgKind::ReplyBatch => {
            if let Ok(batch) = ReplyBatch::from_shared(&env.body) {
                sink.borrow_mut().extend(batch.replies);
            }
        }
        _ => {}
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

/// Enqueues exports `js` one millisecond apart without running the sim:
/// they land inside one commit window.
fn raw_burst_enqueue(r: &mut RawRig, js: std::ops::Range<u64>) {
    for (i, j) in js.enumerate() {
        let net = r.net.clone();
        let link = r.link;
        let env = Envelope::request(CLIENT, SERVER, &raw_export(j));
        r.sim
            .schedule_after(SimDuration::from_millis(i as u64), move |sim| {
                let _ = net.send(sim, link, env);
            });
    }
}

fn server_field_n(server: &rover_core::ServerRef) -> String {
    server
        .borrow()
        .get_object(&urn("c"))
        .unwrap()
        .field("n")
        .unwrap()
        .to_owned()
}

#[test]
fn window_flush_holds_replies_until_group_is_durable() {
    let window = SimDuration::from_millis(200);
    let mut r = raw_rig(31, group_cfg(64, window));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();

    raw_burst_enqueue(&mut r, 0..4);
    // Well past arrival + execution, well before the window expires:
    // all four have executed (the store moved) but no reply has left.
    r.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(server_field_n(&r.server), "4", "executions pipelined");
    assert_eq!(r.sim.stats.counter("server.group_commits"), 0);
    assert!(
        r.replies.borrow().is_empty(),
        "no reply before the group flush"
    );

    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);
    assert_eq!(r.sim.stats.counter("server.wal_appends"), 4);
    assert_eq!(r.replies.borrow().len(), 4);
    // All four replies to one client: coalesced into one envelope.
    assert_eq!(r.sim.stats.counter("server.reply_coalesced"), 3);
    let sizes = r
        .sim
        .stats
        .series("server.group_commit_batch_size")
        .unwrap();
    assert_eq!(sizes.values(), &[4.0]);
    assert!(r.sim.stats.series("server.flush_wait_ms").unwrap().len() == 4);
}

#[test]
fn size_cap_flushes_without_waiting_for_the_window() {
    // A window far longer than the test horizon: only the size cap can
    // flush.
    let mut r = raw_rig(32, group_cfg(2, SimDuration::from_secs(3600)));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();

    raw_burst_enqueue(&mut r, 0..4);
    r.sim.run_for(SimDuration::from_secs(10));
    assert_eq!(r.sim.stats.counter("server.group_commits"), 2);
    assert_eq!(r.replies.borrow().len(), 4);
    let sizes = r
        .sim
        .stats
        .series("server.group_commit_batch_size")
        .unwrap();
    assert_eq!(sizes.values(), &[2.0, 2.0]);
    // The stale window timers for both flushed batches must not cut a
    // later batch short: send one more and let its own window flush it.
    let net = r.net.clone();
    let link = r.link;
    let env = Envelope::request(CLIENT, SERVER, &raw_export(4));
    r.sim.schedule_after(SimDuration::ZERO, move |sim| {
        let _ = net.send(sim, link, env);
    });
    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.group_commits"), 3);
    assert_eq!(server_field_n(&r.server), "5");
}

#[test]
fn full_stack_client_decodes_coalesced_reply_batches() {
    let mut w = World::new(33);
    let server = w.server(group_cfg(64, SimDuration::from_millis(50)));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    Server::attach_wal(&server, &mut w.sim, Box::new(MemStore::new())).unwrap();
    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let World { mut sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);

    // Queue several exports before running: the client streams them,
    // the server groups them, and the replies come back coalesced.
    let handles: Vec<_> = (0..5)
        .map(|_| {
            Client::export(
                &client,
                &mut sim,
                &urn("c"),
                session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .unwrap()
        })
        .collect();
    sim.run();
    for h in &handles {
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved);
    }
    assert_eq!(server_field_n(&server), "5");
    assert!(sim.stats.counter("server.group_commits") >= 1);
    assert_eq!(
        sim.stats.counter("server.reply_coalesced"),
        sim.stats.counter("client.replies_coalesced"),
        "every coalesced reply the server saved was decoded client-side"
    );
    assert_eq!(sim.stats.counter("client.bad_reply"), 0);
    assert_eq!(sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn duplicate_of_staged_commit_is_dropped_not_replayed() {
    let mut r = raw_rig(34, group_cfg(64, SimDuration::from_millis(200)));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();

    // Original and an immediate duplicate, both inside the window.
    for (delay_ms, _) in [(0u64, ()), (20, ())] {
        let net = r.net.clone();
        let link = r.link;
        let env = Envelope::request(CLIENT, SERVER, &raw_export(0));
        r.sim
            .schedule_after(SimDuration::from_millis(delay_ms), move |sim| {
                let _ = net.send(sim, link, env);
            });
    }
    r.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(
        r.sim.stats.counter("server.dup_while_staged"),
        1,
        "the duplicate found the original staged and was dropped"
    );
    assert!(r.replies.borrow().is_empty());

    r.sim.run();
    assert_eq!(r.replies.borrow().len(), 1, "one durable commit, one reply");

    // A retransmission after the flush replays from the dedup cache.
    let net = r.net.clone();
    let link = r.link;
    let env = Envelope::request(CLIENT, SERVER, &raw_export(0));
    r.sim.schedule_after(SimDuration::ZERO, move |sim| {
        let _ = net.send(sim, link, env);
    });
    r.sim.run();
    assert_eq!(r.sim.stats.counter("server.dedup_replay"), 1);
    assert_eq!(server_field_n(&r.server), "1");
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);
}

#[test]
fn flush_and_checkpoint_drains_staged_batch_for_graceful_shutdown() {
    // The SIGTERM path of the real-clock runtime: a partially filled
    // batch (window nowhere near expiring, size cap not hit) must be
    // made durable and checkpointed on demand, so a clean shutdown
    // loses nothing and the next boot replays nothing.
    let mut r = raw_rig(36, group_cfg(64, SimDuration::from_secs(3600)));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    let ckpts_before = r.sim.stats.counter("server.checkpoints");

    raw_burst_enqueue(&mut r, 0..3);
    r.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(server_field_n(&r.server), "3", "executed but staged");
    assert_eq!(r.sim.stats.counter("server.group_commits"), 0);

    Server::flush_and_checkpoint(&r.server, &mut r.sim);
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);
    assert_eq!(
        r.sim.stats.counter("server.checkpoints"),
        ckpts_before + 1,
        "shutdown wrote a checkpoint"
    );

    // "Exit" here; the next incarnation recovers from the checkpoint
    // alone — nothing to replay, all three commits present, and
    // retransmissions replay from the dedup table (no re-execution).
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    assert_eq!(r.sim.stats.counter("server.recovered_commits"), 0);
    assert_eq!(server_field_n(&r.server), "3");
    for j in 0..3 {
        assert!(r
            .server
            .borrow()
            .executed_contains(CLIENT, RequestId(j + 1)));
    }
    raw_burst_enqueue(&mut r, 0..3);
    r.sim.run();
    assert_eq!(server_field_n(&r.server), "3", "duplicates replayed");
    assert_eq!(r.sim.stats.counter("server.dedup_miss_reexec"), 0);

    // Idempotent: with nothing staged it is a clean no-op checkpoint.
    Server::flush_and_checkpoint(&r.server, &mut r.sim);
    assert_eq!(r.sim.stats.counter("server.group_commits"), 1);
}

#[test]
fn mid_batch_flush_failure_crashes_host_and_no_group_reply_leaks() {
    // Learn where the device stands after the attach checkpoint, then
    // tear the *group* frame of the first batch.
    let base_len = {
        let mut d = raw_rig(35, group_cfg(4, SimDuration::from_millis(100)));
        Server::attach_wal(&d.server, &mut d.sim, Box::new(MemStore::new())).unwrap();
        let len = d.server.borrow().wal_device_len();
        len
    };
    let mut r = raw_rig(35, group_cfg(4, SimDuration::from_millis(100)));
    let mut store = FaultStore::new(MemStore::new());
    store.push_fault(base_len + 30, FaultKind::ShortWrite);
    Server::attach_wal(&r.server, &mut r.sim, Box::new(store)).unwrap();

    raw_burst_enqueue(&mut r, 0..4);
    r.sim.run();

    // The size-cap flush hit the fault: host down, torn frame on disk,
    // and — the invariant under test — not one of the four replies
    // ever left the host.
    assert_eq!(r.sim.stats.counter("server.wal_append_failed"), 1);
    assert_eq!(r.sim.stats.counter("server.crashes"), 1);
    assert_eq!(r.sim.stats.counter("server.staged_lost_on_crash"), 4);
    assert!(r.server.borrow().is_crashed());
    assert!(
        r.replies.borrow().is_empty(),
        "a flush that failed mid-batch must not leak any group reply"
    );

    // Recovery discards the torn batch whole and the client's
    // retransmissions re-execute *freshly* — they are first executions,
    // not at-most-once violations.
    Server::crash_restart(&r.server, &mut r.sim).unwrap();
    assert!(r.sim.stats.counter("server.recovery_truncated_tail") > 0);
    assert_eq!(r.sim.stats.counter("server.recovered_commits"), 0);
    assert_eq!(server_field_n(&r.server), "0");

    raw_burst_enqueue(&mut r, 0..4);
    r.sim.run();
    assert_eq!(server_field_n(&r.server), "4");
    assert_eq!(
        r.sim.stats.counter("server.dedup_miss_reexec"),
        0,
        "retransmits after the lost batch re-execute nothing already seen"
    );
    assert_eq!(r.replies.borrow().len(), 4);
}

#[test]
fn group_commit_event_narrates_flushes() {
    let mut r = raw_rig(36, group_cfg(3, SimDuration::from_secs(3600)));
    Server::attach_wal(&r.server, &mut r.sim, Box::new(MemStore::new())).unwrap();
    let flushes: Rc<RefCell<Vec<(usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = flushes.clone();
    Server::on_event(&r.server, move |_sim, ev| {
        if let ServerEvent::GroupCommit { records, wal_bytes } = ev {
            sink.borrow_mut().push((*records, *wal_bytes));
        }
    });
    raw_burst_enqueue(&mut r, 0..3);
    r.sim.run_for(SimDuration::from_secs(5));
    let evs = flushes.borrow();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].0, 3);
    assert!(evs[0].1 > 0);
}

mod batch_committed_prefix {
    use super::*;
    use proptest::prelude::*;

    // Crash the write-ahead device at an arbitrary byte offset while
    // the server runs under group commit (a group of one included, the
    // per-operation default): recovery must land exactly on
    // a batch boundary (the torn batch is discarded whole — recovered
    // commits equal the sum of the *successfully flushed* batch sizes),
    // every reply that left is covered by a recovered commit, and the
    // retransmitted stream converges with zero re-executions.
    proptest! {
        #[test]
        fn recovery_lands_on_batch_boundaries(
            k in 4u64..12,
            max_batch in 1usize..5,
            frac in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            let window = SimDuration::from_millis(40);
            // Dry run for device geometry under this exact workload.
            let (base_len, full_len) = {
                let mut d = raw_rig(seed, group_cfg(max_batch, window));
                Server::attach_wal(&d.server, &mut d.sim, Box::new(MemStore::new())).unwrap();
                let base = d.server.borrow().wal_device_len();
                raw_burst_enqueue(&mut d, 0..k);
                d.sim.run();
                let full = d.server.borrow().wal_device_len();
                (base, full)
            };
            prop_assert!(full_len > base_len);
            let cut = base_len + ((full_len - base_len) as f64 * frac) as u64;

            // Faulted run: the flush crossing `cut` tears mid-frame.
            let mut f = raw_rig(seed, group_cfg(max_batch, window));
            let mut store = FaultStore::new(MemStore::new());
            store.push_fault(cut, FaultKind::ShortWrite);
            Server::attach_wal(&f.server, &mut f.sim, Box::new(store)).unwrap();
            let flushed: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
            let sink = flushed.clone();
            Server::on_event(&f.server, move |_sim, ev| {
                if let ServerEvent::GroupCommit { records, .. } = ev {
                    *sink.borrow_mut() += *records as u64;
                }
            });
            raw_burst_enqueue(&mut f, 0..k);
            f.sim.run();
            prop_assert!(f.server.borrow().is_crashed());
            let replied: Vec<RequestId> =
                f.replies.borrow().iter().map(|rep| rep.req_id).collect();

            Server::crash_restart(&f.server, &mut f.sim).unwrap();
            let m = f.sim.stats.counter("server.recovered_commits");
            // Batch granularity: exactly the durably flushed groups.
            prop_assert_eq!(m, *flushed.borrow(),
                "recovery must discard the torn batch whole");
            prop_assert!(m < k);

            // No reply in a group ever left before its batch flushed.
            for req in &replied {
                prop_assert!(f.server.borrow().executed_contains(CLIENT, *req));
            }

            // Committed-prefix oracle: a crash-free server fed exactly
            // the m durable commits has the identical canonical state.
            let mut o = raw_rig(seed, group_cfg(max_batch, window));
            raw_burst_enqueue(&mut o, 0..m);
            o.sim.run();
            prop_assert_eq!(
                f.server.borrow().export_store(),
                o.server.borrow().export_store(),
                "recovered state != batch committed-prefix oracle (m={})", m
            );

            // Convergence with zero at-most-once violations.
            raw_burst_enqueue(&mut f, 0..k);
            f.sim.run();
            prop_assert_eq!(
                f.server.borrow().get_object(&urn("c")).unwrap().field("n"),
                Some(format!("{k}").as_str())
            );
            prop_assert_eq!(f.sim.stats.counter("server.dedup_miss_reexec"), 0);
        }
    }
}
