//! Tests for the extension features: lossy-channel retransmission,
//! client crash recovery from the stable log, and server callbacks.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    counter_object, Client, ClientConfig, ClientEvent, ClientRef, Guarantees, OpStatus, Priority,
    ReexecuteResolver, RoverObject, ServerConfig, ServerRef, SessionId, Urn, World,
};
use rover_net::LinkSpec;
use rover_sim::{Sim, SimDuration};
use rover_wire::HostId;

const CLIENT: HostId = HostId(1);
const CLIENT2: HostId = HostId(3);
const SERVER: HostId = HostId(2);

fn urn(path: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{path}")).unwrap()
}

/// A world whose server holds counter `c` (concurrent adds re-execute),
/// with server callbacks on or off.
fn counter_world(seed: u64, callbacks: bool) -> (World, ServerRef) {
    let mut w = World::new(seed);
    let mut scfg = ServerConfig::workstation(SERVER);
    scfg.callbacks = callbacks;
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);
    (w, server)
}

/// A writer on `CLIENT` and a reader on `CLIENT2`, each on its own
/// Ethernet link to the server.
fn writer_and_reader(w: &mut World) -> (ClientRef, ClientRef) {
    let mut client = |host| w.client(ClientConfig::thinkpad(host, SERVER), LinkSpec::ETHERNET_10M);
    (client(CLIENT), client(CLIENT2))
}

#[test]
fn lossy_channel_recovers_via_strike_retransmission() {
    let (mut w, server) = counter_world(99, false);

    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    w.net.set_loss(w.links_of(CLIENT)[0], 0.20); // a noisy wireless channel
    let World { mut sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    sim.run_until(rover_sim::SimTime::from_secs(600));
    assert!(p.is_ready(), "import survived 20% loss");

    let mut handles = Vec::new();
    for _ in 0..10 {
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
        handles.push(h);
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(3600));
    assert!(
        handles.iter().all(|h| h.committed.is_ready()),
        "all exports completed"
    );
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("10"),
        "exactly-once despite {} random losses / {} retransmits",
        sim.stats.counter("net.random_losses"),
        sim.stats.counter("client.retransmits"),
    );
    assert!(
        sim.stats.counter("net.random_losses") > 0,
        "the channel actually lost messages"
    );
}

#[test]
fn crash_recovery_reissues_queued_qrpcs() {
    let (mut w, server) = counter_world(7, false);

    let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    let client = w.client(cfg.clone(), LinkSpec::CSLIP_14_4);
    let link = w.links_of(CLIENT)[0];
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(
        &client,
        &mut w.sim,
        &urn("c"),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    w.sim.run();
    assert!(p.is_ready());

    // Disconnect and queue five updates; the log holds them durably.
    w.net.set_up(&mut w.sim, link, false);
    for _ in 0..5 {
        Client::export(
            &client,
            &mut w.sim,
            &urn("c"),
            session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        w.sim.run_for(SimDuration::from_secs(1));
    }
    assert_eq!(Client::log_len(&client), 5);

    // Crash: everything in memory is gone; only the log device remains.
    let store = Client::crash(&client);
    drop(client);
    w.sim.run_for(SimDuration::from_secs(60));

    // Reboot, recover, reconnect: the queued updates drain.
    let client = w.recover_client(cfg, store);
    assert_eq!(Client::outstanding_count(&client), 5);
    assert_eq!(w.sim.stats.counter("client.recovered_qrpcs"), 5);
    w.net.set_up(&mut w.sim, link, true);
    w.sim.run_until(w.sim.now() + SimDuration::from_secs(600));
    assert_eq!(Client::outstanding_count(&client), 0);
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("5")
    );
}

#[test]
fn crash_recovery_is_exactly_once_even_if_ops_already_committed() {
    // Ops commit at the server, but the client crashes before
    // processing the replies: recovery re-sends them and the server's
    // dedup cache answers without re-executing.
    let (mut w, server) = counter_world(8, false);

    let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    let client = w.client(cfg.clone(), LinkSpec::ETHERNET_10M);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(
        &client,
        &mut w.sim,
        &urn("c"),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    w.sim.run();
    assert!(p.is_ready());

    // Issue three exports and let them *reach the server* but crash
    // before the replies are consumed.
    for _ in 0..3 {
        Client::export(
            &client,
            &mut w.sim,
            &urn("c"),
            session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
    }
    w.sim.run_for(SimDuration::from_millis(80)); // requests land, replies in flight
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("3")
    );
    let store = Client::crash(&client);
    drop(client);

    let client = w.recover_client(cfg, store);
    w.sim.run_until(w.sim.now() + SimDuration::from_secs(60));
    assert_eq!(Client::outstanding_count(&client), 0);
    // Still exactly 3 — dedup replayed, never re-executed.
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("3")
    );
    assert!(w.sim.stats.counter("server.dedup_replay") >= 1);
}

#[test]
fn recovered_client_opens_sessions_the_server_has_not_seen() {
    // An import and an ordered `add 1` complete, then the client
    // crashes and recovers. The new session's first export is ordered
    // seq 1 again: had the session id been reused, the server would
    // take it for a stale duplicate of the first export and answer
    // without running it.
    let (mut w, server) = counter_world(11, false);
    let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    let import_and_add = |client: &ClientRef, sim: &mut Sim, session: SessionId| {
        Client::import(client, sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
        sim.run();
        let h = Client::export(
            client,
            sim,
            &urn("c"),
            session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        sim.run();
        h.committed.poll().expect("export decided").status
    };
    let client = w.client(cfg.clone(), LinkSpec::ETHERNET_10M);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    assert_eq!(import_and_add(&client, &mut w.sim, session), OpStatus::Ok);

    let store = Client::crash(&client);
    drop(client);
    let client = w.recover_client(cfg, store);
    w.sim.run();
    let session = Client::create_session(&client, Guarantees::ALL, true);
    assert_eq!(import_and_add(&client, &mut w.sim, session), OpStatus::Ok);
    assert_eq!(w.sim.stats.counter("server.stale_duplicate"), 0);
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("2")
    );
}

#[test]
fn recovered_client_never_reuses_a_compacted_request_id() {
    // 64 pings are answered; the 64th retirement compacts the stable
    // log. Had the recovered client restarted its ids at 1, the server
    // would answer its first import from ping 1's dedup entry: `Ok`,
    // with no object.
    let (mut w, _server) = counter_world(12, false);
    let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    let client = w.client(cfg.clone(), LinkSpec::ETHERNET_10M);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let pings: Vec<_> = (0..64)
        .map(|_| Client::ping(&client, &mut w.sim, session, Priority::NORMAL))
        .collect();
    w.sim.run();
    assert!(pings.iter().all(|p| p.is_ready()));
    assert_eq!(Client::log_len(&client), 0);

    let store = Client::crash(&client);
    drop(client);
    let client = w.recover_client(cfg, store);
    assert_eq!(Client::outstanding_count(&client), 0);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(
        &client,
        &mut w.sim,
        &urn("c"),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    w.sim.run();
    let outcome = p.poll().expect("import answered");
    assert_eq!(outcome.status, OpStatus::Ok);
    assert!(outcome.object.is_some(), "answered with a ping's reply");
    assert!(Client::is_cached(&client, &urn("c")));
}

#[test]
fn server_callbacks_invalidate_stale_caches() {
    let run = |callbacks: bool| -> (bool, u64) {
        let (mut w, _server) = counter_world(5, callbacks);
        let (writer, reader) = writer_and_reader(&mut w);
        let World { mut sim, .. } = w;
        let ws = Client::create_session(&writer, Guarantees::ALL, true);
        let rs = Client::create_session(&reader, Guarantees::NONE, false);

        let invalidations = Rc::new(RefCell::new(0u64));
        let k = invalidations.clone();
        Client::on_event(&reader, move |_s, e| {
            if matches!(e, ClientEvent::Invalidated { .. }) {
                *k.borrow_mut() += 1;
            }
        });

        // Both import; the reader caches version 1.
        for (c, s) in [(&writer, ws), (&reader, rs)] {
            let p = Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
            sim.run();
            assert!(p.is_ready());
        }

        // The writer commits a new version.
        let h = Client::export(
            &writer,
            &mut sim,
            &urn("c"),
            ws,
            "add",
            &["7"],
            Priority::NORMAL,
        )
        .unwrap();
        sim.run();
        assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);

        // The reader re-imports: with callbacks the stale copy was
        // invalidated, so this refetches the new version.
        let p = Client::import(&reader, &mut sim, &urn("c"), rs, Priority::FOREGROUND).unwrap();
        sim.run();
        let o = p.poll().unwrap();
        let saw_new = o.object.as_ref().and_then(|ob| ob.field("n")) == Some("7");
        assert_eq!(saw_new, !o.from_cache);
        let events = *invalidations.borrow();
        (saw_new, events)
    };

    let (fresh_with, events_with) = run(true);
    assert!(
        fresh_with,
        "callbacks force a refetch of the committed version"
    );
    assert_eq!(events_with, 1, "the reader's UI was notified");

    let (fresh_without, events_without) = run(false);
    assert!(
        !fresh_without,
        "without callbacks the stale copy is served (the paper's window)"
    );
    assert_eq!(events_without, 0);
}

#[test]
fn disconnected_reader_serves_stale_copy_despite_invalidation() {
    let (mut w, _server) = counter_world(6, true);
    let (writer, reader) = writer_and_reader(&mut w);
    let l2 = w.links_of(CLIENT2)[0];
    let World { mut sim, net, .. } = w;
    let ws = Client::create_session(&writer, Guarantees::ALL, true);
    let rs = Client::create_session(&reader, Guarantees::NONE, false);
    for (c, s) in [(&writer, ws), (&reader, rs)] {
        let p = Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    // Writer commits; reader receives the callback, *then* disconnects.
    let h = Client::export(
        &writer,
        &mut sim,
        &urn("c"),
        ws,
        "add",
        &["7"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run();
    assert!(h.committed.is_ready());
    net.set_up(&mut sim, l2, false);

    // Disconnected import: stale is better than blocked.
    let p = Client::import(&reader, &mut sim, &urn("c"), rs, Priority::FOREGROUND).unwrap();
    sim.run_for(SimDuration::from_secs(2));
    let o = p.poll().expect("served while disconnected");
    assert!(o.from_cache);
    assert_eq!(
        o.object.unwrap().field("n"),
        Some("0"),
        "knowingly stale copy"
    );
}

#[test]
fn volatile_server_sends_callbacks_with_the_reply_not_before() {
    // A server without a WAL runs the same stage → flush → dispatch
    // pipeline as a durable one: the importer's invalidation callback
    // leaves with the writer's reply, once the commit's CPU work is
    // done, never while the reply is still being computed.
    let (mut w, _server) = counter_world(6, true);
    let (writer, reader) = writer_and_reader(&mut w);
    let World { mut sim, .. } = w;
    let ws = Client::create_session(&writer, Guarantees::ALL, true);
    let rs = Client::create_session(&reader, Guarantees::NONE, false);
    for (c, s) in [(&writer, ws), (&reader, rs)] {
        Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        sim.run();
    }
    let replies_before = sim.stats.counter("server.replies");
    Client::export(
        &writer,
        &mut sim,
        &urn("c"),
        ws,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    let mut replies_at_callback = None;
    while sim.step() {
        if sim.stats.counter("server.callbacks_sent") > 0 {
            replies_at_callback = Some(sim.stats.counter("server.replies"));
            break;
        }
    }
    assert_eq!(
        replies_at_callback,
        Some(replies_before + 1),
        "the callback left in the same dispatch as the writer's reply"
    );
}

#[test]
fn authentication_gates_all_operations() {
    let (mut w, server) = counter_world(17, false);
    server.borrow_mut().require_auth(&[0xC0FFEE, 0xBEEF]);

    // Wrong token: every operation is rejected.
    let mut bad_cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    bad_cfg.auth_token = 0xBAD;
    let bad = w.client(bad_cfg, LinkSpec::ETHERNET_10M);
    let links = w.links_of(CLIENT);
    let World { mut sim, net, .. } = w;
    let bs = Client::create_session(&bad, Guarantees::ALL, true);
    let p = Client::import(&bad, &mut sim, &urn("c"), bs, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Rejected);
    assert_eq!(sim.stats.counter("server.auth_rejected"), 1);

    // Correct token: admitted. (Re-register the host with a fresh
    // client; the latest registration wins.)
    let mut good_cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    good_cfg.auth_token = 0xC0FFEE;
    let good = Client::new(&mut sim, &net, good_cfg, links);
    let gs = Client::create_session(&good, Guarantees::ALL, true);
    let p = Client::import(&good, &mut sim, &urn("c"), gs, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);

    // Authenticated exports execute; unauthenticated would not have.
    let h = Client::export(
        &good,
        &mut sim,
        &urn("c"),
        gs,
        "add",
        &["2"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run();
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("2")
    );
}

#[test]
fn server_store_checkpoint_and_restart() {
    let mut w = World::new(21);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("a"), 3);
    w.put_counter(&urn("b"), 9);

    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(
        &client,
        &mut w.sim,
        &urn("a"),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    w.sim.run();
    assert!(p.is_ready());
    // Commit one export so versions advance past 1.
    let h = Client::export(
        &client,
        &mut w.sim,
        &urn("a"),
        session,
        "add",
        &["4"],
        Priority::NORMAL,
    )
    .unwrap();
    w.sim.run();
    assert!(h.committed.is_ready());

    // Checkpoint, "restart" into a brand-new server on the same host.
    let snapshot = server.borrow().export_store();
    drop(server);
    let server2 = w.server(ServerConfig::workstation(SERVER));
    server2
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    assert_eq!(server2.borrow_mut().import_store(&snapshot).unwrap(), 2);

    {
        let sv = server2.borrow();
        assert_eq!(sv.get_object(&urn("a")).unwrap().field("n"), Some("7"));
        assert_eq!(sv.get_object(&urn("b")).unwrap().field("n"), Some("9"));
        assert!(
            sv.get_object(&urn("a")).unwrap().version.0 >= 2,
            "versions preserved"
        );
    }

    // The client keeps working against the restarted server, and its
    // cached base version still lines up (no spurious conflict) — and
    // the restored write-ordering floor admits the next ordered export.
    let h = Client::export(
        &client,
        &mut w.sim,
        &urn("a"),
        session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    w.sim.run_until(w.sim.now() + SimDuration::from_secs(1000));
    assert!(h.committed.is_ready(), "commit never arrived");
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);
    assert_eq!(
        server2.borrow().get_object(&urn("a")).unwrap().field("n"),
        Some("8")
    );
}

#[test]
fn trace_records_protocol_events() {
    let (mut w, _server) = counter_world(23, false);
    w.sim.trace.set_enabled(true);
    let client = w.client(ClientConfig::thinkpad(CLIENT, SERVER), LinkSpec::WAVELAN_2M);
    let link = w.links_of(CLIENT)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    net.set_up(&mut sim, link, false);
    net.set_up(&mut sim, link, true);
    sim.run();
    assert!(p.is_ready());

    let dump = sim.trace.dump();
    assert!(dump.contains("issue req=1"), "{dump}");
    assert!(dump.contains("complete req=1"), "{dump}");
    assert!(dump.contains("link 0 down"), "{dump}");
    assert!(dump.contains("link 0 up"), "{dump}");
    assert!(sim.trace.with_tag("qrpc").count() >= 2);
}

#[test]
fn polling_refreshes_stale_caches_and_stops_on_drop() {
    let (mut w, _server) = counter_world(29, false);
    let (writer, reader) = writer_and_reader(&mut w);
    let World { mut sim, .. } = w;
    let ws = Client::create_session(&writer, Guarantees::ALL, true);
    let rs = Client::create_session(&reader, Guarantees::NONE, false);
    for (c, s) in [(&writer, ws), (&reader, rs)] {
        let p = Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    // The reader polls every 10 s.
    let guard = Client::poll_object(&reader, &mut sim, &urn("c"), rs, SimDuration::from_secs(10));

    // The writer commits; within one poll period the reader's cache
    // catches up without any explicit read.
    let h = Client::export(
        &writer,
        &mut sim,
        &urn("c"),
        ws,
        "add",
        &["5"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run_for(SimDuration::from_secs(12));
    assert!(h.committed.is_ready());
    let cached = Client::cached_object(&reader, &urn("c"), false).unwrap();
    assert_eq!(cached.field("n"), Some("5"), "poll refreshed the cache");
    let polls_before = sim.stats.counter("client.polls");
    assert!(polls_before >= 1);

    // Dropping the guard stops the loop.
    drop(guard);
    sim.run_for(SimDuration::from_secs(60));
    let polls_after = sim.stats.counter("client.polls");
    assert!(
        polls_after <= polls_before + 1,
        "polling kept running after drop: {polls_before} -> {polls_after}"
    );
    sim.run();
}

#[test]
fn multiple_home_servers_routed_by_authority() {
    // "Every object has a home server": the mail authority lives on one
    // host, the calendar authority on another, each behind its own
    // link; the client's scheduler routes each QRPC to the right one.
    let mut w = World::new(41);
    let mail_host = HostId(10);
    let cal_host = HostId(11);
    w.link(LinkSpec::WAVELAN_2M, CLIENT, mail_host);
    w.link(LinkSpec::CSLIP_14_4, CLIENT, cal_host);

    let mail_sv = w.server(ServerConfig::workstation(mail_host));
    mail_sv
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    mail_sv.borrow_mut().put_object(counter_object(
        &Urn::parse("urn:rover:mail/box").unwrap(),
        0,
    ));

    let cal_sv = w.server(ServerConfig::workstation(cal_host));
    cal_sv
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    cal_sv.borrow_mut().put_object(counter_object(
        &Urn::parse("urn:rover:cal/team").unwrap(),
        100,
    ));

    let mut cfg = ClientConfig::thinkpad(CLIENT, mail_host);
    cfg.authorities.insert("mail".into(), mail_host);
    cfg.authorities.insert("cal".into(), cal_host);
    let links = w.links_of(CLIENT);
    let World { mut sim, net, .. } = w;
    let client = Client::new(&mut sim, &net, cfg, links);
    let session = Client::create_session(&client, Guarantees::ALL, true);

    // Both imports resolve, each from its own server over its own link.
    let pm = Client::import(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:mail/box").unwrap(),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    let pc = Client::import(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:cal/team").unwrap(),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run();
    assert_eq!(pm.poll().unwrap().object.unwrap().field("n"), Some("0"));
    assert_eq!(pc.poll().unwrap().object.unwrap().field("n"), Some("100"));
    // The WaveLAN import finished long before the modem one.
    assert!(pm.resolved_at().unwrap() < pc.resolved_at().unwrap());

    // Exports land at the right servers.
    let hm = Client::export(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:mail/box").unwrap(),
        session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    let hc = Client::export(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:cal/team").unwrap(),
        session,
        "add",
        &["2"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run();
    assert!(hm.committed.is_ready() && hc.committed.is_ready());
    assert_eq!(
        mail_sv
            .borrow()
            .get_object(&Urn::parse("urn:rover:mail/box").unwrap())
            .unwrap()
            .field("n"),
        Some("1")
    );
    assert_eq!(
        cal_sv
            .borrow()
            .get_object(&Urn::parse("urn:rover:cal/team").unwrap())
            .unwrap()
            .field("n"),
        Some("102")
    );
}

#[test]
fn partial_connectivity_to_one_of_two_servers() {
    // Only the mail server's link is up: mail QRPCs flow, calendar
    // QRPCs queue, and nothing deadlocks. On reconnect the calendar
    // queue drains.
    let mut w = World::new(43);
    let mail_host = HostId(10);
    let cal_host = HostId(11);

    for (host, path, n0) in [(mail_host, "mail/box", "0"), (cal_host, "cal/team", "100")] {
        let sv = w.server(ServerConfig::workstation(host));
        sv.borrow_mut().put_object(
            RoverObject::new(Urn::parse(&format!("urn:rover:{path}")).unwrap(), "counter")
                .with_field("n", n0),
        );
    }

    let mut cfg = ClientConfig::thinkpad(CLIENT, mail_host);
    cfg.authorities.insert("mail".into(), mail_host);
    cfg.authorities.insert("cal".into(), cal_host);
    cfg.rto = SimDuration::from_secs(10);
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    let l_cal = w.links_of(cal_host)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    net.set_up(&mut sim, l_cal, false);
    let pm = Client::import(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:mail/box").unwrap(),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    let pc = Client::import(
        &client,
        &mut sim,
        &Urn::parse("urn:rover:cal/team").unwrap(),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run_for(SimDuration::from_secs(60));
    assert!(pm.is_ready(), "reachable server answered");
    assert!(!pc.is_ready(), "unreachable server's QRPC still queued");

    net.set_up(&mut sim, l_cal, true);
    sim.run_until(sim.now() + SimDuration::from_secs(120));
    assert!(
        pc.is_ready(),
        "queued QRPC drained once its server was reachable"
    );
    assert_eq!(pc.poll().unwrap().object.unwrap().field("n"), Some("100"));
}
