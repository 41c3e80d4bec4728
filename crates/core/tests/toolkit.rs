//! End-to-end toolkit tests: client + server over the simulated network,
//! exercising disconnected operation, queue drain, conflicts,
//! at-most-once execution, session guarantees, and split-phase replies.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, ClientEvent, ClientRef, Guarantees, LogPolicy, OpStatus, Priority,
    ReexecuteResolver, RejectResolver, Resolver, RoverObject, ScriptResolver, ServerConfig,
    ServerRef, Urn, World,
};
use rover_net::{HostSched, LinkId, LinkSpec, Net, SmtpRelay};
use rover_sim::{Sim, SimDuration};
use rover_wire::{HostId, SessionId};

const CLIENT: HostId = HostId(1);
const CLIENT2: HostId = HostId(3);
const SERVER: HostId = HostId(2);

struct Bed {
    sim: Sim,
    net: Net,
    link: LinkId,
    server: ServerRef,
    client: ClientRef,
    session: SessionId,
}

fn counter_obj(path: &str) -> RoverObject {
    RoverObject::new(
        Urn::parse(&format!("urn:rover:t/{path}")).unwrap(),
        "counter",
    )
    .with_code(
        "proc get {} {rover::get n 0}
             proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}",
    )
    .with_field("n", "0")
}

fn urn(path: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{path}")).unwrap()
}

fn bed(spec: LinkSpec) -> Bed {
    bed_with(spec, ClientConfig::thinkpad(CLIENT, SERVER))
}

fn bed_with(spec: LinkSpec, cfg: ClientConfig) -> Bed {
    let mut w = World::new(42);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    let client = w.client(cfg, spec);
    let link = w.links_of(CLIENT)[0];
    let World { sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    Bed {
        sim,
        net,
        link,
        server,
        client,
        session,
    }
}

#[test]
fn import_miss_then_hit() {
    let mut b = bed(LinkSpec::WAVELAN_2M);
    b.server
        .borrow_mut()
        .put_object(counter_obj("c").with_field("n", "7"));

    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    let miss_latency = p.resolved_at().unwrap();
    let o = p.poll().unwrap();
    assert_eq!(o.status, OpStatus::Ok);
    assert!(!o.from_cache);
    assert_eq!(o.object.unwrap().field("n"), Some("7"));

    let t0 = b.sim.now();
    let p2 = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    let hit_latency = p2.resolved_at().unwrap().since(t0);
    assert!(p2.poll().unwrap().from_cache);
    // A cache hit is orders of magnitude faster than the network fetch.
    assert!(hit_latency.as_micros() * 10 < miss_latency.as_micros());
    assert_eq!(b.sim.stats.counter("client.cache_hits"), 1);
    assert_eq!(b.sim.stats.counter("client.cache_misses"), 1);
}

#[test]
fn import_of_missing_object_reports_status() {
    let mut b = bed(LinkSpec::ETHERNET_10M);
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("ghost"),
        b.session,
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::NoSuchObject);
}

#[test]
fn disconnected_import_queues_until_reconnect() {
    let mut b = bed(LinkSpec::WAVELAN_2M);
    b.server.borrow_mut().put_object(counter_obj("c"));
    b.net.set_up(&mut b.sim, b.link, false);

    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_secs(300));
    assert!(!p.is_ready());
    assert_eq!(Client::outstanding_count(&b.client), 1);
    assert_eq!(Client::log_len(&b.client), 1);

    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
    assert!(p.resolved_at().unwrap() >= rover_sim::SimTime::from_secs(300));
    assert_eq!(Client::outstanding_count(&b.client), 0);
    assert_eq!(Client::log_len(&b.client), 0);
}

#[test]
fn export_applies_tentatively_then_commits() {
    let mut b = bed(LinkSpec::CSLIP_14_4);
    b.server.borrow_mut().put_object(counter_obj("c"));
    // Import first (exports need a cached copy).
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    let events = Rc::new(RefCell::new(Vec::new()));
    let ev2 = events.clone();
    Client::on_event(&b.client, move |_sim, e| ev2.borrow_mut().push(e.clone()));

    let t0 = b.sim.now();
    let h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["5"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run();

    // Tentative resolution is local-speed; commit waited on the modem.
    let tentative_ms = h.tentative.resolved_at().unwrap().since(t0).as_millis();
    let commit_ms = h.committed.resolved_at().unwrap().since(t0).as_millis();
    assert!(tentative_ms < 50, "tentative took {tentative_ms}ms");
    assert!(
        commit_ms > tentative_ms * 2,
        "commit {commit_ms}ms vs tentative {tentative_ms}ms"
    );
    assert!(h.tentative.poll().unwrap().tentative);
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Ok);

    // Server state reflects the operation.
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("5")
    );
    // Events: tentative apply then commit.
    let evs = events.borrow();
    assert!(evs
        .iter()
        .any(|e| matches!(e, ClientEvent::TentativeApplied { .. })));
    assert!(evs.iter().any(|e| matches!(
        e,
        ClientEvent::Committed {
            status: OpStatus::Ok,
            ..
        }
    )));
}

#[test]
fn disconnected_exports_drain_in_order_on_reconnect() {
    let mut b = bed(LinkSpec::WAVELAN_2M);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    b.net.set_up(&mut b.sim, b.link, false);
    let mut handles = Vec::new();
    for k in 1..=10 {
        let h = Client::export(
            &b.client,
            &mut b.sim,
            &urn("c"),
            b.session,
            "add",
            &[&k.to_string()],
            Priority::NORMAL,
        )
        .unwrap();
        handles.push(h);
        b.sim.run_for(SimDuration::from_secs(1));
    }
    // All tentative, none committed; tentative copy shows the local sum.
    assert!(handles.iter().all(|h| h.tentative.is_ready()));
    assert!(handles.iter().all(|h| !h.committed.is_ready()));
    let tent = Client::cached_object(&b.client, &urn("c"), true).unwrap();
    assert_eq!(tent.field("n"), Some("55"));
    assert_eq!(Client::log_len(&b.client), 10);

    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();
    assert!(handles.iter().all(|h| h.committed.is_ready()));
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("55")
    );
    // Committed copy caught up; tentative cleared.
    let committed = Client::cached_object(&b.client, &urn("c"), false).unwrap();
    assert_eq!(committed.field("n"), Some("55"));
    assert_eq!(Client::log_len(&b.client), 0);
}

/// Clients on `CLIENT` and `CLIENT2`, each on its own Ethernet link to
/// a server holding counter `c` whose conflicts `resolver` settles.
fn two_clients(resolver: Box<dyn Resolver>) -> (Sim, ServerRef, ClientRef, ClientRef) {
    let mut w = World::new(7);
    let server = w.server(ServerConfig::workstation(SERVER));
    server.borrow_mut().register_resolver("counter", resolver);
    server.borrow_mut().put_object(counter_obj("c"));
    let mut client = |host| w.client(ClientConfig::thinkpad(host, SERVER), LinkSpec::ETHERNET_10M);
    let (c1, c2) = (client(CLIENT), client(CLIENT2));
    (w.sim, server, c1, c2)
}

#[test]
fn conflicting_exports_reexecute_with_type_resolver() {
    // Two clients add to the same counter from the same base version;
    // the counter type's resolver re-executes, so both commit.
    let (mut sim, server, c1, c2) = two_clients(Box::new(ReexecuteResolver));
    let s1 = Client::create_session(&c1, Guarantees::ALL, true);
    let s2 = Client::create_session(&c2, Guarantees::ALL, true);

    for (c, s) in [(&c1, s1), (&c2, s2)] {
        let p = Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    // Both export from base version 1.
    let h1 = Client::export(
        &c1,
        &mut sim,
        &urn("c"),
        s1,
        "add",
        &["10"],
        Priority::NORMAL,
    )
    .unwrap();
    let h2 = Client::export(
        &c2,
        &mut sim,
        &urn("c"),
        s2,
        "add",
        &["32"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run();

    let st1 = h1.committed.poll().unwrap().status;
    let st2 = h2.committed.poll().unwrap().status;
    // One commits cleanly, the other conflicts and is auto-resolved.
    assert!(matches!(
        (st1, st2),
        (OpStatus::Ok, OpStatus::Resolved) | (OpStatus::Resolved, OpStatus::Ok)
    ));
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("42")
    );
}

#[test]
fn unresolvable_conflict_is_reflected_to_user() {
    let (mut sim, server, c1, c2) = two_clients(Box::new(RejectResolver));
    let s1 = Client::create_session(&c1, Guarantees::NONE, true);
    let s2 = Client::create_session(&c2, Guarantees::NONE, true);
    for (c, s) in [(&c1, s1), (&c2, s2)] {
        let p = Client::import(c, &mut sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    let conflicts = Rc::new(RefCell::new(0));
    let k = conflicts.clone();
    Client::on_event(&c2, move |_s, e| {
        if matches!(e, ClientEvent::ConflictReflected { .. }) {
            *k.borrow_mut() += 1;
        }
    });

    let h1 = Client::export(
        &c1,
        &mut sim,
        &urn("c"),
        s1,
        "add",
        &["10"],
        Priority::NORMAL,
    )
    .unwrap();
    let h2 = Client::export(
        &c2,
        &mut sim,
        &urn("c"),
        s2,
        "add",
        &["32"],
        Priority::NORMAL,
    )
    .unwrap();
    sim.run();

    let statuses = [
        h1.committed.poll().unwrap().status,
        h2.committed.poll().unwrap().status,
    ];
    assert!(statuses.contains(&OpStatus::Ok));
    assert!(statuses.contains(&OpStatus::Conflict));
    assert_eq!(
        *conflicts.borrow() + sim.stats.counter("client.conflicts") as i32 - 1,
        1
    );
    // Only one add landed.
    let n = server
        .borrow()
        .get_object(&urn("c"))
        .unwrap()
        .field("n")
        .unwrap()
        .to_owned();
    assert!(n == "10" || n == "32");
}

#[test]
fn script_resolver_merges_calendar_style() {
    // The object's own `resolve` proc accepts non-overlapping slots.
    let mut b = bed(LinkSpec::ETHERNET_10M);
    b.server
        .borrow_mut()
        .register_resolver("cal", Box::new(ScriptResolver::default()));
    let obj = RoverObject::new(urn("cal"), "cal").with_code(
        "proc book {slot who} {
            if {[rover::has slot$slot]} {error taken}
            rover::set slot$slot $who
         }
         proc resolve {method args_list base} {
            if {$method eq \"book\"} {
                set slot [lindex $args_list 0]
                if {![rover::has slot$slot]} {return accept}
            }
            return reject
         }",
    );
    b.server.borrow_mut().put_object(obj);

    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("cal"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    // Simulate a concurrent commit at the server: someone books slot 9.
    {
        let mut sv = b.server.borrow_mut();
        let mut cur = sv.get_object(&urn("cal")).unwrap().clone();
        cur.fields.insert("slot9".into(), "eve");
        cur.version = rover_wire::Version(cur.version.0 + 1);
        sv.put_object(cur);
    }

    // Our export (slot 3) is based on the stale version → conflict →
    // script resolver accepts because slot 3 is free.
    let h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("cal"),
        b.session,
        "book",
        &["3", "alice"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Resolved);
    let sv = b.server.borrow();
    let cur = sv.get_object(&urn("cal")).unwrap();
    assert_eq!(cur.field("slot3"), Some("alice"));
    assert_eq!(cur.field("slot9"), Some("eve"));
}

#[test]
fn at_most_once_across_reply_loss_and_retransmission() {
    // Deliver the request, lose the reply by dropping the link during
    // server turnaround, reconnect: the retransmission must hit the
    // dedup cache, not re-execute the add.
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(30);
    let mut b = bed_with(LinkSpec::CSLIP_14_4, cfg);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    let h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    // The request takes >130 ms to cross the modem; give it 3 s so the
    // server definitely processed it, then cut the link so the reply
    // (or at least the client's view) is at risk, and reconnect.
    b.sim.run_for(SimDuration::from_secs(3));
    b.net.set_up(&mut b.sim, b.link, false);
    b.sim.run_for(SimDuration::from_secs(60));
    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();

    assert!(h.committed.is_ready());
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("1")
    );
}

#[test]
fn exactly_once_effect_under_flaky_connectivity() {
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(20);
    let mut b = bed_with(LinkSpec::CSLIP_14_4, cfg);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    // 20 exports of +1 while the link flaps every few seconds.
    b.net.schedule_pattern(
        &mut b.sim,
        b.link,
        SimDuration::from_secs(5),
        SimDuration::from_secs(7),
        40,
    );
    let mut handles = Vec::new();
    for _ in 0..20 {
        let h = Client::export(
            &b.client,
            &mut b.sim,
            &urn("c"),
            b.session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        handles.push(h);
        b.sim.run_for(SimDuration::from_secs(2));
    }
    b.sim.run();
    assert!(
        handles.iter().all(|h| h.committed.is_ready()),
        "all exports eventually commit"
    );
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("20"),
        "adds applied exactly once each despite {} retransmits",
        b.sim.stats.counter("client.retransmits"),
    );
}

#[test]
fn ryw_session_sees_its_own_pending_writes() {
    let mut b = bed(LinkSpec::CSLIP_2_4);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    b.net.set_up(&mut b.sim, b.link, false);
    let _h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["9"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_secs(5));

    // Import while the export is pending: RYW serves the tentative copy.
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_secs(5));
    let o = p.poll().expect("served from cache while disconnected");
    assert!(o.tentative);
    assert_eq!(o.object.unwrap().field("n"), Some("9"));
}

#[test]
fn foreground_overtakes_queued_bulk_traffic() {
    let mut b = bed(LinkSpec::CSLIP_2_4);
    for i in 0..6 {
        b.server
            .borrow_mut()
            .put_object(counter_obj(&format!("bulk{i}")).with_field("pad", &"x".repeat(2000)));
    }
    b.server.borrow_mut().put_object(counter_obj("hot"));

    // Queue six bulk prefetches, then one foreground import.
    let bulk_urns: Vec<Urn> = (0..6).map(|i| urn(&format!("bulk{i}"))).collect();
    Client::prefetch(&b.client, &mut b.sim, &bulk_urns, b.session);
    let fg = Client::import(
        &b.client,
        &mut b.sim,
        &urn("hot"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    let bulk_done: Vec<_> = bulk_urns
        .iter()
        .map(|u| Client::import(&b.client, &mut b.sim, u, b.session, Priority::BACKGROUND).unwrap())
        .collect();
    b.sim.run();

    let fg_t = fg.resolved_at().unwrap();
    let later_bulk = bulk_done
        .iter()
        .filter(|p| p.resolved_at().unwrap() > fg_t)
        .count();
    assert!(
        later_bulk >= 4,
        "foreground import finished after most bulk traffic"
    );
}

#[test]
fn group_commit_defers_flushes() {
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.log_policy = LogPolicy::GroupCommit {
        n: 4,
        timeout: SimDuration::from_secs(30),
    };
    let mut b = bed_with(LinkSpec::ETHERNET_10M, cfg);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    // The import itself consumed one (timeout-driven) group flush.
    let baseline = b
        .sim
        .stats
        .series("client.flush_ms")
        .map(|s| s.len())
        .unwrap_or(0);

    // Three quick exports: parked, no new flush yet.
    for _ in 0..3 {
        let _ = Client::export(
            &b.client,
            &mut b.sim,
            &urn("c"),
            b.session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
    }
    assert_eq!(
        b.sim
            .stats
            .series("client.flush_ms")
            .map(|s| s.len())
            .unwrap_or(0),
        baseline
    );

    // Fourth export fills the group: exactly one flush covers all four.
    let _ = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(
        b.sim.stats.series("client.flush_ms").unwrap().len(),
        baseline + 1
    );
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("4")
    );
}

#[test]
fn group_commit_timeout_releases_stragglers() {
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.log_policy = LogPolicy::GroupCommit {
        n: 100,
        timeout: SimDuration::from_secs(10),
    };
    let mut b = bed_with(LinkSpec::ETHERNET_10M, cfg);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    let h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_secs(5));
    assert!(!h.committed.is_ready(), "still parked before the timeout");
    b.sim.run();
    assert!(h.committed.is_ready(), "timeout flushed and sent it");
}

#[test]
fn stale_group_window_timer_does_not_cut_next_batch_short() {
    // Regression (found by the clock-seam extraction): a size-cap flush
    // left the window timer armed for the batch it had just committed.
    // The stale timer then fired mid-way through the *next* batch's
    // window and flushed it early — the configured window was silently
    // shortened. The generation guard retires a timer with its batch.
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.log_policy = LogPolicy::GroupCommit {
        n: 2,
        timeout: SimDuration::from_secs(10),
    };
    let mut b = bed_with(LinkSpec::ETHERNET_10M, cfg);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    // Exports A and B fill the group: the size cap flushes them while
    // A's 10 s window timer is still pending.
    for _ in 0..2 {
        let _ = Client::export(
            &b.client,
            &mut b.sim,
            &urn("c"),
            b.session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
    }
    b.sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("2"),
        "size-cap batch committed"
    );

    // Export C parks 5 s into A's old window. Its own window must run
    // the full 10 s (until t+15); the stale timer would have cut it to
    // 5 s (flush at t+10).
    let h = Client::export(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_secs(8));
    assert!(
        !h.committed.is_ready(),
        "stale window timer flushed the next batch early"
    );
    b.sim.run();
    assert!(h.committed.is_ready());
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("3")
    );
}

#[test]
fn smtp_fallback_carries_replies_across_disconnection() {
    let mut b = bed(LinkSpec::WAVELAN_2M);
    let relay = SmtpRelay::new(b.net.clone(), b.link, SimDuration::from_secs(30));
    b.server.borrow_mut().add_smtp_route(CLIENT, relay);
    b.server
        .borrow_mut()
        .put_object(counter_obj("c").with_field("pad", &"y".repeat(50_000)));

    // Import a large object; sever the link while the reply transmits.
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run_for(SimDuration::from_millis(120));
    b.net.set_up(&mut b.sim, b.link, false);
    b.sim.run_for(SimDuration::from_secs(90));
    assert!(!p.is_ready());
    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();

    // The reply arrived — either via retransmission + dedup replay over
    // the link, or via the SMTP spool; the point is split-phase
    // completion despite the drop.
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
    assert_eq!(Client::outstanding_count(&b.client), 0);
}

#[test]
fn ping_direct_fails_disconnected_but_qrpc_survives() {
    let mut b = bed(LinkSpec::ETHERNET_10M);
    b.net.set_up(&mut b.sim, b.link, false);

    assert!(Client::ping_direct(&b.client, &mut b.sim, b.session).is_err());

    let p = Client::ping(&b.client, &mut b.sim, b.session, Priority::FOREGROUND);
    b.sim.run_for(SimDuration::from_secs(10));
    assert!(!p.is_ready());
    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
}

#[test]
fn cache_eviction_emits_events_and_preserves_dirty() {
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.cache_capacity = 30_000;
    let mut b = bed_with(LinkSpec::ETHERNET_10M, cfg);
    for i in 0..5 {
        b.server
            .borrow_mut()
            .put_object(counter_obj(&format!("o{i}")).with_field("pad", &"z".repeat(10_000)));
    }
    let evictions = Rc::new(RefCell::new(Vec::new()));
    let ev = evictions.clone();
    Client::on_event(&b.client, move |_s, e| {
        if let ClientEvent::Evicted { urn } = e {
            ev.borrow_mut().push(urn.clone());
        }
    });
    for i in 0..5 {
        let p = Client::import(
            &b.client,
            &mut b.sim,
            &urn(&format!("o{i}")),
            b.session,
            Priority::NORMAL,
        )
        .unwrap();
        b.sim.run();
        assert!(p.is_ready());
    }
    assert!(!evictions.borrow().is_empty(), "capacity forced evictions");
    let (objs, bytes) = Client::cache_usage(&b.client);
    assert!(bytes <= 30_000);
    assert!(objs < 5);
}

#[test]
fn invoke_local_vs_remote_and_mutation_guard() {
    let mut b = bed(LinkSpec::CSLIP_14_4);
    let obj = counter_obj("c")
        .with_code(
            "proc get {} {rover::get n 0}
             proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}
             proc summarize {} {
                set total 0
                foreach k [rover::keys item*] {incr total [rover::get $k]}
                return $total
             }",
        )
        .with_field("item1", "10")
        .with_field("item2", "32");
    b.server.borrow_mut().put_object(obj);
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    // Local invocation: correct and fast.
    let t0 = b.sim.now();
    let lp = Client::invoke_local(&b.client, &mut b.sim, &urn("c"), "summarize", &[]).unwrap();
    b.sim.run();
    let local = lp.resolved_at().unwrap().since(t0);
    assert_eq!(lp.poll().unwrap().value.as_int().unwrap(), 42);

    // Remote invocation over the modem: same answer, much slower.
    let t1 = b.sim.now();
    let rp = Client::invoke_remote(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        "summarize",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    let remote = rp.resolved_at().unwrap().since(t1);
    assert_eq!(rp.poll().unwrap().value.as_int().unwrap(), 42);
    assert!(
        remote.as_micros() > local.as_micros() * 10,
        "remote {remote} should dwarf local {local}"
    );

    // Mutating methods may not run through invoke_local.
    assert!(matches!(
        Client::invoke_local(&b.client, &mut b.sim, &urn("c"), "add", &["1"]),
        Err(rover_core::RoverError::LocalMutation(_))
    ));
}

#[test]
fn scheduler_reports_drain_for_e9() {
    let mut b = bed(LinkSpec::CSLIP_14_4);
    b.server.borrow_mut().put_object(counter_obj("c"));
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("c"),
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());

    b.net.set_up(&mut b.sim, b.link, false);
    for _ in 0..25 {
        Client::export(
            &b.client,
            &mut b.sim,
            &urn("c"),
            b.session,
            "add",
            &["1"],
            Priority::BULK,
        )
        .unwrap();
        b.sim.run_for(SimDuration::from_millis(200));
    }
    assert_eq!(Client::outstanding_count(&b.client), 25);
    let reconnect_at = b.sim.now();
    b.net.set_up(&mut b.sim, b.link, true);
    b.sim.run();
    let drain = b.sim.now().since(reconnect_at);
    assert_eq!(Client::outstanding_count(&b.client), 0);
    assert_eq!(
        b.server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("25")
    );
    // Draining 25 QRPCs over a 14.4K modem takes many seconds (setup +
    // serialized transfers) but not forever.
    assert!(drain > SimDuration::from_secs(5), "drain was {drain}");
    assert!(drain < SimDuration::from_secs(300), "drain was {drain}");
    let _ = HostSched::queue_len; // silence unused import on some cfgs
}

#[test]
fn load_imports_and_runs_method() {
    let mut b = bed(LinkSpec::CSLIP_14_4);
    b.server.borrow_mut().put_object(
        counter_obj("calc")
            .with_code(
                "proc get {} {rover::get n 0}
                 proc stats {} {list count [rover::get n 0] urn [rover::urn]}",
            )
            .with_field("n", "7"),
    );

    // Miss path: load fetches the object, then runs the method.
    let p = Client::load(
        &b.client,
        &mut b.sim,
        &urn("calc"),
        b.session,
        "stats",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    let o = p.poll().unwrap();
    assert_eq!(o.status, OpStatus::Ok);
    assert_eq!(o.value.as_str(), "count 7 urn urn:rover:t/calc");

    // Hit path: immediate.
    let t0 = b.sim.now();
    let p2 = Client::load(
        &b.client,
        &mut b.sim,
        &urn("calc"),
        b.session,
        "get",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(p2.poll().unwrap().value.as_int().unwrap(), 7);
    assert!(p2.resolved_at().unwrap().since(t0).as_millis() < 100);

    // Missing object propagates the import failure.
    let p3 = Client::load(
        &b.client,
        &mut b.sim,
        &urn("ghost"),
        b.session,
        "get",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(p3.poll().unwrap().status, OpStatus::NoSuchObject);

    // Missing method surfaces as an exec error.
    let p4 = Client::load(
        &b.client,
        &mut b.sim,
        &urn("calc"),
        b.session,
        "no_such_method",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert_eq!(p4.poll().unwrap().status, OpStatus::ExecError);
}

#[test]
fn import_escalation_outrans_background_prefetch() {
    // A page being prefetched at BACKGROUND gets clicked: the foreground
    // re-issue must not wait for the whole background queue.
    let mut b = bed(LinkSpec::CSLIP_14_4);
    for i in 0..4 {
        b.server
            .borrow_mut()
            .put_object(counter_obj(&format!("page{i}")).with_field("pad", &"w".repeat(20_000)));
    }
    // Queue all four as background prefetches.
    let urns: Vec<Urn> = (0..4).map(|i| urn(&format!("page{i}"))).collect();
    Client::prefetch(&b.client, &mut b.sim, &urns, b.session);
    // Click the *last* one (deepest in the background queue).
    let fg = Client::import(
        &b.client,
        &mut b.sim,
        &urns[3],
        b.session,
        Priority::FOREGROUND,
    )
    .unwrap();
    b.sim.run();
    assert!(b.sim.stats.counter("client.imports_escalated") >= 1);
    // The foreground copy beat at least the other two queued prefetches.
    let fg_done = fg.resolved_at().unwrap();
    let total = b.sim.now();
    assert!(
        fg_done.as_micros() < total.as_micros() * 3 / 4,
        "foreground at {fg_done}, all done at {total}"
    );
}

#[test]
fn adaptive_placement_picks_sensibly() {
    use rover_core::{Placement, PlacementHints};

    // A large record store where the filter result is tiny.
    let mut b = bed(LinkSpec::CSLIP_14_4);
    let mut big = counter_obj("big").with_code("proc probe {} {return tiny}");
    big.fields.insert("blob".into(), "B".repeat(80_000));
    b.server.borrow_mut().put_object(big);
    b.server
        .borrow_mut()
        .put_object(counter_obj("small").with_field("n", "1"));

    // Uncached + huge object + tiny result → ship the function.
    let (p, placement) = Client::invoke_adaptive(
        &b.client,
        &mut b.sim,
        &urn("big"),
        b.session,
        "probe",
        &[],
        PlacementHints {
            result_bytes: 16,
            object_bytes: Some(80_000),
            compute_steps: 100,
            reuse_likely: false,
        },
        Priority::FOREGROUND,
    )
    .unwrap();
    assert_eq!(placement, Placement::Remote);
    b.sim.run();
    assert_eq!(p.poll().unwrap().value.as_str(), "tiny");
    assert!(
        !Client::is_cached(&b.client, &urn("big")),
        "remote invoke does not cache"
    );

    // Uncached + small object + reuse expected → import then run.
    let (p, placement) = Client::invoke_adaptive(
        &b.client,
        &mut b.sim,
        &urn("small"),
        b.session,
        "get",
        &[],
        PlacementHints {
            result_bytes: 16,
            object_bytes: Some(200),
            compute_steps: 100,
            reuse_likely: true,
        },
        Priority::FOREGROUND,
    )
    .unwrap();
    assert_eq!(placement, Placement::ImportThenLocal);
    b.sim.run();
    assert_eq!(p.poll().unwrap().value.as_int().unwrap(), 1);
    assert!(Client::is_cached(&b.client, &urn("small")));

    // Cached → local, regardless of hints.
    let (p, placement) = Client::invoke_adaptive(
        &b.client,
        &mut b.sim,
        &urn("small"),
        b.session,
        "get",
        &[],
        PlacementHints::default(),
        Priority::FOREGROUND,
    )
    .unwrap();
    assert_eq!(placement, Placement::Local);
    b.sim.run();
    assert!(p.is_ready());
}

#[test]
fn prefetch_collection_hoards_members() {
    use rover_core::collection_object;

    let mut b = bed(LinkSpec::WAVELAN_2M);
    let members: Vec<Urn> = (0..6).map(|i| urn(&format!("doc{i}"))).collect();
    for (i, u) in members.iter().enumerate() {
        b.server.borrow_mut().put_object(
            RoverObject::new(u.clone(), "blob").with_field("body", &"d".repeat(2_000 + i * 100)),
        );
    }
    b.server
        .borrow_mut()
        .put_object(collection_object(urn("briefcase"), &members));

    let p =
        Client::prefetch_collection(&b.client, &mut b.sim, &urn("briefcase"), b.session).unwrap();
    b.sim.run();
    assert!(p.is_ready());
    // Everything is now readable offline.
    b.net.set_up(&mut b.sim, b.link, false);
    for u in &members {
        assert!(Client::is_cached(&b.client, u), "{u} not hoarded");
        let r = Client::import(&b.client, &mut b.sim, u, b.session, Priority::FOREGROUND).unwrap();
        b.sim.run_for(SimDuration::from_millis(50));
        assert!(r.poll().unwrap().from_cache);
    }
    // The index itself is also usable locally.
    let sz = Client::invoke_local(&b.client, &mut b.sim, &urn("briefcase"), "size", &[]).unwrap();
    b.sim.run_for(SimDuration::from_millis(50));
    assert_eq!(sz.poll().unwrap().value.as_int().unwrap(), 6);
}

#[test]
fn hoard_pins_survive_cache_pressure() {
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.cache_capacity = 25_000;
    let mut b = bed_with(LinkSpec::ETHERNET_10M, cfg);
    for i in 0..6 {
        b.server
            .borrow_mut()
            .put_object(counter_obj(&format!("o{i}")).with_field("pad", &"z".repeat(8_000)));
    }
    // Import o0 and hoard it.
    let p = Client::import(
        &b.client,
        &mut b.sim,
        &urn("o0"),
        b.session,
        Priority::NORMAL,
    )
    .unwrap();
    b.sim.run();
    assert!(p.is_ready());
    assert!(Client::set_hoarded(&b.client, &urn("o0"), true));

    // Blow through the capacity with five more imports.
    for i in 1..6 {
        let p = Client::import(
            &b.client,
            &mut b.sim,
            &urn(&format!("o{i}")),
            b.session,
            Priority::NORMAL,
        )
        .unwrap();
        b.sim.run();
        assert!(p.is_ready());
    }
    assert!(
        Client::is_cached(&b.client, &urn("o0")),
        "hoarded object survived"
    );
    let (objs, _) = Client::cache_usage(&b.client);
    assert!(objs < 6, "others were evicted");

    // Unpin: the next pressure wave may take it.
    assert!(Client::set_hoarded(&b.client, &urn("o0"), false));
    assert!(!Client::set_hoarded(&b.client, &urn("nonexistent"), true));
}
