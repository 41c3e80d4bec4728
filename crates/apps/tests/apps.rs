//! Application-level integration tests: the mail reader, calendar, and
//! browser proxy driving the real toolkit over the simulated network.

use std::rc::Rc;

use rover_apps::calendar::{calendar_object, Calendar};
use rover_apps::mail::{MailReader, MailboxGen};
use rover_apps::web::{run_session, BrowseMode, BrowserProxy, WebGen};
use rover_core::{
    Client, ClientConfig, ClientRef, Guarantees, OpStatus, RoverError, ScriptResolver,
    ServerConfig, ServerRef, World,
};
use rover_net::{LinkId, LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::HostId;

const CLIENT: HostId = HostId(1);
const CLIENT2: HostId = HostId(3);
const SERVER: HostId = HostId(2);

fn rig(spec: LinkSpec) -> (Sim, Net, LinkId, ServerRef, ClientRef) {
    let mut w = World::new(11);
    let server = w.server(ServerConfig::workstation(SERVER));
    for ty in ["mailfolder", "mailmsg", "spool", "calendar", "webpage"] {
        server
            .borrow_mut()
            .register_resolver(ty, Box::new(ScriptResolver::default()));
    }
    let client = w.client(ClientConfig::thinkpad(CLIENT, SERVER), spec);
    let link = w.links_of(CLIENT)[0];
    let World { sim, net, .. } = w;
    (sim, net, link, server, client)
}

// ----------------------------------------------------------------------
// Mail.

#[test]
fn mail_open_read_and_summaries() {
    let (mut sim, _net, _link, server, client) = rig(LinkSpec::WAVELAN_2M);
    let ids = MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 20,
        seed: 3,
    }
    .populate(&server);
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);

    let p = reader.open_folder(&mut sim, "inbox").unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);

    // Local summaries on the cached folder.
    let s = reader.summaries_local(&mut sim, "inbox").unwrap();
    sim.run();
    let list = s.poll().unwrap().value.as_list().unwrap();
    assert_eq!(list.len(), 20);

    // Read a message end-to-end.
    let m = reader.read_message(&mut sim, "inbox", &ids[7]).unwrap();
    sim.run();
    let obj = m.poll().unwrap().object.unwrap();
    assert!(obj.field("body").unwrap().len() >= 400);
    assert!(obj.field("from").is_some());
}

#[test]
fn mail_compose_while_disconnected_drains_later() {
    let (mut sim, net, link, server, client) = rig(LinkSpec::CSLIP_14_4);
    MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 2,
        seed: 3,
    }
    .populate(&server);
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);

    // Import the outbox while connected (exports need a cached copy).
    let p = Client::import(
        &client,
        &mut sim,
        &reader.outbox_urn().unwrap(),
        reader.session,
        rover_wire::Priority::NORMAL,
    )
    .unwrap();
    sim.run();
    assert!(p.is_ready());

    net.set_up(&mut sim, link, false);
    let mut handles = Vec::new();
    for i in 0..5 {
        let h = reader
            .compose(
                &mut sim,
                &format!("out{i}"),
                "status report",
                "all quiet on the 2.4k link",
            )
            .unwrap();
        handles.push(h);
        sim.run_for(SimDuration::from_secs(1));
    }
    assert!(handles.iter().all(|h| h.tentative.is_ready()));
    assert!(handles.iter().all(|h| !h.committed.is_ready()));

    net.set_up(&mut sim, link, true);
    sim.run();
    assert!(handles.iter().all(|h| h.committed.is_ready()));
    let sv = server.borrow();
    let outbox = sv.get_object(&reader.outbox_urn().unwrap()).unwrap();
    assert_eq!(
        outbox
            .fields
            .keys()
            .filter(|k| k.starts_with("msg"))
            .count(),
        5
    );
}

#[test]
fn mail_two_readers_merge_deletes() {
    // Alice deletes different messages from two devices; the folder's
    // commutative del_msg merges both.
    let mut w = World::new(5);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("mailfolder", Box::new(ScriptResolver::default()));
    let ids = MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 10,
        seed: 9,
    }
    .populate(&server);

    let c1 = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let c2 = w.client(
        ClientConfig::thinkpad(CLIENT2, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let World { mut sim, .. } = w;
    let laptop = MailReader::new(&c1, "alice", Guarantees::ALL);
    let desktop = MailReader::new(&c2, "alice", Guarantees::ALL);
    for (r, _) in [(&laptop, 0), (&desktop, 1)] {
        let p = r.open_folder(&mut sim, "inbox").unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    // Both delete from the same base version.
    let h1 = laptop.delete_message(&mut sim, "inbox", &ids[1]).unwrap();
    let h2 = desktop.delete_message(&mut sim, "inbox", &ids[5]).unwrap();
    sim.run();
    let s1 = h1.committed.poll().unwrap().status;
    let s2 = h2.committed.poll().unwrap().status;
    assert!(s1 == OpStatus::Ok || s1 == OpStatus::Resolved);
    assert!(s2 == OpStatus::Ok || s2 == OpStatus::Resolved);

    let sv = server.borrow();
    let folder = sv.get_object(&laptop.folder_urn("inbox").unwrap()).unwrap();
    let ids_field = folder.field("ids").unwrap();
    assert!(!ids_field.contains(&ids[1]));
    assert!(!ids_field.contains(&ids[5]));
    assert_eq!(rover_script::parse_list(ids_field).unwrap().len(), 8);
}

#[test]
fn mail_filter_ships_function_not_data() {
    let (mut sim, _net, _link, server, client) = rig(LinkSpec::CSLIP_2_4);
    MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 40,
        seed: 21,
    }
    .populate(&server);
    let reader = MailReader::new(&client, "alice", Guarantees::NONE);

    let before = sim.stats.counter("net.sent_bytes");
    let p = reader.filter_remote(&mut sim, "inbox", "bob").unwrap();
    sim.run();
    let filter_bytes = sim.stats.counter("net.sent_bytes") - before;
    let matches = p.poll().unwrap().value.as_list().unwrap();
    assert!(!matches.is_empty());

    // Fetching the whole folder would move far more bytes.
    let before = sim.stats.counter("net.sent_bytes");
    let p = reader.open_folder(&mut sim, "inbox").unwrap();
    sim.run();
    assert!(p.is_ready());
    let folder_bytes = sim.stats.counter("net.sent_bytes") - before;
    assert!(
        folder_bytes > filter_bytes * 3,
        "folder fetch {folder_bytes}B vs shipped filter {filter_bytes}B"
    );
}

#[test]
fn names_that_make_no_urn_are_errors_not_panics() {
    let (mut sim, _net, _link, _server, client) = rig(LinkSpec::ETHERNET_10M);
    let bad = |r: Result<_, RoverError>| matches!(r, Err(RoverError::BadUrn(_)));
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);
    assert!(bad(reader.open_folder(&mut sim, "Sent Items").map(drop)));
    assert!(bad(reader
        .read_message(&mut sim, "inbox", "<a@b>")
        .map(drop)));
    assert!(bad(reader.summaries_local(&mut sim, "a b").map(drop)));
    assert!(bad(reader.hoard(&mut sim, "in box").map(drop)));
    assert!(bad(reader
        .delete_message(&mut sim, "in box", "m1")
        .map(drop)));
    let ids = ["m1".to_owned(), "<a@b>".to_owned()];
    assert!(bad(reader.prefetch_messages(&mut sim, "inbox", &ids)));
    // The user's own name is caller-supplied too.
    let odd = MailReader::new(&client, "al ice", Guarantees::ALL);
    assert!(bad(odd.compose(&mut sim, "o1", "s", "b").map(drop)));
    let cal = Calendar::new(&client, "team room", "alice", Guarantees::ALL);
    assert!(bad(cal.open(&mut sim).map(drop)));
    assert!(bad(cal.book(&mut sim, 9, "standup").map(drop)));
    assert!(bad(cal.lookup_local(&mut sim, 9).map(drop)));
}

// ----------------------------------------------------------------------
// Calendar.

#[test]
fn calendar_disconnected_booking_and_slot_conflict() {
    let mut w = World::new(5);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("calendar", Box::new(ScriptResolver::default()));
    server.borrow_mut().put_object(calendar_object("team"));

    let c1 = w.client(ClientConfig::thinkpad(CLIENT, SERVER), LinkSpec::WAVELAN_2M);
    let c2 = w.client(
        ClientConfig::thinkpad(CLIENT2, SERVER),
        LinkSpec::WAVELAN_2M,
    );
    let l1 = w.links_of(CLIENT)[0];
    let l2 = w.links_of(CLIENT2)[0];
    let World { mut sim, net, .. } = w;
    let alice = Calendar::new(&c1, "team", "alice", Guarantees::ALL);
    let bob = Calendar::new(&c2, "team", "bob", Guarantees::ALL);
    for cal in [&alice, &bob] {
        let p = cal.open(&mut sim).unwrap();
        sim.run();
        assert!(p.is_ready());
    }

    // Both go offline and book: disjoint slots merge, same slot
    // conflicts for exactly one of them.
    net.set_up(&mut sim, l1, false);
    net.set_up(&mut sim, l2, false);
    let a9 = alice.book(&mut sim, 9, "design review").unwrap();
    let a11 = alice.book(&mut sim, 11, "lunch").unwrap();
    let b9 = bob.book(&mut sim, 9, "standup").unwrap();
    let b14 = bob.book(&mut sim, 14, "1:1").unwrap();
    sim.run_for(SimDuration::from_secs(30));

    // Tentative agenda shows each user their own bookings.
    let ag = alice.agenda_local(&mut sim).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(ag.poll().unwrap().value.as_list().unwrap().len(), 2);

    net.set_up(&mut sim, l1, true);
    net.set_up(&mut sim, l2, true);
    sim.run();

    let statuses = [&a9, &a11, &b9, &b14].map(|h| h.committed.poll().unwrap().status);
    // Slot 9: one side wins, the other is reflected as a conflict.
    let conflicts = statuses
        .iter()
        .filter(|s| **s == OpStatus::Conflict)
        .count();
    assert_eq!(
        conflicts, 1,
        "exactly one slot-9 booking must lose: {statuses:?}"
    );

    let sv = server.borrow();
    let cal = sv.get_object(&alice.urn().unwrap()).unwrap();
    assert!(cal.field("ev9").is_some());
    assert!(cal.field("ev11").unwrap().contains("alice"));
    assert!(cal.field("ev14").unwrap().contains("bob"));
}

#[test]
fn calendar_cancel_roundtrip() {
    let (mut sim, _net, _link, server, client) = rig(LinkSpec::ETHERNET_10M);
    server.borrow_mut().put_object(calendar_object("solo"));
    let cal = Calendar::new(&client, "solo", "alice", Guarantees::ALL);
    let p = cal.open(&mut sim).unwrap();
    sim.run();
    assert!(p.is_ready());

    let b = cal.book(&mut sim, 10, "dentist").unwrap();
    sim.run();
    assert_eq!(b.committed.poll().unwrap().status, OpStatus::Ok);
    let l = cal.lookup_local(&mut sim, 10).unwrap();
    sim.run();
    assert!(l.poll().unwrap().value.as_str().contains("dentist"));

    let c = cal.cancel(&mut sim, 10).unwrap();
    sim.run();
    assert_eq!(c.committed.poll().unwrap().status, OpStatus::Ok);
    assert!(server
        .borrow()
        .get_object(&cal.urn().unwrap())
        .unwrap()
        .field("ev10")
        .is_none());
}

// ----------------------------------------------------------------------
// Web proxy.

#[test]
fn web_prefetch_turns_clicks_into_cache_hits() {
    let (mut sim, _net, _link, server, client) = rig(LinkSpec::CSLIP_14_4);
    WebGen {
        pages: 30,
        seed: 13,
    }
    .populate(&server);
    let proxy = Rc::new(BrowserProxy::new(&client, true));

    // First click: fetched over the modem, links prefetched after.
    let p = proxy.request(&mut sim, "p0").unwrap();
    sim.run();
    let first = p.poll().unwrap();
    assert!(!first.from_cache);
    let links = rover_apps::web::page_links(first.object.as_ref().unwrap());
    assert!(!links.is_empty());

    // After the prefetch queue drains, clicking a linked page hits the
    // cache.
    let p2 = proxy.request(&mut sim, &links[0]).unwrap();
    sim.run_for(SimDuration::from_millis(10));
    assert!(p2.is_ready(), "linked page should be cached by prefetch");
    assert!(p2.poll().unwrap().from_cache);
}

#[test]
fn web_clickahead_beats_blocking_on_slow_links() {
    let run = |mode: BrowseMode| -> (f64, u64) {
        let (mut sim, _net, _link, server, client) = rig(LinkSpec::CSLIP_14_4);
        WebGen {
            pages: 40,
            seed: 17,
        }
        .populate(&server);
        let proxy = Rc::new(BrowserProxy::new(&client, false));
        let stats = run_session(
            proxy,
            &mut sim,
            "p0",
            12,
            SimDuration::from_secs(5),
            mode,
            99,
        );
        sim.run();
        let st = stats.borrow();
        assert_eq!(st.stalls_ms.len(), 12, "all pages arrived");
        let total = st.finished_at.expect("session finished").as_secs_f64();
        (total, st.stalls_ms.iter().sum::<f64>() as u64)
    };

    let (blocking_total, _) = run(BrowseMode::Blocking);
    let (clickahead_total, _) = run(BrowseMode::ClickAhead);
    assert!(
        clickahead_total < blocking_total,
        "click-ahead session ({clickahead_total:.1}s) should finish before blocking \
         ({blocking_total:.1}s)"
    );
}

#[test]
fn web_disconnected_browsing_from_cache() {
    let (mut sim, net, link, server, client) = rig(LinkSpec::WAVELAN_2M);
    WebGen {
        pages: 10,
        seed: 23,
    }
    .populate(&server);
    let proxy = Rc::new(BrowserProxy::new(&client, true));

    let p = proxy.request(&mut sim, "p3").unwrap();
    sim.run();
    let links = rover_apps::web::page_links(p.poll().unwrap().object.as_ref().unwrap());

    net.set_up(&mut sim, link, false);
    // Cached page: instant. Prefetched link: instant. Uncached page:
    // queued, unresolved while disconnected.
    let hit = proxy.request(&mut sim, "p3").unwrap();
    let linked = proxy.request(&mut sim, &links[0]).unwrap();
    sim.run_for(SimDuration::from_secs(5));
    assert!(hit.poll().unwrap().from_cache);
    assert!(linked.is_ready());

    let all: std::collections::HashSet<String> =
        links.iter().cloned().chain(["p3".to_owned()]).collect();
    let uncached = (0..10).map(|i| format!("p{i}")).find(|p| !all.contains(p));
    if let Some(page) = uncached {
        let miss = proxy.request(&mut sim, &page).unwrap();
        sim.run_for(SimDuration::from_secs(60));
        assert!(!miss.is_ready(), "uncached page must wait for reconnection");
        net.set_up(&mut sim, link, true);
        sim.run();
        assert_eq!(miss.poll().unwrap().status, OpStatus::Ok);
    }
}

#[test]
fn mail_hoard_enables_full_offline_folder() {
    let (mut sim, net, link, server, client) = rig(LinkSpec::WAVELAN_2M);
    let ids = MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 15,
        seed: 8,
    }
    .populate(&server);
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);

    // One call hoards the folder index and all 15 bodies.
    let p = reader.hoard(&mut sim, "inbox").unwrap();
    sim.run();
    assert!(p.is_ready());

    net.set_up(&mut sim, link, false);
    // Folder listing and every message read from cache, offline.
    let f = reader.open_folder(&mut sim, "inbox").unwrap();
    sim.run_for(SimDuration::from_millis(100));
    assert!(f.poll().unwrap().from_cache);
    for id in &ids {
        let m = reader.read_message(&mut sim, "inbox", id).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(m.poll().unwrap().from_cache, "{id} not hoarded");
    }
}

#[test]
fn web_prefetch_threshold_gates_prefetching() {
    // On a fast link, stalls are below the threshold → no prefetching;
    // on a modem the same threshold lets prefetch kick in.
    let prefetches = |spec: LinkSpec| -> u64 {
        let (mut sim, _net, _link, server, client) = rig(spec);
        WebGen {
            pages: 20,
            seed: 31,
        }
        .populate(&server);
        let mut proxy = BrowserProxy::new(&client, true);
        proxy.prefetch_threshold = SimDuration::from_millis(500);
        let p = proxy.request(&mut sim, "p0").unwrap();
        sim.run();
        assert!(p.is_ready());
        sim.stats.counter("client.prefetches")
    };

    assert_eq!(
        prefetches(LinkSpec::ETHERNET_10M),
        0,
        "fast link: below threshold"
    );
    assert!(
        prefetches(LinkSpec::CSLIP_14_4) > 0,
        "modem: above threshold"
    );
}

#[test]
fn web_session_survives_flaky_modem() {
    // A browsing session across repeated disconnections: every clicked
    // page eventually arrives (click-ahead + QRPC retransmission).
    let (mut sim, net, link, server, client) = rig(LinkSpec::CSLIP_14_4);
    WebGen {
        pages: 25,
        seed: 37,
    }
    .populate(&server);
    let proxy = Rc::new(BrowserProxy::new(&client, false));
    // 40 s up / 20 s down, repeatedly.
    net.schedule_pattern(
        &mut sim,
        link,
        SimDuration::from_secs(40),
        SimDuration::from_secs(20),
        40,
    );
    let stats = run_session(
        proxy,
        &mut sim,
        "p0",
        10,
        SimDuration::from_secs(25),
        BrowseMode::ClickAhead,
        3,
    );
    sim.run_until(sim.now() + rover_sim::SimDuration::from_secs(3600));
    let st = stats.borrow();
    assert_eq!(
        st.stalls_ms.len(),
        10,
        "every page arrived despite the flapping"
    );
    assert!(st.finished_at.is_some());
}
