//! Workspace-level end-to-end scenarios spanning every crate: the
//! commuter day, multi-application clients, interface switching, and
//! split-phase messaging.

use std::cell::RefCell;
use std::rc::Rc;

use rover::apps::calendar::{calendar_object, Calendar};
use rover::apps::mail::{MailReader, MailboxGen};
use rover::apps::web::{BrowserProxy, WebGen};
use rover::{
    Client, ClientConfig, ClientEvent, Guarantees, LinkSpec, OpStatus, Priority, ScriptResolver,
    ServerConfig, SimDuration, Urn, World,
};
use rover_net::SmtpRelay;
use rover_wire::HostId;

const LAPTOP: HostId = HostId(1);
const HOME: HostId = HostId(2);

#[test]
fn commuter_day_full_cycle() {
    // Office (Ethernet) → train (disconnected) → home (modem): the
    // paper's motivating scenario across mail + calendar + web on one
    // client.
    let mut w = World::new(33);
    let server = w.server(ServerConfig::workstation(HOME));
    let ether = w.link(LinkSpec::ETHERNET_10M, LAPTOP, HOME);
    let modem = w.link(LinkSpec::CSLIP_14_4, LAPTOP, HOME);
    w.net.set_up(&mut w.sim, modem, false);
    for ty in ["mailfolder", "mailmsg", "spool", "calendar", "webpage"] {
        server
            .borrow_mut()
            .register_resolver(ty, Box::new(ScriptResolver::default()));
    }
    let ids = MailboxGen {
        user: "alice".into(),
        folder: "inbox".into(),
        count: 12,
        seed: 3,
    }
    .populate(&server);
    server.borrow_mut().put_object(calendar_object("team"));
    WebGen { pages: 12, seed: 9 }.populate(&server);

    let links = w.links_of(LAPTOP);
    let World { mut sim, net, .. } = w;
    let client = Client::new(&mut sim, &net, ClientConfig::thinkpad(LAPTOP, HOME), links);
    let reader = MailReader::new(&client, "alice", Guarantees::ALL);
    let cal = Calendar::new(&client, "team", "alice", Guarantees::ALL);
    let proxy = Rc::new(BrowserProxy::new(&client, true));

    // --- Office: hydrate everything over Ethernet. ---------------------
    let f = reader.open_folder(&mut sim, "inbox").unwrap();
    let ob = Client::import(
        &client,
        &mut sim,
        &reader.outbox_urn().unwrap(),
        reader.session,
        Priority::NORMAL,
    )
    .unwrap();
    let c = cal.open(&mut sim).unwrap();
    let w = proxy.request(&mut sim, "p0").unwrap();
    sim.run_for(SimDuration::from_secs(2));
    for p in [&f, &ob, &c, &w] {
        assert_eq!(p.poll().expect("hydrated at office").status, OpStatus::Ok);
    }
    reader.prefetch_messages(&mut sim, "inbox", &ids).unwrap();
    sim.run_for(SimDuration::from_secs(30));

    // --- Train: both links down; keep working. -------------------------
    net.set_up(&mut sim, ether, false);
    let committed_events = Rc::new(RefCell::new(0));
    let k = committed_events.clone();
    Client::on_event(&client, move |_s, e| {
        if matches!(
            e,
            ClientEvent::Committed {
                status: OpStatus::Ok | OpStatus::Resolved,
                ..
            }
        ) {
            *k.borrow_mut() += 1;
        }
    });

    // Read prefetched mail instantly.
    let m = reader.read_message(&mut sim, "inbox", &ids[5]).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    assert!(m.poll().unwrap().from_cache);

    // Book meetings, reply to mail, browse cached pages.
    let b1 = cal.book(&mut sim, 9, "standup").unwrap();
    let b2 = cal.book(&mut sim, 14, "retro").unwrap();
    let r1 = reader
        .compose(&mut sim, "out1", "re: plans", "writing from the train")
        .unwrap();
    sim.run_for(SimDuration::from_secs(5));
    assert!(b1.tentative.is_ready() && b2.tentative.is_ready() && r1.tentative.is_ready());
    assert!(!b1.committed.is_ready());
    let cached_page = proxy.request(&mut sim, "p0").unwrap();
    sim.run_for(SimDuration::from_secs(1));
    assert!(cached_page.poll().unwrap().from_cache);
    assert_eq!(Client::outstanding_count(&client), 3);
    assert_eq!(Client::log_len(&client), 3);

    // Local agenda shows the tentative bookings.
    let ag = cal.agenda_local(&mut sim).unwrap();
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(ag.poll().unwrap().value.as_list().unwrap().len(), 2);

    // --- Home: dial up; the day's work drains over the modem. ----------
    net.set_up(&mut sim, modem, true);
    sim.run();
    assert_eq!(Client::outstanding_count(&client), 0);
    assert_eq!(Client::log_len(&client), 0);
    assert_eq!(*committed_events.borrow(), 3);

    let sv = server.borrow();
    assert!(sv
        .get_object(&cal.urn().unwrap())
        .unwrap()
        .field("ev9")
        .unwrap()
        .contains("alice"));
    assert!(sv
        .get_object(&cal.urn().unwrap())
        .unwrap()
        .field("ev14")
        .unwrap()
        .contains("alice"));
    assert!(sv
        .get_object(&reader.outbox_urn().unwrap())
        .unwrap()
        .field("msgout1")
        .is_some());
}

#[test]
fn interface_switch_mid_transfer_recovers() {
    // A large import starts on WaveLAN, the card dies mid-transfer, and
    // the modem finishes the job — losses recovered by retransmission,
    // exactly-once preserved end to end.
    let mut w = World::new(44);
    let server = w.server(ServerConfig::workstation(HOME));
    let wave = w.link(LinkSpec::WAVELAN_2M, LAPTOP, HOME);
    // A card the server was never told about: it learns the route when
    // a reply finds no other way back.
    let modem = w.net.add_link(LinkSpec::CSLIP_14_4, LAPTOP, HOME);
    w.net.set_up(&mut w.sim, modem, false);
    let World { mut sim, net, .. } = w;
    let urn = Urn::parse("urn:rover:t/big").unwrap();
    server.borrow_mut().put_object(
        rover::RoverObject::new(urn.clone(), "blob").with_field("body", &"b".repeat(200_000)),
    );

    let mut cfg = ClientConfig::thinkpad(LAPTOP, HOME);
    cfg.rto = SimDuration::from_secs(15);
    let client = Client::new(&mut sim, &net, cfg, vec![wave, modem]);
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::import(&client, &mut sim, &urn, session, Priority::FOREGROUND).unwrap();
    // Kill WaveLAN while the ~0.8 s reply is in flight.
    sim.run_for(SimDuration::from_millis(300));
    net.set_up(&mut sim, wave, false);
    assert!(!p.is_ready());
    // Modem comes up; the server learns the new route dynamically.
    net.set_up(&mut sim, modem, true);
    sim.run_for(SimDuration::from_secs(600));
    let o = p.poll().expect("import completed over the modem");
    assert_eq!(o.status, OpStatus::Ok);
    assert_eq!(o.object.unwrap().field("body").unwrap().len(), 200_000);
}

#[test]
fn split_phase_smtp_reply_completes_qrpc() {
    let mut w = World::new(55);
    let server = w.server(ServerConfig::workstation(HOME));
    let urn = Urn::parse("urn:rover:t/doc").unwrap();
    server.borrow_mut().put_object(
        rover::RoverObject::new(urn.clone(), "blob")
            .with_code(
                // ~50k interpreter steps: >100 ms of server CPU, a wide
                // window in which to sever the link.
                "proc digest {} {
                     set s 0
                     for {set i 0} {$i < 12000} {incr i} {incr s $i}
                     return $s
                 }",
            )
            .with_field("body", "important document"),
    );

    let mut cfg = ClientConfig::thinkpad(LAPTOP, HOME);
    cfg.rto = SimDuration::from_secs(3600); // force the SMTP path, no retransmit
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    let link = w.links_of(LAPTOP)[0];
    let World { mut sim, net, .. } = w;
    let relay = SmtpRelay::new(net.clone(), link, SimDuration::from_secs(60));
    server.borrow_mut().add_smtp_route(LAPTOP, relay.clone());
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let p = Client::invoke_remote(
        &client,
        &mut sim,
        &urn,
        session,
        "digest",
        &[],
        Priority::FOREGROUND,
    )
    .unwrap();
    // The request crosses in ~20 ms; the server then chews on the digest
    // for >100 ms. Sever the link inside that window so the reply finds
    // it down and takes the mail spool instead.
    sim.run_for(SimDuration::from_millis(60));
    net.set_up(&mut sim, link, false);
    sim.run_for(SimDuration::from_secs(120));
    assert!(!p.is_ready());
    assert_eq!(
        SmtpRelay::spooled(&relay),
        1,
        "reply waits in the mail spool"
    );

    net.set_up(&mut sim, link, true);
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(p.poll().expect("delivered by e-mail").status, OpStatus::Ok);
    assert_eq!(sim.stats.counter("server.replies_via_smtp"), 1);
}

#[test]
fn three_clients_share_one_server() {
    let mut w = World::new(66);
    let server = w.server(ServerConfig::workstation(HOME));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(rover::ReexecuteResolver));
    let urn = Urn::parse("urn:rover:t/shared").unwrap();
    w.put_counter(&urn, 0);

    let specs = [
        LinkSpec::ETHERNET_10M,
        LinkSpec::WAVELAN_2M,
        LinkSpec::CSLIP_14_4,
    ];
    let mut handles = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let host = HostId(10 + i as u32);
        let client = w.client(ClientConfig::thinkpad(host, HOME), *spec);
        let session = Client::create_session(&client, Guarantees::ALL, true);
        let p = Client::import(&client, &mut w.sim, &urn, session, Priority::FOREGROUND).unwrap();
        w.sim.run();
        assert!(p.is_ready());
        let h = Client::export(
            &client,
            &mut w.sim,
            &urn,
            session,
            "add",
            &[&(i + 1).to_string()],
            Priority::NORMAL,
        )
        .unwrap();
        handles.push(h);
    }
    w.sim.run();
    for h in &handles {
        let st = h.committed.poll().unwrap().status;
        assert!(st == OpStatus::Ok || st == OpStatus::Resolved, "{st:?}");
    }
    // 1 + 2 + 3 applied exactly once each.
    assert_eq!(
        server.borrow().get_object(&urn).unwrap().field("n"),
        Some("6")
    );
}

#[test]
fn loop_heavy_method_runs_the_same_on_client_and_server() {
    // A `while` with `incr` and a comparison, and a `foreach` with
    // `lappend`: the statement shapes the interpreter runs most. The
    // result, the steps and the virtual time each side charges for
    // them are pinned; steps feed every virtual-time figure.
    let mut w = World::new(77);
    let server = w.server(ServerConfig::workstation(HOME));
    let urn = Urn::parse("urn:rover:t/loops").unwrap();
    let obj = rover::RoverObject::new(urn.clone(), "loops")
        .with_code(
            "proc tally {n} {
                 set s 0
                 set i 0
                 while {$i < $n} {
                     incr s $i
                     incr i
                 }
                 set out {}
                 foreach w [rover::get words] {
                     if {$w eq \"skip\"} continue
                     lappend out [string length $w]
                 }
                 list $s $out
             }",
        )
        .with_field("words", "mobile skip information access skip toolkit");
    let run = obj
        .clone()
        .run_query(
            "tally",
            &[rover::script::Value::Int(300)],
            Default::default(),
        )
        .unwrap();
    assert_eq!(
        (run.result.as_str().as_ref(), run.steps),
        ("44850 {6 11 6 7}", 1239)
    );
    server.borrow_mut().put_object(obj);

    let client = w.client(ClientConfig::thinkpad(LAPTOP, HOME), LinkSpec::ETHERNET_10M);
    let World { mut sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let import = Client::import(&client, &mut sim, &urn, session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(import.poll().unwrap().status, OpStatus::Ok);

    let start = sim.now();
    let local = Client::invoke_local(&client, &mut sim, &urn, "tally", &["300"]).unwrap();
    sim.run();
    let start_remote = sim.now();
    let remote = Client::invoke_remote(
        &client,
        &mut sim,
        &urn,
        session,
        "tally",
        &["300"],
        Priority::FOREGROUND,
    )
    .unwrap();
    sim.run();
    let took = |p: &rover::Promise, from: rover::SimTime| {
        let out = p.poll().expect("resolved");
        let us = p.resolved_at().expect("resolved").since(from).as_micros();
        (out.status, out.value.as_str().into_owned(), us)
    };
    assert_eq!(
        took(&local, start),
        (OpStatus::Ok, "44850 {6 11 6 7}".to_owned(), 12540)
    );
    assert_eq!(
        took(&remote, start_remote),
        (OpStatus::Ok, "44850 {6 11 6 7}".to_owned(), 20478)
    );
}

#[test]
fn facade_reexports_cover_public_api() {
    // Compile-time check that the facade exposes the useful surface.
    fn _assert_types() {
        fn takes_sim(_: rover::Sim) {}
        fn takes_world(_: rover::World) {}
        fn takes_cfg(_: rover::ClientConfig) {}
        fn takes_spec(_: rover::LinkSpec) {}
        fn takes_urn(_: rover::Urn) {}
        fn takes_value(_: rover::script::Value) {}
        fn takes_interp(_: rover::script::Interp) {}
        fn takes_log(_: rover::log::MemStore) {}
        fn takes_wire(_: rover::wire::Encoder) {}
    }
    let mut interp = rover::script::Interp::new();
    let v = interp
        .eval(&mut rover::script::NoHost, "expr {6 * 7}")
        .unwrap();
    assert_eq!(v.as_int().unwrap(), 42);
}
