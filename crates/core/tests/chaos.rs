//! Chaos-plane integration tests: retransmission backoff with a retry
//! budget, graceful give-up, and at-most-once execution under seeded
//! link faults with dedup-eviction pressure.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, ClientEvent, Guarantees, History, OpStatus, Priority, ReexecuteResolver,
    ServerConfig, Urn, World,
};
use rover_net::{FaultSpec, LinkSpec};
use rover_sim::SimDuration;
use rover_wire::HostId;

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

fn urn(path: &str) -> Urn {
    Urn::parse(&format!("urn:rover:t/{path}")).unwrap()
}

#[test]
fn retry_budget_exhaustion_resolves_unreachable() {
    let mut w = World::new(7);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    w.put_counter(&urn("c"), 0);

    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    cfg.rto_max = SimDuration::from_secs(40);
    cfg.retry_budget = Some(2);
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    let link = w.links_of(CLIENT)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    // Warm the cache over a healthy link, then black-hole it.
    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
    net.install_faults(
        &mut sim,
        link,
        FaultSpec {
            drop_prob: 1.0,
            ..FaultSpec::seeded(7)
        },
    );

    let gave_up: Rc<RefCell<Vec<ClientEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = gave_up.clone();
    Client::on_event(&client, move |_sim, ev| {
        if matches!(ev, ClientEvent::Unreachable { .. }) {
            sink.borrow_mut().push(ev.clone());
        }
    });

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

    // The client gave up gracefully instead of probing forever (which
    // would keep `sim.run` alive indefinitely).
    let outcome = h.committed.poll().expect("resolved after give-up");
    assert_eq!(outcome.status, OpStatus::Unreachable);
    assert_eq!(sim.stats.counter("client.retry_exhausted"), 1);
    assert_eq!(sim.stats.counter("client.retransmits"), 2, "budget honored");
    assert_eq!(gave_up.borrow().len(), 1, "Unreachable event emitted");
    assert_eq!(Client::outstanding_count(&client), 0);
    assert_eq!(
        Client::log_len(&client),
        0,
        "abandoned request retired from the stable log"
    );
    // The server never executed it.
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("0")
    );
}

#[test]
fn rto_backoff_doubles_the_probe_interval_up_to_rto_max() {
    // With a black-holed link, a request retransmits every second
    // probe, and each retransmission doubles its probe interval until
    // `rto_max` caps it: from a 5 s RTO the retransmissions are 2 × 10,
    // 2 × 20 and then 2 × 40 s apart.
    let mut w = World::new(7);
    w.server(ServerConfig::workstation(SERVER));
    w.put_counter(&urn("c"), 0);
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    cfg.rto_max = SimDuration::from_secs(40);
    cfg.retry_budget = Some(5);
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    let link = w.links_of(CLIENT)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let p = Client::import(&client, &mut sim, &urn("c"), session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert_eq!(p.poll().unwrap().status, OpStatus::Ok);
    net.install_faults(
        &mut sim,
        link,
        FaultSpec {
            drop_prob: 1.0,
            ..FaultSpec::seeded(9)
        },
    );
    let sent = Rc::new(RefCell::new(Vec::new()));
    let s2 = sent.clone();
    Client::on_event(&client, move |sim, ev| {
        if let ClientEvent::Retransmit { .. } = ev {
            s2.borrow_mut().push(sim.now());
        }
    });
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
    assert_eq!(h.committed.poll().unwrap().status, OpStatus::Unreachable);
    let gaps: Vec<SimDuration> = sent.borrow().windows(2).map(|w| w[1].since(w[0])).collect();
    assert_eq!(gaps, [20, 40, 80, 80].map(SimDuration::from_secs));
}

#[test]
fn exactly_once_under_chaos_with_dedup_pressure() {
    // Seeded drop + corruption + duplication, a dedup cache far smaller
    // than the number of in-flight requests, and retransmissions: the
    // acknowledgement floor must keep eviction safe, so no request ever
    // re-executes and no committed op is lost.
    let mut w = World::new(1995);
    let mut scfg = ServerConfig::workstation(SERVER);
    scfg.dedup_capacity = 2;
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    let mut hist = History::default();
    let c = hist.put_counter(&w, &urn("c"), 0).unwrap();

    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    cfg.rto_max = SimDuration::from_secs(80);
    let client = w.client(cfg, LinkSpec::WAVELAN_2M);
    let link = w.links_of(CLIENT)[0];
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let now = w.sim.now();
    let p = Client::import(
        &client,
        &mut w.sim,
        &urn("c"),
        session,
        Priority::FOREGROUND,
    )
    .unwrap();
    hist.read(now, CLIENT, session, c, &p);
    w.sim.run();

    w.net.install_faults(
        &mut w.sim,
        link,
        FaultSpec {
            drop_prob: 0.25,
            corrupt_prob: 0.05,
            dup_prob: 0.15,
            reorder_jitter: SimDuration::from_millis(30),
            ..FaultSpec::seeded(4242)
        },
    );

    for _ in 0..30 {
        let now = w.sim.now();
        let h = Client::export(
            &client,
            &mut w.sim,
            &urn("c"),
            session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        hist.write(now, CLIENT, session, c, 1, &h);
        w.sim.run_for(SimDuration::from_millis(800));
    }
    w.sim.run();

    let stats = &w.sim.stats;
    if let Err(e) = hist.check(&w, &[client]) {
        panic!(
            "{e}: {} faults, {} retransmits, {} dup replies",
            stats.counter("net.faults_injected.drop")
                + stats.counter("net.faults_injected.corrupt")
                + stats.counter("net.faults_injected.dup"),
            stats.counter("client.retransmits"),
            stats.counter("client.duplicate_replies"),
        );
    }
    assert!(
        stats.counter("net.corrupt_rejected") >= stats.counter("net.faults_injected.corrupt"),
        "every corrupted frame rejected by checksum"
    );
    assert!(
        stats.counter("client.retransmits") > 0,
        "chaos actually forced retransmissions"
    );
}
