//! Chaos-plane integration tests: retransmission backoff with a retry
//! budget, graceful give-up, and at-most-once execution under seeded
//! link faults with dedup-eviction pressure.

use std::cell::RefCell;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, ClientEvent, Guarantees, OpStatus, Priority, ReexecuteResolver,
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
    w.put_counter(&urn("c"), 0);

    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.rto = SimDuration::from_secs(5);
    cfg.rto_max = SimDuration::from_secs(80);
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
            drop_prob: 0.25,
            corrupt_prob: 0.05,
            dup_prob: 0.15,
            reorder_jitter: SimDuration::from_millis(30),
            ..FaultSpec::seeded(4242)
        },
    );

    let mut handles = Vec::new();
    for _ in 0..30 {
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
        sim.run_for(SimDuration::from_millis(800));
    }
    sim.run();

    assert!(
        handles.iter().all(|h| h.committed.is_ready()),
        "all exports decided"
    );
    assert_eq!(
        server.borrow().get_object(&urn("c")).unwrap().field("n"),
        Some("30"),
        "exactly-once: {} faults, {} retransmits, {} dup replies",
        sim.stats.counter("net.faults_injected.drop")
            + sim.stats.counter("net.faults_injected.corrupt")
            + sim.stats.counter("net.faults_injected.dup"),
        sim.stats.counter("client.retransmits"),
        sim.stats.counter("client.duplicate_replies"),
    );
    assert_eq!(
        sim.stats.counter("server.dedup_miss_reexec"),
        0,
        "no evicted-entry re-execution"
    );
    assert!(
        sim.stats.counter("net.corrupt_rejected")
            >= sim.stats.counter("net.faults_injected.corrupt"),
        "every corrupted frame rejected by checksum"
    );
    assert!(
        sim.stats.counter("client.retransmits") > 0,
        "chaos actually forced retransmissions"
    );
}
