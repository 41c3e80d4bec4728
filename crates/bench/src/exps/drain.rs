//! E9: reconnection drain — the queued log empties in channel time.

use rover_core::Client;
use rover_net::LinkSpec;
use rover_sim::SimDuration;
use rover_wire::Priority;

use crate::report::Report;
use crate::table::{ms, Table};
use crate::testbed::Rig;

fn drain_once(spec: LinkSpec, n: usize) -> (f64, bool) {
    let mut rig = Rig::new(spec);
    let urn = rig.put_counter();
    let p = Client::import(
        &rig.client,
        &mut rig.sim,
        &urn,
        rig.session,
        Priority::FOREGROUND,
    )
    .expect("session");
    rig.await_promise(&p);

    rig.net.set_up(&mut rig.sim, rig.link, false);
    for _ in 0..n {
        Client::export(
            &rig.client,
            &mut rig.sim,
            &urn,
            rig.session,
            "add",
            &["1"],
            Priority::BULK,
        )
        .expect("cached");
        rig.sim.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(Client::outstanding_count(&rig.client), n);

    rig.net.set_up(&mut rig.sim, rig.link, true);
    let drain = rig.await_drain();
    let correct = rig
        .server
        .borrow()
        .get_object(&urn)
        .map(|o| o.field("n") == Some(n.to_string().as_str()))
        .unwrap_or(false)
        && Client::outstanding_count(&rig.client) == 0;
    (drain, correct)
}

/// E9: drain time after reconnection, by channel and queue depth.
pub fn e9_drain(r: &mut Report) {
    let mut t = Table::new(
        "E9a — Drain 25 queued QRPCs on reconnection, by channel",
        &["network", "drain time", "exactly-once"],
    )
    .note("Drain includes dial-up connection setup where the channel has one.");
    for spec in LinkSpec::TESTBED {
        let (drain, correct) = drain_once(spec, 25);
        r.metric(format!("{}.drain25_ms", spec.name), drain);
        t.row(vec![
            spec.name.into(),
            ms(drain),
            if correct { "yes" } else { "NO" }.into(),
        ]);
    }
    r.table(&t);

    let mut t2 = Table::new(
        "E9b — Drain time vs queue depth (CSLIP-14.4K)",
        &["queued QRPCs", "drain time", "per-op"],
    )
    .note("Linear in depth once the fixed dial-up setup is amortized.");
    for n in [5usize, 10, 25, 50] {
        let (drain, correct) = drain_once(LinkSpec::CSLIP_14_4, n);
        assert!(correct, "exactly-once violated at n={n}");
        r.metric(format!("cslip14_4.drain{n}_ms"), drain);
        t2.row(vec![n.to_string(), ms(drain), ms(drain / n as f64)]);
    }
    r.table(&t2);
}
