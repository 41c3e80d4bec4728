//! E6–E8: the application benchmarks — mail, calendar, Web proxy.

use std::rc::Rc;

use rover_apps::calendar::{calendar_object, Calendar};
use rover_apps::mail::{MailReader, MailboxGen};
use rover_apps::web::{run_session, BrowseMode, BrowserProxy, WebGen};
use rover_core::{
    Client, ClientConfig, Guarantees, OpStatus, RoverError, ScriptResolver, ServerConfig, World,
};
use rover_net::LinkSpec;
use rover_sim::SimDuration;
use rover_wire::HostId;

use crate::report::Report;
use crate::table::{ms, Table};
use crate::testbed::{mean, Rig, CLIENT, SERVER};

/// E6: the mail reader — user-perceived time to work through an inbox,
/// Rover's prefetching client vs a conventional blocking client, plus
/// the disconnected compose-and-drain phase.
pub fn e6_mail(r: &mut Report) {
    const MSGS: usize = 30;
    const READS: usize = 8;
    let think = SimDuration::from_secs(15);

    let mut t = Table::new(
        "E6 — Mail reader: open inbox + read 8 messages (15 s think time between reads)",
        &[
            "network",
            "conventional wait",
            "Rover wait",
            "Rover speedup",
            "cache hits",
        ],
    )
    .note(
        "Wait = time the user stares at the screen (folder open + per-message stalls). \
         Rover prefetches message bodies in the background while the user reads.",
    );

    for spec in LinkSpec::TESTBED {
        let mut waits = Vec::new();
        let mut hits = 0u64;
        for prefetch in [false, true] {
            let mut rig = Rig::new(spec);
            let ids = MailboxGen {
                user: "alice".into(),
                folder: "inbox".into(),
                count: MSGS,
                seed: 77,
            }
            .populate(&rig.server);
            let reader = MailReader::new(&rig.client, "alice", Guarantees::ALL);

            let session = |rig: &mut Rig| -> Result<f64, RoverError> {
                let folder = reader.open_folder(&mut rig.sim, "inbox")?;
                let mut wait = rig.time_op(|_| folder);
                if prefetch {
                    reader.prefetch_messages(&mut rig.sim, "inbox", &ids)?;
                }
                for id in ids.iter().take(READS) {
                    rig.sim.run_for(think);
                    let message = reader.read_message(&mut rig.sim, "inbox", id)?;
                    wait += rig.time_op(|_| message);
                }
                Ok(wait)
            };
            waits.push(session(&mut rig).unwrap());
            if prefetch {
                hits = rig.sim.stats.counter("client.cache_hits");
            }
        }
        r.metric(format!("{}.conventional_wait_ms", spec.name), waits[0]);
        r.metric(format!("{}.rover_wait_ms", spec.name), waits[1]);
        t.row(vec![
            spec.name.into(),
            ms(waits[0]),
            ms(waits[1]),
            crate::table::ratio(waits[0] / waits[1].max(0.001)),
            format!("{hits}/{READS}"),
        ]);
    }
    r.table(&t);

    // Disconnected phase: compose on the train, drain over the modem.
    let mut t2 = Table::new(
        "E6b — Disconnected mail: compose 5 messages offline, drain on reconnect",
        &["network", "tentative latency", "drain time", "delivered"],
    );
    for spec in [
        LinkSpec::WAVELAN_2M,
        LinkSpec::CSLIP_14_4,
        LinkSpec::CSLIP_2_4,
    ] {
        let mut rig = Rig::new(spec);
        MailboxGen {
            user: "alice".into(),
            folder: "inbox".into(),
            count: 3,
            seed: 77,
        }
        .populate(&rig.server);
        let reader = MailReader::new(&rig.client, "alice", Guarantees::ALL);
        let p = reader
            .outbox_urn()
            .and_then(|urn| {
                Client::import(
                    &rig.client,
                    &mut rig.sim,
                    &urn,
                    reader.session,
                    rover_wire::Priority::NORMAL,
                )
            })
            .unwrap();
        rig.await_promise(&p);

        rig.net.set_up(&mut rig.sim, rig.link, false);
        let mut tentatives = Vec::new();
        let mut commits = Vec::new();
        for i in 0..5 {
            let t0 = rig.sim.now();
            let h = reader
                .compose(
                    &mut rig.sim,
                    &format!("m{i}"),
                    "from the train",
                    &"z".repeat(800),
                )
                .unwrap();
            rig.await_promise(&h.tentative);
            tentatives.push(rig.sim.now().since(t0).as_millis_f64());
            commits.push(h.committed);
            rig.sim.run_for(SimDuration::from_secs(5));
        }
        rig.net.set_up(&mut rig.sim, rig.link, true);
        let drain = rig.await_drain();
        let delivered = commits
            .iter()
            .filter(|p| {
                p.poll()
                    .map(|o| o.status == OpStatus::Ok || o.status == OpStatus::Resolved)
                    .unwrap_or(false)
            })
            .count();
        r.metric(format!("{}.mail_drain_ms", spec.name), drain);
        t2.row(vec![
            spec.name.into(),
            ms(mean(&tentatives)),
            ms(drain),
            format!("{delivered}/5"),
        ]);
    }
    r.table(&t2);
}

/// E7: the shared calendar — tentative vs committed latency, and the
/// disconnected double-booking experiment.
pub fn e7_calendar(r: &mut Report) {
    let mut t = Table::new(
        "E7 — Calendar: booking latency (tentative vs committed, mean of 8)",
        &["network", "tentative", "committed", "gap"],
    )
    .note("Tentative commit is what the user sees; it is local-speed on every channel.");

    for spec in LinkSpec::TESTBED {
        let mut rig = Rig::new(spec);
        rig.server.borrow_mut().put_object(calendar_object("team"));
        let cal = Calendar::new(&rig.client, "team", "alice", Guarantees::ALL);
        let p = cal.open(&mut rig.sim).unwrap();
        rig.await_promise(&p);

        let mut tent = Vec::new();
        let mut comm = Vec::new();
        for slot in 0..8 {
            let t0 = rig.sim.now();
            let h = cal.book(&mut rig.sim, slot, "meeting").unwrap();
            rig.await_promise(&h.tentative);
            tent.push(rig.sim.now().since(t0).as_millis_f64());
            rig.await_promise(&h.committed);
            comm.push(rig.sim.now().since(t0).as_millis_f64());
        }
        let (tm, cm) = (mean(&tent), mean(&comm));
        r.metric(format!("{}.tentative_ms", spec.name), tm);
        r.metric(format!("{}.committed_ms", spec.name), cm);
        t.row(vec![
            spec.name.into(),
            ms(tm),
            ms(cm),
            crate::table::ratio(cm / tm.max(0.001)),
        ]);
    }
    r.table(&t);

    // Two disconnected replicas book overlapping slots.
    let mut t2 = Table::new(
        "E7b — Two disconnected replicas, 15 bookings each over 30 slots",
        &["metric", "value"],
    )
    .note(
        "Disjoint-slot conflicts auto-resolve via the calendar's resolve proc; \
         double-bookings are reflected to exactly one loser.",
    );

    let mut w = World::new(2025);
    let (h1, h2) = (CLIENT, HostId(3));
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("calendar", Box::new(ScriptResolver::default()));
    server.borrow_mut().put_object(calendar_object("team"));

    let c1 = w.client(ClientConfig::thinkpad(h1, SERVER), LinkSpec::WAVELAN_2M);
    let c2 = w.client(ClientConfig::thinkpad(h2, SERVER), LinkSpec::WAVELAN_2M);
    let (l1, l2) = (w.links_of(h1)[0], w.links_of(h2)[0]);
    let World { mut sim, net, .. } = w;
    let alice = Calendar::new(&c1, "team", "alice", Guarantees::ALL);
    let bob = Calendar::new(&c2, "team", "bob", Guarantees::ALL);
    for cal in [&alice, &bob] {
        let p = cal.open(&mut sim).unwrap();
        sim.run();
        assert!(p.is_ready());
    }
    net.set_up(&mut sim, l1, false);
    net.set_up(&mut sim, l2, false);

    // Alice books the even slots 0..28; Bob books multiples of 3 up to
    // 27 plus 30..34 — the contested slots are 0, 6, 12, 18, 24.
    let bob_slots: Vec<u32> = (0..10).map(|i| i * 3).chain(30..35).collect();
    let mut handles = Vec::new();
    for i in 0..15u32 {
        handles.push(alice.book(&mut sim, i * 2, "alice-mtg").unwrap());
        handles.push(
            bob.book(&mut sim, bob_slots[i as usize], "bob-mtg")
                .unwrap(),
        );
        sim.run_for(SimDuration::from_secs(2));
    }
    net.set_up(&mut sim, l1, true);
    net.set_up(&mut sim, l2, true);
    sim.run();

    let mut ok = 0;
    let mut resolved = 0;
    let mut conflicts = 0;
    let mut errors = 0;
    for h in &handles {
        match h.committed.poll().map(|o| o.status) {
            Some(OpStatus::Ok) => ok += 1,
            Some(OpStatus::Resolved) => resolved += 1,
            Some(OpStatus::Conflict) => conflicts += 1,
            _ => errors += 1,
        }
    }
    let sv = server.borrow();
    let final_slots = alice
        .urn()
        .ok()
        .and_then(|urn| sv.get_object(&urn))
        .unwrap()
        .fields
        .keys()
        .filter(|k| k.starts_with("ev"))
        .count();
    t2.row(vec!["bookings issued".into(), handles.len().to_string()]);
    t2.row(vec!["committed clean (Ok)".into(), ok.to_string()]);
    t2.row(vec![
        "auto-resolved (Resolved)".into(),
        resolved.to_string(),
    ]);
    t2.row(vec!["reflected conflicts".into(), conflicts.to_string()]);
    t2.row(vec![
        "local exec errors (slot taken in own replica)".into(),
        errors.to_string(),
    ]);
    t2.row(vec![
        "slots booked at server".into(),
        final_slots.to_string(),
    ]);
    r.table(&t2);
}

/// E8: the Web browser proxy — session time and stalls per mode and
/// channel.
pub fn e8_web(r: &mut Report) {
    const CLICKS: usize = 15;
    let think = SimDuration::from_secs(30);

    let mut t = Table::new(
        "E8 — Web proxy: 15-click session, 30 s think time",
        &[
            "network",
            "browser",
            "session",
            "mean stall",
            "max stall",
            "hit rate",
        ],
    )
    .note(
        "Blocking = conventional browser; click-ahead = Rover proxy queueing; \
         +prefetch also fetches the first 3 links of each arrived page.",
    );

    for spec in [
        LinkSpec::WAVELAN_2M,
        LinkSpec::CSLIP_14_4,
        LinkSpec::CSLIP_2_4,
    ] {
        for (label, mode, prefetch) in [
            ("blocking", BrowseMode::Blocking, false),
            ("click-ahead", BrowseMode::ClickAhead, false),
            ("click-ahead+prefetch", BrowseMode::ClickAhead, true),
        ] {
            let mut rig = Rig::new(spec);
            WebGen {
                pages: 60,
                seed: 1995,
            }
            .populate(&rig.server);
            let proxy = Rc::new(BrowserProxy::new(&rig.client, prefetch));
            let stats = run_session(proxy, &mut rig.sim, "p0", CLICKS, think, mode, 7);
            rig.sim.run();
            let st = stats.borrow();
            let session = st.finished_at.expect("finished").as_secs_f64();
            let mean_stall = mean(&st.stalls_ms);
            let max_stall = st.stalls_ms.iter().copied().fold(0.0f64, f64::max);
            let hits = rig.sim.stats.counter("client.cache_hits");
            let misses = rig.sim.stats.counter("client.cache_misses");
            r.metric(format!("{}.{label}.session_s", spec.name), session);
            t.row(vec![
                spec.name.into(),
                label.into(),
                format!("{session:.0}s"),
                ms(mean_stall),
                ms(max_stall),
                format!(
                    "{:.0}%",
                    hits as f64 / (hits + misses).max(1) as f64 * 100.0
                ),
            ]);
        }
    }
    r.table(&t);
}
