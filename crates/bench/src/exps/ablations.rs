//! A1–A4: ablations of the design choices DESIGN.md calls out.

use rover_core::{Client, Guarantees, LogPolicy, StorageModel};
use rover_log::{FlushPolicy, MemStore, OpLog, RecordKind};
use rover_net::{LinkSpec, SchedMode};
use rover_sim::SimDuration;
use rover_wire::Priority;

use crate::report::Report;
use crate::table::{bytes, ms, ratio, Table};
use crate::testbed::{mean, Rig};

/// A1: the stable-log flush policy.
///
/// The paper's prototype flushes per operation and explicitly forgoes
/// group commit and fast stable storage; this ablation measures what
/// each would have bought.
pub fn a1_flush(r: &mut Report) {
    let arms: [(&str, LogPolicy, StorageModel); 4] = [
        (
            "per-op, 1995 disk (paper)",
            LogPolicy::PerOperation,
            StorageModel::LAPTOP_DISK_1995,
        ),
        (
            "per-op, Flash RAM",
            LogPolicy::PerOperation,
            StorageModel::FLASH_RAM,
        ),
        (
            "group commit (8 / 100 ms), disk",
            LogPolicy::GroupCommit {
                n: 8,
                timeout: SimDuration::from_millis(100),
            },
            StorageModel::LAPTOP_DISK_1995,
        ),
        (
            "no log (unsafe)",
            LogPolicy::None,
            StorageModel::LAPTOP_DISK_1995,
        ),
    ];

    let mut t = Table::new(
        "A1 — Log flush policy: null-QRPC latency, interactive vs burst (Ethernet-10M)",
        &[
            "policy",
            "interactive (1-at-a-time)",
            "burst of 24 (per op)",
            "CSLIP-14.4K interactive",
        ],
    )
    .note(
        "On Ethernet the 15 ms disk flush dominates the RPC; on dial-up the channel \
         dwarfs it (paper finding #2). Group commit trades interactive latency (it \
         waits to fill a group) for burst throughput; Flash RAM removes the cost.",
    );

    for (label, policy, storage) in arms {
        // Interactive: one op at a time.
        let inter = |spec: LinkSpec| {
            let mut rig = Rig::with_config(spec, |c| {
                c.log_policy = policy;
                c.storage = storage;
            });
            let xs: Vec<f64> = (0..20)
                .map(|_| {
                    rig.time_op(|r| {
                        Client::ping(&r.client, &mut r.sim, r.session, Priority::FOREGROUND)
                    })
                })
                .collect();
            mean(&xs)
        };
        // Burst: 24 ops issued together; report completion time / 24.
        let burst = {
            let mut rig = Rig::with_config(LinkSpec::ETHERNET_10M, |c| {
                c.log_policy = policy;
                c.storage = storage;
            });
            let t0 = rig.sim.now();
            let ps: Vec<_> = (0..24)
                .map(|_| Client::ping(&rig.client, &mut rig.sim, rig.session, Priority::FOREGROUND))
                .collect();
            for p in &ps {
                rig.await_promise(p);
            }
            rig.sim.now().since(t0).as_millis_f64() / 24.0
        };
        let (eth, cslip) = (inter(LinkSpec::ETHERNET_10M), inter(LinkSpec::CSLIP_14_4));
        r.metric(format!("{label}.ethernet_interactive_ms"), eth);
        r.metric(format!("{label}.burst_per_op_ms"), burst);
        t.row(vec![label.to_string(), ms(eth), ms(burst), ms(cslip)]);
    }
    r.table(&t);
}

/// A2: log compression (the paper's prototype "does not perform any
/// compression on the log").
pub fn a2_compress(r: &mut Report) {
    // Representative queued-mail payloads: text-heavy QRPC bodies.
    let mut gen = rover_apps::workload::TextGen::new(5);
    let payloads: Vec<Vec<u8>> = (0..100)
        .map(|_| {
            let n = gen.mail_size().min(4000);
            gen.text(n).into_bytes()
        })
        .collect();

    let mut plain = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).unwrap();
    let mut compressed = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, true).unwrap();
    for p in &payloads {
        plain.append(RecordKind::Request, p.clone()).unwrap();
        compressed.append(RecordKind::Request, p.clone()).unwrap();
    }
    plain.flush().unwrap();
    compressed.flush().unwrap();

    let raw: usize = payloads.iter().map(Vec::len).sum();
    let mut t = Table::new(
        "A2 — Stable-log compression (100 queued mail-body records)",
        &["configuration", "device bytes", "vs raw"],
    )
    .note(
        "LZSS on log records shrinks the stable log (and its flush time) by ~2x on \
         text payloads — the improvement the paper left on the table.",
    );
    t.row(vec![
        "raw payload bytes".into(),
        bytes(raw as u64),
        "1.0x".into(),
    ]);
    t.row(vec![
        "log, uncompressed (paper)".into(),
        bytes(plain.device_len()),
        ratio(raw as f64 / plain.device_len() as f64),
    ]);
    r.metric(
        "lzss_ratio_vs_raw",
        raw as f64 / compressed.device_len() as f64,
    );
    t.row(vec![
        "log, LZSS".into(),
        bytes(compressed.device_len()),
        ratio(raw as f64 / compressed.device_len() as f64),
    ]);
    r.table(&t);
}

/// A3: the network scheduler's priority queues vs FIFO on a busy slow
/// link (the paper's channel-use optimization).
pub fn a3_priority(r: &mut Report) {
    let mut t = Table::new(
        "A3 — Scheduler discipline on CSLIP-14.4K: foreground latency under bulk load",
        &[
            "discipline",
            "mean foreground ping",
            "max foreground ping",
            "bulk total",
        ],
    )
    .note(
        "Five 40 KiB bulk imports are queued, then a foreground ping is issued every \
         10 s. Priority queues (with packet fragmentation) let pings preempt; FIFO \
         makes them wait out the bulk queue.",
    );

    for (label, mode) in [
        ("priority (Rover)", SchedMode::Priority),
        ("FIFO", SchedMode::Fifo),
    ] {
        let mut rig = Rig::with_configs(
            LinkSpec::CSLIP_14_4,
            |c| c.sched_mode = mode,
            |s| s.sched_mode = mode,
        );
        let urns: Vec<_> = (0..5)
            .map(|i| rig.put_blob(&format!("bulk{i}"), 40 << 10))
            .collect();
        let t0 = rig.sim.now();
        let bulk: Vec<_> = urns
            .iter()
            .map(|u| {
                Client::import(&rig.client, &mut rig.sim, u, rig.session, Priority::BULK)
                    .expect("session")
            })
            .collect();

        let mut fg = Vec::new();
        for _ in 0..8 {
            rig.sim.run_for(SimDuration::from_secs(10));
            fg.push(
                rig.time_op(|r| {
                    Client::ping(&r.client, &mut r.sim, r.session, Priority::FOREGROUND)
                }),
            );
        }
        for p in &bulk {
            rig.await_promise(p);
        }
        let bulk_total = rig.sim.now().since(t0).as_millis_f64();
        let max_fg = fg.iter().copied().fold(0.0f64, f64::max);
        r.metric(format!("{label}.mean_fg_ping_ms"), mean(&fg));
        t.row(vec![
            label.into(),
            ms(mean(&fg)),
            ms(max_fg),
            ms(bulk_total),
        ]);
    }
    r.table(&t);
}

/// A6: transport fragmentation — what packetization buys priority
/// scheduling on a slow link.
pub fn a6_fragmentation(r: &mut Report) {
    let mut t = Table::new(
        "A6 — Fragmentation on CSLIP-14.4K: foreground latency behind one 40 KiB bulk transfer",
        &["transport", "mean foreground ping", "max foreground ping"],
    )
    .note(
        "Without fragmentation a foreground request waits out whatever whole message is \
         on the wire (up to the full transfer); with MTU-sized packets it preempts at \
         the next packet boundary.",
    );

    for (label, mtu) in [
        ("fragmented (1460 B, Rover)", rover_net::DEFAULT_MTU),
        ("whole messages", usize::MAX),
    ] {
        let mut rig = Rig::with_configs(LinkSpec::CSLIP_14_4, |c| c.mtu = mtu, |s| s.mtu = mtu);
        let urns: Vec<_> = (0..2)
            .map(|i| rig.put_blob(&format!("bulk{i}"), 40 << 10))
            .collect();
        let bulk: Vec<_> = urns
            .iter()
            .map(|u| {
                Client::import(&rig.client, &mut rig.sim, u, rig.session, Priority::BULK)
                    .expect("session")
            })
            .collect();
        let mut fg = Vec::new();
        for _ in 0..6 {
            rig.sim.run_for(SimDuration::from_secs(8));
            fg.push(
                rig.time_op(|r| {
                    Client::ping(&r.client, &mut r.sim, r.session, Priority::FOREGROUND)
                }),
            );
        }
        for p in &bulk {
            rig.await_promise(p);
        }
        let max_fg = fg.iter().copied().fold(0.0f64, f64::max);
        r.metric(format!("{label}.max_fg_ping_ms"), max_fg);
        t.row(vec![label.into(), ms(mean(&fg)), ms(max_fg)]);
    }
    r.table(&t);
}

/// A5: server callbacks — the paper's option for shrinking the
/// stale-read window, versus its cost in callback traffic.
pub fn a5_callbacks(r: &mut Report) {
    use rover_core::{Client, ClientConfig, ReexecuteResolver, ServerConfig, Urn, World};
    use rover_wire::HostId;

    let mut t = Table::new(
        "A5 — Server callbacks: reader staleness while a writer updates (WaveLAN)",
        &[
            "configuration",
            "fresh reads",
            "stale reads",
            "callbacks sent",
        ],
    )
    .note(
        "A writer commits 10 updates; after each, a reader imports. Without callbacks \
         every re-read is served stale from cache (the paper's vulnerability window); \
         with callbacks each commit invalidates the reader's copy, forcing a refetch.",
    );

    for callbacks in [false, true] {
        let mut world = World::new(31);
        let (w, rd, sv_host) = (HostId(1), HostId(3), HostId(2));
        let mut scfg = ServerConfig::workstation(sv_host);
        scfg.callbacks = callbacks;
        let server = world.server(scfg);
        server
            .borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        let urn = Urn::parse("urn:rover:bench/shared").unwrap();
        world.put_counter(&urn, 0);

        let writer = world.client(ClientConfig::thinkpad(w, sv_host), LinkSpec::WAVELAN_2M);
        let reader = world.client(ClientConfig::thinkpad(rd, sv_host), LinkSpec::WAVELAN_2M);
        let World { mut sim, .. } = world;
        let ws = Client::create_session(&writer, rover_core::Guarantees::ALL, true);
        let rs = Client::create_session(&reader, rover_core::Guarantees::NONE, false);
        for (c, s) in [(&writer, ws), (&reader, rs)] {
            let p = Client::import(c, &mut sim, &urn, s, Priority::FOREGROUND).unwrap();
            sim.run();
            assert!(p.is_ready());
        }

        let mut fresh = 0;
        let mut stale = 0;
        for k in 1..=10 {
            let h = Client::export(&writer, &mut sim, &urn, ws, "add", &["1"], Priority::NORMAL)
                .unwrap();
            sim.run();
            assert!(h.committed.is_ready());
            let p = Client::import(&reader, &mut sim, &urn, rs, Priority::FOREGROUND).unwrap();
            sim.run();
            let o = p.poll().unwrap();
            let n: i64 = o
                .object
                .as_ref()
                .and_then(|ob| ob.field("n"))
                .and_then(|v| v.parse().ok())
                .unwrap_or(-1);
            if n == k {
                fresh += 1;
            } else {
                stale += 1;
            }
        }
        t.row(vec![
            if callbacks {
                "callbacks on"
            } else {
                "callbacks off (paper default)"
            }
            .into(),
            format!("{fresh}/10"),
            format!("{stale}/10"),
            sim.stats.counter("server.callbacks_sent").to_string(),
        ]);
    }
    r.table(&t);
}

/// A4: session guarantees — what they cost and what they buy.
pub fn a4_consistency(r: &mut Report) {
    // Cost: committed-export latency with all guarantees vs none.
    let mut t = Table::new(
        "A4 — Session guarantees: export commit latency (10 ops, CSLIP-14.4K)",
        &["session", "mean commit", "reads seeing own writes"],
    )
    .note(
        "Ordered writes add per-session sequencing but no measurable latency on a \
         single client; Read-Your-Writes is what makes disconnected reads coherent.",
    );

    for (label, guarantees, accept_tentative) in [
        ("all guarantees (Rover)", Guarantees::ALL, true),
        ("no guarantees", Guarantees::NONE, false),
    ] {
        let mut rig = Rig::new(LinkSpec::CSLIP_14_4);
        let urn = rig.put_counter();
        let session = Client::create_session(&rig.client, guarantees, accept_tentative);
        let p = Client::import(
            &rig.client,
            &mut rig.sim,
            &urn,
            session,
            Priority::FOREGROUND,
        )
        .expect("session");
        rig.await_promise(&p);

        // Connected phase: commit latency.
        let mut commits = Vec::new();
        for _ in 0..10 {
            let t0 = rig.sim.now();
            let h = Client::export(
                &rig.client,
                &mut rig.sim,
                &urn,
                session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .expect("cached");
            rig.await_promise(&h.committed);
            commits.push(rig.sim.now().since(t0).as_millis_f64());
        }

        // Disconnected phase: does an import after an export reflect it?
        rig.net.set_up(&mut rig.sim, rig.link, false);
        let mut seen_own = 0;
        const TRIALS: usize = 10;
        for k in 0..TRIALS {
            let _ = Client::export(
                &rig.client,
                &mut rig.sim,
                &urn,
                session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .expect("cached");
            rig.sim.run_for(SimDuration::from_secs(1));
            let p = Client::import(
                &rig.client,
                &mut rig.sim,
                &urn,
                session,
                Priority::FOREGROUND,
            )
            .expect("session");
            rig.sim.run_for(SimDuration::from_secs(1));
            if let Some(o) = p.poll() {
                let expect = (10 + k + 1).to_string();
                if o.object.as_ref().and_then(|ob| ob.field("n")) == Some(expect.as_str()) {
                    seen_own += 1;
                }
            }
        }
        r.metric(format!("{label}.mean_commit_ms"), mean(&commits));
        t.row(vec![
            label.into(),
            ms(mean(&commits)),
            format!("{seen_own}/{TRIALS}"),
        ]);
    }
    r.table(&t);
}
