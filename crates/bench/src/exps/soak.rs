//! Chaos-plane convergence soak: N clients hammer one shared object
//! over flapping, lossy, corrupting, duplicating links, and the run is
//! driven to quiescence and checked against the exactly-once
//! invariants.
//!
//! Every source of adversity is seeded (`FaultSpec`'s private per-link
//! RNG), so a soak is byte-reproducible: the same seed yields the same
//! fault schedule, the same retransmissions, and the same final state —
//! which the CI smoke run and `tests/soak.rs` assert.
//!
//! Every import and export is recorded in a [`rover_core::History`],
//! and the run ends with its one check of the toolkit's contract:
//! every promise decided `Ok`/`Resolved` (budgetless clients never
//! give up), the counter applied every `add 1` exactly once with no
//! dedup-miss re-execution, the session guarantees, every replied
//! commit in the server's executed set — after the final restart, in
//! crash mode — and empty client logs. The soak's own checks:
//!
//! - **no corrupted frame delivered**: every corruption injected on the
//!   wire was caught by the checksum (`net.corrupt_rejected >=
//!   net.faults_injected.corrupt`; a corrupted *and* duplicated message
//!   is rejected once per copy);
//! - **quiescence**: no outstanding QRPCs after convergence.
//!
//! With `server_crashes > 0` the server runs with a write-ahead commit
//! log attached and is power-failed at evenly spaced round boundaries
//! mid-traffic, rebooting from checkpoint + log replay after a fixed
//! outage (a failed reboot fails the seed). Every scheduled crash must
//! fire, and recovery must actually replay (`server.recovered_commits >
//! 0` across the run: the crashes were not no-ops).

use rover_core::{Client, ClientConfig, CommitPolicy, Server, ServerConfig, Summary, Urn};
use rover_net::{FaultSpec, FlapSpec, LinkSpec};
use rover_sim::SimDuration;
use rover_wire::HostId;

use super::run::{
    client_host, hundredths, outcome, restart_after, scaled_summary, thousandths, Actor, Readout,
    Run,
};
use crate::report::Report;
use crate::table::Table;

/// Parameters of one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Master seed: drives the simulator RNG and every link's fault RNG.
    pub seed: u64,
    /// Number of mobile clients sharing the object.
    pub clients: usize,
    /// Exports issued per client.
    pub ops_per_client: usize,
    /// Server crash/restart cycles scheduled mid-traffic (0 = the
    /// server never fails and no write-ahead log is attached).
    pub server_crashes: usize,
    /// Run the server's commit path with batches of 8 (batched WAL
    /// flushes + coalesced replies) instead of groups of one.
    /// Implies a write-ahead log even when `server_crashes == 0`.
    pub group_commit: bool,
}

impl SoakConfig {
    /// The full-size soak: 5 clients × 100 ops = 500 ops per seed.
    pub fn full(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            clients: 5,
            ops_per_client: 100,
            server_crashes: 0,
            group_commit: false,
        }
    }

    /// The CI smoke size: 3 clients × 20 ops = 60 ops per seed.
    pub fn smoke(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            clients: 3,
            ops_per_client: 20,
            server_crashes: 0,
            group_commit: false,
        }
    }

    /// Adds `n` scheduled server crash/restart cycles.
    pub fn with_server_crashes(mut self, n: usize) -> SoakConfig {
        self.server_crashes = n;
        self
    }

    /// Switches the server to the group-commit engine
    /// ([`CommitPolicy::Group`], batch 8 / 50 ms window — sized for the
    /// soak's modest concurrency).
    pub fn with_group_commit(mut self) -> SoakConfig {
        self.group_commit = true;
        self
    }
}

outcome! {
    /// Measured result of one converged soak run.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SoakOutcome {
        /// Seed the run used.
        seed,
        /// Total exports issued (clients × ops_per_client).
        ops,
        /// Final value of the shared server counter.
        final_n,
        /// Exports whose committed promise resolved `Ok`/`Resolved`.
        committed,
        /// `server.dedup_miss_reexec`, from the history check: zero.
        reexecs,
        /// Faults injected on the wire (drop + corrupt + dup + jitter).
        faults,
        /// Corrupted frames rejected by the receive-path checksum.
        corrupt_rejected,
        /// Client retransmissions across the run.
        retransmits,
        /// Virtual time to convergence, in milliseconds.
        converged_ms,
        /// Server crash/restart cycles that actually fired.
        server_crashes,
        /// Commit records appended to the write-ahead log.
        wal_appends,
        /// Checkpoints written (attach + periodic).
        checkpoints,
        /// Commit records replayed across all recoveries.
        recovered_commits,
        /// Torn tail bytes discarded across all recoveries.
        recovery_truncated_tail,
        /// Mean recovery scan time across restarts, in microseconds
        /// (virtual time; 0 when the server never crashed).
        recovery_us_mean,
        /// Group flushes performed (`server.group_commits`; one per commit
        /// under the per-operation policy).
        group_commits,
        /// Mean commits per group flush x100 (100 = one per flush).
        group_batch_mean_x100,
        /// Median commits per group flush x100.
        group_batch_p50_x100,
        /// 99th-percentile commits per group flush x100.
        group_batch_p99_x100,
        /// Replies that rode an earlier reply's coalesced envelope.
        reply_coalesced,
        /// Mean staged-to-durable wait per commit, in microseconds (under
        /// the per-operation policy, the flush itself).
        flush_wait_us_mean,
        /// Median staged-to-durable wait, microseconds.
        flush_wait_us_p50,
        /// 99th-percentile staged-to-durable wait, microseconds.
        flush_wait_us_p99,
        /// Median server queue depth sampled at every admission x100
        /// (staged commits + ordered-write and writes-follow-reads holds).
        qdepth_p50_x100,
        /// 99th-percentile server queue depth at admission x100.
        qdepth_p99_x100,
        /// Adversarial-input rejections summed across the codec planes
        /// (`wire.decode_rejected.*` + `log.scan_rejected.*` +
        /// `script.parse_rejected`).
        input_rejected,
    }
}

const SERVER: HostId = HostId(1);

/// Runs one seeded soak to convergence; `Err` describes the first
/// violated invariant.
pub fn run_seed(cfg: SoakConfig) -> Result<SoakOutcome, String> {
    let mut run = Run::new(cfg.seed);
    let mut scfg = ServerConfig::workstation(SERVER);
    if cfg.group_commit {
        scfg.commit = CommitPolicy::Group {
            max_batch: 8,
            window: SimDuration::from_millis(50),
        };
    }
    let server = run.counter_server(scfg);
    let urn = Urn::parse("urn:rover:soak/counter").expect("valid urn");
    let obj = run
        .hist
        .borrow_mut()
        .put_counter(&run.w, &urn, 0)
        .ok_or("no server homes the counter")?;
    if cfg.server_crashes > 0 || cfg.group_commit {
        run.attach_wal(&server)?;
    }
    let clients: Vec<Actor> = (0..cfg.clients)
        .map(|i| {
            let mut ccfg = ClientConfig::thinkpad(client_host(i), SERVER);
            // Soak-friendly retransmission curve: probe fast, back off
            // to a cap well inside the run, never give up.
            ccfg.rto = SimDuration::from_secs(10);
            ccfg.rto_max = SimDuration::from_secs(160);
            Actor::new(run.w.client(ccfg, LinkSpec::WAVELAN_2M))
        })
        .collect();

    // Warm every cache over a clean channel, then unleash the chaos.
    for a in &clients {
        a.read(&mut run.w.sim, &run.hist, obj, &urn)
            .map_err(|e| run.err(e))?;
        run.w.sim.run();
    }
    for (i, link) in run.w.links_of(SERVER).into_iter().enumerate() {
        run.w.net.install_faults(
            &mut run.w.sim,
            link,
            FaultSpec {
                drop_prob: 0.05,
                corrupt_prob: 0.01,
                dup_prob: 0.02,
                reorder_jitter: SimDuration::from_millis(40),
                flap: Some(FlapSpec {
                    up_for: SimDuration::from_secs(45),
                    down_for: SimDuration::from_secs(8),
                    cycles: 40,
                }),
                ..FaultSpec::seeded(cfg.seed.wrapping_mul(1000).wrapping_add(i as u64))
            },
        );
    }

    // Power failures at evenly spaced round boundaries: crash now, come
    // back from the write-ahead device after a fixed outage. Exports go
    // out round-robin with think time, chaos running the whole while.
    let crash_rounds: std::collections::BTreeSet<usize> = (1..=cfg.server_crashes)
        .map(|k| ((k * cfg.ops_per_client) / (cfg.server_crashes + 1)).max(1))
        .collect();
    let t0 = run.w.sim.now();
    for round in 0..cfg.ops_per_client {
        if crash_rounds.contains(&round) {
            Server::crash_now(&server, &mut run.w.sim);
            restart_after(&mut run.w.sim, &server, &run.error, |_| {});
        }
        for a in &clients {
            a.add(&mut run.w.sim, &run.hist, obj, &urn)
                .map_err(|e| run.err(e))?;
            run.w.sim.run_for(SimDuration::from_millis(400));
        }
    }

    // Drive to quiescence: every queued QRPC decided. The finish also
    // plays out the tail of each flap schedule.
    let outstanding = || clients.iter().map(|a| Client::outstanding_count(&a.cl));
    run.drive(
        SimDuration::from_secs(48 * 3600),
        || outstanding().all(|n| n == 0),
        || format!("outstanding = {:?}", outstanding().collect::<Vec<_>>()),
    )?;
    let converged_ms = run.w.sim.now().since(t0).as_millis_f64() as u64;
    let summary = run.finish(&clients)?;
    read_out(
        &run,
        &cfg,
        &summary,
        obj,
        converged_ms,
        crash_rounds.len() as u64,
    )
}

/// Reads a converged run's figures and holds it to the chaos soak's own
/// invariants.
fn read_out(
    run: &Run,
    cfg: &SoakConfig,
    summary: &Summary,
    obj: usize,
    converged_ms: u64,
    crashes: u64,
) -> Result<SoakOutcome, String> {
    let stats = &run.w.sim.stats;
    let common = Readout::of(stats);
    let [recovery_us_mean, ..] = scaled_summary(stats, "server.recovery_ms", 1000.0, 0);
    let corrupt_injected = stats.counter("net.faults_injected.corrupt");
    let ops = (cfg.clients * cfg.ops_per_client) as u64;
    let o = SoakOutcome {
        seed: cfg.seed,
        ops,
        final_n: summary.totals[obj] as u64,
        committed: summary.committed,
        reexecs: summary.reexecs,
        faults: corrupt_injected
            + stats.counter("net.faults_injected.drop")
            + stats.counter("net.faults_injected.dup")
            + stats.counter("net.faults_injected.jitter"),
        corrupt_rejected: stats.counter("net.corrupt_rejected"),
        retransmits: common.retransmits,
        converged_ms,
        server_crashes: common.crashes,
        wal_appends: common.wal_appends,
        checkpoints: stats.counter("server.checkpoints"),
        recovered_commits: stats.counter("server.recovered_commits"),
        recovery_truncated_tail: stats.counter("server.recovery_truncated_tail"),
        recovery_us_mean,
        group_commits: common.group_commits,
        group_batch_mean_x100: common.batch_x100[0],
        group_batch_p50_x100: common.batch_x100[1],
        group_batch_p99_x100: common.batch_x100[2],
        reply_coalesced: common.reply_coalesced,
        flush_wait_us_mean: common.flush_wait_us[0],
        flush_wait_us_p50: common.flush_wait_us[1],
        flush_wait_us_p99: common.flush_wait_us[2],
        qdepth_p50_x100: common.qdepth_x100[0],
        qdepth_p99_x100: common.qdepth_x100[1],
        input_rejected: common.input_rejected,
        digest: 0,
    }
    .with_digest();

    // Every injected corruption is caught at least once; a corrupted
    // message that was *also* duplicated is rejected twice (both copies
    // carry the flipped bit), so rejections can exceed injections.
    let n = o.corrupt_rejected;
    if n < corrupt_injected {
        return Err(run.err(format!(
            "{corrupt_injected} corruptions injected but only {n} rejected"
        )));
    }
    // Durability invariants (crash mode only).
    let n = o.server_crashes;
    if cfg.server_crashes > 0 && n != crashes {
        return Err(run.err(format!("scheduled {crashes} crashes but {n} fired")));
    }
    if cfg.server_crashes > 0 && o.recovered_commits == 0 {
        return Err(run.err("crashes fired but recovery replayed nothing"));
    }
    // Group-commit invariants (group mode only).
    if cfg.group_commit && o.group_commits == 0 {
        return Err(run.err("group commit enabled but no group ever flushed"));
    }
    if cfg.group_commit && o.wal_appends < ops {
        let n = o.wal_appends;
        return Err(run.err(format!("only {n} WAL commit records for {ops} exports")));
    }
    Ok(o)
}

/// Runs a range of seeds and renders the per-seed table (the report
/// holds no metrics: `rover-bench soak` prints the table); `Err` on the
/// first invariant violation. `server_crashes > 0` adds the durability
/// plane (write-ahead log + scheduled power failures) and its columns;
/// `group_commit` runs the server's group-commit engine and adds its
/// columns.
pub fn run_seeds(
    seeds: impl IntoIterator<Item = u64>,
    smoke: bool,
    server_crashes: usize,
    group_commit: bool,
) -> Result<(Report, Vec<SoakOutcome>), String> {
    let mut r = Report::new("soak");
    let title = if smoke {
        "Soak — chaos convergence (smoke: 3 clients × 20 ops per seed)"
    } else {
        "Soak — chaos convergence (5 clients × 100 ops per seed)"
    };
    let mut cols = vec![
        "seed", "ops", "final n", "faults", "crc rej", "inp rej", "rexmit", "reexec", "converge",
    ];
    if server_crashes > 0 {
        cols.extend(["crash", "wal", "ckpt", "replay", "torn B", "recov"]);
    }
    if group_commit {
        cols.extend(["gflush", "batch", "coal", "fwait"]);
    }
    let mut note = if server_crashes > 0 {
        format!(
            "Flapping link, 5% drop, 1% corruption, 2% duplication, 40 ms jitter; \
             {server_crashes} server power failure(s) per seed, 12 s outage each."
        )
    } else {
        "Flapping link, 5% drop, 1% corruption, 2% duplication, 40 ms jitter.".to_owned()
    };
    if group_commit {
        note.push_str(" Group commit: batch 8 / 50 ms window, coalesced replies.");
    }
    let mut t = Table::new(title, &cols).note(&note);
    let mut outs = Vec::new();
    for seed in seeds {
        let mut cfg = if smoke {
            SoakConfig::smoke(seed)
        } else {
            SoakConfig::full(seed)
        }
        .with_server_crashes(server_crashes);
        if group_commit {
            cfg = cfg.with_group_commit();
        }
        let o = run_seed(cfg)?;
        let ms = |us| format!("{:.1} ms", thousandths(us));
        let mut row = vec![
            o.seed.to_string(),
            o.ops.to_string(),
            o.final_n.to_string(),
            o.faults.to_string(),
            o.corrupt_rejected.to_string(),
            o.input_rejected.to_string(),
            o.retransmits.to_string(),
            o.reexecs.to_string(),
            format!("{:.1} s", thousandths(o.converged_ms)),
        ];
        if server_crashes > 0 {
            row.extend([
                o.server_crashes.to_string(),
                o.wal_appends.to_string(),
                o.checkpoints.to_string(),
                o.recovered_commits.to_string(),
                o.recovery_truncated_tail.to_string(),
                ms(o.recovery_us_mean),
            ]);
        }
        if group_commit {
            row.extend([
                o.group_commits.to_string(),
                format!("{:.2}", hundredths(o.group_batch_mean_x100)),
                o.reply_coalesced.to_string(),
                ms(o.flush_wait_us_mean),
            ]);
        }
        t.row(row);
        outs.push(o);
    }
    r.table(&t);
    Ok((r, outs))
}
