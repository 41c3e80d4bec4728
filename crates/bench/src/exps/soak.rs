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
//! Invariants checked per seed:
//!
//! - **zero lost committed ops**: the server counter equals the number
//!   of exports issued (every `add 1` applied exactly once);
//! - **zero duplicate executions**: `server.dedup_miss_reexec == 0`
//!   (no request re-executed because its dedup entry was evicted);
//! - **no corrupted frame delivered**: every corruption injected on the
//!   wire was caught by the checksum (`net.corrupt_rejected >=
//!   net.faults_injected.corrupt`; a corrupted *and* duplicated message
//!   is rejected once per copy);
//! - **quiescence**: no outstanding QRPCs and empty client logs after
//!   convergence;
//! - **every promise decided**: each export's committed promise
//!   resolved `Ok`/`Resolved` (budgetless clients never give up).
//!
//! With `server_crashes > 0` the server runs with a write-ahead commit
//! log attached and is power-failed at evenly spaced round boundaries
//! mid-traffic, rebooting from checkpoint + log replay after a fixed
//! outage. Two durability invariants join the list:
//!
//! - **every replied commit survives recovery**: any export whose
//!   promise resolved is still in the server's executed set after the
//!   final restart (`Server::executed_contains`);
//! - **recovery actually replayed**: `server.recovered_commits > 0`
//!   across the run (the crashes were not no-ops).

use rover_core::{
    Client, ClientConfig, ClientRef, Guarantees, ReexecuteResolver, Server, ServerConfig, Urn,
    World,
};
use rover_log::MemStore;
use rover_net::{FaultSpec, FlapSpec, LinkSpec};
use rover_sim::SimDuration;
use rover_wire::{HostId, OpStatus, Priority, SessionId};

use super::{input_rejected, scaled_summary};
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

/// Measured result of one converged soak run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Seed the run used.
    pub seed: u64,
    /// Total exports issued (clients × ops_per_client).
    pub ops: u64,
    /// Final value of the shared server counter.
    pub final_n: u64,
    /// Exports whose committed promise resolved `Ok`/`Resolved`.
    pub committed: u64,
    /// `server.dedup_miss_reexec` — must be zero.
    pub reexecs: u64,
    /// Faults injected on the wire (drop + corrupt + dup + jitter).
    pub faults: u64,
    /// Corrupted frames rejected by the receive-path checksum.
    pub corrupt_rejected: u64,
    /// Corruptions injected at the sender side.
    pub corrupt_injected: u64,
    /// Client retransmissions across the run.
    pub retransmits: u64,
    /// Virtual time to convergence, in milliseconds.
    pub converged_ms: u64,
    /// Server crash/restart cycles that actually fired.
    pub server_crashes: u64,
    /// Commit records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Checkpoints written (attach + periodic).
    pub checkpoints: u64,
    /// Commit records replayed across all recoveries.
    pub recovered_commits: u64,
    /// Torn tail bytes discarded across all recoveries.
    pub recovery_truncated_tail: u64,
    /// Mean recovery scan time across restarts, in microseconds
    /// (virtual time; 0 when the server never crashed).
    pub recovery_us_mean: u64,
    /// Group flushes performed (`server.group_commits`; one per commit
    /// under the per-operation policy).
    pub group_commits: u64,
    /// Mean commits per group flush x100 (100 = one per flush).
    pub group_batch_mean_x100: u64,
    /// Median commits per group flush x100.
    pub group_batch_p50_x100: u64,
    /// 99th-percentile commits per group flush x100.
    pub group_batch_p99_x100: u64,
    /// Replies that rode an earlier reply's coalesced envelope.
    pub reply_coalesced: u64,
    /// Mean staged-to-durable wait per commit, in microseconds (under
    /// the per-operation policy, the flush itself).
    pub flush_wait_us_mean: u64,
    /// Median staged-to-durable wait, microseconds.
    pub flush_wait_us_p50: u64,
    /// 99th-percentile staged-to-durable wait, microseconds.
    pub flush_wait_us_p99: u64,
    /// Median server queue depth sampled at every admission x100
    /// (staged commits + ordered-write and writes-follow-reads holds).
    pub qdepth_p50_x100: u64,
    /// 99th-percentile server queue depth at admission x100.
    pub qdepth_p99_x100: u64,
    /// Adversarial-input rejections summed across the codec planes
    /// (`wire.decode_rejected.*` + `log.scan_rejected.*` +
    /// `script.parse_rejected`).
    pub input_rejected: u64,
    /// Order-insensitive fingerprint of final state + stats; equal
    /// digests mean byte-identical runs.
    pub digest: u64,
}

const SERVER: HostId = HostId(1);

fn client_host(i: usize) -> HostId {
    HostId(10 + i as u32)
}

/// Runs one seeded soak to convergence; `Err` describes the first
/// violated invariant.
pub fn run_seed(cfg: SoakConfig) -> Result<SoakOutcome, String> {
    let mut w = World::new(cfg.seed);
    let mut scfg = ServerConfig::workstation(SERVER);
    if cfg.group_commit {
        scfg.commit = rover_core::CommitPolicy::Group {
            max_batch: 8,
            window: SimDuration::from_millis(50),
        };
    }
    let server = w.server(scfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    let urn = Urn::parse("urn:rover:soak/counter").expect("valid urn");
    w.put_counter(&urn, 0);
    if cfg.server_crashes > 0 || cfg.group_commit {
        // Durable mode: the initial checkpoint snapshots the counter
        // object, and every commit hits the log before its reply.
        Server::attach_wal(&server, &mut w.sim, Box::new(MemStore::new()))
            .map_err(|e| format!("seed {}: attach_wal failed: {e:?}", cfg.seed))?;
    }

    let mut clients: Vec<(ClientRef, SessionId)> = Vec::new();
    for i in 0..cfg.clients {
        let host = client_host(i);
        let mut ccfg = ClientConfig::thinkpad(host, SERVER);
        // Soak-friendly retransmission curve: probe fast, back off to a
        // cap well inside the run, never give up.
        ccfg.rto = SimDuration::from_secs(10);
        ccfg.rto_max = SimDuration::from_secs(160);
        let client = w.client(ccfg, LinkSpec::WAVELAN_2M);
        let session = Client::create_session(&client, Guarantees::ALL, true);
        clients.push((client, session));
    }
    let links = w.links_of(SERVER);
    let World { mut sim, net, .. } = w;

    // Warm every cache over a clean channel, then unleash the chaos.
    for (client, session) in &clients {
        let p = Client::import(client, &mut sim, &urn, *session, Priority::FOREGROUND)
            .map_err(|e| format!("seed {}: import failed: {e:?}", cfg.seed))?;
        sim.run();
        if p.poll().map(|o| o.status) != Some(OpStatus::Ok) {
            return Err(format!(
                "seed {}: warm-up import did not resolve Ok",
                cfg.seed
            ));
        }
    }
    for (i, &link) in links.iter().enumerate() {
        net.install_faults(
            &mut sim,
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
    // back from the write-ahead device after a fixed outage (shorter
    // than the clients' backed-off retransmission probes, so retries
    // land on the recovered incarnation).
    let crash_rounds: std::collections::BTreeSet<usize> = (1..=cfg.server_crashes)
        .map(|k| ((k * cfg.ops_per_client) / (cfg.server_crashes + 1)).max(1))
        .collect();
    let outage = SimDuration::from_secs(12);

    // Issue exports round-robin with think time, chaos running the
    // whole while.
    let t0 = sim.now();
    let mut handles = Vec::new();
    for round in 0..cfg.ops_per_client {
        if crash_rounds.contains(&round) {
            Server::crash_now(&server, &mut sim);
            let sv = server.clone();
            sim.schedule_after(outage, move |sim| {
                Server::crash_restart(&sv, sim).expect("soak crash_restart");
            });
        }
        for (host, (client, session)) in clients.iter().enumerate() {
            let h = Client::export(
                client,
                &mut sim,
                &urn,
                *session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .map_err(|e| format!("seed {}: export failed: {e:?}", cfg.seed))?;
            handles.push((client_host(host), h));
            sim.run_for(SimDuration::from_millis(400));
        }
    }

    // Drive to quiescence: every queued QRPC decided. `sim.run()` also
    // plays out the tail of each flap schedule.
    let deadline = sim.now() + SimDuration::from_secs(48 * 3600);
    while clients
        .iter()
        .any(|(c, _)| Client::outstanding_count(c) > 0)
    {
        if !sim.step() || sim.now() > deadline {
            return Err(format!(
                "seed {}: did not converge (t = {}, outstanding = {:?})",
                cfg.seed,
                sim.now(),
                clients
                    .iter()
                    .map(|(c, _)| Client::outstanding_count(c))
                    .collect::<Vec<_>>()
            ));
        }
    }
    let converged_ms = sim.now().since(t0).as_millis_f64() as u64;
    sim.run(); // Drain remaining flap/background events.

    let ops = (cfg.clients * cfg.ops_per_client) as u64;
    let final_n: u64 = server
        .borrow()
        .get_object(&urn)
        .and_then(|o| o.field("n").and_then(|v| v.parse().ok()))
        .unwrap_or(0);
    let committed = handles
        .iter()
        .filter(|(_, h)| {
            matches!(
                h.committed.poll().map(|o| o.status),
                Some(OpStatus::Ok) | Some(OpStatus::Resolved)
            )
        })
        .count() as u64;
    let reexecs = sim.stats.counter("server.dedup_miss_reexec");
    let crashes = sim.stats.counter("server.crashes");
    let wal_appends = sim.stats.counter("server.wal_appends");
    let checkpoints = sim.stats.counter("server.checkpoints");
    let recovered_commits = sim.stats.counter("server.recovered_commits");
    let recovery_truncated_tail = sim.stats.counter("server.recovery_truncated_tail");
    let [recovery_us_mean, ..] = scaled_summary(&sim.stats, "server.recovery_ms", 1000.0, 0);
    let group_commits = sim.stats.counter("server.group_commits");
    let [group_batch_mean_x100, group_batch_p50_x100, group_batch_p99_x100] =
        scaled_summary(&sim.stats, "server.group_commit_batch_size", 100.0, 100);
    let reply_coalesced = sim.stats.counter("server.reply_coalesced");
    let [flush_wait_us_mean, flush_wait_us_p50, flush_wait_us_p99] =
        scaled_summary(&sim.stats, "server.flush_wait_ms", 1000.0, 0);
    let [_, qdepth_p50_x100, qdepth_p99_x100] =
        scaled_summary(&sim.stats, "server.qdepth", 100.0, 0);
    let corrupt_injected = sim.stats.counter("net.faults_injected.corrupt");
    let corrupt_rejected = sim.stats.counter("net.corrupt_rejected");
    let faults = corrupt_injected
        + sim.stats.counter("net.faults_injected.drop")
        + sim.stats.counter("net.faults_injected.dup")
        + sim.stats.counter("net.faults_injected.jitter");
    let retransmits = sim.stats.counter("client.retransmits");
    let input_rejected = input_rejected(&sim.stats);

    // Convergence invariants.
    if final_n != ops {
        return Err(format!(
            "seed {}: lost or duplicated ops: server n = {final_n}, issued = {ops}",
            cfg.seed
        ));
    }
    if committed != ops {
        return Err(format!(
            "seed {}: {committed}/{ops} exports resolved Ok/Resolved",
            cfg.seed
        ));
    }
    if reexecs != 0 {
        return Err(format!(
            "seed {}: {reexecs} dedup-miss re-executions (at-most-once violated)",
            cfg.seed
        ));
    }
    // Every injected corruption is caught at least once; a corrupted
    // message that was *also* duplicated is rejected twice (both copies
    // carry the flipped bit), so rejections can exceed injections.
    if corrupt_rejected < corrupt_injected {
        return Err(format!(
            "seed {}: {corrupt_injected} corruptions injected but only {corrupt_rejected} rejected",
            cfg.seed
        ));
    }
    for (client, _) in &clients {
        if Client::log_len(client) != 0 {
            return Err(format!(
                "seed {}: client log not empty after convergence",
                cfg.seed
            ));
        }
    }

    // Durability invariants (crash mode only).
    if cfg.server_crashes > 0 {
        if crashes != crash_rounds.len() as u64 {
            return Err(format!(
                "seed {}: scheduled {} crashes but {crashes} fired",
                cfg.seed,
                crash_rounds.len()
            ));
        }
        if recovered_commits == 0 {
            return Err(format!(
                "seed {}: crashes fired but recovery replayed nothing",
                cfg.seed
            ));
        }
        let s = server.borrow();
        for (host, h) in &handles {
            if !s.executed_contains(*host, h.req) {
                return Err(format!(
                    "seed {}: replied commit {:?} from {host:?} lost by recovery",
                    cfg.seed, h.req
                ));
            }
        }
    }

    // Group-commit invariants (group mode only).
    if cfg.group_commit {
        if group_commits == 0 {
            return Err(format!(
                "seed {}: group commit enabled but no group ever flushed",
                cfg.seed
            ));
        }
        if wal_appends < ops {
            return Err(format!(
                "seed {}: only {wal_appends} WAL commit records for {ops} exports",
                cfg.seed
            ));
        }
    }

    let digest = super::fnv_digest([
        cfg.seed,
        ops,
        final_n,
        committed,
        reexecs,
        faults,
        corrupt_rejected,
        retransmits,
        converged_ms,
        crashes,
        wal_appends,
        checkpoints,
        recovered_commits,
        recovery_truncated_tail,
        recovery_us_mean,
        group_commits,
        group_batch_mean_x100,
        group_batch_p50_x100,
        group_batch_p99_x100,
        reply_coalesced,
        flush_wait_us_mean,
        flush_wait_us_p50,
        flush_wait_us_p99,
        qdepth_p50_x100,
        qdepth_p99_x100,
        input_rejected,
    ]);

    Ok(SoakOutcome {
        seed: cfg.seed,
        ops,
        final_n,
        committed,
        reexecs,
        faults,
        corrupt_rejected,
        corrupt_injected,
        retransmits,
        converged_ms,
        server_crashes: crashes,
        wal_appends,
        checkpoints,
        recovered_commits,
        recovery_truncated_tail,
        recovery_us_mean,
        group_commits,
        group_batch_mean_x100,
        group_batch_p50_x100,
        group_batch_p99_x100,
        reply_coalesced,
        flush_wait_us_mean,
        flush_wait_us_p50,
        flush_wait_us_p99,
        qdepth_p50_x100,
        qdepth_p99_x100,
        input_rejected,
        digest,
    })
}

/// Runs a range of seeds and renders the per-seed table; `Err` on the
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
        let mut row = vec![
            o.seed.to_string(),
            o.ops.to_string(),
            o.final_n.to_string(),
            o.faults.to_string(),
            o.corrupt_rejected.to_string(),
            o.input_rejected.to_string(),
            o.retransmits.to_string(),
            o.reexecs.to_string(),
            format!("{:.1} s", o.converged_ms as f64 / 1000.0),
        ];
        if server_crashes > 0 {
            row.extend([
                o.server_crashes.to_string(),
                o.wal_appends.to_string(),
                o.checkpoints.to_string(),
                o.recovered_commits.to_string(),
                o.recovery_truncated_tail.to_string(),
                format!("{:.1} ms", o.recovery_us_mean as f64 / 1000.0),
            ]);
        }
        if group_commit {
            row.extend([
                o.group_commits.to_string(),
                format!("{:.2}", o.group_batch_mean_x100 as f64 / 100.0),
                o.reply_coalesced.to_string(),
                format!("{:.1} ms", o.flush_wait_us_mean as f64 / 1000.0),
            ]);
        }
        t.row(row);
        r.metric(
            format!("soak.seed{}.converge_ms", o.seed),
            o.converged_ms as f64,
        );
        r.metric(format!("soak.seed{}.faults", o.seed), o.faults as f64);
        r.metric(
            format!("soak.seed{}.qdepth_p50", o.seed),
            o.qdepth_p50_x100 as f64 / 100.0,
        );
        r.metric(
            format!("soak.seed{}.qdepth_p99", o.seed),
            o.qdepth_p99_x100 as f64 / 100.0,
        );
        if server_crashes > 0 {
            r.metric(
                format!("soak.seed{}.wal_appends", o.seed),
                o.wal_appends as f64,
            );
            r.metric(
                format!("soak.seed{}.recovered_commits", o.seed),
                o.recovered_commits as f64,
            );
            r.metric(
                format!("soak.seed{}.recovery_ms", o.seed),
                o.recovery_us_mean as f64 / 1000.0,
            );
        }
        if group_commit {
            r.metric(
                format!("soak.seed{}.group_commits", o.seed),
                o.group_commits as f64,
            );
            r.metric(
                format!("soak.seed{}.mean_batch", o.seed),
                o.group_batch_mean_x100 as f64 / 100.0,
            );
            r.metric(
                format!("soak.seed{}.reply_coalesced", o.seed),
                o.reply_coalesced as f64,
            );
            r.metric(
                format!("soak.seed{}.flush_wait_ms", o.seed),
                o.flush_wait_us_mean as f64 / 1000.0,
            );
            r.metric(
                format!("soak.seed{}.flush_wait_p50_ms", o.seed),
                o.flush_wait_us_p50 as f64 / 1000.0,
            );
            r.metric(
                format!("soak.seed{}.flush_wait_p99_ms", o.seed),
                o.flush_wait_us_p99 as f64 / 1000.0,
            );
            r.metric(
                format!("soak.seed{}.batch_p50", o.seed),
                o.group_batch_p50_x100 as f64 / 100.0,
            );
            r.metric(
                format!("soak.seed{}.batch_p99", o.seed),
                o.group_batch_p99_x100 as f64 / 100.0,
            );
        }
        outs.push(o);
    }
    r.table(&t);
    Ok((r, outs))
}
