//! Scale soak: thousands of clients hammer the home-server federation
//! and the group-commit engine is measured against the per-operation
//! flush baseline — on one server or across `N` URN-partitioned shards.
//!
//! Where the chaos soak (`soak.rs`) stresses *correctness* under lossy
//! links, the scale soak stresses *throughput*: clean links, zipf-skewed
//! object access over a fixed object population, bursty arrivals with a
//! mix of open-loop (fixed think time) and closed-loop (next export
//! chained on the previous commit) clients, and three link classes.
//! Every run reports server-side throughput — commits/s, p50/p99 reply
//! latency, WAL bytes/s, mean group-commit batch size — and ends with
//! the same [`rover_core::History`] check the chaos soak runs over
//! every import and export: every promise decided, every counter
//! counted each `add 1` exactly once with no dedup-miss re-execution,
//! the session guarantees, every replied commit in some shard's
//! executed set, and empty client logs. The same seed yields the same
//! digest.
//!
//! With `shards > 1` the URN space is hash-partitioned across
//! `shards` independent servers (own WAL, own CPU/disk timeline, own
//! group-commit engine each; see [`rover_core::ShardMap`]), every
//! object lives on exactly one shard, and every ~64th client becomes a
//! *cross-shard verifier*: one session spanning two shards that
//! alternates exports between them and re-reads after every commit, so
//! the history check covers monotonic reads and writes-follow-reads
//! across the federation. `shard_crashes > 0` adds shard-kill chaos:
//! each shard is power-failed independently at scripted commit
//! ordinals and rebooted from its own write-ahead device (a failed
//! reboot fails the run), while the check above must still hold. `shards == 1` reproduces the single-server soak
//! byte-for-byte (same draws, same event order, same digest).
//!
//! [`run_pair`] runs both commit policies on the same seed and checks
//! the headline acceptance gate: with the 1995 server disk model, group
//! commit must sustain at least 5x the per-operation commits/s once the
//! client population is large enough for batching to matter.
//! [`s2_shard_scaling`] charts the federation: aggregate group-commit
//! throughput at 1/2/4/8 shards and 10k clients, with an 8-shard
//! >= 3x single-shard gate.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rover_core::{
    Client, ClientConfig, ClientRef, CommitPolicy, CrashPoint, Guarantees, History, Outcome,
    Rebalancer, ReexecuteResolver, Server, ServerConfig, ServerEvent, ServerRef, ShardMap, Urn,
    World,
};
use rover_log::MemStore;
use rover_net::LinkSpec;
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{HostId, OpStatus, Priority, SessionId};

use super::{input_rejected, scaled_summary};
use crate::report::Report;
use crate::table::Table;

/// Objects in the store; zipf-skewed assignment concentrates most
/// clients on the head of this population.
const NOBJ: usize = 64;
/// Zipf exponent for the object-popularity distribution.
const ZIPF_S: f64 = 1.0;

const SERVER: HostId = HostId(1);

/// Shard hosts occupy `HostId(1)..=HostId(MAX_SHARDS)`; clients start
/// at `HostId(10)`.
pub const MAX_SHARDS: usize = 8;

/// Arrival bursts the population is split into, and the gap between
/// consecutive bursts.
const BURSTS: usize = 16;
const BURST_GAP: SimDuration = SimDuration::from_millis(100);
/// Open-loop inter-export think time (closed-loop clients chain on the
/// previous commit instead).
const THINK: SimDuration = SimDuration::from_millis(10);

/// Every Nth client of a sharded run becomes a cross-shard verifier
/// (one session spanning two shards, re-reading after every commit).
const VERIFIER_EVERY: usize = 64;

/// Parameters of one scale-soak arm.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Master seed (simulator RNG + the zipf/arrival draw).
    pub seed: u64,
    /// Client population.
    pub clients: usize,
    /// Exports issued per client.
    pub ops_per_client: usize,
    /// Server commit policy under test.
    pub policy: CommitPolicy,
    /// Home-server shards the URN space is hash-partitioned across
    /// (1 = the classic single-server soak, byte-identical to the
    /// unsharded runs).
    pub shards: usize,
    /// Power-failure/reboot cycles scheduled per shard at scripted
    /// commit ordinals (0 = no chaos). Requires `shards >= 1`; each
    /// shard crashes and recovers independently.
    pub shard_crashes: usize,
    /// Objects in the store (the zipf population). The default
    /// [`NOBJ`] keeps every historical digest byte-identical; the
    /// hot-balance arms widen it so the head object's traffic share
    /// leaves head-room below the imbalance gate.
    pub objects: usize,
    /// Per-shard hot-set replication factor K: each epoch every shard
    /// publishes its K hottest home objects to every peer as
    /// version-stamped volatile read replicas (0 = replication off,
    /// the byte-identical historical behavior).
    pub replicate_hot: usize,
    /// Interval between commit-load rebalancer ticks; each tick may
    /// re-home one persistently hot object via a migration pin
    /// (`None` = rebalancing off).
    pub rebalance_every: Option<SimDuration>,
}

/// The group policy both the CLI and the `s1-scale` experiment measure:
/// flush at 64 staged commits or 20 ms after the first, whichever is
/// first.
pub const GROUP_POLICY: CommitPolicy = CommitPolicy::Group {
    max_batch: 64,
    window: SimDuration::from_millis(20),
};

impl ScaleConfig {
    /// A per-operation-flush arm (a group of one) at the given
    /// population.
    pub fn new(seed: u64, clients: usize, ops_per_client: usize) -> ScaleConfig {
        ScaleConfig {
            seed,
            clients,
            ops_per_client,
            policy: CommitPolicy::PER_OPERATION,
            shards: 1,
            shard_crashes: 0,
            objects: NOBJ,
            replicate_hot: 0,
            rebalance_every: None,
        }
    }

    /// Swaps in a commit policy.
    pub fn with_policy(mut self, policy: CommitPolicy) -> ScaleConfig {
        self.policy = policy;
        self
    }

    /// Partitions the URN space across `n` home-server shards.
    pub fn with_shards(mut self, n: usize) -> ScaleConfig {
        self.shards = n;
        self
    }

    /// Schedules `n` power-failure/reboot cycles per shard.
    pub fn with_shard_crashes(mut self, n: usize) -> ScaleConfig {
        self.shard_crashes = n;
        self
    }

    /// Widens the zipf object population to `n` objects.
    pub fn with_objects(mut self, n: usize) -> ScaleConfig {
        self.objects = n;
        self
    }

    /// Turns on hot-set read replication with factor `k`.
    pub fn with_replication(mut self, k: usize) -> ScaleConfig {
        self.replicate_hot = k;
        self
    }

    /// Turns on commit-load rebalancing every `every`.
    pub fn with_rebalancing(mut self, every: SimDuration) -> ScaleConfig {
        self.rebalance_every = Some(every);
        self
    }

    /// Whether this arm runs the dynamic load-balancing plane
    /// (replication and/or rebalancing across a real federation).
    fn dynamic(&self) -> bool {
        self.shards > 1 && (self.replicate_hot > 0 || self.rebalance_every.is_some())
    }
}

/// Measured result of one converged scale arm. All fields are integers
/// so equal digests mean byte-identical runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// Seed the arm used.
    pub seed: u64,
    /// Client population.
    pub clients: u64,
    /// Home-server shards the run federated across.
    pub shards: u64,
    /// Exports issued (clients x ops_per_client).
    pub ops: u64,
    /// Exports whose committed promise resolved `Ok`/`Resolved`.
    pub committed: u64,
    /// Sum of the final object counters — must equal `ops`.
    pub final_total: u64,
    /// `server.dedup_miss_reexec`, from the history check: zero.
    pub reexecs: u64,
    /// First export to last commit, in virtual milliseconds.
    pub duration_ms: u64,
    /// Commit records appended across every shard's write-ahead log.
    pub wal_appends: u64,
    /// Framed bytes forced to the WAL devices (all shards).
    pub wal_flush_bytes: u64,
    /// Group flushes (`server.group_commits`; one per commit on the
    /// per-op arm).
    pub group_commits: u64,
    /// Mean commits per flush x100 (100 = one per flush, per-op).
    pub batch_mean_x100: u64,
    /// Median commits per flush x100.
    pub batch_p50_x100: u64,
    /// 99th-percentile commits per flush x100.
    pub batch_p99_x100: u64,
    /// Mean staged-to-durable wait in microseconds (on the per-op arm,
    /// the flush itself plus any queue on the disk).
    pub flush_wait_us_mean: u64,
    /// Median staged-to-durable wait, microseconds.
    pub flush_wait_us_p50: u64,
    /// 99th-percentile staged-to-durable wait, microseconds.
    pub flush_wait_us_p99: u64,
    /// Replies that rode an earlier reply's envelope.
    pub reply_coalesced: u64,
    /// Median export reply latency (issue to committed), microseconds.
    pub p50_reply_us: u64,
    /// 99th-percentile export reply latency, microseconds.
    pub p99_reply_us: u64,
    /// Client retransmissions (clean links without chaos: expected 0).
    pub retransmits: u64,
    /// Shard power failures that fired (scripted chaos).
    pub crashes: u64,
    /// Cross-shard requests whose carried read-vector was checked at
    /// admission (`server.wfr_checked`; 0 when `shards == 1`).
    pub wfr_checked: u64,
    /// Requests the writes-follow-reads gate held for a lagging local
    /// object version (only possible under shard-kill chaos).
    pub wfr_holds: u64,
    /// max/mean exports per shard x100 (100 = perfectly balanced;
    /// always 100 at one shard), from the *static* URN assignment —
    /// the skew the load-balancing plane starts from.
    pub imbalance_x100: u64,
    /// max/mean commits *actually executed* per shard x100 — with the
    /// load-balancing plane off this tracks `imbalance_x100`; with it
    /// on it is the realized post-balancing skew.
    pub measured_imbalance_x100: u64,
    /// Median of the windowed (250 ms) commit-load imbalance samples
    /// x100 (100 when a window never completed).
    pub imbalance_p50_x100: u64,
    /// 99th-percentile windowed commit-load imbalance x100.
    pub imbalance_p99_x100: u64,
    /// Median server queue depth sampled at every admission x100.
    pub qdepth_p50_x100: u64,
    /// 99th-percentile server queue depth at admission x100.
    pub qdepth_p99_x100: u64,
    /// Imports served from a peer's volatile replica instead of the
    /// home store (`server.replica_reads`).
    pub replica_reads: u64,
    /// Replica images published across all epochs
    /// (`server.replicas_published`).
    pub replicas_published: u64,
    /// Hot objects re-homed by the rebalancer (`server.migrated_out`).
    pub migrations: u64,
    /// Requests the client re-routed after a `WrongShard` answer or a
    /// stale replica read (`client.redirects`).
    pub redirects: u64,
    /// Adversarial-input rejections summed across the codec planes
    /// (`wire.decode_rejected.*` + `log.scan_rejected.*` +
    /// `script.parse_rejected`).
    pub input_rejected: u64,
    /// Exports routed to each shard (index = shard).
    pub shard_ops: Vec<u64>,
    /// Final write-ahead device size per shard, bytes.
    pub shard_wal_bytes: Vec<u64>,
    /// Order-insensitive FNV fingerprint of everything above.
    pub digest: u64,
}

impl ScaleOutcome {
    /// Aggregate throughput in commits per virtual second.
    pub fn commits_per_s(&self) -> f64 {
        self.ops as f64 / (self.duration_ms.max(1) as f64 / 1000.0)
    }

    /// Aggregate WAL device bandwidth in bytes per virtual second.
    pub fn wal_bytes_per_s(&self) -> f64 {
        self.wal_flush_bytes as f64 / (self.duration_ms.max(1) as f64 / 1000.0)
    }
}

/// splitmix64: the deterministic draw behind zipf picks and arrival
/// jitter (independent of the simulator RNG so both arms of a seed see
/// the same workload).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from one splitmix output.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative zipf(s) distribution over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    for x in &mut w {
        acc += *x / total;
        *x = acc;
    }
    w
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn client_host(i: usize) -> HostId {
    HostId(10 + i as u32)
}

/// The three link classes, assigned round-robin: office ethernet,
/// in-building wireless, and a dial-up modem.
fn link_class(i: usize) -> LinkSpec {
    match i % 3 {
        0 => LinkSpec::ETHERNET_10M,
        1 => LinkSpec::WAVELAN_2M,
        _ => LinkSpec::CSLIP_14_4,
    }
}

/// Deterministic per-client workload draws, consumed from the shared
/// splitmix stream in the exact order the single-server soak always
/// drew them (object pick first, arrival jitter second) — so `shards
/// == 1` replays the identical workload byte-for-byte.
struct Draws {
    /// Object index per client.
    obj: Vec<usize>,
    /// Arrival jitter in microseconds per client.
    jitter_us: Vec<u64>,
}

fn draw_workload(cfg: &ScaleConfig, cdf: &[f64]) -> Draws {
    let mut draw = cfg.seed ^ 0xC0FF_EE00_5CA1_E5A7;
    let mut obj = Vec::with_capacity(cfg.clients);
    let mut jitter_us = Vec::with_capacity(cfg.clients);
    for _ in 0..cfg.clients {
        obj.push(zipf_pick(cdf, unit(splitmix(&mut draw))));
        jitter_us.push(splitmix(&mut draw) % 40_000);
    }
    Draws { obj, jitter_us }
}

/// Is client `i` a cross-shard verifier in this configuration?
fn is_verifier(cfg: &ScaleConfig, i: usize) -> bool {
    cfg.shards > 1 && i.is_multiple_of(VERIFIER_EVERY)
}

/// Picks each verifier's *secondary* object — one homed on a different
/// shard than its primary — from a splitmix stream separate from the
/// main workload draw (so verifiers never perturb the shared stream).
fn draw_secondaries(
    cfg: &ScaleConfig,
    draws: &Draws,
    urns: &[Urn],
    map: &ShardMap,
    cdf: &[f64],
) -> HashMap<usize, usize> {
    let mut vdraw = cfg.seed ^ 0x5EED_CAFE_D00D_F00D;
    let mut out = HashMap::new();
    for i in 0..cfg.clients {
        if !is_verifier(cfg, i) {
            continue;
        }
        let home = map.shard_for(urns[draws.obj[i]].as_str());
        let mut pick = None;
        for _ in 0..16 {
            let cand = zipf_pick(cdf, unit(splitmix(&mut vdraw)));
            if map.shard_for(urns[cand].as_str()) != home {
                pick = Some(cand);
                break;
            }
        }
        let pick =
            pick.or_else(|| (0..urns.len()).find(|&k| map.shard_for(urns[k].as_str()) != home));
        if let Some(p) = pick {
            out.insert(i, p);
        }
    }
    out
}

/// Per-run mutable state shared by every client's callbacks.
struct Shared {
    done: Cell<u64>,
    last_done: Cell<SimTime>,
    /// The object population; steps name objects by position.
    urns: Vec<Urn>,
    /// Every counter, read and write of the run, for the oracle.
    hist: RefCell<History>,
    /// The first error a step or a driver hit.
    error: RefCell<Option<String>>,
}

impl Shared {
    /// Keeps `e` unless an earlier error is already kept.
    fn fail(&self, e: String) {
        self.error.borrow_mut().get_or_insert(e);
    }
}

/// Exports `add 1` to object `obj` and records it; once it commits,
/// counts the commit and runs `then`. An issue error is recorded in
/// `st.error` instead.
fn export_step(
    sim: &mut Sim,
    cl: &ClientRef,
    obj: usize,
    session: SessionId,
    host: HostId,
    st: &Rc<Shared>,
    then: impl FnOnce(&mut Sim, &Outcome) + 'static,
) {
    let urn = &st.urns[obj];
    let h = match Client::export(cl, sim, urn, session, "add", &["1"], Priority::NORMAL) {
        Ok(h) => h,
        Err(e) => return st.fail(format!("export failed: {e:?}")),
    };
    st.hist
        .borrow_mut()
        .write(sim.now(), host, session, obj, 1, &h);
    let st = st.clone();
    h.committed.on_ready(sim, move |sim, o| {
        st.done.set(st.done.get() + 1);
        st.last_done.set(sim.now());
        then(sim, o);
    });
}

/// Imports object `obj` at foreground priority and records it; once it
/// resolves Ok, runs `then`. An issue error or a non-Ok outcome is
/// recorded in `st.error` instead.
fn import_step(
    sim: &mut Sim,
    cl: &ClientRef,
    obj: usize,
    session: SessionId,
    host: HostId,
    st: &Rc<Shared>,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    let p = match Client::import(cl, sim, &st.urns[obj], session, Priority::FOREGROUND) {
        Ok(p) => p,
        Err(e) => return st.fail(format!("import failed: {e:?}")),
    };
    st.hist.borrow_mut().read(sim.now(), host, session, obj, &p);
    let st = st.clone();
    p.on_ready(sim, move |sim, o| {
        if o.status != OpStatus::Ok {
            return st.fail(format!("import resolved {:?}", o.status));
        }
        then(sim);
    });
}

/// Closed-loop driver: each commit triggers the next export.
fn chain_exports(
    sim: &mut Sim,
    cl: ClientRef,
    obj: usize,
    session: SessionId,
    host: HostId,
    left: usize,
    st: Rc<Shared>,
) {
    if left == 0 {
        return;
    }
    let (cl2, st2) = (cl.clone(), st.clone());
    export_step(sim, &cl2, obj, session, host, &st2, move |sim, _| {
        chain_exports(sim, cl, obj, session, host, left - 1, st);
    });
}

/// One cross-shard verifier step: export to the step's target shard,
/// then re-read the object. Steps alternate between the verifier's two
/// objects (homed on different shards), so every export carries a
/// writes-follow-reads read-vector for its destination, and the oracle
/// checks each re-read against the session's floor.
#[allow(clippy::too_many_arguments)]
fn verifier_step(
    sim: &mut Sim,
    cl: ClientRef,
    pair: (usize, usize),
    session: SessionId,
    host: HostId,
    j: usize,
    ops: usize,
    st: Rc<Shared>,
) {
    if j == ops {
        return;
    }
    let target = if j.is_multiple_of(2) { pair.0 } else { pair.1 };
    let (cl2, st2) = (cl.clone(), st.clone());
    export_step(sim, &cl2, target, session, host, &st2, move |sim, _| {
        let (cl2, st2) = (cl.clone(), st.clone());
        import_step(sim, &cl2, target, session, host, &st2, move |sim| {
            verifier_step(sim, cl, pair, session, host, j + 1, ops, st);
        });
    });
}

/// Schedules the scripted power failures for one shard: crash at evenly
/// spaced lifetime commit ordinals, reboot from the shard's write-ahead
/// device after a fixed outage, then arm the next crash. A failed
/// recovery is recorded in `st.error`. Returns how many crashes were
/// scheduled (distinct ordinals).
fn script_shard_chaos(
    server: &ServerRef,
    crashes: usize,
    expected_ops: u64,
    st: &Rc<Shared>,
) -> u64 {
    if crashes == 0 || expected_ops == 0 {
        return 0;
    }
    let ords: Vec<u64> = (1..=crashes)
        .map(|k| ((k as u64 * expected_ops) / (crashes as u64 + 1)).max(1))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let outage = SimDuration::from_secs(12);
    server
        .borrow_mut()
        .script_crash(ords[0], CrashPoint::AfterAppend);
    let next = Rc::new(Cell::new(1usize));
    let (sv, st) = (server.clone(), st.clone());
    let scheduled = ords.len() as u64;
    Server::on_event(server, move |sim, ev| {
        if let ServerEvent::Crashed { .. } = ev {
            let (sv, ords, next, st) = (sv.clone(), ords.clone(), next.clone(), st.clone());
            sim.schedule_after(outage, move |sim| {
                if let Err(e) = Server::crash_restart(&sv, sim) {
                    return st.fail(format!("shard crash_restart failed: {e:?}"));
                }
                let i = next.get();
                if i < ords.len() {
                    next.set(i + 1);
                    sv.borrow_mut()
                        .script_crash(ords[i], CrashPoint::AfterAppend);
                }
            });
        }
    });
    scheduled
}

/// Window between commit-load imbalance monitor samples.
const MONITOR_EVERY: SimDuration = SimDuration::from_millis(250);
/// Replication epoch: hot-set decay + top-K replica publication.
const REPL_EPOCH: SimDuration = SimDuration::from_millis(100);

/// Windowed commit-load imbalance monitor: each tick samples max/mean
/// of the per-shard commit deltas since the previous tick into the
/// `scale.imbalance_window` series. Read-only — scheduling it never
/// changes what any run does, only what gets sampled.
fn monitor_tick(
    sim: &mut Sim,
    servers: Rc<Vec<ServerRef>>,
    st: Rc<Shared>,
    last: Rc<RefCell<Vec<u64>>>,
    total: u64,
) {
    let counts: Vec<u64> = servers.iter().map(|s| s.borrow().commit_count()).collect();
    {
        let mut prev = last.borrow_mut();
        let deltas: Vec<u64> = counts
            .iter()
            .zip(prev.iter())
            .map(|(c, p)| c.saturating_sub(*p))
            .collect();
        let sum: u64 = deltas.iter().sum();
        if sum > 0 {
            let max = deltas.iter().copied().max().unwrap_or(0);
            let mean = sum as f64 / deltas.len() as f64;
            sim.stats
                .sample("scale.imbalance_window", max as f64 / mean);
        }
        *prev = counts;
    }
    if st.done.get() >= total {
        return;
    }
    sim.schedule_after(MONITOR_EVERY, move |sim| {
        monitor_tick(sim, servers, st, last, total)
    });
}

/// Replication epoch driver: folds and decays every shard's hot-set
/// tracker and publishes each shard's K hottest home objects to all
/// peers as version-stamped volatile replicas.
fn replication_tick(sim: &mut Sim, servers: Rc<Vec<ServerRef>>, st: Rc<Shared>, total: u64) {
    for sv in servers.iter() {
        Server::replication_epoch(sv, sim);
    }
    if st.done.get() >= total {
        return;
    }
    sim.schedule_after(REPL_EPOCH, move |sim| {
        replication_tick(sim, servers, st, total)
    });
}

/// Rebalance driver: one commit-load decision per tick. A proposed
/// migration runs synchronously inside this callback — routing pin,
/// WAL tombstone at the source, WAL install at the target — so no
/// client event can ever observe a half-moved object.
fn rebalance_tick(
    sim: &mut Sim,
    servers: Rc<Vec<ServerRef>>,
    map: ShardMap,
    rb: Rc<RefCell<Rebalancer>>,
    st: Rc<Shared>,
    total: u64,
    every: SimDuration,
) {
    let loads: Vec<u64> = servers.iter().map(|s| s.borrow().commit_count()).collect();
    let hottest: Vec<Vec<(String, u64)>> =
        servers.iter().map(|s| s.borrow().hot_home_top()).collect();
    let mv = rb.borrow_mut().tick(&loads, &hottest);
    if let Some(mv) = mv {
        let target_up = !servers[mv.to].borrow().is_crashed();
        if let (true, Ok(urn)) = (target_up, Urn::parse(&mv.urn)) {
            // Pin first: anything the drain gate re-admits at the
            // source answers WrongShard instead of executing against
            // the gutted store.
            map.migrate_prefix(&mv.urn, mv.to);
            match Server::migrate_out(&servers[mv.from], sim, &urn) {
                Some(obj) => {
                    if !Server::install_migrated(&servers[mv.to], sim, obj.clone()) {
                        // Target died under us: un-pin and re-install
                        // at the source (its WAL replays tombstone
                        // then install, in order).
                        map.migrate_prefix(&mv.urn, mv.from);
                        Server::install_migrated(&servers[mv.from], sim, obj);
                    }
                }
                None => map.migrate_prefix(&mv.urn, mv.from),
            }
        }
    }
    if st.done.get() >= total {
        return;
    }
    sim.schedule_after(every, move |sim| {
        rebalance_tick(sim, servers, map, rb, st, total, every)
    });
}

/// Runs one scale arm to quiescence; `Err` describes the first violated
/// invariant.
pub fn run_scale(cfg: ScaleConfig) -> Result<ScaleOutcome, String> {
    let total_ops = (cfg.clients * cfg.ops_per_client) as u64;
    let shards = cfg.shards.max(1);
    if shards > MAX_SHARDS {
        return Err(format!(
            "at most {MAX_SHARDS} shards (host ids 1..={MAX_SHARDS})"
        ));
    }
    let dynamic = cfg.dynamic();
    let mut w = World::new(cfg.seed);
    let shard_hosts: Vec<HostId> = (0..shards).map(|s| HostId(SERVER.0 + s as u32)).collect();
    let map = if dynamic {
        ShardMap::new(shard_hosts.clone()).with_dynamic()
    } else {
        ShardMap::new(shard_hosts.clone())
    };

    let mut servers: Vec<ServerRef> = Vec::with_capacity(shards);
    for (idx, &host) in shard_hosts.iter().enumerate() {
        let mut scfg = ServerConfig::workstation(host);
        scfg.commit = cfg.policy;
        // At 10k clients a periodic full-store snapshot would dominate
        // the flush pipeline being measured; the log is compacted
        // offline.
        scfg.checkpoint_every = 0;
        // Clean links never force a retransmission, but size the dedup
        // cache so even one would replay rather than re-execute.
        scfg.dedup_capacity = (total_ops as usize).max(4096);
        scfg.replicate_hot = cfg.replicate_hot;
        let server = w.server(scfg);
        server
            .borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        if dynamic {
            server.borrow_mut().attach_shard_routing(map.clone(), idx);
        }
        servers.push(server);
    }
    if dynamic {
        // Federation backbone: every shard pair gets an ethernet link
        // (replica frames travel over it).
        for a in 0..shards {
            for b in (a + 1)..shards {
                w.link(LinkSpec::ETHERNET_10M, shard_hosts[a], shard_hosts[b]);
            }
        }
    }
    w.shards = Some(map.clone());
    let urns: Vec<Urn> = (0..cfg.objects)
        .map(|k| Urn::parse(&format!("urn:rover:scale/obj{k}")).expect("valid urn"))
        .collect();
    let mut hist = History::default();
    for urn in &urns {
        hist.put_counter(&w, urn, 0)
            .ok_or("no server homes the objects")?;
    }
    for server in &servers {
        Server::attach_wal(server, &mut w.sim, Box::new(MemStore::new()))
            .map_err(|e| format!("seed {}: attach_wal failed: {e:?}", cfg.seed))?;
    }
    let st = Rc::new(Shared {
        done: Cell::new(0),
        last_done: Cell::new(w.sim.now()),
        urns,
        hist: RefCell::new(hist),
        error: RefCell::new(None),
    });
    let urns = &st.urns;

    let cdf = zipf_cdf(cfg.objects, ZIPF_S);
    let draws = draw_workload(&cfg, &cdf);
    let secondaries = draw_secondaries(&cfg, &draws, urns, &map, &cdf);

    // Exports each shard will take, from the deterministic assignment:
    // the chaos ordinals and the imbalance figure both derive from it.
    let mut shard_ops = vec![0u64; shards];
    for i in 0..cfg.clients {
        let prim = map.shard_for(urns[draws.obj[i]].as_str());
        match secondaries.get(&i) {
            Some(&sec) if is_verifier(&cfg, i) => {
                let sec = map.shard_for(urns[sec].as_str());
                for j in 0..cfg.ops_per_client {
                    shard_ops[if j % 2 == 0 { prim } else { sec }] += 1;
                }
            }
            _ => shard_ops[prim] += cfg.ops_per_client as u64,
        }
    }
    let mut scheduled_crashes = 0;
    for (s, server) in servers.iter().enumerate() {
        scheduled_crashes += script_shard_chaos(server, cfg.shard_crashes, shard_ops[s], &st);
    }

    let mut clients: Vec<ClientRef> = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let host = client_host(i);
        let spec = link_class(i);
        let obj = draws.obj[i];
        let home = map.host_for(urns[obj].as_str());
        w.link(spec, host, home);
        let mut ccfg = ClientConfig::thinkpad(host, home);
        // Reply latency under a saturated per-op server can reach
        // minutes; probe far beyond it so clean links never retransmit.
        ccfg.rto = SimDuration::from_secs(900);
        ccfg.rto_max = SimDuration::from_secs(3600);
        if cfg.shard_crashes > 0 {
            // Shard-kill chaos loses staged work and replies; probe
            // well inside the run so retries land on the recovered
            // incarnation promptly.
            ccfg.rto = SimDuration::from_secs(60);
            ccfg.rto_max = SimDuration::from_secs(960);
        }
        if shards > 1 {
            ccfg.shards = Some(map.clone());
        }
        if dynamic {
            // Replica reads and post-migration redirects can land on
            // any shard: link every client to the whole federation.
            for &shost in shard_hosts.iter().filter(|&&h| h != home) {
                w.link(spec, host, shost);
            }
        }
        let verifier_pair = match secondaries.get(&i) {
            Some(&sec) if is_verifier(&cfg, i) => {
                if !dynamic {
                    w.link(spec, host, map.host_for(urns[sec].as_str()));
                }
                Some(sec)
            }
            _ => None,
        };
        let links = w.links_of(host);
        let cl = Client::new(&mut w.sim, &w.net, ccfg, links);
        let session = Client::create_session(&cl, Guarantees::ALL, true);

        let burst = (i * BURSTS) / cfg.clients.max(1);
        let jitter = SimDuration::from_micros(draws.jitter_us[i]);
        let arrival =
            SimDuration::from_micros(BURST_GAP.as_micros() * burst as u64 + jitter.as_micros());
        let closed = i % 2 == 0;
        let (cl2, st2, ops) = (cl.clone(), st.clone(), cfg.ops_per_client);
        match verifier_pair {
            Some(sec) => {
                // Cross-shard verifier: warm both shards' read floors,
                // then alternate exports between them with a re-read
                // after every commit.
                w.sim.schedule_after(arrival, move |sim| {
                    let (cl, st) = (cl2.clone(), st2.clone());
                    import_step(sim, &cl, obj, session, host, &st, move |sim| {
                        let (cl, st) = (cl2.clone(), st2.clone());
                        import_step(sim, &cl, sec, session, host, &st, move |sim| {
                            verifier_step(sim, cl2, (obj, sec), session, host, 0, ops, st2);
                        });
                    });
                });
            }
            None => {
                w.sim.schedule_after(arrival, move |sim| {
                    let (cl, st) = (cl2.clone(), st2.clone());
                    import_step(sim, &cl, obj, session, host, &st, move |sim| {
                        if closed {
                            chain_exports(sim, cl2, obj, session, host, ops, st2);
                        } else {
                            for j in 0..ops {
                                let (cl3, st3) = (cl2.clone(), st2.clone());
                                sim.schedule_after(
                                    SimDuration::from_micros(THINK.as_micros() * j as u64),
                                    move |sim| {
                                        export_step(sim, &cl3, obj, session, host, &st3, |_, _| {});
                                    },
                                );
                            }
                        }
                    });
                });
            }
        }
        clients.push(cl);
    }
    // Load-balancing plane drivers and the imbalance monitor. Each
    // reschedules itself until every export committed, so the post-run
    // `w.sim.run()` drains cleanly.
    let sv = Rc::new(servers.clone());
    if shards > 1 {
        let (sv2, st2) = (sv.clone(), st.clone());
        let last = Rc::new(RefCell::new(vec![0u64; shards]));
        w.sim.schedule_after(MONITOR_EVERY, move |sim| {
            monitor_tick(sim, sv2, st2, last, total_ops)
        });
    }
    if dynamic && cfg.replicate_hot > 0 {
        let (sv2, st2) = (sv.clone(), st.clone());
        w.sim.schedule_after(REPL_EPOCH, move |sim| {
            replication_tick(sim, sv2, st2, total_ops)
        });
    }
    if let (true, Some(every)) = (dynamic, cfg.rebalance_every) {
        let (sv2, st2, map2) = (sv.clone(), st.clone(), map.clone());
        let rb = Rc::new(RefCell::new(Rebalancer::new(shards)));
        w.sim.schedule_after(every, move |sim| {
            rebalance_tick(sim, sv2, map2, rb, st2, total_ops, every)
        });
    }

    // Drive until every export's commit promise resolved.
    let t0 = w.sim.now();
    let deadline = t0 + SimDuration::from_secs(4 * 3600);
    while st.done.get() < total_ops {
        if let Some(e) = st.error.borrow().as_ref() {
            return Err(format!("seed {}: {e}", cfg.seed));
        }
        if !w.sim.step() {
            return Err(format!(
                "seed {}: event queue drained with {}/{total_ops} commits",
                cfg.seed,
                st.done.get()
            ));
        }
        if w.sim.now() > deadline {
            return Err(format!(
                "seed {}: did not converge ({}/{total_ops} commits at {})",
                cfg.seed,
                st.done.get(),
                w.sim.now()
            ));
        }
    }
    let duration_ms = st.last_done.get().since(t0).as_millis_f64().ceil() as u64;
    w.sim.run(); // Drain residual probe timers and notifications.
    if let Some(e) = st.error.borrow().as_ref() {
        return Err(format!("seed {}: {e}", cfg.seed));
    }
    let hist = st.hist.borrow();
    let summary = hist
        .check(&w, &clients)
        .map_err(|e| format!("seed {}: {e}", cfg.seed))?;
    let mut reply_us: Vec<u64> = hist.write_latencies().map(|d| d.as_micros()).collect();
    reply_us.sort_unstable();
    let q = |f: f64| -> u64 {
        if reply_us.is_empty() {
            return 0;
        }
        let idx = ((reply_us.len() as f64 * f).ceil() as usize).clamp(1, reply_us.len());
        reply_us[idx - 1]
    };

    let stats = &w.sim.stats;
    let [batch_mean_x100, batch_p50_x100, batch_p99_x100] =
        scaled_summary(stats, "server.group_commit_batch_size", 100.0, 100);
    let [flush_wait_us_mean, flush_wait_us_p50, flush_wait_us_p99] =
        scaled_summary(stats, "server.flush_wait_ms", 1000.0, 0);
    let imbalance_x100 = {
        let max = shard_ops.iter().copied().max().unwrap_or(0);
        let mean = total_ops.max(1) as f64 / shards as f64;
        ((max as f64 / mean) * 100.0).round() as u64
    };
    let measured_imbalance_x100 = {
        let counts: Vec<u64> = servers.iter().map(|s| s.borrow().commit_count()).collect();
        let sum: u64 = counts.iter().sum();
        if sum == 0 {
            100
        } else {
            let max = counts.iter().copied().max().unwrap_or(0);
            let mean = sum as f64 / shards as f64;
            ((max as f64 / mean) * 100.0).round() as u64
        }
    };
    let [_, imbalance_p50_x100, imbalance_p99_x100] =
        scaled_summary(stats, "scale.imbalance_window", 100.0, 100);
    let [_, qdepth_p50_x100, qdepth_p99_x100] = scaled_summary(stats, "server.qdepth", 100.0, 0);
    let mut o = ScaleOutcome {
        seed: cfg.seed,
        clients: cfg.clients as u64,
        shards: shards as u64,
        ops: total_ops,
        committed: summary.committed,
        final_total: summary.totals.iter().sum::<i64>() as u64,
        reexecs: summary.reexecs,
        duration_ms,
        wal_appends: stats.counter("server.wal_appends"),
        wal_flush_bytes: stats.counter("server.wal_flush_bytes"),
        group_commits: stats.counter("server.group_commits"),
        batch_mean_x100,
        batch_p50_x100,
        batch_p99_x100,
        flush_wait_us_mean,
        flush_wait_us_p50,
        flush_wait_us_p99,
        reply_coalesced: stats.counter("server.reply_coalesced"),
        p50_reply_us: q(0.50),
        p99_reply_us: q(0.99),
        retransmits: stats.counter("client.retransmits"),
        crashes: stats.counter("server.crashes"),
        wfr_checked: stats.counter("server.wfr_checked"),
        wfr_holds: stats.counter("server.wfr_held"),
        imbalance_x100,
        measured_imbalance_x100,
        imbalance_p50_x100,
        imbalance_p99_x100,
        qdepth_p50_x100,
        qdepth_p99_x100,
        replica_reads: stats.counter("server.replica_reads"),
        replicas_published: stats.counter("server.replicas_published"),
        migrations: stats.counter("server.migrated_out"),
        redirects: stats.counter("client.redirects"),
        input_rejected: input_rejected(stats),
        shard_wal_bytes: servers
            .iter()
            .map(|s| s.borrow().wal_device_len())
            .collect(),
        shard_ops,
        digest: 0,
    };

    let seed = cfg.seed;
    if o.wal_appends < total_ops {
        let n = o.wal_appends;
        return Err(format!(
            "seed {seed}: only {n} WAL commit records for {total_ops} exports"
        ));
    }
    if cfg.shard_crashes == 0 && o.retransmits != 0 {
        let n = o.retransmits;
        return Err(format!(
            "seed {seed}: {n} retransmissions on clean links without chaos"
        ));
    }
    if o.crashes != scheduled_crashes {
        let n = o.crashes;
        return Err(format!(
            "seed {seed}: scheduled {scheduled_crashes} shard crashes but {n} fired"
        ));
    }
    if shards > 1 && !secondaries.is_empty() && o.wfr_checked == 0 {
        return Err(format!(
            "seed {seed}: cross-shard verifiers ran but no read-vector was ever checked"
        ));
    }

    let figures = [
        o.seed,
        o.clients,
        o.shards,
        o.ops,
        o.committed,
        o.final_total,
        o.reexecs,
        o.duration_ms,
        o.wal_appends,
        o.wal_flush_bytes,
        o.group_commits,
        o.batch_mean_x100,
        o.batch_p50_x100,
        o.batch_p99_x100,
        o.flush_wait_us_mean,
        o.flush_wait_us_p50,
        o.flush_wait_us_p99,
        o.reply_coalesced,
        o.p50_reply_us,
        o.p99_reply_us,
        o.retransmits,
        o.crashes,
        o.wfr_checked,
        o.wfr_holds,
        o.imbalance_x100,
        o.measured_imbalance_x100,
        o.imbalance_p50_x100,
        o.imbalance_p99_x100,
        o.qdepth_p50_x100,
        o.qdepth_p99_x100,
        o.replica_reads,
        o.replicas_published,
        o.migrations,
        o.redirects,
        o.input_rejected,
    ];
    let tail = o.shard_ops.iter().chain(&o.shard_wal_bytes).copied();
    o.digest = super::fnv_digest(figures.into_iter().chain(tail));
    Ok(o)
}

/// Runs both commit-policy arms on one seed and returns
/// `(per_op, group, speedup)`. Past `RATIO_MIN_CLIENTS` clients the
/// group arm must sustain at least [`RATIO_FLOOR`]x the per-operation
/// commits/s — the release acceptance gate.
pub fn run_pair(
    seed: u64,
    clients: usize,
    ops_per_client: usize,
) -> Result<(ScaleOutcome, ScaleOutcome, f64), String> {
    let base = ScaleConfig::new(seed, clients, ops_per_client);
    let per_op = run_scale(base)?;
    let group = run_scale(base.with_policy(GROUP_POLICY))?;
    let speedup = group.commits_per_s() / per_op.commits_per_s();
    if clients >= RATIO_MIN_CLIENTS && speedup < RATIO_FLOOR {
        return Err(format!(
            "seed {seed}: group commit only {speedup:.2}x per-op commits/s at {clients} clients \
             (gate: >= {RATIO_FLOOR}x)"
        ));
    }
    Ok((per_op, group, speedup))
}

/// Population at which the throughput gate is enforced (below it the
/// arrival schedule, not the commit path, bounds both arms).
pub const RATIO_MIN_CLIENTS: usize = 256;
/// Required group-commit speedup over per-operation flush.
pub const RATIO_FLOOR: f64 = 5.0;
/// Required 8-shard speedup over a single shard (group commit, 10k
/// clients) — the federation acceptance gate.
pub const SHARD_FLOOR: f64 = 3.0;

fn outcome_rows(t: &mut Table, o: &ScaleOutcome, arm: &str) {
    t.row(vec![
        o.seed.to_string(),
        arm.to_owned(),
        o.clients.to_string(),
        o.ops.to_string(),
        format!("{:.0}", o.commits_per_s()),
        format!("{:.1}", o.p50_reply_us as f64 / 1000.0),
        format!("{:.1}", o.p99_reply_us as f64 / 1000.0),
        format!("{:.0}", o.wal_bytes_per_s() / 1024.0),
        format!("{:.2}", o.batch_mean_x100 as f64 / 100.0),
        o.reply_coalesced.to_string(),
    ]);
}

/// Renders one seed's two arms into a comparison table + metrics.
fn report_pair(r: &mut Report, t: &mut Table, trio: &(ScaleOutcome, ScaleOutcome, f64)) {
    let (per_op, group, speedup) = trio;
    outcome_rows(t, per_op, "per-op");
    outcome_rows(t, group, "group");
    for (o, arm) in [(per_op, "perop"), (group, "group")] {
        let s = o.seed;
        r.metric(
            format!("scale.seed{s}.{arm}.commits_per_s"),
            o.commits_per_s(),
        );
        r.metric(
            format!("scale.seed{s}.{arm}.p50_reply_ms"),
            o.p50_reply_us as f64 / 1000.0,
        );
        r.metric(
            format!("scale.seed{s}.{arm}.p99_reply_ms"),
            o.p99_reply_us as f64 / 1000.0,
        );
        r.metric(
            format!("scale.seed{s}.{arm}.wal_bytes_per_s"),
            o.wal_bytes_per_s(),
        );
        r.metric(
            format!("scale.seed{s}.{arm}.mean_batch"),
            o.batch_mean_x100 as f64 / 100.0,
        );
        r.metric(
            format!("scale.seed{s}.{arm}.qdepth_p50"),
            o.qdepth_p50_x100 as f64 / 100.0,
        );
        r.metric(
            format!("scale.seed{s}.{arm}.qdepth_p99"),
            o.qdepth_p99_x100 as f64 / 100.0,
        );
    }
    // Flush-wait / batch-size histogram percentiles (group arm; the
    // per-op arm's groups are all of one, so its histograms are
    // degenerate).
    r.metric(
        format!("scale.seed{}.group.flush_wait_p50_ms", group.seed),
        group.flush_wait_us_p50 as f64 / 1000.0,
    );
    r.metric(
        format!("scale.seed{}.group.flush_wait_p99_ms", group.seed),
        group.flush_wait_us_p99 as f64 / 1000.0,
    );
    r.metric(
        format!("scale.seed{}.group.batch_p50", group.seed),
        group.batch_p50_x100 as f64 / 100.0,
    );
    r.metric(
        format!("scale.seed{}.group.batch_p99", group.seed),
        group.batch_p99_x100 as f64 / 100.0,
    );
    r.metric(format!("scale.seed{}.speedup", per_op.seed), *speedup);
}

/// Renders one sharded (group-commit) arm into a table row + metrics.
fn report_sharded(r: &mut Report, t: &mut Table, o: &ScaleOutcome, prefix: &str) {
    t.row(vec![
        o.seed.to_string(),
        o.shards.to_string(),
        o.clients.to_string(),
        o.ops.to_string(),
        format!("{:.0}", o.commits_per_s()),
        format!("{:.1}", o.p50_reply_us as f64 / 1000.0),
        format!("{:.1}", o.p99_reply_us as f64 / 1000.0),
        format!("{:.0}", o.wal_bytes_per_s() / 1024.0),
        format!("{:.2}", o.imbalance_x100 as f64 / 100.0),
        format!("{:.2}", o.measured_imbalance_x100 as f64 / 100.0),
        o.wfr_checked.to_string(),
        o.crashes.to_string(),
        o.retransmits.to_string(),
    ]);
    r.metric(format!("{prefix}.commits_per_s"), o.commits_per_s());
    r.metric(
        format!("{prefix}.p50_reply_ms"),
        o.p50_reply_us as f64 / 1000.0,
    );
    r.metric(
        format!("{prefix}.p99_reply_ms"),
        o.p99_reply_us as f64 / 1000.0,
    );
    r.metric(format!("{prefix}.wal_bytes_per_s"), o.wal_bytes_per_s());
    r.metric(
        format!("{prefix}.imbalance"),
        o.imbalance_x100 as f64 / 100.0,
    );
    r.metric(format!("{prefix}.wfr_checked"), o.wfr_checked as f64);
    r.metric(
        format!("{prefix}.measured_imbalance"),
        o.measured_imbalance_x100 as f64 / 100.0,
    );
    r.metric(
        format!("{prefix}.imbalance_p50"),
        o.imbalance_p50_x100 as f64 / 100.0,
    );
    r.metric(
        format!("{prefix}.imbalance_p99"),
        o.imbalance_p99_x100 as f64 / 100.0,
    );
    r.metric(
        format!("{prefix}.qdepth_p50"),
        o.qdepth_p50_x100 as f64 / 100.0,
    );
    r.metric(
        format!("{prefix}.qdepth_p99"),
        o.qdepth_p99_x100 as f64 / 100.0,
    );
    for (s, &b) in o.shard_wal_bytes.iter().enumerate() {
        r.metric(
            format!("{prefix}.shard{s}.wal_bytes_per_s"),
            b as f64 / (o.duration_ms.max(1) as f64 / 1000.0),
        );
    }
}

fn sharded_table(title: &str, note: &str) -> Table {
    Table::new(
        title,
        &[
            "seed",
            "shards",
            "clients",
            "ops",
            "commit/s",
            "p50 ms",
            "p99 ms",
            "wal KiB/s",
            "imbal",
            "realized",
            "wfr chk",
            "crash",
            "rexmit",
        ],
    )
    .note(note)
}

/// CLI entry for `rover-bench soak --clients N`: every seed runs both
/// arms; `Err` on the first violated invariant (including the speedup
/// gate). With `shards > 1` the run federates across shards instead
/// (group-commit arm, optional shard-kill chaos) and the single-server
/// gate is replaced by the federation invariants.
pub fn run_cli(
    seeds: impl IntoIterator<Item = u64>,
    clients: usize,
    smoke: bool,
    shards: usize,
    shard_crashes: usize,
    replicate_hot: usize,
    rebalance_every_ms: u64,
) -> Result<Report, String> {
    let ops = if smoke { 2 } else { 3 };
    let mut r = Report::new("scale");
    if shards > 1 {
        let chaos = if shard_crashes > 0 {
            format!(
                "; shard-kill chaos: {shard_crashes} scripted power failure(s) per shard, \
                 12 s outage each"
            )
        } else {
            String::new()
        };
        let balance = if replicate_hot > 0 || rebalance_every_ms > 0 {
            format!(
                "; hot-set balancing: replicate_hot={replicate_hot}, \
                 rebalance_every={rebalance_every_ms} ms"
            )
        } else {
            String::new()
        };
        let mut t = sharded_table(
            &format!(
                "Scale soak — {clients} clients x {ops} ops across {shards} shards, \
                 group commit (batch 64 / 20 ms window)"
            ),
            &format!(
                "URN space hash-partitioned across {shards} home-server shards (independent \
                 WALs); cross-shard verifier sessions assert MR/WFR{chaos}{balance}."
            ),
        );
        for seed in seeds {
            let mut c = ScaleConfig::new(seed, clients, ops)
                .with_policy(GROUP_POLICY)
                .with_shards(shards)
                .with_shard_crashes(shard_crashes);
            if replicate_hot > 0 {
                c = c.with_replication(replicate_hot);
            }
            if rebalance_every_ms > 0 {
                c = c.with_rebalancing(SimDuration::from_millis(rebalance_every_ms));
            }
            let o = run_scale(c)?;
            report_sharded(
                &mut r,
                &mut t,
                &o,
                &format!("scale.seed{seed}.shard{shards}"),
            );
        }
        r.table(&t);
        return Ok(r);
    }
    let mut t = Table::new(
        &format!(
            "Scale soak — {clients} clients x {ops} ops, per-op flush vs group commit \
             (batch 64 / 20 ms window)"
        ),
        &[
            "seed",
            "arm",
            "clients",
            "ops",
            "commit/s",
            "p50 ms",
            "p99 ms",
            "wal KiB/s",
            "batch",
            "coal",
        ],
    )
    .note(
        "Clean links (ethernet / WaveLAN / CSLIP mix), zipf-skewed objects, \
         bursty open+closed arrivals; 1995 server disk model.",
    );
    let mut speedups = Vec::new();
    for seed in seeds {
        let trio = run_pair(seed, clients, ops)?;
        report_pair(&mut r, &mut t, &trio);
        speedups.push(trio.2);
    }
    r.table(&t);
    for (i, s) in speedups.iter().enumerate() {
        r.metric(format!("scale.run{i}.speedup"), *s);
    }
    Ok(r)
}

/// The `s1-scale` experiment: the full 10k-client soak, both arms, one
/// seed — the headline group-commit throughput figures in
/// `results/BENCH_rover.json`.
pub fn s1_scale(r: &mut Report) {
    const CLIENTS: usize = 10_000;
    const OPS: usize = 3;
    let mut t = Table::new(
        "S1 — 10k-client scale soak: per-op flush vs group commit (batch 64 / 20 ms window)",
        &[
            "seed",
            "arm",
            "clients",
            "ops",
            "commit/s",
            "p50 ms",
            "p99 ms",
            "wal KiB/s",
            "batch",
            "coal",
        ],
    )
    .note(
        "Clean links (ethernet / WaveLAN / CSLIP mix), zipf-skewed objects, bursty \
         open+closed arrivals; 1995 server disk model. Gate: group >= 5x per-op commits/s.",
    );
    match run_pair(1, CLIENTS, OPS) {
        Ok(trio) => {
            report_pair(r, &mut t, &trio);
            r.table(&t);
        }
        Err(e) => panic!("s1-scale invariant violated: {e}"),
    }
}

/// The `s2-shard-scaling` experiment: 10k clients under group commit,
/// federated across 1/2/4/8 URN-partitioned shards, one seed — the
/// scale-out chart (aggregate commits/s, reply percentiles, per-shard
/// WAL bandwidth, load imbalance) plus one shard-kill chaos arm. Gate:
/// 8 shards sustain >= [`SHARD_FLOOR`]x the single-shard commits/s.
pub fn s2_shard_scaling(r: &mut Report) {
    const CLIENTS: usize = 10_000;
    const OPS: usize = 3;
    let mut t = sharded_table(
        "S2 — sharded home-server federation: group-commit scale-out at 10k clients",
        "URN space hash-partitioned across N shards (independent WAL + commit engine each); \
         cross-shard verifier sessions assert MR/WFR. Chaos arm: 2 scripted power failures \
         per shard. Gate: 8 shards >= 3x 1-shard commits/s.",
    );
    let mut one_shard = 0.0f64;
    let mut eight_shard = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let o = run_scale(
            ScaleConfig::new(1, CLIENTS, OPS)
                .with_policy(GROUP_POLICY)
                .with_shards(shards),
        )
        .unwrap_or_else(|e| panic!("s2-shard-scaling invariant violated: {e}"));
        report_sharded(r, &mut t, &o, &format!("s2.shards{shards}"));
        if shards == 1 {
            one_shard = o.commits_per_s();
        }
        if shards == 8 {
            eight_shard = o.commits_per_s();
        }
    }
    let scaleout = eight_shard / one_shard.max(1e-9);
    if scaleout < SHARD_FLOOR {
        panic!(
            "s2-shard-scaling gate violated: 8 shards only {scaleout:.2}x one shard \
             ({eight_shard:.0} vs {one_shard:.0} commits/s; gate >= {SHARD_FLOOR}x)"
        );
    }
    r.metric("s2.scaleout_8x1", scaleout);
    // Shard-kill chaos arm: every shard power-failed twice mid-run; the
    // history check inside run_scale proves exactly-once, the committed
    // prefix, and cross-shard WFR under recovery.
    let chaos = run_scale(
        ScaleConfig::new(1, CLIENTS, OPS)
            .with_policy(GROUP_POLICY)
            .with_shards(4)
            .with_shard_crashes(2),
    )
    .unwrap_or_else(|e| panic!("s2-shard-scaling chaos invariant violated: {e}"));
    report_sharded(r, &mut t, &chaos, "s2.chaos4x2");
    r.metric("s2.chaos4x2.crashes", chaos.crashes as f64);
    r.table(&t);
}

/// Required commits/s gain of the balanced arm over the static-routing
/// baseline (the PR 7 s2 8-shard figure, re-run here as arm one).
pub const S3_SPEEDUP_FLOOR: f64 = 1.25;
/// Required realized commit-load imbalance of the balanced arm.
pub const S3_IMBALANCE_CEIL: f64 = 1.30;

/// The `s3-hot-balance` experiment: hot-set load balancing at 10k
/// clients x 8 shards. Three arms:
///
/// 1. **static** — exactly the PR 7 s2 8-shard configuration (64
///    zipf objects, no balancing): the 2.22x-imbalance baseline.
/// 2. **spread** — the 512-object population, balancing still off:
///    isolates how much of the win comes from the wider population
///    alone (the head object of a 64-object zipf carries 21% of all
///    traffic, so no placement can beat 1.69x there; at 512 objects
///    the floor is ~1.18x).
/// 3. **balanced** — 512 objects with the full plane on: top-8
///    hot-set replication every 100 ms epoch plus a 50 ms commit-load
///    rebalancer. Gates: realized imbalance <= [`S3_IMBALANCE_CEIL`],
///    commits/s >= [`S3_SPEEDUP_FLOOR`] x the static arm, and the
///    plane actually exercised (replica reads and migrations > 0).
///
/// A fourth chaos arm re-runs the 4-shard 2-crash soak with
/// replication on: `run_scale`'s history check (exactly-once, the
/// committed prefix in the recovered executed sets, empty client logs)
/// must hold while volatile replicas are dropped and republished
/// across crashes.
pub fn s3_hot_balance(r: &mut Report) {
    const CLIENTS: usize = 10_000;
    const OPS: usize = 3;
    const SHARDS: usize = 8;
    const OBJECTS: usize = 512;
    const HOT_K: usize = 8;
    let mut t = sharded_table(
        "S3 — hot-set load balancing: versioned read replicas + dynamic rebalancing, \
         10k clients x 8 shards",
        "static = PR 7 baseline (64 objects, no balancing); spread = 512 objects, \
         balancing off; balanced = 512 objects + top-8 replication (100 ms epochs) + \
         50 ms rebalancer. The matched-load trio is arrival-limited (same burst \
         window), so the -2x arms double ops/client inside the same window to \
         measure saturated capacity: static-2x collapses on its hot shard, \
         balanced-2x sustains. Gates: balanced realized imbalance <= 1.30, \
         balanced-2x commits/s >= 1.25x the static baseline. Chaos arm: \
         replication on, 2 power failures per shard, full durability audit.",
    );
    let base = ScaleConfig::new(1, CLIENTS, OPS)
        .with_policy(GROUP_POLICY)
        .with_shards(SHARDS);
    let stat = run_scale(base).unwrap_or_else(|e| panic!("s3-hot-balance static arm: {e}"));
    report_sharded(r, &mut t, &stat, "s3.static");
    let spread = run_scale(base.with_objects(OBJECTS))
        .unwrap_or_else(|e| panic!("s3-hot-balance spread arm: {e}"));
    report_sharded(r, &mut t, &spread, "s3.spread");
    let balanced = run_scale(
        base.with_objects(OBJECTS)
            .with_replication(HOT_K)
            .with_rebalancing(SimDuration::from_millis(50)),
    )
    .unwrap_or_else(|e| panic!("s3-hot-balance balanced arm: {e}"));
    report_sharded(r, &mut t, &balanced, "s3.balanced");
    r.metric("s3.balanced.replica_reads", balanced.replica_reads as f64);
    r.metric(
        "s3.balanced.replicas_published",
        balanced.replicas_published as f64,
    );
    r.metric("s3.balanced.migrations", balanced.migrations as f64);
    r.metric("s3.balanced.redirects", balanced.redirects as f64);
    r.metric(
        "s3.speedup_balanced_vs_static",
        balanced.commits_per_s() / stat.commits_per_s().max(1e-9),
    );

    let imbalance = balanced.measured_imbalance_x100 as f64 / 100.0;
    if imbalance > S3_IMBALANCE_CEIL {
        panic!(
            "s3-hot-balance gate violated: balanced arm realized imbalance {imbalance:.2}x \
             (gate <= {S3_IMBALANCE_CEIL}x; static baseline ran at {:.2}x)",
            stat.measured_imbalance_x100 as f64 / 100.0
        );
    }
    if balanced.replica_reads == 0 {
        panic!("s3-hot-balance gate violated: replication on but zero replica reads");
    }
    if balanced.migrations == 0 {
        panic!("s3-hot-balance gate violated: rebalancer on but zero migrations");
    }

    // Saturated pair: the matched-load arms above share an
    // arrival-limited duration floor (every client starts inside the
    // same 1.6 s burst window and the slowest links set the tail), so
    // they measure *imbalance*, not capacity. Doubling ops/client
    // inside the same window doubles the offered rate: the static
    // partition's hot shard saturates and its backlog sets the run
    // length, while the balanced plane spreads the same offered load
    // across the federation.
    let stat2x = run_scale(
        ScaleConfig::new(1, CLIENTS, OPS * 2)
            .with_policy(GROUP_POLICY)
            .with_shards(SHARDS),
    )
    .unwrap_or_else(|e| panic!("s3-hot-balance static-2x arm: {e}"));
    report_sharded(r, &mut t, &stat2x, "s3.static2x");
    let balanced2x = run_scale(
        ScaleConfig::new(1, CLIENTS, OPS * 2)
            .with_policy(GROUP_POLICY)
            .with_shards(SHARDS)
            .with_objects(OBJECTS)
            .with_replication(HOT_K)
            .with_rebalancing(SimDuration::from_millis(50)),
    )
    .unwrap_or_else(|e| panic!("s3-hot-balance balanced-2x arm: {e}"));
    report_sharded(r, &mut t, &balanced2x, "s3.balanced2x");
    let speedup = balanced2x.commits_per_s() / stat.commits_per_s().max(1e-9);
    r.metric("s3.speedup_loaded_vs_baseline", speedup);
    if speedup < S3_SPEEDUP_FLOOR {
        panic!(
            "s3-hot-balance gate violated: balanced-2x arm only {speedup:.2}x the static \
             baseline commits/s ({:.0} vs {:.0}; gate >= {S3_SPEEDUP_FLOOR}x)",
            balanced2x.commits_per_s(),
            stat.commits_per_s()
        );
    }

    // Chaos arm: shard kills with replication on. Volatile replicas
    // die with their holder and are republished next epoch; the
    // history check inside run_scale proves exactly-once and the
    // session guarantees survived.
    let chaos = run_scale(
        ScaleConfig::new(1, CLIENTS, OPS)
            .with_policy(GROUP_POLICY)
            .with_shards(4)
            .with_shard_crashes(2)
            .with_objects(OBJECTS)
            .with_replication(HOT_K),
    )
    .unwrap_or_else(|e| panic!("s3-hot-balance chaos invariant violated: {e}"));
    report_sharded(r, &mut t, &chaos, "s3.chaos4x2");
    r.metric("s3.chaos4x2.crashes", chaos.crashes as f64);
    r.metric("s3.chaos4x2.replica_reads", chaos.replica_reads as f64);
    r.table(&t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(NOBJ, ZIPF_S);
        assert_eq!(cdf.len(), NOBJ);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[NOBJ - 1] - 1.0).abs() < 1e-9);
        // Rank 1 carries far more than a uniform share.
        assert!(cdf[0] > 3.0 / NOBJ as f64);
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, 0.999_999_999), NOBJ - 1);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (42u64, 42u64);
        for _ in 0..8 {
            assert_eq!(splitmix(&mut a), splitmix(&mut b));
        }
    }

    #[test]
    fn secondaries_land_on_other_shards() {
        let cfg = ScaleConfig::new(1, 200, 2).with_shards(4);
        let cdf = zipf_cdf(NOBJ, ZIPF_S);
        let draws = draw_workload(&cfg, &cdf);
        let urns: Vec<Urn> = (0..NOBJ)
            .map(|k| Urn::parse(&format!("urn:rover:scale/obj{k}")).unwrap())
            .collect();
        let map = ShardMap::new((0..4).map(|s| HostId(1 + s)).collect());
        let sec = draw_secondaries(&cfg, &draws, &urns, &map, &cdf);
        assert!(!sec.is_empty(), "200 clients at 4 shards have verifiers");
        for (&i, &s) in &sec {
            assert!(is_verifier(&cfg, i));
            assert_ne!(
                map.shard_for(urns[draws.obj[i]].as_str()),
                map.shard_for(urns[s].as_str()),
                "secondary must live on a different shard"
            );
        }
    }
}
