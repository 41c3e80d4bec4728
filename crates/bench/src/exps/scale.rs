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
    Client, ClientConfig, CommitPolicy, CrashPoint, History, Rebalancer, Server, ServerConfig,
    ServerEvent, ServerRef, ShardMap, Summary, Urn,
};
use rover_net::LinkSpec;
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{HostId, OpStatus};

use super::run::{
    client_host, hundredths, metrics, outcome, restart_after, scaled_summary, thousandths, Actor,
    FirstError, Readout, Run,
};
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

outcome! {
    /// Measured result of one converged scale arm. All figures are
    /// integers, so equal digests mean byte-identical runs.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ScaleOutcome {
        /// Seed the arm used.
        seed,
        /// Client population.
        clients,
        /// Home-server shards the run federated across.
        shards,
        /// Exports issued (clients x ops_per_client).
        ops,
        /// Exports whose committed promise resolved `Ok`/`Resolved`.
        committed,
        /// Sum of the final object counters — must equal `ops`.
        final_total,
        /// `server.dedup_miss_reexec`, from the history check: zero.
        reexecs,
        /// First export to last commit, in virtual milliseconds.
        duration_ms,
        /// Commit records appended across every shard's write-ahead log.
        wal_appends,
        /// Framed bytes forced to the WAL devices (all shards).
        wal_flush_bytes,
        /// Group flushes (`server.group_commits`; one per commit on the
        /// per-op arm).
        group_commits,
        /// Mean commits per flush x100 (100 = one per flush, per-op).
        batch_mean_x100,
        /// Median commits per flush x100.
        batch_p50_x100,
        /// 99th-percentile commits per flush x100.
        batch_p99_x100,
        /// Mean staged-to-durable wait in microseconds (on the per-op arm,
        /// the flush itself plus any queue on the disk).
        flush_wait_us_mean,
        /// Median staged-to-durable wait, microseconds.
        flush_wait_us_p50,
        /// 99th-percentile staged-to-durable wait, microseconds.
        flush_wait_us_p99,
        /// Replies that rode an earlier reply's envelope.
        reply_coalesced,
        /// Median export reply latency (issue to committed), microseconds.
        p50_reply_us,
        /// 99th-percentile export reply latency, microseconds.
        p99_reply_us,
        /// Client retransmissions (clean links without chaos: expected 0).
        retransmits,
        /// Shard power failures that fired (scripted chaos).
        crashes,
        /// Cross-shard requests whose carried read-vector was checked at
        /// admission (`server.wfr_checked`; 0 when `shards == 1`).
        wfr_checked,
        /// Requests the writes-follow-reads gate held for a lagging local
        /// object version (only possible under shard-kill chaos).
        wfr_holds,
        /// max/mean exports per shard x100 (100 = perfectly balanced;
        /// always 100 at one shard), from the *static* URN assignment —
        /// the skew the load-balancing plane starts from.
        imbalance_x100,
        /// max/mean commits *actually executed* per shard x100 — with the
        /// load-balancing plane off this tracks `imbalance_x100`; with it
        /// on it is the realized post-balancing skew.
        measured_imbalance_x100,
        /// Median of the windowed (250 ms) commit-load imbalance samples
        /// x100 (100 when a window never completed).
        imbalance_p50_x100,
        /// 99th-percentile windowed commit-load imbalance x100.
        imbalance_p99_x100,
        /// Median server queue depth sampled at every admission x100.
        qdepth_p50_x100,
        /// 99th-percentile server queue depth at admission x100.
        qdepth_p99_x100,
        /// Imports served from a peer's volatile replica instead of the
        /// home store (`server.replica_reads`).
        replica_reads,
        /// Replica images published across all epochs
        /// (`server.replicas_published`).
        replicas_published,
        /// Hot objects re-homed by the rebalancer (`server.migrated_out`).
        migrations,
        /// Requests the client re-routed after a `WrongShard` answer or a
        /// stale replica read (`client.redirects`).
        redirects,
        /// Adversarial-input rejections summed across the codec planes
        /// (`wire.decode_rejected.*` + `log.scan_rejected.*` +
        /// `script.parse_rejected`).
        input_rejected,
    }
    lists {
        /// Exports routed to each shard (index = shard).
        shard_ops,
        /// Final write-ahead device size per shard, bytes.
        shard_wal_bytes,
    }
}

impl ScaleOutcome {
    /// Aggregate throughput in commits per virtual second.
    pub fn commits_per_s(&self) -> f64 {
        self.per_s(self.ops)
    }

    /// Aggregate WAL device bandwidth in bytes per virtual second.
    pub fn wal_bytes_per_s(&self) -> f64 {
        self.per_s(self.wal_flush_bytes)
    }

    /// `v` per virtual second of the run.
    fn per_s(&self, v: u64) -> f64 {
        v as f64 / (self.duration_ms.max(1) as f64 / 1000.0)
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
    hist: Rc<RefCell<History>>,
    /// The first error a step or a driver hit.
    error: FirstError,
}

/// Exports `add 1` to object `obj` and records it; once it commits,
/// counts the commit and runs `then`. An issue error is kept as the
/// run's error instead.
fn export_step(
    sim: &mut Sim,
    a: &Actor,
    obj: usize,
    st: &Rc<Shared>,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    let h = match a.add(sim, &st.hist, obj, &st.urns[obj]) {
        Ok(h) => h,
        Err(e) => return st.error.keep(e),
    };
    let st = st.clone();
    h.committed.on_ready(sim, move |sim, _| {
        st.done.set(st.done.get() + 1);
        st.last_done.set(sim.now());
        then(sim);
    });
}

/// Imports object `obj` and records it; once it resolves Ok, runs
/// `then`. An issue error or a non-Ok outcome is kept as the run's
/// error instead.
fn import_step(
    sim: &mut Sim,
    a: &Actor,
    obj: usize,
    st: &Rc<Shared>,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    let p = match a.read(sim, &st.hist, obj, &st.urns[obj]) {
        Ok(p) => p,
        Err(e) => return st.error.keep(e),
    };
    let st = st.clone();
    p.on_ready(sim, move |sim, o| {
        if o.status != OpStatus::Ok {
            return st.error.keep(format!("import resolved {:?}", o.status));
        }
        then(sim);
    });
}

/// A closed-loop client from step `j` of `ops`: export to the step's
/// object and, once it commits, take the next step. A cross-shard
/// verifier (with a `partner` object, homed on another shard) alternates
/// between its two objects and re-reads each after its commit, so every
/// export carries a writes-follow-reads read-vector for its destination
/// and the oracle checks each re-read against the session's floor.
fn closed_loop(
    sim: &mut Sim,
    a: Actor,
    obj: usize,
    partner: Option<usize>,
    j: usize,
    ops: usize,
    st: Rc<Shared>,
) {
    if j == ops {
        return;
    }
    let target = match partner {
        Some(p) if !j.is_multiple_of(2) => p,
        _ => obj,
    };
    let (a2, st2) = (a.clone(), st.clone());
    export_step(sim, &a2, target, &st2, move |sim| {
        if partner.is_none() {
            return closed_loop(sim, a, obj, partner, j + 1, ops, st);
        }
        let (a2, st2) = (a.clone(), st.clone());
        import_step(sim, &a2, target, &st2, move |sim| {
            closed_loop(sim, a, obj, partner, j + 1, ops, st);
        });
    });
}

/// Schedules the scripted power failures for one shard: crash at evenly
/// spaced lifetime commit ordinals, reboot from the shard's write-ahead
/// device after the outage, then arm the next crash. Returns how many
/// crashes were scheduled (distinct ordinals).
fn script_shard_chaos(
    server: &ServerRef,
    crashes: usize,
    expected_ops: u64,
    error: &FirstError,
) -> u64 {
    if crashes == 0 || expected_ops == 0 {
        return 0;
    }
    let ords: Vec<u64> = (1..=crashes)
        .map(|k| ((k as u64 * expected_ops) / (crashes as u64 + 1)).max(1))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    server
        .borrow_mut()
        .script_crash(ords[0], CrashPoint::AfterAppend);
    let next = Rc::new(Cell::new(1usize));
    let (sv, error) = (server.clone(), error.clone());
    let scheduled = ords.len() as u64;
    Server::on_event(server, move |sim, ev| {
        if let ServerEvent::Crashed { .. } = ev {
            let (sv2, ords, next) = (sv.clone(), ords.clone(), next.clone());
            restart_after(sim, &sv, &error, move |_| {
                let i = next.get();
                if i < ords.len() {
                    next.set(i + 1);
                    sv2.borrow_mut()
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

/// Runs `tick` every `period` until every export committed, so the
/// finish drains cleanly.
fn every(
    sim: &mut Sim,
    period: SimDuration,
    st: Rc<Shared>,
    total: u64,
    mut tick: impl FnMut(&mut Sim) + 'static,
) {
    sim.schedule_after(period, move |sim| {
        tick(sim);
        if st.done.get() < total {
            every(sim, period, st, total, tick);
        }
    });
}

/// One commit-load rebalancer decision. A proposed migration runs
/// synchronously inside the tick — routing pin, WAL tombstone at the
/// source, WAL install at the target — so no client event can ever
/// observe a half-moved object.
fn rebalance(sim: &mut Sim, servers: &[ServerRef], map: &ShardMap, rb: &mut Rebalancer) {
    let loads: Vec<u64> = servers.iter().map(|s| s.borrow().commit_count()).collect();
    let hottest: Vec<Vec<(String, u64)>> =
        servers.iter().map(|s| s.borrow().hot_home_top()).collect();
    let Some(mv) = rb.tick(&loads, &hottest) else {
        return;
    };
    let target_up = !servers[mv.to].borrow().is_crashed();
    if let (true, Ok(urn)) = (target_up, Urn::parse(&mv.urn)) {
        // Pin first: anything the drain gate re-admits at the source
        // answers WrongShard instead of executing against the gutted
        // store.
        map.migrate_prefix(&mv.urn, mv.to);
        match Server::migrate_out(&servers[mv.from], sim, &urn) {
            Some(obj) => {
                if !Server::install_migrated(&servers[mv.to], sim, obj.clone()) {
                    // Target died under us: un-pin and re-install at the
                    // source (its WAL replays tombstone then install, in
                    // order).
                    map.migrate_prefix(&mv.urn, mv.from);
                    Server::install_migrated(&servers[mv.from], sim, obj);
                }
            }
            None => map.migrate_prefix(&mv.urn, mv.from),
        }
    }
}

/// The home-server federation of one arm: the shard servers (index =
/// shard) and the routing table over their hosts.
struct Federation {
    servers: Vec<ServerRef>,
    map: ShardMap,
}

/// Builds the federation: one counter server per shard (with shard
/// routing and an ethernet backbone when the load-balancing plane
/// runs), every object as a zero counter on its home shard, then one
/// write-ahead log per shard, whose first checkpoint covers the objects.
fn federation(run: &mut Run, cfg: &ScaleConfig) -> Result<(Federation, Rc<Shared>), String> {
    let dynamic = cfg.dynamic();
    let hosts: Vec<HostId> = (0..cfg.shards.max(1))
        .map(|s| HostId(SERVER.0 + s as u32))
        .collect();
    let map = if dynamic {
        ShardMap::new(hosts.clone()).with_dynamic()
    } else {
        ShardMap::new(hosts.clone())
    };
    let mut servers: Vec<ServerRef> = Vec::with_capacity(hosts.len());
    for (idx, &host) in hosts.iter().enumerate() {
        let mut scfg = ServerConfig::workstation(host);
        scfg.commit = cfg.policy;
        // At 10k clients a periodic full-store snapshot would dominate
        // the flush pipeline being measured; the log is compacted
        // offline.
        scfg.checkpoint_every = 0;
        // Clean links never force a retransmission, but size the dedup
        // cache so even one would replay rather than re-execute.
        scfg.dedup_capacity = (cfg.clients * cfg.ops_per_client).max(4096);
        scfg.replicate_hot = cfg.replicate_hot;
        let server = run.counter_server(scfg);
        if dynamic {
            server.borrow_mut().attach_shard_routing(map.clone(), idx);
        }
        servers.push(server);
    }
    if dynamic {
        // Federation backbone: every shard pair gets an ethernet link
        // (replica frames travel over it).
        for (a, &ha) in hosts.iter().enumerate() {
            for &hb in &hosts[a + 1..] {
                run.w.link(LinkSpec::ETHERNET_10M, ha, hb);
            }
        }
    }
    run.w.shards = Some(map.clone());
    let urns: Vec<Urn> = (0..cfg.objects)
        .map(|k| Urn::parse(&format!("urn:rover:scale/obj{k}")).expect("valid urn"))
        .collect();
    for urn in &urns {
        run.hist
            .borrow_mut()
            .put_counter(&run.w, urn, 0)
            .ok_or("no server homes the objects")?;
    }
    for server in &servers {
        run.attach_wal(server)?;
    }
    let st = Rc::new(Shared {
        done: Cell::new(0),
        last_done: Cell::new(run.w.sim.now()),
        urns,
        hist: run.hist.clone(),
        error: run.error.clone(),
    });
    Ok((Federation { servers, map }, st))
}

/// What the workload leaves for the read-out.
struct Workload {
    clients: Vec<Actor>,
    /// Exports each shard takes under the static URN assignment.
    shard_ops: Vec<u64>,
    /// Shard crashes scheduled across the federation.
    crashes: u64,
    /// Whether any cross-shard verifier runs.
    verifiers: bool,
}

/// Draws the workload, scripts each shard's crashes at commit ordinals
/// derived from it, and builds every client with its arrival.
fn workload(run: &mut Run, cfg: &ScaleConfig, fed: &Federation, st: &Rc<Shared>) -> Workload {
    let (urns, map) = (&st.urns, &fed.map);
    let cdf = zipf_cdf(cfg.objects, ZIPF_S);
    let draws = draw_workload(cfg, &cdf);
    let secondaries = draw_secondaries(cfg, &draws, urns, map, &cdf);

    // Exports each shard will take, from the deterministic assignment:
    // the chaos ordinals and the imbalance figure both derive from it.
    let mut shard_ops = vec![0u64; fed.servers.len()];
    for i in 0..cfg.clients {
        let prim = map.shard_for(urns[draws.obj[i]].as_str());
        match secondaries.get(&i) {
            Some(&sec) => {
                let sec = map.shard_for(urns[sec].as_str());
                for j in 0..cfg.ops_per_client {
                    shard_ops[if j % 2 == 0 { prim } else { sec }] += 1;
                }
            }
            None => shard_ops[prim] += cfg.ops_per_client as u64,
        }
    }
    let crashes = (fed.servers.iter().zip(&shard_ops))
        .map(|(sv, &ops)| script_shard_chaos(sv, cfg.shard_crashes, ops, &st.error))
        .sum();

    let dynamic = cfg.dynamic();
    let mut clients: Vec<Actor> = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let (host, spec, obj) = (client_host(i), link_class(i), draws.obj[i]);
        let home = map.host_for(urns[obj].as_str());
        run.w.link(spec, host, home);
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
        if fed.servers.len() > 1 {
            ccfg.shards = Some(map.clone());
        }
        if dynamic {
            // Replica reads and post-migration redirects can land on
            // any shard: link every client to the whole federation.
            for &shost in map.hosts().iter().filter(|&&h| h != home) {
                run.w.link(spec, host, shost);
            }
        }
        let partner = secondaries.get(&i).copied();
        if let (Some(sec), false) = (partner, dynamic) {
            run.w.link(spec, host, map.host_for(urns[sec].as_str()));
        }
        let links = run.w.links_of(host);
        let a = Actor::new(Client::new(&mut run.w.sim, &run.w.net, ccfg, links));
        clients.push(a.clone());

        let burst = (i * BURSTS) / cfg.clients.max(1);
        let arrival =
            SimDuration::from_micros(BURST_GAP.as_micros() * burst as u64 + draws.jitter_us[i]);
        let (st, ops, closed) = (st.clone(), cfg.ops_per_client, i % 2 == 0);
        run.w.sim.schedule_after(arrival, move |sim| {
            let (a2, st2) = (a.clone(), st.clone());
            import_step(sim, &a2, obj, &st2, move |sim| match partner {
                // Cross-shard verifier: warm the second shard's read
                // floor too before the first export.
                Some(sec) => {
                    let (a2, st2) = (a.clone(), st.clone());
                    import_step(sim, &a2, sec, &st2, move |sim| {
                        closed_loop(sim, a, obj, partner, 0, ops, st);
                    });
                }
                None if closed => closed_loop(sim, a, obj, None, 0, ops, st),
                None => {
                    for j in 0..ops {
                        let (a, st) = (a.clone(), st.clone());
                        let at = SimDuration::from_micros(THINK.as_micros() * j as u64);
                        sim.schedule_after(at, move |sim| export_step(sim, &a, obj, &st, |_| {}));
                    }
                }
            });
        });
    }
    Workload {
        clients,
        shard_ops,
        crashes,
        verifiers: !secondaries.is_empty(),
    }
}

/// Starts the load-balancing plane's drivers and the imbalance monitor,
/// in that order: the monitor, replication epochs (each shard folds and
/// decays its hot-set tracker and publishes its K hottest home objects
/// to every peer as version-stamped volatile replicas), then the
/// rebalancer.
fn planes(sim: &mut Sim, cfg: &ScaleConfig, fed: &Federation, st: &Rc<Shared>) {
    let total = (cfg.clients * cfg.ops_per_client) as u64;
    let (shards, dynamic) = (fed.servers.len(), cfg.dynamic());
    if shards > 1 {
        // Windowed commit-load imbalance: max/mean of the per-shard
        // commit deltas since the previous tick. Read-only — it never
        // changes what a run does, only what gets sampled.
        let (servers, mut last) = (fed.servers.clone(), vec![0u64; shards]);
        every(sim, MONITOR_EVERY, st.clone(), total, move |sim| {
            let counts: Vec<u64> = servers.iter().map(|s| s.borrow().commit_count()).collect();
            let deltas: Vec<u64> = (counts.iter().zip(&last))
                .map(|(c, p)| c.saturating_sub(*p))
                .collect();
            let sum: u64 = deltas.iter().sum();
            if sum > 0 {
                let max = deltas.iter().copied().max().unwrap_or(0);
                let mean = sum as f64 / deltas.len() as f64;
                sim.stats
                    .sample("scale.imbalance_window", max as f64 / mean);
            }
            last = counts;
        });
    }
    if dynamic && cfg.replicate_hot > 0 {
        let servers = fed.servers.clone();
        every(sim, REPL_EPOCH, st.clone(), total, move |sim| {
            for sv in &servers {
                Server::replication_epoch(sv, sim);
            }
        });
    }
    if let (true, Some(period)) = (dynamic, cfg.rebalance_every) {
        let (servers, map) = (fed.servers.clone(), fed.map.clone());
        let mut rb = Rebalancer::new(shards);
        every(sim, period, st.clone(), total, move |sim| {
            rebalance(sim, &servers, &map, &mut rb)
        });
    }
}

/// Runs one scale arm to quiescence; `Err` describes the first violated
/// invariant.
pub fn run_scale(cfg: ScaleConfig) -> Result<ScaleOutcome, String> {
    if cfg.shards > MAX_SHARDS {
        return Err(format!(
            "at most {MAX_SHARDS} shards (host ids 1..={MAX_SHARDS})"
        ));
    }
    let mut run = Run::new(cfg.seed);
    let (fed, st) = federation(&mut run, &cfg)?;
    let load = workload(&mut run, &cfg, &fed, &st);
    planes(&mut run.w.sim, &cfg, &fed, &st);

    // Drive until every export's commit promise resolved.
    let total = (cfg.clients * cfg.ops_per_client) as u64;
    let t0 = run.w.sim.now();
    run.drive(
        SimDuration::from_secs(4 * 3600),
        || st.done.get() >= total,
        || format!("{}/{total} commits", st.done.get()),
    )?;
    let duration_ms = st.last_done.get().since(t0).as_millis_f64().ceil() as u64;
    let summary = run.finish(&load.clients)?;
    read_out(&run, &cfg, &fed, load, &summary, duration_ms)
}

/// max/mean of `counts` x100, the mean being `sum` over the count of
/// counts.
fn max_over_mean_x100(counts: &[u64], sum: u64) -> u64 {
    let max = counts.iter().copied().max().unwrap_or(0);
    let mean = sum as f64 / counts.len() as f64;
    ((max as f64 / mean) * 100.0).round() as u64
}

/// Reads a finished arm's figures and holds it to the scale soak's own
/// gates.
fn read_out(
    run: &Run,
    cfg: &ScaleConfig,
    fed: &Federation,
    load: Workload,
    summary: &Summary,
    duration_ms: u64,
) -> Result<ScaleOutcome, String> {
    let total_ops = (cfg.clients * cfg.ops_per_client) as u64;
    let hist = run.hist.borrow();
    let mut reply_us: Vec<u64> = hist.write_latencies().map(|d| d.as_micros()).collect();
    reply_us.sort_unstable();
    let q = |f: f64| -> u64 {
        if reply_us.is_empty() {
            return 0;
        }
        let idx = ((reply_us.len() as f64 * f).ceil() as usize).clamp(1, reply_us.len());
        reply_us[idx - 1]
    };
    let executed: Vec<u64> = fed
        .servers
        .iter()
        .map(|s| s.borrow().commit_count())
        .collect();
    let executed_sum: u64 = executed.iter().sum();
    let stats = &run.w.sim.stats;
    let common = Readout::of(stats);
    let [_, imbalance_p50_x100, imbalance_p99_x100] =
        scaled_summary(stats, "scale.imbalance_window", 100.0, 100);
    let o = ScaleOutcome {
        seed: cfg.seed,
        clients: cfg.clients as u64,
        shards: fed.servers.len() as u64,
        ops: total_ops,
        committed: summary.committed,
        final_total: summary.totals.iter().sum::<i64>() as u64,
        reexecs: summary.reexecs,
        duration_ms,
        wal_appends: common.wal_appends,
        wal_flush_bytes: stats.counter("server.wal_flush_bytes"),
        group_commits: common.group_commits,
        batch_mean_x100: common.batch_x100[0],
        batch_p50_x100: common.batch_x100[1],
        batch_p99_x100: common.batch_x100[2],
        flush_wait_us_mean: common.flush_wait_us[0],
        flush_wait_us_p50: common.flush_wait_us[1],
        flush_wait_us_p99: common.flush_wait_us[2],
        reply_coalesced: common.reply_coalesced,
        p50_reply_us: q(0.50),
        p99_reply_us: q(0.99),
        retransmits: common.retransmits,
        crashes: common.crashes,
        wfr_checked: stats.counter("server.wfr_checked"),
        wfr_holds: stats.counter("server.wfr_held"),
        imbalance_x100: max_over_mean_x100(&load.shard_ops, total_ops.max(1)),
        measured_imbalance_x100: match executed_sum {
            0 => 100,
            sum => max_over_mean_x100(&executed, sum),
        },
        imbalance_p50_x100,
        imbalance_p99_x100,
        qdepth_p50_x100: common.qdepth_x100[0],
        qdepth_p99_x100: common.qdepth_x100[1],
        replica_reads: stats.counter("server.replica_reads"),
        replicas_published: stats.counter("server.replicas_published"),
        migrations: stats.counter("server.migrated_out"),
        redirects: stats.counter("client.redirects"),
        input_rejected: common.input_rejected,
        shard_ops: load.shard_ops,
        shard_wal_bytes: (fed.servers.iter())
            .map(|s| s.borrow().wal_device_len())
            .collect(),
        digest: 0,
    }
    .with_digest();

    let n = o.wal_appends;
    if n < total_ops {
        return Err(run.err(format!(
            "only {n} WAL commit records for {total_ops} exports"
        )));
    }
    let n = o.retransmits;
    if cfg.shard_crashes == 0 && n != 0 {
        return Err(run.err(format!("{n} retransmissions on clean links without chaos")));
    }
    let (want, n) = (load.crashes, o.crashes);
    if n != want {
        return Err(run.err(format!("scheduled {want} shard crashes but {n} fired")));
    }
    if o.shards > 1 && load.verifiers && o.wfr_checked == 0 {
        return Err(run.err("cross-shard verifiers ran but no read-vector was ever checked"));
    }
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

/// A scale table: the seed, `second` (the arm or the shard count), the
/// population and throughput columns every scale table shows, then
/// `rest`.
fn scale_table(title: &str, second: &str, rest: &[&str], note: &str) -> Table {
    let mut cols = vec![
        "seed",
        second,
        "clients",
        "ops",
        "commit/s",
        "p50 ms",
        "p99 ms",
        "wal KiB/s",
    ];
    cols.extend_from_slice(rest);
    Table::new(title, &cols).note(note)
}

/// The per-op vs group commit table.
fn pair_table(title: &str, note: &str) -> Table {
    scale_table(title, "arm", &["batch", "coal"], note)
}

/// The sharded-federation table.
fn sharded_table(title: &str, note: &str) -> Table {
    let rest = ["imbal", "realized", "wfr chk", "crash", "rexmit"];
    scale_table(title, "shards", &rest, note)
}

/// Appends `o`'s row under a [`scale_table`] header.
fn scale_row(
    t: &mut Table,
    o: &ScaleOutcome,
    second: String,
    rest: impl IntoIterator<Item = String>,
) {
    let mut row = vec![
        o.seed.to_string(),
        second,
        o.clients.to_string(),
        o.ops.to_string(),
        format!("{:.0}", o.commits_per_s()),
        format!("{:.1}", thousandths(o.p50_reply_us)),
        format!("{:.1}", thousandths(o.p99_reply_us)),
        format!("{:.0}", o.wal_bytes_per_s() / 1024.0),
    ];
    row.extend(rest);
    t.row(row);
}

/// The throughput metrics every scale report leads with.
fn throughput(o: &ScaleOutcome) -> Vec<(&'static str, f64)> {
    vec![
        ("commits_per_s", o.commits_per_s()),
        ("p50_reply_ms", thousandths(o.p50_reply_us)),
        ("p99_reply_ms", thousandths(o.p99_reply_us)),
        ("wal_bytes_per_s", o.wal_bytes_per_s()),
    ]
}

/// Renders one seed's two arms into a comparison table + metrics.
fn report_pair(r: &mut Report, t: &mut Table, trio: &(ScaleOutcome, ScaleOutcome, f64)) {
    let (per_op, group, speedup) = trio;
    for (o, arm, label) in [(per_op, "perop", "per-op"), (group, "group", "group")] {
        let batch = format!("{:.2}", hundredths(o.batch_mean_x100));
        scale_row(
            t,
            o,
            label.to_owned(),
            [batch, o.reply_coalesced.to_string()],
        );
        let mut figures = throughput(o);
        figures.extend([
            ("mean_batch", hundredths(o.batch_mean_x100)),
            ("qdepth_p50", hundredths(o.qdepth_p50_x100)),
            ("qdepth_p99", hundredths(o.qdepth_p99_x100)),
        ]);
        metrics(r, &format!("scale.seed{}.{arm}", o.seed), &figures);
    }
    // Flush-wait / batch-size histogram percentiles (group arm; the
    // per-op arm's groups are all of one, so its histograms are
    // degenerate).
    let figures = [
        ("flush_wait_p50_ms", thousandths(group.flush_wait_us_p50)),
        ("flush_wait_p99_ms", thousandths(group.flush_wait_us_p99)),
        ("batch_p50", hundredths(group.batch_p50_x100)),
        ("batch_p99", hundredths(group.batch_p99_x100)),
    ];
    metrics(r, &format!("scale.seed{}.group", group.seed), &figures);
    r.metric(format!("scale.seed{}.speedup", per_op.seed), *speedup);
}

/// Renders one sharded (group-commit) arm into a table row + metrics.
fn report_sharded(r: &mut Report, t: &mut Table, o: &ScaleOutcome, prefix: &str) {
    let rest = [
        format!("{:.2}", hundredths(o.imbalance_x100)),
        format!("{:.2}", hundredths(o.measured_imbalance_x100)),
        o.wfr_checked.to_string(),
        o.crashes.to_string(),
        o.retransmits.to_string(),
    ];
    scale_row(t, o, o.shards.to_string(), rest);
    let mut figures = throughput(o);
    figures.extend([
        ("imbalance", hundredths(o.imbalance_x100)),
        ("wfr_checked", o.wfr_checked as f64),
        ("measured_imbalance", hundredths(o.measured_imbalance_x100)),
        ("imbalance_p50", hundredths(o.imbalance_p50_x100)),
        ("imbalance_p99", hundredths(o.imbalance_p99_x100)),
        ("qdepth_p50", hundredths(o.qdepth_p50_x100)),
        ("qdepth_p99", hundredths(o.qdepth_p99_x100)),
    ]);
    metrics(r, prefix, &figures);
    for (s, &b) in o.shard_wal_bytes.iter().enumerate() {
        r.metric(format!("{prefix}.shard{s}.wal_bytes_per_s"), o.per_s(b));
    }
}

/// The note under every per-op vs group table.
const PAIR_NOTE: &str = "Clean links (ethernet / WaveLAN / CSLIP mix), zipf-skewed objects, \
                         bursty open+closed arrivals; 1995 server disk model.";

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
            let prefix = format!("scale.seed{seed}.shard{shards}");
            report_sharded(&mut r, &mut t, &run_scale(c)?, &prefix);
        }
        r.table(&t);
        return Ok(r);
    }
    let mut t = pair_table(
        &format!(
            "Scale soak — {clients} clients x {ops} ops, per-op flush vs group commit \
             (batch 64 / 20 ms window)"
        ),
        PAIR_NOTE,
    );
    for seed in seeds {
        report_pair(&mut r, &mut t, &run_pair(seed, clients, ops)?);
    }
    r.table(&t);
    Ok(r)
}

/// Population and exports per client of every S-experiment arm (S3's
/// saturated arms double the exports).
const S_CLIENTS: usize = 10_000;
const S_OPS: usize = 3;

/// Runs the S-experiment `id`; a violated invariant or gate aborts it,
/// naming the experiment.
fn gated(id: &str, r: &mut Report, body: impl FnOnce(&mut Report) -> Result<(), String>) {
    if let Err(e) = body(r) {
        panic!("{id} invariant violated: {e}");
    }
}

/// One arm of a sharded experiment: its label (the last part of its
/// metric prefix), its config, the outcome figures it also reports by
/// name (emitted in the outcome's figure order), and the name of the
/// metric that divides its commits/s by the first arm's, if it reports
/// one.
type Arm<'a> = (&'a str, ScaleConfig, &'a [&'a str], Option<&'a str>);

/// Runs `arms` in order into `t` and the metrics under `{id}.{label}`;
/// the first failed arm ends the run.
fn run_arms(
    r: &mut Report,
    t: &mut Table,
    id: &str,
    arms: &[Arm<'_>],
) -> Result<Vec<ScaleOutcome>, String> {
    let mut outs: Vec<ScaleOutcome> = Vec::with_capacity(arms.len());
    for &(label, cfg, extra, ratio) in arms {
        let o = run_scale(cfg).map_err(|e| format!("{label} arm: {e}"))?;
        let prefix = format!("{id}.{label}");
        report_sharded(r, t, &o, &prefix);
        for (name, v) in o.figures().into_iter().filter(|(n, _)| extra.contains(n)) {
            r.metric(format!("{prefix}.{name}"), v as f64);
        }
        if let Some(name) = ratio {
            let first = outs.first().unwrap_or(&o);
            r.metric(name, o.commits_per_s() / first.commits_per_s().max(1e-9));
        }
        outs.push(o);
    }
    Ok(outs)
}

/// The `s1-scale` experiment: the full 10k-client soak, both arms, one
/// seed — the headline group-commit throughput figures in
/// `results/BENCH_rover.json`.
pub fn s1_scale(r: &mut Report) {
    gated("s1-scale", r, |r| {
        let mut t = pair_table(
            "S1 — 10k-client scale soak: per-op flush vs group commit (batch 64 / 20 ms window)",
            &format!("{PAIR_NOTE} Gate: group >= 5x per-op commits/s."),
        );
        report_pair(r, &mut t, &run_pair(1, S_CLIENTS, S_OPS)?);
        r.table(&t);
        Ok(())
    });
}

/// The `s2-shard-scaling` experiment: 10k clients under group commit,
/// federated across 1/2/4/8 URN-partitioned shards, one seed — the
/// scale-out chart (aggregate commits/s, reply percentiles, per-shard
/// WAL bandwidth, load imbalance) plus one shard-kill chaos arm: every
/// shard power-failed twice mid-run, while the history check inside
/// `run_scale` proves exactly-once, the committed prefix, and
/// cross-shard WFR under recovery. Gate: 8 shards sustain >=
/// [`SHARD_FLOOR`]x the single-shard commits/s.
pub fn s2_shard_scaling(r: &mut Report) {
    gated("s2-shard-scaling", r, |r| {
        let mut t = sharded_table(
            "S2 — sharded home-server federation: group-commit scale-out at 10k clients",
            "URN space hash-partitioned across N shards (independent WAL + commit engine each); \
             cross-shard verifier sessions assert MR/WFR. Chaos arm: 2 scripted power failures \
             per shard. Gate: 8 shards >= 3x 1-shard commits/s.",
        );
        let base = ScaleConfig::new(1, S_CLIENTS, S_OPS).with_policy(GROUP_POLICY);
        let arms: [Arm<'_>; 5] = [
            ("shards1", base.with_shards(1), &[], None),
            ("shards2", base.with_shards(2), &[], None),
            ("shards4", base.with_shards(4), &[], None),
            ("shards8", base.with_shards(8), &[], Some("s2.scaleout_8x1")),
            (
                "chaos4x2",
                base.with_shards(4).with_shard_crashes(2),
                &["crashes"],
                None,
            ),
        ];
        let outs = run_arms(r, &mut t, "s2", &arms)?;
        let (one, eight) = (outs[0].commits_per_s(), outs[3].commits_per_s());
        let scaleout = eight / one.max(1e-9);
        if scaleout < SHARD_FLOOR {
            return Err(format!(
                "8 shards only {scaleout:.2}x one shard ({eight:.0} vs {one:.0} commits/s; \
                 gate >= {SHARD_FLOOR}x)"
            ));
        }
        r.table(&t);
        Ok(())
    });
}

/// Required commits/s gain of the balanced arm over the static-routing
/// baseline (the PR 7 s2 8-shard figure, re-run here as arm one).
pub const S3_SPEEDUP_FLOOR: f64 = 1.25;
/// Required realized commit-load imbalance of the balanced arm.
pub const S3_IMBALANCE_CEIL: f64 = 1.30;

/// The `s3-hot-balance` experiment: hot-set load balancing at 10k
/// clients x 8 shards. Three arms at matched load:
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
///    rebalancer. Gates: realized imbalance <= [`S3_IMBALANCE_CEIL`]
///    and the plane actually exercised (replica reads and migrations
///    > 0).
///
/// The matched-load arms share an arrival-limited duration floor
/// (every client starts inside the same 1.6 s burst window and the
/// slowest links set the tail), so they measure *imbalance*, not
/// capacity. The saturated pair (**static2x**, **balanced2x**) doubles
/// ops/client inside the same window, so it doubles the offered rate:
/// the static partition's hot shard saturates and its backlog sets the
/// run length, while the balanced plane spreads the same offered load
/// across the federation. Gate: balanced-2x commits/s >=
/// [`S3_SPEEDUP_FLOOR`]x the static arm.
///
/// A last chaos arm re-runs the 4-shard 2-crash soak with replication
/// on: volatile replicas die with their holder and are republished next
/// epoch, while `run_scale`'s history check (exactly-once, the
/// committed prefix in the recovered executed sets, empty client logs)
/// must hold.
pub fn s3_hot_balance(r: &mut Report) {
    gated("s3-hot-balance", r, |r| {
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
        let stat = ScaleConfig::new(1, S_CLIENTS, S_OPS)
            .with_policy(GROUP_POLICY)
            .with_shards(8);
        let balanced = (stat.with_objects(OBJECTS).with_replication(HOT_K))
            .with_rebalancing(SimDuration::from_millis(50));
        let twice = |c: ScaleConfig| ScaleConfig {
            ops_per_client: 2 * S_OPS,
            ..c
        };
        let plane: &[&str] = &[
            "replica_reads",
            "replicas_published",
            "migrations",
            "redirects",
        ];
        let arms: [Arm<'_>; 6] = [
            ("static", stat, &[], None),
            ("spread", stat.with_objects(OBJECTS), &[], None),
            (
                "balanced",
                balanced,
                plane,
                Some("s3.speedup_balanced_vs_static"),
            ),
            ("static2x", twice(stat), &[], None),
            (
                "balanced2x",
                twice(balanced),
                &[],
                Some("s3.speedup_loaded_vs_baseline"),
            ),
            (
                "chaos4x2",
                (stat.with_shards(4).with_shard_crashes(2))
                    .with_objects(OBJECTS)
                    .with_replication(HOT_K),
                &["crashes", "replica_reads"],
                None,
            ),
        ];
        let outs = run_arms(r, &mut t, "s3", &arms)?;
        let (stat, balanced, balanced2x) = (&outs[0], &outs[2], &outs[4]);
        let imbalance = hundredths(balanced.measured_imbalance_x100);
        if imbalance > S3_IMBALANCE_CEIL {
            return Err(format!(
                "balanced arm realized imbalance {imbalance:.2}x (gate <= {S3_IMBALANCE_CEIL}x; \
                 static baseline ran at {:.2}x)",
                hundredths(stat.measured_imbalance_x100)
            ));
        }
        if balanced.replica_reads == 0 || balanced.migrations == 0 {
            return Err("the balanced arm served no replica read or made no migration".into());
        }
        let speedup = balanced2x.commits_per_s() / stat.commits_per_s().max(1e-9);
        if speedup < S3_SPEEDUP_FLOOR {
            return Err(format!(
                "balanced-2x arm only {speedup:.2}x the static baseline commits/s \
                 ({:.0} vs {:.0}; gate >= {S3_SPEEDUP_FLOOR}x)",
                balanced2x.commits_per_s(),
                stat.commits_per_s()
            ));
        }
        r.table(&t);
        Ok(())
    });
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
