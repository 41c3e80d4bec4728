//! The Rover home server.
//!
//! Every object has a home server: the primary copy lives here, commit
//! versions are assigned here, and conflicting exports are detected and
//! reconciled here (paper §2). The server also provides the server-side
//! RDO execution environment, so clients can ship function instead of
//! data (`Invoke`). Requests are executed at-most-once: a dedup cache
//! keyed by (client, request-id) replays the original reply to
//! retransmissions.
//!
//! The failure model covers the *server* machine too: with a write-ahead
//! commit log attached ([`Server::attach_wal`]), every executed request
//! is appended as a framed [`CommitRecord`] and forced to stable storage
//! before its reply leaves the host. [`Server::crash_restart`] drops all
//! volatile state and rebuilds the store, the write-ordering floors, the
//! acknowledgement floors, the executed-id sets, and the dedup cache
//! from the newest checkpoint plus log replay — so retransmissions of
//! pre-crash commits replay their original replies instead of
//! re-executing, and the exactly-once invariants survive a restart.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rover_log::{FlushPolicy, FlushReceipt, LogError, OpLog, RecordKind, StableStore};
use rover_net::{HostSched, LinkId, Net, SchedRef, SmtpRelay, SmtpRelayRef};
use rover_sim::Sim;
use rover_wire::{
    decode_commit_batch, encode_commit_batch, Bytes, CommitRecord, Encoder, Envelope, HostId,
    MigrateRecord, MsgKind, OpStatus, QrpcReply, QrpcRequest, ReplicaFrame, ReplyBatch, RoverOp,
    Version, Wire,
};

use crate::config::{CommitPolicy, ServerConfig};
use crate::dedup::DedupCache;
use crate::events::ServerEvent;
use crate::hotset::HotSet;
use crate::object::RoverObject;
use crate::payload::{ExportPayload, InvokePayload};
use crate::resolve::{RejectResolver, Resolution, Resolver};
use crate::shard::ShardMap;
use crate::urn::Urn;

/// Shared handle to a server.
pub type ServerRef = Rc<RefCell<Server>>;

type ServerListener = Rc<RefCell<dyn FnMut(&mut Sim, &ServerEvent)>>;

/// Write-ahead-log record kind: a full state snapshot (the `ROV1`
/// checkpoint image produced by [`Server::export_store`]).
const REC_CHECKPOINT: RecordKind = RecordKind::Other(0x11);
/// Write-ahead-log record kind: one group-commit batch — several
/// [`CommitRecord`]s framed as a *single* record
/// ([`rover_wire::encode_commit_batch`]), so the frame CRC covers the
/// whole group and a torn tail discards the batch atomically.
const REC_COMMIT_BATCH: RecordKind = RecordKind::Other(0x12);
/// Write-ahead-log record kind: one [`MigrateRecord`] — the rebalancer
/// re-homing an object (tombstone on the source shard's log, install
/// on the target's), so both logs replay to the post-migration store.
const REC_MIGRATE: RecordKind = RecordKind::Other(0x13);

/// Tracker slots per replication unit: the hot tracker holds
/// `4 × replicate_hot` counters (min 8) so the published top-K comes
/// from a set with churn headroom.
fn hot_capacity(k: usize) -> usize {
    (4 * k).max(8)
}

/// Deterministic crash points in the commit path, scripted with
/// [`Server::script_crash`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// Crash before the commit record is appended: the execution's
    /// effects are lost with the volatile state; after recovery the
    /// client's retransmission executes freshly (a *first* execution —
    /// nothing was ever committed or replied).
    BeforeAppend,
    /// Crash after the commit record has *staged* into the pending batch
    /// but before the group flush, at any batch size (a group of one
    /// included): nothing is durable, no reply ever left, and after
    /// recovery the client's retransmission executes freshly.
    AfterAppend,
}

/// The attached write-ahead commit log.
struct Wal {
    /// Framed, checksummed device; flushed manually so each commit's
    /// [`FlushReceipt`] can be charged to the virtual clock.
    log: OpLog<Box<dyn StableStore>>,
    /// Commit records appended since the last checkpoint.
    commits_since_ckpt: usize,
}

/// One executed-but-not-yet-durable commit staged in the pending
/// group-commit batch. Its reply (cached in
/// `rec.reply`) may not leave the host before the group flush
/// completes.
struct PendingCommit {
    /// The durable record this commit contributes to the batch; the
    /// object image is captured at stage time, so later staged commits
    /// to the same object never alias.
    rec: CommitRecord,
    /// Reply priority (the request's).
    prio: rover_wire::Priority,
    /// Deferred cache-invalidation fan-out ([`ServerConfig::callbacks`]);
    /// importers are notified only once the commit is durable.
    notify: Option<(Urn, Version)>,
    /// When the commit staged (start of its `server.flush_wait_ms`).
    staged_at: rover_sim::SimTime,
    /// When this commit's execute + reply-marshal CPU work completes;
    /// the reply leaves at the *later* of this and the flush.
    cpu_done: rover_sim::SimTime,
}

/// A request past the admission gates, with what every later stage
/// needs decoded exactly once: the admit → execute → stage seam.
struct Admitted {
    req: QrpcRequest,
    /// `req.urn` parsed; `None` is answered `Rejected` at execution.
    urn: Option<Urn>,
    /// An export's decoded payload; `None` for other operations and for
    /// an export whose payload does not decode (answered `Rejected`).
    export: Option<ExportPayload>,
}

impl Admitted {
    fn new(req: QrpcRequest) -> Admitted {
        let urn = Urn::parse(&req.urn).ok();
        let export = match &req.op {
            RoverOp::Export { .. } => ExportPayload::from_shared(&req.payload).ok(),
            _ => None,
        };
        Admitted { req, urn, export }
    }

    /// Ordered-write sequence this request consumes (0 = unordered);
    /// recorded in the commit record so the session floor recovers.
    fn ordered_seq(&self) -> u64 {
        self.export.as_ref().map_or(0, |p| p.session_seq)
    }

    /// Builds the durable record for this request's execution. Only a
    /// successful export changes the store, and its reply payload *is*
    /// the new object image, marshalled at execute time: the record
    /// shares those bytes, so commits staged behind it never alias it.
    fn commit_record(&self, reply: &QrpcReply) -> CommitRecord {
        let committed = matches!(self.req.op, RoverOp::Export { .. })
            && matches!(reply.status, OpStatus::Ok | OpStatus::Resolved);
        CommitRecord {
            client: self.req.client,
            req_id: self.req.req_id,
            acked_below: self.req.acked_below,
            session: self.req.session,
            session_seq: self.ordered_seq(),
            urn: self.req.urn.clone(),
            obj: committed.then(|| reply.payload.clone()),
            reply: reply.clone(),
        }
    }
}

/// How replies reach one client.
struct ReplyRoute {
    /// Candidate links, best first.
    links: Vec<LinkId>,
    /// SMTP relay fallback: used when every link is down, so the reply
    /// is spooled instead of waiting (split-phase QRPC).
    smtp: Option<SmtpRelayRef>,
    /// Per-client outbound scheduler: replies carry their request's
    /// priority, so a foreground import's reply overtakes queued bulk
    /// prefetch replies (the server end of the paper's network
    /// scheduler).
    sched: Option<SchedRef>,
}

/// A Rover home server.
pub struct Server {
    cfg: ServerConfig,
    net: Net,
    routes: HashMap<u32, ReplyRoute>,
    store: HashMap<Urn, RoverObject>,
    resolvers: HashMap<String, Box<dyn Resolver>>,
    /// At-most-once replay cache, FIFO-bounded, together with the
    /// per-client acknowledgement floors piggybacked on requests
    /// (`QrpcRequest::acked_below`): every request id strictly below a
    /// floor had its reply processed at the client, so its dedup entry
    /// can never be needed again and is safe to evict.
    dedup: DedupCache,
    /// Request ids this server has executed, per client, pruned below
    /// the acknowledgement floor. Detects the unsafe case where a
    /// request re-executes because its dedup entry was evicted early.
    executed: HashMap<u32, std::collections::BTreeSet<u64>>,
    /// Per (client, session): next admissible ordered-write sequence.
    expected_seq: HashMap<(u32, u64), u64>,
    /// Ordered writes held for a predecessor.
    held: HashMap<(u32, u64), BTreeMap<u64, Admitted>>,
    /// Cross-shard writes-follow-reads holds: requests whose carried
    /// session read-vector names a committed version this shard has not
    /// reached yet, keyed by the object they wait on. Drained when that
    /// object's version advances; volatile (cleared by recovery — the
    /// owning clients retransmit).
    wfr_held: HashMap<Urn, Vec<QrpcRequest>>,
    /// Single-CPU serialization horizon for execution costs.
    cpu_free_at: rover_sim::SimTime,
    /// Disk serialization horizon for group flushes: the commit path is
    /// pipelined, so the CPU executes the next requests while the disk
    /// syncs the previous batch.
    disk_free_at: rover_sim::SimTime,
    /// Executed commits staged for the next group flush; always empty
    /// between requests under a group of one.
    pending: Vec<PendingCommit>,
    /// True while a window timer for the current pending batch is
    /// outstanding.
    group_timer_armed: bool,
    /// Window-timer generation: a timer only fires for the batch that
    /// armed it (a size-cap flush plus a fresh batch would otherwise
    /// be cut short by the stale timer).
    group_timer_gen: u64,
    /// Bumped on every crash/recovery; in-flight flush-dispatch and
    /// window-timer events captured under an older incarnation no-op.
    incarnation: u64,
    /// Clients holding an imported copy of each object (callback set).
    importers: HashMap<Urn, std::collections::HashSet<u32>>,
    /// Volatile read replicas of hot objects homed on *other* shards,
    /// each paired with the publication epoch its frame carried.
    /// Replicas die with a crash (never recovered) and age out when
    /// their home stops refreshing them.
    replicas: HashMap<Urn, (RoverObject, u64)>,
    /// Approximate top-K tracker over this shard's import/export
    /// traffic; `Some` only when replication is on
    /// (`cfg.replicate_hot > 0` and shard routing attached).
    hotset: Option<HotSet>,
    /// Federation routing: a clone of the shared [`ShardMap`] (its
    /// dynamic plane is shared across clones) plus this server's shard
    /// index. `None` outside a federation — every hot-set/replica/
    /// migration path below is then inert.
    shard_routing: Option<(ShardMap, usize)>,
    /// Replication epochs this server has run.
    repl_epoch: u64,
    /// Imports served from a peer replica (lifetime).
    replica_reads_n: u64,
    /// Requests whose RDO method code failed to parse (lifetime;
    /// hostile or corrupt script text, distinct from scripts that ran
    /// and failed).
    parse_rejected_n: u64,
    /// Successful export commits executed here (lifetime; the load
    /// sampler reads this even without a dynamic routing plane).
    commits_n: u64,
    /// Accepted authentication tokens; `None` disables authentication.
    accepted_tokens: Option<std::collections::HashSet<u64>>,
    /// Write-ahead commit log; `None` runs the server volatile (the
    /// pre-durability behaviour).
    wal: Option<Wal>,
    /// True between a crash and the completion of recovery: the host is
    /// down and every arriving envelope is dropped.
    crashed: bool,
    /// Scripted crash: fires at the Nth WAL-bound commit (1-based,
    /// monotone across restarts) at the given point.
    crash_at: Option<(u64, CrashPoint)>,
    /// WAL-bound commits processed across the server's lifetime (keeps
    /// counting through restarts; the scripted-crash ordinal).
    commit_ordinal: u64,
    /// Commits this server has flushed durably (lifetime; keeps counting
    /// through restarts). Per server: the `server.wal_appends` counter
    /// sums every shard sharing the [`Sim`].
    flushed_commits: u64,
    /// Durability-plane event listeners.
    listeners: Vec<ServerListener>,
}

impl Server {
    /// Creates a server and registers its request handler on the
    /// network.
    pub fn new(net: &Net, cfg: ServerConfig) -> ServerRef {
        let server = Rc::new(RefCell::new(Server {
            cfg,
            net: net.clone(),
            routes: HashMap::new(),
            store: HashMap::new(),
            resolvers: HashMap::new(),
            dedup: DedupCache::default(),
            executed: HashMap::new(),
            expected_seq: HashMap::new(),
            held: HashMap::new(),
            wfr_held: HashMap::new(),
            cpu_free_at: rover_sim::SimTime::ZERO,
            disk_free_at: rover_sim::SimTime::ZERO,
            pending: Vec::new(),
            group_timer_armed: false,
            group_timer_gen: 0,
            incarnation: 0,
            importers: HashMap::new(),
            replicas: HashMap::new(),
            hotset: None,
            shard_routing: None,
            repl_epoch: 0,
            replica_reads_n: 0,
            parse_rejected_n: 0,
            commits_n: 0,
            accepted_tokens: None,
            wal: None,
            crashed: false,
            crash_at: None,
            commit_ordinal: 0,
            flushed_commits: 0,
            listeners: Vec::new(),
        }));
        let weak = Rc::downgrade(&server);
        let host = server.borrow().cfg.host;
        net.register_host(
            host,
            rover_net::wrap_reassembly(move |sim: &mut Sim, _net: &Net, env: Envelope| {
                let Some(sv) = weak.upgrade() else { return };
                match env.kind {
                    MsgKind::Request => Server::on_request(&sv, sim, env),
                    MsgKind::Replica => Server::on_replica(&sv, sim, env),
                    _ => {}
                }
            }),
        );
        server
    }

    /// Installs (or replaces) an object; assigns version 1 if the object
    /// was never committed. Returns the stored version.
    pub fn put_object(&mut self, mut obj: RoverObject) -> Version {
        if obj.version == Version(0) {
            obj.version = Version(1);
        }
        let v = obj.version;
        self.store.insert(obj.urn.clone(), obj);
        v
    }

    /// Returns the stored object, if any.
    pub fn get_object(&self, urn: &Urn) -> Option<&RoverObject> {
        self.store.get(urn)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }

    /// Declares a link used to reach `client`; call once per candidate
    /// interface, best quality first.
    pub fn add_route(&mut self, client: HostId, link: LinkId) {
        let host = self.cfg.host;
        let net = self.net.clone();
        let route = self.routes.entry(client.0).or_insert_with(|| ReplyRoute {
            links: Vec::new(),
            smtp: None,
            sched: None,
        });
        route.links.push(link);
        let mode = self.cfg.sched_mode;
        let mtu = self.cfg.mtu;
        let sched = route.sched.get_or_insert_with(|| {
            let s = HostSched::new(host, mode);
            HostSched::set_mtu(&s, mtu);
            s
        });
        HostSched::attach_link(sched, &net, link);
    }

    /// Declares an SMTP fallback for replies to `client`.
    pub fn add_smtp_route(&mut self, client: HostId, relay: SmtpRelayRef) {
        self.routes
            .entry(client.0)
            .or_insert_with(|| ReplyRoute {
                links: Vec::new(),
                smtp: None,
                sched: None,
            })
            .smtp = Some(relay);
    }

    /// Registers the conflict resolver for an object type. Types without
    /// a registered resolver reject all conflicts.
    pub fn register_resolver(&mut self, type_name: &str, resolver: Box<dyn Resolver>) {
        self.resolvers.insert(type_name.to_owned(), resolver);
    }

    /// Requires every request to present one of `tokens` (the paper's
    /// server "authenticates requests from client applications").
    /// Unauthenticated requests are answered with `Rejected`.
    pub fn require_auth(&mut self, tokens: &[u64]) {
        self.accepted_tokens = Some(tokens.iter().copied().collect());
    }

    // --- hot-set replication & rebalancing ------------------------------

    /// Joins this server to a shard federation: `map` is a clone of the
    /// shared routing table (its dynamic plane, when attached, is
    /// shared across clones) and `shard` this server's index in it.
    /// When [`ServerConfig::replicate_hot`] is non-zero this also arms
    /// the hot-set tracker; with it zero the server merely learns its
    /// place in the map (needed to answer `WrongShard` for migrated
    /// objects) and the replication plane stays fully inert.
    pub fn attach_shard_routing(&mut self, map: ShardMap, shard: usize) {
        if self.cfg.replicate_hot > 0 {
            self.hotset = Some(HotSet::new(hot_capacity(self.cfg.replicate_hot)));
        }
        self.shard_routing = Some((map, shard));
    }

    /// Whether the routing table homes `urn` on a different shard — the
    /// object either hashes elsewhere or was migrated away from here.
    fn homed_elsewhere(&self, urn: &str) -> bool {
        self.shard_routing
            .as_ref()
            .is_some_and(|(map, idx)| map.shard_for(urn) != *idx)
    }

    /// Successful export commits executed by this server.
    pub fn commit_count(&self) -> u64 {
        self.commits_n
    }

    /// Imports served from a peer replica instead of the home store.
    pub fn replica_reads(&self) -> u64 {
        self.replica_reads_n
    }

    /// The hot tracker's current view restricted to objects actually
    /// homed (and stored) here, hottest first — the rebalancer's
    /// migration candidates.
    pub fn hot_home_top(&self) -> Vec<(String, u64)> {
        let Some(h) = &self.hotset else {
            return Vec::new();
        };
        h.top()
            .into_iter()
            .filter(|(name, _)| {
                !self.homed_elsewhere(name)
                    && Urn::parse(name)
                        .ok()
                        .is_some_and(|u| self.store.contains_key(&u))
            })
            .collect()
    }

    /// Requests queued at this server right now: staged group commits
    /// plus ordered-write and writes-follow-reads holds.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
            + self.held.values().map(|m| m.len()).sum::<usize>()
            + self.wfr_held.values().map(Vec::len).sum::<usize>()
    }

    /// Handles an incoming [`ReplicaFrame`] from a federation peer:
    /// installs the image as a volatile read replica (never shadowing
    /// an object homed here) and registers it in the shared directory.
    fn on_replica(sv: &ServerRef, sim: &mut Sim, env: Envelope) {
        if sv.borrow().crashed {
            sim.stats.incr("server.dropped_while_crashed");
            return;
        }
        let Ok(frame) = ReplicaFrame::from_shared(&env.body) else {
            sim.stats.incr("server.bad_request");
            sim.stats.incr("wire.decode_rejected.replica");
            return;
        };
        let (Ok(urn), Ok(obj)) = (Urn::parse(&frame.urn), RoverObject::from_shared(&frame.obj))
        else {
            sim.stats.incr("server.bad_request");
            sim.stats.incr("wire.decode_rejected.replica");
            return;
        };
        let mut s = sv.borrow_mut();
        // The home (or migration target) serves from its store; a
        // replica of an object homed here would only shadow it.
        if !s.homed_elsewhere(&frame.urn) || s.store.contains_key(&urn) {
            return;
        }
        let newer = s
            .replicas
            .get(&urn)
            .is_none_or(|(old, _)| obj.version >= old.version);
        if !newer {
            return;
        }
        s.replicas.insert(urn, (obj, frame.epoch));
        if let Some((map, idx)) = &s.shard_routing {
            map.publish_replica(&frame.urn, *idx, frame.version.0);
        }
        sim.stats.incr("server.replicas_installed");
    }

    /// One replication epoch: ages out peer replicas whose home stopped
    /// refreshing them (bounding staleness to one epoch), folds the hot
    /// tracker's activity into the stats, decays it, and publishes this
    /// shard's K hottest home objects to every federation peer as
    /// version-stamped volatile replicas. A no-op when replication is
    /// off or the host is down.
    pub fn replication_epoch(sv: &ServerRef, sim: &mut Sim) {
        let (frames, peers, host) = {
            let mut guard = sv.borrow_mut();
            let s = &mut *guard;
            if s.crashed || s.cfg.replicate_hot == 0 {
                return;
            }
            let Some((map, idx)) = s.shard_routing.clone() else {
                return;
            };
            s.repl_epoch += 1;
            let epoch = s.repl_epoch;
            let min_epoch = epoch.saturating_sub(1);
            let stale: Vec<Urn> = s
                .replicas
                .iter()
                .filter(|(_, (_, e))| *e < min_epoch)
                .map(|(u, _)| u.clone())
                .collect();
            for u in stale {
                s.replicas.remove(&u);
                map.retract_replica(u.as_str(), idx);
                sim.stats.incr("server.replicas_aged_out");
            }
            let mut frames = Vec::new();
            if let Some(h) = &mut s.hotset {
                let (touched, evicted) = h.take_activity();
                sim.stats.add("server.hot_tracked", touched);
                sim.stats.add("server.hot_evicted", evicted);
                let top = h.top();
                h.decay();
                for (name, _) in top {
                    if frames.len() >= s.cfg.replicate_hot {
                        break;
                    }
                    // Publish only objects homed (and present) here.
                    if map.shard_for(&name) != idx {
                        continue;
                    }
                    let Some(obj) = Urn::parse(&name).ok().and_then(|u| s.store.get(&u)) else {
                        continue;
                    };
                    frames.push(ReplicaFrame {
                        urn: name,
                        version: obj.version,
                        epoch,
                        obj: obj.to_bytes(),
                    });
                }
            }
            let peers: Vec<HostId> = map
                .hosts()
                .iter()
                .copied()
                .filter(|h| *h != s.cfg.host)
                .collect();
            (frames, peers, s.cfg.host)
        };
        for f in &frames {
            let body = f.to_bytes();
            for &p in &peers {
                let env = Envelope {
                    kind: MsgKind::Replica,
                    src: host,
                    dst: p,
                    body: body.clone(),
                };
                Server::send_callback(sv, sim, p, env);
                sim.stats.incr("server.replicas_published");
            }
        }
    }

    /// Appends and syncs one migration record and charges the flush
    /// serially; a no-op without a WAL (volatile server — the move is
    /// volatile too).
    fn log_migrate(
        &mut self,
        now: rover_sim::SimTime,
        urn: &str,
        obj: Option<Bytes>,
    ) -> Result<(), LogError> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let rec = MigrateRecord {
            urn: urn.to_string(),
            obj,
        };
        wal.log.append(REC_MIGRATE, rec.to_bytes())?;
        let receipt = wal.log.flush()?;
        wal.commits_since_ckpt += 1;
        let cost = self.cfg.storage.flush_cost(receipt);
        self.charge_serial(now, cost);
        Ok(())
    }

    /// The source side of a rebalancing move: flushes any staged group
    /// (WAL order — every commit made here precedes the departure),
    /// removes `urn` from the store, appends a durable migration
    /// tombstone, and returns the object image for
    /// [`Server::install_migrated`] on the target. Writes-follow-reads
    /// holds keyed on the object re-enter admission: with the object
    /// homed elsewhere its floors are no longer this shard's to
    /// enforce, and ordered exports now answer `WrongShard` so their
    /// clients re-route. Returns `None` when the host is down or the
    /// object is not stored here.
    pub fn migrate_out(sv: &ServerRef, sim: &mut Sim, urn: &Urn) -> Option<RoverObject> {
        if sv.borrow().crashed {
            return None;
        }
        if !sv.borrow().pending.is_empty() {
            Server::group_flush(sv, sim);
            if sv.borrow().crashed {
                return None;
            }
        }
        let obj = sv.borrow_mut().store.remove(urn)?;
        let now = sim.now();
        Server::write_or_crash(sv, sim, "migrate-out append", |s| {
            s.log_migrate(now, urn.as_str(), None)
        })
        .ok()?;
        sim.stats.incr("server.migrated_out");
        // Free every hold waiting on the departed object; re-admission
        // answers them under the post-migration routing.
        let freed = sv.borrow_mut().wfr_held.remove(urn).unwrap_or_default();
        for r in freed {
            sim.stats.incr("server.wfr_drained");
            Server::admit(sv, sim, r);
        }
        Some(obj)
    }

    /// The target side of a rebalancing move: installs the migrated
    /// object into the store (displacing any replica of it held here),
    /// appends the durable install record, and drains holds the
    /// arrival satisfies. Returns `false` when the host is down (the
    /// caller must retry or abort the move — the source has already
    /// logged the tombstone).
    pub fn install_migrated(sv: &ServerRef, sim: &mut Sim, obj: RoverObject) -> bool {
        if sv.borrow().crashed {
            return false;
        }
        let urn = obj.urn.clone();
        let bytes = obj.to_bytes();
        {
            let mut s = sv.borrow_mut();
            s.replicas.remove(&urn);
            if let Some((map, idx)) = &s.shard_routing {
                map.retract_replica(urn.as_str(), *idx);
            }
            s.store.insert(urn.clone(), obj);
        }
        let now = sim.now();
        let res = Server::write_or_crash(sv, sim, "migrate-in append", |s| {
            s.log_migrate(now, urn.as_str(), Some(bytes))
        });
        if res.is_err() {
            return false;
        }
        sim.stats.incr("server.migrated_in");
        Server::drain_wfr(sv, sim, Some(&urn));
        true
    }

    /// Serializes the server's durable state (for checkpointing /
    /// restart): the `ROV1` sections (object store plus per-session
    /// write-ordering floors — ordering state must survive a restart or
    /// ordered exports issued after it would wait forever for
    /// predecessors the old incarnation already admitted), followed by a
    /// `ROV2` extension carrying the at-most-once state: per-client
    /// acknowledgement floors, executed-id sets, and the dedup replay
    /// cache in eviction (FIFO) order. Dedup entries already below their
    /// client's floor are pruned from the snapshot (floor-driven): the
    /// protocol answers below-floor arrivals from committed state, so
    /// those replies can never be needed again.
    ///
    /// The held out-of-order write buffer is deliberately *not*
    /// serialized: held requests were never executed or replied to, so
    /// dropping them is safe — the owning clients retransmit and the
    /// ordering gate re-admits them (counted as
    /// `server.held_dropped_on_recovery` by [`Server::crash_restart`]).
    pub fn export_store(&self) -> Vec<u8> {
        crate::checkpoint::encode_checkpoint(&self.checkpoint_image())
    }

    /// Snapshots the durable state into a [`CheckpointImage`] in
    /// canonical order (see [`Server::export_store`] for what is and is
    /// not included).
    fn checkpoint_image(&self) -> crate::checkpoint::CheckpointImage {
        let mut objects: Vec<RoverObject> = self.store.values().cloned().collect();
        objects.sort_by(|a, b| a.urn.cmp(&b.urn));
        let mut expected_seq: Vec<((u32, u64), u64)> =
            self.expected_seq.iter().map(|(k, v)| (*k, *v)).collect();
        expected_seq.sort();
        let mut ack_floors: Vec<(u32, u64)> = self.dedup.floors().collect();
        ack_floors.sort();
        let mut executed: Vec<(u32, Vec<u64>)> = self
            .executed
            .iter()
            .map(|(c, ids)| (*c, ids.iter().copied().collect()))
            .collect();
        executed.sort_by_key(|(c, _)| *c);
        // Only pinned entries travel: the protocol answers below-floor
        // arrivals from committed state, so an acknowledged reply is
        // never needed again.
        let dedup: Vec<((u32, u64), QrpcReply)> = self
            .dedup
            .pinned()
            .map(|(key, reply)| (key, reply.clone()))
            .collect();
        crate::checkpoint::CheckpointImage {
            objects,
            expected_seq,
            ack_floors,
            executed,
            dedup,
        }
    }

    /// Restores state written by [`Server::export_store`], *replacing*
    /// the server's state wholesale: the store, ordering floors, and all
    /// derived at-most-once state (dedup cache, acknowledgement floors,
    /// executed-id sets, held writes, callback sets) are cleared before
    /// the snapshot is installed, so importing into a warm server cannot
    /// leave stale entries behind. Object versions are preserved, so
    /// clients holding cached copies remain consistent across the
    /// restart. Snapshots that predate the `ROV2` extension restore with
    /// an empty dedup cache (retransmissions of already-committed
    /// exports then surface as conflicts and go through resolution).
    pub fn import_store(&mut self, bytes: &[u8]) -> Result<usize, crate::RoverError> {
        // Parse everything before touching any state, so a truncated
        // snapshot cannot leave the server half-replaced.
        let img = crate::checkpoint::decode_checkpoint(bytes)?;
        self.clear_state();
        let loaded = img.objects.len();
        for obj in img.objects {
            self.store.insert(obj.urn.clone(), obj);
        }
        self.expected_seq.extend(img.expected_seq);
        self.dedup.restore_floors(img.ack_floors);
        for (client, ids) in img.executed {
            self.executed.insert(client, ids.into_iter().collect());
        }
        for (key, reply) in img.dedup {
            self.dedup.insert(key, reply);
        }
        Ok(loaded)
    }

    /// Drops every piece of volatile server state: the store, ordering
    /// floors, and all derived at-most-once bookkeeping.
    fn clear_state(&mut self) {
        self.store.clear();
        self.expected_seq.clear();
        self.dedup.clear();
        self.executed.clear();
        self.held.clear();
        self.wfr_held.clear();
        self.importers.clear();
        // Replicas are volatile by contract: gone locally, and the
        // shared directory forgets this holder so no client routes a
        // read here until the next epoch republishes.
        self.replicas.clear();
        if let Some((map, idx)) = &self.shard_routing {
            map.drop_replicas_of(*idx);
        }
        if self.hotset.is_some() {
            self.hotset = Some(HotSet::new(hot_capacity(self.cfg.replicate_hot)));
        }
    }

    // --- write-ahead commit log -----------------------------------------

    /// Registers a durability-plane event listener
    /// ([`ServerEvent`]: crash, recovery, checkpoint).
    pub fn on_event<F>(sv: &ServerRef, f: F)
    where
        F: FnMut(&mut Sim, &ServerEvent) + 'static,
    {
        sv.borrow_mut().listeners.push(Rc::new(RefCell::new(f)));
    }

    fn emit(sv: &ServerRef, sim: &mut Sim, ev: ServerEvent) {
        let listeners = sv.borrow().listeners.clone();
        for l in listeners {
            (l.borrow_mut())(sim, &ev);
        }
    }

    /// Attaches a write-ahead commit log on `store`. From here on, every
    /// executed request is durable (commit record appended and synced)
    /// before its reply leaves the host, and checkpoints compact the log
    /// every [`ServerConfig::checkpoint_every`] commits.
    ///
    /// A fresh (empty) device is initialized with a checkpoint of the
    /// server's current state, so objects installed with
    /// [`Server::put_object`] before the attach survive a crash. A
    /// non-empty device is a *restart*: the server's state is replaced
    /// by checkpoint + log replay, exactly as [`Server::crash_restart`]
    /// would.
    pub fn attach_wal(
        sv: &ServerRef,
        sim: &mut Sim,
        store: Box<dyn StableStore>,
    ) -> Result<(), crate::RoverError> {
        if sv.borrow().wal.is_some() {
            return Err(crate::RoverError::Log("wal already attached".into()));
        }
        let log =
            OpLog::open_with(store, FlushPolicy::Manual, false).map_err(crate::RoverError::from)?;
        if log.is_empty() && log.tail_skipped_bytes() == 0 {
            sv.borrow_mut().wal = Some(Wal {
                log,
                commits_since_ckpt: 0,
            });
            Server::write_checkpoint(sv, sim).map_err(crate::RoverError::from)?;
            Ok(())
        } else {
            Server::recover_from_log(sv, sim, log, 0)
        }
    }

    /// Creates a server whose state is recovered from `store` (a device
    /// previously written by a WAL-attached server) and keeps the log
    /// attached. Equivalent to [`Server::new`] + [`Server::attach_wal`].
    pub fn recover(
        net: &Net,
        cfg: ServerConfig,
        sim: &mut Sim,
        store: Box<dyn StableStore>,
    ) -> Result<ServerRef, crate::RoverError> {
        let sv = Server::new(net, cfg);
        Server::attach_wal(&sv, sim, store)?;
        Ok(sv)
    }

    /// True once a write-ahead log is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Durable size of the write-ahead device in bytes (0 without one).
    pub fn wal_device_len(&self) -> u64 {
        self.wal.as_ref().map(|w| w.log.device_len()).unwrap_or(0)
    }

    /// Dedup replies the server is still obliged to keep: entries at or
    /// above their client's acknowledgement floor, which is also what
    /// every checkpoint re-serialises. (Acknowledged entries linger in
    /// memory up to [`ServerConfig::dedup_capacity`] but are not
    /// counted: they cost a checkpoint nothing.)
    pub fn dedup_entries(&self) -> usize {
        self.dedup.pinned_len()
    }

    /// True while the server is "down" (between a crash and recovery);
    /// arriving envelopes are dropped.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether this server has executed request `req` of `client` — the
    /// at-most-once witness the soak harness checks across restarts.
    /// Ids below the client's acknowledgement floor were pruned from the
    /// explicit set precisely because the client confirmed receiving
    /// their replies, so the floor itself vouches for them.
    pub fn executed_contains(&self, client: HostId, req: rover_wire::RequestId) -> bool {
        if req.0 < self.dedup.floor(client.0) {
            return true;
        }
        self.executed
            .get(&client.0)
            .is_some_and(|ex| ex.contains(&req.0))
    }

    /// Arms a deterministic crash: the server crashes at the `nth`
    /// WAL-bound commit (1-based, counted across the server's lifetime
    /// including past restarts) at the given [`CrashPoint`]. The host
    /// stays down — dropping all traffic — until
    /// [`Server::crash_restart`] recovers it.
    pub fn script_crash(&mut self, nth: u64, point: CrashPoint) {
        self.crash_at = Some((nth, point));
    }

    /// Cuts power to the server immediately — the soak harness's
    /// scheduled mid-traffic failure. Volatile state is dead; every
    /// envelope is dropped until [`Server::crash_restart`] brings the
    /// host back from the write-ahead device.
    pub fn crash_now(sv: &ServerRef, sim: &mut Sim) {
        Server::crash(sv, sim);
    }

    /// Marks the server crashed: volatile state is dead (recovery wipes
    /// it), and every envelope is dropped until recovery.
    fn crash(sv: &ServerRef, sim: &mut Sim) {
        let staged_lost = {
            let mut s = sv.borrow_mut();
            s.crashed = true;
            s.crash_at = None;
            // Staged-but-unflushed commits die with the volatile state:
            // no reply ever left for them, so their clients retransmit
            // and re-execute freshly after recovery.
            let staged_lost = s.pending.len() as u64;
            s.pending.clear();
            s.group_timer_armed = false;
            s.incarnation += 1;
            // Replicas die with the volatile state, and the shared
            // directory must stop routing reads at a dead holder.
            s.replicas.clear();
            if let Some((map, idx)) = &s.shard_routing {
                map.drop_replicas_of(*idx);
            }
            staged_lost
        };
        if staged_lost > 0 {
            sim.stats.add("server.staged_lost_on_crash", staged_lost);
        }
        sim.stats.incr("server.crashes");
        sim.trace("server", "crashed; dropping traffic until recovery");
        let durable_commits = sv.borrow().flushed_commits;
        Server::emit(sv, sim, ServerEvent::Crashed { durable_commits });
    }

    /// Should the scripted crash fire at `point` for commit `ordinal`?
    fn crash_due(&self, ordinal: u64, point: CrashPoint) -> bool {
        self.wal.is_some() && self.crash_at == Some((ordinal, point))
    }

    /// Simulates a machine failure and reboot: all volatile state is
    /// dropped (unsynced device bytes included), and the server is
    /// rebuilt from the write-ahead device — newest checkpoint first,
    /// then replay of every complete commit record after it. Held
    /// out-of-order writes are lost by design and counted
    /// (`server.held_dropped_on_recovery`); their clients retransmit.
    ///
    /// Requires an attached WAL ([`Server::attach_wal`]).
    pub fn crash_restart(sv: &ServerRef, sim: &mut Sim) -> Result<(), crate::RoverError> {
        let (store, held_dropped, wfr_dropped) = {
            let mut s = sv.borrow_mut();
            let Some(wal) = s.wal.take() else {
                return Err(crate::RoverError::Log(
                    "crash_restart requires an attached wal".into(),
                ));
            };
            let held_dropped: u64 = s.held.values().map(|m| m.len() as u64).sum();
            let wfr_dropped: u64 = s.wfr_held.values().map(|v| v.len() as u64).sum();
            let mut store = wal.log.into_store();
            store.drop_staged();
            s.clear_state();
            s.crashed = true;
            (store, held_dropped, wfr_dropped)
        };
        if held_dropped > 0 {
            sim.stats
                .add("server.held_dropped_on_recovery", held_dropped);
        }
        if wfr_dropped > 0 {
            sim.stats.add("server.wfr_dropped_on_recovery", wfr_dropped);
        }
        let log =
            OpLog::open_with(store, FlushPolicy::Manual, false).map_err(crate::RoverError::from)?;
        Server::recover_from_log(sv, sim, log, held_dropped)
    }

    /// Rebuilds server state from an opened write-ahead log: newest
    /// checkpoint snapshot, then replay of commit records after it.
    /// Installs the log, clears the crashed flag, charges the recovery
    /// scan to the virtual clock, and emits [`ServerEvent::Recovered`].
    fn recover_from_log(
        sv: &ServerRef,
        sim: &mut Sim,
        log: OpLog<Box<dyn StableStore>>,
        held_dropped: u64,
    ) -> Result<(), crate::RoverError> {
        let scan = log.scan_report();
        let truncated = scan.tail_skipped_bytes;
        let device_bytes = log.device_len();
        let (recovered, cost) = {
            let mut s = sv.borrow_mut();
            s.clear_state();
            let mut ckpt: Option<(u64, Bytes)> = None;
            for r in log.records() {
                if r.kind == REC_CHECKPOINT {
                    ckpt = Some((r.seq, r.payload.clone()));
                }
            }
            let ckpt_seq = match &ckpt {
                Some((seq, snap)) => {
                    s.import_store(snap)?;
                    *seq
                }
                None => 0,
            };
            let mut recovered = 0u64;
            for r in log.records() {
                if r.seq <= ckpt_seq {
                    continue;
                }
                if r.kind == REC_COMMIT_BATCH {
                    // One frame, many commits: the frame CRC already
                    // vouched for the whole group (a torn batch never
                    // parses as a record at all).
                    for c in decode_commit_batch(&r.payload).map_err(crate::RoverError::from)? {
                        s.apply_commit(c)?;
                        recovered += 1;
                    }
                } else if r.kind == REC_MIGRATE {
                    // Rebalancer move: tombstone (the object left this
                    // shard) or install (it arrived), replayed in log
                    // order against commits to the same object.
                    let m =
                        MigrateRecord::from_shared(&r.payload).map_err(crate::RoverError::from)?;
                    match m.obj {
                        Some(bytes) => {
                            let obj = RoverObject::from_shared(&bytes)
                                .map_err(crate::RoverError::from)?;
                            s.store.insert(obj.urn.clone(), obj);
                        }
                        None => {
                            if let Ok(u) = Urn::parse(&m.urn) {
                                s.store.remove(&u);
                            }
                        }
                    }
                } else {
                    // Not a kind this server writes (a log framing one
                    // commit per record, say): skipping it would drop
                    // commits silently.
                    return Err(crate::RoverError::Log(format!(
                        "unknown wal record kind {:?}",
                        r.kind
                    )));
                }
            }
            // Re-prune executed ids below the recovered floors, exactly
            // as the admission path would have.
            let Server {
                dedup, executed, ..
            } = &mut *s;
            for (client, floor) in dedup.floors() {
                if let Some(ex) = executed.get_mut(&client) {
                    *ex = ex.split_off(&floor);
                }
            }
            s.wal = Some(Wal {
                log,
                commits_since_ckpt: recovered as usize,
            });
            s.crashed = false;
            // The reboot's recovery scan reads the whole device; charge
            // it like any other serial work, starting from fresh CPU and
            // disk horizons (the old ones died with the machine). Any
            // staged batch or armed window timer is stale too.
            s.cpu_free_at = sim.now();
            s.disk_free_at = sim.now();
            s.pending.clear();
            s.group_timer_armed = false;
            s.incarnation += 1;
            let scan = s.cfg.cpu.marshal_cost(device_bytes as usize);
            let cost = s.charge_serial(sim.now(), scan);
            (recovered, cost)
        };
        sim.stats.add("server.recovered_commits", recovered);
        sim.stats.add("server.recovery_truncated_tail", truncated);
        if let Some(issue) = scan.issue {
            // Typed scan-rejection taxonomy: which invariant the torn
            // tail tripped (truncated_header / bad_magic / torn_payload
            // / checksum_mismatch / decompress_failed).
            sim.stats
                .incr(&format!("log.scan_rejected.{}", issue.reason()));
        }
        sim.stats.sample_duration("server.recovery_ms", cost);
        sim.trace(
            "server",
            format_args!(
                "recovered: {recovered} commit(s) replayed, {truncated} torn byte(s) discarded"
            ),
        );
        Server::emit(
            sv,
            sim,
            ServerEvent::Recovered {
                commits: recovered,
                truncated_tail: truncated,
                held_dropped,
            },
        );
        Ok(())
    }

    /// Installs one replayed commit record's effects.
    fn apply_commit(&mut self, c: CommitRecord) -> Result<(), crate::RoverError> {
        self.dedup.advance_floor(c.client.0, c.acked_below);
        self.executed
            .entry(c.client.0)
            .or_default()
            .insert(c.req_id.0);
        self.dedup.insert((c.client.0, c.req_id.0), c.reply);
        if c.session_seq > 0 {
            let e = self
                .expected_seq
                .entry((c.client.0, c.session.0))
                .or_insert(1);
            *e = (*e).max(c.session_seq + 1);
        }
        if let Some(bytes) = c.obj {
            let obj = RoverObject::from_shared(&bytes).map_err(crate::RoverError::from)?;
            self.store.insert(obj.urn.clone(), obj);
        }
        Ok(())
    }

    /// True while `key`'s original execution sits in the unflushed
    /// pending batch — its reply exists but is not yet durable, so it
    /// must not be replayed to a retransmission.
    fn pending_contains(&self, key: (u32, u64)) -> bool {
        self.pending
            .iter()
            .any(|p| p.rec.client.0 == key.0 && p.rec.req_id.0 == key.1)
    }

    /// Flushes the pending group: the whole batch becomes durable as one
    /// WAL record, then — and only then — its replies are scheduled.
    /// The flush occupies the *disk* timeline; the CPU keeps executing
    /// requests that stage into the next batch meanwhile (the pipeline).
    fn group_flush(sv: &ServerRef, sim: &mut Sim) {
        {
            let mut s = sv.borrow_mut();
            s.group_timer_armed = false;
            if s.crashed || s.pending.is_empty() {
                return;
            }
        }
        // A failed append or sync mid-batch is a crash: the device may
        // hold a torn frame (recovery discards the whole batch), and the
        // batch dies staged, so no reply in the group ever leaves.
        let flushed = Server::write_or_crash(sv, sim, "group flush", |s| {
            let payload = encode_commit_batch(s.pending.iter().map(|p| &p.rec));
            let n = s.pending.len();
            let wal = s.wal_mut()?;
            wal.log.append(REC_COMMIT_BATCH, payload)?;
            let receipt = wal.log.flush()?;
            wal.commits_since_ckpt += n;
            Ok(receipt)
        });
        let Ok(receipt) = flushed else { return };
        let batch = std::mem::take(&mut sv.borrow_mut().pending);
        let n = batch.len();
        sim.stats.incr("server.group_commits");
        sim.stats.add("server.wal_appends", n as u64);
        sim.stats.sample("server.group_commit_batch_size", n as f64);
        sim.stats
            .add("server.wal_flush_bytes", receipt.bytes as u64);
        // Serialize the flush on the disk horizon and hold every reply
        // in the group until both the flush and that commit's own CPU
        // work are done.
        let (done, fire_delay) = {
            let mut s = sv.borrow_mut();
            s.flushed_commits += n as u64;
            let cost = s.cfg.storage.flush_cost(receipt);
            let start = s.disk_free_at.max(sim.now());
            let done = start + cost;
            s.disk_free_at = done;
            let ready = batch
                .iter()
                .map(|p| p.cpu_done)
                .max()
                .unwrap_or(done)
                .max(done);
            (done, ready.since(sim.now()))
        };
        for p in &batch {
            sim.stats
                .sample_duration("server.flush_wait_ms", done.since(p.staged_at));
        }
        Server::emit(
            sv,
            sim,
            ServerEvent::GroupCommit {
                records: n,
                wal_bytes: receipt.bytes,
            },
        );
        let inc = sv.borrow().incarnation;
        let sv2 = sv.clone();
        sim.schedule_after(fire_delay, move |sim| {
            Server::dispatch_batch(&sv2, sim, inc, batch);
        });

        // Checkpoint when due — the pending batch is empty here, so the
        // snapshot can never strand half a group.
        let due = {
            let s = sv.borrow();
            s.cfg.checkpoint_every > 0
                && s.wal
                    .as_ref()
                    .is_some_and(|w| w.commits_since_ckpt >= s.cfg.checkpoint_every)
        };
        if due {
            let _ = Server::write_checkpoint(sv, sim);
        }
    }

    /// Graceful-shutdown path: durably flushes any staged group-commit
    /// batch, then writes a checkpoint so the next recovery replays
    /// nothing. Replies for the flushed batch are scheduled as usual —
    /// whether they leave before the process exits is immaterial, since
    /// the commits are durable and retransmissions replay their replies
    /// from the dedup table after restart.
    ///
    /// A no-op on a crashed server or one without a WAL.
    pub fn flush_and_checkpoint(sv: &ServerRef, sim: &mut Sim) {
        if sv.borrow().crashed || sv.borrow().wal.is_none() {
            return;
        }
        Server::group_flush(sv, sim);
        // A WAL fault during the flush crashes the server; don't follow
        // a failed flush with a checkpoint of un-replayable state.
        if !sv.borrow().crashed {
            let _ = Server::write_checkpoint(sv, sim);
        }
    }

    /// Sends the replies of one durably committed group, coalescing the
    /// per-client runs into single [`ReplyBatch`] envelopes, then fans
    /// out the group's deferred invalidation callbacks.
    fn dispatch_batch(sv: &ServerRef, sim: &mut Sim, inc: u64, batch: Vec<PendingCommit>) {
        {
            let s = sv.borrow();
            // A stale dispatch from before a crash: the commits are
            // durable (retransmissions replay from the recovered dedup
            // cache) but this incarnation's replies never left.
            if s.crashed || s.incarnation != inc {
                sim.stats
                    .add("server.reply_dropped_crashed", batch.len() as u64);
                return;
            }
        }
        let host = sv.borrow().cfg.host;
        // Group by client, preserving commit order within each run.
        let mut groups: Vec<(HostId, Vec<&PendingCommit>)> = Vec::new();
        for p in &batch {
            match groups.iter_mut().find(|(c, _)| *c == p.rec.client) {
                Some((_, v)) => v.push(p),
                None => groups.push((p.rec.client, vec![p])),
            }
        }
        for (client, ps) in groups {
            if ps.len() == 1 {
                Server::send_reply(sv, sim, client, ps[0].rec.reply.clone(), ps[0].prio);
            } else {
                // One envelope, many replies: the client decodes them in
                // order. The envelope travels at the most urgent of the
                // coalesced priorities.
                let prio = ps.iter().map(|p| p.prio).min().expect("non-empty run");
                let rb = ReplyBatch {
                    replies: ps.iter().map(|p| p.rec.reply.clone()).collect(),
                };
                let env = Envelope::reply_batch(host, client, &rb);
                sim.stats
                    .add("server.reply_coalesced", (ps.len() - 1) as u64);
                Server::route_reply(sv, sim, client, env, prio, ps.len() as u64);
            }
        }
        for p in &batch {
            if let Some((urn, version)) = &p.notify {
                Server::notify_importers(sv, sim, urn, *version, p.rec.client);
            }
        }
    }

    /// Group-commit staging: charges the execute/marshal CPU (no flush
    /// on the critical path), stages the commit record into the pending
    /// batch, and triggers a size-cap flush or arms the window timer.
    fn stage_commit(
        sv: &ServerRef,
        sim: &mut Sim,
        adm: &Admitted,
        reply: QrpcReply,
        steps: u64,
        ordinal: u64,
    ) {
        let (total, flush_now, arm, window) = {
            let mut s = sv.borrow_mut();
            let raw = s.cfg.cpu.interp_cost(steps) + s.cfg.cpu.marshal_cost(reply.payload.len());
            let total = s.charge_serial(sim.now(), raw);
            let rec = adm.commit_record(&reply);
            let notify = if rec.obj.is_some() && s.cfg.callbacks {
                adm.urn.clone().map(|u| (u, reply.version))
            } else {
                None
            };
            s.pending.push(PendingCommit {
                rec,
                prio: adm.req.priority,
                notify,
                staged_at: sim.now(),
                cpu_done: sim.now() + total,
            });
            let CommitPolicy::Group { max_batch, window } = s.cfg.commit;
            let flush_now = s.pending.len() >= max_batch.max(1);
            let arm = !flush_now && s.pending.len() == 1;
            (total, flush_now, arm, window)
        };
        sim.stats.sample_duration("server.exec_ms", total);
        sim.stats.incr("server.requests");
        // Crash scripted *after* the append-stage: the batch was never
        // flushed, so nothing is durable and no reply ever leaves —
        // after recovery the client's retransmission executes freshly.
        if sv.borrow().crash_due(ordinal, CrashPoint::AfterAppend) {
            Server::crash(sv, sim);
            return;
        }
        if flush_now {
            Server::group_flush(sv, sim);
        } else if arm {
            // First commit into an empty batch: bound its wait with the
            // window timer. The generation guard keeps a stale timer
            // (whose batch a size-cap flush already committed) from
            // cutting the *next* batch short.
            let (inc, gen) = {
                let mut s = sv.borrow_mut();
                s.group_timer_armed = true;
                s.group_timer_gen += 1;
                (s.incarnation, s.group_timer_gen)
            };
            let sv2 = sv.clone();
            sim.schedule_after(window, move |sim| {
                let live = {
                    let s = sv2.borrow();
                    !s.crashed
                        && s.incarnation == inc
                        && s.group_timer_armed
                        && s.group_timer_gen == gen
                };
                if live {
                    Server::group_flush(&sv2, sim);
                }
            });
        }
    }

    /// Replaces the log with a checkpoint record of the full server
    /// state. On success the device holds exactly that one record.
    fn write_checkpoint(sv: &ServerRef, sim: &mut Sim) -> Result<(), LogError> {
        let now = sim.now();
        let device_bytes =
            Server::write_or_crash(sv, sim, "checkpoint", |s| s.checkpoint_inner(now))?;
        sim.stats.incr("server.checkpoints");
        Server::emit(sv, sim, ServerEvent::Checkpoint { device_bytes });
        Ok(())
    }

    /// Writes the checkpoint record in place of the whole log, durably
    /// and in one atomic step (a crash leaves the old log or the new
    /// one), and prices the snapshot write like any other flush.
    /// Returns the device bytes after.
    fn checkpoint_inner(&mut self, now: rover_sim::SimTime) -> Result<u64, LogError> {
        // A snapshot with staged-but-unflushed commits baked in would
        // make an undurable group visible to recovery; every call site
        // flushes or empties the batch first.
        debug_assert!(self.pending.is_empty(), "checkpoint with staged commits");
        let snap = self.export_store();
        let written = snap.len();
        let wal = self.wal_mut()?;
        wal.log.replace_all(REC_CHECKPOINT, snap)?;
        wal.commits_since_ckpt = 0;
        let device_bytes = wal.log.device_len();
        let cost = self.cfg.storage.flush_cost(FlushReceipt {
            bytes: written,
            records: 1,
            synced: true,
        });
        self.charge_serial(now, cost);
        Ok(device_bytes)
    }

    /// The attached log, or the error a write without one reports.
    fn wal_mut(&mut self) -> Result<&mut Wal, LogError> {
        self.wal
            .as_mut()
            .ok_or_else(|| LogError::Io("no wal attached".into()))
    }

    /// Runs one durable write. A failed write is a power failure in the
    /// middle of it: counted, traced, and the host crashes; the device
    /// may hold a torn frame, which recovery discards.
    fn write_or_crash<T>(
        sv: &ServerRef,
        sim: &mut Sim,
        what: &str,
        write: impl FnOnce(&mut Server) -> Result<T, LogError>,
    ) -> Result<T, LogError> {
        let res = write(&mut sv.borrow_mut());
        if let Err(e) = &res {
            sim.stats.incr("server.wal_append_failed");
            sim.trace("server", format_args!("{what} failed: {e}; crashing"));
            Server::crash(sv, sim);
        }
        res
    }

    // ------------------------------------------------------------------

    /// Serializes an execution cost behind earlier server work.
    fn charge_serial(
        &mut self,
        now: rover_sim::SimTime,
        cost: rover_sim::SimDuration,
    ) -> rover_sim::SimDuration {
        let start = self.cpu_free_at.max(now);
        let done = start + cost;
        self.cpu_free_at = done;
        done.since(now)
    }

    fn on_request(sv: &ServerRef, sim: &mut Sim, env: Envelope) {
        // A crashed host receives nothing: the envelope vanishes and the
        // client's retransmission machinery takes over.
        if sv.borrow().crashed {
            sim.stats.incr("server.dropped_while_crashed");
            return;
        }
        // Charge unmarshalling cost, then process.
        let cost = {
            let mut s = sv.borrow_mut();
            let m = s.cfg.cpu.marshal_cost(env.body.len());
            s.charge_serial(sim.now(), m)
        };
        let sv2 = sv.clone();
        sim.schedule_after(cost, move |sim| {
            if sv2.borrow().crashed {
                sim.stats.incr("server.dropped_while_crashed");
                return;
            }
            let req = match QrpcRequest::from_shared(&env.body) {
                Ok(r) => r,
                Err(_) => {
                    sim.stats.incr("server.bad_request");
                    sim.stats.incr("wire.decode_rejected.request");
                    return;
                }
            };
            Server::admit(&sv2, sim, req);
        });
    }

    /// Ordering gate: ordered exports must arrive in per-session
    /// sequence; later ones are held, duplicates replay the cached
    /// reply.
    fn admit(sv: &ServerRef, sim: &mut Sim, req: QrpcRequest) {
        // Queue-depth sample at admission: staged commits plus ordered
        // and writes-follow-reads holds (the digest's p50/p99 series).
        sim.stats
            .sample("server.qdepth", sv.borrow().queue_depth() as f64);
        // Authentication gate: reject before any state is touched.
        let authed = match &sv.borrow().accepted_tokens {
            None => true,
            Some(set) => set.contains(&req.auth),
        };
        if !authed {
            sim.stats.incr("server.auth_rejected");
            let reply = QrpcReply {
                req_id: req.req_id,
                status: OpStatus::Rejected,
                version: Version(0),
                payload: Bytes::new(),
            };
            Server::send_reply(sv, sim, req.client, reply, req.priority);
            return;
        }

        // Advance this client's acknowledgement floor (piggybacked on
        // every request) and prune executed-id state below it.
        let floor = {
            let mut s = sv.borrow_mut();
            let floor = s.dedup.advance_floor(req.client.0, req.acked_below);
            if let Some(ex) = s.executed.get_mut(&req.client.0) {
                *ex = ex.split_off(&floor);
            }
            floor
        };

        // At-most-once: a replayed request gets its original reply —
        // unless the original still sits in an unflushed group, where
        // the reply exists in volatile state only. Replaying it now
        // would leak a commit that a crash could still un-happen; drop
        // the duplicate instead, and the client's next retransmission
        // finds either a durably flushed dedup entry or (after a crash)
        // no trace of the request at all.
        let key = (req.client.0, req.req_id.0);
        if sv.borrow().pending_contains(key) {
            sim.stats.incr("server.dup_while_staged");
            return;
        }
        let cached = sv.borrow().dedup.get(&key).cloned();
        if let Some(reply) = cached {
            sim.stats.incr("server.dedup_replay");
            sim.trace("server", format_args!("dedup replay req={}", req.req_id.0));
            Server::send_reply(sv, sim, req.client, reply, req.priority);
            return;
        }

        // A request from below the floor is a duplicate whose reply the
        // client already processed (e.g. a network-duplicated copy
        // straggling in after the acknowledgement). Its dedup entry may
        // legitimately be gone; never execute it again — answer with
        // the current committed state.
        if req.req_id.0 < floor {
            sim.stats.incr("server.below_floor_duplicate");
            sim.trace(
                "server",
                format_args!("below-floor duplicate req={} floor={}", req.req_id.0, floor),
            );
            let reply = Server::state_reply(sv, &req);
            Server::send_reply(sv, sim, req.client, reply, req.priority);
            return;
        }

        // Cross-shard writes-follow-reads gate: the request carries the
        // session's read floors for objects homed *here*. If our
        // committed copy of any named object is older than its floor,
        // admitting the write now would order it before reads the
        // session already performed on another shard's state — hold it
        // until the local copy catches up (drained when the object's
        // version advances; a crash drops the holds and the client
        // retransmits).
        if matches!(req.op, RoverOp::Export { .. }) && !req.read_vector.is_empty() {
            sim.stats.incr("server.wfr_checked");
            let behind = {
                let s = sv.borrow();
                req.read_vector.iter().find_map(|(name, fl)| {
                    // A floor constrains only objects homed *here*: one
                    // naming an object that routes to another shard
                    // (hashed there, or migrated away) is that shard's
                    // to enforce — holding on it would wait forever.
                    if s.homed_elsewhere(name) {
                        return None;
                    }
                    let cur = Urn::parse(name)
                        .ok()
                        .and_then(|u| s.store.get(&u).map(|o| o.version.0))
                        .unwrap_or(0);
                    if cur < *fl {
                        Urn::parse(name).ok()
                    } else {
                        None
                    }
                })
            };
            if let Some(urn) = behind {
                sim.stats.incr("server.wfr_held");
                sim.trace(
                    "server",
                    format_args!("wfr hold req={} behind on {urn}", req.req_id.0),
                );
                sv.borrow_mut().wfr_held.entry(urn).or_default().push(req);
                return;
            }
        }

        let adm = Admitted::new(req);
        let ordered_seq = adm.ordered_seq();
        if ordered_seq > 0 {
            let skey = (adm.req.client.0, adm.req.session.0);
            let expected = {
                let mut s = sv.borrow_mut();
                *s.expected_seq.entry(skey).or_insert(1)
            };
            if ordered_seq > expected {
                sim.stats.incr("server.held_out_of_order");
                sv.borrow_mut()
                    .held
                    .entry(skey)
                    .or_default()
                    .insert(ordered_seq, adm);
                return;
            }
            if ordered_seq < expected {
                // A stale duplicate whose dedup entry was evicted: never
                // re-execute; answer with the current committed state.
                sim.stats.incr("server.stale_duplicate");
                let reply = Server::state_reply(sv, &adm.req);
                Server::send_reply(sv, sim, adm.req.client, reply, adm.req.priority);
                return;
            }
            // ordered_seq == expected: process, then drain any held
            // successors.
            Server::process(sv, sim, adm);
            loop {
                // A crash mid-drain kills the host; remaining held
                // writes die with the volatile state.
                if sv.borrow().crashed {
                    break;
                }
                let next = {
                    let mut s = sv.borrow_mut();
                    let exp = s.expected_seq.get(&skey).copied().unwrap_or(1);
                    s.held.get_mut(&skey).and_then(|h| h.remove(&exp))
                };
                match next {
                    Some(r) => Server::process(sv, sim, r),
                    None => break,
                }
            }
        } else {
            Server::process(sv, sim, adm);
        }
    }

    /// Reply reflecting the current committed state of the request's
    /// object, for duplicates that must never re-execute.
    fn state_reply(sv: &ServerRef, req: &QrpcRequest) -> QrpcReply {
        let s = sv.borrow();
        let obj = Urn::parse(&req.urn)
            .ok()
            .and_then(|u| s.store.get(&u).cloned());
        match obj {
            Some(o) => QrpcReply {
                req_id: req.req_id,
                status: OpStatus::Ok,
                version: o.version,
                payload: o.to_bytes(),
            },
            None => QrpcReply {
                req_id: req.req_id,
                status: OpStatus::NoSuchObject,
                version: Version(0),
                payload: Bytes::new(),
            },
        }
    }

    fn process(sv: &ServerRef, sim: &mut Sim, adm: Admitted) {
        if sv.borrow().crashed {
            sim.stats.incr("server.dropped_while_crashed");
            return;
        }
        let req = &adm.req;
        let client = req.client;

        // With a WAL attached this is a commit: number it (the scripted
        // crash ordinal, monotone across restarts) and honour a crash
        // scripted *before* the append — nothing was ever made durable
        // or replied, so after recovery the client's retransmission is a
        // clean first execution.
        let wal_bound = sv.borrow().wal.is_some();
        let ordinal = if wal_bound {
            let mut s = sv.borrow_mut();
            s.commit_ordinal += 1;
            s.commit_ordinal
        } else {
            0
        };
        if wal_bound && sv.borrow().crash_due(ordinal, CrashPoint::BeforeAppend) {
            Server::crash(sv, sim);
            return;
        }

        let (reply, steps) = {
            let mut s = sv.borrow_mut();
            // A second execution of the same request id means its dedup
            // entry was evicted while the client could still retransmit
            // — the at-most-once hazard the acknowledgement floor
            // exists to prevent. Counted and traced, never silent.
            let seen = s
                .executed
                .get(&req.client.0)
                .is_some_and(|ex| ex.contains(&req.req_id.0));
            if seen {
                sim.stats.incr("server.dedup_miss_reexec");
                sim.trace(
                    "server",
                    format_args!("dedup entry evicted; re-executing req={}", req.req_id.0),
                );
            }
            // Hot-set tracking: every import/export against this shard
            // is a hit (the epoch tick folds the counters into stats).
            if let Some(h) = s.hotset.as_mut() {
                if matches!(req.op, RoverOp::Import | RoverOp::Export { .. }) {
                    h.touch(&req.urn);
                }
            }
            let rr_before = s.replica_reads_n;
            let pr_before = s.parse_rejected_n;
            let out = s.execute(&adm);
            if s.replica_reads_n > rr_before {
                sim.stats.incr("server.replica_reads");
            }
            if s.parse_rejected_n > pr_before {
                sim.stats.incr("script.parse_rejected");
            }
            out
        };
        match reply.status {
            OpStatus::WrongShard => sim.stats.incr("server.wrong_shard"),
            OpStatus::Ok | OpStatus::Resolved if matches!(req.op, RoverOp::Export { .. }) => {
                // Committed write: feed the shared load counters (the
                // rebalancer and the imbalance metric read them).
                let mut s = sv.borrow_mut();
                s.commits_n += 1;
                if let Some((map, idx)) = &s.shard_routing {
                    map.note_commit(*idx);
                }
            }
            _ => {}
        }

        // Record dedup + ordering bookkeeping.
        {
            let mut s = sv.borrow_mut();
            let seq = adm.ordered_seq();
            if seq > 0 {
                let skey = (req.client.0, req.session.0);
                let e = s.expected_seq.entry(skey).or_insert(1);
                *e = (*e).max(seq + 1);
            }
            let key = (req.client.0, req.req_id.0);
            s.executed
                .entry(req.client.0)
                .or_default()
                .insert(req.req_id.0);
            // Evict only entries the owning client has acknowledged
            // (id below its floor): an entry at or above the floor may
            // still be needed to absorb a retransmission, so its
            // eviction is deferred — the cache grows past capacity and
            // retries on the next insert.
            let capacity = s.cfg.dedup_capacity;
            if s.dedup.insert(key, reply.clone()) && !s.dedup.evict_to(capacity) {
                sim.stats.incr("server.dedup_evict_deferred");
            }
        }

        if wal_bound {
            // The commit stages into the pending batch; durability, the
            // reply and any callbacks wait for its group flush.
            Server::stage_commit(sv, sim, &adm, reply, steps, ordinal);
        } else {
            // Volatile server: charge execution + reply marshalling,
            // then transmit.
            let total = {
                let mut s = sv.borrow_mut();
                let raw =
                    s.cfg.cpu.interp_cost(steps) + s.cfg.cpu.marshal_cost(reply.payload.len());
                s.charge_serial(sim.now(), raw)
            };
            sim.stats.sample_duration("server.exec_ms", total);
            sim.stats.incr("server.requests");
            let reply_status = reply.status;
            let reply_version = reply.version;
            let sv2 = sv.clone();
            let prio = req.priority;
            sim.schedule_after(total, move |sim| {
                Server::send_reply(&sv2, sim, client, reply, prio);
            });

            // Cache-invalidation callbacks: tell other importers that a
            // new version committed (paper §2's "server callbacks"
            // option).
            let committed = matches!(req.op, RoverOp::Export { .. })
                && matches!(reply_status, OpStatus::Ok | OpStatus::Resolved);
            if committed && sv.borrow().cfg.callbacks {
                if let Some(urn) = &adm.urn {
                    Server::notify_importers(sv, sim, urn, reply_version, client);
                }
            }
        }

        // The object's version advanced at execute time: drain any
        // cross-shard writes-follow-reads holds this commit satisfied
        // (after the commit staged, so WAL order preserves the
        // dependency).
        Server::drain_wfr(sv, sim, adm.urn.as_ref());
    }

    /// Re-admits cross-shard writes-follow-reads holds waiting on `urn`
    /// whose read floor the current committed version now satisfies.
    /// Each freed request re-runs the full admission gauntlet (it may
    /// re-hold on another object it is still behind on).
    fn drain_wfr(sv: &ServerRef, sim: &mut Sim, urn: Option<&Urn>) {
        let Some(urn) = urn else { return };
        if sv.borrow().crashed {
            return;
        }
        let freed = {
            let mut s = sv.borrow_mut();
            let Some(held) = s.wfr_held.remove(urn) else {
                return;
            };
            let cur = s.store.get(urn).map(|o| o.version.0).unwrap_or(0);
            let (freed, kept): (Vec<_>, Vec<_>) = held.into_iter().partition(|r| {
                r.read_vector
                    .iter()
                    .filter(|(name, _)| Urn::parse(name).ok().as_ref() == Some(urn))
                    .all(|(_, fl)| cur >= *fl)
            });
            if !kept.is_empty() {
                s.wfr_held.insert(urn.clone(), kept);
            }
            freed
        };
        for r in freed {
            sim.stats.incr("server.wfr_drained");
            Server::admit(sv, sim, r);
        }
    }

    /// Requests currently held by the cross-shard writes-follow-reads
    /// gate (waiting for a local object version to catch up).
    pub fn wfr_held_count(&self) -> usize {
        self.wfr_held.values().map(Vec::len).sum()
    }

    /// Sends a small callback envelope to every importer of `urn`
    /// except `exclude`. Callbacks are best-effort background traffic:
    /// a disconnected importer simply misses it (and still detects the
    /// change at export time via version comparison).
    fn notify_importers(
        sv: &ServerRef,
        sim: &mut Sim,
        urn: &Urn,
        version: Version,
        exclude: HostId,
    ) {
        let (host, targets) = {
            let s = sv.borrow();
            let targets: Vec<u32> = s
                .importers
                .get(urn)
                .map(|set| set.iter().copied().filter(|c| *c != exclude.0).collect())
                .unwrap_or_default();
            (s.cfg.host, targets)
        };
        if targets.is_empty() {
            return;
        }
        let mut enc = Encoder::new();
        enc.put_str(urn.as_str());
        enc.put_u64(version.0);
        let body = enc.finish();
        for t in targets {
            let env = Envelope {
                kind: MsgKind::Callback,
                src: host,
                dst: HostId(t),
                body: body.clone(),
            };
            Server::send_callback(sv, sim, HostId(t), env);
            sim.stats.incr("server.callbacks_sent");
        }
    }

    fn send_callback(sv: &ServerRef, sim: &mut Sim, client: HostId, env: Envelope) {
        let (net, sched) = {
            let s = sv.borrow();
            (
                s.net.clone(),
                s.routes.get(&client.0).and_then(|r| r.sched.clone()),
            )
        };
        if let Some(sched) = sched {
            HostSched::enqueue_keyed(
                &sched,
                sim,
                &net,
                env,
                rover_wire::Priority::BACKGROUND,
                None,
            );
        }
    }

    /// Pure state transition: executes the admitted request against the
    /// store and returns the reply plus interpreter steps consumed.
    fn execute(&mut self, adm: &Admitted) -> (QrpcReply, u64) {
        let req = &adm.req;
        let fail = |status: OpStatus| QrpcReply {
            req_id: req.req_id,
            status,
            version: Version(0),
            payload: Bytes::new(),
        };
        let Some(urn) = &adm.urn else {
            return (fail(OpStatus::Rejected), 0);
        };

        match &req.op {
            RoverOp::Ping => (
                QrpcReply {
                    req_id: req.req_id,
                    status: OpStatus::Ok,
                    version: Version(0),
                    payload: Bytes::new(),
                },
                0,
            ),

            RoverOp::Import => match self.store.get(urn) {
                Some(obj) => {
                    self.importers
                        .entry(urn.clone())
                        .or_default()
                        .insert(req.client.0);
                    (
                        QrpcReply {
                            req_id: req.req_id,
                            status: OpStatus::Ok,
                            version: obj.version,
                            payload: obj.to_bytes(),
                        },
                        0,
                    )
                }
                None => {
                    // Replica serve: a read routed here by the replica
                    // directory. The session's floor travels in the
                    // request's read-vector; the replica serves only
                    // when its version satisfies it (monotonic reads
                    // never weaken), else the client re-routes home.
                    if let Some((rep, _)) = self.replicas.get(urn) {
                        let floor = req
                            .read_vector
                            .iter()
                            .filter(|(name, _)| *name == req.urn)
                            .map(|(_, fl)| *fl)
                            .max()
                            .unwrap_or(0);
                        if rep.version.0 >= floor {
                            let reply = QrpcReply {
                                req_id: req.req_id,
                                status: OpStatus::Ok,
                                version: rep.version,
                                payload: rep.to_bytes(),
                            };
                            self.replica_reads_n += 1;
                            return (reply, 0);
                        }
                        return (fail(OpStatus::WrongShard), 0);
                    }
                    if self.homed_elsewhere(&req.urn) {
                        return (fail(OpStatus::WrongShard), 0);
                    }
                    (fail(OpStatus::NoSuchObject), 0)
                }
            },

            RoverOp::Invoke { .. } => {
                let payload = match InvokePayload::from_shared(&req.payload) {
                    Ok(p) => p,
                    Err(_) => return (fail(OpStatus::Rejected), 0),
                };
                let Some(obj) = self.store.get_mut(urn) else {
                    let status = if self.homed_elsewhere(&req.urn) {
                        OpStatus::WrongShard
                    } else {
                        OpStatus::NoSuchObject
                    };
                    return (fail(status), 0);
                };
                // Invocations are read-only: run in place, every write
                // undone, so the stored object keeps the field memos it
                // makes.
                let args: Vec<rover_script::Value> =
                    payload.args.iter().map(rover_script::Value::str).collect();
                match obj.run_query(&payload.method, &args, self.cfg.budget) {
                    Ok(run) => {
                        let mut enc = Encoder::new();
                        enc.put_str(&run.result.as_str());
                        (
                            QrpcReply {
                                req_id: req.req_id,
                                status: OpStatus::Ok,
                                version: obj.version,
                                payload: enc.finish(),
                            },
                            run.steps,
                        )
                    }
                    Err(crate::RoverError::NoSuchMethod(_)) => (fail(OpStatus::NoSuchMethod), 0),
                    Err(crate::RoverError::ScriptParse(_)) => {
                        self.parse_rejected_n += 1;
                        (fail(OpStatus::ExecError), 0)
                    }
                    Err(_) => (fail(OpStatus::ExecError), 0),
                }
            }

            RoverOp::Export { .. } => {
                let Some(payload) = &adm.export else {
                    return (fail(OpStatus::Rejected), 0);
                };
                let Some(current) = self.store.get_mut(urn) else {
                    // A write whose object was migrated away (or never
                    // homed here): the client re-routes it to the
                    // current home. The reply still commits dedup +
                    // ordering bookkeeping here, so the session's
                    // sequence floor advances and retransmissions of
                    // this id replay `WrongShard` instead of blocking.
                    let status = if self.homed_elsewhere(&req.urn) {
                        OpStatus::WrongShard
                    } else {
                        OpStatus::NoSuchObject
                    };
                    return (fail(status), 0);
                };

                let conflict = req.base_version != current.version;
                let (resolution, resolved_status) = if conflict {
                    let resolver: &dyn Resolver = self
                        .resolvers
                        .get(&current.type_name)
                        .map(|b| b.as_ref())
                        .unwrap_or(&RejectResolver);
                    (
                        resolver.resolve(current, req.base_version, payload),
                        OpStatus::Resolved,
                    )
                } else {
                    (Resolution::Reexecute, OpStatus::Ok)
                };

                match resolution {
                    Resolution::Reject => {
                        // Reflect the conflict with the current state so
                        // the user can reconcile.
                        (
                            QrpcReply {
                                req_id: req.req_id,
                                status: OpStatus::Conflict,
                                version: current.version,
                                payload: current.to_bytes(),
                            },
                            0,
                        )
                    }
                    Resolution::Merged(mut merged) => {
                        let v = Version(current.version.0 + 1);
                        merged.version = v;
                        let bytes = merged.to_bytes();
                        *current = merged;
                        (
                            QrpcReply {
                                req_id: req.req_id,
                                status: OpStatus::Resolved,
                                version: v,
                                payload: bytes,
                            },
                            0,
                        )
                    }
                    Resolution::Reexecute => {
                        let args: Vec<rover_script::Value> =
                            payload.args.iter().map(rover_script::Value::str).collect();
                        match current.run_method(&payload.method, &args, self.cfg.budget) {
                            Ok(run) => {
                                current.version = Version(current.version.0 + 1);
                                (
                                    QrpcReply {
                                        req_id: req.req_id,
                                        status: resolved_status,
                                        version: current.version,
                                        payload: current.to_bytes(),
                                    },
                                    run.steps,
                                )
                            }
                            Err(crate::RoverError::NoSuchMethod(_)) => {
                                (fail(OpStatus::NoSuchMethod), 0)
                            }
                            Err(crate::RoverError::ScriptParse(_)) => {
                                self.parse_rejected_n += 1;
                                (fail(OpStatus::ExecError), 0)
                            }
                            Err(_) => (fail(OpStatus::ExecError), 0),
                        }
                    }
                }
            }

            RoverOp::Custom(_) => (fail(OpStatus::Rejected), 0),
        }
    }

    fn send_reply(
        sv: &ServerRef,
        sim: &mut Sim,
        client: HostId,
        reply: QrpcReply,
        prio: rover_wire::Priority,
    ) {
        let host = sv.borrow().cfg.host;
        let env = Envelope::reply(host, client, &reply);
        Server::route_reply(sv, sim, client, env, prio, 1);
    }

    /// Routes one outbound envelope to `client`: scheduler queue, SMTP
    /// spool, or best-effort direct send. `logical` is how many QRPC
    /// replies the envelope carries (>1 for a coalesced
    /// [`ReplyBatch`]); every counter scales by it.
    fn route_reply(
        sv: &ServerRef,
        sim: &mut Sim,
        client: HostId,
        env: Envelope,
        prio: rover_wire::Priority,
        logical: u64,
    ) {
        // A reply computed before the crash never leaves a dead host.
        if sv.borrow().crashed {
            sim.stats.add("server.reply_dropped_crashed", logical);
            return;
        }
        let (net, host, mut sched, mut any_up, smtp) = {
            let s = sv.borrow();
            let route = s.routes.get(&client.0);
            let any_up = route
                .map(|r| r.links.iter().any(|&l| s.net.is_up(l)))
                .unwrap_or(false);
            (
                s.net.clone(),
                s.cfg.host,
                route.and_then(|r| r.sched.clone()),
                any_up,
                route.and_then(|r| r.smtp.clone()),
            )
        };

        // The mobile client may have switched to an interface we were
        // never told about; learn any up link the network layer knows.
        if !any_up {
            let known: Vec<LinkId> = sv
                .borrow()
                .routes
                .get(&client.0)
                .map(|r| r.links.clone())
                .unwrap_or_default();
            if let Some(l) = net
                .links_between(host, client)
                .into_iter()
                .find(|l| !known.contains(l) && net.is_up(*l))
            {
                sv.borrow_mut().add_route(client, l);
                let s = sv.borrow();
                sched = s.routes.get(&client.0).and_then(|r| r.sched.clone());
                any_up = true;
            }
        }

        // Disconnected client with an SMTP route: spool the reply
        // (split-phase QRPC) instead of queueing it at the server.
        if !any_up {
            if let Some(relay) = smtp {
                SmtpRelay::submit(&relay, sim, env);
                sim.stats.add("server.replies_via_smtp", logical);
                return;
            }
        }

        match sched {
            Some(sched) => {
                // Priority-queued: drains now or whenever a link to the
                // client comes back up.
                HostSched::enqueue_keyed(&sched, sim, &net, env, prio, None);
                sim.stats.add("server.replies", logical);
            }
            None => {
                // No configured route: best-effort direct send.
                match net.up_link_between(host, client) {
                    Some(l) if net.send(sim, l, env).is_ok() => {
                        sim.stats.add("server.replies", logical);
                    }
                    _ => {
                        // The client will retransmit and hit the dedup
                        // cache.
                        sim.stats.add("server.reply_dropped", logical);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod dedup_diff;
#[cfg(test)]
mod invoke_in_place;
