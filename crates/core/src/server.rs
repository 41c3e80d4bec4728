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
//!
//! A request runs one pipeline whether or not a WAL is attached:
//! admit → execute → stage → flush → dispatch (`server/pipeline.rs`).
//! Without a WAL the flush writes nothing, so the reply and any
//! invalidation callbacks leave as soon as the commit's CPU work is
//! done. Each stage is a `&mut Server` step that returns a value; the
//! functions here over a [`ServerRef`] act on it, and are the only code
//! that schedules, sends, emits events or crashes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rover_log::{FlushPolicy, FlushReceipt, LogError, OpLog, RecordKind, StableStore};
use rover_net::{HostSched, LinkId, Net, SchedRef, SmtpRelay, SmtpRelayRef};
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{
    decode_commit_batch, Bytes, CommitRecord, Envelope, HostId, MigrateRecord, MsgKind, QrpcReply,
    QrpcRequest, ReplicaFrame, Version, Wire,
};

use crate::config::ServerConfig;
use crate::dedup::DedupCache;
use crate::events::ServerEvent;
use crate::object::RoverObject;
use crate::resolve::Resolver;
use crate::shard::ShardMap;
use crate::urn::Urn;
use crate::RoverError;
use federation::Federation;
use pipeline::{Admitted, Gate, Outgoing, PendingCommit, Staged};

mod federation;
mod pipeline;

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

/// Deterministic crash points in the commit path, scripted with
/// [`Server::script_crash`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// Crash before the commit executes: its effects are lost with the
    /// volatile state; after recovery the client's retransmission
    /// executes freshly (a *first* execution — nothing was ever
    /// committed or replied).
    BeforeAppend,
    /// Crash after the commit has *staged* into the pending batch but
    /// before the group flush, at any batch size (a group of one
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

/// Where one reply leaves the host.
enum ReplyPath {
    /// The host is down: the reply never leaves.
    Dead,
    /// Every link to the client is down: spool it (split-phase QRPC).
    Smtp(SmtpRelayRef),
    /// The client's priority scheduler: it drains now or whenever a
    /// link to the client comes back up.
    Sched(SchedRef, Net),
    /// No configured route: best-effort direct send.
    Direct(Net, HostId),
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
    cpu_free_at: SimTime,
    /// Disk serialization horizon for group flushes: the commit path is
    /// pipelined, so the CPU executes the next requests while the disk
    /// syncs the previous batch.
    disk_free_at: SimTime,
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
    /// This server's place in a shard federation, with its replicas and
    /// hot-set tracker; `None` outside one.
    fed: Option<Federation>,
    /// Successful export commits executed here (lifetime; the load
    /// sampler reads this even without a dynamic routing plane).
    commits_n: u64,
    /// Accepted authentication tokens; `None` disables authentication.
    accepted_tokens: Option<std::collections::HashSet<u64>>,
    /// Write-ahead commit log; `None` runs the server volatile: the
    /// group flush writes nothing.
    wal: Option<Wal>,
    /// True between a crash and the completion of recovery: the host is
    /// down and every arriving envelope is dropped.
    crashed: bool,
    /// Scripted crash: fires at the Nth commit (1-based, monotone
    /// across restarts) at the given point.
    crash_at: Option<(u64, CrashPoint)>,
    /// Commits executed across the server's lifetime (keeps counting
    /// through restarts; the scripted-crash ordinal).
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
        let host = cfg.host;
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
            cpu_free_at: SimTime::ZERO,
            disk_free_at: SimTime::ZERO,
            pending: Vec::new(),
            group_timer_armed: false,
            group_timer_gen: 0,
            incarnation: 0,
            importers: HashMap::new(),
            fed: None,
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
        net.register_host(
            host,
            rover_net::wrap_reassembly(move |sim: &mut Sim, _net: &Net, env: Envelope| {
                let Some(sv) = weak.upgrade() else { return };
                match env.kind {
                    MsgKind::Request => Server::on_request(&sv, sim, env),
                    MsgKind::Replica => sv.borrow_mut().install_replica(sim, &env.body),
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
        let (host, mode, mtu) = (self.cfg.host, self.cfg.sched_mode, self.cfg.mtu);
        let net = self.net.clone();
        let route = self.route_mut(client);
        route.links.push(link);
        let sched = route.sched.get_or_insert_with(|| {
            let s = HostSched::new(host, mode);
            HostSched::set_mtu(&s, mtu);
            s
        });
        HostSched::attach_link(sched, &net, link);
    }

    /// Declares an SMTP fallback for replies to `client`.
    pub fn add_smtp_route(&mut self, client: HostId, relay: SmtpRelayRef) {
        self.route_mut(client).smtp = Some(relay);
    }

    fn route_mut(&mut self, client: HostId) -> &mut ReplyRoute {
        self.routes.entry(client.0).or_insert_with(|| ReplyRoute {
            links: Vec::new(),
            smtp: None,
            sched: None,
        })
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
        self.fed = Some(Federation::new(map, shard, self.cfg.replicate_hot));
    }

    /// Whether the federation homes `urn` on another shard.
    fn homed_elsewhere(&self, urn: &str) -> bool {
        self.fed.as_ref().is_some_and(|f| f.homed_elsewhere(urn))
    }

    /// Successful export commits executed by this server.
    pub fn commit_count(&self) -> u64 {
        self.commits_n
    }

    /// Imports served from a peer replica instead of the home store.
    pub fn replica_reads(&self) -> u64 {
        self.fed.as_ref().map_or(0, |f| f.replica_reads)
    }

    /// The hot tracker's current view restricted to objects actually
    /// homed (and stored) here, hottest first — the rebalancer's
    /// migration candidates.
    pub fn hot_home_top(&self) -> Vec<(String, u64)> {
        self.fed
            .as_ref()
            .map_or_else(Vec::new, |f| f.hot_home_top(&self.store))
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
    fn install_replica(&mut self, sim: &mut Sim, body: &Bytes) {
        if self.crashed {
            sim.stats.incr("server.dropped_while_crashed");
            return;
        }
        let decoded = ReplicaFrame::from_shared(body).ok().and_then(|frame| {
            let urn = Urn::parse(&frame.urn).ok()?;
            let obj = RoverObject::from_shared(&frame.obj).ok()?;
            Some((frame, urn, obj))
        });
        let Some((frame, urn, obj)) = decoded else {
            sim.stats.incr("server.bad_request");
            sim.stats.incr("wire.decode_rejected.replica");
            return;
        };
        let Some(fed) = &mut self.fed else { return };
        if fed.install(&frame, urn, obj, &self.store) {
            sim.stats.incr("server.replicas_installed");
        }
    }

    /// One replication epoch: ages out peer replicas whose home stopped
    /// refreshing them (bounding staleness to one epoch), folds the hot
    /// tracker's activity into the stats, decays it, and publishes this
    /// shard's K hottest home objects to every federation peer as
    /// version-stamped volatile replicas. A no-op when replication is
    /// off or the host is down.
    pub fn replication_epoch(sv: &ServerRef, sim: &mut Sim) {
        let frames = {
            let mut guard = sv.borrow_mut();
            let s = &mut *guard;
            match &mut s.fed {
                Some(fed) if !s.crashed && s.cfg.replicate_hot > 0 => {
                    fed.epoch(sim, &s.store, s.cfg.replicate_hot, s.cfg.host)
                }
                _ => return,
            }
        };
        for env in frames {
            Server::send_callback(sv, sim, env);
            sim.stats.incr("server.replicas_published");
        }
    }

    /// Appends and syncs one migration record and charges the flush
    /// serially; a no-op without a WAL (volatile server — the move is
    /// volatile too).
    fn log_migrate(&mut self, now: SimTime, urn: &str, obj: Option<Bytes>) -> Result<(), LogError> {
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
        Server::group_flush(sv, sim);
        let departed = {
            let mut s = sv.borrow_mut();
            let obj = if s.crashed { None } else { s.store.remove(urn) };
            match obj {
                Some(obj) => s
                    .log_migrate(sim.now(), urn.as_str(), None)
                    .map(|()| Some(obj)),
                None => Ok(None),
            }
        };
        let obj = Server::or_crash(sv, sim, "migrate-out append", departed).ok()??;
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
        let urn = obj.urn.clone();
        let installed = {
            let mut s = sv.borrow_mut();
            if s.crashed {
                return false;
            }
            let bytes = obj.to_bytes();
            if let Some(fed) = &mut s.fed {
                fed.forget(&urn);
            }
            s.store.insert(urn.clone(), obj);
            s.log_migrate(sim.now(), urn.as_str(), Some(bytes))
        };
        if Server::or_crash(sv, sim, "migrate-in append", installed).is_err() {
            return false;
        }
        sim.stats.incr("server.migrated_in");
        Server::drain_wfr(sv, sim, &urn);
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
        if let Some(fed) = &mut self.fed {
            fed.reset(self.cfg.replicate_hot);
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
    ) -> Result<(), RoverError> {
        if sv.borrow().wal.is_some() {
            return Err(RoverError::Log("wal already attached".into()));
        }
        let log = OpLog::open_with(store, FlushPolicy::Manual, false)?;
        if log.is_empty() && log.tail_skipped_bytes() == 0 {
            sv.borrow_mut().wal = Some(Wal {
                log,
                commits_since_ckpt: 0,
            });
            return Ok(Server::write_checkpoint(sv, sim)?);
        }
        let recovered = sv.borrow_mut().restore_from_log(sim, log, 0)?;
        Server::emit(sv, sim, recovered);
        Ok(())
    }

    /// Creates a server whose state is recovered from `store` (a device
    /// previously written by a WAL-attached server) and keeps the log
    /// attached. Equivalent to [`Server::new`] + [`Server::attach_wal`].
    pub fn recover(
        net: &Net,
        cfg: ServerConfig,
        sim: &mut Sim,
        store: Box<dyn StableStore>,
    ) -> Result<ServerRef, RoverError> {
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
    /// commit (1-based, counted across the server's lifetime including
    /// past restarts) at the given [`CrashPoint`]. The host stays down
    /// — dropping all traffic — until [`Server::crash_restart`]
    /// recovers it.
    pub fn script_crash(&mut self, nth: u64, point: CrashPoint) {
        self.crash_at = Some((nth, point));
    }

    /// Cuts power to the server immediately — the soak harness's
    /// scheduled mid-traffic failure. Volatile state is dead; every
    /// envelope is dropped until [`Server::crash_restart`] brings the
    /// host back from the write-ahead device.
    pub fn crash_now(sv: &ServerRef, sim: &mut Sim) {
        let durable_commits = sv.borrow_mut().power_off(sim);
        Server::emit(sv, sim, ServerEvent::Crashed { durable_commits });
    }

    /// Marks the server crashed: volatile state is dead (recovery wipes
    /// it). Returns the commits flushed durably so far.
    fn power_off(&mut self, sim: &mut Sim) -> u64 {
        self.crashed = true;
        self.crash_at = None;
        // Staged-but-unflushed commits die with the volatile state: no
        // reply ever left for them, so their clients retransmit and
        // re-execute freshly after recovery.
        let staged_lost = self.pending.len() as u64;
        self.pending.clear();
        self.group_timer_armed = false;
        self.incarnation += 1;
        // Replicas die with the volatile state, and the shared
        // directory must stop routing reads at a dead holder.
        if let Some(fed) = &mut self.fed {
            fed.drop_replicas();
        }
        if staged_lost > 0 {
            sim.stats.add("server.staged_lost_on_crash", staged_lost);
        }
        sim.stats.incr("server.crashes");
        sim.trace("server", "crashed; dropping traffic until recovery");
        self.flushed_commits
    }

    /// Simulates a machine failure and reboot: all volatile state is
    /// dropped (unsynced device bytes included), and the server is
    /// rebuilt from the write-ahead device — newest checkpoint first,
    /// then replay of every complete commit record after it. Held
    /// out-of-order writes are lost by design and counted
    /// (`server.held_dropped_on_recovery`); their clients retransmit.
    ///
    /// Requires an attached WAL ([`Server::attach_wal`]).
    pub fn crash_restart(sv: &ServerRef, sim: &mut Sim) -> Result<(), RoverError> {
        let recovered = sv.borrow_mut().reboot(sim)?;
        Server::emit(sv, sim, recovered);
        Ok(())
    }

    /// The reboot half of [`Server::crash_restart`]: drops the volatile
    /// state and unsynced device bytes, then recovers from the device.
    fn reboot(&mut self, sim: &mut Sim) -> Result<ServerEvent, RoverError> {
        let Some(wal) = self.wal.take() else {
            return Err(RoverError::Log(
                "crash_restart requires an attached wal".into(),
            ));
        };
        let held_dropped: u64 = self.held.values().map(|m| m.len() as u64).sum();
        let wfr_dropped: u64 = self.wfr_held.values().map(|v| v.len() as u64).sum();
        let mut store = wal.log.into_store();
        store.drop_staged();
        self.clear_state();
        self.crashed = true;
        if held_dropped > 0 {
            sim.stats
                .add("server.held_dropped_on_recovery", held_dropped);
        }
        if wfr_dropped > 0 {
            sim.stats.add("server.wfr_dropped_on_recovery", wfr_dropped);
        }
        let log = OpLog::open_with(store, FlushPolicy::Manual, false)?;
        self.restore_from_log(sim, log, held_dropped)
    }

    /// Rebuilds server state from an opened write-ahead log: newest
    /// checkpoint snapshot, then replay of commit records after it.
    /// Installs the log, clears the crashed flag, charges the recovery
    /// scan to the virtual clock, and returns the
    /// [`ServerEvent::Recovered`] to emit.
    fn restore_from_log(
        &mut self,
        sim: &mut Sim,
        log: OpLog<Box<dyn StableStore>>,
        held_dropped: u64,
    ) -> Result<ServerEvent, RoverError> {
        let scan = log.scan_report();
        let truncated = scan.tail_skipped_bytes;
        let device_bytes = log.device_len();
        self.clear_state();
        let mut ckpt: Option<(u64, Bytes)> = None;
        for r in log.records() {
            if r.kind == REC_CHECKPOINT {
                ckpt = Some((r.seq, r.payload.clone()));
            }
        }
        let ckpt_seq = match &ckpt {
            Some((seq, snap)) => {
                self.import_store(snap)?;
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
                for c in decode_commit_batch(&r.payload)? {
                    self.apply_commit(c)?;
                    recovered += 1;
                }
            } else if r.kind == REC_MIGRATE {
                // Rebalancer move: tombstone (the object left this
                // shard) or install (it arrived), replayed in log order
                // against commits to the same object.
                let m = MigrateRecord::from_shared(&r.payload)?;
                match m.obj {
                    Some(bytes) => {
                        let obj = RoverObject::from_shared(&bytes)?;
                        self.store.insert(obj.urn.clone(), obj);
                    }
                    None => {
                        if let Ok(u) = Urn::parse(&m.urn) {
                            self.store.remove(&u);
                        }
                    }
                }
            } else {
                // Not a kind this server writes (a log framing one
                // commit per record, say): skipping it would drop
                // commits silently.
                return Err(RoverError::Log(format!(
                    "unknown wal record kind {:?}",
                    r.kind
                )));
            }
        }
        // Re-prune executed ids below the recovered floors, exactly as
        // the admission path would have.
        for (client, floor) in self.dedup.floors() {
            if let Some(ex) = self.executed.get_mut(&client) {
                *ex = ex.split_off(&floor);
            }
        }
        self.wal = Some(Wal {
            log,
            commits_since_ckpt: recovered as usize,
        });
        self.crashed = false;
        // The reboot's recovery scan reads the whole device; charge it
        // like any other serial work, starting from fresh CPU and disk
        // horizons (the old ones died with the machine). Any staged
        // batch or armed window timer is stale too.
        let now = sim.now();
        self.cpu_free_at = now;
        self.disk_free_at = now;
        self.pending.clear();
        self.group_timer_armed = false;
        self.incarnation += 1;
        let cost = self.charge_serial(now, self.cfg.cpu.marshal_cost(device_bytes as usize));
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
        Ok(ServerEvent::Recovered {
            commits: recovered,
            truncated_tail: truncated,
            held_dropped,
        })
    }

    /// Installs one replayed commit record's effects.
    fn apply_commit(&mut self, c: CommitRecord) -> Result<(), RoverError> {
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
            let obj = RoverObject::from_shared(&bytes)?;
            self.store.insert(obj.urn.clone(), obj);
        }
        Ok(())
    }

    /// Graceful-shutdown path: durably flushes any staged group-commit
    /// batch, then writes a checkpoint so the next recovery replays
    /// nothing. Replies for the flushed batch are scheduled as usual —
    /// whether they leave before the process exits is immaterial, since
    /// the commits are durable and retransmissions replay their replies
    /// from the dedup table after restart.
    ///
    /// A no-op on a crashed server; only the flush without a WAL.
    pub fn flush_and_checkpoint(sv: &ServerRef, sim: &mut Sim) {
        Server::group_flush(sv, sim);
        // A WAL fault during the flush crashes the server; don't follow
        // a failed flush with a checkpoint of un-replayable state.
        if !sv.borrow().crashed {
            let _ = Server::write_checkpoint(sv, sim);
        }
    }

    /// Replaces the log with a checkpoint record of the full server
    /// state; without a WAL, does nothing. On success the device holds
    /// exactly that one record.
    fn write_checkpoint(sv: &ServerRef, sim: &mut Sim) -> Result<(), LogError> {
        let written = sv.borrow_mut().checkpoint(sim.now());
        if let Some(device_bytes) = Server::or_crash(sv, sim, "checkpoint", written)? {
            sim.stats.incr("server.checkpoints");
            Server::emit(sv, sim, ServerEvent::Checkpoint { device_bytes });
        }
        Ok(())
    }

    /// Writes the checkpoint record in place of the whole log, durably
    /// and in one atomic step (a crash leaves the old log or the new
    /// one), and prices the snapshot write like any other flush.
    /// Returns the device bytes after; `None` without a WAL.
    fn checkpoint(&mut self, now: SimTime) -> Result<Option<u64>, LogError> {
        // A snapshot with staged-but-unflushed commits baked in would
        // make an undurable group visible to recovery; every call site
        // flushes or empties the batch first.
        debug_assert!(self.pending.is_empty(), "checkpoint with staged commits");
        if self.wal.is_none() {
            return Ok(None);
        }
        let snap = self.export_store();
        let written = snap.len();
        let Some(wal) = self.wal.as_mut() else {
            return Ok(None);
        };
        wal.log.replace_all(REC_CHECKPOINT, snap)?;
        wal.commits_since_ckpt = 0;
        let device_bytes = wal.log.device_len();
        let cost = self.cfg.storage.flush_cost(FlushReceipt {
            bytes: written,
            records: 1,
            synced: true,
        });
        self.charge_serial(now, cost);
        Ok(Some(device_bytes))
    }

    /// Passes a durable write's result through; a failed write is a
    /// power failure in the middle of it: counted, traced, and the host
    /// crashes. The device may hold a torn frame, which recovery
    /// discards.
    fn or_crash<T>(
        sv: &ServerRef,
        sim: &mut Sim,
        what: &str,
        res: Result<T, LogError>,
    ) -> Result<T, LogError> {
        if let Err(e) = &res {
            sim.stats.incr("server.wal_append_failed");
            sim.trace("server", format_args!("{what} failed: {e}; crashing"));
            Server::crash_now(sv, sim);
        }
        res
    }

    /// Serializes an execution cost behind earlier server work.
    fn charge_serial(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        let start = self.cpu_free_at.max(now);
        let done = start + cost;
        self.cpu_free_at = done;
        done.since(now)
    }

    // --- the request pipeline over a `ServerRef` -----------------------

    fn on_request(sv: &ServerRef, sim: &mut Sim, env: Envelope) {
        // A crashed host receives nothing: the envelope vanishes and the
        // client's retransmission machinery takes over.
        let cost = {
            let mut s = sv.borrow_mut();
            if s.crashed {
                sim.stats.incr("server.dropped_while_crashed");
                return;
            }
            let m = s.cfg.cpu.marshal_cost(env.body.len());
            s.charge_serial(sim.now(), m)
        };
        // Charge unmarshalling cost, then admit.
        let sv2 = sv.clone();
        sim.schedule_after(cost, move |sim| {
            if sv2.borrow().crashed {
                sim.stats.incr("server.dropped_while_crashed");
                return;
            }
            let Ok(req) = QrpcRequest::from_shared(&env.body) else {
                sim.stats.incr("server.bad_request");
                sim.stats.incr("wire.decode_rejected.request");
                return;
            };
            Server::admit(&sv2, sim, req);
        });
    }

    /// Runs one request through the admission gate, and an admitted one
    /// through the pipeline; an ordered write then releases the held
    /// successors it unblocked, in sequence.
    fn admit(sv: &ServerRef, sim: &mut Sim, req: QrpcRequest) {
        let gate = sv.borrow_mut().gate(sim, req);
        let adm = match gate {
            Gate::Reply(out) => return Server::route_reply(sv, sim, out),
            Gate::Drop | Gate::Hold => return,
            Gate::Run(adm) => adm,
        };
        let session = (adm.ordered_seq() > 0).then(|| adm.session_key());
        Server::process(sv, sim, adm);
        let Some(skey) = session else { return };
        loop {
            let next = sv.borrow_mut().next_held(skey);
            let Some(adm) = next else { break };
            Server::process(sv, sim, adm);
        }
    }

    /// Execute → stage → (flush): the commit stages into the pending
    /// group; its reply and callbacks wait for the group's dispatch.
    fn process(sv: &ServerRef, sim: &mut Sim, adm: Admitted) {
        let executed = {
            let mut s = sv.borrow_mut();
            if s.crashed {
                sim.stats.incr("server.dropped_while_crashed");
                return;
            }
            s.execute(sim, adm)
        };
        let Some(mut ex) = executed else {
            return Server::crash_now(sv, sim);
        };
        let drain = ex.drain.take();
        let staged = sv.borrow_mut().stage(sim, ex);
        match staged {
            Staged::Crash => return Server::crash_now(sv, sim),
            Staged::FlushNow => Server::group_flush(sv, sim),
            Staged::Arm {
                window,
                incarnation,
                gen,
            } => {
                let sv2 = sv.clone();
                sim.schedule_after(window, move |sim| {
                    let live = sv2.borrow().window_live(incarnation, gen);
                    if live {
                        Server::group_flush(&sv2, sim);
                    }
                });
            }
            Staged::Wait => {}
        }
        if let Some(urn) = drain {
            Server::drain_wfr(sv, sim, &urn);
        }
    }

    /// Flushes the pending group, narrates a durable write, schedules
    /// the group's dispatch at its ready instant, and checkpoints when
    /// due — the pending batch is empty then, so the snapshot can never
    /// strand half a group. A failed append or sync mid-batch is a
    /// crash: the device may hold a torn frame (recovery discards the
    /// whole batch), and the batch dies staged, so no reply in the
    /// group ever leaves.
    fn group_flush(sv: &ServerRef, sim: &mut Sim) {
        let flushed = sv.borrow_mut().flush(sim);
        let Ok(Some(f)) = Server::or_crash(sv, sim, "group flush", flushed) else {
            return;
        };
        if let Some(receipt) = f.written {
            let ev = ServerEvent::GroupCommit {
                records: f.batch.len(),
                wal_bytes: receipt.bytes,
            };
            Server::emit(sv, sim, ev);
        }
        let incarnation = sv.borrow().incarnation;
        let (sv2, batch) = (sv.clone(), f.batch);
        sim.schedule_after(f.ready.since(sim.now()), move |sim| {
            let out = sv2.borrow_mut().dispatch(sim, incarnation, batch);
            for r in out.replies {
                Server::route_reply(&sv2, sim, r);
            }
            for env in out.callbacks {
                Server::send_callback(&sv2, sim, env);
                sim.stats.incr("server.callbacks_sent");
            }
        });
        if f.checkpoint_due {
            let _ = Server::write_checkpoint(sv, sim);
        }
    }

    /// Re-admits cross-shard writes-follow-reads holds waiting on `urn`
    /// whose read floor the current committed version now satisfies.
    /// Each freed request re-runs the full admission gauntlet (it may
    /// re-hold on another object it is still behind on).
    fn drain_wfr(sv: &ServerRef, sim: &mut Sim, urn: &Urn) {
        let freed = {
            let mut s = sv.borrow_mut();
            if s.crashed {
                return;
            }
            s.release_wfr(urn)
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

    /// Queues a background envelope (a callback or a replica frame) on
    /// its destination's scheduler; dropped without a route.
    fn send_callback(sv: &ServerRef, sim: &mut Sim, env: Envelope) {
        let (net, sched) = {
            let s = sv.borrow();
            let sched = s.routes.get(&env.dst.0).and_then(|r| r.sched.clone());
            (s.net.clone(), sched)
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

    /// Sends one reply envelope: scheduler queue, SMTP spool, or
    /// best-effort direct send.
    fn route_reply(sv: &ServerRef, sim: &mut Sim, out: Outgoing) {
        let path = sv.borrow_mut().reply_path(out.to);
        let n = out.replies;
        match path {
            ReplyPath::Dead => sim.stats.add("server.reply_dropped_crashed", n),
            ReplyPath::Smtp(relay) => {
                SmtpRelay::submit(&relay, sim, out.env);
                sim.stats.add("server.replies_via_smtp", n);
            }
            ReplyPath::Sched(sched, net) => {
                HostSched::enqueue_keyed(&sched, sim, &net, out.env, out.prio, None);
                sim.stats.add("server.replies", n);
            }
            ReplyPath::Direct(net, host) => match net.up_link_between(host, out.to) {
                Some(l) if net.send(sim, l, out.env).is_ok() => {
                    sim.stats.add("server.replies", n);
                }
                // The client will retransmit and hit the dedup cache.
                _ => sim.stats.add("server.reply_dropped", n),
            },
        }
    }

    /// Where a reply to `client` leaves from. A reply computed before a
    /// crash never leaves a dead host. The mobile client may have
    /// switched to an interface we were never told about, so with no
    /// known link up, any up link the network knows is learned first.
    fn reply_path(&mut self, client: HostId) -> ReplyPath {
        if self.crashed {
            return ReplyPath::Dead;
        }
        let (net, host) = (self.net.clone(), self.cfg.host);
        let known = self.routes.get(&client.0).map_or(&[][..], |r| &r.links[..]);
        let mut any_up = known.iter().any(|&l| net.is_up(l));
        if !any_up {
            let learned = net
                .links_between(host, client)
                .into_iter()
                .find(|l| !known.contains(l) && net.is_up(*l));
            if let Some(l) = learned {
                self.add_route(client, l);
                any_up = true;
            }
        }
        let route = self.routes.get(&client.0);
        if let (false, Some(relay)) = (any_up, route.and_then(|r| r.smtp.clone())) {
            return ReplyPath::Smtp(relay);
        }
        match route.and_then(|r| r.sched.clone()) {
            Some(sched) => ReplyPath::Sched(sched, net),
            None => ReplyPath::Direct(net, host),
        }
    }
}

#[cfg(test)]
mod admit_gate;
#[cfg(test)]
mod dedup_diff;
#[cfg(test)]
mod invoke_in_place;
