//! The client access manager: Rover's application-facing API.
//!
//! "All interaction between applications and the Rover toolkit is
//! handled by the access manager": it owns the object cache, the stable
//! operation log, and the network scheduler. Applications `import`
//! objects (cache hit → immediate, miss → QRPC + promise), mutate them
//! locally and `export` the operations back to the home server
//! (tentative commit now, real commit on reply), `invoke` RDO methods
//! locally or at the server, and `prefetch` against upcoming
//! disconnection. Everything keeps working while disconnected: QRPCs
//! sit in the stable log and drain on reconnection.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rover_log::{FlushPolicy, MemStore, OpLog, RecordKind};
use rover_net::{HostSched, LinkId, Net, SchedRef};
use rover_script::{Budget, Value};
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{
    Bytes, Decoder, Envelope, HostId, MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest,
    ReplyBatch, RequestId, RoverOp, SessionId, Version, Wire,
};

use crate::cache::Cache;
use crate::config::ClientConfig;
use crate::events::ClientEvent;
use crate::object::RoverObject;
use crate::payload::{ExportPayload, InvokePayload};
use crate::promise::{Outcome, Promise};
use crate::session::{Guarantees, Session};
use crate::urn::Urn;
use crate::RoverError;
use qrpc::{Answer, Issued, Probe, Settled};

mod qrpc;

/// The null QRPC's target.
const PING_URN: &str = "urn:rover:sys/ping";

/// Shared handle to a client access manager.
pub type ClientRef = Rc<RefCell<Client>>;

/// The two promises an export produces.
///
/// The *tentative* promise resolves as soon as the update is applied to
/// the local cache copy — this is the latency the user perceives. The
/// *committed* promise resolves when the home server's decision arrives
/// (possibly much later, after reconnection).
pub struct ExportHandle {
    /// Resolves at local (tentative) apply.
    pub tentative: Promise,
    /// Resolves at home-server commit/conflict.
    pub committed: Promise,
    /// The QRPC carrying the update.
    pub req: RequestId,
}

/// Caller-supplied cost hints for [`Client::invoke_adaptive`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PlacementHints {
    /// Expected result size in bytes.
    pub result_bytes: usize,
    /// Expected object size in bytes, if known (unknown objects are
    /// assumed large — 64 KiB).
    pub object_bytes: Option<usize>,
    /// Expected interpreter steps the method executes.
    pub compute_steps: u64,
    /// Future local invocations on this object are likely, so an
    /// import would amortize.
    pub reuse_likely: bool,
}

/// Keeps a [`Client::poll_object`] loop alive; dropping it stops the
/// polling.
pub struct PollGuard {
    _alive: Rc<()>,
}

/// Where [`Client::invoke_adaptive`] decided to run the method.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Ran on the already-cached copy.
    Local,
    /// Shipped the invocation to the home server.
    Remote,
    /// Imported the object and ran locally (now cached for reuse).
    ImportThenLocal,
}

struct Outstanding {
    request: QrpcRequest,
    /// `request` marshalled: the bytes the stable log holds and every
    /// transmission carries. Rebuilt only when `request` changes (the
    /// piggybacked floor moved, or a redirect re-addressed it).
    image: Bytes,
    log_seq: u64,
    promise: Promise,
    urn: Option<Urn>,
    /// Destination shard/server this request routes to (fixed at issue
    /// time; the basis of per-destination `acked_below` floors).
    dst: HostId,
    issued_at: SimTime,
    enqueue_epoch: u64,
    retries: u32,
    /// Direct (non-queued) RPCs skip retransmission.
    direct: bool,
    /// An RTO probe chain is currently scheduled for this request.
    rto_armed: bool,
    /// RTO probes that found the request neither queued nor answered
    /// while connected — after two, assume random channel loss and
    /// retransmit even without a disconnection epoch.
    strikes: u8,
    /// Current (backed-off) probe interval for this request. Starts at
    /// `cfg.rto`, doubled after each retransmission, capped at
    /// `cfg.rto_max`.
    rto_cur: SimDuration,
}

type Listener = Rc<RefCell<dyn FnMut(&mut Sim, &ClientEvent)>>;

/// The Rover client: access manager, cache, log, and QRPC engine.
pub struct Client {
    cfg: ClientConfig,
    net: Net,
    sched: SchedRef,
    links: Vec<LinkId>,
    cache: Cache,
    log: OpLog<MemStore>,
    sessions: HashMap<u64, Session>,
    outstanding: BTreeMap<u64, Outstanding>,
    /// Outstanding exports per object (controls tentative lifetime).
    dirty_ops: HashMap<Urn, usize>,
    /// Outstanding import per object: concurrent imports of the same
    /// URN coalesce onto one QRPC (click-ahead users re-request pages).
    inflight_imports: HashMap<Urn, u64>,
    /// Requests logged but awaiting a group-commit flush.
    parked: Vec<u64>,
    group_timer_armed: bool,
    /// Generation stamp for the window timer: a size-cap flush retires
    /// the armed timer's batch, and the stamp keeps that stale timer
    /// from cutting the *next* batch's window short (mirrors the
    /// server-side group-commit guard).
    group_timer_gen: u64,
    next_req: u64,
    next_session: u64,
    /// Incremented on every link-down transition; a request enqueued in
    /// an older epoch may have been lost.
    link_epoch: u64,
    removals_since_compact: usize,
    listeners: Vec<Listener>,
    /// Single-CPU serialization horizon: local costs (marshalling, log
    /// flushes, RDO execution) queue behind each other.
    cpu_free_at: SimTime,
}

/// What an import found.
enum Lookup {
    /// An admissible cached copy (tentative or not), served after the
    /// dispatch cost.
    Hit(Rc<RoverObject>, bool, SimDuration),
    /// An in-flight import of the same object at no lower priority.
    Joined(Promise),
    /// A miss, issued as a QRPC.
    Miss(Issued),
}

impl Client {
    /// Creates a client, wiring its scheduler and reply handler onto the
    /// network. `links` are candidate interfaces, best quality first.
    pub fn new(sim: &mut Sim, net: &Net, cfg: ClientConfig, links: Vec<LinkId>) -> ClientRef {
        let _ = sim;
        Client::boot(net, cfg, links, MemStore::new())
    }

    /// Restarts a client after a crash, resuming from the stable log:
    /// every logged-but-unanswered QRPC is re-issued (the home server's
    /// at-most-once cache absorbs any that actually committed before
    /// the crash), and fresh request and session ids start above every
    /// id the log remembers. Sessions, promises, and cached objects do
    /// not survive — only the queued operations do, exactly as in the
    /// paper's design.
    pub fn recover(
        sim: &mut Sim,
        net: &Net,
        cfg: ClientConfig,
        links: Vec<LinkId>,
        store: MemStore,
    ) -> ClientRef {
        let client = Client::boot(net, cfg, links, store);
        let ids = client.borrow_mut().replay(sim.now());
        sim.stats.add("client.recovered_qrpcs", ids.len() as u64);
        for id in ids {
            Client::enqueue_request(&client, sim, id, true);
        }
        client
    }

    /// Simulates a client crash: returns the stable log's device as
    /// found on reboot (unsynced bytes gone); the client handle must be
    /// dropped by the caller.
    pub fn crash(cl: &ClientRef) -> MemStore {
        let mut c = cl.borrow_mut();
        let fresh = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false)
            .expect("fresh in-memory log");
        let old = std::mem::replace(&mut c.log, fresh);
        c.outstanding.clear();
        old.into_store().crash(None)
    }

    fn boot(net: &Net, cfg: ClientConfig, links: Vec<LinkId>, store: MemStore) -> ClientRef {
        let sched = HostSched::new(cfg.host, cfg.sched_mode);
        HostSched::set_mtu(&sched, cfg.mtu);
        for &l in &links {
            HostSched::attach_link(&sched, net, l);
        }
        let log = OpLog::open_with(store, FlushPolicy::Manual, false)
            .expect("in-memory log recovery cannot fail");
        let host = cfg.host;
        let client = Rc::new(RefCell::new(Client {
            cache: Cache::new(cfg.cache_capacity),
            cfg,
            net: net.clone(),
            sched,
            links: links.clone(),
            log,
            sessions: HashMap::new(),
            outstanding: BTreeMap::new(),
            dirty_ops: HashMap::new(),
            inflight_imports: HashMap::new(),
            parked: Vec::new(),
            group_timer_armed: false,
            group_timer_gen: 0,
            next_req: 1,
            next_session: 1,
            link_epoch: 0,
            removals_since_compact: 0,
            listeners: Vec::new(),
            cpu_free_at: SimTime::ZERO,
        }));

        let weak = Rc::downgrade(&client);
        net.register_host(
            host,
            rover_net::wrap_reassembly(move |sim: &mut Sim, _net: &Net, env: Envelope| {
                let Some(cl) = weak.upgrade() else { return };
                match env.kind {
                    MsgKind::Reply | MsgKind::ReplyBatch => Client::on_reply(&cl, sim, env),
                    MsgKind::Callback => Client::on_callback(&cl, sim, env),
                    _ => {}
                }
            }),
        );

        for &l in &links {
            let weak = Rc::downgrade(&client);
            net.watch_link(l, move |sim, _net, _link, up| {
                if let Some(cl) = weak.upgrade() {
                    Client::on_link_change(&cl, sim, up);
                }
            });
        }
        client
    }

    /// Returns this client's host id.
    pub fn host(cl: &ClientRef) -> HostId {
        cl.borrow().cfg.host
    }

    /// Registers a user-notification listener.
    pub fn on_event<F>(cl: &ClientRef, f: F)
    where
        F: FnMut(&mut Sim, &ClientEvent) + 'static,
    {
        cl.borrow_mut().listeners.push(Rc::new(RefCell::new(f)));
    }

    /// Creates an application session.
    pub fn create_session(
        cl: &ClientRef,
        guarantees: Guarantees,
        accept_tentative: bool,
    ) -> SessionId {
        let mut c = cl.borrow_mut();
        let id = SessionId(c.next_session);
        c.next_session += 1;
        c.sessions
            .insert(id.0, Session::new(id, guarantees, accept_tentative));
        id
    }

    /// Number of QRPCs issued but not yet answered.
    pub fn outstanding_count(cl: &ClientRef) -> usize {
        cl.borrow().outstanding.len()
    }

    /// Queued (unanswered) QRPC records in the stable operation log.
    pub fn log_len(cl: &ClientRef) -> usize {
        cl.borrow()
            .log
            .records()
            .filter(|r| r.kind == RecordKind::Request)
            .count()
    }

    /// (objects, bytes) in the cache.
    pub fn cache_usage(cl: &ClientRef) -> (usize, usize) {
        let c = cl.borrow();
        (c.cache.len(), c.cache.used_bytes())
    }

    /// Returns whether an object is currently cached.
    pub fn is_cached(cl: &ClientRef, urn: &Urn) -> bool {
        cl.borrow().cache.contains(urn)
    }

    /// Returns the cached image a reader would see (shared, not copied).
    pub fn cached_object(
        cl: &ClientRef,
        urn: &Urn,
        accept_tentative: bool,
    ) -> Option<Rc<RoverObject>> {
        cl.borrow()
            .cache
            .peek(urn)
            .map(|e| Rc::clone(e.read_copy(accept_tentative)))
    }

    // ------------------------------------------------------------------
    // Public operations.

    /// Imports an object into the cache.
    ///
    /// Cache hits (admissible under the session's guarantees) complete
    /// after a dispatch cost without touching the network; misses issue
    /// a QRPC and resolve when the object arrives.
    pub fn import(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        prio: Priority,
    ) -> Result<Promise, RoverError> {
        let found = cl.borrow_mut().lookup(sim, urn, session, prio)?;
        let (obj, tentative, cost) = match found {
            Lookup::Hit(obj, tentative, cost) => (obj, tentative, cost),
            Lookup::Joined(promise) => return Ok(promise),
            Lookup::Miss(issued) => return Ok(Client::launch(cl, sim, issued)),
        };
        let promise = Promise::new();
        let p2 = promise.clone();
        let cl2 = cl.clone();
        let urn2 = urn.clone();
        sim.schedule_after(cost, move |sim| {
            let value = Value::str(urn2.as_str());
            let version = obj.version;
            p2.resolve(
                sim,
                Outcome {
                    tentative,
                    from_cache: true,
                    object: Some(obj),
                    ..Outcome::ok(value, version)
                },
            );
            Client::emit(
                &cl2,
                sim,
                ClientEvent::ImportDone {
                    urn: urn2,
                    from_cache: true,
                    tentative,
                    status: OpStatus::Ok,
                },
            );
        });
        Ok(promise)
    }

    /// The import step: serves an admissible cached copy, joins an
    /// in-flight import of the same object, or issues a QRPC.
    fn lookup(
        &mut self,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        prio: Priority,
    ) -> Result<Lookup, RoverError> {
        let connected = self.connected();
        let Some(sess) = self.sessions.get_mut(&session.0) else {
            return Err(RoverError::NoSuchSession(session.0));
        };
        let admissible_version = sess.read_admissible(urn, self.cache.version(urn));
        let accept_tentative = sess.accept_tentative || sess.needs_own_writes(urn);
        if let Some(entry) = self.cache.touch(urn, sim.now()) {
            // A callback-invalidated copy is refetched while connected;
            // a disconnected reader accepts the stale copy (better than
            // blocking).
            let stale = entry.invalidated_by.is_some() && connected;
            let use_tent = entry.tentative.is_some() && accept_tentative;
            if !stale && (admissible_version || use_tent) {
                let obj = Rc::clone(entry.read_copy(use_tent));
                sess.note_read(urn, obj.version);
                sim.stats.incr("client.cache_hits");
                let d = self.cfg.cpu.dispatch_cost();
                let cost = self.charge_serial(sim.now(), d);
                return Ok(Lookup::Hit(obj, use_tent, cost));
            }
            // Otherwise a monotonic-reads miss: stale cached copy.
        }

        sim.stats.incr("client.cache_misses");
        // Coalesce with an identical in-flight import — but never onto a
        // *lower*-priority one: a foreground click must not inherit a
        // background prefetch's queueing position, so it re-issues and
        // whichever reply lands first fills the cache.
        let inflight = self.inflight_imports.get(urn);
        if let Some(o) = inflight.and_then(|id| self.outstanding.get(id)) {
            if o.request.priority <= prio {
                sim.stats.incr("client.imports_coalesced");
                return Ok(Lookup::Joined(o.promise.clone()));
            }
            sim.stats.incr("client.imports_escalated");
        }
        let request = self.build_request(
            RoverOp::Import,
            urn.as_str(),
            session,
            prio,
            Bytes::new(),
            0,
        );
        self.inflight_imports.insert(urn.clone(), request.req_id.0);
        Ok(Lookup::Miss(self.issue(sim, request, Some(urn.clone()))))
    }

    /// Exports a mutating RDO method invocation: applies it to the local
    /// tentative copy now and queues a QRPC to the home server.
    pub fn export(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        method: &str,
        args: &[&str],
        prio: Priority,
    ) -> Result<ExportHandle, RoverError> {
        let (issued, local_cost, req_id) = {
            let mut guard = cl.borrow_mut();
            let c = &mut *guard;
            let dst = c.server_for(urn.as_str());
            let Some(sess) = c.sessions.get_mut(&session.0) else {
                return Err(RoverError::NoSuchSession(session.0));
            };
            let entry = c
                .cache
                .peek(urn)
                .ok_or_else(|| RoverError::NotCached(urn.to_string()))?;

            // Apply locally on a copy of the freshest local state: the
            // cache still holds the image, so `make_mut` copies it.
            let mut tentative = Rc::clone(entry.read_copy(true));
            let vals: Vec<Value> = args.iter().map(Value::str).collect();
            let applied = Rc::make_mut(&mut tentative).run_method(method, &vals, Budget::default());
            let run = applied.map_err(|e| {
                if matches!(e, RoverError::ScriptParse(_)) {
                    sim.stats.incr("script.parse_rejected");
                }
                e
            })?;
            if !c.cache.set_tentative(urn, tentative) {
                return Err(RoverError::NotCached(urn.to_string()));
            }
            let ordered = sess.guarantees.ordered_writes();
            let seq = sess.note_write_issued(urn, dst);
            let raw_cost = c.cfg.cpu.dispatch_cost() + c.cfg.cpu.interp_cost(run.steps);
            let local_cost = c.charge_serial(sim.now(), raw_cost);
            *c.dirty_ops.entry(urn.clone()).or_insert(0) += 1;

            let payload = ExportPayload {
                method: method.to_owned(),
                args: args.iter().map(|s| s.to_string()).collect(),
                session_seq: if ordered { seq } else { 0 },
            };
            let base_version = c.cache.version(urn).0;
            let request = c.build_request(
                RoverOp::Export {
                    method: method.to_owned(),
                },
                urn.as_str(),
                session,
                prio,
                payload.to_bytes(),
                base_version,
            );
            let req_id = request.req_id;
            sim.stats.incr("client.exports");
            // No extra delay: the CPU horizon already serializes the
            // QRPC's marshalling behind the local apply.
            (c.issue(sim, request, Some(urn.clone())), local_cost, req_id)
        };

        // Tentative promise: resolves after the local apply cost.
        let tentative = Promise::new();
        let t2 = tentative.clone();
        let cl2 = cl.clone();
        let urn2 = urn.clone();
        sim.schedule_after(local_cost, move |sim| {
            t2.resolve(
                sim,
                Outcome {
                    tentative: true,
                    from_cache: true,
                    ..Outcome::ok(Value::empty(), Version(0))
                },
            );
            Client::emit(
                &cl2,
                sim,
                ClientEvent::TentativeApplied {
                    urn: urn2,
                    req: req_id,
                },
            );
        });

        let committed = Client::launch(cl, sim, issued);
        Ok(ExportHandle {
            tentative,
            committed,
            req: req_id,
        })
    }
    /// Loads an object and runs a method on arrival: import combined
    /// with a local invocation ("the current implementation also has a
    /// load operation that is an import combined with a call to create
    /// a process", paper §3.2). The returned promise resolves with the
    /// method's result; cache hits run immediately.
    pub fn load(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        method: &str,
        args: &[&str],
        prio: Priority,
    ) -> Result<Promise, RoverError> {
        let import = Client::import(cl, sim, urn, session, prio)?;
        let promise = Promise::new();
        let out = promise.clone();
        let cl2 = cl.clone();
        let urn2 = urn.clone();
        let method = method.to_owned();
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        import.on_ready(sim, move |sim, outcome| {
            if outcome.status != OpStatus::Ok {
                out.resolve(sim, outcome.clone());
                return;
            }
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            match Client::invoke_local(&cl2, sim, &urn2, &method, &arg_refs) {
                Ok(inner) => {
                    let out2 = out.clone();
                    inner.on_ready(sim, move |sim, o| out2.resolve(sim, o.clone()));
                }
                Err(e) => {
                    let mut failed = outcome.clone();
                    failed.status = OpStatus::ExecError;
                    failed.value = Value::from(e.to_string());
                    out.resolve(sim, failed);
                }
            }
        });
        Ok(promise)
    }

    /// Chooses where to run a method — the paper's adaptation:
    /// "depending on the power of the mobile host and the available
    /// bandwidth, Rover dynamically adapts and moves functionality
    /// between the client and the server."
    ///
    /// Cached objects run locally for free. Otherwise the estimated
    /// completion times of *ship-the-function* (remote invoke: small
    /// request, result-sized reply) and *ship-the-data* (import the
    /// object, run locally, keep it cached) are compared over the
    /// currently active link, using the caller's [`PlacementHints`].
    /// Returns the promise plus the placement that was chosen.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke_adaptive(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        method: &str,
        args: &[&str],
        hints: PlacementHints,
        prio: Priority,
    ) -> Result<(Promise, Placement), RoverError> {
        if Client::is_cached(cl, urn) {
            let p = Client::invoke_local(cl, sim, urn, method, args)?;
            return Ok((p, Placement::Local));
        }

        // Estimate over the active link (fall back to the first
        // attached interface's parameters while disconnected — the
        // decision still holds when the queue drains over it).
        let (spec, client_cpu) = {
            let c = cl.borrow();
            let active =
                HostSched::active_link(&c.sched, &c.net).or_else(|| c.links.first().copied());
            (active.map(|l| c.net.spec(l)), c.cfg.cpu)
        };
        let Some(spec) = spec else {
            // No interfaces at all: ship the function; it is never
            // worse than also shipping the object.
            let p = Client::invoke_remote(cl, sim, urn, session, method, args, prio)?;
            return Ok((p, Placement::Remote));
        };

        // The client assumes a workstation-class home server, as the
        // paper's testbed had.
        let server_cpu = rover_sim::CpuModel::SERVER_WORKSTATION;
        let rtt = spec.latency.as_secs_f64() * 2.0;
        let req_bytes = 160 + hints.result_bytes / 64; // envelope + args
        let remote_s = rtt
            + spec.tx_time(req_bytes + hints.result_bytes).as_secs_f64()
            + server_cpu.interp_cost(hints.compute_steps).as_secs_f64();
        let object_bytes = hints.object_bytes.unwrap_or(64 << 10);
        let mut import_s = rtt
            + spec.tx_time(req_bytes + object_bytes).as_secs_f64()
            + client_cpu.interp_cost(hints.compute_steps).as_secs_f64();
        if hints.reuse_likely {
            // The import amortizes over future local invocations.
            import_s /= 2.0;
        }

        if remote_s <= import_s {
            sim.stats.incr("client.placement_remote");
            let p = Client::invoke_remote(cl, sim, urn, session, method, args, prio)?;
            Ok((p, Placement::Remote))
        } else {
            sim.stats.incr("client.placement_import");
            let p = Client::load(cl, sim, urn, session, method, args, prio)?;
            Ok((p, Placement::ImportThenLocal))
        }
    }

    /// Invokes a method on the cached copy, locally, read-only.
    ///
    /// This is the "cached RDO" fast path of experiment E4: no network,
    /// no log — just budgeted interpretation. Mutating methods are
    /// rejected; updates must go through [`Client::export`].
    pub fn invoke_local(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        method: &str,
        args: &[&str],
    ) -> Result<Promise, RoverError> {
        let (result, cost) = {
            let mut c = cl.borrow_mut();
            let entry = c
                .cache
                .peek_mut(urn)
                .ok_or_else(|| RoverError::NotCached(urn.to_string()))?;
            // Run on the freshest cached copy in place: a query leaves
            // it untouched, so `make_mut` copies only while an `Outcome`
            // still shares the image.
            let obj = Rc::make_mut(entry.tentative.as_mut().unwrap_or(&mut entry.committed));
            let vals: Vec<Value> = args.iter().map(Value::str).collect();
            let run = obj
                .run_query(method, &vals, Budget::default())
                .map_err(|e| {
                    if matches!(e, RoverError::ScriptParse(_)) {
                        sim.stats.incr("script.parse_rejected");
                    }
                    e
                })?;
            if run.mutated {
                return Err(RoverError::LocalMutation(urn.to_string()));
            }
            let raw = c.cfg.cpu.dispatch_cost() + c.cfg.cpu.interp_cost(run.steps);
            let cost = c.charge_serial(sim.now(), raw);
            (run.result, cost)
        };
        sim.stats.incr("client.local_invokes");
        sim.stats.sample_duration("client.local_invoke_ms", cost);
        let promise = Promise::new();
        let p2 = promise.clone();
        sim.schedule_after(cost, move |sim| {
            let outcome = Outcome {
                from_cache: true,
                ..Outcome::ok(result, Version(0))
            };
            p2.resolve(sim, outcome);
        });
        Ok(promise)
    }

    /// Invokes a method at the home server (function shipping) via QRPC.
    pub fn invoke_remote(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        method: &str,
        args: &[&str],
        prio: Priority,
    ) -> Result<Promise, RoverError> {
        let issued = {
            let mut c = cl.borrow_mut();
            if !c.sessions.contains_key(&session.0) {
                return Err(RoverError::NoSuchSession(session.0));
            }
            let payload = InvokePayload {
                method: method.to_owned(),
                args: args.iter().map(|s| s.to_string()).collect(),
            };
            let request = c.build_request(
                RoverOp::Invoke {
                    method: method.to_owned(),
                },
                urn.as_str(),
                session,
                prio,
                payload.to_bytes(),
                0,
            );
            c.issue(sim, request, Some(urn.clone()))
        };
        Ok(Client::launch(cl, sim, issued))
    }

    /// Issues a null QRPC (experiment E1's probe).
    pub fn ping(cl: &ClientRef, sim: &mut Sim, session: SessionId, prio: Priority) -> Promise {
        let issued = {
            let mut c = cl.borrow_mut();
            let request = c.build_request(RoverOp::Ping, PING_URN, session, prio, Bytes::new(), 0);
            c.issue(sim, request, None)
        };
        Client::launch(cl, sim, issued)
    }

    /// Issues a *plain* (non-queued) null RPC: no stable log, no
    /// scheduler queue — the conventional-RPC baseline E1 compares
    /// against. Fails immediately when disconnected, which is the point.
    pub fn ping_direct(
        cl: &ClientRef,
        sim: &mut Sim,
        session: SessionId,
    ) -> Result<Promise, RoverError> {
        let (env, marshal, link, net, promise) = {
            let mut c = cl.borrow_mut();
            let prio = Priority::FOREGROUND;
            let request = c.build_request(RoverOp::Ping, PING_URN, session, prio, Bytes::new(), 0);
            let image = request.to_bytes();
            let m = c.cfg.cpu.marshal_cost(image.len());
            let marshal = c.charge_serial(sim.now(), m);
            let Some(link) = HostSched::active_link(&c.sched, &c.net) else {
                return Err(RoverError::Wire("disconnected".into()));
            };
            let (id, dst) = (request.req_id.0, c.server_for(PING_URN));
            let o = Outstanding {
                direct: true,
                ..c.outstanding(sim.now(), request, image.clone(), 0, None, dst)
            };
            let promise = o.promise.clone();
            c.outstanding.insert(id, o);
            let env = Envelope {
                kind: MsgKind::Request,
                src: c.cfg.host,
                dst,
                body: image,
            };
            (env, marshal, link, c.net.clone(), promise)
        };
        sim.schedule_after(marshal, move |sim| {
            // Direct send: a failure is surfaced by never resolving.
            let _ = net.send(sim, link, env);
        });
        Ok(promise)
    }

    /// Prefetches objects at background priority ("filling the cache
    /// with useful information" before disconnection, paper §4).
    pub fn prefetch(cl: &ClientRef, sim: &mut Sim, urns: &[Urn], session: SessionId) {
        for urn in urns {
            if !Client::is_cached(cl, urn) {
                let _ = Client::import(cl, sim, urn, session, Priority::BACKGROUND);
                sim.stats.incr("client.prefetches");
            }
        }
    }

    /// Periodically refreshes a cached object — the paper's *polling*
    /// alternative to server callbacks for shrinking the stale-read
    /// window. Polls only run while connected (a disconnected refresh
    /// would just queue) and stop when the returned guard is dropped.
    pub fn poll_object(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
        every: SimDuration,
    ) -> PollGuard {
        let alive = Rc::new(());
        let weak_guard = Rc::downgrade(&alive);
        let weak_client = Rc::downgrade(cl);
        let urn = urn.clone();
        fn tick(
            weak_client: std::rc::Weak<RefCell<Client>>,
            weak_guard: std::rc::Weak<()>,
            sim: &mut Sim,
            urn: Urn,
            session: SessionId,
            every: SimDuration,
        ) {
            sim.schedule_after(every, move |sim| {
                if weak_guard.upgrade().is_none() {
                    return; // Guard dropped: stop polling.
                }
                let Some(cl) = weak_client.upgrade() else {
                    return;
                };
                let connected = {
                    let mut c = cl.borrow_mut();
                    // Force a refresh: a poll bypasses the cache hit
                    // path by invalidating first.
                    let v = c.cache.version(&urn);
                    let connected = c.connected();
                    if connected && v > Version(0) {
                        c.cache.invalidate(&urn, Version(v.0 + 1));
                    }
                    connected
                };
                if connected {
                    let _ = Client::import(&cl, sim, &urn, session, Priority::BACKGROUND);
                    sim.stats.incr("client.polls");
                }
                tick(weak_client, weak_guard, sim, urn, session, every);
            });
        }
        tick(weak_client, weak_guard, sim, urn.clone(), session, every);
        PollGuard { _alive: alive }
    }

    /// Pins (or unpins) a cached object against eviction — hoarded
    /// objects must survive cache pressure or the user's offline plan
    /// breaks. Returns whether the object was cached.
    pub fn set_hoarded(cl: &ClientRef, urn: &Urn, on: bool) -> bool {
        cl.borrow_mut().cache.set_hoarded(urn, on)
    }

    /// Prefetches a named *collection*: imports the collection object
    /// (whose `members` field lists URNs) and then prefetches every
    /// member. This is the paper's user-interface metaphor for
    /// "indicating collections of objects to be prefetched" — one click
    /// hoards a folder, a calendar week, a site.
    ///
    /// The returned promise resolves when the collection *index*
    /// arrives; members fill in behind it at background priority.
    pub fn prefetch_collection(
        cl: &ClientRef,
        sim: &mut Sim,
        urn: &Urn,
        session: SessionId,
    ) -> Result<Promise, RoverError> {
        let p = Client::import(cl, sim, urn, session, Priority::BACKGROUND)?;
        let cl2 = cl.clone();
        p.on_ready(sim, move |sim, outcome| {
            if let Some(obj) = &outcome.object {
                if let Some(members) = obj.field("members") {
                    let urns: Vec<Urn> = rover_script::parse_list(members)
                        .unwrap_or_default()
                        .iter()
                        .filter_map(|v| Urn::parse(&v.as_str()).ok())
                        .collect();
                    Client::prefetch(&cl2, sim, &urns, session);
                }
            }
        });
        Ok(p)
    }

    // ------------------------------------------------------------------
    // QRPC drivers: they act on the values the steps in `qrpc.rs`
    // return, and they alone schedule, enqueue, emit and resolve.

    /// Acts on an issued QRPC: arms the group window if the request
    /// opened one, releases what the log made durable; returns the
    /// request's completion promise.
    fn launch(cl: &ClientRef, sim: &mut Sim, issued: Issued) -> Promise {
        if let Some((window, gen)) = issued.window {
            let cl = cl.clone();
            sim.schedule_after(window, move |sim| {
                let flushed = cl.borrow_mut().window_closed(sim, gen);
                if let Some((ready, cost)) = flushed {
                    Client::release(&cl, sim, ready, cost);
                }
            });
        }
        Client::release(cl, sim, issued.ready, issued.delay);
        issued.promise
    }

    /// Hands requests the log made durable to the network scheduler
    /// once `delay` has passed.
    fn release(cl: &ClientRef, sim: &mut Sim, ready: Vec<u64>, delay: SimDuration) {
        if ready.is_empty() {
            return;
        }
        let cl = cl.clone();
        sim.schedule_after(delay, move |sim| {
            for id in ready {
                Client::enqueue_request(&cl, sim, id, true);
            }
        });
    }

    /// Hands a tracked request to the network scheduler.
    fn enqueue_request(cl: &ClientRef, sim: &mut Sim, req: u64, first: bool) {
        let mut c = cl.borrow_mut();
        let Some((env, prio)) = c.transmit(req, first) else {
            return;
        };
        let (sched, net) = (c.sched.clone(), c.net.clone());
        drop(c);
        HostSched::enqueue_keyed(&sched, sim, &net, env, prio, Some(req));
        if first {
            Client::arm_rto(cl, sim, req);
            return;
        }
        sim.stats.incr("client.retransmits");
        sim.trace("qrpc", format_args!("retransmit req={req}"));
        Client::emit(
            cl,
            sim,
            ClientEvent::Retransmit {
                req: RequestId(req),
            },
        );
    }

    /// Periodic retransmission probe for one request.
    ///
    /// The probe chain only lives while a link is up: while the client
    /// is disconnected nothing can be retransmitted anyway, so the
    /// chain parks itself and [`Client::on_link_change`] restarts it on
    /// reconnection. (This also lets `Sim::run` drain while requests
    /// wait out a disconnection.)
    fn arm_rto(cl: &ClientRef, sim: &mut Sim, req: u64) {
        let Some(interval) = cl.borrow_mut().arm(req) else {
            return;
        };
        let cl = cl.clone();
        sim.schedule_after(interval, move |sim| {
            let probe = cl.borrow_mut().probe(sim, req);
            match probe {
                Probe::Park => {}
                Probe::Rearm => Client::arm_rto(&cl, sim, req),
                Probe::Retransmit => {
                    Client::enqueue_request(&cl, sim, req, false);
                    Client::arm_rto(&cl, sim, req);
                }
                Probe::GiveUp(settled) => Client::finish(&cl, sim, settled),
            }
        });
    }

    /// Connectivity transition: bump the loss epoch on down; re-enqueue
    /// potentially lost requests on up.
    fn on_link_change(cl: &ClientRef, sim: &mut Sim, up: bool) {
        let resend = cl.borrow_mut().link_change(up);
        for id in resend {
            Client::enqueue_request(cl, sim, id, false);
        }
        if up {
            // Restart parked RTO probe chains.
            let ids: Vec<u64> = cl.borrow().outstanding.keys().copied().collect();
            for id in ids {
                Client::arm_rto(cl, sim, id);
            }
        }
        Client::emit(cl, sim, ClientEvent::Connectivity { up });
    }

    /// Reply arrival — one reply, or a coalesced batch of the replies
    /// the server committed in one group: one unmarshalling charge
    /// covers the envelope, then the replies complete in commit order.
    fn on_reply(cl: &ClientRef, sim: &mut Sim, env: Envelope) {
        let cost = {
            let mut c = cl.borrow_mut();
            let m = c.cfg.cpu.marshal_cost(env.body.len());
            c.charge_serial(sim.now(), m)
        };
        let cl = cl.clone();
        sim.schedule_after(cost, move |sim| {
            let batch = env.kind == MsgKind::ReplyBatch;
            let decoded = if batch {
                ReplyBatch::from_shared(&env.body).map(|b| (None, b.replies))
            } else {
                QrpcReply::from_shared(&env.body).map(|r| (Some(r), Vec::new()))
            };
            let Ok((one, many)) = decoded else {
                sim.stats.incr("client.bad_reply");
                sim.stats.incr(if batch {
                    "wire.decode_rejected.reply_batch"
                } else {
                    "wire.decode_rejected.reply"
                });
                return;
            };
            if batch {
                let coalesced = many.len().saturating_sub(1) as u64;
                sim.stats.add("client.replies_coalesced", coalesced);
            }
            for reply in one.into_iter().chain(many) {
                Client::complete(&cl, sim, reply);
            }
        });
    }

    /// Server callback: another client committed a newer version of a
    /// cached object — mark the local copy stale.
    fn on_callback(cl: &ClientRef, sim: &mut Sim, env: Envelope) {
        let mut dec = Decoder::new(&env.body);
        let (Ok(urn_str), Ok(version)) = (dec.get_str(), dec.get_u64()) else {
            sim.stats.incr("client.bad_callback");
            return;
        };
        let Ok(urn) = Urn::parse(&urn_str) else {
            sim.stats.incr("client.bad_callback");
            return;
        };
        let marked = cl.borrow_mut().cache.invalidate(&urn, Version(version));
        if marked {
            sim.stats.incr("client.invalidations");
            Client::emit(
                cl,
                sim,
                ClientEvent::Invalidated {
                    urn,
                    version: Version(version),
                },
            );
        }
    }

    /// A reply for an outstanding request: re-addresses it, or settles
    /// it and tells the application.
    fn complete(cl: &ClientRef, sim: &mut Sim, reply: QrpcReply) {
        let answer = cl.borrow_mut().answer(sim, reply);
        match answer {
            Some(Answer::Redirect(id)) => Client::enqueue_request(cl, sim, id, true),
            Some(Answer::Settle(settled)) => Client::finish(cl, sim, settled),
            None => {}
        }
    }

    /// Tells the application a request finished: its events in order,
    /// then its promise.
    fn finish(cl: &ClientRef, sim: &mut Sim, settled: Settled) {
        for ev in settled.events {
            Client::emit(cl, sim, ev);
        }
        settled.promise.resolve(sim, settled.outcome);
    }

    fn emit(cl: &ClientRef, sim: &mut Sim, ev: ClientEvent) {
        let listeners = cl.borrow().listeners.clone();
        for l in listeners {
            (l.borrow_mut())(sim, &ev);
        }
    }
}

#[cfg(test)]
mod retire_test;
#[cfg(test)]
mod settle_test;
