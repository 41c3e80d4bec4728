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
use rover_script::Value;
use rover_sim::{Sim, SimTime};
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpClass {
    Import,
    Export,
    Invoke,
    Ping,
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
    /// time; the basis of per-shard `acked_below` floors).
    dst: HostId,
    class: OpClass,
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
    rto_cur: rover_sim::SimDuration,
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

impl Client {
    /// Creates a client, wiring its scheduler and reply handler onto the
    /// network. `links` are candidate interfaces, best quality first.
    pub fn new(sim: &mut Sim, net: &Net, cfg: ClientConfig, links: Vec<LinkId>) -> ClientRef {
        Client::boot(sim, net, cfg, links, MemStore::new())
    }

    /// Restarts a client after a crash, resuming from the stable log:
    /// every logged-but-unanswered QRPC is re-issued (the home server's
    /// at-most-once cache absorbs any that actually committed before
    /// the crash). Sessions, promises, and cached objects do not
    /// survive — only the queued operations do, exactly as in the
    /// paper's design.
    pub fn recover(
        sim: &mut Sim,
        net: &Net,
        cfg: ClientConfig,
        links: Vec<LinkId>,
        store: MemStore,
    ) -> ClientRef {
        let client = Client::boot(sim, net, cfg, links, store);
        let recovered: Vec<(u64, QrpcRequest, Bytes)> = {
            let c = client.borrow();
            let completed: std::collections::HashSet<u64> = c
                .log
                .records()
                .filter(|r| r.kind == RecordKind::Completion)
                .filter_map(|r| r.payload[..].try_into().ok().map(u64::from_be_bytes))
                .collect();
            c.log
                .records()
                .filter(|r| r.kind == RecordKind::Request)
                .filter_map(|r| {
                    QrpcRequest::from_shared(&r.payload)
                        .ok()
                        .map(|q| (r.seq, q, r.payload.clone()))
                })
                .filter(|(_, q, _)| !completed.contains(&q.req_id.0))
                .collect()
        };
        {
            let mut c = client.borrow_mut();
            let epoch = c.link_epoch;
            let rto = c.cfg.rto;
            for (log_seq, request, image) in &recovered {
                c.next_req = c.next_req.max(request.req_id.0 + 1);
                let class = match &request.op {
                    RoverOp::Import => OpClass::Import,
                    RoverOp::Export { .. } => OpClass::Export,
                    RoverOp::Invoke { .. } => OpClass::Invoke,
                    _ => OpClass::Ping,
                };
                let urn = Urn::parse(&request.urn).ok();
                let dst = c.server_for(&request.urn);
                c.outstanding.insert(
                    request.req_id.0,
                    Outstanding {
                        request: request.clone(),
                        image: image.clone(),
                        log_seq: *log_seq,
                        promise: Promise::new(),
                        urn,
                        dst,
                        class,
                        issued_at: sim.now(),
                        enqueue_epoch: epoch,
                        retries: 0,
                        direct: false,
                        rto_armed: false,
                        strikes: 0,
                        rto_cur: rto,
                    },
                );
            }
        }
        sim.stats
            .add("client.recovered_qrpcs", recovered.len() as u64);
        for (_, request, _) in recovered {
            Client::enqueue_request(&client, sim, request.req_id.0, true);
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

    fn boot(
        sim: &mut Sim,
        net: &Net,
        cfg: ClientConfig,
        links: Vec<LinkId>,
        store: MemStore,
    ) -> ClientRef {
        let sched = HostSched::new(cfg.host, cfg.sched_mode);
        HostSched::set_mtu(&sched, cfg.mtu);
        for &l in &links {
            HostSched::attach_link(&sched, net, l);
        }
        let log = OpLog::open_with(store, FlushPolicy::Manual, false)
            .expect("in-memory log recovery cannot fail");
        let client = Rc::new(RefCell::new(Client {
            cfg,
            net: net.clone(),
            sched,
            links: links.clone(),
            cache: Cache::new(0),
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
        {
            let mut c = client.borrow_mut();
            c.cache = Cache::new(c.cfg.cache_capacity);
        }

        let host = client.borrow().cfg.host;
        let weak = Rc::downgrade(&client);
        net.register_host(
            host,
            rover_net::wrap_reassembly(move |sim: &mut Sim, _net: &Net, env: Envelope| {
                let Some(cl) = weak.upgrade() else { return };
                match env.kind {
                    MsgKind::Reply => Client::on_reply(&cl, sim, env),
                    MsgKind::ReplyBatch => Client::on_reply_batch(&cl, sim, env),
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
        let _ = sim;
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
        // Cache path.
        let hit = {
            let mut c = cl.borrow_mut();
            let sess = c
                .sessions
                .get(&session.0)
                .ok_or(RoverError::NoSuchSession(session.0))?;
            let accept_tentative = sess.accept_tentative;
            let needs_own = sess.needs_own_writes(urn);
            let admissible_version = {
                let v = c.cache.version(urn);
                sess.read_admissible(urn, v)
            };
            let now = sim.now();
            let connected = {
                let (sched, net) = (c.sched.clone(), c.net.clone());
                HostSched::active_link(&sched, &net).is_some()
            };
            match c.cache.touch(urn, now) {
                Some(entry) => {
                    // A callback-invalidated copy is refetched while
                    // connected; a disconnected reader accepts the
                    // stale copy (better than blocking).
                    let stale = entry.invalidated_by.is_some() && connected;
                    let has_tent = entry.tentative.is_some();
                    let use_tent = has_tent && (accept_tentative || needs_own);
                    if !stale && (admissible_version || use_tent) {
                        let obj = Rc::clone(entry.read_copy(use_tent));
                        let tentative = use_tent && has_tent;
                        let version = obj.version;
                        let sess = c.sessions.get_mut(&session.0).expect("checked above");
                        sess.note_read(urn, version);
                        Some((obj, tentative))
                    } else {
                        None // Monotonic-reads miss: stale cached copy.
                    }
                }
                None => None,
            }
        };

        if let Some((obj, tentative)) = hit {
            sim.stats.incr("client.cache_hits");
            let cost = {
                let mut c = cl.borrow_mut();
                let d = c.cfg.cpu.dispatch_cost();
                c.charge_serial(sim.now(), d)
            };
            let promise = Promise::new();
            let p2 = promise.clone();
            let cl2 = cl.clone();
            let urn2 = urn.clone();
            sim.schedule_after(cost, move |sim| {
                let version = obj.version;
                p2.resolve(
                    sim,
                    Outcome {
                        status: OpStatus::Ok,
                        value: Value::str(urn2.as_str()),
                        version,
                        tentative,
                        from_cache: true,
                        object: Some(obj),
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
            return Ok(promise);
        }

        sim.stats.incr("client.cache_misses");
        // Coalesce with an identical in-flight import — but never onto a
        // *lower*-priority one: a foreground click must not inherit a
        // background prefetch's queueing position, so it re-issues and
        // whichever reply lands first fills the cache.
        if let Some(req) = cl.borrow().inflight_imports.get(urn).copied() {
            if let Some(o) = cl.borrow().outstanding.get(&req) {
                if o.request.priority <= prio {
                    sim.stats.incr("client.imports_coalesced");
                    return Ok(o.promise.clone());
                }
                sim.stats.incr("client.imports_escalated");
            }
        }
        let request = {
            let mut c = cl.borrow_mut();
            c.build_request(
                RoverOp::Import,
                urn.as_str(),
                session,
                prio,
                Bytes::new(),
                0,
            )
        };
        cl.borrow_mut()
            .inflight_imports
            .insert(urn.clone(), request.req_id.0);
        Ok(Client::issue_qrpc(
            cl,
            sim,
            request,
            Some(urn.clone()),
            OpClass::Import,
            rover_sim::SimDuration::ZERO,
        ))
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
        let (request, local_cost) = {
            let mut c = cl.borrow_mut();
            if !c.sessions.contains_key(&session.0) {
                return Err(RoverError::NoSuchSession(session.0));
            }
            let entry = c
                .cache
                .peek(urn)
                .ok_or_else(|| RoverError::NotCached(urn.to_string()))?;

            // Apply locally on a copy of the freshest local state: the
            // cache still holds the image, so `make_mut` copies it.
            let mut tentative = Rc::clone(entry.read_copy(true));
            let vals: Vec<Value> = args.iter().map(Value::str).collect();
            let budget = c.cfg.budget;
            let applied = Rc::make_mut(&mut tentative).run_method(method, &vals, budget);
            let run = applied.map_err(|e| {
                if matches!(e, RoverError::ScriptParse(_)) {
                    sim.stats.incr("script.parse_rejected");
                }
                e
            })?;
            if !c.cache.set_tentative(urn, tentative) {
                return Err(RoverError::NotCached(urn.to_string()));
            }
            let raw_cost = c.cfg.cpu.dispatch_cost() + c.cfg.cpu.interp_cost(run.steps);
            let local_cost = c.charge_serial(sim.now(), raw_cost);
            *c.dirty_ops.entry(urn.clone()).or_insert(0) += 1;

            let base_version = c.cache.version(urn);
            let dst = c.server_for(urn.as_str());
            let sess = c.sessions.get_mut(&session.0).expect("checked");
            let ordered = sess.guarantees.ordered_writes();
            let seq = sess.note_write_issued(urn, dst);
            let payload = ExportPayload {
                method: method.to_owned(),
                args: args.iter().map(|s| s.to_string()).collect(),
                session_seq: if ordered { seq } else { 0 },
            };
            let request = c.build_request(
                RoverOp::Export {
                    method: method.to_owned(),
                },
                urn.as_str(),
                session,
                prio,
                payload.to_bytes(),
                base_version.0,
            );
            (request, local_cost)
        };

        let req_id = request.req_id;
        sim.stats.incr("client.exports");

        // Tentative promise: resolves after the local apply cost.
        let tentative = Promise::new();
        let t2 = tentative.clone();
        let cl2 = cl.clone();
        let urn2 = urn.clone();
        sim.schedule_after(local_cost, move |sim| {
            t2.resolve(
                sim,
                Outcome {
                    status: OpStatus::Ok,
                    value: Value::empty(),
                    version: Version(0),
                    tentative: true,
                    from_cache: true,
                    object: None,
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

        // No extra delay: the CPU horizon already serializes the QRPC's
        // marshalling behind the local apply.
        let committed = Client::issue_qrpc(
            cl,
            sim,
            request,
            Some(urn.clone()),
            OpClass::Export,
            rover_sim::SimDuration::ZERO,
        );
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
        let spec = {
            let c = cl.borrow();
            let active =
                HostSched::active_link(&c.sched, &c.net).or_else(|| c.links.first().copied());
            match active {
                Some(l) => c.net.spec(l),
                None => {
                    drop(c);
                    // No interfaces at all: ship the function; it is
                    // never worse than also shipping the object.
                    let p = Client::invoke_remote(cl, sim, urn, session, method, args, prio)?;
                    return Ok((p, Placement::Remote));
                }
            }
        };

        let client_cpu = cl.borrow().cfg.cpu;
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
            let budget = c.cfg.budget;
            let entry = c
                .cache
                .peek_mut(urn)
                .ok_or_else(|| RoverError::NotCached(urn.to_string()))?;
            // Run on the freshest cached copy in place: a query leaves
            // it untouched, so `make_mut` copies only while an `Outcome`
            // still shares the image.
            let obj = Rc::make_mut(entry.tentative.as_mut().unwrap_or(&mut entry.committed));
            let vals: Vec<Value> = args.iter().map(Value::str).collect();
            let run = obj.run_query(method, &vals, budget).map_err(|e| {
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
            p2.resolve(
                sim,
                Outcome {
                    status: OpStatus::Ok,
                    value: result,
                    version: Version(0),
                    tentative: false,
                    from_cache: true,
                    object: None,
                },
            );
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
        let request = {
            let mut c = cl.borrow_mut();
            if !c.sessions.contains_key(&session.0) {
                return Err(RoverError::NoSuchSession(session.0));
            }
            let payload = InvokePayload {
                method: method.to_owned(),
                args: args.iter().map(|s| s.to_string()).collect(),
            };
            c.build_request(
                RoverOp::Invoke {
                    method: method.to_owned(),
                },
                urn.as_str(),
                session,
                prio,
                payload.to_bytes(),
                0,
            )
        };
        Ok(Client::issue_qrpc(
            cl,
            sim,
            request,
            Some(urn.clone()),
            OpClass::Invoke,
            rover_sim::SimDuration::ZERO,
        ))
    }

    /// Issues a null QRPC (experiment E1's probe).
    pub fn ping(cl: &ClientRef, sim: &mut Sim, session: SessionId, prio: Priority) -> Promise {
        let request = {
            let mut c = cl.borrow_mut();
            c.build_request(
                RoverOp::Ping,
                "urn:rover:sys/ping",
                session,
                prio,
                Bytes::new(),
                0,
            )
        };
        Client::issue_qrpc(
            cl,
            sim,
            request,
            None,
            OpClass::Ping,
            rover_sim::SimDuration::ZERO,
        )
    }

    /// Issues a *plain* (non-queued) null RPC: no stable log, no
    /// scheduler queue — the conventional-RPC baseline E1 compares
    /// against. Fails immediately when disconnected, which is the point.
    pub fn ping_direct(
        cl: &ClientRef,
        sim: &mut Sim,
        session: SessionId,
    ) -> Result<Promise, RoverError> {
        let (request, image, marshal, link, net, server) = {
            let mut c = cl.borrow_mut();
            let request = c.build_request(
                RoverOp::Ping,
                "urn:rover:sys/ping",
                session,
                Priority::FOREGROUND,
                Bytes::new(),
                0,
            );
            let bytes = request.to_bytes();
            let m = c.cfg.cpu.marshal_cost(bytes.len());
            let marshal = c.charge_serial(sim.now(), m);
            let link = HostSched::active_link(&c.sched, &c.net);
            let dst = c.server_for("urn:rover:sys/ping");
            (request, bytes, marshal, link, c.net.clone(), dst)
        };
        let link = link.ok_or_else(|| RoverError::Wire("disconnected".into()))?;

        let promise = Promise::new();
        {
            let mut c = cl.borrow_mut();
            let epoch = c.link_epoch;
            let rto = c.cfg.rto;
            c.outstanding.insert(
                request.req_id.0,
                Outstanding {
                    request,
                    image: image.clone(),
                    log_seq: 0,
                    promise: promise.clone(),
                    urn: None,
                    dst: server,
                    class: OpClass::Ping,
                    issued_at: sim.now(),
                    enqueue_epoch: epoch,
                    retries: 0,
                    direct: true,
                    rto_armed: false,
                    strikes: 0,
                    rto_cur: rto,
                },
            );
        }
        let env = Envelope {
            kind: MsgKind::Request,
            src: Client::host(cl),
            dst: server,
            body: image,
        };
        let net2 = net.clone();
        sim.schedule_after(marshal, move |sim| {
            // Direct send: a failure is surfaced by never resolving.
            let _ = net2.send(sim, link, env);
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
        every: rover_sim::SimDuration,
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
            every: rover_sim::SimDuration,
        ) {
            sim.schedule_after(every, move |sim| {
                if weak_guard.upgrade().is_none() {
                    return; // Guard dropped: stop polling.
                }
                let Some(cl) = weak_client.upgrade() else {
                    return;
                };
                let connected = {
                    let c = cl.borrow();
                    let (sched, net) = (c.sched.clone(), c.net.clone());
                    HostSched::active_link(&sched, &net).is_some()
                };
                if connected {
                    // Force a refresh: a poll bypasses the cache hit
                    // path by invalidating first.
                    let v = cl.borrow().cache.version(&urn);
                    if v > Version(0) {
                        cl.borrow_mut().cache.invalidate(&urn, Version(v.0 + 1));
                    }
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
    // QRPC engine.

    /// Returns the home server for an object: the shard map (when
    /// configured) wins, then per-authority homes, then the default.
    fn server_for(&self, urn: &str) -> HostId {
        if let Some(map) = &self.cfg.shards {
            return map.host_for(urn);
        }
        Urn::parse(urn)
            .ok()
            .and_then(|u| self.cfg.authorities.get(u.authority()).copied())
            .unwrap_or(self.cfg.server)
    }

    /// Routes one outbound request, possibly amending it. Writes (and
    /// everything that is not an import) go to the object's home shard.
    /// An import may be offloaded to the least-loaded replica holder
    /// the dynamic directory lists for its URN — but only when the
    /// session has no pending writes on the object (read-your-writes
    /// routes home) — and then carries the session's read floor in the
    /// request's read-vector so the holder can refuse a stale serve
    /// (monotonic reads never weaken). Without a dynamic routing plane
    /// this is exactly [`Client::server_for`] and the request is
    /// untouched.
    fn route_request(&mut self, request: &mut QrpcRequest) -> HostId {
        let home = self.server_for(&request.urn);
        if !matches!(request.op, RoverOp::Import) {
            return home;
        }
        let Some(map) = self.cfg.shards.clone() else {
            return home;
        };
        if map.len() <= 1 || !map.has_dynamic() {
            return home;
        }
        let (floor, pending) = match (
            self.sessions.get(&request.session.0),
            Urn::parse(&request.urn).ok(),
        ) {
            (Some(sess), Some(u)) => (sess.read_floor(&u).0, sess.needs_own_writes(&u)),
            _ => (0, false),
        };
        if pending {
            return home;
        }
        let dst = map.read_host_for(&request.urn, floor);
        if dst != home {
            request.read_vector = vec![(request.urn.clone(), floor)];
        }
        dst
    }

    /// Serializes a local CPU/storage cost behind earlier local work;
    /// returns the delay from `now` until this work completes.
    fn charge_serial(
        &mut self,
        now: SimTime,
        cost: rover_sim::SimDuration,
    ) -> rover_sim::SimDuration {
        let start = self.cpu_free_at.max(now);
        let done = start + cost;
        self.cpu_free_at = done;
        done.since(now)
    }

    /// Lowest request id not yet answered: every id strictly below it
    /// had its reply fully processed here, so the server may safely
    /// forget their dedup entries (piggybacked as
    /// `QrpcRequest::acked_below`).
    fn ack_floor(&self) -> u64 {
        self.outstanding
            .keys()
            .next()
            .copied()
            .unwrap_or(self.next_req)
    }

    /// Per-shard acknowledgement floor: the lowest unanswered request id
    /// *routed to `dst`*. Request ids stay globally unique per client
    /// (replies carry only the id), so each shard sees a sparse subset
    /// of the id space; its floor may only account for requests it will
    /// ever see, otherwise a slow shard would hold back dedup eviction
    /// on a fast one — or worse, a fast shard's floor would overrun ids
    /// still outstanding at a slow one. Unsharded clients keep the
    /// global floor so their wire bytes are unchanged.
    fn ack_floor_for(&self, dst: HostId) -> u64 {
        if self.cfg.shards.is_none() {
            return self.ack_floor();
        }
        self.outstanding
            .iter()
            .find(|(_, o)| o.dst == dst)
            .map(|(id, _)| *id)
            .unwrap_or(self.next_req)
    }

    fn build_request(
        &mut self,
        op: RoverOp,
        urn: &str,
        session: SessionId,
        priority: Priority,
        payload: Bytes,
        base_version: u64,
    ) -> QrpcRequest {
        let req_id = RequestId(self.next_req);
        self.next_req += 1;
        let dst = self.server_for(urn);
        let acked_below = self.ack_floor_for(dst).min(req_id.0);
        // Cross-shard writes-follow-reads: a write leaving for one shard
        // carries the session's read floors for objects homed *on that
        // shard*, so the shard can refuse to admit the write into a
        // state older than anything this session already observed
        // (relevant after a shard crash-restart). Single-shard traffic
        // carries nothing — its wire bytes are unchanged.
        let read_vector = match (&op, &self.cfg.shards) {
            (RoverOp::Export { .. }, Some(map)) if map.len() > 1 => {
                match self.sessions.get(&session.0) {
                    Some(sess) => {
                        let mut rv: Vec<(String, u64)> = sess
                            .reads()
                            .filter(|(u, _)| self.server_for(u.as_str()) == dst)
                            .map(|(u, v)| (u.as_str().to_owned(), v.0))
                            .collect();
                        rv.sort();
                        rv.truncate(16);
                        rv
                    }
                    None => Vec::new(),
                }
            }
            _ => Vec::new(),
        };
        QrpcRequest {
            req_id,
            client: self.cfg.host,
            session,
            op,
            urn: urn.to_owned(),
            base_version: Version(base_version),
            priority,
            auth: self.cfg.auth_token,
            acked_below,
            payload,
            read_vector,
        }
    }

    /// Logs, schedules and tracks one QRPC; returns its completion
    /// promise. `extra_delay` precedes marshalling (local RDO apply
    /// time for exports).
    fn issue_qrpc(
        cl: &ClientRef,
        sim: &mut Sim,
        mut request: QrpcRequest,
        urn: Option<Urn>,
        class: OpClass,
        extra_delay: rover_sim::SimDuration,
    ) -> Promise {
        let promise = Promise::new();
        let req_id = request.req_id;
        let (ready, delay) = {
            let mut c = cl.borrow_mut();
            // Route before marshalling: replica-offloaded imports gain
            // their read-floor trailer here, so the logged bytes match
            // the wire bytes.
            let routed = c.route_request(&mut request);
            let bytes = request.to_bytes();
            let marshal = c.cfg.cpu.marshal_cost(bytes.len());
            sim.stats.sample_duration("client.marshal_ms", marshal);

            // Stable-log handling per policy: a per-operation flush is a
            // group of one.
            let (log_seq, flush_cost, ready) = match c.cfg.log_policy.group() {
                None => (0, rover_sim::SimDuration::ZERO, vec![req_id.0]),
                Some((n, timeout)) => {
                    let seq = c
                        .log
                        .append(RecordKind::Request, bytes.clone())
                        .expect("in-memory log append");
                    c.parked.push(req_id.0);
                    if c.parked.len() >= n {
                        let (ready, cost) = c.flush_parked(sim);
                        (seq, cost, ready)
                    } else {
                        if !c.group_timer_armed {
                            c.group_timer_armed = true;
                            c.group_timer_gen += 1;
                            let gen = c.group_timer_gen;
                            let cl2 = cl.clone();
                            sim.schedule_after(timeout, move |sim| {
                                let live = {
                                    let c = cl2.borrow();
                                    c.group_timer_armed && c.group_timer_gen == gen
                                };
                                if live {
                                    Client::group_flush(&cl2, sim);
                                }
                            });
                        }
                        (seq, rover_sim::SimDuration::ZERO, Vec::new())
                    }
                }
            };

            let epoch = c.link_epoch;
            let rto = c.cfg.rto;
            let dst = routed;
            c.outstanding.insert(
                req_id.0,
                Outstanding {
                    request,
                    image: bytes,
                    log_seq,
                    promise: promise.clone(),
                    urn: urn.clone(),
                    dst,
                    class,
                    issued_at: sim.now(),
                    enqueue_epoch: epoch,
                    retries: 0,
                    direct: false,
                    rto_armed: false,
                    strikes: 0,
                    rto_cur: rto,
                },
            );
            if let Some(u) = &urn {
                c.cache.pin(u, 1);
            }
            let delay = c.charge_serial(sim.now(), extra_delay + marshal + flush_cost);
            (ready, delay)
        };
        sim.stats.incr("client.qrpc_issued");
        sim.trace(
            "qrpc",
            format_args!("issue req={} class={class:?}", req_id.0),
        );

        if !ready.is_empty() {
            let cl2 = cl.clone();
            sim.schedule_after(delay, move |sim| {
                for id in ready {
                    Client::enqueue_request(&cl2, sim, id, true);
                }
            });
        }
        promise
    }

    /// Group-commit timeout: flush and release parked requests.
    fn group_flush(cl: &ClientRef, sim: &mut Sim) {
        let (ready, cost) = {
            let mut c = cl.borrow_mut();
            c.group_timer_armed = false;
            if c.parked.is_empty() {
                return;
            }
            c.flush_parked(sim)
        };
        let cl2 = cl.clone();
        sim.schedule_after(cost, move |sim| {
            for id in ready {
                Client::enqueue_request(&cl2, sim, id, true);
            }
        });
    }

    /// Forces the log and takes the parked requests the flush made
    /// durable, with the flush's cost. Disarms the window timer, whose
    /// batch this was. The caller schedules the release.
    fn flush_parked(&mut self, sim: &mut Sim) -> (Vec<u64>, rover_sim::SimDuration) {
        let receipt = self.log.flush().expect("in-memory log flush");
        let cost = self.cfg.storage.flush_cost(receipt);
        sim.stats.sample_duration("client.flush_ms", cost);
        self.group_timer_armed = false;
        (std::mem::take(&mut self.parked), cost)
    }

    /// Hands a tracked request to the network scheduler.
    fn enqueue_request(cl: &ClientRef, sim: &mut Sim, req: u64, first: bool) {
        let item = {
            let mut c = cl.borrow_mut();
            let epoch = c.link_epoch;
            let host = c.cfg.host;
            let (sched, net) = (c.sched.clone(), c.net.clone());
            // Every copy of a request goes to the destination recorded
            // at issue time: re-computing the route per transmit would
            // let a retransmission chase a migration to a shard that
            // never saw the original — and re-execute a commit whose
            // reply was merely lost. Route changes happen only through
            // the explicit redirect path (fresh request id).
            let dst = c.outstanding.get(&req).map(|o| o.dst);
            let floor = dst.map_or(req, |d| c.ack_floor_for(d).min(req));
            match (c.outstanding.get_mut(&req), dst) {
                (Some(o), Some(dst)) => {
                    o.enqueue_epoch = epoch;
                    if !first {
                        o.retries += 1;
                    }
                    // Piggyback the freshest acknowledgement floor on
                    // every copy of the request that hits the wire, so
                    // the server's dedup eviction keeps pace. The logged
                    // image goes out as it is unless the floor moved.
                    if o.request.acked_below != floor {
                        o.request.acked_below = floor;
                        o.image = o.request.to_bytes();
                    }
                    let env = Envelope {
                        kind: MsgKind::Request,
                        src: host,
                        dst,
                        body: o.image.clone(),
                    };
                    Some((env, o.request.priority, sched, net))
                }
                _ => None,
            }
        };
        if let Some((env, prio, sched, net)) = item {
            HostSched::enqueue_keyed(&sched, sim, &net, env, prio, Some(req));
            if first {
                Client::arm_rto(cl, sim, req);
            } else {
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
        }
    }

    /// Periodic retransmission probe for one request.
    ///
    /// The probe chain only lives while a link is up: while the client
    /// is disconnected nothing can be retransmitted anyway, so the
    /// chain parks itself and [`Client::on_link_change`] restarts it on
    /// reconnection. (This also lets `Sim::run` drain while requests
    /// wait out a disconnection.)
    fn arm_rto(cl: &ClientRef, sim: &mut Sim, req: u64) {
        let interval = match cl.borrow_mut().outstanding.get_mut(&req) {
            Some(o) if !o.rto_armed && !o.direct => {
                o.rto_armed = true;
                o.rto_cur
            }
            _ => return,
        };
        let cl2 = cl.clone();
        sim.schedule_after(interval, move |sim| {
            enum Probe {
                Park,
                Rearm,
                Retransmit,
                GiveUp,
            }
            let action = {
                let mut c = cl2.borrow_mut();
                let connected = {
                    let (sched, net) = (c.sched.clone(), c.net.clone());
                    HostSched::active_link(&sched, &net).is_some()
                };
                let queued = {
                    let sched = c.sched.clone();
                    HostSched::has_key(&sched, req)
                };
                let epoch = c.link_epoch;
                let rto_max = c.cfg.rto_max;
                let budget = c.cfg.retry_budget;
                match c.outstanding.get_mut(&req) {
                    None => Probe::Park, // Completed; stop probing.
                    Some(o) => {
                        o.rto_armed = false;
                        if !connected {
                            Probe::Park // Restarted on reconnection.
                        } else if queued {
                            o.strikes = 0;
                            Probe::Rearm
                        } else {
                            let suspected = if o.enqueue_epoch < epoch {
                                true
                            } else {
                                // Connected, transmitted, unanswered:
                                // after two probes assume random loss.
                                o.strikes += 1;
                                if o.strikes >= 2 {
                                    o.strikes = 0;
                                    true
                                } else {
                                    false
                                }
                            };
                            if !suspected {
                                Probe::Rearm
                            } else if budget.is_some_and(|b| o.retries >= b) {
                                Probe::GiveUp
                            } else {
                                // Exponential backoff: each
                                // retransmission doubles the probe
                                // interval up to the cap.
                                let grown = rover_sim::SimDuration::from_micros(
                                    o.rto_cur.as_micros().saturating_mul(2),
                                );
                                o.rto_cur = grown.min(rto_max);
                                Probe::Retransmit
                            }
                        }
                    }
                }
            };
            match action {
                Probe::Park => {}
                Probe::Rearm => Client::arm_rto(&cl2, sim, req),
                Probe::Retransmit => {
                    Client::enqueue_request(&cl2, sim, req, false);
                    Client::arm_rto(&cl2, sim, req);
                }
                Probe::GiveUp => Client::give_up(&cl2, sim, req),
            }
        });
    }

    /// Retry budget exhausted: abandon a queued QRPC gracefully. The
    /// request is retired from the stable log (so a crash-recovery does
    /// not resurrect it), cache pins and tentative bookkeeping are
    /// unwound exactly as on completion, and the promise resolves with
    /// a locally synthesized [`OpStatus::Unreachable`] outcome.
    fn give_up(cl: &ClientRef, sim: &mut Sim, req: u64) {
        let mut events: Vec<ClientEvent> = Vec::new();
        let done = {
            let mut c = cl.borrow_mut();
            let Some(o) = c.outstanding.remove(&req) else {
                return; // Raced with a late reply.
            };
            c.retire_log_record(req, o.log_seq);
            if let Some(u) = &o.urn {
                c.cache.pin(u, -1);
                if o.class == OpClass::Import && c.inflight_imports.get(u) == Some(&req) {
                    c.inflight_imports.remove(u);
                }
            }
            if o.class == OpClass::Export {
                let urn = o.urn.clone().expect("exports carry a urn");
                if let Some(sess) = c.sessions.get_mut(&o.request.session.0) {
                    sess.note_write_done(&urn, Version(0));
                }
                if let Some(n) = c.dirty_ops.get_mut(&urn) {
                    *n -= 1;
                    if *n == 0 {
                        c.dirty_ops.remove(&urn);
                        c.cache.clear_tentative(&urn);
                    }
                }
            }
            events.push(ClientEvent::Unreachable {
                req: RequestId(req),
                urn: o.urn.clone(),
            });
            let outcome = Outcome {
                status: OpStatus::Unreachable,
                value: Value::empty(),
                version: Version(0),
                tentative: false,
                from_cache: false,
                object: None,
            };
            sim.stats.incr("client.retry_exhausted");
            sim.trace(
                "qrpc",
                format_args!("give up req={req}: retry budget exhausted"),
            );
            (o.promise, outcome)
        };
        for ev in events {
            Client::emit(cl, sim, ev);
        }
        let (promise, outcome) = done;
        promise.resolve(sim, outcome);
    }

    /// Drops a decided (or abandoned) request's record from the stable
    /// log, leaving a completion marker so a post-crash recovery does
    /// not re-issue it. Compaction re-frames every live record, so it
    /// waits until the removals since the last one match the requests
    /// still outstanding (or 64): the work stays linear in retirements
    /// and the device holds fewer dead records than live ones (or 64).
    fn retire_log_record(&mut self, req: u64, log_seq: u64) {
        if log_seq == 0 {
            return;
        }
        let _ = self.log.remove(log_seq);
        // Completion marker: keeps a post-crash recovery from
        // re-issuing this request while its bytes still sit on the
        // device. Not flushed — it rides with later traffic.
        let _ = self
            .log
            .append(RecordKind::Completion, req.to_be_bytes().to_vec());
        self.removals_since_compact += 1;
        if self.removals_since_compact >= self.outstanding.len().max(64) {
            // Compaction drops dead request bytes, which also obsoletes
            // every completion marker.
            let stale: Vec<u64> = self
                .log
                .records()
                .filter(|r| r.kind == RecordKind::Completion)
                .map(|r| r.seq)
                .collect();
            for seq in stale {
                let _ = self.log.remove(seq);
            }
            let _ = self.log.compact();
            self.removals_since_compact = 0;
        }
    }

    /// Connectivity transition: bump the loss epoch on down; re-enqueue
    /// potentially lost requests on up.
    fn on_link_change(cl: &ClientRef, sim: &mut Sim, up: bool) {
        let to_resend: Vec<u64> = {
            let mut c = cl.borrow_mut();
            if !up {
                c.link_epoch += 1;
                Vec::new()
            } else {
                let epoch = c.link_epoch;
                let sched = c.sched.clone();
                c.outstanding
                    .iter()
                    .filter(|(id, o)| {
                        !o.direct && o.enqueue_epoch < epoch && !HostSched::has_key(&sched, **id)
                    })
                    .map(|(id, _)| *id)
                    .collect()
            }
        };
        for id in to_resend {
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

    /// Reply arrival: charge unmarshalling, then complete the QRPC.
    fn on_reply(cl: &ClientRef, sim: &mut Sim, env: Envelope) {
        let cost = {
            let mut c = cl.borrow_mut();
            let m = c.cfg.cpu.marshal_cost(env.body.len());
            c.charge_serial(sim.now(), m)
        };
        let cl2 = cl.clone();
        sim.schedule_after(cost, move |sim| {
            let reply = match QrpcReply::from_shared(&env.body) {
                Ok(r) => r,
                Err(_) => {
                    sim.stats.incr("client.bad_reply");
                    sim.stats.incr("wire.decode_rejected.reply");
                    return;
                }
            };
            Client::complete(&cl2, sim, reply);
        });
    }

    /// Coalesced reply batch: one envelope carrying several replies the
    /// server committed in one group. One unmarshalling charge covers
    /// the whole envelope; the replies complete in commit order.
    fn on_reply_batch(cl: &ClientRef, sim: &mut Sim, env: Envelope) {
        let cost = {
            let mut c = cl.borrow_mut();
            let m = c.cfg.cpu.marshal_cost(env.body.len());
            c.charge_serial(sim.now(), m)
        };
        let cl2 = cl.clone();
        sim.schedule_after(cost, move |sim| {
            let batch = match ReplyBatch::from_shared(&env.body) {
                Ok(b) => b,
                Err(_) => {
                    sim.stats.incr("client.bad_reply");
                    sim.stats.incr("wire.decode_rejected.reply_batch");
                    return;
                }
            };
            sim.stats.add(
                "client.replies_coalesced",
                batch.replies.len().saturating_sub(1) as u64,
            );
            for reply in batch.replies {
                Client::complete(&cl2, sim, reply);
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

    /// Re-issues an outstanding request to the object's current home
    /// shard under a fresh request id. Used when a reply proves the
    /// original destination cannot (or must not) serve it: the object
    /// migrated away, a replica holder's copy missed the session floor,
    /// or an `Ok` import landed below the monotonic-reads floor.
    ///
    /// The fresh id keeps at-most-once intact: the *old* id's dedup slot
    /// at the old destination stays poisoned with its non-executing
    /// reply, and the new destination sees a request it has never
    /// executed. The stable-log record of the original is kept (same
    /// `log_seq`): crash recovery re-issues the logged request to the
    /// then-current route, which is exactly this path replayed.
    fn redirect(cl: &ClientRef, sim: &mut Sim, req: u64) {
        let new_id = {
            let mut c = cl.borrow_mut();
            let Some(mut o) = c.outstanding.remove(&req) else {
                sim.stats.incr("client.duplicate_replies");
                return;
            };
            let new_id = RequestId(c.next_req);
            c.next_req += 1;
            // Always back to the home shard (migration-pin aware): the
            // dynamic read plane already had its chance.
            let dst = c.server_for(o.request.urn.as_str());
            o.request.req_id = new_id;
            o.request.acked_below = c.ack_floor_for(dst).min(new_id.0);
            o.request.read_vector = Vec::new();
            if o.class == OpClass::Export {
                // Ordered writes sequence per destination: a redirected
                // export consumes a fresh seq in the new home's space
                // (the old seq was drawn for — and burned at — the old
                // destination, whose server advanced past it when it
                // answered `WrongShard`).
                if let Ok(payload) = ExportPayload::from_bytes(&o.request.payload) {
                    if payload.session_seq > 0 {
                        if let Some(sess) = c.sessions.get_mut(&o.request.session.0) {
                            let seq = sess.next_seq_for(dst);
                            o.request.payload = ExportPayload {
                                session_seq: seq,
                                ..payload
                            }
                            .to_bytes();
                        }
                    }
                }
                // Writes-follow-reads floors for the new destination,
                // mirroring build_request.
                if c.cfg.shards.as_ref().is_some_and(|m| m.len() > 1) {
                    if let Some(sess) = c.sessions.get(&o.request.session.0) {
                        let mut rv: Vec<(String, u64)> = sess
                            .reads()
                            .filter(|(u, _)| c.server_for(u.as_str()) == dst)
                            .map(|(u, v)| (u.as_str().to_owned(), v.0))
                            .collect();
                        rv.sort();
                        rv.truncate(16);
                        o.request.read_vector = rv;
                    }
                }
            }
            o.image = o.request.to_bytes();
            o.dst = dst;
            o.enqueue_epoch = c.link_epoch;
            o.retries = 0;
            o.rto_armed = false;
            o.strikes = 0;
            o.rto_cur = c.cfg.rto;
            if let Some(u) = &o.urn {
                if o.class == OpClass::Import && c.inflight_imports.get(u) == Some(&req) {
                    c.inflight_imports.insert(u.clone(), new_id.0);
                }
            }
            c.outstanding.insert(new_id.0, o);
            new_id
        };
        sim.stats.incr("client.redirects");
        sim.trace(
            "qrpc",
            format_args!("redirect req={req} -> req={}", new_id.0),
        );
        Client::enqueue_request(cl, sim, new_id.0, true);
    }

    fn complete(cl: &ClientRef, sim: &mut Sim, reply: QrpcReply) {
        // Replica-plane redirects. A `WrongShard` answer means the
        // destination could not serve this request (object re-homed by a
        // migration, or a replica holder's copy was too stale for the
        // session's floor): re-issue to the object's current home. An
        // `Ok` import that lands *below* the session's monotonic-reads
        // floor can also happen under dynamic routing (a concurrent
        // export raised the floor while the replica read was in flight)
        // — re-read from home rather than weaken MR.
        let redirect = {
            let c = cl.borrow();
            match c.outstanding.get(&reply.req_id.0) {
                None => false,
                Some(o) => {
                    reply.status == OpStatus::WrongShard
                        || (o.class == OpClass::Import
                            && reply.status == OpStatus::Ok
                            && c.cfg.shards.as_ref().is_some_and(|m| m.has_dynamic())
                            && match (c.sessions.get(&o.request.session.0), &o.urn) {
                                (Some(sess), Some(u)) => {
                                    sess.guarantees.mr && reply.version < sess.read_floor(u)
                                }
                                _ => false,
                            })
                }
            }
        };
        if redirect {
            Client::redirect(cl, sim, reply.req_id.0);
            return;
        }

        let mut events: Vec<ClientEvent> = Vec::new();
        let done = {
            let mut c = cl.borrow_mut();
            let Some(o) = c.outstanding.remove(&reply.req_id.0) else {
                sim.stats.incr("client.duplicate_replies");
                return;
            };
            c.retire_log_record(reply.req_id.0, o.log_seq);
            if let Some(u) = &o.urn {
                c.cache.pin(u, -1);
                if o.class == OpClass::Import && c.inflight_imports.get(u) == Some(&reply.req_id.0)
                {
                    c.inflight_imports.remove(u);
                }
            }

            let mut outcome = Outcome {
                status: reply.status,
                value: Value::empty(),
                version: reply.version,
                tentative: false,
                from_cache: false,
                object: None,
            };

            match o.class {
                OpClass::Ping => {}
                OpClass::Invoke => {
                    if reply.status == OpStatus::Ok {
                        let mut dec = Decoder::new(&reply.payload);
                        if let Ok(s) = dec.get_str() {
                            outcome.value = Value::from(s);
                        }
                    }
                }
                OpClass::Import => {
                    if reply.status == OpStatus::Ok {
                        if let Ok(obj) = RoverObject::from_shared(&reply.payload).map(Rc::new) {
                            let urn = obj.urn.clone();
                            outcome.value = Value::str(urn.as_str());
                            outcome.object = Some(Rc::clone(&obj));
                            for u in c.cache.install_committed(obj, sim.now()) {
                                events.push(ClientEvent::Evicted { urn: u });
                            }
                            if let Some(sess) = c.sessions.get_mut(&o.request.session.0) {
                                sess.note_read(&urn, reply.version);
                            }
                            events.push(ClientEvent::ImportDone {
                                urn,
                                from_cache: false,
                                tentative: false,
                                status: reply.status,
                            });
                        }
                    } else if let Some(u) = &o.urn {
                        events.push(ClientEvent::ImportDone {
                            urn: u.clone(),
                            from_cache: false,
                            tentative: false,
                            status: reply.status,
                        });
                    }
                }
                OpClass::Export => {
                    let urn = o.urn.clone().expect("exports carry a urn");
                    // Session bookkeeping.
                    let committed_version = match reply.status {
                        OpStatus::Ok | OpStatus::Resolved => reply.version,
                        _ => Version(0),
                    };
                    if let Some(sess) = c.sessions.get_mut(&o.request.session.0) {
                        sess.note_write_done(&urn, committed_version);
                    }
                    // Install the server's post-decision state.
                    if let Ok(obj) = RoverObject::from_shared(&reply.payload).map(Rc::new) {
                        outcome.object = Some(Rc::clone(&obj));
                        for u in c.cache.install_committed(obj, sim.now()) {
                            events.push(ClientEvent::Evicted { urn: u });
                        }
                    }
                    // Tentative copy lives until the last pending export
                    // on this object is decided.
                    if let Some(n) = c.dirty_ops.get_mut(&urn) {
                        *n -= 1;
                        if *n == 0 {
                            c.dirty_ops.remove(&urn);
                            c.cache.clear_tentative(&urn);
                        }
                    }
                    if reply.status == OpStatus::Conflict {
                        sim.stats.incr("client.conflicts");
                        events.push(ClientEvent::ConflictReflected {
                            urn: urn.clone(),
                            req: reply.req_id,
                        });
                    }
                    events.push(ClientEvent::Committed {
                        urn,
                        req: reply.req_id,
                        status: reply.status,
                    });
                }
            }

            sim.stats.incr("client.qrpc_completed");
            sim.trace(
                "qrpc",
                format_args!("complete req={} status={:?}", reply.req_id.0, reply.status),
            );
            sim.stats
                .sample_duration("client.qrpc_rtt_ms", sim.now().since(o.issued_at));
            (o.promise, outcome)
        };

        for ev in events {
            Client::emit(cl, sim, ev);
        }
        let (promise, outcome) = done;
        promise.resolve(sim, outcome);
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
