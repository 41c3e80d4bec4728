//! The QRPC lifecycle's steps: issue → transmit → probe → answer →
//! settle. Each is a `&mut Client` step that may read the clock and
//! bump stats or trace, and returns a value; the functions over
//! `ClientRef` in `client.rs` act on it — they alone schedule, enqueue,
//! emit events and resolve promises.

use std::collections::HashSet;
use std::rc::Rc;

use rover_log::RecordKind;
use rover_net::HostSched;
use rover_script::Value;
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{
    Bytes, Decoder, Encoder, Envelope, HostId, MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest,
    RequestId, RoverOp, SessionId, Version, Wire,
};

use super::{Client, Outstanding};
use crate::events::ClientEvent;
use crate::object::RoverObject;
use crate::payload::ExportPayload;
use crate::promise::{Outcome, Promise};
use crate::urn::Urn;

/// The record a compaction leaves on the stable log: the highest
/// request and session ids handed out so far, which the dead request
/// records and completion markers it drops would otherwise take with
/// them.
const HIGH_WATER: RecordKind = RecordKind::Other(3);

/// A newly issued QRPC.
pub(super) struct Issued {
    pub(super) promise: Promise,
    /// Requests the log made durable (with no stable log, this one),
    /// released to the network scheduler after `delay`.
    pub(super) ready: Vec<u64>,
    pub(super) delay: SimDuration,
    /// The group-commit window this request opened, with its
    /// generation.
    pub(super) window: Option<(SimDuration, u64)>,
}

/// What a retransmission probe found.
pub(super) enum Probe {
    /// Answered, or disconnected (restarted on reconnection): stop.
    Park,
    /// Still queued, or not yet suspect: probe again.
    Rearm,
    /// Suspected lost: send again, then probe again.
    Retransmit,
    /// Suspected lost with the retry budget spent: abandoned.
    GiveUp(Settled),
}

/// A request that left `outstanding` for good.
pub(super) struct Settled {
    pub(super) promise: Promise,
    pub(super) outcome: Outcome,
    /// Emitted in order, before the promise resolves.
    pub(super) events: Vec<ClientEvent>,
}

/// What a reply does to its request.
pub(super) enum Answer {
    /// Re-issued to the object's home under this fresh id.
    Redirect(u64),
    /// Decided.
    Settle(Settled),
}

/// The class a trace names a request by (the client never issues
/// `Custom`).
fn class(op: &RoverOp) -> &'static str {
    match op {
        RoverOp::Import => "Import",
        RoverOp::Export { .. } => "Export",
        RoverOp::Invoke { .. } => "Invoke",
        _ => "Ping",
    }
}

impl Client {
    /// Returns the home server for an object: the shard map (when
    /// configured) wins, then per-authority homes, then the default.
    pub(super) fn server_for(&self, urn: &str) -> HostId {
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

    /// Whether an interface is up.
    pub(super) fn connected(&self) -> bool {
        HostSched::active_link(&self.sched, &self.net).is_some()
    }

    /// Serializes a local CPU/storage cost behind earlier local work;
    /// returns the delay from `now` until this work completes.
    pub(super) fn charge_serial(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        let start = self.cpu_free_at.max(now);
        let done = start + cost;
        self.cpu_free_at = done;
        done.since(now)
    }

    /// Acknowledgement floor for `dst`: the lowest unanswered request id
    /// routed there. Every id strictly below it had its reply fully
    /// processed here, so `dst` may forget their dedup entries
    /// (piggybacked as `QrpcRequest::acked_below`). Request ids stay
    /// globally unique per client (replies carry only the id), so each
    /// destination sees a sparse subset of the id space; its floor may
    /// only account for requests it will ever see, otherwise a slow
    /// shard would hold back dedup eviction on a fast one — or worse, a
    /// fast shard's floor would overrun ids still outstanding at a slow
    /// one. With one destination it is the lowest unanswered id.
    fn ack_floor_for(&self, dst: HostId) -> u64 {
        self.outstanding
            .iter()
            .find(|(_, o)| o.dst == dst)
            .map_or(self.next_req, |(id, _)| *id)
    }

    /// Cross-shard writes-follow-reads: an export leaving for `dst`
    /// carries the session's read floors for objects homed *on that
    /// shard* (at most 16, by URN), so the shard can refuse to admit
    /// the write into a state older than anything this session already
    /// observed (relevant after a shard crash-restart). Anything else,
    /// and all single-shard traffic, carries nothing — its wire bytes
    /// are unchanged.
    fn read_vector(&self, op: &RoverOp, session: SessionId, dst: HostId) -> Vec<(String, u64)> {
        let wfr = matches!(op, RoverOp::Export { .. })
            && self.cfg.shards.as_ref().is_some_and(|m| m.len() > 1);
        let Some(sess) = wfr.then(|| self.sessions.get(&session.0)).flatten() else {
            return Vec::new();
        };
        let mut rv: Vec<(String, u64)> = sess
            .reads()
            .filter(|(u, _)| self.server_for(u.as_str()) == dst)
            .map(|(u, v)| (u.as_str().to_owned(), v.0))
            .collect();
        rv.sort();
        rv.truncate(16);
        rv
    }

    pub(super) fn build_request(
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
        QrpcRequest {
            req_id,
            client: self.cfg.host,
            session,
            read_vector: self.read_vector(&op, session, dst),
            op,
            urn: urn.to_owned(),
            base_version: Version(base_version),
            priority,
            auth: self.cfg.auth_token,
            acked_below: self.ack_floor_for(dst).min(req_id.0),
            payload,
        }
    }

    /// The one way a request becomes outstanding: bound for `dst` since
    /// `issued_at`, with a fresh promise and fresh retransmission state
    /// — no retries, no strikes, enqueued in the current epoch, the
    /// first probe one `rto` away.
    pub(super) fn outstanding(
        &self,
        issued_at: SimTime,
        request: QrpcRequest,
        image: Bytes,
        log_seq: u64,
        urn: Option<Urn>,
        dst: HostId,
    ) -> Outstanding {
        Outstanding {
            request,
            image,
            log_seq,
            promise: Promise::new(),
            urn,
            dst,
            issued_at,
            enqueue_epoch: self.link_epoch,
            retries: 0,
            direct: false,
            rto_armed: false,
            strikes: 0,
            rto_cur: self.cfg.rto,
        }
    }

    /// Issues one QRPC: routes and marshals it, logs it, then parks it
    /// for a group flush or flushes (a per-operation flush is a group
    /// of one). Tracks it as outstanding and pins its object.
    pub(super) fn issue(
        &mut self,
        sim: &mut Sim,
        mut request: QrpcRequest,
        urn: Option<Urn>,
    ) -> Issued {
        let id = request.req_id.0;
        let class = class(&request.op);
        // Route before marshalling: replica-offloaded imports gain their
        // read-floor trailer here, so the logged bytes match the wire
        // bytes.
        let dst = self.route_request(&mut request);
        let image = request.to_bytes();
        let marshal = self.cfg.cpu.marshal_cost(image.len());
        sim.stats.sample_duration("client.marshal_ms", marshal);

        let (log_seq, flush_cost, ready, window) = match self.cfg.log_policy.group() {
            None => (0, SimDuration::ZERO, vec![id], None),
            Some((n, timeout)) => {
                let seq = self
                    .log
                    .append(RecordKind::Request, image.clone())
                    .expect("in-memory log append");
                self.parked.push(id);
                if self.parked.len() >= n {
                    let (ready, cost) = self.flush_parked(sim);
                    (seq, cost, ready, None)
                } else {
                    let window = (!self.group_timer_armed).then(|| {
                        self.group_timer_armed = true;
                        self.group_timer_gen += 1;
                        (timeout, self.group_timer_gen)
                    });
                    (seq, SimDuration::ZERO, Vec::new(), window)
                }
            }
        };

        let o = self.outstanding(sim.now(), request, image, log_seq, urn, dst);
        let promise = o.promise.clone();
        if let Some(u) = &o.urn {
            self.cache.pin(u, 1);
        }
        self.outstanding.insert(id, o);
        let delay = self.charge_serial(sim.now(), marshal + flush_cost);
        sim.stats.incr("client.qrpc_issued");
        sim.trace("qrpc", format_args!("issue req={id} class={class}"));
        Issued {
            promise,
            ready,
            delay,
            window,
        }
    }

    /// Forces the log and takes the parked requests the flush made
    /// durable, with the flush's cost. Disarms the window timer, whose
    /// batch this was.
    fn flush_parked(&mut self, sim: &mut Sim) -> (Vec<u64>, SimDuration) {
        let receipt = self.log.flush().expect("in-memory log flush");
        let cost = self.cfg.storage.flush_cost(receipt);
        sim.stats.sample_duration("client.flush_ms", cost);
        self.group_timer_armed = false;
        (std::mem::take(&mut self.parked), cost)
    }

    /// The group window of generation `gen` closed: flushes the parked
    /// requests, unless a size-cap flush already took this window's
    /// batch. Returns them with the flush's cost.
    pub(super) fn window_closed(
        &mut self,
        sim: &mut Sim,
        gen: u64,
    ) -> Option<(Vec<u64>, SimDuration)> {
        if !self.group_timer_armed || self.group_timer_gen != gen {
            return None;
        }
        self.group_timer_armed = false;
        (!self.parked.is_empty()).then(|| self.flush_parked(sim))
    }

    /// Readies one copy of a tracked request for the wire: stamps the
    /// enqueue epoch, counts a retry unless it is the `first` copy, and
    /// piggybacks the freshest acknowledgement floor. Returns the
    /// envelope and its priority.
    pub(super) fn transmit(&mut self, req: u64, first: bool) -> Option<(Envelope, Priority)> {
        // Every copy of a request goes to the destination recorded at
        // issue time: re-computing the route per transmit would let a
        // retransmission chase a migration to a shard that never saw
        // the original — and re-execute a commit whose reply was merely
        // lost. Route changes happen only through the explicit redirect
        // path (fresh request id).
        let dst = self.outstanding.get(&req)?.dst;
        let floor = self.ack_floor_for(dst).min(req);
        let o = self.outstanding.get_mut(&req)?;
        o.enqueue_epoch = self.link_epoch;
        if !first {
            o.retries += 1;
        }
        // Every copy that hits the wire carries the floor, so the
        // server's dedup eviction keeps pace. The logged image goes out
        // as it is unless the floor moved.
        if o.request.acked_below != floor {
            o.request.acked_below = floor;
            o.image = o.request.to_bytes();
        }
        let env = Envelope {
            kind: MsgKind::Request,
            src: self.cfg.host,
            dst,
            body: o.image.clone(),
        };
        Some((env, o.request.priority))
    }

    /// Marks a request's probe chain as scheduled; returns its probe
    /// interval, or `None` if it is settled, already probed, or direct.
    pub(super) fn arm(&mut self, req: u64) -> Option<SimDuration> {
        let o = self
            .outstanding
            .get_mut(&req)
            .filter(|o| !o.rto_armed && !o.direct)?;
        o.rto_armed = true;
        Some(o.rto_cur)
    }

    /// A request's probe interval elapsed: decides whether it is
    /// answered, still queued, suspect, or — past the retry budget —
    /// abandoned.
    pub(super) fn probe(&mut self, sim: &mut Sim, req: u64) -> Probe {
        let connected = self.connected();
        let queued = HostSched::has_key(&self.sched, req);
        let Some(o) = self.outstanding.get_mut(&req) else {
            return Probe::Park; // Completed; stop probing.
        };
        o.rto_armed = false;
        if !connected {
            return Probe::Park; // Restarted on reconnection.
        }
        if queued {
            o.strikes = 0;
            return Probe::Rearm;
        }
        let suspected = o.enqueue_epoch < self.link_epoch || {
            // Connected, transmitted, unanswered: the second such probe
            // assumes random loss and starts the count over.
            o.strikes = (o.strikes + 1) % 2;
            o.strikes == 0
        };
        if !suspected {
            return Probe::Rearm;
        }
        if self.cfg.retry_budget.is_some_and(|b| o.retries >= b) {
            return self.abandon(sim, req).map_or(Probe::Park, Probe::GiveUp);
        }
        // Exponential backoff: each retransmission doubles the probe
        // interval up to the cap.
        let grown = SimDuration::from_micros(o.rto_cur.as_micros().saturating_mul(2));
        o.rto_cur = grown.min(self.cfg.rto_max);
        Probe::Retransmit
    }

    /// Retry budget exhausted: abandons a queued QRPC gracefully. It
    /// settles exactly as on completion — retired from the stable log,
    /// so a crash-recovery does not resurrect it — and its promise
    /// resolves with a locally synthesized [`OpStatus::Unreachable`].
    pub(super) fn abandon(&mut self, sim: &mut Sim, req: u64) -> Option<Settled> {
        let mut events = Vec::new();
        let o = self.settle(sim.now(), req, Version(0), None, &mut events)?;
        events.push(ClientEvent::Unreachable {
            req: RequestId(req),
            urn: o.urn,
        });
        sim.stats.incr("client.retry_exhausted");
        sim.trace(
            "qrpc",
            format_args!("give up req={req}: retry budget exhausted"),
        );
        let outcome = Outcome {
            status: OpStatus::Unreachable,
            ..Outcome::ok(Value::empty(), Version(0))
        };
        Some(Settled {
            promise: o.promise,
            outcome,
            events,
        })
    }

    /// A reply arrived. A `WrongShard` answer means the destination
    /// could not serve the request (object re-homed by a migration, or
    /// a replica holder's copy was too stale for the session's floor):
    /// it is re-issued to the object's current home. An `Ok` import
    /// that lands *below* the session's monotonic-reads floor can also
    /// happen under dynamic routing (a concurrent export raised the
    /// floor while the replica read was in flight) — it is re-read from
    /// home rather than weaken MR. Anything else settles the request.
    /// `None` for a reply to no outstanding request.
    pub(super) fn answer(&mut self, sim: &mut Sim, reply: QrpcReply) -> Option<Answer> {
        let id = reply.req_id.0;
        let Some(o) = self.outstanding.get(&id) else {
            sim.stats.incr("client.duplicate_replies");
            return None;
        };
        let import = matches!(o.request.op, RoverOp::Import);
        let export = matches!(o.request.op, RoverOp::Export { .. });
        let below_floor = import
            && reply.status == OpStatus::Ok
            && self.cfg.shards.as_ref().is_some_and(|m| m.has_dynamic())
            && match (self.sessions.get(&o.request.session.0), &o.urn) {
                (Some(sess), Some(u)) => sess.guarantees.mr && reply.version < sess.read_floor(u),
                _ => false,
            };
        if reply.status == OpStatus::WrongShard || below_floor {
            return self.redirect(sim, id).map(Answer::Redirect);
        }

        // The server's image: an import's on success, an export's
        // post-decision state whatever the status.
        let image = if export || (import && reply.status == OpStatus::Ok) {
            RoverObject::from_shared(&reply.payload).ok().map(Rc::new)
        } else {
            None
        };
        let decided = match reply.status {
            OpStatus::Ok | OpStatus::Resolved => reply.version,
            _ => Version(0),
        };
        let mut events = Vec::new();
        let o = self.settle(sim.now(), id, decided, image.clone(), &mut events)?;
        let mut outcome = Outcome {
            status: reply.status,
            object: image,
            ..Outcome::ok(Value::empty(), reply.version)
        };
        let done = |urn| ClientEvent::ImportDone {
            urn,
            from_cache: false,
            tentative: false,
            status: reply.status,
        };
        match (&o.request.op, o.urn) {
            (RoverOp::Invoke { .. }, _) if reply.status == OpStatus::Ok => {
                if let Ok(s) = Decoder::new(&reply.payload).get_str() {
                    outcome.value = Value::from(s);
                }
            }
            (RoverOp::Import, urn) => match &outcome.object {
                Some(obj) => {
                    let urn = obj.urn.clone();
                    outcome.value = Value::str(urn.as_str());
                    if let Some(sess) = self.sessions.get_mut(&o.request.session.0) {
                        sess.note_read(&urn, reply.version);
                    }
                    events.push(done(urn));
                }
                None if reply.status != OpStatus::Ok => events.extend(urn.map(done)),
                None => {}
            },
            (RoverOp::Export { .. }, Some(urn)) => {
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
            _ => {}
        }

        sim.stats.incr("client.qrpc_completed");
        sim.trace(
            "qrpc",
            format_args!("complete req={id} status={:?}", reply.status),
        );
        sim.stats
            .sample_duration("client.qrpc_rtt_ms", sim.now().since(o.issued_at));
        Some(Answer::Settle(Settled {
            promise: o.promise,
            outcome,
            events,
        }))
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
    fn redirect(&mut self, sim: &mut Sim, req: u64) -> Option<u64> {
        let o = self.take(req, Some(self.next_req))?;
        let new_id = self.next_req;
        self.next_req += 1;
        // Always back to the home shard (migration-pin aware): the
        // dynamic read plane already had its chance.
        let mut request = o.request;
        let dst = self.server_for(&request.urn);
        request.req_id = RequestId(new_id);
        request.acked_below = self.ack_floor_for(dst).min(new_id);
        if matches!(request.op, RoverOp::Export { .. }) {
            // Ordered writes sequence per destination: a redirected
            // export consumes a fresh seq in the new home's space (the
            // old seq was drawn for — and burned at — the old
            // destination, whose server advanced past it when it
            // answered `WrongShard`).
            if let Ok(payload) = ExportPayload::from_bytes(&request.payload) {
                if payload.session_seq > 0 {
                    if let Some(sess) = self.sessions.get_mut(&request.session.0) {
                        let seq = sess.next_seq_for(dst);
                        request.payload = ExportPayload {
                            session_seq: seq,
                            ..payload
                        }
                        .to_bytes();
                    }
                }
            }
        }
        request.read_vector = self.read_vector(&request.op, request.session, dst);
        let image = request.to_bytes();
        let fresh = self.outstanding(o.issued_at, request, image, o.log_seq, o.urn, dst);
        let fresh = Outstanding {
            promise: o.promise,
            ..fresh
        };
        self.outstanding.insert(new_id, fresh);
        sim.stats.incr("client.redirects");
        sim.trace("qrpc", format_args!("redirect req={req} -> req={new_id}"));
        Some(new_id)
    }

    /// Takes a finished request out of `outstanding` — answered or
    /// abandoned, this is the one way one leaves for good — and unwinds
    /// what it held: its stable-log record, its cache pin, its
    /// in-flight import slot and, for an export, the session's pending
    /// write (reported as `decided`) and the tentative copy, once no
    /// export on the object is pending. `image`, the server's copy, is
    /// installed before the tentative copy goes; its evictions join
    /// `events`.
    fn settle(
        &mut self,
        now: SimTime,
        req: u64,
        decided: Version,
        image: Option<Rc<RoverObject>>,
        events: &mut Vec<ClientEvent>,
    ) -> Option<Outstanding> {
        let o = self.take(req, None)?;
        self.retire_log_record(req, o.log_seq);
        let Some(urn) = &o.urn else {
            return Some(o);
        };
        self.cache.pin(urn, -1);
        let export = matches!(o.request.op, RoverOp::Export { .. });
        if export {
            if let Some(sess) = self.sessions.get_mut(&o.request.session.0) {
                sess.note_write_done(urn, decided);
            }
        }
        if let Some(obj) = image {
            for urn in self.cache.install_committed(obj, now) {
                events.push(ClientEvent::Evicted { urn });
            }
        }
        // The tentative copy lives until the last pending export on
        // this object is decided.
        if let Some(n) = self.dirty_ops.get_mut(urn).filter(|_| export) {
            *n -= 1;
            if *n == 0 {
                self.dirty_ops.remove(urn);
                self.cache.clear_tentative(urn);
            }
        }
        Some(o)
    }

    /// Takes `req` out of `outstanding`, handing its in-flight import
    /// slot to `successor` (a redirect's fresh id) or freeing it.
    fn take(&mut self, req: u64, successor: Option<u64>) -> Option<Outstanding> {
        let o = self.outstanding.remove(&req)?;
        if let (RoverOp::Import, Some(u)) = (&o.request.op, &o.urn) {
            if self.inflight_imports.get(u) == Some(&req) {
                match successor {
                    Some(id) => self.inflight_imports.insert(u.clone(), id),
                    None => self.inflight_imports.remove(u),
                };
            }
        }
        Some(o)
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
            // every completion marker and the last high-water record;
            // one new high-water record keeps the ids they carried.
            let stale: Vec<u64> = self
                .log
                .records()
                .filter(|r| matches!(r.kind, RecordKind::Completion | HIGH_WATER))
                .map(|r| r.seq)
                .collect();
            for seq in stale {
                let _ = self.log.remove(seq);
            }
            let mut marks = Encoder::new();
            marks.put_u64(self.next_req - 1);
            marks.put_u64(self.next_session - 1);
            let _ = self.log.append(HIGH_WATER, marks.finish());
            let _ = self.log.compact();
            self.removals_since_compact = 0;
        }
    }

    /// Connectivity changed: a down bumps the loss epoch; an up returns
    /// the requests enqueued in an older epoch and no longer queued —
    /// possibly lost — to resend.
    pub(super) fn link_change(&mut self, up: bool) -> Vec<u64> {
        if !up {
            self.link_epoch += 1;
            return Vec::new();
        }
        let epoch = self.link_epoch;
        self.outstanding
            .iter()
            .filter(|(id, o)| {
                !o.direct && o.enqueue_epoch < epoch && !HostSched::has_key(&self.sched, **id)
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Rebuilds the QRPC queue from the stable log after a crash: every
    /// logged request without a completion marker is outstanding again,
    /// and the id counters resume above every request and session id
    /// the log remembers — a request record, a completion marker or a
    /// high-water record — so no fresh request or session reuses an id
    /// the server already answered. Returns the re-issued ids in log
    /// order.
    pub(super) fn replay(&mut self, now: SimTime) -> Vec<u64> {
        let mut completed = HashSet::new();
        let mut logged = Vec::new();
        let (mut top_req, mut top_session) = (0, 0);
        for r in self.log.records() {
            let mut dec = Decoder::new(&r.payload);
            match r.kind {
                RecordKind::Request => {
                    if let Ok(q) = QrpcRequest::from_shared(&r.payload) {
                        top_req = top_req.max(q.req_id.0);
                        top_session = top_session.max(q.session.0);
                        logged.push((r.seq, q, r.payload.clone()));
                    }
                }
                RecordKind::Completion => {
                    if let Ok(id) = dec.get_u64() {
                        top_req = top_req.max(id);
                        completed.insert(id);
                    }
                }
                HIGH_WATER => {
                    if let (Ok(req), Ok(session)) = (dec.get_u64(), dec.get_u64()) {
                        top_req = top_req.max(req);
                        top_session = top_session.max(session);
                    }
                }
                _ => {}
            }
        }
        self.next_req = top_req + 1;
        self.next_session = top_session + 1;
        let mut ids = Vec::new();
        for (log_seq, request, image) in logged {
            let id = request.req_id.0;
            if completed.contains(&id) {
                continue;
            }
            let urn = Urn::parse(&request.urn).ok();
            let dst = self.server_for(&request.urn);
            let o = self.outstanding(now, request, image, log_seq, urn, dst);
            self.outstanding.insert(id, o);
            ids.push(id);
        }
        ids
    }
}
