//! The request pipeline's stages: admit → execute → stage → flush →
//! dispatch. Each is a `&mut Server` step that may read the clock and
//! bump stats or trace, and returns a value; the functions over
//! `ServerRef` in `server.rs` act on it — they alone schedule, send,
//! emit events or crash.

use rover_log::{FlushReceipt, LogError};
use rover_script::Budget;
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{
    encode_commit_batch, CommitRecord, Encoder, Envelope, HostId, MsgKind, OpStatus, Priority,
    QrpcReply, QrpcRequest, ReplyBatch, RequestId, RoverOp, Version, Wire,
};

use super::{CrashPoint, Server, REC_COMMIT_BATCH};
use crate::config::CommitPolicy;
use crate::object::RoverObject;
use crate::payload::{ExportPayload, InvokePayload};
use crate::resolve::{RejectResolver, Resolution, Resolver};
use crate::urn::Urn;
use crate::RoverError;

/// A reply carrying a status alone.
pub(super) fn status_reply(req_id: RequestId, status: OpStatus) -> QrpcReply {
    QrpcReply {
        req_id,
        status,
        version: Version(0),
        payload: Default::default(),
    }
}

/// A reply carrying `obj`'s committed version and image.
pub(super) fn image_reply(req_id: RequestId, status: OpStatus, obj: &RoverObject) -> QrpcReply {
    QrpcReply {
        req_id,
        status,
        version: obj.version,
        payload: obj.to_bytes(),
    }
}

/// The status a failed method run answers: a parse failure is counted
/// apart (hostile or corrupt script text, not a script that ran and
/// failed).
fn script_failure(sim: &mut Sim, e: &RoverError) -> OpStatus {
    match e {
        RoverError::NoSuchMethod(_) => OpStatus::NoSuchMethod,
        RoverError::ScriptParse(_) => {
            sim.stats.incr("script.parse_rejected");
            OpStatus::ExecError
        }
        _ => OpStatus::ExecError,
    }
}

/// A request past the admission gates, with what every later stage
/// needs decoded exactly once.
pub(super) struct Admitted {
    pub(super) req: QrpcRequest,
    /// `req.urn` parsed; `None` is answered `Rejected` at execution.
    pub(super) urn: Option<Urn>,
    /// An export's decoded payload; `None` for other operations and for
    /// an export whose payload does not decode (answered `Rejected`).
    export: Option<ExportPayload>,
}

impl Admitted {
    pub(super) fn new(req: QrpcRequest) -> Admitted {
        let urn = Urn::parse(&req.urn).ok();
        let export = match &req.op {
            RoverOp::Export { .. } => ExportPayload::from_shared(&req.payload).ok(),
            _ => None,
        };
        Admitted { req, urn, export }
    }

    /// Ordered-write sequence this request consumes (0 = unordered);
    /// recorded in the commit record so the session floor recovers.
    pub(super) fn ordered_seq(&self) -> u64 {
        self.export.as_ref().map_or(0, |p| p.session_seq)
    }

    /// The (client, session) key of the write-ordering floor.
    pub(super) fn session_key(&self) -> (u32, u64) {
        (self.req.client.0, self.req.session.0)
    }

    /// Whether `reply` commits a change to the store: only a successful
    /// export does.
    fn commits(&self, reply: &QrpcReply) -> bool {
        matches!(self.req.op, RoverOp::Export { .. })
            && matches!(reply.status, OpStatus::Ok | OpStatus::Resolved)
    }
}

/// One outbound reply envelope and the QRPC replies it carries (more
/// than one for a coalesced [`ReplyBatch`]; every counter scales by it).
pub(super) struct Outgoing {
    pub(super) to: HostId,
    pub(super) env: Envelope,
    pub(super) prio: Priority,
    pub(super) replies: u64,
}

/// What the admission gate decided for one request.
pub(super) enum Gate {
    /// Answer without executing: an authentication reject, a dedup
    /// replay, a below-floor or a stale duplicate.
    Reply(Outgoing),
    /// A duplicate of a commit still staged: its reply is not durable
    /// yet, so it may not be replayed.
    Drop,
    /// Held for a predecessor (ordered write) or for a read floor
    /// (writes-follow-reads).
    Hold,
    /// Execute it.
    Run(Admitted),
}

/// An executed request on its way to the pending group.
pub(super) struct Executed {
    adm: Admitted,
    reply: QrpcReply,
    steps: u64,
    /// The scripted-crash ordinal of this commit.
    ordinal: u64,
    /// The object whose writes-follow-reads holds this commit may free.
    pub(super) drain: Option<Urn>,
}

/// What staging a commit asks of its caller.
pub(super) enum Staged {
    /// A crash is scripted after this commit staged.
    Crash,
    /// The group is full: flush it now.
    FlushNow,
    /// First commit of a group: flush at the window's end unless the
    /// group fills first.
    Arm {
        window: SimDuration,
        incarnation: u64,
        gen: u64,
    },
    /// The armed window flushes it.
    Wait,
}

/// One executed commit staged in the pending group. Its reply may not
/// leave the host before the group's flush.
pub(super) struct PendingCommit {
    adm: Admitted,
    reply: QrpcReply,
    /// When the commit staged (start of its `server.flush_wait_ms`).
    staged_at: SimTime,
    /// When this commit's execute + reply-marshal CPU work completes;
    /// the reply leaves at the *later* of this and the flush.
    cpu_done: SimTime,
}

impl PendingCommit {
    /// The durable record: the object image is the reply's payload,
    /// marshalled at execute time, so later commits to the same object
    /// never alias it.
    fn record(&self) -> CommitRecord {
        let req = &self.adm.req;
        CommitRecord {
            client: req.client,
            req_id: req.req_id,
            acked_below: req.acked_below,
            session: req.session,
            session_seq: self.adm.ordered_seq(),
            urn: req.urn.clone(),
            obj: self
                .adm
                .commits(&self.reply)
                .then(|| self.reply.payload.clone()),
            reply: self.reply.clone(),
        }
    }
}

/// A flushed group and the instant its replies may leave.
pub(super) struct Flushed {
    pub(super) batch: Vec<PendingCommit>,
    pub(super) ready: SimTime,
    /// What the flush wrote; `None` on a server without a WAL.
    pub(super) written: Option<FlushReceipt>,
    /// The log has grown past [`crate::ServerConfig::checkpoint_every`].
    pub(super) checkpoint_due: bool,
}

/// A dispatched group's envelopes: the per-client coalesced replies,
/// then the invalidation callbacks its commits owe importers.
#[derive(Default)]
pub(super) struct Dispatch {
    pub(super) replies: Vec<Outgoing>,
    pub(super) callbacks: Vec<Envelope>,
}

impl Server {
    /// The admission gate: authentication, the acknowledgement floor,
    /// at-most-once replay, the writes-follow-reads floors and the
    /// per-session write order, in that order.
    pub(super) fn gate(&mut self, sim: &mut Sim, req: QrpcRequest) -> Gate {
        // Queue-depth sample at admission: staged commits plus ordered
        // and writes-follow-reads holds (the digest's p50/p99 series).
        sim.stats.sample("server.qdepth", self.queue_depth() as f64);
        let authed = match &self.accepted_tokens {
            None => true,
            Some(set) => set.contains(&req.auth),
        };
        if !authed {
            sim.stats.incr("server.auth_rejected");
            let reply = status_reply(req.req_id, OpStatus::Rejected);
            return Gate::Reply(self.outgoing(&req, &reply));
        }

        // Advance this client's acknowledgement floor (piggybacked on
        // every request) and prune executed-id state below it.
        let floor = self.dedup.advance_floor(req.client.0, req.acked_below);
        if let Some(ex) = self.executed.get_mut(&req.client.0) {
            *ex = ex.split_off(&floor);
        }

        // At-most-once: a replayed request gets its original reply —
        // unless the original still sits in an unflushed group, where
        // the reply exists in volatile state only. Replaying it now
        // would leak a commit that a crash could still un-happen; drop
        // the duplicate instead, and the client's next retransmission
        // finds either a durably flushed dedup entry or (after a crash)
        // no trace of the request at all.
        let key = (req.client.0, req.req_id.0);
        if self.pending_contains(key) {
            sim.stats.incr("server.dup_while_staged");
            return Gate::Drop;
        }
        if let Some(reply) = self.dedup.get(&key) {
            sim.stats.incr("server.dedup_replay");
            sim.trace("server", format_args!("dedup replay req={}", req.req_id.0));
            return Gate::Reply(self.outgoing(&req, reply));
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
            let reply = self.state_reply(&req);
            return Gate::Reply(self.outgoing(&req, &reply));
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
            if let Some(urn) = self.wfr_behind(&req) {
                sim.stats.incr("server.wfr_held");
                sim.trace(
                    "server",
                    format_args!("wfr hold req={} behind on {urn}", req.req_id.0),
                );
                self.wfr_held.entry(urn).or_default().push(req);
                return Gate::Hold;
            }
        }

        // Ordering gate: ordered exports run in per-session sequence;
        // later ones are held for their predecessor.
        let adm = Admitted::new(req);
        let seq = adm.ordered_seq();
        if seq > 0 {
            let skey = adm.session_key();
            let expected = *self.expected_seq.entry(skey).or_insert(1);
            if seq > expected {
                sim.stats.incr("server.held_out_of_order");
                self.held.entry(skey).or_default().insert(seq, adm);
                return Gate::Hold;
            }
            if seq < expected {
                // A stale duplicate whose dedup entry was evicted: never
                // re-execute; answer with the current committed state.
                sim.stats.incr("server.stale_duplicate");
                let reply = self.state_reply(&adm.req);
                return Gate::Reply(self.outgoing(&adm.req, &reply));
            }
        }
        Gate::Run(adm)
    }

    /// The first object named in an export's read floors that is homed
    /// here and whose committed version is behind its floor.
    fn wfr_behind(&self, req: &QrpcRequest) -> Option<Urn> {
        req.read_vector.iter().find_map(|(name, fl)| {
            // A floor constrains only objects homed *here*: one naming
            // an object that routes to another shard (hashed there, or
            // migrated away) is that shard's to enforce — holding on it
            // would wait forever.
            if self.homed_elsewhere(name) {
                return None;
            }
            let urn = Urn::parse(name).ok()?;
            let cur = self.store.get(&urn).map_or(0, |o| o.version.0);
            (cur < *fl).then_some(urn)
        })
    }

    /// The held ordered write the session `skey` may run next, once its
    /// predecessor ran; `None` on a crashed host (held writes die with
    /// the volatile state).
    pub(super) fn next_held(&mut self, skey: (u32, u64)) -> Option<Admitted> {
        if self.crashed {
            return None;
        }
        let exp = self.expected_seq.get(&skey).copied().unwrap_or(1);
        self.held.get_mut(&skey).and_then(|h| h.remove(&exp))
    }

    /// Reply reflecting the current committed state of the request's
    /// object, for duplicates that must never re-execute.
    fn state_reply(&self, req: &QrpcRequest) -> QrpcReply {
        match Urn::parse(&req.urn).ok().and_then(|u| self.store.get(&u)) {
            Some(o) => image_reply(req.req_id, OpStatus::Ok, o),
            None => status_reply(req.req_id, OpStatus::NoSuchObject),
        }
    }

    /// `reply` as one envelope to `req`'s client at `req`'s priority.
    fn outgoing(&self, req: &QrpcRequest, reply: &QrpcReply) -> Outgoing {
        Outgoing {
            to: req.client,
            env: Envelope::reply(self.cfg.host, req.client, reply),
            prio: req.priority,
            replies: 1,
        }
    }

    /// True while `key`'s original execution sits in the unflushed
    /// pending batch — its reply exists but is not yet durable, so it
    /// must not be replayed to a retransmission.
    fn pending_contains(&self, key: (u32, u64)) -> bool {
        self.pending
            .iter()
            .any(|p| p.adm.req.client.0 == key.0 && p.adm.req.req_id.0 == key.1)
    }

    /// Executes an admitted request and records its dedup and ordering
    /// bookkeeping. `None` when a crash is scripted before this commit:
    /// nothing executes, and after recovery the client's retransmission
    /// is a clean first execution.
    pub(super) fn execute(&mut self, sim: &mut Sim, adm: Admitted) -> Option<Executed> {
        self.commit_ordinal += 1;
        let ordinal = self.commit_ordinal;
        if self.crash_at == Some((ordinal, CrashPoint::BeforeAppend)) {
            return None;
        }
        let (client, id) = (adm.req.client.0, adm.req.req_id.0);
        // A second execution of the same request id means its dedup
        // entry was evicted while the client could still retransmit —
        // the at-most-once hazard the acknowledgement floor exists to
        // prevent. Counted and traced, never silent.
        if self
            .executed
            .get(&client)
            .is_some_and(|ex| ex.contains(&id))
        {
            sim.stats.incr("server.dedup_miss_reexec");
            sim.trace(
                "server",
                format_args!("dedup entry evicted; re-executing req={id}"),
            );
        }
        if let Some(fed) = &mut self.fed {
            fed.touch(&adm.req);
        }
        let (reply, steps) = self.perform(sim, &adm);
        if reply.status == OpStatus::WrongShard {
            sim.stats.incr("server.wrong_shard");
        } else if adm.commits(&reply) {
            self.commits_n += 1;
            if let Some(fed) = &self.fed {
                fed.note_commit();
            }
        }

        let seq = adm.ordered_seq();
        if seq > 0 {
            let e = self.expected_seq.entry(adm.session_key()).or_insert(1);
            *e = (*e).max(seq + 1);
        }
        self.executed.entry(client).or_default().insert(id);
        // Evict only entries the owning client has acknowledged (id
        // below its floor): an entry at or above the floor may still be
        // needed to absorb a retransmission, so its eviction is
        // deferred — the cache grows past capacity and retries on the
        // next insert.
        if self.dedup.insert((client, id), reply.clone())
            && !self.dedup.evict_to(self.cfg.dedup_capacity)
        {
            sim.stats.incr("server.dedup_evict_deferred");
        }
        // The object's version advanced at execute time: the caller
        // drains writes-follow-reads holds on it after the commit
        // stages, so WAL order preserves the dependency.
        let drain = adm
            .urn
            .as_ref()
            .filter(|u| self.wfr_held.contains_key(*u))
            .cloned();
        Some(Executed {
            adm,
            reply,
            steps,
            ordinal,
            drain,
        })
    }

    /// The state transition: runs the admitted request against the
    /// store and returns the reply plus interpreter steps consumed.
    pub(super) fn perform(&mut self, sim: &mut Sim, adm: &Admitted) -> (QrpcReply, u64) {
        let req = &adm.req;
        let id = req.req_id;
        let Some(urn) = &adm.urn else {
            return (status_reply(id, OpStatus::Rejected), 0);
        };
        match &req.op {
            RoverOp::Ping => (status_reply(id, OpStatus::Ok), 0),

            RoverOp::Import => {
                if let Some(obj) = self.store.get(urn) {
                    self.importers
                        .entry(urn.clone())
                        .or_default()
                        .insert(req.client.0);
                    return (image_reply(id, OpStatus::Ok, obj), 0);
                }
                if let Some(reply) = self.fed.as_mut().and_then(|f| f.serve(urn, req)) {
                    if reply.status == OpStatus::Ok {
                        sim.stats.incr("server.replica_reads");
                    }
                    return (reply, 0);
                }
                (status_reply(id, self.absent(&req.urn)), 0)
            }

            RoverOp::Invoke { .. } => {
                let Ok(payload) = InvokePayload::from_shared(&req.payload) else {
                    return (status_reply(id, OpStatus::Rejected), 0);
                };
                let Some(obj) = self.store.get_mut(urn) else {
                    return (status_reply(id, self.absent(&req.urn)), 0);
                };
                // Invocations are read-only: run in place, every write
                // undone, so the stored object keeps the field memos it
                // makes.
                let args: Vec<rover_script::Value> =
                    payload.args.iter().map(rover_script::Value::str).collect();
                match obj.run_query(&payload.method, &args, Budget::default()) {
                    Ok(run) => {
                        let mut enc = Encoder::new();
                        enc.put_str(&run.result.as_str());
                        let reply = QrpcReply {
                            req_id: id,
                            status: OpStatus::Ok,
                            version: obj.version,
                            payload: enc.finish(),
                        };
                        (reply, run.steps)
                    }
                    Err(e) => (status_reply(id, script_failure(sim, &e)), 0),
                }
            }

            RoverOp::Export { .. } => {
                let Some(payload) = &adm.export else {
                    return (status_reply(id, OpStatus::Rejected), 0);
                };
                // A write whose object was migrated away (or never homed
                // here) answers `WrongShard` and the client re-routes it
                // to the current home. The reply still commits dedup +
                // ordering bookkeeping here, so the session's sequence
                // floor advances and retransmissions of this id replay
                // `WrongShard` instead of blocking.
                let Some(current) = self.store.get_mut(urn) else {
                    return (status_reply(id, self.absent(&req.urn)), 0);
                };
                let conflict = req.base_version != current.version;
                let resolution = if conflict {
                    let resolver: &dyn Resolver = self
                        .resolvers
                        .get(&current.type_name)
                        .map(|b| b.as_ref())
                        .unwrap_or(&RejectResolver);
                    resolver.resolve(current, req.base_version, payload)
                } else {
                    Resolution::Reexecute
                };
                let next = Version(current.version.0 + 1);
                match resolution {
                    // Reflect the conflict with the current state so the
                    // user can reconcile.
                    Resolution::Reject => (image_reply(id, OpStatus::Conflict, current), 0),
                    Resolution::Merged(mut merged) => {
                        merged.version = next;
                        *current = merged;
                        (image_reply(id, OpStatus::Resolved, current), 0)
                    }
                    Resolution::Reexecute => {
                        let args: Vec<rover_script::Value> =
                            payload.args.iter().map(rover_script::Value::str).collect();
                        match current.run_method(&payload.method, &args, Budget::default()) {
                            Ok(run) => {
                                current.version = next;
                                let status = if conflict {
                                    OpStatus::Resolved
                                } else {
                                    OpStatus::Ok
                                };
                                (image_reply(id, status, current), run.steps)
                            }
                            Err(e) => (status_reply(id, script_failure(sim, &e)), 0),
                        }
                    }
                }
            }

            RoverOp::Custom(_) => (status_reply(id, OpStatus::Rejected), 0),
        }
    }

    /// The answer for an object not stored here: `WrongShard` when the
    /// routing table homes it on another shard, else `NoSuchObject`.
    fn absent(&self, urn: &str) -> OpStatus {
        if self.homed_elsewhere(urn) {
            OpStatus::WrongShard
        } else {
            OpStatus::NoSuchObject
        }
    }

    /// Charges the commit's execute + reply-marshal CPU (no flush on
    /// the critical path) and stages it into the pending group.
    pub(super) fn stage(&mut self, sim: &mut Sim, ex: Executed) -> Staged {
        let cpu = &self.cfg.cpu;
        let raw = cpu.interp_cost(ex.steps) + cpu.marshal_cost(ex.reply.payload.len());
        let now = sim.now();
        let total = self.charge_serial(now, raw);
        sim.stats.sample_duration("server.exec_ms", total);
        sim.stats.incr("server.requests");
        self.pending.push(PendingCommit {
            adm: ex.adm,
            reply: ex.reply,
            staged_at: now,
            cpu_done: now + total,
        });
        // A crash scripted *after* the stage: the group was never
        // flushed, so nothing is durable and no reply ever leaves.
        if self.crash_at == Some((ex.ordinal, CrashPoint::AfterAppend)) {
            return Staged::Crash;
        }
        let CommitPolicy::Group { max_batch, window } = self.cfg.commit;
        if self.pending.len() >= max_batch.max(1) {
            Staged::FlushNow
        } else if self.pending.len() > 1 {
            Staged::Wait
        } else {
            // The generation keeps a stale timer (whose group a size-cap
            // flush already committed) from cutting the next group short.
            self.group_timer_armed = true;
            self.group_timer_gen += 1;
            Staged::Arm {
                window,
                incarnation: self.incarnation,
                gen: self.group_timer_gen,
            }
        }
    }

    /// Whether the window timer armed as (`incarnation`, `gen`) still
    /// owns the pending group.
    pub(super) fn window_live(&self, incarnation: u64, gen: u64) -> bool {
        !self.crashed
            && self.incarnation == incarnation
            && self.group_timer_armed
            && self.group_timer_gen == gen
    }

    /// The group flush: the pending group becomes durable as one WAL
    /// record — or, without a WAL, the flush writes nothing — and leaves
    /// with the instant its replies may go: the later of the flush and
    /// each commit's own CPU work. The flush occupies the *disk*
    /// timeline; the CPU keeps executing requests that stage into the
    /// next group meanwhile. `None` when there is nothing to flush; an
    /// error leaves the group staged, to die with the crash it causes.
    pub(super) fn flush(&mut self, sim: &mut Sim) -> Result<Option<Flushed>, LogError> {
        self.group_timer_armed = false;
        if self.crashed || self.pending.is_empty() {
            return Ok(None);
        }
        let n = self.pending.len();
        let mut checkpoint_due = false;
        let written = match &mut self.wal {
            Some(wal) => {
                let recs: Vec<CommitRecord> =
                    self.pending.iter().map(PendingCommit::record).collect();
                wal.log
                    .append(REC_COMMIT_BATCH, encode_commit_batch(&recs))?;
                let receipt = wal.log.flush()?;
                wal.commits_since_ckpt += n;
                let every = self.cfg.checkpoint_every;
                checkpoint_due = every > 0 && wal.commits_since_ckpt >= every;
                Some(receipt)
            }
            None => None,
        };
        // Drained, not taken: the pending buffer keeps its capacity.
        let batch: Vec<PendingCommit> = self.pending.drain(..).collect();
        let now = sim.now();
        let mut done = now;
        if let Some(receipt) = written {
            sim.stats.incr("server.group_commits");
            sim.stats.add("server.wal_appends", n as u64);
            sim.stats.sample("server.group_commit_batch_size", n as f64);
            sim.stats
                .add("server.wal_flush_bytes", receipt.bytes as u64);
            self.flushed_commits += n as u64;
            done = self.disk_free_at.max(now) + self.cfg.storage.flush_cost(receipt);
            self.disk_free_at = done;
            for p in &batch {
                sim.stats
                    .sample_duration("server.flush_wait_ms", done.since(p.staged_at));
            }
        }
        let ready = batch.iter().map(|p| p.cpu_done).fold(done, SimTime::max);
        Ok(Some(Flushed {
            batch,
            ready,
            written,
            checkpoint_due,
        }))
    }

    /// A flushed group's envelopes: each client's replies coalesced
    /// into one envelope (in commit order, at the most urgent of their
    /// priorities), then the cache-invalidation callbacks
    /// ([`crate::ServerConfig::callbacks`]) its commits owe importers.
    /// Nothing when the host crashed since the flush was scheduled: the
    /// commits are durable (retransmissions replay from the recovered
    /// dedup cache) but this incarnation's replies never left.
    pub(super) fn dispatch(
        &mut self,
        sim: &mut Sim,
        incarnation: u64,
        batch: Vec<PendingCommit>,
    ) -> Dispatch {
        let mut out = Dispatch::default();
        if self.crashed || self.incarnation != incarnation {
            sim.stats
                .add("server.reply_dropped_crashed", batch.len() as u64);
            return out;
        }
        let host = self.cfg.host;
        let client_of = |p: &PendingCommit| p.adm.req.client;
        for (i, p) in batch.iter().enumerate() {
            let to = client_of(p);
            if batch[..i].iter().any(|q| client_of(q) == to) {
                continue;
            }
            let run = || batch[i..].iter().filter(move |q| client_of(q) == to);
            let n = run().count();
            if n == 1 {
                out.replies.push(self.outgoing(&p.adm.req, &p.reply));
                continue;
            }
            // One envelope, many replies: the client decodes them in
            // order.
            let rb = ReplyBatch {
                replies: run().map(|q| q.reply.clone()).collect(),
            };
            sim.stats.add("server.reply_coalesced", n as u64 - 1);
            out.replies.push(Outgoing {
                to,
                env: Envelope::reply_batch(host, to, &rb),
                prio: run()
                    .map(|q| q.adm.req.priority)
                    .min()
                    .unwrap_or(p.adm.req.priority),
                replies: n as u64,
            });
        }
        if self.cfg.callbacks {
            for p in &batch {
                if let (true, Some(urn)) = (p.adm.commits(&p.reply), &p.adm.urn) {
                    self.callbacks(urn, p.reply.version, client_of(p), &mut out.callbacks);
                }
            }
        }
        out
    }

    /// Callback envelopes telling every importer of `urn` except
    /// `exclude` that `version` committed. Callbacks are best-effort
    /// background traffic: a disconnected importer simply misses it
    /// (and still detects the change at export time via version
    /// comparison).
    fn callbacks(&self, urn: &Urn, version: Version, exclude: HostId, out: &mut Vec<Envelope>) {
        let Some(set) = self.importers.get(urn) else {
            return;
        };
        let mut targets = set.iter().filter(|c| **c != exclude.0).peekable();
        if targets.peek().is_none() {
            return;
        }
        let mut enc = Encoder::new();
        enc.put_str(urn.as_str());
        enc.put_u64(version.0);
        let body = enc.finish();
        out.extend(targets.map(|&t| Envelope {
            kind: MsgKind::Callback,
            src: self.cfg.host,
            dst: HostId(t),
            body: body.clone(),
        }));
    }

    /// Frees the writes-follow-reads holds on `urn` whose read floor
    /// its committed version now satisfies.
    pub(super) fn release_wfr(&mut self, urn: &Urn) -> Vec<QrpcRequest> {
        let Some(held) = self.wfr_held.remove(urn) else {
            return Vec::new();
        };
        let cur = self.store.get(urn).map_or(0, |o| o.version.0);
        let (freed, kept): (Vec<_>, Vec<_>) = held.into_iter().partition(|r| {
            r.read_vector
                .iter()
                .filter(|(name, _)| Urn::parse(name).ok().as_ref() == Some(urn))
                .all(|(_, fl)| cur >= *fl)
        });
        if !kept.is_empty() {
            self.wfr_held.insert(urn.clone(), kept);
        }
        freed
    }
}
