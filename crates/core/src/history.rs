//! One history oracle: the toolkit's contract — exactly-once QRPC made
//! durable by the stable logs, plus the Bayou session guarantees
//! (paper §1) — stated once, over the operations a harness issued.
//!
//! A harness records each counter it installs and each read and write
//! it issues: who issued it, in which session, on which counter, and the
//! promise it got back. Recording holds the promise and nothing else,
//! so it never changes what a run does. After the run, [`History::check`]
//! reads the end state — the outcomes, the servers, the stats and the
//! clients — and returns the first violated property by name, with the
//! operation that shows it:
//!
//! 1. `settled`: every write settled `Ok` or `Resolved`, every read `Ok`;
//! 2. `unique-ids`: no `(client, RequestId)` was issued twice;
//! 3. `exactly-once`: each counter at its [home](World::home) holds
//!    `n0 + Σk` at version `v0 + writes`, and no server re-executed a
//!    request whose dedup entry it had evicted;
//! 4. per `(client, session, counter)`: `monotonic-reads` (reads never
//!    regress in issue order), `read-your-writes` (a read issued after
//!    an operation settled returns at least its version),
//!    `writes-follow-reads` (a write issued after an operation settled
//!    commits above it) and `monotonic-writes` (commits rise in issue
//!    order, on a counter no migration re-homed: ordered writes are
//!    sequenced per home, and a redirected write takes a fresh place in
//!    its new home's sequence, behind writes issued after it);
//! 5. `committed-prefix`: every replied write is in some server's
//!    executed set — anywhere in the world, since objects move;
//! 6. `quiescence`: every recorded client's stable log is empty, and no
//!    server still holds a writes-follow-reads request.

use std::collections::HashSet;

use rover_sim::{SimDuration, SimTime};
use rover_wire::{HostId, OpStatus, RequestId, SessionId, Version};

use crate::{Client, ClientRef, ExportHandle, Promise, Urn, World};

/// One recorded operation: who issued it, in which session, on which
/// counter (by position), when, and what it returned. `write` is
/// `Some((k, req))` for `add k` carried by QRPC `req`; `None` for a
/// read.
struct Op {
    client: HostId,
    session: SessionId,
    obj: usize,
    issued: SimTime,
    write: Option<(i64, RequestId)>,
    promise: Promise,
}

/// The counters a run installed and the operations it issued on them,
/// in issue order.
#[derive(Default)]
pub struct History {
    /// Each counter's URN, initial `n` and initial version.
    counters: Vec<(Urn, i64, Version)>,
    ops: Vec<Op>,
}

/// What a history that holds the contract adds up to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Writes that settled `Ok` or `Resolved`: all of them.
    pub committed: u64,
    /// Final `n` of each counter, in [`History::put_counter`] order.
    pub totals: Vec<i64>,
    /// `server.dedup_miss_reexec`: zero.
    pub reexecs: u64,
}

impl History {
    /// Installs a counter at `urn` with field `n` through
    /// [`World::put_counter`] and records its initial state; returns
    /// the counter's position, which reads and writes name it by.
    /// `None` if the world has no server to hold it.
    pub fn put_counter(&mut self, w: &World, urn: &Urn, n: i64) -> Option<usize> {
        let v0 = w.put_counter(urn, n)?;
        self.counters.push((urn.clone(), n, v0));
        Some(self.counters.len() - 1)
    }

    /// Records a write of `add k` to counter `obj`, issued at `now`.
    pub fn write(
        &mut self,
        now: SimTime,
        client: HostId,
        session: SessionId,
        obj: usize,
        k: i64,
        h: &ExportHandle,
    ) {
        self.read(now, client, session, obj, &h.committed);
        if let Some(op) = self.ops.last_mut() {
            op.write = Some((k, h.req));
        }
    }

    /// Records a read (an import) of counter `obj`, issued at `now`.
    pub fn read(
        &mut self,
        now: SimTime,
        client: HostId,
        session: SessionId,
        obj: usize,
        p: &Promise,
    ) {
        self.ops.push(Op {
            client,
            session,
            obj,
            issued: now,
            write: None,
            promise: p.clone(),
        });
    }

    /// Issue-to-settle time of every settled write, in issue order.
    pub fn write_latencies(&self) -> impl Iterator<Item = SimDuration> + '_ {
        let writes = self.ops.iter().filter(|op| op.write.is_some());
        writes.filter_map(|op| Some(op.promise.resolved_at()?.since(op.issued)))
    }

    /// Checks the contract against the end state of `w`; `clients` are
    /// the live clients that issued the recorded operations. `Err` names
    /// the first violated property and the operation that shows it:
    /// properties 1, 2 and 5 op by op in issue order, then 3, 4 and 6.
    pub fn check(&self, w: &World, clients: &[ClientRef]) -> Result<Summary, String> {
        let mut settled = Vec::with_capacity(self.ops.len());
        let mut adds = vec![(0, 0); self.counters.len()];
        let mut seen = HashSet::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let o = op.promise.poll().zip(op.promise.resolved_at());
            let status = o.as_ref().map(|(o, _)| o.status);
            let resolved = op.write.is_some() && status == Some(OpStatus::Resolved);
            let ok = status == Some(OpStatus::Ok) || resolved;
            match o {
                Some((o, at)) if ok => settled.push((o.version, at)),
                _ => return Err(self.violation("settled", i, &format!("settled {status:?}"))),
            }
            let Some((k, req)) = op.write else { continue };
            if !seen.insert((op.client, req)) {
                return Err(self.violation("unique-ids", i, "reuses an issued request id"));
            }
            let mut servers = w.servers();
            if !servers.any(|(_, sv)| sv.borrow().executed_contains(op.client, req)) {
                return Err(self.violation("committed-prefix", i, "is in no executed set"));
            }
            adds[op.obj] = (adds[op.obj].0 + k, adds[op.obj].1 + 1);
        }
        let totals = self.exactly_once(w, adds)?;
        self.sessions(w, &settled)?;
        self.quiescence(w, clients)?;
        Ok(Summary {
            committed: seen.len() as u64,
            totals,
            reexecs: 0,
        })
    }

    /// Each counter at its home counted its writes — `(Σk, count)` per
    /// counter in `adds` — once; returns the final `n`s.
    fn exactly_once(&self, w: &World, adds: Vec<(i64, u64)>) -> Result<Vec<i64>, String> {
        let mut totals = Vec::with_capacity(adds.len());
        for ((urn, n0, v0), (sum, writes)) in self.counters.iter().zip(adds) {
            let home = w.home(urn).map(|sv| sv.borrow());
            let obj = home.as_ref().and_then(|sv| sv.get_object(urn));
            let got = obj.and_then(|o| Some((o.field("n")?.parse::<i64>().ok()?, o.version.0)));
            let want = (n0 + sum, v0.0 + writes);
            if got != Some(want) {
                return Err(format!(
                    "exactly-once: {urn} holds (n, version) {got:?} at home, but {writes} \
                     writes adding {sum} to ({n0}, {}) make {want:?}",
                    v0.0
                ));
            }
            totals.push(want.0);
        }
        let n = w.sim.stats.counter("server.dedup_miss_reexec");
        if n != 0 {
            return Err(format!(
                "exactly-once: {n} re-executions after dedup eviction"
            ));
        }
        Ok(totals)
    }

    /// The session guarantees, per (client, session, counter). An
    /// operation's floor is the highest version among the same-key
    /// operations issued before it that had settled by its issue
    /// instant.
    fn sessions(&self, w: &World, settled: &[(Version, SimTime)]) -> Result<(), String> {
        let moved = |urn: &Urn| w.shards.as_ref().is_some_and(|m| m.migrated(urn.as_str()));
        let key = |&i: &usize| (self.ops[i].client, self.ops[i].session, self.ops[i].obj);
        let mut order: Vec<usize> = (0..self.ops.len()).collect();
        order.sort_by_key(|i| (key(i), *i));
        for group in order.chunk_by(|a, b| key(a) == key(b)) {
            // Same-key ops by settle instant, ties in issue order; the
            // sweep admits a growing prefix of it into the floor.
            let mut by_settle = group.to_vec();
            by_settle.sort_by_key(|&i| (settled[i].1, i));
            // The floor, and the versions of the last read and the last
            // write in issue order.
            let (mut next, mut floor, mut last) = (0, None, [None, None]);
            for &i in group {
                let (op, v) = (&self.ops[i], settled[i].0);
                let before = |&&j: &&usize| {
                    let at = settled[j].1;
                    at < op.issued || (at == op.issued && j < i)
                };
                while let Some(&j) = by_settle.get(next).filter(before) {
                    floor = floor.max(Some(settled[j].0));
                    next += 1;
                }
                let fixed = !moved(&self.counters[op.obj].0);
                let (property, bound) = match op.write {
                    None if last[0] > Some(v) => ("monotonic-reads", last[0]),
                    None => ("read-your-writes", floor.filter(|&f| f > v)),
                    Some(_) if floor >= Some(v) => ("writes-follow-reads", floor),
                    Some(_) => ("monotonic-writes", last[1].filter(|&p| p >= v && fixed)),
                };
                if let Some(bound) = bound {
                    let what = format!("settled at v{} against v{}", v.0, bound.0);
                    return Err(self.violation(property, i, &what));
                }
                last[op.write.is_some() as usize] = Some(v);
            }
        }
        Ok(())
    }

    /// Nothing is left queued at either end.
    fn quiescence(&self, w: &World, clients: &[ClientRef]) -> Result<(), String> {
        let hosts: HashSet<HostId> = clients.iter().map(Client::host).collect();
        if let Some(i) = self.ops.iter().position(|op| !hosts.contains(&op.client)) {
            return Err(self.violation("quiescence", i, "comes from a client not checked"));
        }
        if let Some(cl) = clients.iter().find(|cl| Client::log_len(cl) != 0) {
            let host = Client::host(cl);
            return Err(format!("quiescence: client {host:?} still logs requests"));
        }
        let mut servers = w.servers();
        match servers.find(|(_, sv)| sv.borrow().wfr_held_count() != 0) {
            Some((host, _)) => Err(format!("quiescence: server {host:?} holds a write")),
            None => Ok(()),
        }
    }

    fn violation(&self, property: &str, i: usize, what: &str) -> String {
        let op = &self.ops[i];
        let kind = op
            .write
            .map_or("read of".into(), |(k, _)| format!("add {k} to"));
        let urn = &self.counters[op.obj].0;
        format!(
            "{property}: op {i} ({kind} {urn} by {:?} in {}, issued at {}) {what}",
            op.client, op.session, op.issued
        )
    }
}
