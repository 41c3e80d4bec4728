//! A server's place in a shard federation: the routing table, the
//! volatile read replicas of hot objects homed on peers, and the hot-set
//! tracker that picks which home objects to publish. `None` on a server
//! outside a federation, where every path here is inert.

use std::collections::HashMap;

use rover_sim::Sim;
use rover_wire::{
    Bytes, Envelope, HostId, MsgKind, OpStatus, QrpcReply, QrpcRequest, ReplicaFrame, RoverOp, Wire,
};

use super::pipeline::{image_reply, status_reply};
use crate::hotset::HotSet;
use crate::object::RoverObject;
use crate::shard::ShardMap;
use crate::urn::Urn;

/// Tracker slots per replication unit: the hot tracker holds
/// `4 × replicate_hot` counters (min 8) so the published top-K comes
/// from a set with churn headroom.
fn hot_capacity(k: usize) -> usize {
    (4 * k).max(8)
}

pub(super) struct Federation {
    /// A clone of the shared [`ShardMap`] (its dynamic plane is shared
    /// across clones).
    map: ShardMap,
    /// This server's index in `map`.
    shard: usize,
    /// Read replicas of hot objects homed on *other* shards, each
    /// paired with the publication epoch its frame carried. They die
    /// with a crash (never recovered) and age out when their home stops
    /// refreshing them.
    replicas: HashMap<Urn, (RoverObject, u64)>,
    /// Approximate top-K tracker over this shard's import/export
    /// traffic; `Some` only when replication is on.
    hotset: Option<HotSet>,
    /// Replication epochs this server has run.
    epoch: u64,
    /// Imports served from a peer replica (lifetime).
    pub(super) replica_reads: u64,
}

impl Federation {
    /// Joins shard `shard` of `map`; `replicate_hot > 0` arms the
    /// hot-set tracker.
    pub(super) fn new(map: ShardMap, shard: usize, replicate_hot: usize) -> Federation {
        Federation {
            map,
            shard,
            replicas: HashMap::new(),
            hotset: (replicate_hot > 0).then(|| HotSet::new(hot_capacity(replicate_hot))),
            epoch: 0,
            replica_reads: 0,
        }
    }

    /// Whether the routing table homes `urn` on a different shard — the
    /// object either hashes elsewhere or was migrated away from here.
    pub(super) fn homed_elsewhere(&self, urn: &str) -> bool {
        self.map.shard_for(urn) != self.shard
    }

    /// Feeds a committed write to the shared load counters (the
    /// rebalancer and the imbalance metric read them).
    pub(super) fn note_commit(&self) {
        self.map.note_commit(self.shard);
    }

    /// Hot-set tracking: every import/export against this shard is a
    /// hit (the epoch tick folds the counters into stats).
    pub(super) fn touch(&mut self, req: &QrpcRequest) {
        if let Some(h) = &mut self.hotset {
            if matches!(req.op, RoverOp::Import | RoverOp::Export { .. }) {
                h.touch(&req.urn);
            }
        }
    }

    /// Drops every replica held here, and the shared directory forgets
    /// this holder so no client routes a read to it.
    pub(super) fn drop_replicas(&mut self) {
        self.replicas.clear();
        self.map.drop_replicas_of(self.shard);
    }

    /// Forgets all volatile state: replicas and the tracker's counts.
    pub(super) fn reset(&mut self, replicate_hot: usize) {
        self.drop_replicas();
        if self.hotset.is_some() {
            self.hotset = Some(HotSet::new(hot_capacity(replicate_hot)));
        }
    }

    /// Drops the replica of `urn`: the object itself has arrived here.
    pub(super) fn forget(&mut self, urn: &Urn) {
        self.replicas.remove(urn);
        self.map.retract_replica(urn.as_str(), self.shard);
    }

    /// Installs a peer's replica image and registers it in the shared
    /// directory — unless the object is homed or stored here (a replica
    /// would only shadow it) or an image at least as new is held.
    /// Returns whether it was installed.
    pub(super) fn install(
        &mut self,
        frame: &ReplicaFrame,
        urn: Urn,
        obj: RoverObject,
        store: &HashMap<Urn, RoverObject>,
    ) -> bool {
        if !self.homed_elsewhere(&frame.urn) || store.contains_key(&urn) {
            return false;
        }
        if self
            .replicas
            .get(&urn)
            .is_some_and(|(old, _)| obj.version < old.version)
        {
            return false;
        }
        self.replicas.insert(urn, (obj, frame.epoch));
        self.map
            .publish_replica(&frame.urn, self.shard, frame.version.0);
        true
    }

    /// Replica serve: a read routed here by the replica directory. The
    /// session's floor travels in the request's read-vector; the replica
    /// serves only when its version satisfies it (monotonic reads never
    /// weaken), else the client re-routes home. `None` when no replica
    /// of `urn` is held.
    pub(super) fn serve(&mut self, urn: &Urn, req: &QrpcRequest) -> Option<QrpcReply> {
        let (rep, _) = self.replicas.get(urn)?;
        let floor = req
            .read_vector
            .iter()
            .filter(|(name, _)| *name == req.urn)
            .map(|(_, fl)| *fl)
            .max()
            .unwrap_or(0);
        if rep.version.0 < floor {
            return Some(status_reply(req.req_id, OpStatus::WrongShard));
        }
        self.replica_reads += 1;
        Some(image_reply(req.req_id, OpStatus::Ok, rep))
    }

    /// One replication epoch: ages out replicas whose home stopped
    /// refreshing them (bounding staleness to one epoch), folds the hot
    /// tracker's activity into the stats, decays it, and returns this
    /// shard's `k` hottest home objects as version-stamped replica
    /// frames, one envelope per (frame, peer).
    pub(super) fn epoch(
        &mut self,
        sim: &mut Sim,
        store: &HashMap<Urn, RoverObject>,
        k: usize,
        host: HostId,
    ) -> Vec<Envelope> {
        self.epoch += 1;
        let min_epoch = self.epoch.saturating_sub(1);
        let stale: Vec<Urn> = self
            .replicas
            .iter()
            .filter(|(_, (_, e))| *e < min_epoch)
            .map(|(u, _)| u.clone())
            .collect();
        for u in stale {
            self.forget(&u);
            sim.stats.incr("server.replicas_aged_out");
        }
        let mut out = Vec::new();
        let Some(h) = &mut self.hotset else {
            return out;
        };
        let (touched, evicted) = h.take_activity();
        sim.stats.add("server.hot_tracked", touched);
        sim.stats.add("server.hot_evicted", evicted);
        let top = h.top();
        h.decay();
        let peers: Vec<HostId> = self
            .map
            .hosts()
            .iter()
            .copied()
            .filter(|p| *p != host)
            .collect();
        let mut published = 0;
        for (name, _) in top {
            if published >= k {
                break;
            }
            // Publish only objects homed (and present) here.
            if self.homed_elsewhere(&name) {
                continue;
            }
            let Some(obj) = Urn::parse(&name).ok().and_then(|u| store.get(&u)) else {
                continue;
            };
            published += 1;
            let body: Bytes = ReplicaFrame {
                urn: name,
                version: obj.version,
                epoch: self.epoch,
                obj: obj.to_bytes(),
            }
            .to_bytes();
            out.extend(peers.iter().map(|&dst| Envelope {
                kind: MsgKind::Replica,
                src: host,
                dst,
                body: body.clone(),
            }));
        }
        out
    }

    /// The hot tracker's current view restricted to objects homed (and
    /// stored) here, hottest first — the rebalancer's migration
    /// candidates.
    pub(super) fn hot_home_top(&self, store: &HashMap<Urn, RoverObject>) -> Vec<(String, u64)> {
        let Some(h) = &self.hotset else {
            return Vec::new();
        };
        h.top()
            .into_iter()
            .filter(|(name, _)| {
                !self.homed_elsewhere(name)
                    && Urn::parse(name)
                        .ok()
                        .is_some_and(|u| store.contains_key(&u))
            })
            .collect()
    }
}
