//! The server's at-most-once replay cache and the acknowledgement
//! floors that decide what it may forget.
//!
//! A client's floor (`QrpcRequest::acked_below`) promises that every
//! request id strictly below it had its reply processed, so that entry
//! can never be needed again. Entries at or above their client's floor
//! are *pinned*: they may still have to absorb a retransmission, are
//! never evicted, and are what a checkpoint carries. Entries below it
//! are *evictable*. The cache owns the floors because the split between
//! the two sets is only as good as the floor it was computed from:
//! floors move through [`DedupCache::advance_floor`] alone, which
//! re-files the entries the advance acknowledged, so
//!
//! > **eviction order = insertion order among below-floor entries**
//!
//! holds without ever scanning the cache.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use rover_wire::QrpcReply;

/// `(client, request id)`.
pub(crate) type DedupKey = (u32, u64);

/// Replay cache plus per-client acknowledgement floors.
#[derive(Default)]
pub(crate) struct DedupCache {
    /// Per-client acknowledgement floor. A client has an entry from its
    /// first request on (floor 0 until it acknowledges something).
    floors: HashMap<u32, u64>,
    /// Cached replies with their insertion stamp. Ordered by key so a
    /// floor advance finds the ids it acknowledged as one range.
    replies: BTreeMap<DedupKey, (u64, QrpcReply)>,
    /// Entries at or above their client's floor, by insertion stamp.
    pinned: BTreeMap<u64, DedupKey>,
    /// Entries below their client's floor, by insertion stamp. Every
    /// entry is in exactly one of `pinned` and `evictable`.
    evictable: BTreeMap<u64, DedupKey>,
    next_stamp: u64,
}

impl DedupCache {
    /// `client`'s acknowledgement floor (0 if it never sent one).
    pub(crate) fn floor(&self, client: u32) -> u64 {
        self.floors.get(&client).copied().unwrap_or(0)
    }

    /// Raises `client`'s floor to `acked_below` if that is higher (a
    /// floor never retreats) and makes the entries it acknowledged
    /// evictable. Returns the floor now in force.
    pub(crate) fn advance_floor(&mut self, client: u32, acked_below: u64) -> u64 {
        let floor = self.floors.entry(client).or_insert(0);
        if acked_below > *floor {
            let acked = (client, *floor)..(client, acked_below);
            *floor = acked_below;
            for (key, (stamp, _)) in self.replies.range(acked) {
                if self.pinned.remove(stamp).is_some() {
                    self.evictable.insert(*stamp, *key);
                }
            }
        }
        *floor
    }

    /// The cached reply for `key`, if still held.
    pub(crate) fn get(&self, key: &DedupKey) -> Option<&QrpcReply> {
        self.replies.get(key).map(|(_, reply)| reply)
    }

    /// Caches `reply` under `key`. A key already present keeps its
    /// place in the order and only has its reply replaced; returns
    /// whether the entry is new.
    pub(crate) fn insert(&mut self, key: DedupKey, reply: QrpcReply) -> bool {
        match self.replies.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().1 = reply;
                false
            }
            Entry::Vacant(e) => {
                let stamp = self.next_stamp;
                self.next_stamp += 1;
                e.insert((stamp, reply));
                if key.1 < self.floor(key.0) {
                    self.evictable.insert(stamp, key);
                } else {
                    self.pinned.insert(stamp, key);
                }
                true
            }
        }
    }

    /// Evicts the oldest-inserted evictable entries until at most
    /// `capacity` entries remain. Returns `false` when the cache is
    /// still over capacity because everything left is pinned: eviction
    /// is deferred to a later insert rather than dropping a reply a
    /// retransmission may still need.
    pub(crate) fn evict_to(&mut self, capacity: usize) -> bool {
        while self.replies.len() > capacity {
            let Some((_, key)) = self.evictable.pop_first() else {
                return false;
            };
            self.replies.remove(&key);
        }
        true
    }

    /// The pinned entries in insertion order: the dedup section of a
    /// checkpoint.
    pub(crate) fn pinned(&self) -> impl Iterator<Item = (DedupKey, &QrpcReply)> {
        self.pinned
            .values()
            .filter_map(|key| self.replies.get(key).map(|(_, reply)| (*key, reply)))
    }

    /// Number of pinned entries.
    pub(crate) fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Every `(client, floor)`, unordered.
    pub(crate) fn floors(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.floors.iter().map(|(c, f)| (*c, *f))
    }

    /// Installs a checkpoint's floors into an *empty* cache (a later
    /// duplicate of a client wins, as the image's reader always had it).
    pub(crate) fn restore_floors(&mut self, floors: impl IntoIterator<Item = (u32, u64)>) {
        debug_assert!(self.replies.is_empty(), "floors restored under entries");
        self.floors.extend(floors);
    }

    /// Forgets everything.
    pub(crate) fn clear(&mut self) {
        *self = DedupCache::default();
    }

    /// Every held key, pinned or not, in insertion order.
    #[cfg(test)]
    pub(crate) fn keys_in_insertion_order(&self) -> Vec<DedupKey> {
        let mut all: Vec<(u64, DedupKey)> = self
            .pinned
            .iter()
            .chain(&self.evictable)
            .map(|(stamp, key)| (*stamp, *key))
            .collect();
        all.sort();
        assert_eq!(all.len(), self.replies.len(), "an entry is in neither set");
        all.into_iter().map(|(_, key)| key).collect()
    }
}
