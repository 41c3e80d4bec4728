//! The client object cache: committed and tentative copies, LRU
//! eviction, and the accounting the access manager needs.
//!
//! "A mobile host imports objects into its local cache and exports
//! updated objects back to their home servers" (paper §2). Each entry
//! holds the last *committed* copy received from the home server plus an
//! optional *tentative* copy reflecting locally applied, not-yet-
//! committed exports (Bayou-style tentative data). Entries pinned by
//! pending operations are never evicted.
//!
//! Object images are shared (`Rc`): the cache, an [`crate::Outcome`] and
//! a tentative copy may all hold the same image, and a writer goes
//! through `Rc::make_mut`, so a holder never sees a later mutation.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rover_sim::SimTime;
use rover_wire::Version;

use crate::object::RoverObject;
use crate::urn::Urn;

/// One cached object.
#[derive(Debug)]
pub struct CacheEntry {
    /// Last committed copy from the home server.
    pub committed: Rc<RoverObject>,
    /// Local copy with pending exports applied (None = clean).
    pub tentative: Option<Rc<RoverObject>>,
    /// Number of QRPCs outstanding against this object (pin count).
    pub pending_ops: usize,
    /// User-requested hoard pin: never evicted while set.
    pub hoarded: bool,
    /// Recency key `(last access, order of last touch)` under which the
    /// entry sits in [`Cache`]'s index; only the cache moves it.
    recency: (SimTime, u64),
    /// A server callback announced this newer committed version; reads
    /// should refetch instead of serving the stale copy.
    pub invalidated_by: Option<Version>,
}

impl CacheEntry {
    /// Returns the copy a reader should see: tentative if allowed and
    /// present, else committed.
    pub fn read_copy(&self, accept_tentative: bool) -> &Rc<RoverObject> {
        match (&self.tentative, accept_tentative) {
            (Some(t), true) => t,
            _ => &self.committed,
        }
    }

    /// Returns whether the entry has uncommitted local state.
    pub fn is_dirty(&self) -> bool {
        self.tentative.is_some()
    }

    /// Last access time (LRU key).
    pub fn last_access(&self) -> SimTime {
        self.recency.0
    }

    fn size(&self) -> usize {
        self.committed.size_bytes() + self.tentative.as_ref().map(|t| t.size_bytes()).unwrap_or(0)
    }
}

/// The access manager's object cache.
pub struct Cache {
    entries: HashMap<Urn, CacheEntry>,
    /// Every entry by recency key, oldest first. Ticks are unique, so
    /// equal timestamps evict in order of last touch.
    index: BTreeMap<(SimTime, u64), Urn>,
    ticks: u64,
    capacity_bytes: usize,
    used_bytes: usize,
}

impl Cache {
    /// Creates a cache bounded at `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Cache {
        Cache {
            entries: HashMap::new(),
            index: BTreeMap::new(),
            ticks: 0,
            capacity_bytes,
            used_bytes: 0,
        }
    }

    /// Returns the entry for `urn`, updating its LRU timestamp.
    pub fn touch(&mut self, urn: &Urn, now: SimTime) -> Option<&mut CacheEntry> {
        let e = self.entries.get_mut(urn)?;
        if let Some(u) = self.index.remove(&e.recency) {
            self.ticks += 1;
            e.recency = (now, self.ticks);
            self.index.insert(e.recency, u);
        }
        Some(e)
    }

    /// Returns the entry without touching LRU state.
    pub fn peek(&self, urn: &Urn) -> Option<&CacheEntry> {
        self.entries.get(urn)
    }

    /// Returns the entry mutably without touching LRU state.
    pub fn peek_mut(&mut self, urn: &Urn) -> Option<&mut CacheEntry> {
        self.entries.get_mut(urn)
    }

    /// Inserts or replaces the committed copy for `urn`, preserving any
    /// tentative copy and pin count. Returns URNs evicted to make room.
    pub fn install_committed(&mut self, obj: Rc<RoverObject>, now: SimTime) -> Vec<Urn> {
        let urn = obj.urn.clone();
        let (old, new) = match self.touch(&urn, now) {
            Some(e) => {
                let old = e.size();
                // The install comes from the home server, which is
                // authoritative: any invalidation marker is now moot
                // (polling invalidates speculatively with version+1).
                e.invalidated_by = None;
                e.committed = obj;
                (old, e.size())
            }
            None => {
                self.ticks += 1;
                let e = CacheEntry {
                    committed: obj,
                    tentative: None,
                    pending_ops: 0,
                    hoarded: false,
                    recency: (now, self.ticks),
                    invalidated_by: None,
                };
                let new = e.size();
                self.index.insert(e.recency, urn.clone());
                self.entries.insert(urn, e);
                (0, new)
            }
        };
        self.used_bytes = self.used_bytes - old + new;
        self.evict_to_fit()
    }

    /// Replaces (or sets) the tentative copy for a cached object;
    /// returns whether the object was cached.
    pub fn set_tentative(&mut self, urn: &Urn, obj: Rc<RoverObject>) -> bool {
        let Some(e) = self.entries.get_mut(urn) else {
            return false;
        };
        self.used_bytes -= e.size();
        e.tentative = Some(obj);
        self.used_bytes += e.size();
        true
    }

    /// Drops the tentative copy (all pending exports resolved).
    pub fn clear_tentative(&mut self, urn: &Urn) {
        if let Some(e) = self.entries.get_mut(urn) {
            self.used_bytes -= e.size();
            e.tentative = None;
            self.used_bytes += e.size();
        }
    }

    /// Adjusts the pin count for `urn` by `delta`.
    pub fn pin(&mut self, urn: &Urn, delta: isize) {
        if let Some(e) = self.entries.get_mut(urn) {
            e.pending_ops = (e.pending_ops as isize + delta).max(0) as usize;
        }
    }

    /// Returns the committed version of a cached object (0 if absent).
    pub fn version(&self, urn: &Urn) -> Version {
        self.entries
            .get(urn)
            .map(|e| e.committed.version)
            .unwrap_or(Version(0))
    }

    /// Returns `true` if `urn` is cached.
    pub fn contains(&self, urn: &Urn) -> bool {
        self.entries.contains_key(urn)
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently accounted.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Cached URNs, least recently used first: the order eviction
    /// walks, before its filters.
    pub fn lru_order(&self) -> impl Iterator<Item = &Urn> {
        self.index.values()
    }

    /// Sets or clears the user hoard pin on a cached object; returns
    /// whether the object was cached.
    pub fn set_hoarded(&mut self, urn: &Urn, on: bool) -> bool {
        match self.entries.get_mut(urn) {
            Some(e) => {
                e.hoarded = on;
                true
            }
            None => false,
        }
    }

    /// Marks a cached object stale: a server callback reported
    /// `newer` as committed elsewhere. No-op if the cached copy is
    /// already at least that fresh.
    pub fn invalidate(&mut self, urn: &Urn, newer: Version) -> bool {
        match self.entries.get_mut(urn) {
            Some(e) if e.committed.version < newer => {
                e.invalidated_by = Some(newer);
                true
            }
            _ => false,
        }
    }

    /// Removes an entry outright (used by tests and invalidation).
    pub fn remove(&mut self, urn: &Urn) -> Option<CacheEntry> {
        let e = self.entries.remove(urn)?;
        self.index.remove(&e.recency);
        self.used_bytes -= e.size();
        Some(e)
    }

    /// Evicts clean, unpinned entries, least recently used first, until
    /// within capacity: one walk of the index from its oldest key, with
    /// pin count, dirty and hoard as filters. Dirty (tentative) entries
    /// are never evicted — they hold the only copy of the user's
    /// uncommitted work.
    fn evict_to_fit(&mut self) -> Vec<Urn> {
        let mut over = self.used_bytes.saturating_sub(self.capacity_bytes);
        let mut evicted = Vec::new();
        for urn in self.index.values() {
            if over == 0 {
                break;
            }
            match self.entries.get(urn) {
                Some(e) if e.pending_ops == 0 && !e.is_dirty() && !e.hoarded => {
                    over = over.saturating_sub(e.size());
                    evicted.push(urn.clone());
                }
                _ => {} // Pinned, dirty or hoarded.
            }
        }
        for urn in &evicted {
            self.remove(urn);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(path: &str, bytes: usize) -> Rc<RoverObject> {
        Rc::new(RoverObject::new(urn(path), "t").with_field("body", &"x".repeat(bytes)))
    }

    fn urn(path: &str) -> Urn {
        Urn::parse(&format!("urn:rover:t/{path}")).unwrap()
    }

    #[test]
    fn install_and_read() {
        let mut c = Cache::new(1 << 20);
        c.install_committed(obj("a", 100), SimTime::from_micros(1));
        assert!(c.contains(&urn("a")));
        let e = c.touch(&urn("a"), SimTime::from_micros(2)).unwrap();
        assert_eq!(e.read_copy(true).field("body").unwrap().len(), 100);
        assert_eq!(e.last_access(), SimTime::from_micros(2));
    }

    #[test]
    fn tentative_copy_shadows_committed_when_accepted() {
        let mut c = Cache::new(1 << 20);
        c.install_committed(obj("a", 10), SimTime::ZERO);
        let mut t = obj("a", 10);
        Rc::make_mut(&mut t).fields.insert("extra".into(), "local");
        assert!(c.set_tentative(&urn("a"), t));
        let e = c.peek(&urn("a")).unwrap();
        assert!(e.is_dirty());
        assert_eq!(e.read_copy(true).field("extra"), Some("local"));
        assert_eq!(e.read_copy(false).field("extra"), None);
        c.clear_tentative(&urn("a"));
        assert!(!c.peek(&urn("a")).unwrap().is_dirty());
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut c = Cache::new(700);
        c.install_committed(obj("a", 300), SimTime::from_micros(1));
        c.install_committed(obj("b", 300), SimTime::from_micros(2));
        // Touch `a` so `b` becomes LRU.
        c.touch(&urn("a"), SimTime::from_micros(3));
        let evicted = c.install_committed(obj("c", 300), SimTime::from_micros(4));
        assert_eq!(evicted, vec![urn("b")]);
        assert!(c.contains(&urn("a")));
        assert!(c.contains(&urn("c")));
    }

    #[test]
    fn pinned_and_dirty_entries_survive_eviction() {
        let mut c = Cache::new(800);
        c.install_committed(obj("pinned", 300), SimTime::from_micros(1));
        c.pin(&urn("pinned"), 1);
        c.install_committed(obj("dirty", 300), SimTime::from_micros(2));
        c.set_tentative(&urn("dirty"), obj("dirty", 300));
        let evicted = c.install_committed(obj("new", 300), SimTime::from_micros(3));
        // Nothing evictable: over capacity but pinned/dirty survive.
        assert!(evicted.is_empty() || !evicted.contains(&urn("pinned")));
        assert!(c.contains(&urn("pinned")));
        assert!(c.contains(&urn("dirty")));
    }

    #[test]
    fn byte_accounting_balances() {
        let mut c = Cache::new(1 << 20);
        c.install_committed(obj("a", 100), SimTime::ZERO);
        c.install_committed(obj("b", 200), SimTime::ZERO);
        let before = c.used_bytes();
        c.set_tentative(&urn("a"), obj("a", 100));
        assert!(c.used_bytes() > before);
        c.clear_tentative(&urn("a"));
        assert_eq!(c.used_bytes(), before);
        c.remove(&urn("a"));
        c.remove(&urn("b"));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinstall_replaces_committed_in_place() {
        let mut c = Cache::new(1 << 20);
        c.install_committed(obj("a", 100), SimTime::ZERO);
        let mut newer = obj("a", 50);
        Rc::make_mut(&mut newer).version = Version(9);
        c.install_committed(newer, SimTime::from_micros(5));
        assert_eq!(c.version(&urn("a")), Version(9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pin_never_goes_negative() {
        let mut c = Cache::new(1 << 20);
        c.install_committed(obj("a", 10), SimTime::ZERO);
        c.pin(&urn("a"), -5);
        assert_eq!(c.peek(&urn("a")).unwrap().pending_ops, 0);
    }

    #[test]
    fn set_tentative_on_uncached_object_reports_absence() {
        let mut c = Cache::new(1 << 20);
        assert!(!c.set_tentative(&urn("ghost"), obj("ghost", 10)));
        assert_eq!((c.len(), c.used_bytes()), (0, 0));
    }

    // Regression: with equal timestamps the victim used to be whichever
    // entry the `HashMap`'s per-instance hasher seed iterated first.
    #[test]
    fn equal_timestamps_evict_in_order_of_last_touch() {
        let run = || {
            let mut c = Cache::new(64 * obj("00", 100).size_bytes());
            for i in 0..64 {
                c.install_committed(obj(&format!("{i:02}"), 100), SimTime::ZERO);
            }
            // Re-touching the first eight at the same instant moves
            // them behind the other 56.
            for i in 0..8 {
                c.touch(&urn(&format!("{i:02}")), SimTime::ZERO);
            }
            let mut evicted = Vec::new();
            for i in 64..96 {
                evicted.extend(c.install_committed(obj(&format!("{i:02}"), 100), SimTime::ZERO));
            }
            evicted
        };
        let expect: Vec<Urn> = (8..40).map(|i| urn(&format!("{i:02}"))).collect();
        assert_eq!(run(), expect);
        assert_eq!(run(), expect);
    }
}
