//! Approximate hot-set tracking: a space-saving top-K counter.
//!
//! The load-balancing plane needs each shard to know which objects are
//! drawing the most QRPC traffic *right now*, without paying memory
//! proportional to the URN population (10k clients hit tens of
//! thousands of names). The classic answer is the *space-saving*
//! algorithm (Metwally et al.): keep exactly K counters; a hit on a
//! tracked name increments its counter; a hit on an untracked name
//! evicts the current minimum and inherits its count plus one. The
//! counters overestimate by at most the evicted minimum, which is
//! exactly the property a "which objects are hot" question tolerates.
//!
//! Updates are O(1) amortized in the population size: the only
//! non-constant work is the min-scan on eviction, which is O(K) with K
//! a small constant (the replication factor, typically 8–32) — never
//! O(distinct names). Per-epoch [`HotSet::decay`] halves every counter
//! so the set tracks the *recent* hot head rather than all of history.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// FNV-1a (widened to 8-byte lanes) for the slot index: the map never
/// exceeds K+1 short URN keys and its iteration order is never
/// observed, so a cheap multiply hash beats SipHash on the per-hit
/// lookup without any flooding exposure or determinism risk.
#[derive(Debug, Default, Clone)]
struct FnvBuild;

struct Fnv(u64);

impl Hasher for Fnv {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: the lane multiplies leave little entropy in
        // the low bits (URN keys share a long common prefix), and the
        // hash map indexes buckets by exactly those bits.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const M: u64 = 0x0100_0000_01b3;
        let mut it = bytes.chunks_exact(8);
        for chunk in it.by_ref() {
            let lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ lane).wrapping_mul(M);
        }
        let rem = it.remainder();
        if !rem.is_empty() {
            let mut lane = [0u8; 8];
            lane[..rem.len()].copy_from_slice(rem);
            self.0 = (self.0 ^ u64::from_le_bytes(lane)).wrapping_mul(M);
        }
    }
}

impl BuildHasher for FnvBuild {
    type Hasher = Fnv;

    fn build_hasher(&self) -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// A space-saving top-K frequency tracker over string keys.
///
/// Layout: counters live in a dense slot vector and the hash map only
/// translates key → slot index. The eviction min-scan then runs over a
/// contiguous `u64` array (comparing keys only to break count ties)
/// instead of iterating a string-keyed map — an order of magnitude
/// cheaper on the churn-heavy workloads the tracker exists for.
#[derive(Debug, Default)]
pub struct HotSet {
    /// Maximum number of tracked keys (K).
    capacity: usize,
    /// Tracked key → index into `slots`.
    index: HashMap<String, usize, FnvBuild>,
    /// `(count, key)` per tracked key; counts (over-)estimate hits.
    slots: Vec<(u64, String)>,
    /// Total hits observed (for stats; survives decay).
    touched: u64,
    /// Evictions performed (tracker churn; high churn means K is too
    /// small for the skew).
    evicted: u64,
}

impl HotSet {
    /// Creates a tracker holding at most `capacity` keys.
    pub fn new(capacity: usize) -> HotSet {
        HotSet {
            capacity,
            index: HashMap::with_capacity_and_hasher(capacity + 1, FnvBuild),
            slots: Vec::with_capacity(capacity),
            touched: 0,
            evicted: 0,
        }
    }

    /// Records one hit on `key`. O(1) amortized; O(K) worst case on
    /// eviction of the minimum counter.
    #[inline]
    pub fn touch(&mut self, key: &str) {
        self.touched += 1;
        if let Some(&i) = self.index.get(key) {
            self.slots[i].0 += 1;
            return;
        }
        self.touch_miss(key);
    }

    /// The untracked-key slow path: admit or evict-and-replace.
    fn touch_miss(&mut self, key: &str) {
        if self.slots.len() < self.capacity {
            self.index.insert(key.to_owned(), self.slots.len());
            self.slots.push((1, key.to_owned()));
            return;
        }
        // Space-saving eviction: the newcomer replaces the minimum and
        // inherits its count + 1 (it *may* have occurred that often).
        // Ties break on the lexically smallest key so runs replay
        // byte-identically regardless of hash-map iteration order. Two
        // passes keep the common scan pure integer work: find the
        // minimum count first, compare keys only among its ties.
        let min_count = self
            .slots
            .iter()
            .map(|(c, _)| *c)
            .min()
            .expect("capacity > 0 and slots full");
        let min = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == min_count)
            .min_by(|(_, (_, a)), (_, (_, b))| a.cmp(b))
            .map(|(i, _)| i)
            .expect("a minimum count exists");
        let (_, min_key) = std::mem::take(&mut self.slots[min]);
        self.index.remove(&min_key);
        self.index.insert(key.to_owned(), min);
        self.slots[min] = (min_count + 1, key.to_owned());
        self.evicted += 1;
    }

    /// The tracked hot set, hottest first (count desc, then key asc for
    /// determinism). At most K entries.
    pub fn top(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.slots.iter().map(|(c, k)| (k.clone(), *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Epoch decay: halves every counter and drops the ones that reach
    /// zero, so the set follows the *current* hot head.
    pub fn decay(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.index.clear();
        for (c, k) in old {
            let c = c / 2;
            if c > 0 {
                self.index.insert(k.clone(), self.slots.len());
                self.slots.push((c, k));
            }
        }
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total hits observed over the tracker's lifetime.
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Evictions performed over the tracker's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Returns and resets the `(touched, evicted)` activity counters —
    /// the per-epoch deltas the server folds into its stats.
    pub fn take_activity(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.touched),
            std::mem::take(&mut self.evicted),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn tracks_the_heavy_hitter() {
        let mut h = HotSet::new(4);
        for i in 0..100 {
            h.touch("hot");
            h.touch(&format!("cold{}", i % 20));
        }
        let top = h.top();
        assert_eq!(top[0].0, "hot");
        assert!(top[0].1 >= 100, "heavy hitter count never undercounts");
        assert!(h.len() <= 4);
        assert!(h.evicted() > 0, "20 cold keys must churn a 4-slot set");
        assert_eq!(h.touched(), 200);
    }

    #[test]
    fn eviction_inherits_min_plus_one() {
        let mut h = HotSet::new(2);
        h.touch("a");
        h.touch("a");
        h.touch("b");
        h.touch("c"); // evicts b (count 1) → c enters at 2
        let top = h.top();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], ("a".into(), 2));
        assert_eq!(top[1], ("c".into(), 2));
    }

    #[test]
    fn decay_halves_and_drops_zeroes() {
        let mut h = HotSet::new(4);
        h.touch("x");
        h.touch("x");
        h.touch("x");
        h.touch("y");
        h.decay();
        let top = h.top();
        assert_eq!(top, vec![("x".into(), 1)]);
        h.decay();
        assert!(h.is_empty());
    }

    #[test]
    fn deterministic_under_tie_eviction() {
        // All counts equal: the lexically smallest key is evicted, so
        // two identical runs produce identical sets.
        let run = || {
            let mut h = HotSet::new(3);
            for k in ["m", "z", "a", "q", "q"] {
                h.touch(k);
            }
            h.top()
        };
        assert_eq!(run(), run());
    }

    /// Feeds `stream` to a K-slot tracker and an exact `BTreeMap`
    /// counter, asserts the space-saving guarantees, and returns both.
    fn against_exact(k: usize, stream: &[String]) -> (HotSet, BTreeMap<&str, u64>) {
        let mut h = HotSet::new(k);
        let mut exact: BTreeMap<&str, u64> = BTreeMap::new();
        for key in stream {
            h.touch(key);
            *exact.entry(key).or_default() += 1;
        }
        let top = h.top();
        assert!(h.len() <= k, "{} keys tracked with K = {k}", h.len());
        for (key, count) in &top {
            let truth = exact[key.as_str()];
            assert!(*count >= truth, "{key}: counted {count} < true {truth}");
        }
        let n = stream.len() as u64;
        for (key, &truth) in &exact {
            if truth * k as u64 > n {
                assert!(
                    top.iter().any(|(t, _)| t == key),
                    "{key} drew {truth} of {n} hits (> N/K, K = {k}) but is untracked"
                );
            }
        }
        (h, exact)
    }

    proptest! {
        #[test]
        fn space_saving_bounds_hold_against_an_exact_counter(
            k in 1usize..=64,
            keys in 1usize..=10_000,
            draws in proptest::collection::vec((0u8..4, 0usize..10_000), 0..2_000),
        ) {
            // A quarter of the hits land on a 4-key head, so the > N/K
            // guarantee has keys to bind at large K; a small `keys`
            // population supplies them at small K.
            let stream: Vec<String> = draws
                .into_iter()
                .map(|(r, x)| format!("k{}", if r == 0 { x % 4 } else { x % keys }))
                .collect();
            against_exact(k, &stream);
        }
    }

    /// A zipf-shaped stream over 10k URNs: a quarter of the hits on one
    /// object, most of the rest on a 16-object head, one in sixteen
    /// anywhere in the population. The sketch's hottest key is the
    /// exact counter's.
    #[test]
    fn zipf_10k_urns_top_key_matches_the_exact_counter() {
        const URNS: usize = 10_000;
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let stream: Vec<String> = (0..50_000usize)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as usize;
                let obj = match i % 16 {
                    0..=3 => 0,
                    15 => r % URNS,
                    _ => r % 16,
                };
                format!("urn:rover:bench/obj{obj}")
            })
            .collect();
        let (h, exact) = against_exact(32, &stream);
        let hottest = exact.iter().max_by_key(|(_, &c)| c).map(|(k, _)| *k);
        assert_eq!(Some(h.top()[0].0.as_str()), hottest);
        assert!(exact.len() > 32 * 50, "the stream spans the population");
    }
}
