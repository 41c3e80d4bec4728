//! Shard routing: partitioning the URN space across N home servers.
//!
//! Rover's architecture gives every object one home server (paper §2);
//! the federation layer scales that out by partitioning the URN
//! namespace across N server *shards*. Routing must be a pure function
//! of the URN string so that every client — and every run of the
//! deterministic soaks — computes the same assignment: the map hashes
//! the full URN with FNV-1a and takes it modulo the shard count.
//! Operators can additionally *pin* a URN prefix to a specific shard
//! (e.g. keep one authority's whole namespace on one machine); pins are
//! checked first, longest prefix wins.
//!
//! On top of the static assignment sits an optional *dynamic* routing
//! plane ([`DynamicRouting`], enabled by [`ShardMap::with_dynamic`])
//! shared by every clone of the map — in the simulator one `Rc` stands
//! in for the gossiped routing directory a real deployment would run:
//!
//! - **migration pins**: the rebalancer re-homes persistently hot
//!   prefixes by installing a dynamic pin, checked before the static
//!   table, so writes follow the object to its new home;
//! - **replica directory**: which shards hold a volatile read replica
//!   of a hot object, at which version — [`ShardMap::read_shard_for`]
//!   routes an import to the least-loaded holder whose version
//!   satisfies the session's read floor, and to the home shard
//!   otherwise;
//! - **load counters**: per-shard routed-read and committed-write
//!   tallies feeding both the least-loaded choice and the rebalancer.
//!
//! With no dynamic plane attached every method degrades to the pure
//! static function, byte-identical to the pre-replication router.

use std::cell::RefCell;
use std::rc::Rc;

use rover_wire::HostId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Why a [`ShardMap`] construction or pin was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardMapError {
    /// The host list was empty — a map needs at least one shard.
    EmptyHosts,
    /// A pin's prefix was the empty string, which would capture every
    /// URN and silently disable hash routing.
    EmptyPrefix,
    /// A pin duplicates an existing pin's prefix: two equal-length
    /// overlapping pins would make "longest prefix wins" ambiguous.
    DuplicatePrefix(String),
    /// A pin named a shard index outside the host list.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// Number of shards in the map.
        shards: usize,
    },
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::EmptyHosts => write!(f, "a ShardMap needs at least one shard"),
            ShardMapError::EmptyPrefix => write!(f, "empty pin prefix would capture every URN"),
            ShardMapError::DuplicatePrefix(p) => {
                write!(f, "duplicate pin prefix {p:?}")
            }
            ShardMapError::ShardOutOfRange { shard, shards } => {
                write!(f, "pin to nonexistent shard {shard} (map has {shards})")
            }
        }
    }
}

impl std::error::Error for ShardMapError {}

/// One replica holder: `(shard index, replica version)`.
type Holder = (usize, u64);

/// The shared dynamic routing plane: migration pins, the replica
/// directory, and per-shard load counters. Every clone of a
/// [`ShardMap`] shares one instance (the simulator's stand-in for a
/// gossiped directory service).
#[derive(Debug, Default)]
pub struct DynamicRouting {
    /// Migration pins `(urn_prefix, shard)`, longest-prefix-first;
    /// checked before the static pins and the hash.
    migrations: Vec<(String, usize)>,
    /// Replica directory: URN → holders `(shard, version)`. The home
    /// shard is *not* listed; it always serves.
    replicas: std::collections::HashMap<String, Vec<Holder>>,
    /// Reads routed to each shard (bumped at route time; the
    /// least-loaded choice reads these).
    read_loads: Vec<u64>,
    /// Commits executed by each shard (bumped by the server; the
    /// rebalancer and the imbalance metric read these).
    commit_loads: Vec<u64>,
}

impl DynamicRouting {
    fn new(shards: usize) -> DynamicRouting {
        DynamicRouting {
            migrations: Vec::new(),
            replicas: std::collections::HashMap::new(),
            read_loads: vec![0; shards],
            commit_loads: vec![0; shards],
        }
    }
}

/// A deterministic URN → shard routing table.
///
/// # Examples
///
/// ```
/// use rover_core::ShardMap;
/// use rover_wire::HostId;
///
/// let map = ShardMap::new(vec![HostId(1), HostId(2), HostId(3)]);
/// let s = map.shard_for("urn:rover:mail/inbox/42");
/// assert!(s < 3);
/// // Same URN, same shard — routing is a pure function of the name.
/// assert_eq!(s, map.shard_for("urn:rover:mail/inbox/42"));
/// ```
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Host ids of the shard servers, in shard-index order.
    hosts: Vec<HostId>,
    /// Prefix pins: `(urn_prefix, shard_index)`, checked before the
    /// hash; the longest matching prefix wins.
    pins: Vec<(String, usize)>,
    /// Optional shared dynamic plane (replication + rebalancing).
    dynamic: Option<Rc<RefCell<DynamicRouting>>>,
}

/// Equality is over the *static* table only: two clones sharing a
/// dynamic plane, or two maps with identical static tables, compare
/// equal regardless of transient replica/migration state.
impl PartialEq for ShardMap {
    fn eq(&self, other: &Self) -> bool {
        self.hosts == other.hosts && self.pins == other.pins
    }
}

impl Eq for ShardMap {}

impl ShardMap {
    /// Builds a map over `hosts` (one per shard) with no pins.
    pub fn try_new(hosts: Vec<HostId>) -> Result<ShardMap, ShardMapError> {
        if hosts.is_empty() {
            return Err(ShardMapError::EmptyHosts);
        }
        Ok(ShardMap {
            hosts,
            pins: Vec::new(),
            dynamic: None,
        })
    }

    /// Builds a map over `hosts` (one per shard) with no pins.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty; [`ShardMap::try_new`] returns the
    /// typed error instead.
    pub fn new(hosts: Vec<HostId>) -> ShardMap {
        ShardMap::try_new(hosts).expect("a ShardMap needs at least one shard")
    }

    /// Pins every URN starting with `prefix` to shard `shard` (an index
    /// into the host list, not a `HostId`). Rejects empty prefixes,
    /// duplicate prefixes (equal-length overlap would make
    /// longest-prefix-wins ambiguous), and out-of-range shard indices.
    pub fn try_pin_prefix(mut self, prefix: &str, shard: usize) -> Result<ShardMap, ShardMapError> {
        if prefix.is_empty() {
            return Err(ShardMapError::EmptyPrefix);
        }
        if shard >= self.hosts.len() {
            return Err(ShardMapError::ShardOutOfRange {
                shard,
                shards: self.hosts.len(),
            });
        }
        if self.pins.iter().any(|(p, _)| p == prefix) {
            return Err(ShardMapError::DuplicatePrefix(prefix.to_string()));
        }
        self.pins.push((prefix.to_string(), shard));
        // Longest-prefix-first so `shard_for` can take the first match.
        self.pins
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
        Ok(self)
    }

    /// Pins every URN starting with `prefix` to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics on an empty prefix, a duplicate prefix, or an
    /// out-of-range shard; [`ShardMap::try_pin_prefix`] returns the
    /// typed error instead.
    pub fn pin_prefix(self, prefix: &str, shard: usize) -> ShardMap {
        match self.try_pin_prefix(prefix, shard) {
            Ok(map) => map,
            Err(e @ ShardMapError::ShardOutOfRange { .. }) => {
                panic!("pin to nonexistent shard: {e}")
            }
            Err(e) => panic!("invalid shard pin: {e}"),
        }
    }

    /// Attaches a fresh dynamic routing plane (replication +
    /// rebalancing directory). Clones made *after* this call share it.
    pub fn with_dynamic(mut self) -> ShardMap {
        let n = self.hosts.len();
        self.dynamic = Some(Rc::new(RefCell::new(DynamicRouting::new(n))));
        self
    }

    /// Whether a dynamic routing plane is attached.
    pub fn has_dynamic(&self) -> bool {
        self.dynamic.is_some()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the map has a single shard (routing is trivial).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard index owning `urn` (its write home). Migration pins
    /// are honored first, then static pins (longest prefix wins), then
    /// the hash.
    pub fn shard_for(&self, urn: &str) -> usize {
        if let Some(dynamic) = &self.dynamic {
            for (prefix, shard) in &dynamic.borrow().migrations {
                if subtree_match(urn, prefix) {
                    return *shard;
                }
            }
        }
        self.static_shard_for(urn)
    }

    /// The static assignment for `urn`, ignoring migration pins — what
    /// `shard_for` returned before any rebalancing ran.
    pub fn static_shard_for(&self, urn: &str) -> usize {
        for (prefix, shard) in &self.pins {
            if urn.starts_with(prefix.as_str()) {
                return *shard;
            }
        }
        (fnv1a(urn.as_bytes()) % self.hosts.len() as u64) as usize
    }

    /// The host owning `urn`.
    pub fn host_for(&self, urn: &str) -> HostId {
        self.hosts[self.shard_for(urn)]
    }

    /// The host of shard `idx`.
    pub fn host(&self, idx: usize) -> HostId {
        self.hosts[idx]
    }

    /// All shard hosts in shard-index order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    // ------------------------------------------------------------------
    // Dynamic plane: read routing, replica directory, rebalancing.

    /// Routes a *read* of `urn` whose session requires at least version
    /// `floor`: the least-loaded shard among the home and every replica
    /// holder whose registered version satisfies the floor (ties go to
    /// the home). Bumps the chosen shard's read-load counter. Without a
    /// dynamic plane this is exactly [`ShardMap::shard_for`].
    pub fn read_shard_for(&self, urn: &str, floor: u64) -> usize {
        let home = self.shard_for(urn);
        let Some(dynamic) = &self.dynamic else {
            return home;
        };
        let mut d = dynamic.borrow_mut();
        let mut best = home;
        let mut best_load = d.read_loads[home];
        if let Some(holders) = d.replicas.get(urn) {
            for &(shard, version) in holders {
                if shard != home && version >= floor && d.read_loads[shard] < best_load {
                    best = shard;
                    best_load = d.read_loads[shard];
                }
            }
        }
        d.read_loads[best] += 1;
        best
    }

    /// The host serving a read of `urn` at session floor `floor`.
    pub fn read_host_for(&self, urn: &str, floor: u64) -> HostId {
        self.hosts[self.read_shard_for(urn, floor)]
    }

    /// Registers (or refreshes) shard `holder`'s replica of `urn` at
    /// `version` in the directory. No-op without a dynamic plane.
    pub fn publish_replica(&self, urn: &str, holder: usize, version: u64) {
        if let Some(dynamic) = &self.dynamic {
            let mut d = dynamic.borrow_mut();
            let holders = d.replicas.entry(urn.to_string()).or_default();
            match holders.iter_mut().find(|(s, _)| *s == holder) {
                Some(slot) => slot.1 = slot.1.max(version),
                None => holders.push((holder, version)),
            }
        }
    }

    /// Deregisters shard `holder`'s replica of `urn` — called when the
    /// holder evicts a replica its home stopped refreshing (the one-
    /// epoch staleness bound). No-op without a dynamic plane.
    pub fn retract_replica(&self, urn: &str, holder: usize) {
        if let Some(dynamic) = &self.dynamic {
            let mut d = dynamic.borrow_mut();
            if let Some(holders) = d.replicas.get_mut(urn) {
                holders.retain(|(s, _)| *s != holder);
                if holders.is_empty() {
                    d.replicas.remove(urn);
                }
            }
        }
    }

    /// Deregisters every replica held by shard `holder` — called when
    /// the holder crashes (replicas are volatile). No-op without a
    /// dynamic plane.
    pub fn drop_replicas_of(&self, holder: usize) {
        if let Some(dynamic) = &self.dynamic {
            let mut d = dynamic.borrow_mut();
            d.replicas.retain(|_, holders| {
                holders.retain(|(s, _)| *s != holder);
                !holders.is_empty()
            });
        }
    }

    /// Installs a migration pin: `prefix` itself and every URN in its
    /// `/`-separated subtree now home on `shard`. Checked before the
    /// static table. Unlike static pins, a migration pin never
    /// captures a *sibling* that merely shares a string prefix — the
    /// rebalancer moves exactly one object's store image, so pinning
    /// `…/obj7` must not claim `…/obj70`. No-op without a dynamic
    /// plane.
    pub fn migrate_prefix(&self, prefix: &str, shard: usize) {
        if let Some(dynamic) = &self.dynamic {
            let mut d = dynamic.borrow_mut();
            if let Some(slot) = d.migrations.iter_mut().find(|(p, _)| p == prefix) {
                slot.1 = shard;
            } else {
                d.migrations.push((prefix.to_string(), shard));
                d.migrations
                    .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
            }
        }
    }

    /// Number of migration pins currently installed.
    pub fn migration_count(&self) -> usize {
        self.dynamic
            .as_ref()
            .map_or(0, |d| d.borrow().migrations.len())
    }

    /// Records one committed write on shard `shard` (feeds the
    /// rebalancer and the load-imbalance metric). No-op without a
    /// dynamic plane.
    pub fn note_commit(&self, shard: usize) {
        if let Some(dynamic) = &self.dynamic {
            dynamic.borrow_mut().commit_loads[shard] += 1;
        }
    }

    /// Per-shard committed-write counters since the map was built.
    pub fn commit_loads(&self) -> Vec<u64> {
        self.dynamic
            .as_ref()
            .map_or_else(Vec::new, |d| d.borrow().commit_loads.clone())
    }
}

/// Does a migration pin capture `urn`? The pin claims the exact name
/// and its `/`-separated subtree — never a lexical sibling.
fn subtree_match(urn: &str, pin: &str) -> bool {
    urn.strip_prefix(pin)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (1..=n).map(HostId).collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let map = ShardMap::new(hosts(4));
        for i in 0..256 {
            let urn = format!("urn:rover:scale/obj{i}");
            let s = map.shard_for(&urn);
            assert!(s < 4);
            assert_eq!(s, map.shard_for(&urn), "same urn, same shard");
            assert_eq!(map.host_for(&urn), map.host(s));
        }
    }

    #[test]
    fn single_shard_routes_everything_to_it() {
        let map = ShardMap::new(vec![HostId(9)]);
        assert_eq!(map.len(), 1);
        assert_eq!(map.shard_for("urn:rover:a/b"), 0);
        assert_eq!(map.host_for("urn:rover:zzz"), HostId(9));
    }

    #[test]
    fn hash_spreads_across_shards() {
        let map = ShardMap::new(hosts(4));
        let mut seen = [0usize; 4];
        for i in 0..256 {
            seen[map.shard_for(&format!("urn:rover:scale/obj{i}"))] += 1;
        }
        for (s, n) in seen.iter().enumerate() {
            assert!(*n > 0, "shard {s} got no objects");
        }
    }

    #[test]
    fn pins_override_hash_longest_first() {
        let map = ShardMap::new(hosts(4))
            .pin_prefix("urn:rover:mail", 1)
            .pin_prefix("urn:rover:mail/archive", 3);
        assert_eq!(map.shard_for("urn:rover:mail/inbox/1"), 1);
        assert_eq!(map.shard_for("urn:rover:mail/archive/1995"), 3);
        // Unpinned names still hash.
        let s = map.shard_for("urn:rover:cal/today");
        assert!(s < 4);
    }

    #[test]
    fn empty_map_rejected_with_typed_error() {
        assert_eq!(
            ShardMap::try_new(Vec::new()).unwrap_err(),
            ShardMapError::EmptyHosts
        );
    }

    #[test]
    fn empty_prefix_rejected_with_typed_error() {
        assert_eq!(
            ShardMap::new(hosts(2)).try_pin_prefix("", 1).unwrap_err(),
            ShardMapError::EmptyPrefix
        );
    }

    #[test]
    fn duplicate_prefix_rejected_with_typed_error() {
        let err = ShardMap::new(hosts(2))
            .pin_prefix("urn:rover:mail", 0)
            .try_pin_prefix("urn:rover:mail", 1)
            .unwrap_err();
        assert_eq!(err, ShardMapError::DuplicatePrefix("urn:rover:mail".into()));
        // Same length but *different* prefix is fine — no ambiguity.
        let ok = ShardMap::new(hosts(2))
            .pin_prefix("urn:rover:mail", 0)
            .try_pin_prefix("urn:rover:cale", 1);
        assert!(ok.is_ok());
    }

    #[test]
    fn out_of_range_pin_rejected_with_typed_error() {
        assert_eq!(
            ShardMap::new(hosts(2))
                .try_pin_prefix("urn:rover:x", 5)
                .unwrap_err(),
            ShardMapError::ShardOutOfRange {
                shard: 5,
                shards: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_map_panics_in_infallible_constructor() {
        ShardMap::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "nonexistent shard")]
    fn out_of_range_pin_panics_in_infallible_constructor() {
        let _ = ShardMap::new(hosts(2)).pin_prefix("urn:rover:x", 5);
    }

    #[test]
    fn read_routing_prefers_least_loaded_qualified_holder() {
        let map = ShardMap::new(hosts(4)).with_dynamic();
        let urn = "urn:rover:scale/hot";
        let home = map.shard_for(urn);
        // No replicas: reads go home.
        assert_eq!(map.read_shard_for(urn, 0), home);
        // A holder at version 5 serves floors <= 5 once home is busier.
        let holder = (home + 1) % 4;
        map.publish_replica(urn, holder, 5);
        map.note_commit(home);
        let mut served = [0usize; 4];
        for _ in 0..8 {
            served[map.read_shard_for(urn, 3)] += 1;
        }
        assert!(served[holder] > 0, "qualified holder must take reads");
        // A floor above the replica version forces home.
        assert_eq!(map.read_shard_for(urn, 6), home);
        // The holder crashes: directory forgets it, reads go home.
        map.drop_replicas_of(holder);
        assert_eq!(map.read_shard_for(urn, 0), home);
    }

    #[test]
    fn migration_pins_never_capture_lexical_siblings() {
        let map = ShardMap::new(hosts(4)).with_dynamic();
        let urn = "urn:rover:scale/obj7";
        let sibling = "urn:rover:scale/obj70";
        let child = "urn:rover:scale/obj7/sub";
        let sib_home = map.shard_for(sibling);
        let target = (map.shard_for(urn) + 1) % 4;
        map.migrate_prefix(urn, target);
        assert_eq!(map.shard_for(urn), target);
        assert_eq!(map.shard_for(child), target, "subtree follows the pin");
        assert_eq!(
            map.shard_for(sibling),
            sib_home,
            "obj70 must not follow obj7's migration"
        );
    }

    #[test]
    fn migration_pins_rehome_writes_and_clones_share_them() {
        let map = ShardMap::new(hosts(4)).with_dynamic();
        let clone = map.clone();
        let urn = "urn:rover:scale/obj1";
        let home = map.shard_for(urn);
        let target = (home + 2) % 4;
        map.migrate_prefix(urn, target);
        assert_eq!(map.shard_for(urn), target, "pin rehomes the object");
        assert_eq!(clone.shard_for(urn), target, "clones share the plane");
        assert_eq!(map.static_shard_for(urn), home, "static view unchanged");
        assert_eq!(map.migration_count(), 1);
        // Equality ignores dynamic state.
        assert_eq!(map, ShardMap::new(hosts(4)));
    }
}
