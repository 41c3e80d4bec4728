//! Differential test of the client cache against the eviction it
//! replaced, and of the sharing rule for object images.
//!
//! The cache used to find each victim by scanning every entry for the
//! least `last_access`; ties fell to `HashMap` iteration order. The scan
//! is kept here, and only here, as the reference, with the tie-break
//! made explicit: `(last_access, order of last touch)`. Random
//! operation sequences with colliding, non-monotonic timestamps and
//! capacities small enough to evict must leave the indexed cache and
//! the scan with the same evictions in the same order, the same bytes
//! and the same recency order after every step.

use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;
use rover_core::{
    Cache, CacheEntry, Client, ClientConfig, Guarantees, ReexecuteResolver, RoverObject,
    ServerConfig, Urn, World,
};
use rover_net::LinkSpec;
use rover_sim::SimTime;
use rover_wire::{HostId, Priority, Version};

fn urn(i: usize) -> Urn {
    Urn::parse(&format!("urn:rover:t/o{i}")).unwrap()
}

fn obj(i: usize, bytes: usize) -> Rc<RoverObject> {
    Rc::new(RoverObject::new(urn(i), "t").with_field("body", &"x".repeat(bytes)))
}

struct ScanEntry {
    committed: Rc<RoverObject>,
    tentative: Option<Rc<RoverObject>>,
    pending_ops: usize,
    hoarded: bool,
    last_access: SimTime,
    /// Order of the last touch: the explicit tie-break.
    tick: u64,
    invalidated_by: Option<Version>,
}

impl ScanEntry {
    fn size(&self) -> usize {
        self.committed.size_bytes() + self.tentative.as_ref().map_or(0, |t| t.size_bytes())
    }
}

/// The linear-scan cache, as `cache.rs` had it.
struct LinearScan {
    entries: HashMap<Urn, ScanEntry>,
    capacity_bytes: usize,
    ticks: u64,
}

impl LinearScan {
    fn used_bytes(&self) -> usize {
        self.entries.values().map(ScanEntry::size).sum()
    }

    fn touch(&mut self, urn: &Urn, now: SimTime) -> Option<&mut ScanEntry> {
        let e = self.entries.get_mut(urn)?;
        self.ticks += 1;
        (e.last_access, e.tick) = (now, self.ticks);
        Some(e)
    }

    fn install_committed(&mut self, obj: Rc<RoverObject>, now: SimTime) -> Vec<Urn> {
        let urn = obj.urn.clone();
        match self.touch(&urn, now) {
            Some(e) => {
                e.invalidated_by = None;
                e.committed = obj;
            }
            None => {
                self.ticks += 1;
                let e = ScanEntry {
                    committed: obj,
                    tentative: None,
                    pending_ops: 0,
                    hoarded: false,
                    last_access: now,
                    tick: self.ticks,
                    invalidated_by: None,
                };
                self.entries.insert(urn, e);
            }
        }
        let mut evicted = Vec::new();
        while self.used_bytes() > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.pending_ops == 0 && e.tentative.is_none() && !e.hoarded)
                .min_by_key(|(_, e)| (e.last_access, e.tick))
                .map(|(u, _)| u.clone());
            match victim {
                Some(u) => {
                    self.entries.remove(&u);
                    evicted.push(u);
                }
                None => break, // Everything is pinned or dirty.
            }
        }
        evicted
    }

    fn lru_order(&self) -> Vec<Urn> {
        let mut all: Vec<_> = self.entries.iter().collect();
        all.sort_by_key(|(_, e)| (e.last_access, e.tick));
        all.into_iter().map(|(u, _)| u.clone()).collect()
    }
}

const URNS: usize = 10;

proptest! {
    #[test]
    fn indexed_cache_matches_the_linear_scan(
        capacity in 300usize..1500,
        ops in proptest::collection::vec((0u8..13, 0..URNS, 0u64..4, 40usize..400), 1..120),
    ) {
        let mut cache = Cache::new(capacity);
        let mut scan = LinearScan { entries: HashMap::new(), capacity_bytes: capacity, ticks: 0 };
        for (kind, i, t, bytes) in ops {
            let (u, now) = (urn(i), SimTime::from_micros(t));
            let held = |e: &CacheEntry| e.pending_ops > 0 || e.is_dirty() || e.hoarded;
            let protected: Vec<Urn> = (0..URNS)
                .map(urn)
                .filter(|u| cache.peek(u).is_some_and(held))
                .collect();
            match kind {
                0..=4 => {
                    let o = obj(i, bytes);
                    let evicted = cache.install_committed(Rc::clone(&o), now);
                    prop_assert_eq!(&evicted, &scan.install_committed(o, now));
                    prop_assert!(evicted.iter().all(|u| !protected.contains(u)));
                }
                5 | 6 => {
                    prop_assert_eq!(cache.touch(&u, now).is_some(), scan.touch(&u, now).is_some());
                }
                7 => {
                    let delta = if bytes % 2 == 0 { 1 } else { -1 };
                    cache.pin(&u, delta);
                    if let Some(e) = scan.entries.get_mut(&u) {
                        e.pending_ops = (e.pending_ops as isize + delta).max(0) as usize;
                    }
                }
                8 => {
                    let o = obj(i, bytes);
                    let cached = cache.set_tentative(&u, Rc::clone(&o));
                    prop_assert_eq!(cached, scan.entries.contains_key(&u));
                    if let Some(e) = scan.entries.get_mut(&u) {
                        e.tentative = Some(o);
                    }
                }
                9 => {
                    cache.clear_tentative(&u);
                    if let Some(e) = scan.entries.get_mut(&u) {
                        e.tentative = None;
                    }
                }
                10 => {
                    let on = bytes % 2 == 0;
                    prop_assert_eq!(cache.set_hoarded(&u, on), scan.entries.contains_key(&u));
                    if let Some(e) = scan.entries.get_mut(&u) {
                        e.hoarded = on;
                    }
                }
                11 => {
                    let newer = Version(t);
                    let marked = cache.invalidate(&u, newer);
                    let e = scan.entries.get_mut(&u).filter(|e| e.committed.version < newer);
                    prop_assert_eq!(marked, e.is_some());
                    if let Some(e) = e {
                        e.invalidated_by = Some(newer);
                    }
                }
                _ => {
                    prop_assert_eq!(cache.remove(&u).is_some(), scan.entries.remove(&u).is_some());
                }
            }
            prop_assert!(protected.iter().all(|p| cache.contains(p) || (kind == 12 && *p == u)));
            prop_assert_eq!(cache.used_bytes(), scan.used_bytes());
            prop_assert_eq!(cache.len(), scan.entries.len());
            prop_assert_eq!(cache.lru_order().cloned().collect::<Vec<_>>(), scan.lru_order());
            for (u, want) in &scan.entries {
                let got = cache.peek(u).unwrap();
                prop_assert!(Rc::ptr_eq(&got.committed, &want.committed));
                prop_assert_eq!(got.tentative.is_some(), want.tentative.is_some());
                prop_assert_eq!(got.pending_ops, want.pending_ops);
                prop_assert_eq!(got.hoarded, want.hoarded);
                prop_assert_eq!(got.last_access(), want.last_access);
                prop_assert_eq!(got.invalidated_by, want.invalidated_by);
            }
        }
    }
}

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);

/// An import hands out the image the cache holds, and nothing the cache
/// does afterwards shows through a held `Outcome`.
#[test]
fn outcome_shares_the_cached_image_and_never_sees_a_later_write() {
    let mut w = World::new(7);
    let server = w.server(ServerConfig::workstation(SERVER));
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    server.borrow_mut().put_object(
        RoverObject::new(urn(0), "counter")
            .with_code(
                "proc get {} {rover::get n 0}
                 proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}",
            )
            .with_field("n", "7"),
    );
    let client = w.client(
        ClientConfig::thinkpad(CLIENT, SERVER),
        LinkSpec::ETHERNET_10M,
    );
    let World { mut sim, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    let miss = Client::import(&client, &mut sim, &urn(0), session, Priority::FOREGROUND).unwrap();
    sim.run();
    let held = miss.poll().unwrap().object.unwrap();
    let cached = Client::cached_object(&client, &urn(0), false).unwrap();
    assert!(Rc::ptr_eq(&held, &cached));
    let hit = Client::import(&client, &mut sim, &urn(0), session, Priority::FOREGROUND).unwrap();
    sim.run();
    assert!(Rc::ptr_eq(&held, &hit.poll().unwrap().object.unwrap()));
    drop(cached);

    let before = RoverObject::clone(&held);
    // A query runs on the cached image in place, an export applies to a
    // tentative copy and then installs the server's reply.
    let q = Client::invoke_local(&client, &mut sim, &urn(0), "get", &[]).unwrap();
    let h = Client::export(
        &client,
        &mut sim,
        &urn(0),
        session,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .unwrap();
    let tentative = Client::cached_object(&client, &urn(0), true).unwrap();
    assert_eq!(tentative.field("n"), Some("8"));
    sim.run();
    assert_eq!(q.poll().unwrap().value.as_str(), "7");
    assert!(h.committed.is_ready());
    let q = Client::invoke_local(&client, &mut sim, &urn(0), "get", &[]).unwrap();
    sim.run();
    assert_eq!(q.poll().unwrap().value.as_str(), "8");
    let cached = Client::cached_object(&client, &urn(0), false).unwrap();
    assert_eq!(cached.field("n"), Some("8"));
    assert_eq!(*held, before);
    assert_eq!(held.field("n"), Some("7"));
}
