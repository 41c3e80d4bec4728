//! Property tests for the hot-set replication plane: arbitrary
//! interleavings of replica-served reads and home-shard writes across
//! 2–4 shards must never weaken the session guarantees (monotonic
//! reads, read-your-writes, exactly-once), and no read may ever be
//! served from an image more than one replication epoch stale.
//!
//! Two clients share the federation: the *writer* owns the objects in
//! its cache and commits home-shard writes; the *cold reader* has a
//! one-byte cache, so every one of its imports refetches over the
//! network and is routed by the replica directory — alternating
//! between replica holders and home shards is exactly where a
//! monotonic-reads violation would surface.

use proptest::prelude::*;
use rover_core::{
    Client, ClientConfig, ClientRef, Guarantees, Priority, Promise, ReexecuteResolver, Server,
    ServerConfig, ServerRef, ShardMap, Urn, World,
};
use rover_net::LinkSpec;
use rover_sim::SimDuration;
use rover_wire::{HostId, OpStatus, SessionId};

/// The writer's host.
const WRITER: HostId = HostId(1);

/// Object population: small enough that the top-2-per-shard hot sets
/// replicate most of it, large enough that every shard homes some.
const OBJS: usize = 6;

#[derive(Clone, Debug)]
enum Op {
    /// Writer exports `add 1` to the object's home shard.
    Write(usize),
    /// Writer import (usually a cache hit — the session floor path).
    Read(usize),
    /// Cold-reader import: always refetches, eligible for replica
    /// service on any holder whose version satisfies the floor.
    ColdRead(usize),
    /// One replication epoch on every shard (publish + age-out).
    Epoch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..OBJS).prop_map(Op::Write),
        (0..OBJS).prop_map(Op::Read),
        (0..OBJS).prop_map(Op::ColdRead),
        Just(Op::Epoch),
    ]
}

/// The cold reader's host.
const READER: HostId = HostId(100);

/// Longest one awaited operation may take (nothing here takes 10
/// simulated hours).
const LIMIT: SimDuration = SimDuration::from_secs(36_000);

/// A client and its session.
type Handle = (ClientRef, SessionId);

/// Builds a `shards`-shard federation with the dynamic load-balancing
/// plane armed at replication factor 2 (the shared routing map carries
/// the replica directory, and a full server↔server mesh carries replica
/// publications), imports every object into the writer (exports need a
/// cached copy, and the imports seed the session's read floors), and
/// attaches the cold reader: links to every shard, shard routing, and a
/// cache too small to retain anything — every import goes to the wire.
/// Returns the world, the shard servers (index = shard), the objects,
/// the writer and the reader.
fn replicated_federation(shards: usize) -> (World, Vec<ServerRef>, Vec<Urn>, Handle, Handle) {
    let mut fed = World::new(1995);
    let hosts: Vec<HostId> = (0..shards).map(|s| HostId(2 + s as u32)).collect();
    let map = ShardMap::new(hosts.clone()).with_dynamic();
    let mut servers = Vec::with_capacity(shards);
    for (idx, &host) in hosts.iter().enumerate() {
        let mut scfg = ServerConfig::workstation(host);
        scfg.replicate_hot = 2;
        let sv = fed.server(scfg);
        fed.link(LinkSpec::ETHERNET_10M, WRITER, host);
        sv.borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        sv.borrow_mut().attach_shard_routing(map.clone(), idx);
        servers.push(sv);
    }
    for a in 0..shards {
        for b in (a + 1)..shards {
            fed.link(LinkSpec::ETHERNET_10M, hosts[a], hosts[b]);
        }
    }
    fed.shards = Some(map.clone());
    let mut cfg = ClientConfig::thinkpad(WRITER, hosts[0]);
    cfg.shards = Some(map.clone());
    let links = fed.links_of(WRITER);
    let client = Client::new(&mut fed.sim, &fed.net, cfg, links);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let urns: Vec<Urn> = (0..OBJS)
        .map(|i| Urn::new("bench", &format!("prop{i}")).expect("valid urn"))
        .collect();
    for u in &urns {
        fed.put_counter(u, 0);
    }
    for u in &urns {
        let p = Client::import(&client, &mut fed.sim, u, session, Priority::NORMAL)
            .expect("seed import");
        assert!(fed.await_promise(&p, LIMIT), "seed import");
    }
    let mut cfg = ClientConfig::thinkpad(READER, HostId(2));
    cfg.shards = Some(map);
    cfg.cache_capacity = 1;
    let reader = fed.client(cfg, LinkSpec::ETHERNET_10M);
    let rsession = Client::create_session(&reader, Guarantees::ALL, true);
    (fed, servers, urns, (client, session), (reader, rsession))
}

fn home_version(fed: &World, u: &Urn) -> u64 {
    fed.home(u)
        .expect("homed object")
        .borrow()
        .get_object(u)
        .expect("homed object")
        .version
        .0
}

/// Guards the properties against vacuity: this fixed schedule must
/// actually serve imports from replicas, so the proptest interleavings
/// genuinely exercise the replica read path.
#[test]
fn the_harness_serves_reads_from_replicas() {
    let (mut fed, servers, urns, _, (reader, rsession)) = replicated_federation(2);
    // Heat one object over the wire, publish an epoch, then keep
    // reading it: the router spreads qualifying reads across holders.
    for _ in 0..4 {
        let p = Client::import(&reader, &mut fed.sim, &urns[0], rsession, Priority::NORMAL)
            .expect("import");
        assert!(fed.await_promise(&p, LIMIT));
    }
    for sv in &servers {
        Server::replication_epoch(sv, &mut fed.sim);
    }
    fed.sim.run();
    for _ in 0..8 {
        let p = Client::import(&reader, &mut fed.sim, &urns[0], rsession, Priority::NORMAL)
            .expect("import");
        assert!(fed.await_promise(&p, LIMIT));
    }
    assert!(
        fed.sim.stats.counter("server.replica_reads") > 0,
        "no import was ever served by a replica — the properties would be vacuous"
    );
}

proptest! {
    // Sequential ops in an arbitrary order: every read — cache hit,
    // home refetch, or replica-served — must respect its session's
    // floor, and no cold read may return a version older than the home
    // version at the second-to-last epoch boundary (a replica image is
    // refreshed or aged out within one epoch of falling out of the hot
    // set).
    #[test]
    fn replica_reads_preserve_sessions_and_bounded_staleness(
        shards in 2usize..=4,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (mut fed, servers, urns, (client, session), (reader, rsession)) =
            replicated_federation(shards);
        let mut floors: Vec<u64> = urns.iter().map(|u| home_version(&fed, u)).collect();
        let v0 = floors.clone();
        let mut reader_floors = [0u64; OBJS];
        let mut writes = [0u64; OBJS];
        // Home versions at the last two epoch boundaries: the oldest
        // image any replica may still serve is `snap_prev`.
        let mut snap_prev = vec![0u64; OBJS];
        let mut snap_cur = vec![0u64; OBJS];
        for op in &ops {
            match *op {
                Op::Write(i) => {
                    let h = Client::export(
                        &client, &mut fed.sim, &urns[i], session,
                        "add", &["1"], Priority::NORMAL,
                    ).expect("export");
                    prop_assert!(fed.await_promise(&h.committed, LIMIT));
                    let o = h.committed.poll().expect("committed");
                    prop_assert!(
                        matches!(o.status, OpStatus::Ok | OpStatus::Resolved),
                        "write failed with {:?}", o.status
                    );
                    prop_assert!(o.version.0 > floors[i], "commit must advance the version");
                    writes[i] += 1;
                    floors[i] = o.version.0;
                }
                Op::Read(i) => {
                    let p = Client::import(
                        &client, &mut fed.sim, &urns[i], session, Priority::NORMAL,
                    ).expect("import");
                    prop_assert!(fed.await_promise(&p, LIMIT));
                    let o = p.poll().expect("resolved");
                    prop_assert_eq!(o.status, OpStatus::Ok);
                    prop_assert!(
                        o.version.0 >= floors[i],
                        "MR/RYW violated: writer read v{} below session floor v{}",
                        o.version.0, floors[i]
                    );
                    floors[i] = o.version.0;
                }
                Op::ColdRead(i) => {
                    let p = Client::import(
                        &reader, &mut fed.sim, &urns[i], rsession, Priority::NORMAL,
                    ).expect("cold import");
                    prop_assert!(fed.await_promise(&p, LIMIT));
                    let o = p.poll().expect("resolved");
                    prop_assert_eq!(o.status, OpStatus::Ok);
                    prop_assert!(
                        o.version.0 >= reader_floors[i],
                        "MR violated: cold read v{} below session floor v{}",
                        o.version.0, reader_floors[i]
                    );
                    prop_assert!(
                        o.version.0 >= snap_prev[i],
                        "staleness > one epoch: read v{} but home was v{} an epoch ago",
                        o.version.0, snap_prev[i]
                    );
                    reader_floors[i] = o.version.0;
                }
                Op::Epoch => {
                    for sv in &servers {
                        Server::replication_epoch(sv, &mut fed.sim);
                    }
                    fed.sim.run();
                    snap_prev = snap_cur;
                    snap_cur = urns.iter().map(|u| home_version(&fed, u)).collect();
                }
            }
        }
        fed.sim.run();
        // Exactly-once: each home copy counted every add exactly once.
        for (i, u) in urns.iter().enumerate() {
            let s = fed.home(u).unwrap().borrow();
            let o = s.get_object(u).expect("homed object");
            prop_assert_eq!(o.field("n").unwrap().parse::<u64>().unwrap(), writes[i]);
            prop_assert_eq!(o.version.0, v0[i] + writes[i]);
        }
    }

    // Unawaited bursts: writer commits and cold reads race over
    // per-shard links while epochs republish hot sets mid-flight. In
    // issue order, per object, the cold reader's versions must never
    // regress, and after the burst drains the home copies must have
    // counted every add exactly once.
    #[test]
    fn interleaved_bursts_never_regress_reads(
        shards in 2usize..=4,
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0..OBJS), 1..12),
            1..8,
        ),
    ) {
        let (mut fed, servers, urns, (client, session), (reader, rsession)) =
            replicated_federation(shards);
        let v0: Vec<u64> = urns.iter().map(|u| home_version(&fed, u)).collect();
        let mut reader_floors = [0u64; OBJS];
        let mut writes = [0u64; OBJS];
        for (b, burst) in bursts.iter().enumerate() {
            let mut commits: Vec<(usize, Promise)> = Vec::new();
            let mut cold: Vec<(usize, Promise)> = Vec::new();
            for &(kind, i) in burst {
                match kind {
                    0 => {
                        let h = Client::export(
                            &client, &mut fed.sim, &urns[i], session,
                            "add", &["1"], Priority::NORMAL,
                        ).expect("export");
                        writes[i] += 1;
                        commits.push((i, h.committed));
                    }
                    1 => {
                        // Writer read: floor checks covered by the
                        // sequential property; here it just adds
                        // interleaved traffic.
                        let _ = Client::import(
                            &client, &mut fed.sim, &urns[i], session, Priority::NORMAL,
                        ).expect("import");
                    }
                    _ => {
                        let p = Client::import(
                            &reader, &mut fed.sim, &urns[i], rsession, Priority::NORMAL,
                        ).expect("cold import");
                        cold.push((i, p));
                    }
                }
            }
            if b % 2 == 1 {
                // Epoch mid-flight: publications race the burst.
                for sv in &servers {
                    Server::replication_epoch(sv, &mut fed.sim);
                }
            }
            fed.sim.run();
            for (i, p) in commits {
                let o = p.poll().expect("committed");
                prop_assert!(
                    matches!(o.status, OpStatus::Ok | OpStatus::Resolved),
                    "write to obj{i} failed with {:?}", o.status
                );
            }
            for (i, p) in cold {
                let o = p.poll().expect("cold read resolved");
                prop_assert_eq!(o.status, OpStatus::Ok);
                prop_assert!(
                    o.version.0 >= reader_floors[i],
                    "cold read of obj{i} regressed below v{}", reader_floors[i]
                );
                reader_floors[i] = o.version.0;
            }
        }
        for (i, u) in urns.iter().enumerate() {
            let s = fed.home(u).unwrap().borrow();
            let o = s.get_object(u).expect("homed object");
            prop_assert_eq!(o.field("n").unwrap().parse::<u64>().unwrap(), writes[i]);
            prop_assert_eq!(o.version.0, v0[i] + writes[i]);
        }
    }
}
