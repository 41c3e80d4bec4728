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
    Client, ClientConfig, ClientRef, Guarantees, History, Priority, Promise, ReexecuteResolver,
    Server, ServerConfig, ServerRef, ShardMap, Urn, World,
};
use rover_net::LinkSpec;
use rover_sim::SimDuration;
use rover_wire::{HostId, SessionId};

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
/// the writer, the reader, and the history that recorded the objects
/// and the seed imports (counter `i` is `urns[i]`).
fn replicated_federation(
    shards: usize,
) -> (World, Vec<ServerRef>, Vec<Urn>, Handle, Handle, History) {
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
    let mut hist = History::default();
    for u in &urns {
        hist.put_counter(&fed, u, 0).expect("a shard homes it");
    }
    for (i, u) in urns.iter().enumerate() {
        let now = fed.sim.now();
        let p = Client::import(&client, &mut fed.sim, u, session, Priority::NORMAL)
            .expect("seed import");
        hist.read(now, WRITER, session, i, &p);
        assert!(fed.await_promise(&p, LIMIT), "seed import");
    }
    let mut cfg = ClientConfig::thinkpad(READER, HostId(2));
    cfg.shards = Some(map);
    cfg.cache_capacity = 1;
    let reader = fed.client(cfg, LinkSpec::ETHERNET_10M);
    let rsession = Client::create_session(&reader, Guarantees::ALL, true);
    (
        fed,
        servers,
        urns,
        (client, session),
        (reader, rsession),
        hist,
    )
}

/// Issues `add 1` to counter `i` from `h` and records it.
fn write(fed: &mut World, hist: &mut History, h: &Handle, urns: &[Urn], i: usize) -> Promise {
    let now = fed.sim.now();
    let e = Client::export(
        &h.0,
        &mut fed.sim,
        &urns[i],
        h.1,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .expect("export");
    hist.write(now, Client::host(&h.0), h.1, i, 1, &e);
    e.committed
}

/// Issues an import of counter `i` from `h` and records it.
fn read(fed: &mut World, hist: &mut History, h: &Handle, urns: &[Urn], i: usize) -> Promise {
    let now = fed.sim.now();
    let p = Client::import(&h.0, &mut fed.sim, &urns[i], h.1, Priority::NORMAL).expect("import");
    hist.read(now, Client::host(&h.0), h.1, i, &p);
    p
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
    let (mut fed, servers, urns, _, (reader, rsession), _) = replicated_federation(2);
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
    // floor (the history oracle), and no cold read may return a version
    // older than the home version at the second-to-last epoch boundary
    // (a replica image is refreshed or aged out within one epoch of
    // falling out of the hot set).
    #[test]
    fn replica_reads_preserve_sessions_and_bounded_staleness(
        shards in 2usize..=4,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (mut fed, servers, urns, writer, reader, mut hist) = replicated_federation(shards);
        // Home versions at the last two epoch boundaries: the oldest
        // image any replica may still serve is `snap_prev`.
        let mut snap_prev = vec![0u64; OBJS];
        let mut snap_cur = vec![0u64; OBJS];
        for op in &ops {
            match *op {
                Op::Write(i) => {
                    let p = write(&mut fed, &mut hist, &writer, &urns, i);
                    prop_assert!(fed.await_promise(&p, LIMIT));
                }
                Op::Read(i) => {
                    let p = read(&mut fed, &mut hist, &writer, &urns, i);
                    prop_assert!(fed.await_promise(&p, LIMIT));
                }
                Op::ColdRead(i) => {
                    let p = read(&mut fed, &mut hist, &reader, &urns, i);
                    prop_assert!(fed.await_promise(&p, LIMIT));
                    let v = p.poll().expect("resolved").version.0;
                    prop_assert!(
                        v >= snap_prev[i],
                        "staleness > one epoch: read v{} but home was v{} an epoch ago",
                        v, snap_prev[i]
                    );
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
        let checked = hist.check(&fed, &[writer.0, reader.0]);
        prop_assert!(checked.is_ok(), "{:?}", checked.err());
    }

    // Unawaited bursts: writer commits, writer reads and cold reads race
    // over per-shard links while epochs republish hot sets mid-flight.
    // After the bursts drain, the history oracle holds: no read regressed
    // in issue order, and the home copies counted every add once.
    #[test]
    fn interleaved_bursts_never_regress_reads(
        shards in 2usize..=4,
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0..OBJS), 1..12),
            1..8,
        ),
    ) {
        let (mut fed, servers, urns, writer, reader, mut hist) = replicated_federation(shards);
        for (b, burst) in bursts.iter().enumerate() {
            for &(kind, i) in burst {
                match kind {
                    0 => drop(write(&mut fed, &mut hist, &writer, &urns, i)),
                    1 => drop(read(&mut fed, &mut hist, &writer, &urns, i)),
                    _ => drop(read(&mut fed, &mut hist, &reader, &urns, i)),
                }
            }
            if b % 2 == 1 {
                // Epoch mid-flight: publications race the burst.
                for sv in &servers {
                    Server::replication_epoch(sv, &mut fed.sim);
                }
            }
            fed.sim.run();
        }
        let checked = hist.check(&fed, &[writer.0, reader.0]);
        prop_assert!(checked.is_ok(), "{:?}", checked.err());
    }
}
