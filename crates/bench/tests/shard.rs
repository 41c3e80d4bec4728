//! Sharded-federation tests: cross-shard session guarantees (monotonic
//! reads, writes-follow-reads, exactly-once) under interleaving and
//! shard crash-restart, plus shard-routing determinism — the same URN
//! population and seed must reproduce byte-identical assignments and
//! soak digests, and `--shards 1` must reproduce the single-server
//! path exactly.

use rover_bench::exps::scale::{run_scale, ScaleConfig, GROUP_POLICY};
use rover_core::{
    Client, ClientConfig, ClientRef, Guarantees, History, Priority, ReexecuteResolver, Server,
    ServerConfig, ServerRef, ShardMap, Urn, World,
};
use rover_log::MemStore;
use rover_net::LinkSpec;
use rover_sim::SimDuration;
use rover_wire::{HostId, SessionId};

/// Longest a seed import may take (nothing here takes 10 simulated
/// hours).
const LIMIT: SimDuration = SimDuration::from_secs(36_000);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The client's host in every federation here.
const CLIENT: HostId = HostId(1);

/// Builds a 2-shard federation (each shard with its own WAL) with `n`
/// counters spread across both shards, all imported into one client's
/// cache (exports need a cached copy, and the imports seed the
/// session's read floors). Returns the world, the shard servers (index
/// = shard), the client, its session, the counters, and the history
/// that recorded them and the imports (counter `i` is `urns[i]`).
fn federation_with_counters(
    n: usize,
) -> (
    World,
    Vec<ServerRef>,
    ClientRef,
    SessionId,
    Vec<Urn>,
    History,
) {
    let mut fed = World::new(1995);
    let map = ShardMap::new(vec![HostId(2), HostId(3)]);
    let servers: Vec<ServerRef> = map
        .hosts()
        .iter()
        .map(|&host| {
            let sv = fed.server(ServerConfig::workstation(host));
            sv.borrow_mut()
                .register_resolver("counter", Box::new(ReexecuteResolver));
            sv
        })
        .collect();
    fed.shards = Some(map.clone());
    let mut cfg = ClientConfig::thinkpad(CLIENT, HostId(2));
    cfg.shards = Some(map.clone());
    let client = fed.client(cfg, LinkSpec::ETHERNET_10M);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    let urns: Vec<Urn> = (0..n)
        .map(|i| Urn::new("bench", &format!("obj{i}")).expect("valid urn"))
        .collect();
    let mut hist = History::default();
    for u in &urns {
        hist.put_counter(&fed, u, 0).expect("a shard homes it");
    }
    let shards: Vec<usize> = urns.iter().map(|u| map.shard_for(u.as_str())).collect();
    assert!(
        shards.contains(&0) && shards.contains(&1),
        "population must span both shards"
    );
    // WALs attach after seeding so the initial checkpoint covers the
    // objects — crash-restart must bring them back.
    for sv in &servers {
        Server::attach_wal(sv, &mut fed.sim, Box::new(MemStore::new())).expect("attach_wal");
    }
    for (i, u) in urns.iter().enumerate() {
        let now = fed.sim.now();
        let p =
            Client::import(&client, &mut fed.sim, u, session, Priority::NORMAL).expect("import");
        hist.read(now, CLIENT, session, i, &p);
        assert!(fed.await_promise(&p, LIMIT), "seed import");
    }
    (fed, servers, client, session, urns, hist)
}

/// Exports `add 1` to counter `i` and records it.
fn add(fed: &mut World, hist: &mut History, cl: &ClientRef, s: SessionId, urns: &[Urn], i: usize) {
    let now = fed.sim.now();
    let h = Client::export(
        cl,
        &mut fed.sim,
        &urns[i],
        s,
        "add",
        &["1"],
        Priority::NORMAL,
    )
    .expect("export");
    hist.write(now, CLIENT, s, i, 1, &h);
}

/// Interleaves reads and writes across both shards from one session,
/// issuing bursts without waiting so the two links reorder them; the
/// history then holds exactly-once and the session guarantees.
#[test]
fn cross_shard_session_interleaving_holds_guarantees() {
    for seed in [1u64, 7, 23] {
        let (mut fed, _, client, session, urns, mut hist) = federation_with_counters(8);
        let mut rng = seed;
        for _burst in 0..6 {
            // A burst of ~10 unawaited ops lets the two shard links
            // interleave requests from the same session.
            for _ in 0..10 {
                let i = (splitmix(&mut rng) % urns.len() as u64) as usize;
                if splitmix(&mut rng).is_multiple_of(2) {
                    add(&mut fed, &mut hist, &client, session, &urns, i);
                } else {
                    let now = fed.sim.now();
                    let p =
                        Client::import(&client, &mut fed.sim, &urns[i], session, Priority::NORMAL)
                            .expect("import");
                    hist.read(now, CLIENT, session, i, &p);
                }
            }
            fed.sim.run();
        }
        if let Err(e) = hist.check(&fed, &[client]) {
            panic!("seed {seed}: {e}");
        }
        // Cross-shard exports carried read vectors.
        assert!(fed.sim.stats.counter("server.wfr_checked") > 0);
    }
}

/// Crashes one shard mid-burst and restarts it: lost requests must be
/// retransmitted and re-executed exactly once, the surviving shard is
/// undisturbed, and the session guarantees hold across the outage.
#[test]
fn cross_shard_guarantees_survive_shard_crash_restart() {
    let (mut fed, servers, client, session, urns, mut hist) = federation_with_counters(8);
    let mut rng = 42u64;
    for _ in 0..24 {
        let i = (splitmix(&mut rng) % urns.len() as u64) as usize;
        add(&mut fed, &mut hist, &client, session, &urns, i);
    }
    // Power-fail shard 1 while the burst is in flight; bring it back
    // five seconds later. QRPC retransmission re-drives lost requests.
    let sv = servers[1].clone();
    fed.sim.schedule_after(SimDuration::from_millis(50), {
        let sv = sv.clone();
        move |sim| Server::crash_now(&sv, sim)
    });
    fed.sim
        .schedule_after(SimDuration::from_secs(5), move |sim| {
            Server::crash_restart(&sv, sim).expect("shard recovers");
        });
    fed.sim.run();
    hist.check(&fed, &[client]).expect("the contract holds");
    assert_eq!(fed.sim.stats.counter("server.crashes"), 1);
    assert!(
        fed.sim.stats.counter("client.retransmits") > 0,
        "the outage must force retransmission"
    );
}

#[test]
fn sharded_scale_run_is_deterministic() {
    let cfg = ScaleConfig::new(5, 130, 2)
        .with_policy(GROUP_POLICY)
        .with_shards(4);
    let a = run_scale(cfg).expect("run a");
    let b = run_scale(cfg).expect("run b");
    assert_eq!(a, b, "same seed and shard count must reproduce exactly");
    assert_eq!(a.shards, 4);
    assert_eq!(a.shard_ops.iter().sum::<u64>(), a.ops);
}

#[test]
fn shard_kill_chaos_run_is_deterministic() {
    let cfg = ScaleConfig::new(9, 130, 2)
        .with_policy(GROUP_POLICY)
        .with_shards(4)
        .with_shard_crashes(1);
    let a = run_scale(cfg).expect("chaos run a");
    let b = run_scale(cfg).expect("chaos run b");
    assert_eq!(a, b, "shard-kill chaos must replay byte-identically");
    assert_eq!(a.crashes, 4, "one scheduled crash per shard");
}

#[test]
fn one_shard_run_reproduces_the_unsharded_digest() {
    let base = ScaleConfig::new(3, 150, 2).with_policy(GROUP_POLICY);
    let unsharded = run_scale(base).expect("unsharded");
    let one = run_scale(base.with_shards(1)).expect("one shard");
    assert_eq!(
        unsharded, one,
        "--shards 1 must be byte-identical to the single-server soak"
    );
}

#[test]
fn different_shard_counts_commit_everything_but_diverge() {
    let two = run_scale(
        ScaleConfig::new(4, 130, 2)
            .with_policy(GROUP_POLICY)
            .with_shards(2),
    )
    .expect("2 shards");
    let four = run_scale(
        ScaleConfig::new(4, 130, 2)
            .with_policy(GROUP_POLICY)
            .with_shards(4),
    )
    .expect("4 shards");
    assert_eq!(two.committed, four.committed, "same workload either way");
    assert_ne!(two.digest, four.digest, "placement must show in the digest");
}

#[test]
fn replication_and_rebalancing_run_is_deterministic() {
    let cfg = ScaleConfig::new(6, 300, 2)
        .with_policy(GROUP_POLICY)
        .with_shards(4)
        .with_replication(8)
        .with_rebalancing(SimDuration::from_millis(50));
    let a = run_scale(cfg).expect("dynamic run a");
    let b = run_scale(cfg).expect("dynamic run b");
    assert_eq!(a, b, "the dynamic plane must replay byte-identically");
}

#[test]
fn replication_serves_replica_reads_without_weakening_sessions() {
    let base = ScaleConfig::new(8, 400, 2)
        .with_policy(GROUP_POLICY)
        .with_shards(4);
    let replicated = run_scale(base.with_replication(8)).expect("replicated");
    assert!(
        replicated.replica_reads > 0,
        "top-8 replication at 400 clients must serve some imports from replicas"
    );
    assert!(
        replicated.replicas_published > 0,
        "every epoch publishes each shard's hot set"
    );
    // The history oracle inside run_scale already proved exactly-once
    // and the session guarantees; the replicated arm must commit the same
    // workload as the static one.
    let stat = run_scale(base).expect("static");
    assert_eq!(replicated.committed, stat.committed);
    assert_eq!(replicated.final_total, stat.final_total);
}

#[test]
fn chaos_with_replication_is_deterministic_and_durable() {
    let cfg = ScaleConfig::new(11, 300, 2)
        .with_policy(GROUP_POLICY)
        .with_shards(4)
        .with_shard_crashes(1)
        .with_replication(8);
    let a = run_scale(cfg).expect("chaos+replication run a");
    let b = run_scale(cfg).expect("chaos+replication run b");
    assert_eq!(a, b, "chaos with volatile replicas must replay exactly");
    assert_eq!(a.crashes, 4, "one scheduled crash per shard");
}

#[test]
fn shard_map_assignment_is_byte_stable_across_constructions() {
    let hosts: Vec<HostId> = (1..=4).map(HostId).collect();
    let a = ShardMap::new(hosts.clone());
    let b = ShardMap::new(hosts);
    let mut digest_a = 0xcbf2_9ce4_8422_2325u64;
    let mut digest_b = digest_a;
    for i in 0..512 {
        let urn = format!("urn:rover:scale/obj{i}");
        let (sa, sb) = (a.shard_for(&urn), b.shard_for(&urn));
        assert_eq!(sa, sb, "assignment must not depend on construction");
        digest_a = (digest_a ^ sa as u64).wrapping_mul(0x0000_0100_0000_01b3);
        digest_b = (digest_b ^ sb as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(digest_a, digest_b);
}
