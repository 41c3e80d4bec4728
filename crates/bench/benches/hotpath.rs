//! Criterion microbenchmarks for this release's hot paths: the
//! generation-stamped event loop (vs the old tombstone-set design),
//! fragmentation and reassembly of a 1 MiB envelope, the RDO
//! execution fast path (a loop-heavy method on the compiled evaluator,
//! and the cheapest call on the reusable per-object interpreter), and
//! the space-saving hot-set tracker (vs a naive full-sorted-map tracker
//! at 10k distinct URNs).
//!
//! Each benchmark runs one "round" against a 10k-pending backlog:
//! schedule 100 events, cancel three of every four, then pop the
//! survivors — the retransmission-timer mix QRPC produces in the
//! simulator (most timers are cancelled by the reply arriving first).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rover_bench::exps::scale::{run_scale, ScaleConfig, GROUP_POLICY};
use rover_core::{HotSet, RoverObject, Urn};
use rover_net::{split_envelope, Reassembler};
use rover_script::{Budget, Value};
use rover_sim::{Sim, SimDuration, SimTime};
use rover_wire::{Bytes, Envelope, HostId, MsgKind};

const BACKLOG: usize = 10_000;
const ROUND: u64 = 100;

/// Minimal reimplementation of the pre-slab event loop: closures keyed
/// by sequence number in a `HashMap`, cancellation via a tombstone
/// `HashSet` consulted on every pop. Kept here as the comparison
/// baseline for the slab design in `rover_sim::Sim`.
struct TombstoneLoop {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: HashMap<u64, Box<dyn FnMut()>>,
    cancelled: HashSet<u64>,
}

impl TombstoneLoop {
    fn new() -> Self {
        TombstoneLoop {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            events: HashMap::new(),
            cancelled: HashSet::new(),
        }
    }

    fn schedule_at(&mut self, at: u64, f: Box<dyn FnMut()>) -> u64 {
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, id)));
        self.events.insert(id, f);
        id
    }

    fn cancel(&mut self, id: u64) {
        if self.events.remove(&id).is_some() {
            self.cancelled.insert(id);
        }
    }

    fn run_until(&mut self, deadline: u64) {
        while let Some(Reverse((at, id))) = self.heap.peek().copied() {
            if at > deadline {
                break;
            }
            self.heap.pop();
            if self.cancelled.remove(&id) {
                continue;
            }
            self.now = at;
            if let Some(mut f) = self.events.remove(&id) {
                f();
            }
        }
        self.now = self.now.max(deadline);
    }
}

/// One schedule/cancel/pop round on the slab loop.
fn slab_round(sim: &mut Sim, fired: &std::rc::Rc<std::cell::Cell<u64>>) {
    let base = sim.now();
    let ids: Vec<_> = (0..ROUND)
        .map(|i| {
            let fired = fired.clone();
            sim.schedule_at(base + SimDuration::from_micros(i + 1), move |_| {
                fired.set(fired.get() + 1);
            })
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        if i % 4 != 3 {
            sim.cancel(*id);
        }
    }
    sim.run_until(base + SimDuration::from_micros(ROUND + 1));
}

/// The same round on the tombstone baseline.
fn tombstone_round(ev: &mut TombstoneLoop, fired: &std::rc::Rc<std::cell::Cell<u64>>) {
    let base = ev.now;
    let ids: Vec<_> = (0..ROUND)
        .map(|i| {
            let fired = fired.clone();
            ev.schedule_at(base + i + 1, Box::new(move || fired.set(fired.get() + 1)))
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        if i % 4 != 3 {
            ev.cancel(*id);
        }
    }
    ev.run_until(base + ROUND + 1);
}

fn slab_fixture() -> (Sim, std::rc::Rc<std::cell::Cell<u64>>) {
    let mut sim = Sim::new(7);
    let far = SimTime::from_secs(1 << 30);
    for _ in 0..BACKLOG {
        sim.schedule_at(far, |_| {});
    }
    (sim, std::rc::Rc::new(std::cell::Cell::new(0)))
}

fn tombstone_fixture() -> (TombstoneLoop, std::rc::Rc<std::cell::Cell<u64>>) {
    let mut ev = TombstoneLoop::new();
    for _ in 0..BACKLOG {
        ev.schedule_at(u64::MAX / 2, Box::new(|| {}));
    }
    (ev, std::rc::Rc::new(std::cell::Cell::new(0)))
}

fn bench_event_loop(c: &mut Criterion) {
    let (mut sim, fired) = slab_fixture();
    c.bench_function("event/slab_round_10k_pending", |b| {
        b.iter(|| slab_round(&mut sim, &fired));
    });

    let (mut ev, fired) = tombstone_fixture();
    c.bench_function("event/tombstone_round_10k_pending", |b| {
        b.iter(|| tombstone_round(&mut ev, &fired));
    });

    // Headline ratio, measured directly so the report carries it.
    const ITERS: u64 = 2_000;
    let (mut sim, fired) = slab_fixture();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        slab_round(&mut sim, &fired);
    }
    let slab_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;

    let (mut ev, fired) = tombstone_fixture();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        tombstone_round(&mut ev, &fired);
    }
    let tomb_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    println!(
        "event/speedup_vs_tombstone                   {:>10.2}x  (slab {:.0} ns/round, tombstone {:.0} ns/round)",
        tomb_ns / slab_ns,
        slab_ns,
        tomb_ns
    );
}

const MIB: usize = 1 << 20;
const MTU: usize = 1460;

fn big_envelope() -> Envelope {
    Envelope {
        kind: MsgKind::Request,
        src: HostId(1),
        dst: HostId(2),
        body: Bytes::from(vec![0xC3u8; MIB]),
    }
}

/// `split_envelope` slices, `Reassembler` decodes shared views and
/// performs the single exactly-sized rebuild.
fn bytes_roundtrip(env: &Envelope) -> usize {
    let frags = split_envelope(env.clone(), MTU, 9);
    let mut re = Reassembler::new(4);
    let mut out = None;
    for f in frags {
        if let Some(whole) = re.accept(f) {
            out = Some(whole);
        }
    }
    out.expect("reassembled").body.len()
}

fn bench_frag(c: &mut Criterion) {
    let env = big_envelope();
    c.bench_function("frag/roundtrip_1mib_bytes", |b| {
        b.iter(|| {
            assert_eq!(black_box(bytes_roundtrip(&env)), MIB);
        });
    });
}

/// A mail-folder-flavoured RDO: one loop-heavy method (`spin`) plus
/// enough supporting procs that a code reload does real work — the
/// shape `run_method` sees from the application suite.
///
/// `spin`'s loop carries a corruption-repair branch that never fires —
/// the error-handling text real folder code drags through every
/// iteration; compiled once, it costs the loop one untaken jump.
fn folder_object() -> RoverObject {
    let repair: String = (0..64)
        .map(|slot| {
            format!(
                "                set m{slot} [rover::get msg_{slot} {{}}]\n\
                 if {{[llength $m{slot}] != 3}} {{ rover::del msg_{slot} }} else {{ lappend intact {slot} }}\n"
            )
        })
        .collect();
    let code = format!(
        "proc spin {{n}} {{\n\
             set s 0\n\
             set i 0\n\
             while {{$i < $n}} {{\n\
                 incr s 3\n\
                 incr i\n\
                 if {{$s < 0}} {{\n\
                     rover::set corrupt 1\n\
                     set intact {{}}\n\
{repair}\
                     rover::set audit_ok [llength $intact]\n\
                     error \"folder corrupt: counter $s at message $i\"\n\
                 }}\n\
             }}\n\
             return $s\n\
         }}\n\
         proc ping {{}} {{ return pong }}\n\
         proc add {{id from subject}} {{\n\
             rover::set msg_$id [list $from $subject unread]\n\
             rover::set count [expr {{[rover::get count 0] + 1}}]\n\
         }}\n\
         proc mark_read {{id}} {{\n\
             set m [rover::get msg_$id {{}}]\n\
             rover::set msg_$id [lreplace $m 2 2 read]\n\
         }}\n\
         proc summarize {{}} {{\n\
             set n [rover::get count 0]\n\
             return \"folder holds $n message(s)\"\n\
         }}\n\
         proc purge {{}} {{\n\
             foreach k [rover::keys] {{\n\
                 if {{[string match msg_* $k]}} {{ rover::del $k }}\n\
             }}\n\
             rover::set count 0\n\
         }}\n\
         proc resolve {{method args_list base}} {{\n\
             if {{$method eq \"add\"}} {{ return accept }}\n\
             return reject\n\
         }}"
    );
    RoverObject::new(Urn::parse("urn:rover:bench/folder").unwrap(), "folder").with_code(&code)
}

/// One invocation of the 1k-iteration loop-heavy method.
fn spin_round(obj: &mut RoverObject) -> i64 {
    obj.run_method("spin", &[Value::Int(1_000)], Budget::default())
        .expect("spin runs")
        .result
        .as_int()
        .expect("spin returns a count")
}

/// One invocation of the cheap method (the cost of a warm dispatch).
fn ping_round(obj: &mut RoverObject) -> bool {
    obj.run_method("ping", &[], Budget::default())
        .expect("ping runs")
        .result
        .as_str()
        == "pong"
}

fn bench_rdo(c: &mut Criterion) {
    // No ratio gate here: the absolute figures are `script.steps_per_s`,
    // `script.invoke_ns_warm` and `script.first_invoke_us` in the perf
    // ledger (`perf/`), where regressions are judged.
    let mut obj = folder_object();
    c.bench_function("rdo/spin_1k", |b| {
        b.iter(|| assert_eq!(black_box(spin_round(&mut obj)), 3_000));
    });

    let mut obj = folder_object();
    c.bench_function("rdo/run_method_warm_interp", |b| {
        b.iter(|| assert!(black_box(ping_round(&mut obj))));
    });
}

/// What tracking the hot set *without* the space-saving sketch costs:
/// a full count map over every distinct URN plus a sorted index kept
/// consistent on each hit, so top-K is a reverse scan. Two B-tree
/// updates and two key clones per touch, and memory grows with the
/// number of distinct URNs instead of K.
#[derive(Default)]
struct SortedMapTracker {
    counts: BTreeMap<String, u64>,
    order: BTreeSet<(u64, String)>,
}

impl SortedMapTracker {
    fn touch(&mut self, key: &str) {
        let c = self.counts.entry(key.to_string()).or_insert(0);
        if *c > 0 {
            self.order.remove(&(*c, key.to_string()));
        }
        *c += 1;
        self.order.insert((*c, key.to_string()));
    }

    fn top(&self, k: usize) -> Vec<(String, u64)> {
        self.order
            .iter()
            .rev()
            .take(k)
            .map(|(c, u)| (u.clone(), *c))
            .collect()
    }
}

const URNS: usize = 10_000;
const HOT_K: usize = 32;

/// A Zipf-shaped touch stream over `URNS` distinct URNs — the mix a
/// shard sees from the s3 workload after URN partitioning: a quarter
/// of the hits land on one dominant object, most of the rest on a
/// 16-object hot head, and a one-in-sixteen cold tail spread across
/// the whole population.
fn urn_stream() -> (Vec<String>, Vec<usize>) {
    let urns: Vec<String> = (0..URNS)
        .map(|i| format!("urn:rover:bench/obj{i}"))
        .collect();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let idxs: Vec<usize> = (0..50_000usize)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize;
            match i % 16 {
                0..=3 => 0,
                15 => r % URNS,
                _ => r % 16,
            }
        })
        .collect();
    (urns, idxs)
}

fn bench_hotset(c: &mut Criterion) {
    let quick = criterion::test_mode();
    let (urns, idxs) = urn_stream();

    c.bench_function("hotset/touch_stream_10k_urns", |b| {
        let mut hs = HotSet::new(HOT_K);
        b.iter(|| {
            for &i in &idxs {
                hs.touch(black_box(&urns[i]));
            }
        });
    });
    c.bench_function("hotset/sorted_map_baseline_10k_urns", |b| {
        let mut tr = SortedMapTracker::default();
        b.iter(|| {
            for &i in &idxs {
                tr.touch(black_box(&urns[i]));
            }
        });
    });

    // Headline ratio, measured directly — the release gate: the
    // space-saving tracker must update at >= 5x the full-sorted-map
    // rate at 10k distinct URNs, in O(K) space.
    let iters: u64 = if quick { 3 } else { 20 };

    let mut hs = HotSet::new(HOT_K);
    let t0 = Instant::now();
    for _ in 0..iters {
        for &i in &idxs {
            hs.touch(black_box(&urns[i]));
        }
    }
    let hs_ns = t0.elapsed().as_nanos() as f64 / (iters as usize * idxs.len()) as f64;

    let mut tr = SortedMapTracker::default();
    let t0 = Instant::now();
    for _ in 0..iters {
        for &i in &idxs {
            tr.touch(black_box(&urns[i]));
        }
    }
    let tr_ns = t0.elapsed().as_nanos() as f64 / (iters as usize * idxs.len()) as f64;

    // Both trackers agree on the hottest URN, and the sketch held O(K)
    // space while the baseline swallowed the whole population.
    let hs_top = hs.top();
    let tr_top = tr.top(HOT_K);
    assert_eq!(
        hs_top[0].0, tr_top[0].0,
        "trackers disagree on the hot head"
    );
    assert!(hs.len() <= HOT_K, "space-saving tracker exceeded K keys");
    assert!(tr.counts.len() > HOT_K * 50);

    let speedup = tr_ns / hs_ns;
    println!(
        "hotset/speedup_vs_sorted_map                 {:>10.2}x  (space-saving {:.0} ns/touch, sorted-map {:.0} ns/touch)",
        speedup, hs_ns, tr_ns
    );
    assert!(
        speedup >= 5.0,
        "hot-set gate: space-saving touch only {speedup:.2}x the sorted-map baseline at 10k URNs (need >= 5x)"
    );
}

/// A 64-client single-burst scale-soak arm: every client arrives at
/// once and drives 8 exports at the 1995 server disk model.
fn burst_cfg(policy: rover_core::CommitPolicy) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(11, 64, 8).with_policy(policy);
    cfg.bursts = 1; // one thundering herd, not a staggered arrival ramp
                    // Pin the fast link so the commit path — not a 14.4k modem — is
                    // the bottleneck being compared.
    cfg.link_override = Some(rover_net::LinkSpec::ETHERNET_10M);
    cfg
}

/// Virtual-time commits/s of one converged arm.
fn commits_per_s(policy: rover_core::CommitPolicy) -> f64 {
    run_scale(burst_cfg(policy))
        .expect("scale invariants hold")
        .commits_per_s()
}

fn bench_group_commit(c: &mut Criterion) {
    // Wall-clock cost of simulating one converged 64-client burst —
    // the group engine also runs *fewer* simulator events per commit.
    c.bench_function("commit/group_burst_64c", |b| {
        b.iter(|| black_box(commits_per_s(GROUP_POLICY)));
    });
    c.bench_function("commit/perop_burst_64c", |b| {
        b.iter(|| black_box(commits_per_s(rover_core::CommitPolicy::PerOperation)));
    });

    // Headline ratio in *virtual* time — the release gate: under a
    // 64-client burst on the 1995 server disk, group commit must
    // sustain >= 4x the per-operation-flush commit rate.
    let group = commits_per_s(GROUP_POLICY);
    let per_op = commits_per_s(rover_core::CommitPolicy::PerOperation);
    let speedup = group / per_op;
    println!(
        "commit/speedup_group_vs_perop                {:>10.2}x  (group {:.0} commits/s, per-op {:.0} commits/s)",
        speedup, group, per_op
    );
    assert!(
        speedup >= 4.0,
        "group-commit gate: only {speedup:.2}x per-op flush under a 64-client burst (need >= 4x)"
    );
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_frag,
    bench_rdo,
    bench_hotset,
    bench_group_commit
);
criterion_main!(benches);
