//! Scale-soak smoke tests: throughput invariants hold, the group
//! engine beats per-operation flush, and runs are reproducible per
//! seed. (CI runs the bigger sweep via `rover-bench soak --clients
//! 1000 --smoke`.)

use rover_bench::exps::scale::{run_pair, run_scale, ScaleConfig, GROUP_POLICY, RATIO_FLOOR};

#[test]
fn scale_soak_converges_with_invariants() {
    let o = run_scale(ScaleConfig::new(3, 200, 2)).expect("per-op invariants hold");
    // The WAL logs every processed request (imports included), so the
    // count floors at one record per export.
    assert!(o.wal_appends >= o.ops, "one WAL record per commit minimum");
    assert_eq!(
        o.group_commits, o.wal_appends,
        "per-op arm flushes groups of one"
    );
    assert_eq!(o.batch_p99_x100, 100);

    let g = run_scale(ScaleConfig::new(3, 200, 2).with_policy(GROUP_POLICY))
        .expect("group invariants hold");
    assert!(g.group_commits > 0, "group arm must flush groups");
    assert!(
        g.batch_mean_x100 > 100,
        "batches should average more than one commit under load"
    );
    assert!(g.wal_appends >= g.ops, "every commit durable");
}

#[test]
fn scale_soak_is_reproducible_per_seed() {
    let cfg = ScaleConfig::new(7, 150, 2).with_policy(GROUP_POLICY);
    let a = run_scale(cfg).expect("run a");
    let b = run_scale(cfg).expect("run b");
    assert_eq!(a, b, "same seed must reproduce byte-identical outcomes");
    // Recorded at commit f6dc8f8: moves only with a stated reason.
    assert_eq!(
        a.digest, 0xbd49_d0b7_a0d4_e0b0,
        "the 7/150/2 group digest moved"
    );
    let c = run_scale(ScaleConfig::new(8, 150, 2).with_policy(GROUP_POLICY)).expect("run c");
    assert_ne!(a.digest, c.digest, "different seeds should differ");
}

#[test]
fn group_commit_beats_per_op_flush_at_scale() {
    let (per_op, group, speedup) = run_pair(1, 1000, 2).expect("both arms converge");
    assert!(
        speedup >= RATIO_FLOOR,
        "group only {speedup:.2}x per-op ({} vs {} commits/s)",
        group.commits_per_s() as u64,
        per_op.commits_per_s() as u64
    );
    assert!(
        group.p99_reply_us < per_op.p99_reply_us,
        "batching must not inflate tail latency past the saturated per-op baseline"
    );
    assert!(group.reply_coalesced > 0, "coalescing never exercised");
}
