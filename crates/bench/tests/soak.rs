//! Chaos-soak smoke tests: convergence invariants hold and runs are
//! reproducible per seed. (CI runs the bigger sweep via
//! `rover-bench soak --seed 1..4 --smoke`.)

use rover_bench::exps::soak::{run_seed, SoakConfig};

// Digests of the same-seed arms below, recorded at commit f6dc8f8. A
// digest folds every figure of the outcome, so a refactor that keeps
// these kept the run; one that moves them says why in its change.
const SMOKE7: u64 = 0x855f_52be_3ead_3293;
const GROUP5: u64 = 0xe5e0_e639_eaad_b28b;
const CRASH9: u64 = 0xe15f_ae17_9715_97d2;

#[test]
fn smoke_soak_converges_with_invariants() {
    for seed in [1, 2] {
        let o = run_seed(SoakConfig::smoke(seed)).expect("invariants hold");
        // The chaos plane actually did something.
        assert!(o.faults > 0, "no faults injected");
        assert!(o.retransmits > 0, "no retransmissions exercised");
    }
}

#[test]
fn soak_is_reproducible_per_seed() {
    let a = run_seed(SoakConfig::smoke(7)).expect("run a");
    let b = run_seed(SoakConfig::smoke(7)).expect("run b");
    assert_eq!(a, b, "same seed must reproduce byte-identical outcomes");
    assert_eq!(a.digest, SMOKE7, "the smoke-7 digest moved");
    let c = run_seed(SoakConfig::smoke(8)).expect("run c");
    assert_ne!(a.digest, c.digest, "different seeds should differ");
}

#[test]
fn crash_soak_converges_with_durability_invariants() {
    for seed in [1, 2] {
        let o = run_seed(SoakConfig::smoke(seed).with_server_crashes(2))
            .expect("durability invariants hold");
        assert_eq!(o.server_crashes, 2);
        assert!(o.wal_appends >= o.ops, "every commit hit the log");
        assert!(o.recovered_commits > 0, "recovery replayed commits");
        assert!(o.checkpoints >= 1, "attach wrote the initial checkpoint");
    }
}

#[test]
fn group_commit_soak_converges_through_crashes() {
    for seed in [1, 2] {
        let o = run_seed(
            SoakConfig::smoke(seed)
                .with_server_crashes(2)
                .with_group_commit(),
        )
        .expect("group-commit durability invariants hold");
        assert_eq!(o.server_crashes, 2);
        assert!(o.group_commits > 0, "the engine actually batched");
        assert!(o.wal_appends >= o.ops, "every commit hit the log");
        assert!(o.recovered_commits > 0, "recovery replayed batches");
    }
}

#[test]
fn group_commit_soak_is_reproducible_and_distinct() {
    let a = run_seed(SoakConfig::smoke(5).with_group_commit()).expect("run a");
    let b = run_seed(SoakConfig::smoke(5).with_group_commit()).expect("run b");
    assert_eq!(a, b, "same seed must reproduce byte-identical outcomes");
    assert_eq!(a.digest, GROUP5, "the group-5 digest moved");
    let per_op = run_seed(SoakConfig::smoke(5)).expect("per-op run");
    assert_ne!(
        a.digest, per_op.digest,
        "the commit policy must actually perturb the run"
    );
    assert_eq!(per_op.group_commits, 0);
}

#[test]
fn crash_soak_is_reproducible_per_seed() {
    let a = run_seed(SoakConfig::smoke(9).with_server_crashes(2)).expect("run a");
    let b = run_seed(SoakConfig::smoke(9).with_server_crashes(2)).expect("run b");
    assert_eq!(
        a, b,
        "same seed must reproduce byte-identical recovered outcomes"
    );
    assert_eq!(a.digest, CRASH9, "the crash-9 digest moved");
    let plain = run_seed(SoakConfig::smoke(9)).expect("crash-free run");
    assert_ne!(
        a.digest, plain.digest,
        "the durability plane must actually perturb the run"
    );
}
