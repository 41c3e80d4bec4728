//! Determinism regression tests for the parallel harness and the
//! simulator itself.
//!
//! The parallel harness buffers per-experiment reports and prints them
//! in canonical order, so `--jobs N` must be byte-identical to a
//! serial run. The simulator is seeded virtual time, so two runs of
//! the same workload must produce identical traces and counters.

use rover_bench::exps;
use rover_bench::harness;
use rover_bench::testbed::Rig;
use rover_core::{Client, Priority};
use rover_net::LinkSpec;

/// Concatenates a result set into the exact bytes `rover-bench` would
/// print for it.
fn render(results: &[harness::ExpResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.text);
    }
    out
}

/// `--jobs 4` must produce byte-identical report text and identical
/// headline metrics to `--jobs 1`, across the full experiment suite,
/// and so a byte-identical `BENCH_rover.json`.
#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let serial = harness::run_parallel(exps::ALL, 1);
    let parallel = harness::run_parallel(exps::ALL, 4);

    assert_eq!(
        render(&serial),
        render(&parallel),
        "report bytes differ between jobs=1 and jobs=4"
    );
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id, "canonical order broken");
        assert_eq!(s.metrics, p.metrics, "metrics differ for {}", s.id);
    }
}

/// Two independent runs of the same simulated workload must agree on
/// virtual time, event counts, stats counters, and the full trace — a
/// canary for nondeterminism creeping into the event loop.
#[test]
fn sim_double_run_digest_matches() {
    fn digest() -> String {
        let mut rig = Rig::new(LinkSpec::WAVELAN_2M);
        rig.sim.trace.set_enabled(true);
        let urn = rig.put_blob("bench/digest", 64 * 1024);
        let p = Client::import(
            &rig.client,
            &mut rig.sim,
            &urn,
            rig.session,
            Priority::FOREGROUND,
        )
        .expect("session");
        rig.await_promise(&p);
        rig.sim.run();

        let mut out = String::new();
        out.push_str(&format!("now={:?}\n", rig.sim.now()));
        out.push_str(&format!("counters={:?}\n", rig.sim.loop_counters()));
        let mut stat_lines: Vec<String> = rig
            .sim
            .stats
            .counters()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect();
        stat_lines.sort();
        out.extend(stat_lines);
        out.push_str(&rig.sim.trace.dump());
        out
    }

    assert_eq!(digest(), digest(), "sim run is not reproducible");
}
