//! Self-tests that run the workloads themselves, at smoke size.

use std::path::PathBuf;
use std::time::Instant;

use crate::layers::core::record_counter_tape;
use crate::run::{self, package_dir};
use crate::spec;
use crate::trace::Tracer;
use crate::workloads::rdo::calendar_plan;
use crate::workloads::{self, rt, Env, Size};

fn scratch(tag: &str) -> PathBuf {
    let dir = package_dir()
        .join("scratch")
        .join(format!("test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `name` at smoke size for two slices and returns its exact facts.
fn exact_facts(name: &str, seed: u64) -> Vec<(&'static str, u64)> {
    let dir = scratch(&format!("{name}-{seed}"));
    let env = Env {
        seed,
        size: Size::Smoke,
        scratch: &dir,
    };
    let mut t = Tracer::new(false);
    let mut w = workloads::setup(name, &env, &mut t).unwrap();
    for _ in 0..2 {
        assert_eq!(w.slice(&mut t).unwrap().failed, 0);
    }
    let facts = w.finish(&mut t).unwrap();
    assert_eq!(facts.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
    facts.exact
}

#[test]
fn the_same_seed_generates_the_same_inputs_and_another_seed_others() {
    assert_eq!(calendar_plan(7), calendar_plan(7));
    assert_ne!(calendar_plan(7), calendar_plan(8));
    // The mailbox a seed generates, by its total payload bytes.
    assert_eq!(exact_facts("sim-hoard", 7), exact_facts("sim-hoard", 7));
    assert_ne!(exact_facts("sim-hoard", 7), exact_facts("sim-hoard", 8));
    // The envelopes the cores put on the wire for counter exports.
    let (a, _) = record_counter_tape(rt::COMMIT).unwrap();
    let (b, _) = record_counter_tape(rt::COMMIT).unwrap();
    assert!(!a.to_server.is_empty() && !a.to_client.is_empty());
    assert_eq!(a.to_server, b.to_server);
    assert_eq!(a.to_client, b.to_client);
}

#[test]
fn digests_repeat_for_a_seed_and_move_with_it() {
    for name in ["sim-scale", "rdo-local"] {
        let first = exact_facts(name, 11);
        assert!(first.iter().any(|(k, _)| *k == "digest"));
        assert_eq!(first, exact_facts(name, 11), "{name}");
        assert_ne!(first, exact_facts(name, 12), "{name}");
    }
}

fn smoke_args(workload: &str, trace: bool) -> run::Args {
    run::Args {
        workload: workload.into(),
        seed: 5,
        seconds: 0.5,
        trace,
        smoke: true,
        out: None,
        trace_out: None,
        scratch: None,
    }
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size_within_five_seconds() {
    for w in spec::WORKLOADS {
        let t0 = Instant::now();
        assert_eq!(run::run(&smoke_args(w.name, false)), 0, "{}", w.name);
        // The limit is for the optimized binary `smoke.sh` runs.
        if !cfg!(debug_assertions) {
            assert!(t0.elapsed().as_secs_f64() < 5.0, "{} took too long", w.name);
        }
    }
}

#[test]
fn a_traced_run_emits_exactly_the_promised_per_layer_metrics() {
    // `run` exits 2 when the names it emits and `spec::PER_LAYER` differ.
    let dir = scratch("traced");
    let mut args = smoke_args("sim-hoard", true);
    args.trace_out = Some(dir.join("spans.jsonl"));
    args.out = Some(dir.join("record.json"));
    assert_eq!(run::run(&args), 0);
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
    let spans = crate::trace::parse_json_lines(&spans).unwrap();
    for layer in ["apps.", "wire.", "net.", "core.", "cluster."] {
        assert!(spans.iter().any(|s| s.name.starts_with(layer)), "{layer}");
    }
    let record = std::fs::read_to_string(dir.join("record.json")).unwrap();
    let record = crate::json::Json::parse(&record).unwrap();
    let per_layer = record.get("per_layer").and_then(|p| p.as_obj()).unwrap();
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_workload_is_refused() {
    assert_eq!(run::run(&smoke_args("no-such-workload", false)), 2);
}
