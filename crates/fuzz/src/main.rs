//! `rover-fuzz`: the deterministic fuzz plane CLI.
//!
//! Usage:
//!
//! ```text
//! rover-fuzz                          # all codecs, 8 seeds × 12500 iters each
//! rover-fuzz --codec wire             # one codec plane
//! rover-fuzz --seeds 16 --iters 25000 # scale the sweep
//! rover-fuzz --smoke                  # CI-sized run (2 seeds × 2000 iters)
//! rover-fuzz --repro wire:3:17        # replay one case, print its bytes
//! rover-fuzz --golden                 # script sweeps vs the checked-in digests
//! ```
//!
//! Exit status is non-zero if any case panicked. Reports are
//! byte-reproducible per seed: rerunning prints identical digests.

#![deny(unsafe_code)]

use rover_fuzz::{golden_sweeps, run_case, run_codec, silence_panics, CaseOutcome, Codec};

const DEFAULT_SEEDS: u64 = 8;
const DEFAULT_ITERS: u64 = 12_500;

fn usage() -> ! {
    eprintln!(
        "usage: rover-fuzz [--codec wire|log|script|all] [--seeds N] [--iters N] \
         [--smoke] [--repro CODEC:SEED:ITER] [--golden]"
    );
    std::process::exit(2);
}

fn parse_u64(s: Option<String>) -> u64 {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn repro(spec: &str) -> ! {
    let mut parts = spec.split(':');
    let (Some(codec), Some(seed), Some(iter), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        usage()
    };
    let Some(codec) = Codec::parse(codec) else {
        usage()
    };
    let (Ok(seed), Ok(iter)) = (seed.parse::<u64>(), iter.parse::<u64>()) else {
        usage()
    };
    let case = run_case(codec, seed, iter);
    println!(
        "case {}:{seed}:{iter} ({} bytes{})",
        codec.name(),
        case.input.len(),
        case.target
            .map(|t| format!(", target {}", t.name()))
            .unwrap_or_default(),
    );
    for chunk in case.input.chunks(32) {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        println!("  {}", hex.join(" "));
    }
    if codec == Codec::Script {
        println!("source: {:?}", String::from_utf8_lossy(&case.input));
        println!("{}", case.detail);
    }
    match case.outcome {
        CaseOutcome::Accepted => println!("outcome: accepted (round-tripped)"),
        CaseOutcome::Rejected => println!("outcome: rejected (typed error)"),
        CaseOutcome::Panicked(msg) => {
            println!("outcome: PANIC: {msg}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// Re-runs every sweep the golden file records and compares digests:
/// the evaluator-equivalence oracle. A mismatch names the seed; replay
/// iterations of it with `--repro script:SEED:ITER` on both builds.
fn golden() -> ! {
    let _quiet = silence_panics();
    let mut bad = 0u32;
    for (seed, iters, want) in golden_sweeps() {
        let r = run_codec(Codec::Script, seed, iters);
        let verdict = if r.digest == want && r.panics == 0 {
            "ok"
        } else {
            bad += 1;
            "MISMATCH"
        };
        println!(
            "script   {seed:>6} {iters:>9} {:>7}  {:016x}  {verdict}",
            r.panics, r.digest
        );
    }
    if bad > 0 {
        eprintln!("FAIL: {bad} sweep(s) differ from crates/fuzz/golden/script_outcomes.txt");
        std::process::exit(1);
    }
    println!("ok: every script sweep reproduces its golden outcome digest");
    std::process::exit(0);
}

fn main() {
    let mut codecs = vec![Codec::Wire, Codec::Log, Codec::Script];
    let mut seeds = DEFAULT_SEEDS;
    let mut iters = DEFAULT_ITERS;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--codec" => match args.next().as_deref() {
                Some("all") => {}
                Some(name) => match Codec::parse(name) {
                    Some(c) => codecs = vec![c],
                    None => usage(),
                },
                None => usage(),
            },
            "--seeds" => seeds = parse_u64(args.next()),
            "--iters" => iters = parse_u64(args.next()),
            "--smoke" => {
                seeds = 2;
                iters = 2_000;
            }
            "--repro" => match args.next() {
                Some(spec) => repro(&spec),
                None => usage(),
            },
            "--golden" => golden(),
            _ => usage(),
        }
    }
    if seeds == 0 || iters == 0 {
        usage();
    }

    let _quiet = silence_panics();
    let mut total_panics = 0u64;
    println!(
        "{:<8} {:>6} {:>9} {:>9} {:>9} {:>7}  digest",
        "codec", "seed", "iters", "accepted", "rejected", "panics"
    );
    for &codec in &codecs {
        for seed in 1..=seeds {
            let r = run_codec(codec, seed, iters);
            println!(
                "{:<8} {:>6} {:>9} {:>9} {:>9} {:>7}  {:016x}",
                r.codec, r.seed, r.iters, r.accepted, r.rejected, r.panics, r.digest
            );
            total_panics += r.panics;
        }
    }
    if total_panics > 0 {
        eprintln!("FAIL: {total_panics} panic(s) — replay with --repro CODEC:SEED:ITER");
        std::process::exit(1);
    }
    println!("ok: zero panics across {} codec plane(s)", codecs.len());
}
