//! `rover-perf run`: one workload in a fresh process. Sets up (three
//! times, for a median), runs fixed-size slices for the asked time,
//! checks the program's outputs, and prints every metric by name.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers;
use crate::measure::{fs_type, machine_stamp, median, peak_rss_mb, quartiles};
use crate::spec;
use crate::trace::{render_table, Tracer};
use crate::workloads::{self, Env, Facts, Size, SliceOut};

/// Times set-up is measured in an untraced run.
const SETUPS: usize = 3;
/// Fewest timed slices, however short `--seconds` is.
const MIN_SLICES: usize = 5;
/// `peak_rss_mb` is read once this many timed slices have run: the
/// cores keep per-op samples, so memory grows with the number of slices
/// a faster build fits into the same seconds.
const RSS_AFTER_SLICE: usize = 5;
/// Share of `--seconds` a traced run spends on the workload's slices;
/// the layer passes do fixed work on top.
const TRACED_SHARE: f64 = 0.4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the run record goes (none: not written).
    pub out: Option<PathBuf>,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Parent of the WAL scratch directory.
    pub scratch: Option<PathBuf>,
}

/// The directory `perf/` was built from: default home of scratch files
/// and span files, so the benchmark writes inside its checkout whatever
/// the working directory is.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// What a failed run still reports.
struct Failure {
    why: String,
    attempted: u64,
    failed: u64,
}

impl Failure {
    fn early(why: String) -> Failure {
        Failure {
            why,
            attempted: 1,
            failed: 1,
        }
    }
}

struct Measured {
    attempted: u64,
    setup_s: Vec<f64>,
    /// Timed slices run with tracing off, and on (traced runs only).
    plain: Vec<SliceOut>,
    traced: Vec<SliceOut>,
    rss_mb: f64,
    facts: Facts,
}

fn rates(slices: &[SliceOut]) -> Vec<f64> {
    slices
        .iter()
        .map(|s| s.ops as f64 / s.wall.as_secs_f64())
        .collect()
}

/// Sets up `name` and runs its warm-up slice, which is discarded.
fn warmed_up(
    name: &str,
    env: &Env<'_>,
    t: &mut Tracer,
) -> Result<Box<dyn workloads::Workload>, String> {
    let mut w = workloads::setup(name, env, t)?;
    let warm = w.slice(t)?;
    if warm.failed > 0 {
        return Err(format!("{} ops failed in the warm-up slice", warm.failed));
    }
    Ok(w)
}

fn measure(args: &Args, env: &Env<'_>, on: &mut Tracer) -> Result<Measured, Failure> {
    let name = args.workload.as_str();
    let mut off = Tracer::new(false);
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let w = warmed_up(name, env, &mut off).map_err(Failure::early)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < setups {
            // Torn down with its checks on, like the one that is kept.
            let facts = w.finish(&mut off).map_err(Failure::early)?;
            if facts.failed > 0 {
                return Err(Failure::early(format!(
                    "{} ops were lost in a set-up pass",
                    facts.failed
                )));
            }
        } else {
            workload = Some(w);
        }
    }
    let mut w = workload.expect("the last set-up is kept");

    let share = if args.trace { TRACED_SHARE } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * share);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    // Ops attempted and failed in the timed slices so far.
    let totals = |plain: &[SliceOut], traced: &[SliceOut]| {
        let all = || plain.iter().chain(traced);
        (
            all().map(|s| s.ops + s.failed).sum::<u64>(),
            all().map(|s| s.failed).sum::<u64>(),
        )
    };
    let fail = |why: String, (attempted, failed): (u64, u64)| Failure {
        why,
        attempted,
        failed: failed.max(1),
    };
    let t0 = Instant::now();
    loop {
        let n = plain.len() + traced.len();
        if n >= MIN_SLICES && t0.elapsed() >= budget {
            break;
        }
        // A traced run alternates, so both kinds see the same machine.
        let slice = if args.trace && n % 2 == 1 {
            w.slice(on).map(|s| traced.push(s))
        } else {
            w.slice(&mut off).map(|s| plain.push(s))
        };
        if let Err(why) = slice {
            return Err(fail(why, totals(&plain, &traced)));
        }
        if n + 1 == RSS_AFTER_SLICE {
            rss_mb = peak_rss_mb();
        }
    }
    let (attempted, mut failed) = totals(&plain, &traced);
    let facts = w.finish(on).map_err(|why| fail(why, (attempted, failed)))?;
    failed += facts.failed;
    if failed > 0 {
        let why = format!("{failed} of {attempted} ops failed");
        return Err(fail(why, (attempted, failed)));
    }
    Ok(Measured {
        attempted,
        setup_s,
        plain,
        traced,
        rss_mb,
        facts,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The one JSON object a run ends its standard output with.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// Runs the workload and returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let Some(spec) = spec::workload(&args.workload) else {
        eprintln!(
            "rover-perf: unknown workload {:?} (see `rover-perf list`)",
            args.workload
        );
        return 2;
    };
    let parent = args
        .scratch
        .clone()
        .unwrap_or_else(|| package_dir().join("scratch"));
    // Unique per run, not only per process: the self-tests run several
    // at once.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let scratch = parent.join(format!(
        "run-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("rover-perf: cannot create {}: {e}", scratch.display());
        return 2;
    }
    let fs = fs_type(&scratch);
    if fs == "tmpfs" || fs == "ramfs" {
        let _ = std::fs::remove_dir(&scratch);
        eprintln!(
            "rover-perf: scratch directory {} is on {fs}, where fsync costs nothing; \
             pass --scratch <dir on a disk-backed filesystem>",
            scratch.display()
        );
        return 2;
    }
    let env = Env {
        seed: args.seed,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        scratch: &scratch,
    };

    let mut tracer = Tracer::new(args.trace);
    let outcome = measure(args, &env, &mut tracer).and_then(|m| {
        let layers = args
            .trace
            .then(|| layers::run_all(&args.workload, &env, &mut tracer))
            .transpose()
            .map_err(|why| Failure::early(format!("layer pass: {why}")))?;
        Ok((m, layers))
    });
    let (m, layers) = match outcome {
        Ok(ok) => ok,
        Err(f) => {
            eprintln!("rover-perf: {}: {}", args.workload, f.why);
            println!(
                "{}",
                result_line(false, f.attempted, f.failed, Json::obj::<String>([]))
            );
            return 1;
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&parent); // Only if nothing else is in it.

    // End-to-end numbers come from the slices that ran with tracing off.
    let plain_rates = rates(&m.plain);
    let ops: u64 = m.plain.iter().map(|s| s.ops).sum();
    let cpu: f64 = m.plain.iter().map(|s| s.cpu_s).sum();
    let (q1, q3) = quartiles(&plain_rates);
    let end_to_end: Vec<(&str, f64)> = vec![
        ("ops_per_s", median(&plain_rates)),
        ("setup_s", median(&m.setup_s)),
    ];
    // Process-wide costs: too noisy on this sandbox to gate on, so they
    // travel with the per-layer metrics; every run prints and records them.
    let process: Vec<(&str, f64)> = vec![
        ("cpu_s_per_kop", cpu / (ops.max(1) as f64 / 1000.0)),
        ("peak_rss_mb", m.rss_mb),
    ];

    let mut per_layer: Vec<(&str, f64, usize)> = Vec::new();
    if let Some(out) = layers {
        per_layer = out.metrics;
        let overhead = 1.0 - median(&rates(&m.traced)) / median(&plain_rates);
        per_layer.extend(process.iter().map(|(n, v)| (*n, *v, m.plain.len())));
        per_layer.push(("trace.overhead_frac", overhead, m.traced.len()));
        // `BENCHMARK.json` promises exactly the names in `spec`.
        let emitted: Vec<&str> = per_layer.iter().map(|(n, _, _)| *n).collect();
        let promised: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        if emitted != promised {
            eprintln!("rover-perf: per-layer metrics emitted {emitted:?}, promised {promised:?}");
            return 2;
        }
    }

    println!(
        "workload {} seed {} ({}; one op = one {})",
        args.workload,
        args.seed,
        if args.smoke {
            "smoke size"
        } else {
            "full size"
        },
        spec.op
    );
    println!(
        "slices {} untraced, {} traced; ops/s quartiles {q1:.1} .. {q3:.1}; ops attempted {}, failed 0",
        m.attempted,
        m.plain.len(),
        m.traced.len()
    );
    for (name, value) in &end_to_end {
        let unit = spec::unit_of(name).unwrap_or("");
        println!("{name:<36} {value:>16.4} {unit}");
    }
    if !args.trace {
        for (name, value) in &process {
            let unit = spec::unit_of(name).unwrap_or("");
            println!("{name:<36} {value:>16.4} {unit:<6} (not gated)");
        }
    }
    for (name, value, samples) in &per_layer {
        let unit = spec::unit_of(name).unwrap_or("");
        println!("{name:<36} {value:>16.4} {unit:<6} (n={samples})");
    }
    for (name, value) in &m.facts.exact {
        println!("exact {name:<30} {value:>16}");
    }

    if args.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            package_dir()
                .join("out")
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => println!("spans {} -> {}", tracer.spans().len(), path.display()),
            Err(e) => {
                eprintln!("rover-perf: cannot write {}: {e}", path.display());
                return 2;
            }
        }
        print!("{}", render_table(tracer.spans()));
    }

    let to_json = |pairs: &[(&str, f64)]| {
        Json::obj(
            pairs
                .iter()
                .map(|(n, v)| (*n, metric(*v, spec::unit_of(n).unwrap_or("")))),
        )
    };
    let layer_pairs: Vec<(&str, f64)> = per_layer.iter().map(|(n, v, _)| (*n, *v)).collect();
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("machine", machine_stamp(&fs)),
            ("ops_attempted", Json::Num(m.attempted as f64)),
            ("ops_failed", Json::Num(0.0)),
            ("slice_ops_per_s", Json::nums(&plain_rates)),
            (
                "slice_quartiles",
                Json::nums(&[q1, median(&plain_rates), q3]),
            ),
            ("setup_s", Json::nums(&m.setup_s)),
            ("end_to_end", to_json(&end_to_end)),
            ("process", to_json(&process)),
            ("per_layer", to_json(&layer_pairs)),
            (
                "samples",
                Json::obj(per_layer.iter().map(|(n, _, s)| (*n, Json::Num(*s as f64)))),
            ),
            (
                // Hex: a u64 does not fit a JSON number.
                "exact",
                Json::obj(
                    m.facts
                        .exact
                        .iter()
                        .map(|(n, v)| (*n, Json::Str(format!("{v:016x}")))),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, record.pretty()) {
            eprintln!("rover-perf: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    let metrics = if args.trace {
        to_json(&layer_pairs)
    } else {
        to_json(&end_to_end)
    };
    println!("{}", result_line(true, m.attempted, 0, metrics));
    0
}
