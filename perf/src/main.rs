//! `rover-perf`: the repository's wall-clock benchmark.
//!
//! ```text
//! rover-perf list
//! rover-perf run --workload <W> --seed <N> [--seconds <S>] [--trace <0|1>]
//!                [--smoke] [--out <record.json>] [--trace-out <spans.jsonl>]
//!                [--scratch <dir>]
//! rover-perf report <spans.jsonl>
//! rover-perf compare <A> <B> [--benchmark <BENCHMARK.json>]
//! rover-perf check [--benchmark <BENCHMARK.json>]
//! rover-perf history <records> --pr <NNNN> --commit <C> [--traces <dir>] --out <file>
//! ```
//!
//! See `perf/README.md` for what the workloads and metrics mean.

#![deny(unsafe_code)]

mod compare;
mod json;
mod layers;
mod measure;
mod run;
mod spec;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage: rover-perf <list | run | report | compare | check | history> [options]
  run      --workload <W> --seed <N> [--seconds <S>] [--trace <0|1>] [--smoke]
           [--out <record.json>] [--trace-out <spans.jsonl>] [--scratch <dir>]
  report   <spans.jsonl>
  compare  <A> <B> [--benchmark <BENCHMARK.json>]
  check    [--benchmark <BENCHMARK.json>]
  history  <records> --pr <NNNN> --commit <C> [--traces <dir>] --out <file>";

/// Seconds `run` measures for when `--seconds` is absent: what
/// `BENCHMARK.json` asks of the regression gate's runs.
const DEFAULT_SECONDS: f64 = 18.0;

/// Options of one subcommand: `--flag value` pairs, bare flags, and
/// positional arguments.
struct Opts {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], bare: &[&str]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if bare.contains(&name) => flags.push((name.to_owned(), "1".into())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_owned(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Opts { flags, positional })
    }

    fn take(&mut self, name: &str) -> Option<String> {
        let i = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(i).1)
    }

    fn path(&mut self, name: &str) -> Option<PathBuf> {
        self.take(name).map(PathBuf::from)
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: {v:?} is not a number"))
            })
            .transpose()
    }

    /// Fails on anything the subcommand did not ask for.
    fn done(self, positional: usize) -> Result<Vec<String>, String> {
        if let Some((name, _)) = self.flags.first() {
            return Err(format!("unknown option --{name}"));
        }
        if self.positional.len() != positional {
            return Err(format!(
                "expected {positional} positional argument(s), got {}",
                self.positional.len()
            ));
        }
        Ok(self.positional)
    }
}

fn benchmark_path(opts: &mut Opts) -> PathBuf {
    opts.path("benchmark")
        .unwrap_or_else(|| run::package_dir().join("../BENCHMARK.json"))
}

fn list() {
    println!("workloads (one op):");
    for w in spec::WORKLOADS {
        println!("  {:<10} {:<32} {}", w.name, w.op, w.why);
    }
    println!("end-to-end metrics (emitted by every workload with --trace 0):");
    for m in spec::END_TO_END {
        println!(
            "  {:<16} {:<5} {:<7} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (emitted by every workload with --trace 1):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<36} {:<6} {:<7} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn dispatch(cmd: &str, rest: &[String]) -> Result<i32, String> {
    match cmd {
        "list" => {
            Opts::parse(rest, &[])?.done(0)?;
            list();
            Ok(0)
        }
        "run" => {
            let mut o = Opts::parse(rest, &["smoke"])?;
            let args = run::Args {
                workload: o.take("workload").ok_or("run needs --workload")?,
                seed: o.number("seed")?.ok_or("run needs --seed")?,
                seconds: o.number("seconds")?.unwrap_or(DEFAULT_SECONDS),
                trace: match o.take("trace").as_deref() {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                },
                smoke: o.take("smoke").is_some(),
                out: o.path("out"),
                trace_out: o.path("trace-out"),
                scratch: o.path("scratch"),
            };
            o.done(0)?;
            if !(args.seconds >= 0.0 && args.seconds <= 120.0) {
                return Err("--seconds must be between 0 and 120".into());
            }
            Ok(run::run(&args))
        }
        "report" => {
            let files = Opts::parse(rest, &[])?.done(1)?;
            let text =
                std::fs::read_to_string(&files[0]).map_err(|e| format!("{}: {e}", files[0]))?;
            print!("{}", trace::render_table(&trace::parse_json_lines(&text)?));
            Ok(0)
        }
        "compare" => {
            let mut o = Opts::parse(rest, &[])?;
            let benchmark = benchmark_path(&mut o);
            let sets = o.done(2)?;
            let clean = compare::compare(sets[0].as_ref(), sets[1].as_ref(), &benchmark)?;
            Ok(i32::from(!clean))
        }
        "check" => {
            let mut o = Opts::parse(rest, &[])?;
            let benchmark = benchmark_path(&mut o);
            o.done(0)?;
            let problems = compare::check_file(&benchmark)?;
            for p in &problems {
                println!("{p}");
            }
            if problems.is_empty() {
                println!(
                    "{} agrees with rover-perf: {} workloads, {} end-to-end and {} per-layer metrics",
                    benchmark.display(),
                    spec::WORKLOADS.len(),
                    spec::END_TO_END.len(),
                    spec::PER_LAYER.len()
                );
            }
            Ok(i32::from(!problems.is_empty()))
        }
        "history" => {
            let mut o = Opts::parse(rest, &[])?;
            let pr = o.take("pr").ok_or("history needs --pr")?;
            let commit = o.take("commit").ok_or("history needs --commit")?;
            let traces = o.path("traces");
            let out = o.path("out").ok_or("history needs --out")?;
            let records = o.done(1)?;
            let point = compare::history(records[0].as_ref(), traces.as_deref(), &pr, &commit)?;
            std::fs::write(&out, point.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match dispatch(cmd, rest) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("rover-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
