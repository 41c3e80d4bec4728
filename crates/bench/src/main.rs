//! `rover-bench`: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! rover-bench all                 # every experiment, report order
//! rover-bench all --jobs 4        # same report, 4 worker threads
//! rover-bench all --jobs 1        # force serial
//! rover-bench e1-null-qrpc        # one experiment
//! rover-bench list                # available experiment ids
//! ```
//!
//! Experiments are independent virtual-time simulations, so `--jobs N`
//! (default: all cores) runs them concurrently and prints the buffered
//! reports in canonical order — the report bytes are identical to a
//! serial run. `all` also writes `results/BENCH_rover.json` with every
//! experiment's headline virtual-time metrics, byte-identical at any
//! `--jobs` (override the directory with `--json <dir>`, disable with
//! `--json none`).

#![deny(unsafe_code)]
use rover_bench::{exps, harness};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("soak") {
        run_soak(&args[1..]);
        return;
    }
    let mut jobs: Option<usize> = None;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().unwrap_or_else(|| usage("--jobs needs a value"));
                let n = v
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs needs a positive integer"));
                if n == 0 {
                    usage("--jobs needs a positive integer");
                }
                jobs = Some(n);
            }
            "--json" => {
                json_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--json needs a directory")),
                );
            }
            _ if a.starts_with('-') => usage(&format!("unknown flag {a}")),
            _ => ids.push(a),
        }
    }

    let run_all = ids.is_empty() || (ids.len() == 1 && ids[0] == "all");
    if ids.len() == 1 && ids[0] == "list" {
        println!("available experiments:");
        for id in exps::ALL {
            println!("  {id}");
        }
        return;
    }
    let ids: Vec<&str> = if run_all {
        exps::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    for id in &ids {
        if !exps::ALL.contains(id) {
            eprintln!("unknown experiment \"{id}\"; try `rover-bench list`");
            std::process::exit(2);
        }
    }

    let jobs = jobs.unwrap_or_else(harness::default_jobs);
    eprintln!("running {} experiment(s) on {jobs} worker(s)…", ids.len());
    let results = harness::run_parallel(&ids, jobs);

    println!("# Rover reproduction — experiment report");
    println!("# (virtual-time measurements; deterministic per seed)");
    for r in &results {
        print!("{}", r.text);
    }

    // `all` runs record machine-readable results unless disabled.
    let json_dir = match json_dir {
        Some(d) if d == "none" => None,
        Some(d) => Some(d),
        None if run_all => Some("results".to_owned()),
        None => None,
    };
    if let Some(dir) = json_dir {
        match harness::write_results_json(std::path::Path::new(&dir), &results) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {dir}/BENCH_rover.json: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `rover-bench soak [--seed A..B | --seed N] [--smoke]
/// [--server-crashes N] [--group-commit] [--clients N] [--shards N]`:
/// seeded soak; exits non-zero on the first violated invariant.
///
/// Without `--clients` this is the chaos convergence soak:
/// `--server-crashes N` attaches a write-ahead commit log and
/// power-fails the server N times mid-traffic per seed, and
/// `--group-commit` runs the server's group-commit engine (batched WAL
/// flushes, coalesced replies) instead of per-operation flush.
///
/// `--clients N` switches to the scale soak: N clients (zipf-skewed
/// objects, bursty open+closed arrivals, mixed link classes, clean
/// links) run against *both* commit policies and the group arm must
/// sustain the release throughput gate. Defaults to one seed unless
/// `--seed` is given. `--shards N` (N > 1) federates the scale soak
/// across N URN-partitioned home-server shards under group commit, and
/// `--server-crashes K` then power-fails every shard K times
/// mid-traffic (shard-kill chaos). `--replicate-hot K` publishes each
/// shard's K hottest objects to its peers as versioned read replicas
/// every epoch, and `--rebalance-every E` runs the commit-load
/// rebalancer every E milliseconds (both need `--shards > 1`).
fn run_soak(args: &[String]) {
    let mut seeds: Vec<u64> = (1..=10).collect();
    let mut seeds_given = false;
    let mut smoke = false;
    let mut server_crashes = 0usize;
    let mut group_commit = false;
    let mut clients: Option<usize> = None;
    let mut shards = 1usize;
    let mut replicate_hot = 0usize;
    let mut rebalance_every_ms = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let what = "a number or an inclusive range like 1..4";
                seeds = value::<Seeds>(&mut it, a, what).0;
                seeds_given = true;
            }
            "--smoke" => smoke = true,
            "--server-crashes" => server_crashes = value(&mut it, a, "a count"),
            "--group-commit" => group_commit = true,
            "--clients" => {
                let n = value(&mut it, a, "a count");
                if n == 0 {
                    usage("--clients needs a positive count");
                }
                clients = Some(n);
            }
            "--shards" => {
                shards = value(&mut it, a, "a count");
                let max = rover_bench::exps::scale::MAX_SHARDS;
                if shards == 0 || shards > max {
                    usage(&format!("--shards takes 1..={max}"));
                }
            }
            "--replicate-hot" => replicate_hot = value(&mut it, a, "a top-K count"),
            "--rebalance-every" => rebalance_every_ms = value(&mut it, a, "milliseconds"),
            _ => usage(&format!("unknown soak flag {a}")),
        }
    }

    if (replicate_hot > 0 || rebalance_every_ms > 0) && (shards <= 1 || clients.is_none()) {
        usage("--replicate-hot/--rebalance-every need the sharded scale soak (--clients N --shards > 1)");
    }
    if let Some(n) = clients {
        if server_crashes > 0 && shards <= 1 {
            usage(
                "--server-crashes with --clients needs --shards > 1 (shard-kill chaos); \
                 omit --clients for the chaos soak",
            );
        }
        // The unsharded scale soak always measures both commit
        // policies, so --group-commit is implied; the sharded soak
        // runs the group-commit federation.
        let seeds = if seeds_given { seeds } else { vec![1] };
        if shards > 1 {
            eprintln!(
                "scale soak: {} seed(s), {n} clients, {} size, {shards} shards, \
                 {server_crashes} crash(es) per shard, group commit…",
                seeds.len(),
                if smoke { "smoke" } else { "full" },
            );
        } else {
            eprintln!(
                "scale soak: {} seed(s), {n} clients, {} size, both commit policies…",
                seeds.len(),
                if smoke { "smoke" } else { "full" },
            );
        }
        match exps::scale::run_cli(
            seeds,
            n,
            smoke,
            shards,
            server_crashes,
            replicate_hot,
            rebalance_every_ms,
        ) {
            Ok(report) => {
                print!("{}", report.text());
                println!("scale soak: all invariants and the throughput gate held");
            }
            Err(e) => {
                eprintln!("scale soak FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if shards > 1 {
        usage("--shards applies to the scale soak (add --clients N)");
    }

    eprintln!(
        "soak: {} seed(s), {} size, {} server crash(es), {} commit…",
        seeds.len(),
        if smoke { "smoke" } else { "full" },
        server_crashes,
        if group_commit { "group" } else { "per-op" },
    );
    match exps::soak::run_seeds(seeds, smoke, server_crashes, group_commit) {
        Ok((report, outs)) => {
            print!("{}", report.text());
            println!(
                "soak: {} seed(s) converged, all invariants held",
                outs.len()
            );
        }
        Err(e) => {
            eprintln!("soak FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The value after `flag`, parsed as a `T`: a missing value exits with
/// "`flag` needs a value", one that does not parse with "`flag` takes
/// `what`".
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes {what}")))
}

/// A `--seed` value: `N` or the inclusive range `A..B`.
struct Seeds(Vec<u64>);

impl std::str::FromStr for Seeds {
    type Err = ();

    fn from_str(v: &str) -> Result<Seeds, ()> {
        parse_seeds(v).map(Seeds).ok_or(())
    }
}

/// Parses `N` or the inclusive range `A..B`.
fn parse_seeds(v: &str) -> Option<Vec<u64>> {
    if let Some((a, b)) = v.split_once("..") {
        let (a, b): (u64, u64) = (a.parse().ok()?, b.parse().ok()?);
        if a > b {
            return None;
        }
        Some((a..=b).collect())
    } else {
        Some(vec![v.parse().ok()?])
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("rover-bench: {msg}");
    eprintln!(
        "usage: rover-bench [all|list|<experiment-id>…] [--jobs N] [--json <dir>|none]\n       rover-bench soak [--seed A..B|N] [--smoke] [--server-crashes N] [--group-commit]\n       rover-bench soak --clients N [--seed A..B|N] [--smoke] [--shards N [--server-crashes K]\n                       [--replicate-hot K] [--rebalance-every MS]]"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::parse_seeds;

    #[test]
    fn parse_seeds_takes_a_number_or_an_inclusive_range() {
        assert_eq!(parse_seeds("7"), Some(vec![7]));
        assert_eq!(parse_seeds("2..4"), Some(vec![2, 3, 4]));
        assert_eq!(parse_seeds("3..3"), Some(vec![3]));
        assert_eq!(parse_seeds("4..2"), None);
        for junk in ["", "x", "1..", "..4", "1..x", "1...4", "-1"] {
            assert_eq!(parse_seeds(junk), None, "{junk:?}");
        }
    }
}
