//! `compare`, `check` and `history`: reading run records back.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::Json;
use crate::measure::{median, quartiles};
use crate::spec::{self, Better};
use crate::trace::{parse_json_lines, self_time_table};

/// Per-layer metrics that are counts, not timings: they must repeat
/// exactly for one (workload, seed).
pub const EXACT_LAYER: &[&str] = &[
    "wire.bytes_per_op",
    "log.device_bytes_per_payload_byte",
    "core.batch_mean",
    "core.wal_bytes_per_commit",
    "core.reply_coalesced",
];

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run records from a directory of them, one record, or a history file.
pub fn load_records(path: &Path) -> Result<Vec<Json>, String> {
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        return files.iter().map(|p| read_json(p)).collect();
    }
    let j = read_json(path)?;
    match j.get("runs").and_then(Json::as_arr) {
        Some(runs) => Ok(runs.to_vec()),
        None => Ok(vec![j]),
    }
}

fn text<'a>(r: &'a Json, key: &str) -> &'a str {
    r.get(key).and_then(Json::as_str).unwrap_or("")
}

fn number(r: &Json, key: &str) -> f64 {
    r.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn is_traced(r: &Json) -> bool {
    r.get("trace") == Some(&Json::Bool(true))
}

fn metric_value(r: &Json, group: &str, name: &str) -> Option<f64> {
    r.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Values of one end-to-end metric on one workload, untraced runs only.
fn values(records: &[Json], workload: &str, name: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| text(r, "workload") == workload && !is_traced(r))
        .filter_map(|r| metric_value(r, "end_to_end", name))
        .collect()
}

fn failed_share(records: &[Json], workload: &str) -> f64 {
    let of = |key| -> f64 {
        records
            .iter()
            .filter(|r| text(r, "workload") == workload)
            .map(|r| number(r, key))
            .sum()
    };
    of("ops_failed") / of("ops_attempted").max(1.0)
}

/// Spread of a sample as the regression gate takes it: the distance
/// between its quartiles as a share of its median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// Judges one (metric, workload) pairing: `a` is the parent, `b` the
/// change.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let noise = spread(a).max(spread(b));
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| match better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        })
    });
    let verdict = if worse > bound {
        Verdict::Regression
    } else if noise > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse, noise)
}

/// Bounds by metric name, from `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<String, (Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = text(m, "name").to_owned();
            let better = match text(m, "better") {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            Ok((name, (better, number(m, "bound"))))
        })
        .collect()
}

/// Exact facts of a record set, keyed by (workload, seed, size, name).
fn exact_facts(records: &[Json]) -> BTreeMap<(String, u64, bool, String), String> {
    let mut out = BTreeMap::new();
    for r in records {
        let key = |name: &str| {
            (
                text(r, "workload").to_owned(),
                number(r, "seed") as u64,
                r.get("smoke") == Some(&Json::Bool(true)),
                name.to_owned(),
            )
        };
        for (name, v) in r.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            out.insert(key(name), v.as_str().unwrap_or("").to_owned());
        }
        for name in EXACT_LAYER {
            if let Some(v) = metric_value(r, "per_layer", name) {
                out.insert(key(name), v.to_string());
            }
        }
    }
    out
}

/// Prints one row per pairing; `Ok(true)` when nothing regressed.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let (ra, rb) = (load_records(a)?, load_records(b)?);
    let bounds = bounds(&read_json(benchmark)?)?;
    let mut clean = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (va, vb) = (values(&ra, w.name, m.name), values(&rb, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{:<12} {:<16} (no runs on one side)", w.name, m.name);
                continue;
            }
            let (better, bound) = *bounds
                .get(m.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let (verdict, worse, noise) = judge(&va, &vb, better, bound);
            clean &= verdict != Verdict::Regression;
            println!(
                "{:<12} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                noise * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        let (fa, fb) = (failed_share(&ra, w.name), failed_share(&rb, w.name));
        if fb > fa {
            clean = false;
            println!(
                "{:<12} ops_failed/ops_attempted rose from {fa} to {fb}  REGRESSION",
                w.name
            );
        }
    }
    let (ea, eb) = (exact_facts(&ra), exact_facts(&rb));
    let mut same = 0;
    for (key, va) in &ea {
        match eb.get(key) {
            Some(vb) if vb != va => {
                clean = false;
                println!(
                    "{:<12} seed {} exact {} differs: {va} then {vb}  REGRESSION",
                    key.0, key.1, key.3
                );
            }
            Some(_) => same += 1,
            None => {}
        }
    }
    println!("{same} exact counts repeat across the two sets");
    Ok(clean)
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every disagreement between `BENCHMARK.json` and what the benchmark
/// emits; empty when they agree.
pub fn check(benchmark: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    let mut section = |key: &str, ours: Vec<(String, String)>| {
        let theirs: Vec<(String, String)> = benchmark
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let rest = match key {
                    "workloads" => String::new(),
                    "end_to_end" => format!(
                        "{} {} {}",
                        text(m, "unit"),
                        text(m, "better"),
                        number(m, "bound")
                    ),
                    _ => format!("{} {}", text(m, "unit"), text(m, "better")),
                };
                (text(m, "name").to_owned(), rest)
            })
            .collect();
        for (name, _) in &theirs {
            if !valid_name(name) {
                problems.push(format!("{key}: {name:?} breaks the name rule"));
            }
            if !seen.insert(name.clone()) {
                problems.push(format!("{key}: {name:?} is used twice"));
            }
        }
        for (name, rest) in &ours {
            match theirs.iter().find(|(n, _)| n == name) {
                None => problems.push(format!(
                    "{key}: {name} is emitted but not in BENCHMARK.json"
                )),
                Some((_, t)) if t != rest => {
                    problems.push(format!(
                        "{key}: {name} is {t:?} in BENCHMARK.json, {rest:?} here"
                    ));
                }
                Some(_) => {}
            }
        }
        for (name, _) in &theirs {
            if !ours.iter().any(|(n, _)| n == name) {
                problems.push(format!(
                    "{key}: {name} is in BENCHMARK.json but never emitted"
                ));
            }
        }
    };
    section(
        "workloads",
        spec::WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), String::new()))
            .collect(),
    );
    section(
        "end_to_end",
        spec::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    format!("{} {} {}", m.unit, m.better.as_str(), m.bound),
                )
            })
            .collect(),
    );
    section(
        "per_layer",
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    format!("{} {}", m.unit, m.better.as_str()),
                )
            })
            .collect(),
    );
    problems
}

pub fn check_file(benchmark: &Path) -> Result<Vec<String>, String> {
    Ok(check(&read_json(benchmark)?))
}

fn summary_of(v: &[f64]) -> Json {
    let (q1, q3) = quartiles(v);
    Json::obj([
        ("median", Json::Num(median(v))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("spread", Json::Num(spread(v))),
        ("n", Json::Num(v.len() as f64)),
    ])
}

/// One trajectory point: the records of a commit, their medians and
/// quartiles per (workload, metric), and the traced runs' self time.
pub fn history(
    records: &Path,
    traces: Option<&Path>,
    pr: &str,
    commit: &str,
) -> Result<Json, String> {
    let runs = load_records(records)?;
    let machine = runs
        .first()
        .and_then(|r| r.get("machine"))
        .cloned()
        .unwrap_or(Json::Null);
    let mut summary = Vec::new();
    for w in spec::WORKLOADS {
        let mut rows: Vec<(String, Json)> = Vec::new();
        for m in spec::END_TO_END {
            let v = values(&runs, w.name, m.name);
            if !v.is_empty() {
                rows.push((m.name.to_owned(), summary_of(&v)));
            }
        }
        for m in spec::PER_LAYER {
            let v: Vec<f64> = runs
                .iter()
                .filter(|r| text(r, "workload") == w.name && is_traced(r))
                .filter_map(|r| metric_value(r, "per_layer", m.name))
                .collect();
            if !v.is_empty() {
                rows.push((m.name.to_owned(), summary_of(&v)));
            }
        }
        summary.push((w.name.to_owned(), Json::Obj(rows)));
    }
    let mut self_time = Vec::new();
    if let Some(dir) = traces {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let (layers, _) = self_time_table(&parse_json_lines(&text)?);
            let rows = layers.into_iter().map(|r| {
                (
                    r.name,
                    Json::obj([
                        ("spans", Json::Num(r.count as f64)),
                        ("self_ms", Json::Num(r.self_ns as f64 / 1e6)),
                    ]),
                )
            });
            let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned());
            self_time.push((stem.unwrap_or_default(), Json::obj(rows)));
        }
    }
    Ok(Json::obj([
        ("pr", Json::Str(pr.into())),
        ("commit", Json::Str(commit.into())),
        ("machine", machine),
        ("summary", Json::Obj(summary)),
        ("trace_self_time_by_layer", Json::Obj(self_time)),
        ("runs", Json::Arr(runs)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ops_per_s: f64) -> Json {
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(1.0)),
            ("trace", Json::Bool(false)),
            ("ops_attempted", Json::Num(100.0)),
            ("ops_failed", Json::Num(0.0)),
            (
                "end_to_end",
                Json::obj([(
                    "ops_per_s",
                    Json::obj([
                        ("value", Json::Num(ops_per_s)),
                        ("unit", Json::Str("1/s".into())),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn identical_inputs_pass_and_a_fifth_slower_is_flagged() {
        let a: Vec<f64> = vec![1000.0, 1004.0, 998.0, 1002.0, 1001.0];
        let (v, worse, _) = judge(&a, &a, Better::Higher, 0.10);
        assert_eq!((v, worse), (Verdict::Ok, 0.0));
        let slow: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&a, &slow, Better::Higher, 0.10).0,
            Verdict::Regression
        );
        // For a metric where lower is better, 20 % more is the slowdown.
        let more: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &more, Better::Lower, 0.10).0, Verdict::Regression);
        assert_eq!(judge(&a, &more, Better::Higher, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1000.0, 800.0, 1200.0, 700.0, 1300.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Higher, 0.10).0,
            Verdict::Unresolved
        );
        let faster: Vec<f64> = noisy.iter().map(|x| x + 1000.0).collect();
        assert_eq!(judge(&noisy, &faster, Better::Higher, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn compare_reads_record_sets_from_disk() {
        let dir = std::env::temp_dir().join(format!("rover-perf-cmp-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for (d, scale) in [(&a, 1.0), (&b, 0.8)] {
            std::fs::create_dir_all(d).unwrap();
            for i in 0..5 {
                let r = record("rt-commit", (3800.0 + i as f64) * scale);
                std::fs::write(d.join(format!("{i}.json")), r.pretty()).unwrap();
            }
        }
        let bench = dir.join("BENCHMARK.json");
        let bounds = Json::obj([(
            "end_to_end",
            Json::Arr(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(0.10)),
                        ])
                    })
                    .collect(),
            ),
        )]);
        std::fs::write(&bench, bounds.to_string()).unwrap();
        assert_eq!(compare(&a, &a, &bench), Ok(true));
        assert_eq!(compare(&a, &b, &bench), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_repository_benchmark_file_matches_what_is_emitted() {
        let path = crate::run::package_dir().join("../BENCHMARK.json");
        assert_eq!(check_file(&path), Ok(Vec::new()));
    }

    #[test]
    fn check_names_what_disagrees() {
        let bad = Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([("name", Json::Str("bad name".into()))])]),
        )]);
        let problems = check(&bad);
        assert!(problems.iter().any(|p| p.contains("breaks the name rule")));
        assert!(problems
            .iter()
            .any(|p| p.contains("rt-commit is emitted but not")));
        assert!(problems.iter().any(|p| p.contains("never emitted")));
    }
}
