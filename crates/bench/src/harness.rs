//! Parallel experiment execution.
//!
//! Every experiment is an isolated virtual-time simulation, so the only
//! shared state between two experiments is the stdout they used to
//! print to. With output buffered in [`Report`]s, the harness can run
//! experiments on a pool of worker threads (`--jobs N`) and print the
//! buffered reports in canonical order afterwards — the report is
//! byte-identical to a serial run, only the wall clock changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::exps;

/// One finished experiment: its rendered text and headline
/// virtual-time metrics.
pub struct ExpResult {
    /// Experiment id (e.g. `e1-null-qrpc`).
    pub id: String,
    /// Rendered report text (canonical bytes).
    pub text: String,
    /// Headline metrics recorded by the experiment.
    pub metrics: Vec<(String, f64)>,
}

/// Returns the default worker count: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Runs `ids` on up to `jobs` worker threads and returns the results in
/// the order the ids were given (canonical report order), regardless of
/// completion order.
///
/// # Panics
///
/// Panics if any id is unknown, or if an experiment panics (the panic
/// is propagated once all workers have stopped).
pub fn run_parallel(ids: &[&str], jobs: usize) -> Vec<ExpResult> {
    let jobs = jobs.clamp(1, ids.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<ExpResult>>> = Mutex::new((0..ids.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(id) = ids.get(i) else { break };
                let report =
                    exps::run_report(id).unwrap_or_else(|| panic!("unknown experiment \"{id}\""));
                let result = ExpResult {
                    id: (*id).to_owned(),
                    text: report.text().to_owned(),
                    metrics: report.metrics().to_vec(),
                };
                let mut slots = match slots.lock() {
                    Ok(s) => s,
                    Err(e) => e.into_inner(),
                };
                slots[i] = Some(result);
            });
        }
    });

    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim trailing zeros for stable, readable output.
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_owned()
        } else {
            s.to_owned()
        }
    } else {
        "null".to_owned()
    }
}

/// Serializes results as the `BENCH_rover.json` document: one entry per
/// experiment with its headline virtual-time metrics, one metric per
/// line so a plain `diff` names the metric that moved. The document is
/// a pure function of the results: no clock, no worker count.
pub fn results_json(results: &[ExpResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"rover-bench\",\n");
    out.push_str("  \"experiments\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", json_escape(&r.id)));
        if r.metrics.is_empty() {
            out.push_str("      \"metrics\": {}\n");
        } else {
            out.push_str("      \"metrics\": {\n");
            for (j, (k, v)) in r.metrics.iter().enumerate() {
                let sep = if j + 1 == r.metrics.len() { "" } else { "," };
                out.push_str(&format!(
                    "        \"{}\": {}{sep}\n",
                    json_escape(k),
                    json_f64(*v)
                ));
            }
            out.push_str("      }\n");
        }
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_rover.json` under `dir` (creating it), returning the
/// path written.
pub fn write_results_json(
    dir: &std::path::Path,
    results: &[ExpResult],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_rover.json");
    std::fs::write(&path, results_json(results))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_formatting_is_stable() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(0.12349), "0.1235");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn results_json_shape() {
        let results = vec![
            ExpResult {
                id: "t1".into(),
                text: String::new(),
                metrics: vec![],
            },
            ExpResult {
                id: "e1".into(),
                text: String::new(),
                metrics: vec![("rtt_ms".into(), 3.25), ("ops".into(), 2.0)],
            },
        ];
        let s = results_json(&results);
        assert!(s.contains("      \"metrics\": {}\n"));
        assert!(s.contains("\n        \"rtt_ms\": 3.25,\n        \"ops\": 2\n      }\n"));
        assert!(!s.contains("wall") && !s.contains("jobs"));
        assert!(s.ends_with("  ]\n}\n"));
    }
}
