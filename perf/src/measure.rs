//! Clocks, process counters and order statistics the benchmark reads.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;

/// splitmix64: the benchmark's only random source, so the same
/// `--seed` gives the same inputs on every machine.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// FNV-1a over a byte string, chained from `h` (start from [`FNV_INIT`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is how the regression
/// gate measures spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks (100 Hz on
    // every Linux this runs on).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU time of one closure.
pub struct Timed<R> {
    pub out: R,
    pub wall: Duration,
    pub cpu_s: f64,
}

pub fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    Timed {
        out,
        wall,
        cpu_s: cpu_seconds() - cpu0,
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let abs = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in info.lines() {
        // "... <mount point> <opts> [optional fields] - <fstype> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = head.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split_whitespace().next() else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_owned());
        }
    }
    best.1
}

fn cmd_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.lines().next().unwrap_or("").trim().to_owned())
        .unwrap_or_default()
}

/// What the numbers were measured on; every run record carries it.
pub fn machine_stamp(scratch_fs: &str) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model.into())),
        ("kernel", Json::Str(kernel.trim().into())),
        ("rustc", Json::Str(cmd_line("rustc", &["--version"]))),
        ("scratch_fs", Json::Str(scratch_fs.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 9, 7], n=4) == [1.5, 3.0, 8.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0, 9.0, 7.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn splitmix_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix(8);
        assert_eq!(a, b);
        assert_ne!(a[0], r.next_u64());
    }
}
