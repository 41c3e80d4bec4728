//! Run statistics: named counters and sample sets with summary
//! statistics, used by the benchmark harness to report figure series.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// A monotonically increasing named counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

/// A set of scalar samples with on-demand summary statistics.
///
/// Samples are stored raw (experiments here are small, thousands of
/// points at most) so any quantile can be computed exactly.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN; a NaN sample indicates a harness bug.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.values.push(v);
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Returns the minimum sample, or 0.0 if empty.
    pub fn min(&self) -> f64 {
        let m = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Returns the maximum sample, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        let m = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Returns the `q`-quantile (`0.0 ..= 1.0`) by nearest-rank, or 0.0 if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    /// Returns the median (p50).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Returns the sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Returns the population standard deviation, or 0.0 if fewer than
    /// two samples were recorded.
    pub fn stddev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Returns the raw samples in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Named counters and sample sets for one simulation run.
///
/// Keys are free-form strings (`"qrpc.sent"`, `"import.latency_ms"`).
/// `BTreeMap` keeps report iteration order stable.
#[derive(Debug, Default)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, Samples>,
}

/// Applies `f` to `key`'s slot, created at its default if absent. The
/// key is copied only then: nearly every call lands on a live key.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

impl Stats {
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, key: &str, n: u64) {
        upsert(&mut self.counters, key, |c| *c += n);
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Sets the named counter to `v`, overwriting any previous value.
    ///
    /// Used for gauge-style snapshots (e.g. the event loop publishing
    /// `sim.heap_len`), where repeated publication must not accumulate.
    pub fn set(&mut self, key: &str, v: u64) {
        upsert(&mut self.counters, key, |c| *c = v);
    }

    /// Returns the value of a counter (zero if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Records a scalar sample under the named series.
    pub fn sample(&mut self, key: &str, v: f64) {
        upsert(&mut self.samples, key, |s| s.record(v));
    }

    /// Records a duration sample (milliseconds) under the named series.
    pub fn sample_duration(&mut self, key: &str, d: SimDuration) {
        self.sample(key, d.as_millis_f64());
    }

    /// Returns the named sample series, if any samples were recorded.
    pub fn series(&self, key: &str) -> Option<&Samples> {
        self.samples.get(key)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("x");
        s.add("x", 4);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn samples_summarize() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.sum(), 10.0);
        assert!((s.median() - 2.0).abs() < 1e-9 || (s.median() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        let p95 = s.quantile(0.95);
        assert!((94.0..=96.0).contains(&p95), "p95 was {p95}");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Samples::new().record(f64::NAN);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        let mut s = Samples::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        let one = {
            let mut s = Samples::new();
            s.record(5.0);
            s
        };
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn duration_samples_are_millis() {
        let mut s = Stats::new();
        s.sample_duration("lat", SimDuration::from_micros(2_500));
        assert_eq!(s.series("lat").unwrap().values(), &[2.5]);
    }

    #[test]
    fn iteration_order_is_stable() {
        let mut s = Stats::new();
        s.incr("b");
        s.incr("a");
        let keys: Vec<_> = s.counters().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
