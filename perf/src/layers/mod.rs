//! Layer passes: each feeds the workload's own message and object
//! shapes to one crate's public functions and times the calls. A layer
//! is a crate; nothing here edits or configures the crates.

use std::time::Instant;

use rover_wire::Envelope;

use crate::measure::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{rt, Env};

pub mod apps;
pub mod cluster;
pub mod core;
pub mod log;
pub mod net;
pub mod script;
pub mod sim;
pub mod walk;
pub mod wire;
pub mod worlds;

/// Per-layer metric values with the sample count behind each.
#[derive(Default)]
pub struct Out {
    pub metrics: Vec<(&'static str, f64, usize)>,
}

impl Out {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Median and 99th percentile of one sample, under two names.
    pub fn put_p50_p99(&mut self, p50: &'static str, p99: &'static str, sample: &[f64]) {
        self.put(p50, median(sample), sample.len());
        self.put(p99, quantile(sample, 0.99), sample.len());
    }
}

/// Samples taken per timing: the issue asks for medians over at least
/// a thousand calls.
pub const SAMPLES: usize = 1000;

/// Times `batches` batches of `per_batch` calls and returns nanoseconds
/// per call for each batch. Batching keeps the clock read out of calls
/// that take tens of nanoseconds.
pub fn batch_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect()
}

/// Times every call on its own; microseconds per call.
pub fn each_us(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// Which traffic a workload's messages look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Counter exports: small request, reply carrying the whole object.
    Counter,
    /// Mail imports: small request, reply carrying a message body.
    Mail,
}

/// What the passes are shaped by.
pub struct Shapes {
    pub traffic: Traffic,
    pub rt: rt::RtShape,
    /// Envelopes recorded from the real cores running this traffic.
    pub tape: worlds::Tape,
    /// Operations the tape carries.
    pub tape_ops: usize,
}

impl Shapes {
    pub fn for_workload(name: &str, env: &Env<'_>) -> Result<Shapes, String> {
        let (traffic, rt) = match name {
            "rt-sync1" => (Traffic::Counter, rt::SYNC1),
            "sim-hoard" => (Traffic::Mail, rt::COMMIT),
            // `rdo-local` sends nothing; its passes take the counter shape.
            _ => (Traffic::Counter, rt::COMMIT),
        };
        let (tape, tape_ops) = match traffic {
            Traffic::Counter => core::record_counter_tape(rt)?,
            Traffic::Mail => core::record_mail_tape(env)?,
        };
        Ok(Shapes {
            traffic,
            rt,
            tape,
            tape_ops,
        })
    }

    /// Envelopes of one direction, never empty.
    pub fn envelopes(&self, to_server: bool) -> &[Envelope] {
        if to_server {
            &self.tape.to_server
        } else {
            &self.tape.to_client
        }
    }
}

/// Runs every pass; each is one span, and the op walk adds per-call
/// spans when tracing is on.
pub fn run_all(name: &str, env: &Env<'_>, t: &mut Tracer) -> Result<Out, String> {
    let shapes = Shapes::for_workload(name, env)?;
    let mut out = Out::default();
    t.span("sim.pass", 0, |_| sim::pass(&mut out));
    t.span("wire.pass", 0, |_| wire::pass(&shapes, &mut out))?;
    t.span("log.pass", 0, |_| log::pass(&shapes, env, &mut out))?;
    t.span("net.pass", 0, |_| net::pass(&shapes, &mut out))?;
    t.span("script.pass", 0, |_| script::pass(env, &mut out))?;
    t.span("core.pass", 0, |_| core::pass(name, &shapes, env, &mut out))?;
    t.span("apps.pass", 0, |_| apps::pass(env, &mut out))?;
    t.span("cluster.pass", 0, |t| {
        cluster::pass(&shapes, env, t, &mut out)
    })?;
    t.span("bench.op_walk", 0, |t| walk::pass(&shapes, env, t))?;
    Ok(out)
}
