//! `sim-scale`: the scale soak in virtual time, measured in wall time.
//! Single thread, no kernel: only the cores' CPU work shows here.

use rover_bench::exps::scale::{run_scale, ScaleConfig, ScaleOutcome, GROUP_POLICY};

use super::{Env, Facts, SliceOut, Workload};
use crate::measure::timed;
use crate::trace::Tracer;

pub const CLIENTS: u64 = 10_000;
pub const SHARDS: usize = 4;
/// One export per client keeps a 10 000-client arm near one second, so
/// a run fits enough slices for a median.
pub const OPS_PER_CLIENT: usize = 1;

pub fn config(env: &Env<'_>) -> ScaleConfig {
    ScaleConfig::new(env.seed, env.size.scale(CLIENTS) as usize, OPS_PER_CLIENT)
        .with_policy(GROUP_POLICY)
        .with_shards(SHARDS)
}

pub struct Scale {
    cfg: ScaleConfig,
    first: Option<ScaleOutcome>,
}

impl Scale {
    pub fn new(env: &Env<'_>) -> Scale {
        Scale {
            cfg: config(env),
            first: None,
        }
    }
}

impl Workload for Scale {
    fn slice(&mut self, t: &mut Tracer) -> Result<SliceOut, String> {
        let run = t.span("bench.run_scale", 0, |_| timed(|| run_scale(self.cfg)));
        let out = run.out?;
        if out.committed != out.ops || out.final_total != out.ops || out.reexecs != 0 {
            return Err(format!(
                "scale arm: committed {} / final {} / reexecs {} for {} ops",
                out.committed, out.final_total, out.reexecs, out.ops
            ));
        }
        // Every slice runs the same arm, so the outcome must repeat.
        match &self.first {
            Some(first) if first.digest != out.digest => {
                return Err(format!(
                    "scale digest moved between slices: {:016x} then {:016x}",
                    first.digest, out.digest
                ));
            }
            Some(_) => {}
            None => self.first = Some(out.clone()),
        }
        Ok(SliceOut {
            ops: out.ops,
            failed: 0,
            wall: run.wall,
            cpu_s: run.cpu_s,
        })
    }

    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Facts, String> {
        let out = self.first.ok_or("no scale arm ran")?;
        Ok(Facts {
            exact: vec![
                ("digest", out.digest),
                ("batch_mean_x100", out.batch_mean_x100),
                ("wal_flush_bytes", out.wal_flush_bytes),
                ("reply_coalesced", out.reply_coalesced),
            ],
            ..Facts::default()
        })
    }
}
