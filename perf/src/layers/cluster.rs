//! `cluster`: a short run of the real-clock runtime in the workload's
//! shape, and the part of an op's wall time that no layer pass accounts
//! for.

use super::{Out, Shapes};
use crate::trace::Tracer;
use crate::workloads::rt::Rt;
use crate::workloads::{Env, Workload};

/// Timed slices of the short run (after one warm-up slice).
const SLICES: usize = 3;

pub fn pass(shapes: &Shapes, env: &Env<'_>, t: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let mut rt = Rt::boot(shapes.rt, env, t)?;
    rt.slice(t)?;
    let (mut ops, mut wall, mut cpu) = (0u64, 0.0, 0.0);
    for _ in 0..SLICES {
        let s = rt.slice(t)?;
        if s.failed > 0 {
            return Err(format!("{} ops failed in the cluster pass", s.failed));
        }
        ops += s.ops;
        wall += s.wall.as_secs_f64();
        cpu += s.cpu_s;
    }
    let facts = Box::new(rt).finish(t)?;
    if facts.failed > 0 {
        return Err(format!("{} committed ops were lost", facts.failed));
    }
    let fact = |k: &str| facts.value(k).unwrap_or(0.0);
    let n = ops as usize;

    // Per-operation commit flushes once per op and counts no groups.
    let per_group = match fact("group_commits") {
        g if g > 0.0 => fact("requests") / g,
        _ => 1.0,
    };
    out.put("cluster.ops_per_group_commit", per_group, n);
    out.put("cluster.checkpoints", fact("checkpoints"), n);
    out.put("cluster.retransmits", fact("retransmits"), n);
    out.put("cluster.recover_ms", fact("recover_ms"), 2);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.put("cluster.cpu_busy_frac", cpu / (wall * nproc as f64), SLICES);

    // What one client waits per op, less what the passes saw the layers
    // spend on an op: both cores, the op's share of a flush, and framing
    // its request and its reply over TCP.
    let per_client_us = wall * 1e6 * shapes.rt.clients as f64 / ops.max(1) as f64;
    let get = |k: &str| out.get(k).unwrap_or(0.0);
    let flush_share = if shapes.rt.group_batch > 0 {
        get("log.flush32_us_p50") / per_group
    } else {
        get("log.flush1_us_p50")
    };
    let framing = match get("net.tcp_frames_per_s") {
        f if f > 0.0 => 2.0 * 1e6 / f,
        _ => 0.0,
    };
    let attributed = get("core.pair_us_per_op") + flush_share + framing;
    out.put(
        "cluster.unattributed_us_per_op",
        per_client_us - attributed,
        n,
    );
    Ok(())
}
