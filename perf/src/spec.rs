//! The names the benchmark emits: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` repeats them for the regression
//! gate; `rover-perf check` fails when the two disagree.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// What one operation is; `ops_per_s` counts these.
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rt-commit",
        op: "durable commit",
        why: "batched durable writes over real TCP and fsync at the smallest message size; per-message cost dominates",
    },
    Workload {
        name: "rt-sync1",
        op: "durable commit",
        why: "the same layers unbatched: one export in flight, one fsync per op, so latency and wake-ups show",
    },
    Workload {
        name: "sim-scale",
        op: "simulated commit",
        why: "10 000 simulated clients on one thread with no kernel: only the cores' CPU work shows",
    },
    Workload {
        name: "sim-hoard",
        op: "kB of payload hoarded and read",
        why: "large-payload read path, mailbox twice the client cache: marshal, fragmentation, cache insert and evict",
    },
    Workload {
        name: "rdo-local",
        op: "local invocation",
        why: "cached-RDO invocation, the paper's headline: the script interpreter does nearly all the work",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "the workload's operations per wall second, median slice",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation, boot, seeding, connects, imports and the warm-up slice; median of three set-ups",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("sim.events_per_s", "1/s", Higher, "ops_per_s@sim-scale"),
    layer(
        "sim.stats_incr_ns",
        "ns",
        Lower,
        "ops_per_s@sim-scale, cpu_s_per_kop@rt-commit",
    ),
    layer(
        "sim.wallclock_wake_us_p50",
        "us",
        Lower,
        "ops_per_s@rt-sync1",
    ),
    layer(
        "sim.wallclock_wake_us_p99",
        "us",
        Lower,
        "ops_per_s@rt-sync1",
    ),
    layer(
        "wire.encode_ns_per_msg",
        "ns",
        Lower,
        "ops_per_s@sim-scale, cpu_s_per_kop@rt-commit",
    ),
    layer(
        "wire.decode_ns_per_msg",
        "ns",
        Lower,
        "ops_per_s@sim-scale, cpu_s_per_kop@rt-commit",
    ),
    layer("wire.bytes_per_op", "B", Lower, "ops_per_s@rt-commit"),
    layer(
        "wire.encode_mb_per_s_large",
        "MB/s",
        Higher,
        "ops_per_s@sim-hoard",
    ),
    layer(
        "wire.lzss_compress_mb_per_s",
        "MB/s",
        Higher,
        "none today: no workload sets log_compress",
    ),
    layer(
        "wire.lzss_decompress_mb_per_s",
        "MB/s",
        Higher,
        "none today: no workload sets log_compress",
    ),
    layer(
        "log.append_ns_per_record",
        "ns",
        Lower,
        "ops_per_s@sim-scale",
    ),
    layer("log.flush32_us_p50", "us", Lower, "ops_per_s@rt-commit"),
    layer("log.flush32_us_p99", "us", Lower, "ops_per_s@rt-commit"),
    layer("log.flush1_us_p50", "us", Lower, "ops_per_s@rt-sync1"),
    layer("log.flush1_us_p99", "us", Lower, "ops_per_s@rt-sync1"),
    layer(
        "log.device_bytes_per_payload_byte",
        "B/B",
        Lower,
        "ops_per_s@rt-commit",
    ),
    layer(
        "log.scan_records_per_s",
        "1/s",
        Higher,
        "cluster.recover_ms, setup_s@rt-commit",
    ),
    layer("net.tcp_frames_per_s", "1/s", Higher, "ops_per_s@rt-commit"),
    layer("net.tcp_rtt_us_p50", "us", Lower, "ops_per_s@rt-sync1"),
    layer("net.tcp_rtt_us_p99", "us", Lower, "ops_per_s@rt-sync1"),
    layer("net.link_msgs_per_s", "1/s", Higher, "ops_per_s@sim-scale"),
    layer("net.frag_mb_per_s", "MB/s", Higher, "ops_per_s@sim-hoard"),
    layer("script.steps_per_s", "1/s", Higher, "ops_per_s@rdo-local"),
    layer(
        "script.invoke_ns_warm",
        "ns",
        Lower,
        "ops_per_s@rdo-local, cpu_s_per_kop@rt-commit",
    ),
    layer(
        "script.first_invoke_us",
        "us",
        Lower,
        "setup_s@rdo-local, ops_per_s@sim-hoard",
    ),
    layer(
        "core.pair_us_per_op",
        "us",
        Lower,
        "ops_per_s@sim-scale, ops_per_s and cpu_s_per_kop@rt-commit",
    ),
    layer(
        "core.server_us_per_op",
        "us",
        Lower,
        "ops_per_s@sim-scale, cpu_s_per_kop@rt-commit",
    ),
    layer(
        "core.client_us_per_op",
        "us",
        Lower,
        "ops_per_s@sim-scale, cpu_s_per_kop@rt-commit",
    ),
    layer("core.invoke_local_ns", "ns", Lower, "ops_per_s@rdo-local"),
    layer("core.import_hit_ns", "ns", Lower, "ops_per_s@sim-hoard"),
    layer(
        "core.checkpoint_encode_us",
        "us",
        Lower,
        "ops_per_s@rt-commit",
    ),
    layer(
        "core.batch_mean",
        "count",
        Higher,
        "ops_per_s@sim-scale (exact count)",
    ),
    layer(
        "core.wal_bytes_per_commit",
        "B",
        Lower,
        "ops_per_s@sim-scale (exact count)",
    ),
    layer(
        "core.reply_coalesced",
        "count",
        Higher,
        "ops_per_s@sim-scale (exact count)",
    ),
    layer("apps.mail_summaries_us", "us", Lower, "ops_per_s@rdo-local"),
    layer(
        "apps.calendar_agenda_us",
        "us",
        Lower,
        "ops_per_s@rdo-local",
    ),
    layer(
        "apps.calendar_lookup_us",
        "us",
        Lower,
        "ops_per_s@rdo-local",
    ),
    layer(
        "cluster.ops_per_group_commit",
        "count",
        Higher,
        "ops_per_s@rt-commit",
    ),
    layer("cluster.checkpoints", "count", Lower, "ops_per_s@rt-commit"),
    layer(
        "cluster.retransmits",
        "count",
        Lower,
        "ops_per_s@rt-commit (0 on healthy loopback)",
    ),
    layer(
        "cluster.recover_ms",
        "ms",
        Lower,
        "setup_s@rt-commit after a crash",
    ),
    layer(
        "cluster.cpu_busy_frac",
        "frac",
        Lower,
        "cpu_s_per_kop@rt-commit",
    ),
    layer(
        "cluster.unattributed_us_per_op",
        "us",
        Lower,
        "ops_per_s@rt-commit, ops_per_s@rt-sync1",
    ),
    layer(
        "cpu_s_per_kop",
        "s",
        Lower,
        "none: process CPU per 1000 ops, out of the gate because it does not repeat within a tenth",
    ),
    layer(
        "peak_rss_mb",
        "MB",
        Lower,
        "none: VmHWM after the fifth timed slice, out of the gate for the same reason",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "none: the cost of tracing itself",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Unit of any metric the benchmark emits.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
