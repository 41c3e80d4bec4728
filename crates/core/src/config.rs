//! Client and server configuration: cost models and policies.

use rover_log::FlushReceipt;
use rover_net::SchedMode;
use rover_sim::{CpuModel, SimDuration};
use rover_wire::HostId;

/// Stable-storage cost model: how long a log flush takes.
///
/// The paper's prototype wrote its operation log to the ThinkPad's local
/// disk with a synchronous flush on every QRPC ("the flush is on the
/// critical path for message sending", §5.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StorageModel {
    /// Fixed cost of one synchronous flush (seek + rotation).
    pub sync_latency: SimDuration,
    /// Additional cost per KiB written.
    pub per_kib: SimDuration,
}

impl StorageModel {
    /// A 1995 laptop IDE disk: ~15 ms per synchronous write.
    pub const LAPTOP_DISK_1995: StorageModel = StorageModel {
        sync_latency: SimDuration::from_millis(15),
        per_kib: SimDuration::from_micros(700),
    };

    /// Flash RAM-class stable storage (the paper's "efficient
    /// techniques" future work; A1 ablation arm).
    pub const FLASH_RAM: StorageModel = StorageModel {
        sync_latency: SimDuration::from_micros(300),
        per_kib: SimDuration::from_micros(50),
    };

    /// A 1995 workstation SCSI disk: faster seeks than the laptop IDE
    /// drive, used for the server's write-ahead commit log.
    pub const SERVER_DISK_1995: StorageModel = StorageModel {
        sync_latency: SimDuration::from_millis(8),
        per_kib: SimDuration::from_micros(400),
    };

    /// Free stable storage (the "no log cost" ablation bound).
    pub const FREE: StorageModel = StorageModel {
        sync_latency: SimDuration::ZERO,
        per_kib: SimDuration::ZERO,
    };

    /// Returns the virtual time one flush receipt costs.
    pub fn flush_cost(&self, receipt: FlushReceipt) -> SimDuration {
        if !receipt.synced {
            return SimDuration::ZERO;
        }
        let kib = receipt.bytes.div_ceil(1024) as u64;
        self.sync_latency + SimDuration::from_micros(self.per_kib.as_micros() * kib)
    }
}

/// When the client forces QRPC log records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogPolicy {
    /// Flush on every QRPC (the paper's prototype): group commit with a
    /// group of one.
    PerOperation,
    /// Group commit: flush when `n` records have accumulated or after
    /// `timeout` since the first unflushed record, whichever is first.
    GroupCommit {
        /// Records per group.
        n: usize,
        /// Maximum time a record may sit unflushed.
        timeout: SimDuration,
    },
    /// No stable log at all (ablation lower bound: queued requests do
    /// not survive a crash).
    None,
}

impl LogPolicy {
    /// The group this policy commits in, as (records per group, window);
    /// `None` when nothing is logged.
    pub(crate) fn group(self) -> Option<(usize, SimDuration)> {
        match self {
            LogPolicy::PerOperation => Some((1, SimDuration::ZERO)),
            LogPolicy::GroupCommit { n, timeout } => Some((n, timeout)),
            LogPolicy::None => None,
        }
    }
}

/// Client-side configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client's host id on the network.
    pub host: HostId,
    /// The default home server (authorities not listed in
    /// `authorities` route here).
    pub server: HostId,
    /// Per-URN-authority home servers: "every object has a home
    /// server" (paper §2), and different authorities may live on
    /// different hosts.
    pub authorities: std::collections::HashMap<String, HostId>,
    /// Optional shard routing table: when set, every QRPC routes to
    /// the shard owning its URN (hash of the name, with optional
    /// prefix pins). Checked before `authorities`/`server`; `None`
    /// keeps the classic single-home-server routing.
    pub shards: Option<crate::ShardMap>,
    /// CPU cost model for marshalling and RDO execution.
    pub cpu: CpuModel,
    /// Stable-storage cost model for the QRPC log.
    pub storage: StorageModel,
    /// Log flush policy.
    pub log_policy: LogPolicy,
    /// Object-cache capacity in bytes.
    pub cache_capacity: usize,
    /// Network-scheduler queue discipline.
    pub sched_mode: SchedMode,
    /// Retransmission probe interval for outstanding QRPCs: the
    /// *initial* interval, doubled after each retransmission up to
    /// `rto_max` (exponential backoff).
    pub rto: SimDuration,
    /// Upper bound the backed-off probe interval never exceeds.
    pub rto_max: SimDuration,
    /// Maximum retransmissions per queued QRPC before the client gives
    /// up and resolves the promise with [`rover_wire::OpStatus::Unreachable`].
    /// `None` retries forever (the paper's behaviour).
    pub retry_budget: Option<u32>,
    /// Authentication token presented with every QRPC (0 = anonymous).
    pub auth_token: u64,
    /// Transport fragmentation MTU in payload bytes (`usize::MAX`
    /// disables fragmentation; A6 ablation).
    pub mtu: usize,
}

impl ClientConfig {
    /// The paper's mobile-client configuration: ThinkPad CPU, laptop
    /// disk, per-operation flush, priority scheduling.
    pub fn thinkpad(host: HostId, server: HostId) -> ClientConfig {
        ClientConfig {
            host,
            server,
            authorities: std::collections::HashMap::new(),
            shards: None,
            cpu: CpuModel::THINKPAD_701C,
            storage: StorageModel::LAPTOP_DISK_1995,
            log_policy: LogPolicy::PerOperation,
            cache_capacity: 16 << 20,
            sched_mode: SchedMode::Priority,
            rto: SimDuration::from_secs(120),
            rto_max: SimDuration::from_secs(1200),
            retry_budget: None,
            auth_token: 0,
            mtu: rover_net::DEFAULT_MTU,
        }
    }
}

/// When the server makes executed commits durable and schedules their
/// replies.
///
/// The paper lists group commit as not-implemented future work (§5.2).
/// Every request takes the one commit path: it stages its commit into a
/// pending batch, one flush commits the whole group as a *single* WAL
/// record (or, without a WAL, writes nothing), and only then are the
/// group's replies and callbacks scheduled. The prototype's one-flush-per-QRPC critical path is the
/// group of one, [`CommitPolicy::PER_OPERATION`] (the default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Group commit: flush the pending batch when `max_batch` commits
    /// have staged or `window` after the first one staged, whichever
    /// comes first.
    Group {
        /// Commits per group before a size-triggered flush; `0` and `1`
        /// both flush each commit as it stages.
        max_batch: usize,
        /// Maximum time the oldest staged commit may wait unflushed.
        window: SimDuration,
    },
}

impl CommitPolicy {
    /// One flush per commit, at stage time (the paper's prototype).
    pub const PER_OPERATION: CommitPolicy = CommitPolicy::Group {
        max_batch: 1,
        window: SimDuration::ZERO,
    };
}

/// Server-side configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// This server's host id.
    pub host: HostId,
    /// CPU cost model (stationary workstation).
    pub cpu: CpuModel,
    /// Maximum retained (client, request) → reply dedup entries.
    pub dedup_capacity: usize,
    /// Reply-scheduler queue discipline (per client).
    pub sched_mode: SchedMode,
    /// Send cache-invalidation callbacks to importers when another
    /// client commits a new version (paper §2: "server callbacks");
    /// they leave with the commit's reply.
    pub callbacks: bool,
    /// Transport fragmentation MTU for replies (`usize::MAX` disables).
    pub mtu: usize,
    /// Stable-storage cost model for the write-ahead commit log; only
    /// charged when a log is attached ([`crate::Server::attach_wal`]).
    pub storage: StorageModel,
    /// Commits between write-ahead-log checkpoints: after this many
    /// commit records, the server snapshots its durable state into the
    /// log and compacts everything older. `0` disables automatic
    /// checkpoints (the log grows until compacted explicitly).
    pub checkpoint_every: usize,
    /// Commit/flush/reply policy. Without a log the flush writes
    /// nothing, so a group wider than one only coalesces replies.
    pub commit: CommitPolicy,
    /// Hot-set replication factor K: each epoch the shard publishes its
    /// K hottest home objects to its federation peers as volatile,
    /// version-stamped read replicas. `0` (the default) disables the
    /// load-balancing plane entirely — no tracker, no replica frames,
    /// byte-identical to the pre-replication server.
    pub replicate_hot: usize,
}

impl ServerConfig {
    /// The paper's stationary-server configuration.
    pub fn workstation(host: HostId) -> ServerConfig {
        ServerConfig {
            host,
            cpu: CpuModel::SERVER_WORKSTATION,
            dedup_capacity: 4096,
            sched_mode: SchedMode::Priority,
            callbacks: false,
            mtu: rover_net::DEFAULT_MTU,
            storage: StorageModel::SERVER_DISK_1995,
            checkpoint_every: 64,
            commit: CommitPolicy::PER_OPERATION,
            replicate_hot: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_cost_zero_without_sync() {
        let m = StorageModel::LAPTOP_DISK_1995;
        assert_eq!(
            m.flush_cost(FlushReceipt {
                bytes: 0,
                records: 0,
                synced: false
            }),
            SimDuration::ZERO
        );
    }

    #[test]
    fn flush_cost_scales_with_bytes() {
        let m = StorageModel::LAPTOP_DISK_1995;
        let small = m.flush_cost(FlushReceipt {
            bytes: 100,
            records: 1,
            synced: true,
        });
        let big = m.flush_cost(FlushReceipt {
            bytes: 100 * 1024,
            records: 1,
            synced: true,
        });
        assert!(small >= m.sync_latency);
        assert!(big > small);
    }

    #[test]
    fn flash_is_much_faster_than_disk() {
        let r = FlushReceipt {
            bytes: 200,
            records: 1,
            synced: true,
        };
        assert!(
            StorageModel::LAPTOP_DISK_1995.flush_cost(r).as_micros()
                > 10 * StorageModel::FLASH_RAM.flush_cost(r).as_micros()
        );
    }
}
