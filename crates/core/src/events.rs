//! User-notification events.
//!
//! "Because the mobile environment may rapidly change from moment to
//! moment, it is important to present the user with information about
//! its current state" (paper §3.4). Applications register listeners on
//! the client; the access manager emits an event whenever consistency
//! or connectivity state changes in a way a user interface would
//! surface.

use rover_wire::{OpStatus, RequestId};

use crate::urn::Urn;

/// Events emitted by the client access manager.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientEvent {
    /// The active link's connectivity changed.
    Connectivity {
        /// True when connected.
        up: bool,
    },
    /// An import completed (from cache or from the home server).
    ImportDone {
        /// Object imported.
        urn: Urn,
        /// Served locally without network traffic.
        from_cache: bool,
        /// Whether the data is tentative.
        tentative: bool,
        /// Final status.
        status: OpStatus,
    },
    /// A local export was applied tentatively (the user sees the effect
    /// now; commit happens later).
    TentativeApplied {
        /// Object updated.
        urn: Urn,
        /// The queued QRPC carrying the update.
        req: RequestId,
    },
    /// A queued export reached the home server and was decided.
    Committed {
        /// Object updated.
        urn: Urn,
        /// The QRPC that committed.
        req: RequestId,
        /// `Ok`, `Resolved` (auto-reconciled) or `Conflict` (reflected
        /// to the user).
        status: OpStatus,
    },
    /// A conflicting update could not be auto-resolved; the user must
    /// reconcile.
    ConflictReflected {
        /// Object in conflict.
        urn: Urn,
        /// The rejected QRPC.
        req: RequestId,
    },
    /// The cache evicted an object to stay within capacity.
    Evicted {
        /// Object evicted.
        urn: Urn,
    },
    /// A QRPC was retransmitted after a suspected loss.
    Retransmit {
        /// The retransmitted request.
        req: RequestId,
    },
    /// A queued QRPC exhausted its retransmission budget; the client
    /// gave up and resolved its promise with
    /// [`OpStatus::Unreachable`].
    Unreachable {
        /// The abandoned request.
        req: RequestId,
        /// Object it targeted, if any.
        urn: Option<Urn>,
    },
    /// A server callback reported a newer committed version of a cached
    /// object; the local copy is stale.
    Invalidated {
        /// Object invalidated.
        urn: Urn,
        /// The newer committed version at the home server.
        version: rover_wire::Version,
    },
}

/// Events emitted by a home server's durability plane. The soak harness
/// and tests observe crash/recovery transitions through these; an
/// operator console would surface them the way §3.4's client events
/// surface connectivity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerEvent {
    /// The server crashed (a scripted crash point fired, or a
    /// write-ahead-log append failed). All volatile state is gone;
    /// requests are dropped until recovery.
    Crashed {
        /// Commits this server made durable before the crash, over its
        /// lifetime (restarts included).
        durable_commits: u64,
    },
    /// Crash-restart recovery rebuilt the server from checkpoint + log
    /// replay.
    Recovered {
        /// Commit records replayed from the log (after the newest
        /// checkpoint).
        commits: u64,
        /// Torn/corrupt tail bytes the recovery scan discarded.
        truncated_tail: u64,
        /// Held out-of-order writes dropped by the crash (clients
        /// retransmit them).
        held_dropped: u64,
    },
    /// A checkpoint was written and the log compacted behind it.
    Checkpoint {
        /// Device size in bytes after compaction.
        device_bytes: u64,
    },
    /// A group-commit batch (one commit under
    /// [`crate::CommitPolicy::PER_OPERATION`]) was flushed durably as one
    /// WAL record; its replies are now eligible to leave the host. A
    /// server without a WAL writes nothing and emits none.
    GroupCommit {
        /// Commits made durable by this flush.
        records: usize,
        /// Framed bytes the flush forced to the device.
        wal_bytes: usize,
    },
}
