//! Real-clock cluster runtime: the sim-grown Rover state machines over
//! real TCP, real fsync, and wall-clock timers.
//!
//! The client and server cores never learn they left the simulator.
//! Each process runs its *own* single-threaded [`Sim`] whose virtual
//! clock is slaved to a [`WallClock`] (1 virtual µs = 1 real µs); the
//! remote peer appears as an ordinary [`Net`] host reached over a
//! zero-cost [`LinkSpec::LOOPBACK`] link, whose handler forwards
//! envelopes into a [`TcpTransport`] — and inbound TCP frames are
//! injected back onto the same link. TCP connect/disconnect maps to
//! link up/down, which drives the client's existing reconnect and
//! retransmission machinery unchanged.
//!
//! What stays deterministic: every state-machine decision (dedup,
//! ack floors, group-commit batching, recovery). What becomes real:
//! message timing, interleaving across processes, `fsync` on the WAL
//! ([`FileStore`]), and process death. Nothing is *modelled*: a cost
//! charged to a clock slaved to wall time is a real timer wait, so the
//! runtime sets both the storage and the CPU model to free — the real
//! fsync and the real CPU are the costs.
//!
//! [`Sim`]: rover_sim::Sim
//! [`WallClock`]: rover_sim::WallClock
//! [`Net`]: rover_net::Net
//! [`LinkSpec::LOOPBACK`]: rover_net::LinkSpec::LOOPBACK
//! [`TcpTransport`]: rover_net::TcpTransport
//! [`FileStore`]: rover_log::FileStore

#![deny(unsafe_code)]

mod runtime;

pub use runtime::{
    atomic_write, counter_object, counter_urn, read_counter, recover_snapshot, run_client,
    run_server, ClientOpts, ClientSummary, ServerOpts, ServerSummary, SERVER_HOST,
};
