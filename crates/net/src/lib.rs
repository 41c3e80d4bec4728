//! Simulated mobile network substrate for the Rover toolkit.
//!
//! The paper's testbed offered four very different channels — switched
//! 10 Mbit/s Ethernet, 2 Mbit/s AT&T WaveLAN, and CSLIP (Van Jacobson
//! header-compressed SLIP) over 14.4 and 2.4 Kbit/s dial-up modems — and
//! its mobile hosts were intermittently connected. This crate reproduces
//! that environment on virtual time:
//!
//! - [`LinkSpec`] models a channel by bandwidth, propagation latency,
//!   per-message header overhead (VJ compression = smaller headers) and
//!   connection-setup cost; the four testbed channels ship as presets.
//! - [`Net`] delivers [`Envelope`]s between registered hosts with
//!   transmission-time serialization (`size · 8 / bandwidth`), per-link
//!   contention, and scripted connectivity: a link that goes down loses
//!   in-flight messages, exactly like an unplugged WaveLAN card.
//! - [`FaultSpec`] is the deterministic chaos plane: per-link fault
//!   injection (drop / corrupt / duplicate / reorder jitter / flap
//!   schedules) driven by a seeded RNG private to each link, with
//!   receive-side CRC validation so corrupted frames are rejected, never
//!   delivered.
//! - [`HostSched`] is Rover's *network scheduler*: per-priority output
//!   queues drained one message at a time onto the best available
//!   interface ("several queues for different priorities … chooses a
//!   network interface based on availability and quality", §5.3).
//! - [`SmtpRelay`] is the connectionless transport: a store-and-forward
//!   spool with polling delay, letting QRPC replies reach a client that
//!   was disconnected when the reply was generated.

#![deny(unsafe_code)]

mod fault;
mod frag;
mod sched;
mod smtp;
mod spec;
mod topo;
mod transport;

pub use fault::{FaultSpec, FlapSpec};
pub use frag::{
    register_reassembling_host, split_envelope, wrap_reassembly, Reassembler, MAX_FRAGMENTS,
};
pub use sched::{HostSched, SchedMode, SchedRef, DEFAULT_MTU};
pub use smtp::{SmtpRelay, SmtpRelayRef};
pub use spec::{LinkId, LinkSpec};
pub use topo::{DeliveryTicket, Net, NetError};
pub use transport::{
    read_frame, write_frame, ReconnectPolicy, TcpTransport, Transport, TransportError,
    TransportEvent, MAX_FRAME_BYTES,
};

pub use rover_wire::{Envelope, HostId, MsgKind, Priority};
