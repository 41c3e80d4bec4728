//! # Rover: a toolkit for mobile information access
//!
//! A Rust reproduction of *Rover: A Toolkit for Mobile Information
//! Access* (Joseph, deLespinasse, Tauber, Gifford, Kaashoek — SOSP
//! 1995): relocatable dynamic objects (RDOs) plus queued remote
//! procedure calls (QRPC) for applications that keep working across
//! disconnection, limited bandwidth, and changing networks.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `rover-core` | The toolkit: access manager, home servers, RDOs, QRPC, sessions, conflict resolution |
//! | [`apps`] | `rover-apps` | Mail reader, calendar, Web browser proxy, workload generators |
//! | [`net`] | `rover-net` | Simulated mobile networks (Ethernet / WaveLAN / CSLIP) and the network scheduler |
//! | [`script`] | `rover-script` | The budgeted Tcl-subset interpreter executing RDO code |
//! | [`log`] | `rover-log` | The stable operation log |
//! | [`wire`] | `rover-wire` | Marshalling, envelopes, CRC-32, LZSS |
//! | [`sim`] | `rover-sim` | Deterministic discrete-event simulation kernel |
//!
//! The most-used types are re-exported at the top level; see the
//! `examples/` directory for runnable walkthroughs (start with
//! `cargo run --example quickstart`).

pub use rover_apps as apps;
pub use rover_core as core;
pub use rover_log as log;
pub use rover_net as net;
pub use rover_script as script;
pub use rover_sim as sim;
pub use rover_wire as wire;

pub use rover_core::{
    Client, ClientConfig, ClientEvent, ClientRef, ExportHandle, Guarantees, LogPolicy, Outcome,
    Promise, ReexecuteResolver, RejectResolver, Resolution, Resolver, RoverError, RoverObject,
    ScriptResolver, Server, ServerConfig, ServerRef, Session, StorageModel, Urn, World,
};
pub use rover_net::{LinkId, LinkSpec, Net, SchedMode};
pub use rover_sim::{CpuModel, Sim, SimDuration, SimTime};
pub use rover_wire::{HostId, OpStatus, Priority, RequestId, SessionId, Version};
