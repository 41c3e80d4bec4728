//! The Rover toolkit: relocatable dynamic objects and queued remote
//! procedure calls for mobile information access.
//!
//! This crate is the paper's primary contribution — a client/server
//! distributed object system in which:
//!
//! - applications **import** objects from their home servers into a
//!   client-side cache, mutate them locally, and **export** the
//!   operations back (optimistic, primary-copy replication with
//!   server-side conflict detection and type-specific resolution);
//! - every remote operation is a **queued RPC**: written to a stable
//!   log, scheduled by priority over whatever link is up, delivered on
//!   reconnection, answered through a **promise**;
//! - objects are **RDOs** — data plus method code executed by a budgeted
//!   interpreter on either side of the link, so computation can move to
//!   where it is cheapest (`invoke_local` on the cached copy,
//!   `invoke_remote` to ship the call to the server);
//! - applications observe connectivity and consistency transitions
//!   through **notification events**, and scope their consistency
//!   demands with Bayou-style **session guarantees** over tentative
//!   data.
//!
//! The moving parts live in focused modules: the [`Client`] access
//! manager, the home [`Server`] (RDO execution + resolvers), the
//! [`Cache`], [`Session`] guarantees, [`RoverObject`] RDOs, the
//! [`Resolver`] registry, and [`Promise`]s. A simulated [`World`] wires
//! them onto one simulator and network.
//!
//! # Examples
//!
//! ```
//! use rover_core::{Client, ClientConfig, Guarantees, RoverObject, ServerConfig, Urn, World};
//! use rover_net::LinkSpec;
//! use rover_wire::{HostId, Priority};
//!
//! // One simulated world: a home server, and a client on one WaveLAN
//! // link to it (the world routes the server's replies back over it).
//! let mut w = World::new(7);
//! let (ch, sh) = (HostId(1), HostId(2));
//! let server = w.server(ServerConfig::workstation(sh));
//! server.borrow_mut().put_object(
//!     RoverObject::new(Urn::parse("urn:rover:demo/hello").unwrap(), "demo")
//!         .with_field("msg", "hello mobile world"),
//! );
//!
//! let client = w.client(ClientConfig::thinkpad(ch, sh), LinkSpec::WAVELAN_2M);
//! let session = Client::create_session(&client, Guarantees::ALL, true);
//! let p = Client::import(
//!     &client, &mut w.sim,
//!     &Urn::parse("urn:rover:demo/hello").unwrap(),
//!     session, Priority::FOREGROUND,
//! ).unwrap();
//! w.sim.run();
//! assert_eq!(p.poll().unwrap().object.unwrap().field("msg"), Some("hello mobile world"));
//! ```

#![deny(unsafe_code)]

mod cache;
mod checkpoint;
mod client;
mod config;
mod dedup;
mod error;
mod events;
mod hotset;
mod object;
mod payload;
mod promise;
mod rebalance;
mod resolve;
mod server;
mod session;
mod shard;
mod urn;
mod world;

pub use cache::{Cache, CacheEntry};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointImage};
pub use client::{Client, ClientRef, ExportHandle, Placement, PlacementHints, PollGuard};
pub use config::{ClientConfig, CommitPolicy, LogPolicy, ServerConfig, StorageModel};
pub use error::RoverError;
pub use events::{ClientEvent, ServerEvent};
pub use hotset::HotSet;
pub use object::{collection_object, Fields, MethodRun, RoverObject};
pub use payload::{ExportPayload, InvokePayload};
pub use promise::{Outcome, Promise};
pub use rebalance::{Migration, Rebalancer};
pub use resolve::{ReexecuteResolver, RejectResolver, Resolution, Resolver, ScriptResolver};
pub use server::{CrashPoint, Server, ServerRef};
pub use session::{Guarantees, Session};
pub use shard::{ShardMap, ShardMapError};
pub use urn::Urn;
pub use world::{counter_object, step_until, World};

pub use rover_wire::{HostId, OpStatus, Priority, RequestId, SessionId, Version};
