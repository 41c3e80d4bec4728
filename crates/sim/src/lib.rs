//! Deterministic discrete-event simulation kernel for the Rover toolkit.
//!
//! Every Rover experiment runs on virtual time: a single-threaded event
//! loop with a microsecond [`SimTime`] clock, a cancellable event heap, a
//! seeded random-number generator, and statistics collection. Determinism
//! is load-bearing — the benchmark harness regenerates the paper's figures
//! bit-for-bit across runs.
//!
//! # Examples
//!
//! ```
//! use rover_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! sim.schedule_after(SimDuration::from_millis(5), |sim| {
//!     assert_eq!(sim.now().as_millis(), 5);
//! });
//! sim.run();
//! ```

#![deny(unsafe_code)]
mod clock;
mod cpu;
mod event;
mod stats;
mod time;
mod trace;

pub use clock::{Clock, WallClock};
pub use cpu::CpuModel;
pub use event::{EventId, Sim};
pub use stats::{Counter, Samples, Stats};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TracePoint};
