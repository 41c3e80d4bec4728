//! Deterministic, structure-aware fuzz plane for the Rover codecs.
//!
//! Three codec planes parse bytes that cross a trust boundary — the
//! wire decoders (messages, commit records, checkpoint images, LZSS),
//! the WAL recovery scan, and the rover-script parser.
//! This crate drives each of them with *mutated valid inputs* under one
//! invariant:
//!
//! > Arbitrary bytes never panic a codec, never escape its allocation
//! > or step budgets, and whatever a codec accepts must round-trip.
//!
//! Everything is offline and deterministic: a seeded splitmix64
//! generator picks the corpus entry and the mutations, so every case is
//! addressed by `(seed, iteration)` and any failure replays exactly
//! (`rover-fuzz --repro <codec>:<seed>:<iter>`). Reports carry an
//! FNV-1a digest over every case's input and outcome — two runs with
//! the same seed are byte-identical, which CI checks cheaply.
//!
//! The pieces:
//! - [`corpus`]: valid seed inputs per codec (every frame kind the
//!   toolkit produces, WAL device images, script sources);
//! - [`mutate`]: structural mutations (truncate, splice, length-field
//!   skew to boundary values, duplicate/delete regions, CRC flips,
//!   plain bit noise);
//! - [`harness`]: the per-codec drivers and the `(seed, iteration)`
//!   addressing.

#![deny(unsafe_code)]

pub mod corpus;
pub mod harness;
pub mod mutate;
pub mod rng;

pub use corpus::WireTarget;
pub use harness::{
    golden_sweeps, run_case, run_codec, silence_panics, Case, CaseOutcome, Codec, FuzzReport,
};
pub use rng::{case_rng, SplitMix64};
