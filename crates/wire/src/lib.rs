//! Marshalling substrate for the Rover toolkit.
//!
//! Rover's client and server exchange self-describing binary messages
//! over whatever transport the network scheduler picks. This crate
//! provides:
//!
//! - an XDR-style binary [`Encoder`]/[`Decoder`] pair and the [`Wire`]
//!   trait,
//! - the QRPC protocol envelopes — [`QrpcRequest`], [`QrpcReply`],
//!   [`Envelope`], [`Fragment`] — and the primitive identifier types
//!   shared across the toolkit,
//! - the server write-ahead [`CommitRecord`] — the durable image of one
//!   executed request, logged before its reply leaves the host,
//! - a CRC-32 checksum ([`crc32`]) protecting log records and frames,
//! - a from-scratch LZSS compressor ([`compress`]/[`decompress`]) used
//!   by the log- and wire-compression ablations (the paper's prototype
//!   deliberately shipped without compression; see DESIGN.md A2).
//!
//! # Examples
//!
//! ```
//! use rover_wire::{Encoder, Decoder};
//!
//! let mut enc = Encoder::new();
//! enc.put_str("urn:rover:inbox");
//! enc.put_u64(7);
//! let bytes = enc.finish();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.get_str().unwrap(), "urn:rover:inbox");
//! assert_eq!(dec.get_u64().unwrap(), 7);
//! ```

#![deny(unsafe_code)]

mod checksum;
mod commit;
mod lzss;
mod marshal;
mod message;

pub use bytes::Bytes;
pub use checksum::crc32;
pub use commit::{decode_commit_batch, encode_commit_batch, CommitRecord, MigrateRecord};
pub use lzss::{compress, decompress, decompress_with_budget, LzssError, MAX_DECOMPRESSED};
pub use marshal::{Decoder, Encoder, Wire, WireError, MAX_FIELD_LEN};
pub use message::{
    Envelope, Fragment, HostId, MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest, ReplicaFrame,
    ReplyBatch, RequestId, RoverOp, SessionId, Version,
};
