//! The `ROV1`/`ROV2` checkpoint image codec.
//!
//! A checkpoint is the server's durable state serialized for restart:
//! the `ROV1` sections (object store, per-session write-ordering
//! floors) followed by a `ROV2` extension carrying the at-most-once
//! state (per-client acknowledgement floors, executed-id sets, and the
//! dedup replay cache in eviction order). This module is the *pure*
//! codec — [`Server`](crate::Server) builds a [`CheckpointImage`] from
//! its maps and delegates here, so the byte format can be exercised
//! (round-tripped, fuzzed, proptested) without constructing a server.
//!
//! The decoder parses untrusted bytes: every length and count is
//! validated against the remaining input before use, allocations are
//! capped (a snapshot declaring four billion objects cannot reserve
//! four billion slots before the first one parses), and any surplus
//! trailing bytes are an error. Decoding never touches server state —
//! callers install the image only after the whole buffer parsed.

use rover_wire::{Decoder, Encoder, QrpcReply, Wire, WireError};

use crate::error::RoverError;
use crate::object::RoverObject;

/// Magic opening the base sections: object store + ordering floors.
pub const ROV1_MAGIC: u32 = 0x524F_5631; // "ROV1"
/// Magic opening the at-most-once extension.
pub const ROV2_MAGIC: u32 = 0x524F_5632; // "ROV2"

/// Pre-allocation cap for wire-declared counts. Real counts above this
/// still parse — the vector just grows as elements actually arrive —
/// but a hostile header alone can no longer reserve unbounded memory.
const PREALLOC_CAP: usize = 1024;

fn capped(n: u32) -> usize {
    (n as usize).min(PREALLOC_CAP)
}

/// A parsed (or to-be-written) checkpoint: the server's durable state
/// as plain sorted vectors, decoupled from the server's live maps.
///
/// Encode expects the vectors in their canonical order (objects by URN,
/// the keyed sections by key, dedup in FIFO eviction order) — the
/// server's builder sorts before delegating, and the decoder returns
/// sections in whatever order the image stored them (canonical, for
/// images this codec wrote).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointImage {
    /// Every object in the home store.
    pub objects: Vec<RoverObject>,
    /// Per-(client, session) next-expected export sequence numbers.
    pub expected_seq: Vec<((u32, u64), u64)>,
    /// Per-client acknowledgement floors.
    pub ack_floors: Vec<(u32, u64)>,
    /// Per-client executed request-id sets.
    pub executed: Vec<(u32, Vec<u64>)>,
    /// Dedup replay cache: ((client, request-id), cached reply), in
    /// FIFO eviction order.
    pub dedup: Vec<((u32, u64), QrpcReply)>,
}

/// Serializes `img` into the `ROV1` + `ROV2` byte format.
pub fn encode_checkpoint(img: &CheckpointImage) -> Vec<u8> {
    Encoder::exact(|enc| put_checkpoint(img, enc)).into_vec()
}

fn put_checkpoint(img: &CheckpointImage, enc: &mut Encoder) {
    enc.put_u32(ROV1_MAGIC);
    enc.put_u32(img.objects.len() as u32);
    for o in &img.objects {
        o.encode(enc);
    }
    enc.put_u32(img.expected_seq.len() as u32);
    for ((client, session), expected) in &img.expected_seq {
        enc.put_u32(*client);
        enc.put_u64(*session);
        enc.put_u64(*expected);
    }

    enc.put_u32(ROV2_MAGIC);
    enc.put_u32(img.ack_floors.len() as u32);
    for (client, floor) in &img.ack_floors {
        enc.put_u32(*client);
        enc.put_u64(*floor);
    }
    enc.put_u32(img.executed.len() as u32);
    for (client, ids) in &img.executed {
        enc.put_u32(*client);
        enc.put_u32(ids.len() as u32);
        for id in ids {
            enc.put_u64(*id);
        }
    }
    enc.put_u32(img.dedup.len() as u32);
    for ((client, req), reply) in &img.dedup {
        enc.put_u32(*client);
        enc.put_u64(*req);
        reply.encode(enc);
    }
}

fn wire(e: WireError) -> RoverError {
    RoverError::from(e)
}

/// Parses a checkpoint image, validating everything before returning.
///
/// Images that predate the `ROV2` extension (nothing after the `ROV1`
/// sections) decode with empty at-most-once state. Anything else —
/// wrong magic, truncation mid-section, or trailing bytes past the
/// last section — is an error and the whole image is rejected.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointImage, RoverError> {
    let mut dec = Decoder::new(bytes);
    let magic = dec.get_u32().map_err(wire)?;
    if magic != ROV1_MAGIC {
        return Err(RoverError::Wire("bad checkpoint magic".into()));
    }
    let n = dec.get_u32().map_err(wire)?;
    let mut objects = Vec::with_capacity(capped(n));
    for _ in 0..n {
        objects.push(RoverObject::decode(&mut dec).map_err(wire)?);
    }
    let m = dec.get_u32().map_err(wire)?;
    let mut expected_seq = Vec::with_capacity(capped(m));
    for _ in 0..m {
        let client = dec.get_u32().map_err(wire)?;
        let session = dec.get_u64().map_err(wire)?;
        let expected = dec.get_u64().map_err(wire)?;
        expected_seq.push(((client, session), expected));
    }
    let mut img = CheckpointImage {
        objects,
        expected_seq,
        ..CheckpointImage::default()
    };
    if dec.remaining() == 0 {
        return Ok(img);
    }
    let magic2 = dec.get_u32().map_err(wire)?;
    if magic2 != ROV2_MAGIC {
        return Err(RoverError::Wire("bad checkpoint extension".into()));
    }
    let nf = dec.get_u32().map_err(wire)?;
    img.ack_floors.reserve(capped(nf));
    for _ in 0..nf {
        let client = dec.get_u32().map_err(wire)?;
        let floor = dec.get_u64().map_err(wire)?;
        img.ack_floors.push((client, floor));
    }
    let ne = dec.get_u32().map_err(wire)?;
    img.executed.reserve(capped(ne));
    for _ in 0..ne {
        let client = dec.get_u32().map_err(wire)?;
        let count = dec.get_u32().map_err(wire)?;
        let mut ids = Vec::with_capacity(capped(count));
        for _ in 0..count {
            ids.push(dec.get_u64().map_err(wire)?);
        }
        img.executed.push((client, ids));
    }
    let nd = dec.get_u32().map_err(wire)?;
    img.dedup.reserve(capped(nd));
    for _ in 0..nd {
        let client = dec.get_u32().map_err(wire)?;
        let req = dec.get_u64().map_err(wire)?;
        let reply = QrpcReply::decode(&mut dec).map_err(wire)?;
        img.dedup.push(((client, req), reply));
    }
    dec.expect_end().map_err(wire)?;
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urn::Urn;
    use rover_wire::{OpStatus, RequestId, Version};

    fn reply(req: u64) -> QrpcReply {
        QrpcReply {
            req_id: RequestId(req),
            status: OpStatus::Ok,
            version: Version(3),
            payload: rover_wire::Bytes::from_static(b"ok"),
        }
    }

    fn sample() -> CheckpointImage {
        CheckpointImage {
            objects: vec![
                RoverObject::new(Urn::parse("urn:rover:t/a").unwrap(), "t").with_field("k", "v"),
                RoverObject::new(Urn::parse("urn:rover:t/b").unwrap(), "t"),
            ],
            expected_seq: vec![((1, 10), 4), ((2, 11), 1)],
            ack_floors: vec![(1, 3), (2, 0)],
            executed: vec![(1, vec![1, 2, 3]), (2, vec![7])],
            dedup: vec![((1, 3), reply(3)), ((2, 7), reply(7))],
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let img = sample();
        let bytes = encode_checkpoint(&img);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, img);
        // And re-encoding the decode is byte-identical.
        assert_eq!(encode_checkpoint(&back), bytes);
    }

    #[test]
    fn empty_image_round_trips() {
        let img = CheckpointImage::default();
        let bytes = encode_checkpoint(&img);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), img);
    }

    #[test]
    fn rov1_only_images_decode_with_empty_extension() {
        // A legacy snapshot: ROV1 sections, nothing after.
        let mut enc = Encoder::new();
        enc.put_u32(ROV1_MAGIC);
        enc.put_u32(0); // objects
        enc.put_u32(1); // seqs
        enc.put_u32(9);
        enc.put_u64(5);
        enc.put_u64(2);
        let img = decode_checkpoint(&enc.into_vec()).unwrap();
        assert_eq!(img.expected_seq, vec![((9, 5), 2)]);
        assert!(img.ack_floors.is_empty());
        assert!(img.dedup.is_empty());
    }

    #[test]
    fn bad_magics_are_rejected() {
        assert!(matches!(
            decode_checkpoint(&0xDEAD_BEEFu32.to_be_bytes()),
            Err(RoverError::Wire(_))
        ));
        let mut enc = Encoder::new();
        enc.put_u32(ROV1_MAGIC);
        enc.put_u32(0);
        enc.put_u32(0);
        enc.put_u32(0x524F_5639); // bogus extension magic
        assert!(matches!(
            decode_checkpoint(&enc.into_vec()),
            Err(RoverError::Wire(_))
        ));
    }

    #[test]
    fn hostile_counts_cannot_reserve_unbounded_memory() {
        // Fuzz finding: a header declaring u32::MAX objects used to
        // feed Vec::with_capacity directly — a 4-billion-slot reserve
        // from a 12-byte image. Now it errors on the missing elements
        // after at most PREALLOC_CAP slots of reserve.
        let mut enc = Encoder::new();
        enc.put_u32(ROV1_MAGIC);
        enc.put_u32(u32::MAX);
        assert!(decode_checkpoint(&enc.into_vec()).is_err());
    }

    #[test]
    fn truncated_images_are_rejected_whole() {
        let bytes = encode_checkpoint(&sample());
        for cut in [1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_checkpoint(&sample());
        bytes.push(0);
        assert!(decode_checkpoint(&bytes).is_err());
    }
}
