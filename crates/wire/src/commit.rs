//! Server write-ahead commit records.
//!
//! Every request a home server *executes* is made durable before its
//! reply leaves the host: the server appends one [`CommitRecord`] to its
//! write-ahead log (a `rover-log` `OpLog`) and syncs it. The record
//! carries everything crash-restart recovery needs to rebuild the
//! at-most-once and write-ordering state for that request:
//!
//! - the dedup key (`client`, `req_id`) and the cached [`QrpcReply`] to
//!   replay to retransmissions,
//! - the per-session ordered-write sequence the commit consumed
//!   (`session`, `session_seq`; zero for unordered operations),
//! - the new committed object image (`obj`, an encoded `RoverObject`),
//!   present only when the commit changed the store.
//!
//! The record is the *payload* of a framed `rover-log` record; the log
//! layer supplies the seq number, CRC, and torn-tail recovery semantics.

use bytes::Bytes;

use crate::marshal::{Decoder, Encoder, Wire, WireError};
use crate::message::{HostId, QrpcReply, RequestId, SessionId};

/// One durable commit: an executed request and its effects.
#[derive(Clone, PartialEq, Debug)]
pub struct CommitRecord {
    /// Originating client host (dedup key, ack-floor key).
    pub client: HostId,
    /// Client-unique request id (dedup key).
    pub req_id: RequestId,
    /// Acknowledgement floor piggybacked on the request: every id of
    /// this client strictly below it was acknowledged. Recovery replays
    /// the floor so post-restart eviction stays exactly as permissive.
    pub acked_below: u64,
    /// Session the request ran under.
    pub session: SessionId,
    /// Ordered-write sequence this commit consumed (0 = unordered); the
    /// session's `expected_seq` floor recovers to `session_seq + 1`.
    pub session_seq: u64,
    /// Canonical URN of the target object.
    pub urn: String,
    /// New committed object image (encoded `RoverObject`), present only
    /// when the commit changed the store.
    pub obj: Option<Bytes>,
    /// The reply sent to the client, cached for at-most-once replay.
    pub reply: QrpcReply,
}

impl Wire for CommitRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.client.encode(enc);
        self.req_id.encode(enc);
        enc.put_u64(self.acked_below);
        self.session.encode(enc);
        enc.put_u64(self.session_seq);
        enc.put_str(&self.urn);
        enc.put_opt(self.obj.as_ref(), |e, b| e.put_bytes(b));
        self.reply.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(CommitRecord {
            client: HostId::decode(dec)?,
            req_id: RequestId::decode(dec)?,
            acked_below: dec.get_u64()?,
            session: SessionId::decode(dec)?,
            session_seq: dec.get_u64()?,
            urn: dec.get_str()?,
            obj: dec.get_opt(|d| d.get_bytes_shared())?,
            reply: QrpcReply::decode(dec)?,
        })
    }
}

/// One durable shard-migration step: the load rebalancer re-homing an
/// object from one shard to another.
///
/// The move writes one record on *each* side so both write-ahead logs
/// replay to the post-migration state independently: the source logs a
/// tombstone (`obj: None` — the object left this shard) and the target
/// logs the install (`obj: Some(image)` at its migrated version).
#[derive(Clone, PartialEq, Debug)]
pub struct MigrateRecord {
    /// Canonical URN of the migrated object.
    pub urn: String,
    /// The migrated object image (encoded `RoverObject`): `Some` on the
    /// receiving shard's log, `None` (tombstone) on the source's.
    pub obj: Option<Bytes>,
}

impl Wire for MigrateRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.urn);
        enc.put_opt(self.obj.as_ref(), |e, b| e.put_bytes(b));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(MigrateRecord {
            urn: dec.get_str()?,
            obj: dec.get_opt(|d| d.get_bytes_shared())?,
        })
    }
}

/// Encodes a group-commit batch as one log-record payload: a count
/// followed by the records back to back.
///
/// The whole group travels as a *single* framed WAL record, so the
/// frame's CRC covers every commit in the batch — a crash mid-flush
/// leaves a torn frame that recovery discards whole, never a partially
/// replayed batch. (No reply for any commit in the batch has left the
/// host before the flush succeeded, so discarding the group is safe.)
pub fn encode_commit_batch<'a, I>(records: I) -> Bytes
where
    I: IntoIterator<Item = &'a CommitRecord>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let records = records.into_iter();
    Encoder::exact(|enc| {
        enc.put_u32(records.len() as u32);
        for r in records.clone() {
            r.encode(enc);
        }
    })
    .finish()
}

/// Decodes a batch payload written by [`encode_commit_batch`]. Object
/// images are zero-copy views into `bytes`.
pub fn decode_commit_batch(bytes: &Bytes) -> Result<Vec<CommitRecord>, WireError> {
    let mut dec = Decoder::from_shared(bytes);
    let n = dec.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(CommitRecord::decode(&mut dec)?);
    }
    dec.expect_end()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{OpStatus, Version};

    fn sample(obj: Option<Bytes>) -> CommitRecord {
        CommitRecord {
            client: HostId(12),
            req_id: RequestId(99),
            acked_below: 97,
            session: SessionId(3),
            session_seq: 41,
            urn: "urn:rover:t/counter".into(),
            obj,
            reply: QrpcReply {
                req_id: RequestId(99),
                status: OpStatus::Resolved,
                version: Version(7),
                payload: Bytes::from_static(b"object image"),
            },
        }
    }

    #[test]
    fn commit_record_roundtrips() {
        for rec in [sample(Some(Bytes::from_static(b"new state"))), sample(None)] {
            let back = CommitRecord::from_bytes(&rec.to_bytes()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn commit_record_shared_decode_is_zero_copy() {
        let rec = sample(Some(Bytes::from_static(b"shared image")));
        let wire = rec.to_bytes();
        let mut dec = Decoder::from_shared(&wire);
        let back = CommitRecord::decode(&mut dec).unwrap();
        dec.expect_end().unwrap();
        let obj = back.obj.expect("present");
        // A view of the source buffer, not a copy.
        let w = wire.as_ptr() as usize;
        let o = obj.as_ptr() as usize;
        assert!(o >= w && o + obj.len() <= w + wire.len());
    }

    #[test]
    fn commit_batch_roundtrips() {
        let recs = vec![
            sample(Some(Bytes::from_static(b"one"))),
            sample(None),
            sample(Some(Bytes::from_static(b"three"))),
        ];
        let wire = encode_commit_batch(&recs);
        assert_eq!(decode_commit_batch(&wire).unwrap(), recs);
        assert!(decode_commit_batch(&encode_commit_batch(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn torn_commit_batch_fails_whole() {
        let recs = vec![sample(None), sample(Some(Bytes::from_static(b"img")))];
        let wire = encode_commit_batch(&recs);
        // Any truncation — even one that leaves the first record intact
        // — rejects the whole batch: batch recovery is all-or-nothing.
        for cut in [0, 4, wire.len() / 2, wire.len() - 1] {
            assert!(decode_commit_batch(&wire.slice(..cut)).is_err());
        }
    }

    #[test]
    fn migrate_record_roundtrips_both_sides() {
        let install = MigrateRecord {
            urn: "urn:rover:scale/obj7".into(),
            obj: Some(Bytes::from_static(b"image")),
        };
        let tombstone = MigrateRecord {
            urn: "urn:rover:scale/obj7".into(),
            obj: None,
        };
        for rec in [install, tombstone] {
            let bytes = rec.to_bytes();
            assert_eq!(MigrateRecord::from_bytes(&bytes).unwrap(), rec);
            for cut in [0, 2, bytes.len() - 1] {
                assert!(MigrateRecord::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn truncated_commit_record_fails_cleanly() {
        let rec = sample(None);
        let bytes = rec.to_bytes();
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(CommitRecord::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
