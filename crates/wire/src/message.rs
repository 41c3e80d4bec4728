//! QRPC protocol envelopes and toolkit-wide identifier types.
//!
//! A QRPC travels as an [`Envelope`] whose body is a [`QrpcRequest`] or
//! [`QrpcReply`]. Requests carry the operation ([`RoverOp`]), the object
//! name, the session, a scheduling [`Priority`], and the version the
//! client's cached copy was based on (for server-side conflict
//! detection). Replies carry the status, the result payload, and the new
//! committed version.

use bytes::Bytes;

use crate::marshal::{Decoder, Encoder, Wire, WireError};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
        pub struct $name(pub u64);

        impl Wire for $name {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_u64(self.0);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
                Ok($name(dec.get_u64()?))
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_newtype! {
    /// Uniquely identifies one QRPC within a client; replies echo it.
    RequestId
}
id_newtype! {
    /// An application session at a client (scope of session guarantees).
    SessionId
}
id_newtype! {
    /// A monotonically increasing per-object commit version, assigned by
    /// the object's home server.
    Version
}

/// Identifies a host (client or server) on the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

impl Wire for HostId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(HostId(dec.get_u32()?))
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// QRPC scheduling priority; the network scheduler drains lower values
/// first (the paper's scheduler "has several queues for different
/// priorities").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// User is actively waiting (e.g. the document being viewed).
    pub const FOREGROUND: Priority = Priority(0);
    /// Interactive but not blocking (click-ahead requests).
    pub const INTERACTIVE: Priority = Priority(1);
    /// Default priority.
    pub const NORMAL: Priority = Priority(2);
    /// Prefetch and other speculative traffic.
    pub const BACKGROUND: Priority = Priority(3);
    /// Bulk transfers (folder refresh, log drain).
    pub const BULK: Priority = Priority(4);

    /// Number of distinct priority levels.
    pub const LEVELS: usize = 5;
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl Wire for Priority {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Priority(dec.get_u8()?))
    }
}

/// The operation a QRPC asks the home server to perform.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RoverOp {
    /// Fetch an object (RDO code + data) into the client cache.
    Import,
    /// Apply a client-side mutating operation at the home server.
    Export {
        /// Name of the exported method (an RDO method or built-in op).
        method: String,
    },
    /// Invoke a method at the server without importing the object.
    Invoke {
        /// Name of the method to run in the server's RDO environment.
        method: String,
    },
    /// Liveness probe / null RPC (used by E1).
    Ping,
    /// Application-defined operation, dispatched by tag.
    Custom(u16),
}

impl Wire for RoverOp {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RoverOp::Import => enc.put_u8(0),
            RoverOp::Export { method } => {
                enc.put_u8(1);
                enc.put_str(method);
            }
            RoverOp::Invoke { method } => {
                enc.put_u8(2);
                enc.put_str(method);
            }
            RoverOp::Ping => enc.put_u8(3),
            RoverOp::Custom(tag) => {
                enc.put_u8(4);
                enc.put_u16(*tag);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(RoverOp::Import),
            1 => Ok(RoverOp::Export {
                method: dec.get_str()?,
            }),
            2 => Ok(RoverOp::Invoke {
                method: dec.get_str()?,
            }),
            3 => Ok(RoverOp::Ping),
            4 => Ok(RoverOp::Custom(dec.get_u16()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Outcome of a QRPC at the home server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpStatus {
    /// The operation committed.
    Ok,
    /// The operation conflicted and was automatically resolved; the
    /// payload carries the reconciled state.
    Resolved,
    /// The operation conflicted and could not be resolved; it is
    /// reflected back to the user.
    Conflict,
    /// The named object does not exist at this server.
    NoSuchObject,
    /// The named method does not exist on the object.
    NoSuchMethod,
    /// RDO execution failed (script error or budget exhausted).
    ExecError,
    /// The request was malformed or unauthorized.
    Rejected,
    /// The client gave up on the operation after exhausting its
    /// retransmission budget: the home server stayed unreachable. Never
    /// produced by a server — the client's QRPC engine synthesizes it
    /// locally as the graceful end of the retry chain.
    Unreachable,
    /// The receiving shard does not (or no longer does) serve this
    /// object: it migrated to another shard, or a replica holder could
    /// not satisfy the session's read floor. The client re-issues the
    /// operation — fresh request id, re-computed route — rather than
    /// retransmitting; the QRPC engine handles this internally and
    /// applications never observe it.
    WrongShard,
}

impl Wire for OpStatus {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            OpStatus::Ok => 0,
            OpStatus::Resolved => 1,
            OpStatus::Conflict => 2,
            OpStatus::NoSuchObject => 3,
            OpStatus::NoSuchMethod => 4,
            OpStatus::ExecError => 5,
            OpStatus::Rejected => 6,
            OpStatus::Unreachable => 7,
            OpStatus::WrongShard => 8,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.get_u8()? {
            0 => OpStatus::Ok,
            1 => OpStatus::Resolved,
            2 => OpStatus::Conflict,
            3 => OpStatus::NoSuchObject,
            4 => OpStatus::NoSuchMethod,
            5 => OpStatus::ExecError,
            6 => OpStatus::Rejected,
            7 => OpStatus::Unreachable,
            8 => OpStatus::WrongShard,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// A queued remote procedure call request.
#[derive(Clone, PartialEq, Debug)]
pub struct QrpcRequest {
    /// Client-unique request identifier (at-most-once key).
    pub req_id: RequestId,
    /// Originating client host.
    pub client: HostId,
    /// Application session issuing the request.
    pub session: SessionId,
    /// The operation to perform.
    pub op: RoverOp,
    /// Canonical URN of the target object.
    pub urn: String,
    /// Version of the client's cached copy this request was based on
    /// (zero if none); the server detects conflicts against it.
    pub base_version: Version,
    /// Scheduling priority.
    pub priority: Priority,
    /// Authentication token presented to the home server (0 = none).
    /// The paper's Rover server is "a secure setuid application that
    /// authenticates requests from client applications".
    pub auth: u64,
    /// Piggybacked acknowledgement floor: every request id strictly
    /// below this had its reply processed by the client. The server may
    /// safely evict dedup-cache entries below the floor — they can no
    /// longer be retransmitted — and must answer (never re-execute) any
    /// request arriving from below it.
    pub acked_below: u64,
    /// Operation arguments / update payload.
    pub payload: Bytes,
    /// Session read-vector floors carried by cross-shard requests:
    /// `(urn, version)` pairs the issuing session has observed. A shard
    /// must not admit this request while its committed copy of any
    /// listed object is older than the floor — this is how
    /// writes-follow-reads survives shard boundaries and shard
    /// crash-restarts. Encoded as an optional trailer *only when
    /// non-empty*, so single-shard traffic is byte-identical to the
    /// pre-federation wire format.
    pub read_vector: Vec<(String, u64)>,
}

impl Wire for QrpcRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.req_id.encode(enc);
        self.client.encode(enc);
        self.session.encode(enc);
        self.op.encode(enc);
        enc.put_str(&self.urn);
        self.base_version.encode(enc);
        self.priority.encode(enc);
        enc.put_u64(self.auth);
        enc.put_u64(self.acked_below);
        enc.put_bytes(&self.payload);
        if !self.read_vector.is_empty() {
            enc.put_u32(self.read_vector.len() as u32);
            for (urn, floor) in &self.read_vector {
                enc.put_str(urn);
                enc.put_u64(*floor);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let req_id = RequestId::decode(dec)?;
        let client = HostId::decode(dec)?;
        let session = SessionId::decode(dec)?;
        let op = RoverOp::decode(dec)?;
        let urn = dec.get_str()?;
        let base_version = Version::decode(dec)?;
        let priority = Priority::decode(dec)?;
        let auth = dec.get_u64()?;
        let acked_below = dec.get_u64()?;
        let payload = dec.get_bytes_shared()?;
        let mut read_vector = Vec::new();
        if dec.remaining() > 0 {
            let n = dec.get_u32()? as usize;
            for _ in 0..n {
                let u = dec.get_str()?;
                let v = dec.get_u64()?;
                read_vector.push((u, v));
            }
        }
        Ok(QrpcRequest {
            req_id,
            client,
            session,
            op,
            urn,
            base_version,
            priority,
            auth,
            acked_below,
            payload,
            read_vector,
        })
    }
}

/// A reply to a [`QrpcRequest`].
#[derive(Clone, PartialEq, Debug)]
pub struct QrpcReply {
    /// Echo of the request identifier.
    pub req_id: RequestId,
    /// Outcome at the home server.
    pub status: OpStatus,
    /// New committed version of the object (unchanged on failure).
    pub version: Version,
    /// Result payload (imported object, method result, or reconciled
    /// state on [`OpStatus::Resolved`]).
    pub payload: Bytes,
}

impl Wire for QrpcReply {
    fn encode(&self, enc: &mut Encoder) {
        self.req_id.encode(enc);
        self.status.encode(enc);
        self.version.encode(enc);
        enc.put_bytes(&self.payload);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(QrpcReply {
            req_id: RequestId::decode(dec)?,
            status: OpStatus::decode(dec)?,
            version: Version::decode(dec)?,
            payload: dec.get_bytes_shared()?,
        })
    }
}

/// Discriminates envelope bodies on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Body is a [`QrpcRequest`].
    Request,
    /// Body is a [`QrpcReply`].
    Reply,
    /// Transport-level acknowledgement (body is the acked [`RequestId`]).
    Ack,
    /// Body is a [`Fragment`] of a larger message; the transport
    /// reassembles before delivery.
    Fragment,
    /// Server→client cache-invalidation callback: the body names an
    /// object (URN string) and its new committed version.
    Callback,
    /// Body is a [`ReplyBatch`]: several [`QrpcReply`]s to the same
    /// client coalesced into one envelope by the server's group-commit
    /// engine (one set of framing + checksum instead of one per reply).
    ReplyBatch,
    /// Shard→shard hot-set replica publication: the body is a
    /// [`ReplicaFrame`] carrying a version-stamped immutable object
    /// image a home shard pushes to its peers each epoch.
    Replica,
}

/// One version-stamped object image published by a home shard to a
/// peer shard for read offload. Replicas are *volatile*: the receiver
/// serves session-floor-satisfying reads from the image until it
/// crashes (dropping it) or a newer epoch replaces it.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplicaFrame {
    /// Canonical URN of the replicated object.
    pub urn: String,
    /// Committed version of the image at publication time.
    pub version: Version,
    /// Publication epoch (monotone per home shard); late frames from an
    /// older epoch never overwrite a newer image.
    pub epoch: u64,
    /// Encoded `RoverObject` image.
    pub obj: Bytes,
}

impl Wire for ReplicaFrame {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.urn);
        self.version.encode(enc);
        enc.put_u64(self.epoch);
        enc.put_bytes(&self.obj);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ReplicaFrame {
            urn: dec.get_str()?,
            version: Version::decode(dec)?,
            epoch: dec.get_u64()?,
            obj: dec.get_bytes_shared()?,
        })
    }
}

/// Several replies to one client, coalesced into a single envelope.
///
/// The group-commit engine flushes a whole batch of commits with one
/// disk sync; replies that share a destination then share an envelope.
/// Replies appear in execution order, so per-session ordering is
/// preserved — the client completes them in sequence.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReplyBatch {
    /// The coalesced replies, in server execution order.
    pub replies: Vec<QrpcReply>,
}

impl Wire for ReplyBatch {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.replies.len() as u32);
        for r in &self.replies {
            r.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let n = dec.get_u32()? as usize;
        let mut replies = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            replies.push(QrpcReply::decode(dec)?);
        }
        Ok(ReplyBatch { replies })
    }
}

/// One transport-level fragment of a large envelope.
///
/// Links carry packets, not arbitrarily large messages: the network
/// scheduler splits any oversized envelope into MTU-sized fragments so
/// that a high-priority message can preempt a bulk transfer *between*
/// packets — without this, one 100 KiB prefetch would block a
/// foreground request for its entire transmission time.
#[derive(Clone, PartialEq, Debug)]
pub struct Fragment {
    /// Kind of the original (reassembled) envelope.
    pub orig_kind: u8,
    /// Sender-unique id of the original message.
    pub msg_id: u64,
    /// This fragment's index.
    pub idx: u32,
    /// Total fragments in the message.
    pub total: u32,
    /// The payload slice.
    pub chunk: Bytes,
}

impl Wire for Fragment {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.orig_kind);
        enc.put_u64(self.msg_id);
        enc.put_u32(self.idx);
        enc.put_u32(self.total);
        enc.put_bytes(&self.chunk);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Fragment {
            orig_kind: dec.get_u8()?,
            msg_id: dec.get_u64()?,
            idx: dec.get_u32()?,
            total: dec.get_u32()?,
            chunk: dec.get_bytes_shared()?,
        })
    }
}

impl MsgKind {
    /// Stable wire tag for this kind.
    pub fn to_byte(self) -> u8 {
        match self {
            MsgKind::Request => 0,
            MsgKind::Reply => 1,
            MsgKind::Ack => 2,
            MsgKind::Fragment => 3,
            MsgKind::Callback => 4,
            MsgKind::ReplyBatch => 5,
            MsgKind::Replica => 6,
        }
    }

    /// Parses a wire tag.
    pub fn from_byte(b: u8) -> Option<MsgKind> {
        Some(match b {
            0 => MsgKind::Request,
            1 => MsgKind::Reply,
            2 => MsgKind::Ack,
            3 => MsgKind::Fragment,
            4 => MsgKind::Callback,
            5 => MsgKind::ReplyBatch,
            6 => MsgKind::Replica,
            _ => return None,
        })
    }
}

/// The unit handed to the transport layer: a framed, checksummed message.
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope {
    /// Body discriminator.
    pub kind: MsgKind,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Marshalled body ([`QrpcRequest`] or [`QrpcReply`]).
    pub body: Bytes,
}

impl Envelope {
    /// Wraps a request for transport.
    pub fn request(src: HostId, dst: HostId, req: &QrpcRequest) -> Self {
        Envelope {
            kind: MsgKind::Request,
            src,
            dst,
            body: req.to_bytes(),
        }
    }

    /// Wraps a reply for transport.
    pub fn reply(src: HostId, dst: HostId, rep: &QrpcReply) -> Self {
        Envelope {
            kind: MsgKind::Reply,
            src,
            dst,
            body: rep.to_bytes(),
        }
    }

    /// Wraps a coalesced reply batch for transport.
    pub fn reply_batch(src: HostId, dst: HostId, batch: &ReplyBatch) -> Self {
        Envelope {
            kind: MsgKind::ReplyBatch,
            src,
            dst,
            body: batch.to_bytes(),
        }
    }

    /// Returns the total wire size of this envelope in bytes, including
    /// framing; this is the size the link model charges for.
    pub fn wire_size(&self) -> usize {
        // kind + src + dst + len + body + crc32
        1 + 4 + 4 + 4 + self.body.len() + 4
    }
}

impl Wire for Envelope {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.kind.to_byte());
        self.src.encode(enc);
        self.dst.encode(enc);
        enc.put_bytes(&self.body);
        // Frame checksum over the body.
        enc.put_u32(crate::crc32(&self.body));
    }

    // Known without a measuring pass, which would checksum the body.
    fn encoded_len(&self) -> usize {
        self.wire_size()
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = dec.get_u8()?;
        let kind = MsgKind::from_byte(tag).ok_or(WireError::BadTag(tag))?;
        let src = HostId::decode(dec)?;
        let dst = HostId::decode(dec)?;
        let body = dec.get_bytes_shared()?;
        let sum = dec.get_u32()?;
        let computed = crate::crc32(&body);
        if sum != computed {
            return Err(WireError::ChecksumMismatch {
                stored: sum,
                computed,
            });
        }
        Ok(Envelope {
            kind,
            src,
            dst,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> QrpcRequest {
        QrpcRequest {
            req_id: RequestId(42),
            client: HostId(3),
            session: SessionId(7),
            op: RoverOp::Export {
                method: "append".into(),
            },
            urn: "urn:rover:mail/inbox/12".into(),
            base_version: Version(9),
            priority: Priority::INTERACTIVE,
            auth: 0xfeed,
            acked_below: 41,
            payload: Bytes::from_static(b"body bytes"),
            read_vector: Vec::new(),
        }
    }

    #[test]
    fn request_roundtrips() {
        let r = sample_request();
        assert_eq!(QrpcRequest::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn all_ops_roundtrip() {
        for op in [
            RoverOp::Import,
            RoverOp::Export { method: "m".into() },
            RoverOp::Invoke {
                method: "filter".into(),
            },
            RoverOp::Ping,
            RoverOp::Custom(777),
        ] {
            assert_eq!(RoverOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }

    #[test]
    fn all_statuses_roundtrip() {
        for s in [
            OpStatus::Ok,
            OpStatus::Resolved,
            OpStatus::Conflict,
            OpStatus::NoSuchObject,
            OpStatus::NoSuchMethod,
            OpStatus::ExecError,
            OpStatus::Rejected,
            OpStatus::Unreachable,
            OpStatus::WrongShard,
        ] {
            assert_eq!(OpStatus::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn reply_roundtrips() {
        let r = QrpcReply {
            req_id: RequestId(1),
            status: OpStatus::Resolved,
            version: Version(10),
            payload: Bytes::from_static(&[1, 2, 3]),
        };
        assert_eq!(QrpcReply::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn envelope_roundtrips_and_checks() {
        let env = Envelope::request(HostId(1), HostId(2), &sample_request());
        let bytes = env.to_bytes();
        assert_eq!(bytes.len(), env.wire_size());
        let back = Envelope::from_bytes(&bytes).unwrap();
        assert_eq!(back, env);
        let req = QrpcRequest::from_bytes(&back.body).unwrap();
        assert_eq!(req, sample_request());
    }

    #[test]
    fn shared_decode_is_zero_copy_end_to_end() {
        let env = Envelope::request(HostId(1), HostId(2), &sample_request());
        let bytes = env.to_bytes();
        let back = Envelope::from_shared(&bytes).unwrap();
        assert_eq!(back, env);
        // kind(1) + src(4) + dst(4) + len(4) = 13 bytes of framing: the
        // body must alias the wire buffer, not be a fresh allocation.
        assert!(std::ptr::eq(back.body.as_ptr(), bytes[13..].as_ptr()));
        // Second hop: the request payload aliases the envelope body.
        let req = QrpcRequest::from_shared(&back.body).unwrap();
        assert_eq!(req, sample_request());
        let tail = back.body.len() - req.payload.len();
        assert!(std::ptr::eq(
            req.payload.as_ptr(),
            back.body[tail..].as_ptr()
        ));
    }

    #[test]
    fn corrupted_envelope_is_rejected() {
        let env = Envelope::request(HostId(1), HostId(2), &sample_request());
        let mut bytes = env.to_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Envelope::from_bytes(&bytes),
            Err(WireError::ChecksumMismatch { .. }) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn reply_batch_roundtrips_and_saves_framing() {
        let replies: Vec<QrpcReply> = (0..3)
            .map(|i| QrpcReply {
                req_id: RequestId(i),
                status: OpStatus::Ok,
                version: Version(i + 1),
                payload: Bytes::from_static(b"state"),
            })
            .collect();
        let batch = ReplyBatch {
            replies: replies.clone(),
        };
        let env = Envelope::reply_batch(HostId(1), HostId(2), &batch);
        assert_eq!(env.kind, MsgKind::ReplyBatch);
        let back = ReplyBatch::from_bytes(&env.body).unwrap();
        assert_eq!(back.replies, replies);
        // One envelope's framing is cheaper than three envelopes'.
        let separate: usize = replies
            .iter()
            .map(|r| Envelope::reply(HostId(1), HostId(2), r).wire_size())
            .sum();
        assert!(env.wire_size() < separate);
    }

    #[test]
    fn truncated_reply_batch_fails_cleanly() {
        let batch = ReplyBatch {
            replies: vec![QrpcReply {
                req_id: RequestId(9),
                status: OpStatus::Resolved,
                version: Version(2),
                payload: Bytes::from_static(b"xyz"),
            }],
        };
        let bytes = batch.to_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(ReplyBatch::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::FOREGROUND < Priority::INTERACTIVE);
        assert!(Priority::BACKGROUND < Priority::BULK);
        assert_eq!(Priority::default(), Priority::NORMAL);
    }

    #[test]
    fn replica_frame_roundtrips() {
        let f = ReplicaFrame {
            urn: "urn:rover:scale/obj7".into(),
            version: Version(41),
            epoch: 3,
            obj: Bytes::from_static(b"encoded object image"),
        };
        assert_eq!(ReplicaFrame::from_bytes(&f.to_bytes()).unwrap(), f);
        for cut in [0, 3, f.to_bytes().len() - 1] {
            assert!(ReplicaFrame::from_bytes(&f.to_bytes()[..cut]).is_err());
        }
        assert_eq!(MsgKind::from_byte(6), Some(MsgKind::Replica));
        assert_eq!(MsgKind::Replica.to_byte(), 6);
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(RoverOp::from_bytes(&[9]).is_err());
        assert!(OpStatus::from_bytes(&[200]).is_err());
    }
}
