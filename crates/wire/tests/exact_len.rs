//! Exact-length property, for every `Wire` impl in this crate:
//! `encoded_len()` is the length `to_bytes()` produces, and the buffer
//! behind `to_bytes()` was allocated once at that size and never grew.

use proptest::prelude::*;

use rover_wire::{
    encode_commit_batch, Bytes, CommitRecord, Encoder, Envelope, Fragment, HostId, MigrateRecord,
    MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest, ReplicaFrame, ReplyBatch, RequestId,
    RoverOp, SessionId, Version, Wire,
};

/// Asserts the buffer was filled to its capacity, not grown into it.
/// `bytes` must be the only handle, so `Vec::from` hands back the very
/// vector the encoder wrote.
fn never_grew(bytes: Bytes) {
    let buf = Vec::from(bytes);
    assert_eq!(buf.capacity(), buf.len(), "the buffer grew");
}

fn exact<T: Wire>(v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(v.encoded_len(), bytes.len());
    never_grew(bytes);
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..2048).prop_map(Bytes::from)
}

fn arb_opt_bytes() -> impl Strategy<Value = Option<Bytes>> {
    prop_oneof![Just(None), arb_bytes().prop_map(Some)]
}

fn arb_op() -> impl Strategy<Value = RoverOp> {
    prop_oneof![
        Just(RoverOp::Import),
        Just(RoverOp::Ping),
        "[a-z_]{0,12}".prop_map(|method| RoverOp::Export { method }),
        "[a-z_]{0,12}".prop_map(|method| RoverOp::Invoke { method }),
        any::<u16>().prop_map(RoverOp::Custom),
    ]
}

fn arb_status() -> impl Strategy<Value = OpStatus> {
    // Every tag `OpStatus::decode` accepts.
    (0u8..9).prop_map(|t| OpStatus::from_bytes(&[t]).expect("valid status tag"))
}

fn arb_request() -> impl Strategy<Value = QrpcRequest> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        arb_op(),
        "urn:rover:[a-z]{1,8}/[a-z0-9/]{0,20}",
        any::<u64>(),
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        arb_bytes(),
        // Empty omits the trailer altogether; both shapes must measure.
        proptest::collection::vec(("urn:rover:[a-z]{1,8}/[a-z]{0,8}", any::<u64>()), 0..4),
    )
        .prop_map(
            |(r, c, s, op, urn, v, p, auth, acked_below, payload, read_vector)| QrpcRequest {
                req_id: RequestId(r),
                client: HostId(c),
                session: SessionId(s),
                op,
                urn,
                base_version: Version(v),
                priority: Priority(p),
                auth,
                acked_below,
                payload,
                read_vector,
            },
        )
}

fn arb_reply() -> impl Strategy<Value = QrpcReply> {
    (any::<u64>(), arb_status(), any::<u64>(), arb_bytes()).prop_map(|(r, status, v, payload)| {
        QrpcReply {
            req_id: RequestId(r),
            status,
            version: Version(v),
            payload,
        }
    })
}

fn arb_commit() -> impl Strategy<Value = CommitRecord> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        "urn:rover:[a-z]{1,8}/[a-z0-9]{0,16}",
        arb_opt_bytes(),
        arb_reply(),
    )
        .prop_map(
            |(client, req, acked_below, session, session_seq, urn, obj, reply)| CommitRecord {
                client: HostId(client),
                req_id: RequestId(req),
                acked_below,
                session: SessionId(session),
                session_seq,
                urn,
                obj,
                reply,
            },
        )
}

proptest! {
    #[test]
    fn identifiers_and_tags(a: u64, b: u32, c: u8, op in arb_op(), status in arb_status()) {
        exact(&RequestId(a));
        exact(&SessionId(a));
        exact(&Version(a));
        exact(&HostId(b));
        exact(&Priority(c));
        exact(&op);
        exact(&status);
    }

    #[test]
    fn requests_and_replies(
        req in arb_request(),
        reply in arb_reply(),
        replies in proptest::collection::vec(arb_reply(), 0..5),
    ) {
        exact(&req);
        exact(&reply);
        exact(&ReplyBatch { replies });
    }

    #[test]
    fn frames(
        urn in "urn:rover:[a-z]{1,8}/[a-z0-9]{0,16}",
        a: u64, b: u64, c: u32, d: u32, kind in 0u8..7, body in arb_bytes(),
    ) {
        exact(&ReplicaFrame { urn, version: Version(a), epoch: b, obj: body.clone() });
        exact(&Fragment { orig_kind: kind, msg_id: a, idx: c, total: d, chunk: body.clone() });
        let env = Envelope {
            kind: MsgKind::from_byte(kind).expect("valid kind tag"),
            src: HostId(c),
            dst: HostId(d),
            body,
        };
        // `Envelope` answers from `wire_size()` instead of measuring:
        // the override must agree with what a measuring pass says.
        prop_assert_eq!(env.wire_size(), env.encoded_len());
        prop_assert_eq!(env.wire_size(), Encoder::measure(|enc| env.encode(enc)));
        exact(&env);
    }

    #[test]
    fn durable_records(
        recs in proptest::collection::vec(arb_commit(), 0..6),
        urn in "urn:rover:[a-z]{1,8}/[a-z0-9]{0,16}",
        obj in arb_opt_bytes(),
    ) {
        for rec in &recs {
            exact(rec);
        }
        exact(&MigrateRecord { urn, obj });
        let batch = encode_commit_batch(&recs);
        let records: usize = recs.iter().map(Wire::encoded_len).sum();
        prop_assert_eq!(batch.len(), 4 + records);
        never_grew(batch);
    }
}
