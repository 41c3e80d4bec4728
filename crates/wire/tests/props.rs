//! Property tests: every marshalled value decodes to itself, LZSS is
//! lossless on arbitrary bytes, corruption never passes the checksum
//! silently, and fragmentation reassembles under any arrival order.

use proptest::prelude::*;

use rover_wire::{
    compress, decompress, Bytes, Decoder, Encoder, Envelope, Fragment, HostId, MsgKind, OpStatus,
    Priority, QrpcReply, QrpcRequest, RequestId, RoverOp, SessionId, Version, Wire,
};

fn arb_op() -> impl Strategy<Value = RoverOp> {
    prop_oneof![
        Just(RoverOp::Import),
        Just(RoverOp::Ping),
        "[a-z_]{1,12}".prop_map(|m| RoverOp::Export { method: m }),
        "[a-z_]{1,12}".prop_map(|m| RoverOp::Invoke { method: m }),
        any::<u16>().prop_map(RoverOp::Custom),
    ]
}

fn arb_request() -> impl Strategy<Value = QrpcRequest> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        arb_op(),
        "urn:rover:[a-z]{1,8}/[a-z0-9/]{0,20}",
        any::<u64>(),
        0u8..8,
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(
            |(r, c, s, op, urn, v, p, auth, acked_below, payload)| QrpcRequest {
                req_id: RequestId(r),
                client: HostId(c),
                session: SessionId(s),
                op,
                urn,
                base_version: Version(v),
                priority: Priority(p),
                auth,
                acked_below,
                payload: Bytes::from(payload),
                read_vector: Vec::new(),
            },
        )
}

proptest! {
    #[test]
    fn scalar_fields_roundtrip(
        a: u8, b: u16, c: u32, d: u64, e: i64, f: f64, g: bool,
        s in "\\PC{0,64}", v in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut enc = Encoder::new();
        enc.put_u8(a);
        enc.put_u16(b);
        enc.put_u32(c);
        enc.put_u64(d);
        enc.put_i64(e);
        enc.put_f64(f);
        enc.put_bool(g);
        enc.put_str(&s);
        enc.put_bytes(&v);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.get_u8().unwrap(), a);
        prop_assert_eq!(dec.get_u16().unwrap(), b);
        prop_assert_eq!(dec.get_u32().unwrap(), c);
        prop_assert_eq!(dec.get_u64().unwrap(), d);
        prop_assert_eq!(dec.get_i64().unwrap(), e);
        let f2 = dec.get_f64().unwrap();
        prop_assert!(f2 == f || (f.is_nan() && f2.is_nan()));
        prop_assert_eq!(dec.get_bool().unwrap(), g);
        prop_assert_eq!(dec.get_str().unwrap(), s);
        prop_assert_eq!(dec.get_bytes().unwrap(), v);
        dec.expect_end().unwrap();
    }

    #[test]
    fn qrpc_request_roundtrips(req in arb_request()) {
        let bytes = req.to_bytes();
        prop_assert_eq!(QrpcRequest::from_bytes(&bytes).unwrap(), req);
    }

    #[test]
    fn qrpc_reply_roundtrips(
        r: u64, v: u64, payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let reply = QrpcReply {
            req_id: RequestId(r),
            status: OpStatus::Resolved,
            version: Version(v),
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(QrpcReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
    }

    #[test]
    fn truncated_decodes_never_panic(req in arb_request(), cut in 0usize..64) {
        let bytes = req.to_bytes();
        let cut = cut.min(bytes.len());
        // Any prefix either errors cleanly or (cut == len) succeeds.
        let _ = QrpcRequest::from_bytes(&bytes[..cut]);
    }

    #[test]
    fn lzss_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let z = compress(&data);
        prop_assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn lzss_expansion_is_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let z = compress(&data);
        prop_assert!(z.len() <= data.len() + data.len() / 8 + 9);
    }

    #[test]
    fn envelope_single_byte_corruption_is_caught(
        req in arb_request(), pos_seed: usize, flip in 1u8..=255,
    ) {
        let env = Envelope::request(HostId(1), HostId(2), &req);
        let mut bytes = env.to_bytes().to_vec();
        // Corrupt within the checksummed body region only (after the
        // 13-byte header, before the trailing 4-byte CRC).
        if bytes.len() > 17 {
            let lo = 13;
            let hi = bytes.len() - 4;
            let pos = lo + pos_seed % (hi - lo);
            bytes[pos] ^= flip;
            prop_assert!(Envelope::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn fragments_reassemble_in_any_order(
        body in proptest::collection::vec(any::<u8>(), 1..12_000),
        mtu in 64usize..2048,
        seed: u64,
    ) {
        let env = Envelope {
            kind: MsgKind::Reply,
            src: HostId(1),
            dst: HostId(2),
            body: Bytes::from(body),
        };
        let mut frags = rover_net_like_split(env.clone(), mtu);
        // Deterministic shuffle.
        let mut s = seed;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }
        let mut re = ReassemblerShim::default();
        let mut out = None;
        for f in frags {
            if let Some(m) = re.accept(f) {
                out = Some(m);
            }
        }
        prop_assert_eq!(out, Some(env));
    }
}

// The fragment split/reassembly logic lives in rover-net; rover-wire
// only defines the Fragment frame. This shim mirrors the algorithm to
// property-test the *frame format* without a circular dev-dependency.
fn rover_net_like_split(env: Envelope, mtu: usize) -> Vec<Envelope> {
    if env.body.len() <= mtu {
        return vec![env];
    }
    let total = env.body.len().div_ceil(mtu) as u32;
    (0..total)
        .map(|idx| {
            let start = idx as usize * mtu;
            let end = (start + mtu).min(env.body.len());
            let frag = Fragment {
                orig_kind: env.kind.to_byte(),
                msg_id: 42,
                idx,
                total,
                chunk: env.body.slice(start..end),
            };
            Envelope {
                kind: MsgKind::Fragment,
                src: env.src,
                dst: env.dst,
                body: frag.to_bytes(),
            }
        })
        .collect()
}

#[derive(Default)]
struct ReassemblerShim {
    chunks: Vec<Option<Bytes>>,
    kind: Option<MsgKind>,
    got: usize,
}

impl ReassemblerShim {
    fn accept(&mut self, env: Envelope) -> Option<Envelope> {
        if env.kind != MsgKind::Fragment {
            return Some(env);
        }
        let frag = Fragment::from_bytes(&env.body).ok()?;
        if self.chunks.is_empty() {
            self.chunks = vec![None; frag.total as usize];
            self.kind = MsgKind::from_byte(frag.orig_kind);
        }
        if self.chunks[frag.idx as usize].is_none() {
            self.chunks[frag.idx as usize] = Some(frag.chunk);
            self.got += 1;
        }
        if self.got == self.chunks.len() {
            let mut body = Vec::new();
            for c in self.chunks.drain(..) {
                body.extend_from_slice(&c.expect("complete"));
            }
            return Some(Envelope {
                kind: self.kind.expect("set"),
                src: env.src,
                dst: env.dst,
                body: Bytes::from(body),
            });
        }
        None
    }
}
