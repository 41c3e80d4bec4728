//! Exact-length property for this crate's `Wire` impls and for the
//! checkpoint image (see `rover-wire`'s `tests/exact_len.rs` for the
//! messages and records): `encoded_len()` is the length `to_bytes()`
//! produces, and the buffer was allocated once at that size.

use proptest::prelude::*;

use rover_core::{
    encode_checkpoint, CheckpointImage, ExportPayload, InvokePayload, RoverObject, Urn,
};
use rover_wire::{Bytes, OpStatus, QrpcReply, RequestId, Version, Wire};

fn exact<T: Wire>(v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(v.encoded_len(), bytes.len());
    // The only handle, so this is the very vector the encoder wrote.
    let buf = Vec::from(bytes);
    assert_eq!(buf.capacity(), buf.len(), "the buffer grew");
}

fn arb_args() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("\\PC{0,40}", 0..5)
}

fn arb_object() -> impl Strategy<Value = RoverObject> {
    (
        "[a-z]{1,8}/[a-z0-9]{1,12}",
        "[a-z]{0,8}",
        "\\PC{0,200}",
        any::<u64>(),
        proptest::collection::btree_map("[a-z0-9]{0,10}", "\\PC{0,300}", 0..12),
    )
        .prop_map(|(path, type_name, code, version, fields)| {
            let urn = Urn::parse(&format!("urn:rover:{path}")).expect("valid urn");
            let mut obj = RoverObject::new(urn, &type_name).with_code(&code);
            obj.version = Version(version);
            obj.fields = fields.into_iter().collect();
            obj
        })
}

proptest! {
    #[test]
    fn payloads_and_objects(
        method in "[a-z_]{0,12}", args in arb_args(), seq: u64, obj in arb_object(),
    ) {
        exact(&InvokePayload { method: method.clone(), args: args.clone() });
        exact(&ExportPayload { method, args, session_seq: seq });
        exact(&obj);
    }

    #[test]
    fn checkpoint_image(
        objects in proptest::collection::vec(arb_object(), 0..4),
        ids in proptest::collection::vec(any::<u64>(), 0..6),
        client: u32, session: u64, payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let reply = QrpcReply {
            req_id: RequestId(session),
            status: OpStatus::Ok,
            version: Version(1),
            payload: Bytes::from(payload),
        };
        let img = CheckpointImage {
            objects,
            expected_seq: ids.iter().map(|i| ((client, *i), i ^ session)).collect(),
            ack_floors: ids.iter().map(|i| (client, *i)).collect(),
            executed: vec![(client, ids.clone())],
            dedup: ids.iter().map(|i| ((client, *i), reply.clone())).collect(),
        };
        let bytes = encode_checkpoint(&img);
        prop_assert_eq!(bytes.capacity(), bytes.len(), "the buffer grew");
    }
}
