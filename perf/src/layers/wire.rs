//! `wire`: marshalling and framing of the workload's own messages, the
//! exact bytes an operation puts on the wire, and LZSS.

use rover_apps::workload::TextGen;
use rover_core::{RoverObject, Urn};
use rover_wire::{
    compress, decompress, Bytes, Envelope, MsgKind, OpStatus, QrpcReply, QrpcRequest, ReplyBatch,
    RequestId, Version, Wire,
};

use super::{each_us, Out, Shapes, SAMPLES};
use crate::measure::median;

/// A decoded envelope body, so encoding can start from the message.
pub enum Body {
    Request(QrpcRequest),
    Reply(QrpcReply),
    Batch(ReplyBatch),
}

/// The message an envelope carries.
pub fn body(env: &Envelope) -> Result<Body, String> {
    match env.kind {
        MsgKind::Request => QrpcRequest::from_shared(&env.body).map(Body::Request),
        MsgKind::Reply => QrpcReply::from_shared(&env.body).map(Body::Reply),
        MsgKind::ReplyBatch => ReplyBatch::from_shared(&env.body).map(Body::Batch),
        other => return Err(format!("unexpected {other:?} envelope on the tape")),
    }
    .map_err(|e| format!("{:?} body: {e}", env.kind))
}

/// Frame to envelope to message: what a receiver does.
pub fn decode(frame: &Bytes) -> Result<(Envelope, Body), String> {
    let env = Envelope::from_shared(frame).map_err(|e| format!("envelope: {e}"))?;
    let body = body(&env)?;
    Ok((env, body))
}

pub fn encode(env: &Envelope, body: &Body) -> Bytes {
    match body {
        Body::Request(r) => Envelope::request(env.src, env.dst, r),
        Body::Reply(r) => Envelope::reply(env.src, env.dst, r),
        Body::Batch(b) => Envelope::reply_batch(env.src, env.dst, b),
    }
    .to_bytes()
}

const LARGE: usize = 64 * 1024;
const LZSS_CHUNK: usize = 8 * 1024;

pub fn pass(shapes: &Shapes, out: &mut Out) -> Result<(), String> {
    let envelopes: Vec<&Envelope> = shapes
        .envelopes(true)
        .iter()
        .chain(shapes.envelopes(false))
        .collect();
    let frames: Vec<Bytes> = envelopes.iter().map(|e| e.to_bytes()).collect();
    let bodies: Vec<Body> = envelopes
        .iter()
        .map(|e| body(e))
        .collect::<Result<_, _>>()?;
    let n = frames.len() as f64;

    let enc = each_us(SAMPLES, || {
        for (env, body) in envelopes.iter().zip(&bodies) {
            std::hint::black_box(encode(env, body));
        }
    });
    out.put("wire.encode_ns_per_msg", median(&enc) * 1e3 / n, enc.len());
    let dec = each_us(SAMPLES, || {
        for frame in &frames {
            std::hint::black_box(decode(frame).is_ok());
        }
    });
    out.put("wire.decode_ns_per_msg", median(&dec) * 1e3 / n, dec.len());

    let bytes: usize = envelopes.iter().map(|e| e.wire_size()).sum();
    out.put(
        "wire.bytes_per_op",
        bytes as f64 / shapes.tape_ops.max(1) as f64,
        shapes.tape_ops,
    );

    let mut text = TextGen::new(0x64_4B);
    let large = RoverObject::new(Urn::new("bench", "large").expect("static urn"), "blob")
        .with_field("body", &text.text(LARGE));
    let (src, dst) = (envelopes[0].dst, envelopes[0].src);
    let big = each_us(SAMPLES, || {
        let reply = QrpcReply {
            req_id: RequestId(1),
            status: OpStatus::Ok,
            version: Version(1),
            payload: large.to_bytes(),
        };
        std::hint::black_box(Envelope::reply(src, dst, &reply).to_bytes());
    });
    out.put(
        "wire.encode_mb_per_s_large",
        LARGE as f64 / 1e6 / (median(&big) / 1e6),
        big.len(),
    );

    let chunk = text.text(LZSS_CHUNK).into_bytes();
    let packed = compress(&chunk);
    if decompress(&packed).as_deref() != Ok(&chunk[..]) {
        return Err("LZSS did not round-trip".into());
    }
    let mb = LZSS_CHUNK as f64 / 1e6;
    let c = each_us(SAMPLES, || {
        std::hint::black_box(compress(std::hint::black_box(&chunk)));
    });
    out.put(
        "wire.lzss_compress_mb_per_s",
        mb / (median(&c) / 1e6),
        c.len(),
    );
    let d = each_us(SAMPLES, || {
        std::hint::black_box(decompress(std::hint::black_box(&packed)).is_ok());
    });
    out.put(
        "wire.lzss_decompress_mb_per_s",
        mb / (median(&d) / 1e6),
        d.len(),
    );
    Ok(())
}
