//! The seed corpus: *valid* encodings of every frame each codec
//! accepts. Mutations start from structure, not noise — a bit flip in
//! a valid commit batch exercises deep decoder paths a random byte
//! soup never reaches.

use rover_core::{encode_checkpoint, CheckpointImage, RoverObject, Urn};
use rover_log::{FlushPolicy, MemStore, OpLog, RecordKind, StableStore};
use rover_wire::{
    compress, encode_commit_batch, Bytes, CommitRecord, Envelope, Fragment, HostId, MigrateRecord,
    MsgKind, OpStatus, Priority, QrpcReply, QrpcRequest, ReplicaFrame, ReplyBatch, RequestId,
    RoverOp, SessionId, Version, Wire,
};

/// Which decoder a wire-plane corpus entry seeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireTarget {
    /// Framed, checksummed [`Envelope`].
    Envelope,
    /// [`QrpcRequest`] body.
    Request,
    /// [`QrpcReply`] body.
    Reply,
    /// [`ReplyBatch`] body.
    ReplyBatch,
    /// [`ReplicaFrame`] body.
    Replica,
    /// [`Fragment`] body.
    Fragment,
    /// Single [`CommitRecord`] WAL payload.
    Commit,
    /// Group-commit batch WAL payload.
    CommitBatch,
    /// [`MigrateRecord`] WAL payload.
    Migrate,
    /// `ROV1`/`ROV2` checkpoint image.
    Checkpoint,
    /// LZSS-compressed stream.
    Lzss,
}

impl WireTarget {
    /// Short display name (used by `--repro` output).
    pub fn name(self) -> &'static str {
        match self {
            WireTarget::Envelope => "envelope",
            WireTarget::Request => "request",
            WireTarget::Reply => "reply",
            WireTarget::ReplyBatch => "reply_batch",
            WireTarget::Replica => "replica",
            WireTarget::Fragment => "fragment",
            WireTarget::Commit => "commit",
            WireTarget::CommitBatch => "commit_batch",
            WireTarget::Migrate => "migrate",
            WireTarget::Checkpoint => "checkpoint",
            WireTarget::Lzss => "lzss",
        }
    }
}

fn obj(n: u32) -> RoverObject {
    RoverObject::new(
        Urn::parse(&format!("urn:rover:fuzz/obj-{n}")).expect("static urn"),
        "counter",
    )
    .with_code(
        "proc get {} {rover::get n 0}\nproc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}",
    )
    .with_field("n", &n.to_string())
    .with_field("note", "seed corpus object")
}

fn request(i: u64) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(i),
        client: HostId(7),
        session: SessionId(3),
        op: match i % 4 {
            0 => RoverOp::Import,
            1 => RoverOp::Export {
                method: "add".into(),
            },
            2 => RoverOp::Invoke {
                method: "get".into(),
            },
            _ => RoverOp::Ping,
        },
        urn: format!("urn:rover:fuzz/obj-{i}"),
        base_version: Version(i),
        priority: Priority(1),
        auth: 0xFEED,
        acked_below: i / 2,
        payload: Bytes::from(vec![0xA5; (i as usize % 48) + 1]),
        read_vector: if i.is_multiple_of(3) {
            vec![("urn:rover:fuzz/obj-0".into(), i)]
        } else {
            Vec::new()
        },
    }
}

fn reply(i: u64) -> QrpcReply {
    QrpcReply {
        req_id: RequestId(i),
        status: OpStatus::Ok,
        version: Version(i + 1),
        payload: obj(i as u32).to_bytes(),
    }
}

fn commit(i: u64) -> CommitRecord {
    CommitRecord {
        client: HostId(7),
        req_id: RequestId(i),
        acked_below: i / 2,
        session: SessionId(3),
        session_seq: i,
        urn: format!("urn:rover:fuzz/obj-{i}"),
        obj: if i.is_multiple_of(2) {
            Some(obj(i as u32).to_bytes())
        } else {
            None
        },
        reply: reply(i),
    }
}

fn checkpoint_bytes() -> Vec<u8> {
    encode_checkpoint(&CheckpointImage {
        objects: vec![obj(1), obj(2), obj(3)],
        expected_seq: vec![((7, 3), 5), ((8, 1), 2)],
        ack_floors: vec![(7, 4), (8, 0)],
        executed: vec![(7, vec![4, 5, 6]), (8, vec![1])],
        dedup: vec![((7, 5), reply(5)), ((8, 1), reply(1))],
    })
}

/// The wire-plane seed corpus: one or more valid encodings per target.
pub fn wire_corpus() -> Vec<(WireTarget, Vec<u8>)> {
    let mut out: Vec<(WireTarget, Vec<u8>)> = Vec::new();

    for (i, kind) in [MsgKind::Request, MsgKind::Reply, MsgKind::Callback]
        .into_iter()
        .enumerate()
    {
        let env = Envelope {
            kind,
            src: HostId(1),
            dst: HostId(2),
            body: request(i as u64).to_bytes(),
        };
        out.push((WireTarget::Envelope, env.to_bytes().to_vec()));
    }
    for i in 0..3u64 {
        out.push((WireTarget::Request, request(i).to_bytes().to_vec()));
        out.push((WireTarget::Reply, reply(i).to_bytes().to_vec()));
        out.push((WireTarget::Commit, commit(i).to_bytes().to_vec()));
    }
    out.push((
        WireTarget::ReplyBatch,
        ReplyBatch {
            replies: (0..4).map(reply).collect(),
        }
        .to_bytes()
        .to_vec(),
    ));
    out.push((
        WireTarget::Replica,
        ReplicaFrame {
            urn: "urn:rover:fuzz/obj-1".into(),
            version: Version(9),
            epoch: 4,
            obj: obj(1).to_bytes(),
        }
        .to_bytes()
        .to_vec(),
    ));
    out.push((
        WireTarget::Fragment,
        Fragment {
            orig_kind: MsgKind::Reply.to_byte(),
            msg_id: 11,
            idx: 2,
            total: 5,
            chunk: Bytes::from(vec![0x5A; 64]),
        }
        .to_bytes()
        .to_vec(),
    ));
    out.push((
        WireTarget::CommitBatch,
        encode_commit_batch(&(0..3).map(commit).collect::<Vec<_>>()).to_vec(),
    ));
    for o in [Some(obj(5).to_bytes()), None] {
        out.push((
            WireTarget::Migrate,
            MigrateRecord {
                urn: "urn:rover:fuzz/obj-5".into(),
                obj: o,
            }
            .to_bytes()
            .to_vec(),
        ));
    }
    out.push((WireTarget::Checkpoint, checkpoint_bytes()));
    // LZSS: a stream with real back-references and one incompressible.
    out.push((
        WireTarget::Lzss,
        compress(b"the quick brown fox the quick brown fox the quick brown fox"),
    ));
    out.push((
        WireTarget::Lzss,
        compress(&(0..=255u8).collect::<Vec<u8>>()),
    ));
    out
}

/// The log-plane seed corpus: WAL device images as the recovery scan
/// would read them — valid logs (uncompressed and compressed payload
/// variants), then the shapes a preallocated file takes: a zero tail, a
/// last frame torn into zeros, and a header torn and completed by zeros
/// (`len = 0, crc = 0`). Every image replays at least one record.
pub fn log_corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for compress_payloads in [false, true] {
        let mut log = OpLog::open_with(
            MemStore::new(),
            FlushPolicy::PerOperation,
            compress_payloads,
        )
        .expect("fresh store opens");
        for i in 0..6u64 {
            let kind = match i % 3 {
                0 => RecordKind::Request,
                1 => RecordKind::Completion,
                _ => RecordKind::Other(0x11),
            };
            let payload: Vec<u8> = match i % 2 {
                // Compressible (repeats) and incompressible payloads.
                0 => b"abcabcabcabcabcabcabcabcabcabc".to_vec(),
                _ => (0..40u8).map(|b| b.wrapping_mul(37)).collect(),
            };
            log.append(kind, payload).expect("append to mem store");
        }
        let mut store = log.into_store();
        out.push(store.read_all().expect("mem store read"));
    }
    // A tiny single-record image, so truncation mutations land inside
    // the header often.
    let mut log = OpLog::open(MemStore::new()).expect("fresh store opens");
    log.append(RecordKind::Request, b"x".to_vec())
        .expect("append to mem store");
    let mut store = log.into_store();
    out.push(store.read_all().expect("mem store read"));

    let valid = out[0].clone();
    // The last frame of `valid` starts here (six frames, 30- and
    // 40-byte payloads, 20-byte headers).
    let last = valid.len() - (20 + 40);
    let zero_tailed = |mut image: Vec<u8>| {
        image.resize(image.len() + 256, 0);
        image
    };
    out.push(zero_tailed(valid.clone()));
    let mut torn = valid.clone();
    torn[last + 20 + 17..].fill(0);
    out.push(zero_tailed(torn));
    let mut header = valid;
    header[last + 12..].fill(0);
    out.push(zero_tailed(header));
    out
}

/// The script-plane seed corpus: valid rover-script sources covering
/// substitution, control flow, procs, arrays, expr, and host calls.
pub fn script_corpus() -> Vec<&'static str> {
    vec![
        "set total 0\nforeach x {1 2 3 4} {incr total $x}\nset total",
        "proc add {a b} {expr {$a + $b}}\nadd 2 40",
        "set a(1) one\nset a(2) two\nputs $a(1)$a(2)",
        "if {[string length abc] == 3} {set r yes} else {set r no}\nset r",
        "set i 0\nwhile {$i < 10} {incr i; if {$i == 5} break}\nset i",
        "proc fib {n} {if {$n < 2} {return $n}\nexpr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}}\nfib 10",
        "set s [catch {error boom} msg]\nlist $s $msg",
        "set l {a b c}\nlindex $l [expr {1+1}]",
        "set x [format \"%d-%s\" 7 seven]\nstring toupper $x",
        "for {set i 0} {$i < 3} {incr i} {append out [expr {$i * $i}]}\nset out",
        // Evaluator-contract seeds: every control-flow form, scope rule
        // and accounting edge the outcome digests pin.
        "proc sw {x} {switch -glob $x {a* - b* {return ab} c {return c} default {return other}}}\nlist [sw apple] [sw bee] [sw c] [sw zed]",
        "proc bump {name} {upvar 1 $name v; incr v 2}\nproc run {} {set n 5; bump n; return $n}\nset g 1\nproc touch {} {global g; append g x}\ntouch\nlist [run] $g",
        "set out {}\nforeach {k v} {a 1 b 2 c} {lappend out $k=$v}\nset out",
        "set body {incr n}\nset n 0\nset c {$n < 3}\nwhile $c $body\nif $n $body else {set n -1}\neval set m $n\neval {list $n $m}",
        "proc set {a b} {return hijack}\nset x 4\nlist $x [info procs]",
        "proc deep {n} {if {$n == 0} {return 0}; expr {1 + [deep [expr {$n - 1}]]}}\nlist [deep 6] [catch {deep 40} m] $m",
        "list [catch {expr {1 ? 2 : [error untaken]}} m] $m [catch {expr {0 && [error rhs]}} m] $m",
        "set t 0\nlist [catch {expr {[incr t] + [incr t] / 0}} m] $m $t",
        "if {0} {this is {not parsed} \"} else {set r lazy}\nset r",
        "set n 0\nwhile {$n < 5} {catch {incr n; error x} m}\nlist $n $m [catch {catch {error in} m2; error out} m] $m $m2",
        "array set a {x 1 y 2}\nset k y\nlist $a($k) [array size a] [lsort [array names a]] [info exists a(z)] [expr {$a(x) + $a(y)}]",
        "lassign {1 2 3 4} p q\nlist $p $q [lrange {a b c d} 1 end] [lsort -integer -decreasing {3 10 2}] [string range hello 1 end-1] [lreplace {a b c} 1 1 X Y]",
        "set s 0\nfor {set i 0} {$i < 8} {incr i} {if {$i % 2} continue; if {$i > 5} break; incr s $i}\nputs -nonewline s=\nputs $s",
        "proc opt {a {b 7} args} {list $a $b [llength $args]}\nlist [opt 1] [opt 1 2 3 4] [catch {opt} m] $m [catch {nosuch 1} m] $m",
        "set s 1\nset w \"a\\tb[string length xyz]${s}c\"\nputs $w\nexpr 1 + 2 * $s",
        "proc early {l} {foreach x $l {if {$x > 2} {return $x}}; return none}\nlist [early {1 2 3 4}] [early {}] [catch {break} m] $m [catch {return 9} m] $m",
        "set l {}\nlappend l a {b c}\nlappend l d\nappend q x y\nlist [llength $l] [lindex $l 1] [linsert $l 1 Z] [concat $l {e f}] [join $l ,] [split a.b.c .] $q",
        "expr {(1 < 2) + (3 >= 3) * 2 - (\"a\" eq \"a\") + (5 % 3) + (7 >> 1) + (~1 & 6) + max(1, 2.5) + int(3.9) + (1 ? 0x10 : 0)}",
        // Hostile arithmetic: each of these once panicked the evaluator
        // (i64::MIN / -1, % -1, incr past MAX, negate and abs of MIN).
        "expr {(-9223372036854775807 - 1) / -1}",
        "expr {(-9223372036854775807 - 1) % -1}",
        "set i 9223372036854775807\nincr i",
        "expr {-(-9223372036854775807 - 1)}",
        "expr {abs(-9223372036854775807 - 1)}",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_corpus_entries_all_decode() {
        // The corpus must be *valid* seeds: every entry decodes today.
        for (target, bytes) in wire_corpus() {
            let b = Bytes::from(bytes);
            let ok = match target {
                WireTarget::Envelope => Envelope::from_shared(&b).is_ok(),
                WireTarget::Request => QrpcRequest::from_shared(&b).is_ok(),
                WireTarget::Reply => QrpcReply::from_shared(&b).is_ok(),
                WireTarget::ReplyBatch => ReplyBatch::from_shared(&b).is_ok(),
                WireTarget::Replica => ReplicaFrame::from_shared(&b).is_ok(),
                WireTarget::Fragment => Fragment::from_shared(&b).is_ok(),
                WireTarget::Commit => CommitRecord::from_shared(&b).is_ok(),
                WireTarget::CommitBatch => rover_wire::decode_commit_batch(&b).is_ok(),
                WireTarget::Migrate => MigrateRecord::from_shared(&b).is_ok(),
                WireTarget::Checkpoint => rover_core::decode_checkpoint(&b).is_ok(),
                WireTarget::Lzss => rover_wire::decompress(&b).is_ok(),
            };
            assert!(
                ok,
                "seed corpus entry for {} failed to decode",
                target.name()
            );
        }
    }

    #[test]
    fn log_corpus_images_replay() {
        // The valid and zero-tailed images scan clean; the two torn
        // ones stop at the last frame and keep the five before it.
        let images = log_corpus();
        assert_eq!(images.len(), 6);
        for (i, image) in images.into_iter().enumerate() {
            let mut store = MemStore::new();
            store.reset(&image).expect("reset mem store");
            let log = OpLog::open(store).expect("corpus image opens");
            let report = log.scan_report();
            if i < 4 {
                assert_eq!(
                    (report.issue, report.tail_skipped_bytes),
                    (None, 0),
                    "image {i}"
                );
            } else {
                assert!(report.issue.is_some(), "image {i}");
                assert_eq!(log.len(), 5, "image {i}");
            }
            assert!(!log.is_empty());
        }
    }

    #[test]
    fn script_corpus_sources_all_run() {
        use rover_script::{Interp, NoHost};
        for src in script_corpus() {
            Interp::new()
                .eval(&mut NoHost, src)
                .unwrap_or_else(|e| panic!("seed script failed: {e}\n{src}"));
        }
    }
}
