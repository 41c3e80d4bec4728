//! The op walk: a traced run's per-op spans. The benchmark walks each
//! recorded operation through the layers' public functions in the order
//! the program would (`wire.encode` -> `wire.decode` ->
//! `script.run_method` -> `log.append` -> `log.flush` -> ...), one span
//! per call, all spans of an op sharing its id. `rover-perf report`
//! turns them into self time per layer.

use rover_cluster::counter_object;
use rover_log::{FileStore, FlushPolicy, OpLog, RecordKind};
use rover_script::{Budget, Value};

use super::log::record_payload;
use super::net::{fragment_round_trip, MTU};
use super::wire::{body, decode, encode};
use super::{Shapes, Traffic};
use crate::trace::Tracer;
use crate::workloads::Env;

/// Times the tape is walked.
const LAPS: usize = 8;

pub fn pass(shapes: &Shapes, env: &Env<'_>, t: &mut Tracer) -> Result<(), String> {
    if !t.is_on() {
        return Ok(());
    }
    let dir = env.scratch.join("walk");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let store = FileStore::open(&dir.join("walk.wal")).map_err(|e| e.to_string())?;
    let mut log = OpLog::open_with(store, FlushPolicy::Manual, false).map_err(|e| e.to_string())?;
    let record = record_payload(shapes, 1)?;
    let mut counter = counter_object();
    let group = shapes.rt.group_batch.max(1);

    let requests = shapes.envelopes(true);
    let replies = shapes.envelopes(false);
    let mut op = 0u64;
    for _ in 0..LAPS {
        for (i, request) in requests.iter().enumerate() {
            op += 1;
            let reply = &replies[i % replies.len()];
            t.span("bench.op", op, |t| -> Result<(), String> {
                let message = body(request)?;
                let frame = t.span("wire.encode", op, |_| encode(request, &message));
                t.span("wire.decode", op, |_| decode(&frame).map(drop))?;
                if shapes.traffic == Traffic::Counter {
                    t.span("script.run_method", op, |_| {
                        counter
                            .run_method("add", &[Value::Int(1)], Budget::default())
                            .map(drop)
                            .map_err(|e| e.to_string())
                    })?;
                    t.span("log.append", op, |_| {
                        log.append(RecordKind::Other(9), record.clone())
                            .map(drop)
                            .map_err(|e| e.to_string())
                    })?;
                    if op.is_multiple_of(group as u64) {
                        t.span("log.flush", op, |_| {
                            log.flush().map(drop).map_err(|e| e.to_string())
                        })?;
                    }
                }
                let message = body(reply)?;
                let frame = t.span("wire.encode", op, |_| encode(reply, &message));
                if shapes.traffic == Traffic::Mail {
                    t.span("net.frag", op, |_| {
                        fragment_round_trip(reply, MTU, op)
                            .map(drop)
                            .ok_or("a reply did not reassemble")
                    })?;
                }
                t.span("wire.decode", op, |_| decode(&frame).map(drop))
            })?;
        }
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
