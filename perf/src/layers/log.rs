//! `log`: framing and CRC over memory, flushes through a real
//! `FileStore`, the device bytes a payload byte costs, and the recovery
//! scan.

use rover_log::{FileStore, FlushPolicy, MemStore, OpLog, RecordKind, StableStore};
use rover_wire::{encode_commit_batch, Bytes, CommitRecord};

use super::wire::{body, Body};
use super::{batch_ns, each_us, Out, Shapes, Traffic, SAMPLES};
use crate::measure::{median, timed};
use crate::workloads::Env;

const KIND: RecordKind = RecordKind::Other(9);
/// Records in the image the recovery scan reads.
const SCAN_RECORDS: u64 = 100_000;
const SCANS: usize = 5;

/// The record this traffic puts in a log: the server's commit record
/// for an export, the client's queued request for an import.
pub fn record_payload(shapes: &Shapes, commits: usize) -> Result<Bytes, String> {
    let request = shapes.envelopes(true).last().ok_or("empty tape")?;
    if shapes.traffic == Traffic::Mail {
        return Ok(request.body.clone());
    }
    let Body::Request(req) = body(request)? else {
        return Err("tape's last client envelope is not a request".into());
    };
    let reply = shapes
        .envelopes(false)
        .iter()
        .rev()
        .find_map(|env| match body(env) {
            Ok(Body::Reply(r)) => Some(r),
            Ok(Body::Batch(mut b)) => b.replies.pop(),
            _ => None,
        })
        .ok_or("no reply on the tape")?;
    let record = CommitRecord {
        client: req.client,
        req_id: req.req_id,
        acked_below: req.acked_below,
        session: req.session,
        session_seq: 1,
        urn: req.urn.clone(),
        // The export reply carries the whole committed object.
        obj: Some(reply.payload.clone()),
        reply,
    };
    Ok(encode_commit_batch(&vec![record; commits]))
}

fn mem_log() -> Result<OpLog<MemStore>, String> {
    OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).map_err(|e| e.to_string())
}

pub fn pass(shapes: &Shapes, env: &Env<'_>, out: &mut Out) -> Result<(), String> {
    let one = record_payload(shapes, 1)?;
    let batch32 = record_payload(shapes, 32)?;

    // Appends pile up in memory, so the log is swapped for a fresh one
    // (outside the timing) every hundred batches.
    let mut ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES / 100 {
        let mut log = mem_log()?;
        ns.extend(batch_ns(100, 100, || {
            log.append(KIND, one.clone()).expect("MemStore append");
        }));
        log.flush().map_err(|e| e.to_string())?;
    }
    out.put("log.append_ns_per_record", median(&ns), ns.len());

    let dir = env.scratch.join("log-pass");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut ratio = 0.0;
    for (payload, p50, p99) in [
        (&batch32, "log.flush32_us_p50", "log.flush32_us_p99"),
        (&one, "log.flush1_us_p50", "log.flush1_us_p99"),
    ] {
        let path = dir.join(format!("{p50}.wal"));
        let store = FileStore::open(&path).map_err(|e| e.to_string())?;
        let mut log =
            OpLog::open_with(store, FlushPolicy::Manual, false).map_err(|e| e.to_string())?;
        let us = each_us(SAMPLES, || {
            log.append(KIND, payload.clone()).expect("FileStore append");
            log.flush().expect("FileStore flush");
        });
        out.put_p50_p99(p50, p99, &us);
        ratio = log.device_len() as f64 / (payload.len() * SAMPLES) as f64;
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Of the single-commit log: framing overhead weighs most there.
    out.put("log.device_bytes_per_payload_byte", ratio, SAMPLES);

    let records = env.size.scale(SCAN_RECORDS);
    let mut log = mem_log()?;
    for _ in 0..records {
        log.append(KIND, one.clone()).map_err(|e| e.to_string())?;
    }
    log.flush().map_err(|e| e.to_string())?;
    let image = log.into_store().read_all().map_err(|e| e.to_string())?;
    let mut scans = Vec::with_capacity(SCANS);
    for _ in 0..SCANS {
        let mut store = MemStore::new();
        store.reset(&image).map_err(|e| e.to_string())?;
        let run = timed(|| OpLog::open(store));
        let log = run.out.map_err(|e| e.to_string())?;
        if log.len() as u64 != records {
            return Err(format!("scan replayed {} of {records} records", log.len()));
        }
        scans.push(run.wall.as_secs_f64());
    }
    out.put(
        "log.scan_records_per_s",
        records as f64 / median(&scans),
        scans.len(),
    );
    Ok(())
}
