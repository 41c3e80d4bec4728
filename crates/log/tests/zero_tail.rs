//! The zero-tail geometry of `FileStore`, and the scan rule that reads
//! it: bytes past the log are zero, a zero remainder is a clean end, and
//! a header torn and completed by zeros is a torn header, not an empty
//! record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use rover_log::{FileStore, FlushPolicy, MemStore, OpLog, RecordKind, StableStore};

/// A fresh scratch directory per proptest case.
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rover-zero-tail-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replays the raw file the way `recover_snapshot` does: a copy in a
/// `MemStore`, the file untouched.
fn replay_raw(path: &Path) -> BTreeMap<u64, Vec<u8>> {
    let mut store = MemStore::new();
    store.reset(&std::fs::read(path).unwrap()).unwrap();
    let log = OpLog::open(store).unwrap();
    assert_eq!(log.scan_report().issue, None);
    log.records().map(|r| (r.seq, r.payload.to_vec())).collect()
}

#[derive(Clone, Debug)]
enum Op {
    Append(usize, u8),
    Flush,
    Remove(usize),
    Compact,
    /// Process death and restart: the staged bytes are lost.
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    // Uniform over the arms: appends and flushes are listed twice.
    let append = || (1usize..6000, 1u8..=255).prop_map(|(n, b)| Op::Append(n, b));
    prop_oneof![
        append(),
        append(),
        Just(Op::Flush),
        Just(Op::Flush),
        any::<usize>().prop_map(Op::Remove),
        Just(Op::Compact),
        Just(Op::Reopen),
    ]
}

fn open(path: &Path) -> OpLog<FileStore> {
    let log = OpLog::open_with(FileStore::open(path).unwrap(), FlushPolicy::Manual, false).unwrap();
    assert_eq!(log.scan_report().issue, None);
    assert_eq!(log.tail_skipped_bytes(), 0);
    log
}

proptest! {
    // After every step of a random append / flush / remove / compact /
    // reopen sequence over a real file: every byte past `durable_len()`
    // is zero, the file replays exactly the records the device holds,
    // and a reopen brings back exactly those.
    #[test]
    fn filestore_keeps_a_zero_tail_and_replays_its_records(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let dir = scratch("ops");
        let path = dir.join("ops.wal");
        let mut log = open(&path);
        // What a replay of the device yields; what a flush would add.
        let mut disk: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut staged: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Append(n, b) => {
                    let seq = log.append(RecordKind::Request, vec![b; n]).unwrap();
                    staged.insert(seq, vec![b; n]);
                }
                Op::Flush => {
                    log.flush().unwrap();
                    disk.append(&mut staged);
                }
                Op::Remove(i) => {
                    let seqs: Vec<u64> = log.records().map(|r| r.seq).collect();
                    if !seqs.is_empty() {
                        log.remove(seqs[i % seqs.len()]).unwrap();
                    }
                }
                Op::Compact => {
                    log.compact().unwrap();
                    disk = log.records().map(|r| (r.seq, r.payload.to_vec())).collect();
                    staged.clear();
                }
                Op::Reopen => {
                    drop(log);
                    log = open(&path);
                    staged.clear();
                    let live: BTreeMap<u64, Vec<u8>> =
                        log.records().map(|r| (r.seq, r.payload.to_vec())).collect();
                    prop_assert_eq!(&live, &disk);
                }
            }
            let raw = std::fs::read(&path).unwrap();
            let end = log.device_len() as usize;
            prop_assert!(raw.len() >= end);
            prop_assert!(raw[end..].iter().all(|&b| b == 0), "non-zero past the log after {:?}", op);
            prop_assert_eq!(&replay_raw(&path), &disk);
        }
        // Disk use: the log file and at most one spare.
        let files = std::fs::read_dir(&dir).unwrap().count();
        prop_assert!(files <= 2);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The zero-completion hazard over random logs: zero the last frame
    // from any split point `k` onward (plus a zero tail). Recovery keeps
    // exactly the earlier frames, and a reopen is clean.
    #[test]
    fn last_frame_torn_into_zeros_keeps_exactly_the_earlier_frames(
        payloads in proptest::collection::vec(
            proptest::collection::vec(1u8..=255, 1..200), 1..8,
        ),
        compress: bool,
        split in any::<u64>(),
        tail in 0usize..100,
    ) {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, compress).unwrap();
        let last = payloads.len() - 1;
        for p in &payloads[..last] {
            log.append(RecordKind::Request, p.clone()).unwrap();
        }
        let start = log.buffered_bytes();
        log.append(RecordKind::Request, payloads[last].clone()).unwrap();
        log.flush().unwrap();
        let mut image = log.into_store().read_all().unwrap();
        // Split before the frame's last non-zero byte, so the zeros
        // always change it.
        let end = image.iter().rposition(|&b| b != 0).unwrap() + 1;
        let k = start + (split % (end - start) as u64) as usize;
        image[k..].fill(0);
        image.resize(image.len() + tail, 0);

        let mut store = MemStore::new();
        store.reset(&image).unwrap();
        let log = OpLog::open(store).unwrap();
        let got: Vec<Vec<u8>> = log.records().map(|r| r.payload.to_vec()).collect();
        prop_assert_eq!(&got[..], &payloads[..last]);
        if k > start {
            prop_assert_eq!(log.scan_report().issue.map(|i| i.at()), Some(start as u64));
        }
        let log = OpLog::open(log.into_store()).unwrap();
        prop_assert_eq!(log.scan_report().issue, None);
        prop_assert_eq!(log.tail_skipped_bytes(), 0);
        prop_assert_eq!(log.len(), last);
    }
}
