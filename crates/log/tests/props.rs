//! Property tests for the stable log: recovery after an arbitrary torn
//! crash always yields an intact prefix of what was flushed, never
//! garbage, never reordering.

use proptest::prelude::*;

use rover_log::{FaultKind, FaultStore, FlushPolicy, MemStore, OpLog, RecordKind};

proptest! {
    #[test]
    fn recovery_yields_intact_flushed_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..300), 1..30,
        ),
        tear in any::<u64>(),
        compress: bool,
    ) {
        let mut log =
            OpLog::open_with(MemStore::new(), FlushPolicy::PerOperation, compress).unwrap();
        for p in &payloads {
            log.append(RecordKind::Request, p.clone()).unwrap();
        }
        let durable = log.device_len();
        let torn = (tear % (durable + 1)) as usize;
        let store = log.into_store().crash(Some(torn));

        let recovered = OpLog::open(store).unwrap();
        let recs: Vec<_> = recovered.records().collect();
        // A prefix: every recovered record matches the append order.
        prop_assert!(recs.len() <= payloads.len());
        for (i, r) in recs.iter().enumerate() {
            prop_assert_eq!(r.seq, (i + 1) as u64);
            prop_assert_eq!(&r.payload, &payloads[i]);
            prop_assert_eq!(r.kind, RecordKind::Request);
        }
        // Tearing zero bytes recovers everything.
        if torn == durable as usize {
            prop_assert_eq!(recs.len(), payloads.len());
        }
    }

    #[test]
    fn unflushed_records_never_survive_crash(
        flushed in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 0..10),
        unflushed in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 1..10),
    ) {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).unwrap();
        for p in &flushed {
            log.append(RecordKind::Request, p.clone()).unwrap();
        }
        log.flush().unwrap();
        for p in &unflushed {
            log.append(RecordKind::TentativeOp, p.clone()).unwrap();
        }
        let store = log.into_store().crash(None);
        let recovered = OpLog::open(store).unwrap();
        prop_assert_eq!(recovered.len(), flushed.len());
        prop_assert!(recovered.records().all(|r| r.kind == RecordKind::Request));
    }

    #[test]
    fn compaction_preserves_live_records(
        n in 1usize..25,
        remove_mask in any::<u32>(),
        compress: bool,
    ) {
        let mut log =
            OpLog::open_with(MemStore::new(), FlushPolicy::PerOperation, compress).unwrap();
        let mut seqs = Vec::new();
        for i in 0..n {
            seqs.push(log.append(RecordKind::Request, vec![i as u8; 50]).unwrap());
        }
        let mut kept = Vec::new();
        for (i, s) in seqs.iter().enumerate() {
            if remove_mask & (1 << (i % 32)) != 0 {
                log.remove(*s).unwrap();
            } else {
                kept.push(*s);
            }
        }
        log.compact().unwrap();
        let store = log.into_store();
        let recovered = OpLog::open(store).unwrap();
        let got: Vec<u64> = recovered.records().map(|r| r.seq).collect();
        prop_assert_eq!(got, kept);
    }

    // Chaos-plane stable-storage invariant: across any sequence of
    // appends, flushes, removals, and compactions over a `FaultStore`
    // with scripted short writes / failed syncs / ENOSPC, a crash never
    // loses a record that a successful `sync` (or compaction) had
    // reported durable — unless the application itself removed it.
    #[test]
    fn compaction_through_faultstore_keeps_reported_durable_records(
        ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..50),
        faults in proptest::collection::vec((0u32..4000, 0u8..3), 0..8),
    ) {
        let mut store = FaultStore::new(MemStore::new());
        let mut script: Vec<(u64, FaultKind)> = faults
            .iter()
            .map(|&(at, k)| {
                (at as u64, match k {
                    0 => FaultKind::ShortWrite,
                    1 => FaultKind::FailSync,
                    _ => FaultKind::Enospc,
                })
            })
            .collect();
        script.sort_by_key(|f| f.0);
        for (at, kind) in script {
            store.push_fault(at, kind);
        }

        let mut log = OpLog::open_with(store, FlushPolicy::Manual, false).unwrap();
        let mut appended: Vec<u64> = Vec::new();
        let mut payload_of = std::collections::BTreeMap::new();
        let mut removed = std::collections::BTreeSet::new();
        let mut durable = std::collections::BTreeSet::new();
        for &(op, arg) in &ops {
            match op {
                0 => {
                    let payload = vec![(arg % 251) as u8; (arg % 200) as usize + 1];
                    let seq = log.append(RecordKind::Request, payload.clone()).unwrap();
                    payload_of.insert(seq, payload);
                    appended.push(seq);
                }
                1 => {
                    // A successful flush reports everything appended so
                    // far durable (including remnants a previous faulted
                    // sync left behind).
                    if log.flush().is_ok() {
                        durable.extend(appended.iter().copied());
                    }
                }
                2 => {
                    if !appended.is_empty() {
                        let seq = appended[arg as usize % appended.len()];
                        if removed.insert(seq) {
                            log.remove(seq).unwrap();
                        }
                    }
                }
                _ => {
                    // Compaction rewrites the device with exactly the
                    // live records; on success they are durable, on an
                    // injected failure the old image must survive.
                    if log.compact().is_ok() {
                        durable.extend(
                            appended.iter().filter(|s| !removed.contains(s)).copied(),
                        );
                    }
                }
            }
        }

        let inner = log.into_store().into_inner().crash(None);
        let recovered = OpLog::open(inner).unwrap();
        let got: std::collections::BTreeMap<u64, Vec<u8>> = recovered
            .records()
            .map(|r| (r.seq, r.payload.to_vec()))
            .collect();
        for seq in durable.difference(&removed) {
            prop_assert!(got.contains_key(seq), "lost reported-durable record {}", seq);
            prop_assert_eq!(&got[seq], &payload_of[seq], "record {} corrupted", seq);
        }
    }

    #[test]
    fn seq_numbers_strictly_increase_across_recoveries(
        batches in proptest::collection::vec(1usize..6, 1..5),
    ) {
        let mut store = MemStore::new();
        let mut last_seq = 0;
        for batch in batches {
            let mut log = OpLog::open(store).unwrap();
            for _ in 0..batch {
                let s = log.append(RecordKind::Request, b"x".to_vec()).unwrap();
                prop_assert!(s > last_seq);
                last_seq = s;
            }
            store = log.into_store();
        }
    }
}
