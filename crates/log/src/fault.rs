//! Scripted stable-storage fault injection: the log half of the chaos
//! plane.
//!
//! [`FaultStore`] wraps any [`StableStore`] and injects storage failures
//! at *scripted byte offsets* of the device's cumulative write stream:
//! short writes (a sync persists only a prefix of the batch), failed
//! syncs (the batch reaches the device cache but is never forced, so a
//! crash loses it), and ENOSPC (nothing written at all). This lets
//! `OpLog` recovery be exercised against arbitrary crash points rather
//! than only the hand-placed tears `MemStore::crash` offers.
//!
//! The wrapper preserves the [`StableStore`] contract observable by the
//! log: a byte is only *reported* durable (counted in a successful
//! `sync` return) once it truly reached the inner device and was synced;
//! a failed `reset` leaves the previous image untouched (atomic
//! replacement).
//!
//! # Examples
//!
//! ```
//! use rover_log::{FaultKind, FaultStore, MemStore, OpLog, RecordKind, StableStore};
//!
//! let mut store = FaultStore::new(MemStore::new());
//! store.push_fault(30, FaultKind::ShortWrite);
//! let mut log = OpLog::open(store).unwrap();
//! log.append(RecordKind::Request, vec![1u8; 64]).unwrap_err(); // short write
//! let inner = log.into_store().into_inner().crash(None);
//! // Recovery sees a torn frame and discards it.
//! assert_eq!(OpLog::open(inner).unwrap().len(), 0);
//! ```

use std::collections::VecDeque;

use crate::oplog::LogError;
use crate::store::StableStore;

/// What kind of storage failure to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The sync persists only the bytes up to the scripted offset, then
    /// fails; the rest of the batch stays buffered in the wrapper. This
    /// is the classic torn write: a crash right after leaves a partial
    /// frame on the device.
    ShortWrite,
    /// The whole batch reaches the device's volatile cache but the sync
    /// itself fails: nothing new is durable, and a crash loses the
    /// batch. (A later successful sync flushes the cached remnant.)
    FailSync,
    /// The device is full: the sync fails without writing anything.
    Enospc,
}

/// One scripted fault, armed at a byte offset of the cumulative write
/// stream (every byte ever submitted to the inner device, across syncs
/// and resets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Fire during the first sync/reset whose write range covers this
    /// offset.
    pub at: u64,
    /// Failure to inject.
    pub kind: FaultKind,
}

/// A [`StableStore`] wrapper that injects scripted faults. Faults fire
/// in script order, each consumed by the first write operation whose
/// byte range reaches its offset.
#[derive(Debug)]
pub struct FaultStore<S: StableStore> {
    inner: S,
    staged: Vec<u8>,
    script: VecDeque<ScriptedFault>,
    /// Cumulative bytes submitted to the inner device.
    written: u64,
    injected: usize,
}

impl<S: StableStore> FaultStore<S> {
    /// Wraps `inner` with an empty fault script (fully transparent until
    /// faults are pushed).
    pub fn new(inner: S) -> Self {
        let written = inner.durable_len();
        FaultStore {
            inner,
            staged: Vec::new(),
            script: VecDeque::new(),
            written,
            injected: 0,
        }
    }

    /// Arms a fault at byte offset `at` of the cumulative write stream.
    pub fn push_fault(&mut self, at: u64, kind: FaultKind) {
        self.script.push_back(ScriptedFault { at, kind });
    }

    /// Number of faults that have fired.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Cumulative bytes submitted to the inner device (useful when
    /// scripting offsets relative to "now").
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner store (e.g. to crash a `MemStore`).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Pops the next fault if this write of `n` bytes reaches it.
    fn take_fault(&mut self, n: u64) -> Option<ScriptedFault> {
        match self.script.front() {
            Some(f) if f.at < self.written + n => {
                self.injected += 1;
                self.script.pop_front()
            }
            _ => None,
        }
    }
}

impl<S: StableStore> StableStore for FaultStore<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        // Buffer locally rather than forwarding, so a short write can
        // land *exactly* at the scripted offset at sync time.
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        if self.staged.is_empty() {
            // Nothing of ours to write, but a previous FailSync may have
            // left cached bytes in the inner device; forward the sync.
            return self.inner.sync();
        }
        let n = self.staged.len() as u64;
        match self.take_fault(n) {
            None => {
                self.inner.append(&self.staged)?;
                let made = self.inner.sync()?;
                self.written += n;
                self.staged.clear();
                Ok(made)
            }
            Some(f) => match f.kind {
                FaultKind::Enospc => Err(LogError::Io(format!(
                    "injected ENOSPC at device offset {}",
                    self.written
                ))),
                FaultKind::FailSync => {
                    self.inner.append(&self.staged)?;
                    self.written += n;
                    self.staged.clear();
                    Err(LogError::Io(format!(
                        "injected sync failure at device offset {}",
                        self.written
                    )))
                }
                FaultKind::ShortWrite => {
                    let keep = f.at.saturating_sub(self.written) as usize;
                    self.inner.append(&self.staged[..keep])?;
                    self.inner.sync()?;
                    self.written += keep as u64;
                    self.staged.drain(..keep);
                    Err(LogError::Io(format!(
                        "injected short write: {keep} of {n} bytes persisted"
                    )))
                }
            },
        }
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        let mut all = self.inner.read_all()?;
        all.extend_from_slice(&self.staged);
        Ok(all)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        let n = bytes.len() as u64;
        if let Some(f) = self.take_fault(n) {
            // Replacement is atomic: a fault mid-reset leaves the old
            // image fully intact, it never tears the device.
            return Err(LogError::Io(format!(
                "injected {:?} during reset at device offset {}",
                f.kind, self.written
            )));
        }
        self.inner.reset(bytes)?;
        self.written += n;
        self.staged.clear();
        Ok(())
    }

    fn set_end(&mut self, end: u64) -> Result<(), LogError> {
        self.inner.set_end(end)
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn drop_staged(&mut self) {
        // Both buffering layers are volatile: the wrapper's own staging
        // area and whatever a FailSync left cached in the inner device.
        self.staged.clear();
        self.inner.drop_staged();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog::{FlushPolicy, OpLog, RecordKind};
    use crate::store::MemStore;

    #[test]
    fn transparent_without_faults() {
        let mut s = FaultStore::new(MemStore::new());
        s.append(b"abc").unwrap();
        assert_eq!(s.sync().unwrap(), 3);
        assert_eq!(s.read_all().unwrap(), b"abc");
        assert_eq!(s.durable_len(), 3);
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn short_write_persists_exact_prefix() {
        let mut s = FaultStore::new(MemStore::new());
        s.push_fault(4, FaultKind::ShortWrite);
        s.append(b"0123456789").unwrap();
        assert!(s.sync().is_err());
        assert_eq!(s.injected(), 1);
        let mut inner = s.into_inner().crash(None);
        assert_eq!(inner.read_all().unwrap(), b"0123");
    }

    #[test]
    fn failed_sync_loses_batch_on_crash_but_flushes_later() {
        let mut s = FaultStore::new(MemStore::new());
        s.push_fault(0, FaultKind::FailSync);
        s.append(b"cached").unwrap();
        assert!(s.sync().is_err());
        // Not crashed: a later sync flushes the cached remnant.
        s.append(b"+more").unwrap();
        assert!(s.sync().is_ok());
        assert_eq!(s.read_all().unwrap(), b"cached+more");

        // Crashing instead would have lost the cached batch.
        let mut s2 = FaultStore::new(MemStore::new());
        s2.push_fault(0, FaultKind::FailSync);
        s2.append(b"cached").unwrap();
        assert!(s2.sync().is_err());
        let mut inner = s2.into_inner().crash(None);
        assert_eq!(inner.read_all().unwrap(), b"");
    }

    #[test]
    fn enospc_writes_nothing() {
        let mut s = FaultStore::new(MemStore::new());
        s.append(b"first").unwrap();
        s.sync().unwrap();
        s.push_fault(5, FaultKind::Enospc);
        s.append(b"second").unwrap();
        assert!(s.sync().is_err());
        let mut inner = s.into_inner().crash(None);
        assert_eq!(inner.read_all().unwrap(), b"first");
    }

    #[test]
    fn failed_reset_keeps_old_image() {
        let mut s = FaultStore::new(MemStore::new());
        s.append(b"old image").unwrap();
        s.sync().unwrap();
        s.push_fault(s.written(), FaultKind::Enospc);
        assert!(s.reset(b"new image").is_err());
        assert_eq!(s.read_all().unwrap(), b"old image");
    }

    #[test]
    fn oplog_recovers_cleanly_from_scripted_torn_frame() {
        let mut store = FaultStore::new(MemStore::new());
        let mut log = OpLog::open(store).unwrap();
        log.append(RecordKind::Request, b"solid".to_vec()).unwrap();
        let cut = log.device_len() + 10; // mid-header of the next frame
        store = log.into_store();
        store.push_fault(cut, FaultKind::ShortWrite);
        let mut log = OpLog::open(store).unwrap();
        assert!(log.append(RecordKind::Request, b"torn!".to_vec()).is_err());
        let inner = log.into_store().into_inner().crash(None);
        let log = OpLog::open(inner).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records().next().unwrap().payload, b"solid");
    }

    #[test]
    fn oplog_group_commit_over_faultstore_loses_only_unsynced() {
        let mut store = FaultStore::new(MemStore::new());
        store.push_fault(u64::MAX, FaultKind::Enospc); // never fires
        let mut log = OpLog::open_with(store, FlushPolicy::Manual, false).unwrap();
        log.append(RecordKind::Request, b"durable".to_vec())
            .unwrap();
        log.flush().unwrap();
        log.append(RecordKind::Request, b"volatile".to_vec())
            .unwrap();
        let inner = log.into_store().into_inner().crash(None);
        let log = OpLog::open(inner).unwrap();
        assert_eq!(log.len(), 1);
    }
}
