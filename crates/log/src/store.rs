//! Stable-storage devices backing the operation log.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::oplog::LogError;

/// An append-only stable-storage device.
///
/// Appends are *buffered*; data only survives a crash once
/// [`StableStore::sync`] returns. `reset` rewrites the device contents
/// atomically (used by log compaction).
pub trait StableStore {
    /// Buffers `bytes` at the end of the device.
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError>;

    /// Forces all buffered bytes to stable storage; returns the number of
    /// bytes made durable by this call.
    fn sync(&mut self) -> Result<usize, LogError>;

    /// Reads the entire durable contents (unsynced bytes excluded on a
    /// freshly opened device, included on a live one).
    fn read_all(&mut self) -> Result<Vec<u8>, LogError>;

    /// Atomically replaces the device contents with `bytes` (durable on
    /// return).
    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError>;

    /// Declares where the log ends: the recovery scan found only zeros
    /// from byte `end` to the end of what [`StableStore::read_all`]
    /// returned. A device that keeps a zero tail ([`FileStore`]) adopts
    /// `end` as its length without writing anything; by default the
    /// zeros are dropped with a [`StableStore::reset`]. Called only by
    /// the scan, with nothing staged.
    fn set_end(&mut self, end: u64) -> Result<(), LogError> {
        let mut image = self.read_all()?;
        image.truncate(end as usize);
        self.reset(&image)
    }

    /// Returns the durable length in bytes.
    fn durable_len(&self) -> u64;

    /// Simulates the volatile half of a crash on a *live* device:
    /// buffered (unsynced) bytes vanish, durable bytes survive. Used by
    /// in-place crash/restart paths that cannot consume the store the
    /// way [`MemStore::crash`] does.
    fn drop_staged(&mut self);
}

/// A boxed device is a device: lets non-generic owners (e.g. the server)
/// hold any stable store behind `Box<dyn StableStore>`.
impl StableStore for Box<dyn StableStore> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        (**self).append(bytes)
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        (**self).sync()
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        (**self).read_all()
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        (**self).reset(bytes)
    }

    fn set_end(&mut self, end: u64) -> Result<(), LogError> {
        (**self).set_end(end)
    }

    fn durable_len(&self) -> u64 {
        (**self).durable_len()
    }

    fn drop_staged(&mut self) {
        (**self).drop_staged()
    }
}

/// In-memory stable store with explicit crash semantics, used by the
/// simulator and by crash-recovery tests.
#[derive(Debug, Default)]
pub struct MemStore {
    durable: Vec<u8>,
    staged: Vec<u8>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a crash: all unsynced bytes vanish, and optionally the
    /// durable tail is torn back to `torn_len` bytes (a partial sector
    /// write). Returns the store as found on "reboot".
    pub fn crash(mut self, torn_len: Option<usize>) -> MemStore {
        self.staged.clear();
        if let Some(n) = torn_len {
            self.durable.truncate(n);
        }
        MemStore {
            durable: self.durable,
            staged: Vec::new(),
        }
    }

    /// Returns the number of staged (unsynced) bytes.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

impl StableStore for MemStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        let n = self.staged.len();
        self.durable.append(&mut self.staged);
        Ok(n)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        let mut all = self.durable.clone();
        all.extend_from_slice(&self.staged);
        Ok(all)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.durable = bytes.to_vec();
        self.staged.clear();
        Ok(())
    }

    fn set_end(&mut self, end: u64) -> Result<(), LogError> {
        self.durable.truncate(end as usize);
        Ok(())
    }

    fn durable_len(&self) -> u64 {
        self.durable.len() as u64
    }

    fn drop_staged(&mut self) {
        self.staged.clear();
    }
}

/// The file grows ahead of the log by at least this much, and at least
/// doubles, always with written zeros: a flush then overwrites allocated
/// blocks, so `fdatasync` has no size change to journal.
const GROW_MIN: u64 = 64 * 1024;
/// Growth rounds up to whole filesystem blocks.
const BLOCK: u64 = 4096;
/// Zeros are written from this buffer.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// One generation's file: log bytes, then zeros to its physical end.
#[derive(Debug)]
struct LogFile {
    file: File,
    /// Physical length.
    len: u64,
    /// Every byte at or past `dirty` is zero. A write raises it before
    /// it is issued, so a failed write is still covered.
    dirty: u64,
}

impl LogFile {
    /// Creates (or truncates) the file at `path`.
    fn create(path: &Path) -> io::Result<LogFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(LogFile {
            file,
            len: 0,
            dirty: 0,
        })
    }

    /// Writes `bytes` at `at` and leaves only zeros after them: the
    /// bytes an earlier, longer write left there are zeroed, and a
    /// write past the physical end grows the file geometrically with
    /// zeros. Not synced.
    fn write_at(&mut self, at: u64, bytes: &[u8]) -> io::Result<()> {
        let end = at + bytes.len() as u64;
        let stale = self.dirty;
        self.dirty = stale.max(end);
        self.file.seek(SeekFrom::Start(at))?;
        self.file.write_all(bytes)?;
        // The cursor is at `end`: the zeros follow the bytes.
        if end > self.len {
            let grown = end
                .max(self.len.saturating_mul(2))
                .max(GROW_MIN)
                .next_multiple_of(BLOCK);
            self.write_zeros(grown - end)?;
            self.len = grown;
        } else if stale > end {
            self.write_zeros(stale - end)?;
        }
        self.dirty = end;
        Ok(())
    }

    fn write_zeros(&mut self, mut n: u64) -> io::Result<()> {
        while n > 0 {
            let chunk = n.min(ZEROS.len() as u64) as usize;
            self.file.write_all(&ZEROS[..chunk])?;
            n -= chunk as u64;
        }
        Ok(())
    }
}

/// Adds `.suffix` to the whole file name, so `a.wal` and `a.log` never
/// share a sibling.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Makes renames in `path`'s directory durable.
fn sync_parent(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// File-backed stable store (real `fsync`), for running the toolkit
/// outside the simulator.
///
/// The file is allocated once and recycled. Every byte past the log is
/// zero and the file grows ahead of the log, so a flush overwrites
/// allocated blocks. A [`StableStore::reset`] writes the new image into
/// the previous generation's file, kept as `<path>.spare`, then swaps
/// names; `path` names a complete, synced image at every instant, and
/// the log never occupies more than two files. Leftover `.spare` and
/// `.prev` names are removed at open.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    spare_path: PathBuf,
    prev_path: PathBuf,
    live: LogFile,
    /// The previous generation's file, once a reset has made one.
    spare: Option<LogFile>,
    staged: Vec<u8>,
    /// Logical length: the log, not the zeros after it. Until a recovery
    /// scan declares the end ([`StableStore::set_end`]), the whole file.
    durable_len: u64,
}

impl FileStore {
    /// Opens (or creates) the log file at `path`.
    pub fn open(path: &Path) -> Result<Self, LogError> {
        let spare_path = sibling(path, "spare");
        let prev_path = sibling(path, "prev");
        for leftover in [&spare_path, &prev_path] {
            remove_if_present(leftover).map_err(LogError::io)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(LogError::io)?;
        let len = file.metadata().map_err(LogError::io)?.len();
        Ok(FileStore {
            path: path.to_path_buf(),
            spare_path,
            prev_path,
            live: LogFile {
                file,
                len,
                dirty: len,
            },
            spare: None,
            staged: Vec::new(),
            durable_len: len,
        })
    }

    /// Writes `bytes` into the spare file and syncs it, then swaps
    /// names: `path` → `.prev` (a second link), `.spare` → `path`,
    /// `.prev` → `.spare`, and one directory fsync. A crash leaves
    /// `path` naming either the old or the new image.
    fn swap_in(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut next = match self.spare.take() {
            Some(f) => f,
            None => {
                // First reset of this process, or one after a failure.
                remove_if_present(&self.prev_path)?;
                LogFile::create(&self.spare_path)?
            }
        };
        next.write_at(0, bytes)?;
        next.file.sync_data()?;
        std::fs::hard_link(&self.path, &self.prev_path)?;
        std::fs::rename(&self.spare_path, &self.path)?;
        let old = std::mem::replace(&mut self.live, next);
        self.durable_len = bytes.len() as u64;
        self.staged.clear();
        std::fs::rename(&self.prev_path, &self.spare_path)?;
        sync_parent(&self.path)?;
        self.spare = Some(old);
        Ok(())
    }
}

impl StableStore for FileStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        let n = self.staged.len();
        if n > 0 {
            self.live
                .write_at(self.durable_len, &self.staged)
                .map_err(LogError::io)?;
            self.live.file.sync_data().map_err(LogError::io)?;
            self.durable_len += n as u64;
            self.staged.clear();
        }
        Ok(n)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        let mut buf = Vec::with_capacity(self.durable_len as usize + self.staged.len());
        let f = &mut self.live.file;
        f.seek(SeekFrom::Start(0)).map_err(LogError::io)?;
        f.take(self.durable_len)
            .read_to_end(&mut buf)
            .map_err(LogError::io)?;
        buf.extend_from_slice(&self.staged);
        Ok(buf)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.swap_in(bytes).map_err(LogError::io)
    }

    fn set_end(&mut self, end: u64) -> Result<(), LogError> {
        // The scan read `durable_len` bytes; a failed write may have
        // left bytes past them, which the next write zeroes.
        if self.live.dirty <= self.durable_len {
            self.live.dirty = end;
        }
        self.durable_len = end;
        Ok(())
    }

    fn durable_len(&self) -> u64 {
        self.durable_len
    }

    fn drop_staged(&mut self) {
        self.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_sync_moves_staged_to_durable() {
        let mut s = MemStore::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.durable_len(), 0);
        assert_eq!(s.staged_len(), 3);
        assert_eq!(s.sync().unwrap(), 3);
        assert_eq!(s.durable_len(), 3);
        assert_eq!(s.read_all().unwrap(), b"abc");
    }

    #[test]
    fn memstore_crash_drops_unsynced() {
        let mut s = MemStore::new();
        s.append(b"durable").unwrap();
        s.sync().unwrap();
        s.append(b"lost").unwrap();
        let mut s = s.crash(None);
        assert_eq!(s.read_all().unwrap(), b"durable");
    }

    #[test]
    fn memstore_crash_can_tear_tail() {
        let mut s = MemStore::new();
        s.append(b"0123456789").unwrap();
        s.sync().unwrap();
        let mut s = s.crash(Some(4));
        assert_eq!(s.read_all().unwrap(), b"0123");
    }

    #[test]
    fn memstore_reset_replaces_contents() {
        let mut s = MemStore::new();
        s.append(b"old").unwrap();
        s.sync().unwrap();
        s.append(b"staged").unwrap();
        s.reset(b"new").unwrap();
        assert_eq!(s.read_all().unwrap(), b"new");
        assert_eq!(s.durable_len(), 3);
    }

    /// A fresh scratch directory for one test.
    pub(crate) fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rover-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The raw file: `(logical bytes, whether everything after is zero)`.
    pub(crate) fn split_file(path: &Path, logical: u64) -> (Vec<u8>, bool) {
        let mut raw = std::fs::read(path).unwrap();
        let tail = raw.split_off(logical as usize);
        (raw, tail.iter().all(|&b| b == 0))
    }

    #[test]
    fn filestore_roundtrips() {
        let dir = scratch("roundtrip");
        let path = dir.join("oplog.bin");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"hello ").unwrap();
            s.append(b"rover").unwrap();
            assert_eq!(s.sync().unwrap(), 11);
            assert_eq!(s.durable_len(), 11);
            // Allocated ahead of the log, with zeros.
            let file_len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(file_len, GROW_MIN);
            assert_eq!(split_file(&path, 11), (b"hello rover".to_vec(), true));
        }
        {
            // A bare reopen sees the whole file; the scan's `set_end`
            // brings it back to the log.
            let mut s = FileStore::open(&path).unwrap();
            assert_eq!(s.durable_len(), GROW_MIN);
            s.set_end(11).unwrap();
            assert_eq!(s.read_all().unwrap(), b"hello rover");
            s.reset(b"compacted").unwrap();
            assert_eq!(s.read_all().unwrap(), b"compacted");
            assert_eq!(split_file(&path, 9), (b"compacted".to_vec(), true));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_grows_geometrically_and_keeps_a_zero_tail() {
        let dir = scratch("grow");
        let path = dir.join("g.wal");
        let mut s = FileStore::open(&path).unwrap();
        let chunk = vec![0xAB; 40_000];
        let mut lens = Vec::new();
        for i in 1..=8u64 {
            s.append(&chunk).unwrap();
            s.sync().unwrap();
            assert_eq!(s.durable_len(), i * chunk.len() as u64);
            let (_, zero) = split_file(&path, s.durable_len());
            assert!(zero, "non-zero byte past the log after flush {i}");
            lens.push(std::fs::metadata(&path).unwrap().len());
        }
        // 64 KiB, then doubling: the file changes size 3 times in 8 flushes.
        lens.dedup();
        assert_eq!(
            lens,
            vec![GROW_MIN, 2 * GROW_MIN, 4 * GROW_MIN, 8 * GROW_MIN]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sibling_names_append_a_suffix() {
        let p = Path::new("/d/a.wal");
        assert_eq!(sibling(p, "spare"), Path::new("/d/a.wal.spare"));
        assert_ne!(sibling(p, "spare"), sibling(Path::new("/d/a.log"), "spare"));
    }

    #[test]
    fn stores_differing_only_in_extension_do_not_share_a_spare() {
        // Regression: the temp file used to be `path.with_extension(..)`,
        // one name for `a.wal` and `a.log`. With a spare that persists
        // between resets, one log's image could be renamed over the
        // other's.
        let dir = scratch("siblings");
        let mut a = FileStore::open(&dir.join("a.wal")).unwrap();
        let mut b = FileStore::open(&dir.join("a.log")).unwrap();
        for round in 0..4u8 {
            a.append(&[b'a', round]).unwrap();
            a.sync().unwrap();
            a.reset(&[b'A', round]).unwrap();
            b.append(&[b'b', round]).unwrap();
            b.sync().unwrap();
            b.reset(&[b'B', round, round]).unwrap();
            assert_eq!(a.read_all().unwrap(), [b'A', round]);
            assert_eq!(b.read_all().unwrap(), [b'B', round, round]);
        }
        for (name, want) in [("a.wal", vec![b'A', 3]), ("a.log", vec![b'B', 3, 3])] {
            let (log, zero) = split_file(&dir.join(name), want.len() as u64);
            assert_eq!((log, zero), (want, true), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod oplog_file_tests {
    use super::tests::{scratch, split_file};
    use super::*;
    use crate::oplog::{OpLog, RecordKind};

    #[test]
    fn oplog_over_filestore_survives_reopen() {
        let dir = scratch("oplog-file");
        let path = dir.join("ops.log");

        let seqs: Vec<u64> = {
            let store = FileStore::open(&path).unwrap();
            let mut log = OpLog::open(store).unwrap();
            (0..8)
                .map(|i| log.append(RecordKind::Request, vec![i as u8; 64]).unwrap())
                .collect()
        };

        // Reopen from disk: everything durable is back.
        let store = FileStore::open(&path).unwrap();
        let mut log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 8);
        for (i, rec) in log.records().enumerate() {
            assert_eq!(rec.seq, seqs[i]);
            assert_eq!(rec.payload[0], i as u8);
        }

        // Remove half, compact, reopen again.
        for s in &seqs[..4] {
            log.remove(*s).unwrap();
        }
        log.compact().unwrap();
        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log.records().next().unwrap().seq, seqs[4]);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frame `i` of the torn-tail tests carries `10 + i` bytes of `i + 1`
    /// (not zero: a tear into zeros must be able to change it).
    fn frame_len(i: usize) -> usize {
        20 + 10 + i // HEADER_LEN + payload
    }

    /// Writes the six-frame master log; returns its logical length.
    fn six_frame_master(path: &Path) -> usize {
        let store = FileStore::open(path).unwrap();
        let mut log = OpLog::open(store).unwrap();
        for i in 0..6usize {
            log.append(RecordKind::Request, vec![i as u8 + 1; 10 + i])
                .unwrap();
        }
        let total: usize = (0..6).map(frame_len).sum();
        assert_eq!(log.device_len() as usize, total);
        assert!(split_file(path, total as u64).1, "zero tail");
        total
    }

    #[test]
    fn filestore_torn_tail_recovery_discards_only_torn_frame() {
        let dir = scratch("torn-file");
        let master = dir.join("master.log");
        let total = six_frame_master(&master);
        let file_len = std::fs::metadata(&master).unwrap().len();

        // Tear the file at arbitrary byte offsets (a crash can tear
        // anywhere: mid-header, mid-payload, on a boundary), both ways a
        // device shows it: the file cut short, or the lost bytes read
        // back as the zeros of the preallocated tail. Recovery keeps
        // exactly the frames fully on disk and leaves a clean log.
        let scratch_log = dir.join("scratch.log");
        for cut in (0..=total).step_by(7).chain([total - 1, total]) {
            for zeros in [false, true] {
                std::fs::copy(&master, &scratch_log).unwrap();
                let mut f = OpenOptions::new().write(true).open(&scratch_log).unwrap();
                if zeros {
                    f.seek(SeekFrom::Start(cut as u64)).unwrap();
                    f.write_all(&vec![0; file_len as usize - cut]).unwrap();
                } else {
                    f.set_len(cut as u64).unwrap();
                }
                f.sync_data().unwrap();
                drop(f);

                let mut intact = 0usize;
                let mut end = 0usize;
                while intact < 6 && end + frame_len(intact) <= cut {
                    end += frame_len(intact);
                    intact += 1;
                }

                let what = format!("cut at byte {cut}, zeros {zeros}");
                let store = FileStore::open(&scratch_log).unwrap();
                let log = OpLog::open(store).unwrap();
                assert_eq!(log.len(), intact, "{what}");
                assert_eq!(log.device_len() as usize, end, "{what}");
                for (i, rec) in log.records().enumerate() {
                    assert_eq!(rec.payload.len(), 10 + i, "{what}");
                    assert_eq!(rec.payload[0], i as u8 + 1, "{what}");
                }
                assert!(split_file(&scratch_log, end as u64).1, "{what}");
                drop(log);
                // The repaired file reopens clean.
                let log = OpLog::open(FileStore::open(&scratch_log).unwrap()).unwrap();
                assert_eq!(log.scan_report().issue, None, "{what}");
                assert_eq!(log.len(), intact, "{what}");
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_reset_replaces_atomically_and_stays_usable() {
        let dir = scratch("reset-file");
        let path = dir.join("ops.log");
        let spare = dir.join("ops.log.spare");

        let mut s = FileStore::open(&path).unwrap();
        s.append(b"abcdefgh").unwrap();
        s.sync().unwrap();
        s.reset(b"new image").unwrap();
        // The old generation is kept as the spare; no `.prev` name is
        // left, and the log file holds the new image, then zeros.
        assert!(spare.exists());
        assert!(!dir.join("ops.log.prev").exists());
        assert_eq!(split_file(&path, 9), (b"new image".to_vec(), true));
        let spare_len = std::fs::metadata(&spare).unwrap().len();

        // The store keeps working through the swapped-in file.
        s.append(b"+tail").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_all().unwrap(), b"new image+tail");

        // The next reset recycles the spare: same inode count, the old
        // generation's bytes zeroed, nothing truncated.
        s.reset(b"third").unwrap();
        assert_eq!(split_file(&path, 5), (b"third".to_vec(), true));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), spare_len);
        assert_eq!(split_file(&spare, 14), (b"new image+tail".to_vec(), true));
        drop(s);

        let mut s = FileStore::open(&path).unwrap();
        s.set_end(5).unwrap();
        assert_eq!(s.read_all().unwrap(), b"third");
        // Open removed the spare; the next reset makes a fresh one.
        assert!(!spare.exists());
        s.reset(b"fourth").unwrap();
        assert_eq!(split_file(&path, 6), (b"fourth".to_vec(), true));
        assert!(spare.exists());

        std::fs::remove_dir_all(&dir).ok();
    }
}
