//! The operation log: framed, checksummed, replayable records.
//!
//! Record framing on the device:
//!
//! ```text
//! [magic u16 = 0x5256 "RV"] [flags u8] [seq u64] [kind u8]
//! [len u32] [crc32 u32 over payload] [payload]
//! ```
//!
//! `flags` bit 0 marks an LZSS-compressed payload. No record is empty,
//! so `len` is never zero. Recovery scans from the start and stops at
//! the first frame that is truncated or fails its checksum — exactly
//! the torn-write behaviour a crash mid-flush produces — or at a
//! remainder that is all zeros, which is a clean end: a device may be
//! allocated ahead of the log with zeros ([`crate::FileStore`]).

use std::collections::BTreeMap;
use std::fmt;

use rover_wire::{compress, crc32, decompress, Bytes};

use crate::store::StableStore;

const MAGIC: u16 = 0x5256;
const HEADER_LEN: usize = 2 + 1 + 8 + 1 + 4 + 4;
const FLAG_COMPRESSED: u8 = 0x01;

/// Errors from log operations.
#[derive(Debug)]
pub enum LogError {
    /// Underlying storage failed.
    Io(String),
    /// A record frame failed validation during an explicit (non-recovery)
    /// read.
    Corrupt {
        /// Byte offset of the bad frame.
        at: u64,
    },
    /// The referenced sequence number is not in the log.
    NoSuchRecord(u64),
    /// An append carried an empty payload. No record is empty, so the
    /// recovery scan can read a zero length as a torn header.
    EmptyRecord,
}

impl LogError {
    pub(crate) fn io(e: std::io::Error) -> Self {
        LogError::Io(e.to_string())
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "stable store I/O error: {e}"),
            LogError::Corrupt { at } => write!(f, "corrupt log frame at byte {at}"),
            LogError::NoSuchRecord(seq) => write!(f, "no log record with seq {seq}"),
            LogError::EmptyRecord => write!(f, "empty log record"),
        }
    }
}

impl std::error::Error for LogError {}

/// Why the recovery scan stopped before the end of the device. One torn
/// or corrupt frame ends the scan (everything after it is unreachable —
/// frames are not self-synchronizing), so a scan yields at most one
/// issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanIssue {
    /// Fewer bytes than a frame header remained: a write torn
    /// mid-header. Also a header whose length reads zero: no record is
    /// empty, so that is a header torn and completed by the zeros of a
    /// preallocated tail (`crc32` of nothing is 0, so the checksum
    /// cannot tell).
    TruncatedHeader {
        /// Device offset of the partial frame.
        at: u64,
        /// Bytes that remained (of a zero-completed header: those up
        /// to its last non-zero byte).
        have: usize,
    },
    /// The magic bytes did not match: overwritten or garbage region.
    BadMagic {
        /// Device offset of the bad frame.
        at: u64,
    },
    /// The header's declared payload length exceeds the remaining device
    /// bytes: a write torn mid-payload.
    TornPayload {
        /// Device offset of the torn frame.
        at: u64,
        /// Payload length the header declared.
        declared: usize,
        /// Payload bytes actually present.
        remaining: usize,
    },
    /// The payload failed its CRC: bit rot or a torn overwrite.
    ChecksumMismatch {
        /// Device offset of the corrupt frame.
        at: u64,
    },
    /// A compressed payload failed to decompress (bad stream or budget).
    DecompressFailed {
        /// Device offset of the corrupt frame.
        at: u64,
    },
}

impl ScanIssue {
    /// Stable lowercase reason key, used as the `log.scan_rejected.*`
    /// stats suffix.
    pub fn reason(&self) -> &'static str {
        match self {
            ScanIssue::TruncatedHeader { .. } => "truncated_header",
            ScanIssue::BadMagic { .. } => "bad_magic",
            ScanIssue::TornPayload { .. } => "torn_payload",
            ScanIssue::ChecksumMismatch { .. } => "checksum_mismatch",
            ScanIssue::DecompressFailed { .. } => "decompress_failed",
        }
    }

    /// Device offset where the scan stopped.
    pub fn at(&self) -> u64 {
        match *self {
            ScanIssue::TruncatedHeader { at, .. }
            | ScanIssue::BadMagic { at }
            | ScanIssue::TornPayload { at, .. }
            | ScanIssue::ChecksumMismatch { at }
            | ScanIssue::DecompressFailed { at } => at,
        }
    }
}

impl fmt::Display for ScanIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanIssue::TruncatedHeader { at, have } => {
                write!(f, "truncated header at {at}: only {have} bytes remain")
            }
            ScanIssue::BadMagic { at } => write!(f, "bad frame magic at {at}"),
            ScanIssue::TornPayload {
                at,
                declared,
                remaining,
            } => write!(
                f,
                "torn payload at {at}: header declares {declared} bytes, {remaining} remain"
            ),
            ScanIssue::ChecksumMismatch { at } => write!(f, "payload checksum mismatch at {at}"),
            ScanIssue::DecompressFailed { at } => write!(f, "payload decompression failed at {at}"),
        }
    }
}

/// Outcome of one recovery scan: how much replayed, what (if anything)
/// stopped the scan, and how many tail bytes were discarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScanReport {
    /// Frames successfully replayed.
    pub records: usize,
    /// Why the scan stopped early, if it did.
    pub issue: Option<ScanIssue>,
    /// Unparseable tail bytes discarded: from where the scan stopped
    /// through the last non-zero byte of the device (0 on a clean open).
    /// Zeros are never skipped bytes — not those after a clean end (a
    /// preallocated tail), nor those after a torn frame.
    pub tail_skipped_bytes: u64,
}

/// Classifies log records so recovery can route them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordKind {
    /// A queued QRPC request awaiting delivery.
    Request,
    /// A tentative local update awaiting commit.
    TentativeOp,
    /// A completion marker: the named request's reply was processed, so
    /// recovery must not re-issue it even if its request record is
    /// still on the device (completion markers ride along with later
    /// flushes; losing one is safe — the server's dedup cache absorbs
    /// the re-issue).
    Completion,
    /// Application-defined record.
    Other(u8),
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Request => 0,
            RecordKind::TentativeOp => 1,
            RecordKind::Completion => 2,
            RecordKind::Other(b) => b.max(3),
        }
    }

    fn from_byte(b: u8) -> Self {
        match b {
            0 => RecordKind::Request,
            1 => RecordKind::TentativeOp,
            2 => RecordKind::Completion,
            b => RecordKind::Other(b),
        }
    }
}

/// One durable log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogRecord {
    /// Monotonic sequence number assigned at append.
    pub seq: u64,
    /// Record class.
    pub kind: RecordKind,
    /// Application payload (marshalled QRPC, usually). Held as
    /// refcounted [`Bytes`]: appending a queued QRPC shares the wire
    /// buffer instead of copying it.
    pub payload: Bytes,
}

/// When appended records are forced to stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushPolicy {
    /// Sync on every append — the paper's prototype behaviour; the flush
    /// is on the critical path of each QRPC.
    PerOperation,
    /// Never sync automatically; callers invoke [`OpLog::flush`]
    /// themselves. The client and server group their commits above the
    /// log this way; the "no stable log" ablation arm uses it too.
    Manual,
}

/// What one [`OpLog::flush`] made durable; the toolkit core converts this
/// into virtual time via its stable-storage cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FlushReceipt {
    /// Bytes written to the device by this sync (0 = no-op).
    pub bytes: usize,
    /// Framed records this sync made durable (0 = no-op). Group commit
    /// amortizes one sync over many records; this is the batch size the
    /// flush actually achieved.
    pub records: usize,
    /// Whether a physical sync was issued.
    pub synced: bool,
}

/// The client's stable operation log.
pub struct OpLog<S: StableStore> {
    store: S,
    records: BTreeMap<u64, LogRecord>,
    next_seq: u64,
    policy: FlushPolicy,
    compress: bool,
    buffered: usize,
    appended_since_sync: usize,
    scan: ScanReport,
}

impl<S: StableStore> OpLog<S> {
    /// Opens a log over `store`, replaying any durable records
    /// (crash recovery). Truncated or corrupt tail frames are discarded.
    pub fn open(store: S) -> Result<Self, LogError> {
        Self::open_with(store, FlushPolicy::PerOperation, false)
    }

    /// Opens a log with an explicit flush policy and compression flag.
    pub fn open_with(mut store: S, policy: FlushPolicy, compress: bool) -> Result<Self, LogError> {
        // One refcounted image of the device: replayed payloads are
        // zero-copy views into it (unless compressed).
        let bytes = Bytes::from(store.read_all()?);
        // Past the last non-zero byte is the zero tail: a frame may end
        // inside it, but none starts there.
        let nonzero = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let mut records = BTreeMap::new();
        let mut next_seq = 1;
        let mut pos = 0usize;
        let mut issue = None;
        while pos < nonzero {
            match parse_frame(&bytes, pos) {
                Ok((rec, used)) => {
                    next_seq = next_seq.max(rec.seq + 1);
                    records.insert(rec.seq, rec);
                    pos += used;
                }
                Err(why) => {
                    issue = Some(why);
                    break;
                }
            }
        }
        let skipped = nonzero.saturating_sub(pos);
        if issue.is_some() {
            // Torn/corrupt tail: truncate the device to the parsed
            // prefix, otherwise post-recovery appends land *after* the
            // tear and the next recovery scan stops before them.
            store.reset(&bytes[..pos])?;
        } else if pos < bytes.len() {
            // A clean end followed by zeros: nothing to rewrite.
            store.set_end(pos as u64)?;
        }
        let scan = ScanReport {
            records: records.len(),
            issue,
            tail_skipped_bytes: skipped as u64,
        };
        Ok(OpLog {
            store,
            records,
            next_seq,
            policy,
            compress,
            buffered: 0,
            appended_since_sync: 0,
            scan,
        })
    }

    /// Bytes of unparseable tail (torn or corrupt frames) discarded by
    /// [`OpLog::open`]'s recovery scan; zero on a clean open (see
    /// [`ScanReport::tail_skipped_bytes`]).
    pub fn tail_skipped_bytes(&self) -> u64 {
        self.scan.tail_skipped_bytes
    }

    /// The recovery scan's full report: frames replayed, the typed
    /// reason the scan stopped (if it did), tail bytes discarded.
    pub fn scan_report(&self) -> ScanReport {
        self.scan
    }

    /// Appends a record, returning its sequence number.
    ///
    /// Under [`FlushPolicy::PerOperation`] the record is durable when
    /// this returns; under [`FlushPolicy::Manual`] it becomes durable at
    /// the next explicit [`OpLog::flush`]. An empty payload is
    /// refused ([`LogError::EmptyRecord`]).
    pub fn append(&mut self, kind: RecordKind, payload: impl Into<Bytes>) -> Result<u64, LogError> {
        let rec = self.new_record(kind, payload.into())?;
        let seq = rec.seq;
        let frame = encode_frame(&rec, self.compress);
        self.buffered += frame.len();
        self.store.append(&frame)?;
        self.records.insert(seq, rec);
        self.appended_since_sync += 1;
        if self.policy == FlushPolicy::PerOperation {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Replaces the whole log with one new record, durable on return:
    /// every live record is dropped and the device holds exactly the new
    /// record's frame, written by one atomic [`StableStore::reset`] — a
    /// crash leaves the old log or the new one.
    pub fn replace_all(
        &mut self,
        kind: RecordKind,
        payload: impl Into<Bytes>,
    ) -> Result<u64, LogError> {
        let rec = self.new_record(kind, payload.into())?;
        let seq = rec.seq;
        self.store.reset(&encode_frame(&rec, self.compress))?;
        self.records.clear();
        self.records.insert(seq, rec);
        self.buffered = 0;
        self.appended_since_sync = 0;
        Ok(seq)
    }

    /// Numbers a new record; refuses an empty one.
    fn new_record(&mut self, kind: RecordKind, payload: Bytes) -> Result<LogRecord, LogError> {
        if payload.is_empty() {
            return Err(LogError::EmptyRecord);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(LogRecord { seq, kind, payload })
    }

    /// Forces buffered records to stable storage.
    pub fn flush(&mut self) -> Result<FlushReceipt, LogError> {
        let bytes = self.store.sync()?;
        let receipt = FlushReceipt {
            bytes,
            records: if bytes > 0 {
                self.appended_since_sync
            } else {
                0
            },
            synced: bytes > 0,
        };
        self.buffered = 0;
        self.appended_since_sync = 0;
        Ok(receipt)
    }

    /// Returns the number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the log holds no live records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Returns the number of bytes appended but not yet synced.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Iterates live records in sequence order.
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.values()
    }

    /// Returns the record with sequence number `seq`, if live.
    pub fn get(&self, seq: u64) -> Option<&LogRecord> {
        self.records.get(&seq)
    }

    /// Removes a record (its QRPC completed). The on-device bytes are
    /// reclaimed lazily by [`OpLog::compact`].
    pub fn remove(&mut self, seq: u64) -> Result<LogRecord, LogError> {
        self.records.remove(&seq).ok_or(LogError::NoSuchRecord(seq))
    }

    /// Rewrites the device to contain only live records, reclaiming space
    /// from removed ones. Returns the new device size in bytes.
    pub fn compact(&mut self) -> Result<u64, LogError> {
        let mut out = Vec::new();
        for rec in self.records.values() {
            out.extend_from_slice(&encode_frame(rec, self.compress));
        }
        self.store.reset(&out)?;
        self.buffered = 0;
        self.appended_since_sync = 0;
        Ok(out.len() as u64)
    }

    /// Returns the durable device size in bytes (includes dead records
    /// until [`OpLog::compact`] runs).
    pub fn device_len(&self) -> u64 {
        self.store.durable_len()
    }

    /// Consumes the log, returning the underlying store (for crash
    /// simulation in tests).
    pub fn into_store(self) -> S {
        self.store
    }
}

fn encode_frame(rec: &LogRecord, compress_payload: bool) -> Vec<u8> {
    // `rec.payload.clone()` is a refcount bump, not a copy.
    let (flags, payload) = if compress_payload {
        let z = compress(&rec.payload);
        if z.len() < rec.payload.len() {
            (FLAG_COMPRESSED, Bytes::from(z))
        } else {
            (0, rec.payload.clone())
        }
    } else {
        (0, rec.payload.clone())
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(flags);
    out.extend_from_slice(&rec.seq.to_be_bytes());
    out.push(rec.kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Reads `N` bytes at `at` as a fixed array; `None` past end-of-buffer.
fn read_array<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    let s = buf.get(at..at.checked_add(N)?)?;
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    Some(a)
}

/// Parses one frame from `src` starting at `pos`. The device bytes are
/// untrusted (a crash can tear them anywhere, bit rot can flip anything):
/// every field is bounds-checked, the declared payload length is checked
/// against the *remaining* bytes before any slicing, and decompression
/// runs under the default output budget. The typed error names why the
/// scan stopped; recovery discards everything from there on.
/// Uncompressed payloads are returned as zero-copy views of `src`.
fn parse_frame(src: &Bytes, pos: usize) -> Result<(LogRecord, usize), ScanIssue> {
    let buf = src.get(pos..).unwrap_or(&[]);
    let at = pos as u64;
    if buf.len() < HEADER_LEN {
        return Err(ScanIssue::TruncatedHeader {
            at,
            have: buf.len(),
        });
    }
    let magic = read_array::<2>(buf, 0).map(u16::from_be_bytes);
    if magic != Some(MAGIC) {
        return Err(ScanIssue::BadMagic { at });
    }
    let (flags, kind_byte) = match (buf.get(2), buf.get(11)) {
        (Some(&f), Some(&k)) => (f, k),
        _ => {
            return Err(ScanIssue::TruncatedHeader {
                at,
                have: buf.len(),
            })
        }
    };
    let seq =
        read_array::<8>(buf, 3)
            .map(u64::from_be_bytes)
            .ok_or(ScanIssue::TruncatedHeader {
                at,
                have: buf.len(),
            })?;
    let kind = RecordKind::from_byte(kind_byte);
    let len =
        read_array::<4>(buf, 12)
            .map(u32::from_be_bytes)
            .ok_or(ScanIssue::TruncatedHeader {
                at,
                have: buf.len(),
            })? as usize;
    if len == 0 {
        // Torn inside the header and completed by zeros.
        let have = buf
            .iter()
            .take(HEADER_LEN)
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        return Err(ScanIssue::TruncatedHeader { at, have });
    }
    let sum =
        read_array::<4>(buf, 16)
            .map(u32::from_be_bytes)
            .ok_or(ScanIssue::TruncatedHeader {
                at,
                have: buf.len(),
            })?;
    // The declared length is untrusted: checked math, then a checked
    // slice — a 4 GiB length in a torn header must not allocate or
    // index out of range.
    let end = HEADER_LEN.checked_add(len).ok_or(ScanIssue::TornPayload {
        at,
        declared: len,
        remaining: buf.len() - HEADER_LEN,
    })?;
    let payload = buf.get(HEADER_LEN..end).ok_or(ScanIssue::TornPayload {
        at,
        declared: len,
        remaining: buf.len() - HEADER_LEN,
    })?;
    if crc32(payload) != sum {
        return Err(ScanIssue::ChecksumMismatch { at });
    }
    let payload = if flags & FLAG_COMPRESSED != 0 {
        Bytes::from(decompress(payload).map_err(|_| ScanIssue::DecompressFailed { at })?)
    } else {
        src.slice(pos + HEADER_LEN..pos + end)
    };
    Ok((LogRecord { seq, kind, payload }, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn append_and_replay() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        let s1 = log.append(RecordKind::Request, b"one".to_vec()).unwrap();
        let s2 = log
            .append(RecordKind::TentativeOp, b"two".to_vec())
            .unwrap();
        assert_eq!((s1, s2), (1, 2));

        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        let recs: Vec<_> = log.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, b"one");
        assert_eq!(recs[1].kind, RecordKind::TentativeOp);
    }

    #[test]
    fn per_operation_policy_is_durable_immediately() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"x".to_vec()).unwrap();
        let store = log.into_store().crash(None);
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn manual_policy_loses_unflushed_on_crash() {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).unwrap();
        log.append(RecordKind::Request, b"a".to_vec()).unwrap();
        log.flush().unwrap();
        log.append(RecordKind::Request, b"b".to_vec()).unwrap();
        let store = log.into_store().crash(None);
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records().next().unwrap().payload, b"a");
    }

    #[test]
    fn torn_tail_is_discarded_on_recovery() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"good record".to_vec())
            .unwrap();
        log.append(RecordKind::Request, b"torn record".to_vec())
            .unwrap();
        let durable = log.device_len();
        // Tear the last frame in half.
        let store = log.into_store().crash(Some(durable as usize - 5));
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records().next().unwrap().payload, b"good record");
    }

    #[test]
    fn corrupt_frame_stops_recovery() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"aaaa".to_vec()).unwrap();
        log.append(RecordKind::Request, b"bbbb".to_vec()).unwrap();
        let mut store = log.into_store();
        // Flip a payload byte in the second frame.
        let mut bytes = store.read_all().unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        store.reset(&bytes).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn scan_report_names_the_torn_payload() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"good".to_vec()).unwrap();
        log.append(RecordKind::Request, b"torn".to_vec()).unwrap();
        let durable = log.device_len();
        let store = log.into_store().crash(Some(durable as usize - 2));
        let log = OpLog::open(store).unwrap();
        let report = log.scan_report();
        assert_eq!(report.records, 1);
        assert_eq!(report.tail_skipped_bytes, (HEADER_LEN + 2) as u64);
        assert!(matches!(
            report.issue,
            Some(ScanIssue::TornPayload {
                declared: 4,
                remaining: 2,
                ..
            })
        ));
        assert_eq!(report.issue.unwrap().reason(), "torn_payload");
    }

    #[test]
    fn huge_declared_length_is_a_torn_tail_not_an_allocation() {
        // Fuzz finding: a frame header declaring a ~4 GiB payload on a
        // tiny device must be treated as a torn tail — no slice-index
        // panic, no unbounded allocation, typed accounting.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_be_bytes());
        frame.push(0); // flags
        frame.extend_from_slice(&1u64.to_be_bytes()); // seq
        frame.push(0); // kind
        frame.extend_from_slice(&u32::MAX.to_be_bytes()); // declared len
        frame.extend_from_slice(&0u32.to_be_bytes()); // crc (never reached)
        frame.extend_from_slice(b"only a few real bytes");
        let mut store = MemStore::new();
        store.reset(&frame).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 0);
        assert_eq!(log.tail_skipped_bytes(), frame.len() as u64);
        assert!(matches!(
            log.scan_report().issue,
            Some(ScanIssue::TornPayload {
                at: 0,
                declared,
                ..
            }) if declared == u32::MAX as usize
        ));
    }

    #[test]
    fn overwritten_region_reports_bad_magic() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"ok".to_vec()).unwrap();
        let mut store = log.into_store();
        let mut bytes = store.read_all().unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[0xEE; 40]); // garbage after the frame
        store.reset(&bytes).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
        let issue = log.scan_report().issue.unwrap();
        assert_eq!(issue.reason(), "bad_magic");
        assert_eq!(issue.at(), good as u64);
        assert_eq!(log.tail_skipped_bytes(), 40);
    }

    #[test]
    fn zero_tail_is_a_clean_end_and_is_not_rewritten() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"ok".to_vec()).unwrap();
        let mut store = log.into_store();
        let mut bytes = store.read_all().unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&[0u8; 40]); // preallocated, never written
        store.reset(&bytes).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(
            log.scan_report(),
            ScanReport {
                records: 1,
                issue: None,
                tail_skipped_bytes: 0
            }
        );
        // The store was told where the log ends.
        assert_eq!(log.device_len(), good as u64);
        // An all-zero device is an empty log.
        let mut store = MemStore::new();
        store.reset(&[0u8; 100]).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.scan_report(), ScanReport::default());
    }

    #[test]
    fn garbage_then_zeros_skips_only_the_garbage() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"good".to_vec()).unwrap();
        log.append(RecordKind::Request, b"torn".to_vec()).unwrap();
        let mut store = log.into_store();
        let mut bytes = store.read_all().unwrap();
        let n = bytes.len();
        // The second frame's last two payload bytes never reached the
        // device; it reads them back as zeros, then more zeros.
        bytes[n - 2..].fill(0);
        bytes.extend_from_slice(&[0u8; 64]);
        store.reset(&bytes).unwrap();
        let log = OpLog::open(store).unwrap();
        let report = log.scan_report();
        assert_eq!(report.records, 1);
        assert_eq!(report.issue.unwrap().reason(), "checksum_mismatch");
        assert_eq!(report.tail_skipped_bytes, (HEADER_LEN + 2) as u64);
    }

    #[test]
    fn empty_records_are_refused() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        assert!(matches!(
            log.append(RecordKind::Request, Vec::new()),
            Err(LogError::EmptyRecord)
        ));
        assert!(matches!(
            log.replace_all(RecordKind::Request, Vec::new()),
            Err(LogError::EmptyRecord)
        ));
        assert_eq!(log.device_len(), 0);
        assert_eq!(log.append(RecordKind::Request, b"a".to_vec()).unwrap(), 1);
    }

    #[test]
    fn header_torn_and_completed_by_zeros_is_a_torn_header() {
        // In a preallocated file the bytes a crash did not persist read
        // back as zero. A header torn anywhere after its length field
        // starts reads `len = 0, crc = 0`, and `crc32(&[]) == 0`: before
        // the zero-length rule that parsed as a valid empty record. For
        // the last frame and every split point `k`, zero `[k, end)`:
        // recovery keeps exactly the earlier frames and a reopen is
        // clean.
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"first".to_vec()).unwrap();
        log.append(RecordKind::Other(9), b"second".to_vec())
            .unwrap();
        let mut store = log.into_store();
        let image = store.read_all().unwrap();
        let start = HEADER_LEN + 5;
        for k in start..image.len() {
            let mut torn = image.clone();
            torn[k..].fill(0);
            torn.extend_from_slice(&[0u8; 32]);
            let mut store = MemStore::new();
            store.reset(&torn).unwrap();
            let log = OpLog::open(store).unwrap();
            let recs: Vec<_> = log.records().collect();
            assert_eq!(recs.len(), 1, "split at {k}");
            assert_eq!(recs[0].payload, b"first", "split at {k}");
            let report = log.scan_report();
            if k > start {
                assert_eq!(report.issue.unwrap().at(), start as u64, "split at {k}");
            }
            let log = OpLog::open(log.into_store()).unwrap();
            assert_eq!(log.scan_report().issue, None, "split at {k}");
            assert_eq!(log.len(), 1, "split at {k}");
        }
        // The zero-length case itself names the header bytes that survived.
        let mut torn = image.clone();
        torn[start + 12..].fill(0);
        let mut store = MemStore::new();
        store.reset(&torn).unwrap();
        let issue = OpLog::open(store).unwrap().scan_report().issue;
        assert_eq!(
            issue,
            Some(ScanIssue::TruncatedHeader {
                at: start as u64,
                have: 12
            })
        );
    }

    #[test]
    fn replace_all_leaves_exactly_one_frame() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        let s1 = log
            .replace_all(RecordKind::Other(7), b"ckpt-1".to_vec())
            .unwrap();
        let one = log.device_len();
        log.append(RecordKind::Request, b"commit".to_vec()).unwrap();
        // One reset to the new frame; older records are gone.
        let s3 = log
            .replace_all(RecordKind::Other(7), b"ckpt-2".to_vec())
            .unwrap();
        assert_eq!((s1, s3), (1, 3));
        assert_eq!(log.len(), 1);
        assert_eq!(log.device_len(), one);
        let log = OpLog::open(log.into_store()).unwrap();
        let recs: Vec<_> = log.records().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].seq, &recs[0].payload[..]), (3, &b"ckpt-2"[..]));
    }

    #[test]
    fn corrupt_compressed_payload_reports_decompress_failure() {
        // A frame whose CRC is valid but whose "compressed" payload is
        // garbage: the CRC covers the stored bytes, so only the
        // decompressor can catch this.
        let payload = b"\xFF\xFF\xFF\xFF not lzss";
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_be_bytes());
        frame.push(FLAG_COMPRESSED);
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.push(0);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(payload).to_be_bytes());
        frame.extend_from_slice(payload);
        let mut store = MemStore::new();
        store.reset(&frame).unwrap();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 0);
        assert_eq!(
            log.scan_report().issue.unwrap().reason(),
            "decompress_failed"
        );
    }

    #[test]
    fn clean_open_has_an_empty_report() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"a".to_vec()).unwrap();
        let log = OpLog::open(log.into_store()).unwrap();
        assert_eq!(
            log.scan_report(),
            ScanReport {
                records: 1,
                issue: None,
                tail_skipped_bytes: 0
            }
        );
    }

    #[test]
    fn remove_and_compact_reclaims_space() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        let mut seqs = Vec::new();
        for i in 0..10 {
            seqs.push(log.append(RecordKind::Request, vec![i; 100]).unwrap());
        }
        let full = log.device_len();
        for s in &seqs[..9] {
            log.remove(*s).unwrap();
        }
        assert_eq!(log.len(), 1);
        // Device still holds dead frames until compaction.
        assert_eq!(log.device_len(), full);
        let new_len = log.compact().unwrap();
        assert!(new_len < full / 5);
        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records().next().unwrap().seq, seqs[9]);
    }

    #[test]
    fn seq_numbers_continue_after_recovery() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        log.append(RecordKind::Request, b"a".to_vec()).unwrap();
        log.append(RecordKind::Request, b"b".to_vec()).unwrap();
        let store = log.into_store();
        let mut log = OpLog::open(store).unwrap();
        let s = log.append(RecordKind::Request, b"c".to_vec()).unwrap();
        assert_eq!(s, 3);
    }

    #[test]
    fn compressed_log_roundtrips() {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::PerOperation, true).unwrap();
        let payload = b"request request request request request".repeat(20);
        log.append(RecordKind::Request, payload.clone()).unwrap();
        let small = log.device_len();
        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.records().next().unwrap().payload, payload);
        // Compare against an uncompressed log of the same record.
        let mut plain = OpLog::open(MemStore::new()).unwrap();
        plain.append(RecordKind::Request, payload).unwrap();
        assert!(small < plain.device_len());
    }

    #[test]
    fn incompressible_payload_stored_raw_under_compression() {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::PerOperation, true).unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        log.append(RecordKind::Request, payload.clone()).unwrap();
        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.records().next().unwrap().payload, payload);
    }

    #[test]
    fn get_and_missing_remove() {
        let mut log = OpLog::open(MemStore::new()).unwrap();
        let s = log.append(RecordKind::Request, b"z".to_vec()).unwrap();
        assert_eq!(log.get(s).unwrap().payload, b"z");
        assert!(log.get(99).is_none());
        assert!(matches!(log.remove(99), Err(LogError::NoSuchRecord(99))));
    }

    #[test]
    fn flush_receipt_reports_bytes() {
        let mut log = OpLog::open_with(MemStore::new(), FlushPolicy::Manual, false).unwrap();
        log.append(RecordKind::Request, b"payload".to_vec())
            .unwrap();
        let r = log.flush().unwrap();
        assert!(r.synced);
        assert_eq!(r.bytes, HEADER_LEN + 7);
        let r2 = log.flush().unwrap();
        assert!(!r2.synced);
        assert_eq!(r2.bytes, 0);
    }
}
