//! Per-codec fuzz drivers and the invariant they enforce: arbitrary
//! bytes never panic the codec, never escape its allocation budgets,
//! and anything a codec *accepts* must round-trip. Every case is
//! addressed by `(seed, iteration)` and replays exactly.

use std::panic::{self, AssertUnwindSafe};

use rover_log::{LogError, LogRecord, MemStore, OpLog, ScanReport, StableStore};
use rover_script::{Budget, Interp, NoHost};
use rover_wire::{
    decode_commit_batch, encode_commit_batch, Bytes, CommitRecord, Envelope, Fragment,
    MigrateRecord, QrpcReply, QrpcRequest, ReplicaFrame, ReplyBatch, Wire, MAX_DECOMPRESSED,
};

use crate::corpus::{log_corpus, script_corpus, wire_corpus, WireTarget};
use crate::mutate::mutate;
use crate::rng::case_rng;

/// Which codec plane a run drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Codec {
    /// Every wire decoder: messages, commit records, checkpoint images,
    /// LZSS streams.
    Wire,
    /// The WAL recovery scan over mutated device images.
    Log,
    /// The rover-script parser + budgeted evaluator.
    Script,
}

impl Codec {
    /// Codec name as printed in reports and accepted by `--codec`.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Wire => "wire",
            Codec::Log => "log",
            Codec::Script => "script",
        }
    }

    /// Parses a `--codec` argument.
    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "wire" => Some(Codec::Wire),
            "log" => Some(Codec::Log),
            "script" => Some(Codec::Script),
            _ => None,
        }
    }
}

/// Outcome of one fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The codec accepted the input (and it round-tripped).
    Accepted,
    /// The codec rejected the input with a typed error.
    Rejected,
    /// The codec (or an invariant check) panicked — a finding.
    Panicked(String),
}

/// Aggregate result of one `(codec, seed)` run. Two runs with the same
/// seed and iteration count produce identical reports, digest included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzReport {
    /// Codec driven.
    pub codec: &'static str,
    /// Base seed.
    pub seed: u64,
    /// Cases executed.
    pub iters: u64,
    /// Inputs accepted (decoded and round-tripped).
    pub accepted: u64,
    /// Inputs rejected with typed errors.
    pub rejected: u64,
    /// Panics observed (must be zero).
    pub panics: u64,
    /// FNV-1a digest over every case's input and outcome — the
    /// byte-reproducibility witness. Script cases also fold the
    /// evaluator's full observable outcome (result or error, steps, output), so
    /// the digest pins evaluator behaviour, not just accept/reject.
    pub digest: u64,
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The materialized seed corpus for one codec plane.
enum CorpusSet {
    Wire(Vec<(WireTarget, Vec<u8>)>),
    Log(Vec<Vec<u8>>),
    Script(Vec<&'static str>),
}

impl CorpusSet {
    fn new(codec: Codec) -> CorpusSet {
        match codec {
            Codec::Wire => CorpusSet::Wire(wire_corpus()),
            Codec::Log => CorpusSet::Log(log_corpus()),
            Codec::Script => CorpusSet::Script(script_corpus()),
        }
    }

    /// Builds the mutated input for case `(seed, iteration)`.
    fn build(&self, seed: u64, iteration: u64) -> (Option<WireTarget>, Vec<u8>) {
        let mut rng = case_rng(seed, iteration);
        match self {
            CorpusSet::Wire(entries) => {
                let (target, base) = &entries[rng.below(entries.len())];
                let donor = &entries[rng.below(entries.len())].1;
                (Some(*target), mutate(&mut rng, base, donor))
            }
            CorpusSet::Log(images) => {
                let base = &images[rng.below(images.len())];
                let donor = &images[rng.below(images.len())];
                (None, mutate(&mut rng, base, donor))
            }
            CorpusSet::Script(sources) => {
                let base = sources[rng.below(sources.len())].as_bytes();
                let donor = sources[rng.below(sources.len())].as_bytes();
                (None, mutate(&mut rng, base, donor))
            }
        }
    }
}

/// Decode + round-trip for any [`Wire`] type: whatever the decoder
/// accepts must re-encode and re-decode to the same value.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(b: &Bytes) -> bool {
    match T::from_shared(b) {
        Ok(v) => {
            let enc = v.to_bytes();
            assert_eq!(v.encoded_len(), enc.len(), "encoded_len is not exact");
            let v2 = T::from_shared(&enc).expect("re-decode of an accepted value");
            assert_eq!(v2, v, "round-trip mismatch");
            true
        }
        Err(_) => false,
    }
}

fn drive_wire(target: WireTarget, input: &[u8]) -> bool {
    let b = Bytes::from(input.to_vec());
    match target {
        WireTarget::Envelope => round_trip::<Envelope>(&b),
        WireTarget::Request => round_trip::<QrpcRequest>(&b),
        WireTarget::Reply => round_trip::<QrpcReply>(&b),
        WireTarget::ReplyBatch => round_trip::<ReplyBatch>(&b),
        WireTarget::Replica => round_trip::<ReplicaFrame>(&b),
        WireTarget::Fragment => round_trip::<Fragment>(&b),
        WireTarget::Commit => round_trip::<CommitRecord>(&b),
        WireTarget::Migrate => round_trip::<MigrateRecord>(&b),
        WireTarget::CommitBatch => match decode_commit_batch(&b) {
            Ok(records) => {
                let enc = encode_commit_batch(&records);
                let again = decode_commit_batch(&enc).expect("re-decode of accepted batch");
                assert_eq!(again, records, "commit-batch round-trip mismatch");
                true
            }
            Err(_) => false,
        },
        WireTarget::Checkpoint => match rover_core::decode_checkpoint(&b) {
            Ok(img) => {
                let enc = rover_core::encode_checkpoint(&img);
                let again =
                    rover_core::decode_checkpoint(&enc).expect("re-decode of accepted image");
                assert_eq!(again, img, "checkpoint round-trip mismatch");
                true
            }
            Err(_) => false,
        },
        WireTarget::Lzss => match rover_wire::decompress(&b) {
            Ok(out) => {
                assert!(
                    out.len() <= MAX_DECOMPRESSED,
                    "decompression budget escaped"
                );
                let re = rover_wire::compress(&out);
                assert_eq!(
                    rover_wire::decompress(&re).expect("re-decode of accepted stream"),
                    out,
                    "lzss round-trip mismatch"
                );
                true
            }
            Err(_) => false,
        },
    }
}

/// Opens `image` followed by zeros: its scan report, logical device
/// length and replayed records.
fn open_zero_padded(image: &[u8]) -> Result<(ScanReport, u64, Vec<LogRecord>), LogError> {
    let mut padded = image.to_vec();
    padded.resize(image.len() + 64, 0);
    let mut store = MemStore::new();
    store.reset(&padded)?;
    let log = OpLog::open(store)?;
    Ok((
        log.scan_report(),
        log.device_len(),
        log.records().cloned().collect(),
    ))
}

fn drive_log(input: &[u8]) -> bool {
    let mut store = MemStore::new();
    store.reset(input).expect("mem store reset");
    let log = match OpLog::open(store) {
        Ok(l) => l,
        Err(_) => return false,
    };
    let scan = log.scan_report();
    assert!(
        scan.tail_skipped_bytes as usize <= input.len(),
        "scan skipped more bytes than the device holds"
    );
    assert_eq!(scan.records, log.len(), "scan report miscounts records");
    assert_eq!(
        scan.issue.is_none(),
        scan.tail_skipped_bytes == 0,
        "a clean end skips nothing; a torn one skips a non-zero byte"
    );
    let records: Vec<_> = log.records().cloned().collect();
    if scan.issue.is_none() {
        // A zero tail after a clean log — a preallocated file — is a
        // clean end too, and the store learns where the log ends.
        let want = (scan, log.device_len(), records.clone());
        assert!(
            matches!(open_zero_padded(input), Ok(got) if got == want),
            "a zero tail after a clean log is not a clean end"
        );
    }
    // The open truncated the device to the parsed prefix: reopening the
    // same store must be clean and replay the identical records.
    let store = log.into_store();
    let log2 = OpLog::open(store).expect("reopen of truncated device");
    assert_eq!(
        log2.tail_skipped_bytes(),
        0,
        "truncated device still has a torn tail on reopen"
    );
    let records2: Vec<_> = log2.records().cloned().collect();
    assert_eq!(records2, records, "recovery scan is not idempotent");
    scan.issue.is_none()
}

/// Everything a host can observe of one evaluation, as one line-
/// oriented string: result (or error text and its `budget_exhausted` /
/// `parse` flags), `steps_used`, and captured `puts` output. Two
/// evaluators are interchangeable iff these agree on every source.
fn script_outcome(interp: &mut Interp, src: &str) -> (bool, String) {
    let r = interp.eval(&mut NoHost, src);
    let head = match &r {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!(
            "err budget={} parse={} {}",
            e.budget_exhausted, e.parse, e.message
        ),
    };
    let detail = format!(
        "{head}\nsteps {}\noutput {:?}",
        interp.steps_used(),
        interp.take_output()
    );
    (r.is_ok(), detail)
}

fn drive_script(input: &[u8]) -> (bool, String) {
    let src = String::from_utf8_lossy(input);
    let budget = Budget {
        max_steps: 20_000,
        max_depth: 32,
    };
    let mut interp = Interp::with_budget(budget);
    let out = script_outcome(&mut interp, &src);
    assert!(
        interp.steps_used() <= 2 * budget.max_steps,
        "evaluator escaped its step budget"
    );
    out
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one case; the string is the script plane's observable outcome
/// (empty for the byte codecs, whose outcome is the tag alone).
fn drive(codec: Codec, target: Option<WireTarget>, input: &[u8]) -> (CaseOutcome, String) {
    let res = panic::catch_unwind(AssertUnwindSafe(|| match codec {
        Codec::Wire => (
            drive_wire(target.expect("wire case has a target"), input),
            String::new(),
        ),
        Codec::Log => (drive_log(input), String::new()),
        Codec::Script => drive_script(input),
    }));
    match res {
        Ok((true, detail)) => (CaseOutcome::Accepted, detail),
        Ok((false, detail)) => (CaseOutcome::Rejected, detail),
        Err(e) => (CaseOutcome::Panicked(panic_message(e)), String::new()),
    }
}

/// Runs `iters` cases of `codec` under `seed`. Deterministic: the
/// returned report (digest included) is a pure function of the
/// arguments.
pub fn run_codec(codec: Codec, seed: u64, iters: u64) -> FuzzReport {
    let corpus = CorpusSet::new(codec);
    let mut report = FuzzReport {
        codec: codec.name(),
        seed,
        iters,
        accepted: 0,
        rejected: 0,
        panics: 0,
        digest: FNV_BASIS,
    };
    for i in 0..iters {
        let (target, input) = corpus.build(seed, i);
        let (outcome, detail) = drive(codec, target, &input);
        let tag: u8 = match outcome {
            CaseOutcome::Accepted => {
                report.accepted += 1;
                0
            }
            CaseOutcome::Rejected => {
                report.rejected += 1;
                1
            }
            CaseOutcome::Panicked(_) => {
                report.panics += 1;
                2
            }
        };
        report.digest = fnv_fold(report.digest, &i.to_be_bytes());
        report.digest = fnv_fold(report.digest, &input);
        report.digest = fnv_fold(report.digest, &[tag]);
        report.digest = fnv_fold(report.digest, detail.as_bytes());
    }
    report
}

/// One replayed case: the exact input bytes, its outcome, and (script
/// plane) the evaluator's observable outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// The mutated input.
    pub input: Vec<u8>,
    /// Which wire decoder it targets (wire plane only).
    pub target: Option<WireTarget>,
    /// Accept / reject / panic.
    pub outcome: CaseOutcome,
    /// The evaluator's observable outcome as text (script plane only,
    /// else empty).
    pub detail: String,
}

/// Replays the single case `(codec, seed, iteration)` (the `--repro`
/// path).
pub fn run_case(codec: Codec, seed: u64, iteration: u64) -> Case {
    let corpus = CorpusSet::new(codec);
    let (target, input) = corpus.build(seed, iteration);
    let (outcome, detail) = drive(codec, target, &input);
    Case {
        input,
        target,
        outcome,
        detail,
    }
}

/// The checked-in script-plane oracle: `sweep <seed> <iters> <digest>`
/// lines recorded from the tree-walking evaluator that rover-script's
/// compiled one replaced (`program …` lines belong to
/// `crates/script/tests/programs.rs`).
const SCRIPT_GOLDEN: &str = include_str!("../golden/script_outcomes.txt");

/// `(seed, iters, digest)` of every recorded script sweep.
pub fn golden_sweeps() -> Vec<(u64, u64, u64)> {
    SCRIPT_GOLDEN
        .lines()
        .filter_map(|l| {
            let mut w = l.split_whitespace();
            if w.next() != Some("sweep") {
                return None;
            }
            let seed = w.next()?.parse().ok()?;
            let iters = w.next()?.parse().ok()?;
            let digest = u64::from_str_radix(w.next()?, 16).ok()?;
            Some((seed, iters, digest))
        })
        .collect()
}

/// Installs a silent panic hook for the duration of a fuzz run, so
/// expected `catch_unwind`-captured panics (if a finding ever appears)
/// do not spray backtraces; returns a guard restoring the old hook.
pub fn silence_panics() -> impl Drop {
    type Hook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;
    let old = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(h) = self.0.take() {
                panic::set_hook(h);
            }
        }
    }
    Restore(Some(old))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_ITERS: u64 = 400;
    const SMOKE_GOLDEN_ITERS: u64 = 2_000;

    #[test]
    fn wire_plane_smoke_no_panics_and_reproducible() {
        let a = run_codec(Codec::Wire, 1, SMOKE_ITERS);
        let b = run_codec(Codec::Wire, 1, SMOKE_ITERS);
        assert_eq!(a, b, "same seed must reproduce byte-identically");
        assert_eq!(a.panics, 0, "wire codecs panicked under fuzz");
        let c = run_codec(Codec::Wire, 2, SMOKE_ITERS);
        assert_ne!(a.digest, c.digest, "different seeds must diverge");
    }

    #[test]
    fn log_plane_smoke_no_panics_and_reproducible() {
        let a = run_codec(Codec::Log, 1, SMOKE_ITERS);
        let b = run_codec(Codec::Log, 1, SMOKE_ITERS);
        assert_eq!(a, b);
        assert_eq!(a.panics, 0, "recovery scan panicked under fuzz");
    }

    #[test]
    fn script_plane_smoke_no_panics_and_reproducible() {
        let a = run_codec(Codec::Script, 1, SMOKE_ITERS);
        let b = run_codec(Codec::Script, 1, SMOKE_ITERS);
        assert_eq!(a, b);
        assert_eq!(a.panics, 0, "script parser panicked under fuzz");
    }

    #[test]
    fn script_sweeps_reproduce_the_golden_outcome_digests() {
        // The CI-sized lines only; `rover-fuzz --golden` (release, CI)
        // runs the full 100k-case sweep.
        let sweeps = golden_sweeps();
        assert!(sweeps.iter().any(|s| s.1 > SMOKE_GOLDEN_ITERS));
        let small: Vec<_> = sweeps
            .into_iter()
            .filter(|s| s.1 <= SMOKE_GOLDEN_ITERS)
            .collect();
        assert!(!small.is_empty(), "golden file lost its smoke lines");
        for (seed, iters, want) in small {
            let r = run_codec(Codec::Script, seed, iters);
            assert_eq!(r.panics, 0);
            assert_eq!(
                r.digest, want,
                "script outcome digest moved for seed {seed} x {iters}"
            );
        }
    }

    #[test]
    fn repro_rebuilds_the_exact_case() {
        let full = run_codec(Codec::Wire, 3, 50);
        assert_eq!(full.panics, 0);
        assert_eq!(run_case(Codec::Wire, 3, 17), run_case(Codec::Wire, 3, 17));
        let script = run_case(Codec::Script, 3, 17);
        assert!(script.detail.contains("\nsteps "), "{}", script.detail);
    }

    #[test]
    fn some_mutants_are_accepted_and_some_rejected() {
        // Structure-aware mutation should keep a corpus-size-dependent
        // fraction of inputs valid; all-rejected would mean the corpus
        // or mutator is broken.
        let r = run_codec(Codec::Script, 5, 500);
        assert!(r.accepted > 0, "no mutated script ever parsed");
        assert!(r.rejected > 0, "every mutated script parsed");
        let w = run_codec(Codec::Wire, 5, 2000);
        assert!(w.accepted > 0, "no mutated frame ever decoded");
        assert!(w.rejected > 0, "every mutated frame decoded");
    }
}
