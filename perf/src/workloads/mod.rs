//! The five workloads. Each is a closed loop of fixed-size slices: a
//! slice does the same work every time it runs, so slices are
//! comparable within a run and between two builds of the program.

use std::path::Path;
use std::time::Duration;

use rover_apps::MailboxGen;
use rover_core::Urn;

use crate::trace::Tracer;

pub mod hoard;
pub mod rdo;
pub mod rt;
pub mod scale;

/// Owner and folder of every generated mailbox.
pub const USER: &str = "alice";
pub const FOLDER: &str = "inbox";

/// The generator of the seed's mailbox, `count` messages long.
pub fn mailbox_gen(seed: u64, count: usize) -> MailboxGen {
    MailboxGen {
        user: USER.into(),
        folder: FOLDER.into(),
        count,
        seed,
    }
}

/// URN of one generated message.
pub fn msg_urn(id: &str) -> Urn {
    Urn::new("mail", &format!("{USER}/{FOLDER}/{id}")).expect("msg urn")
}

/// Full size, or the 1/50 size `--smoke` and the self-tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// Scales a full-size count down for smoke runs.
    pub fn scale(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Smoke => (full / 50).max(1),
        }
    }
}

/// What a workload is built from.
pub struct Env<'a> {
    pub seed: u64,
    pub size: Size,
    /// Directory on a real filesystem for WAL files.
    pub scratch: &'a Path,
}

/// One timed slice.
pub struct SliceOut {
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
    pub cpu_s: f64,
}

/// What a finished workload hands back: operations that turned out to
/// have failed once the final state was checked, and named facts (exact
/// counts and one-off timings) for the record and the per-layer metrics.
#[derive(Default)]
pub struct Facts {
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly for a (workload, seed, size).
    pub exact: Vec<(&'static str, u64)>,
}

impl Facts {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

pub trait Workload {
    /// Runs one slice. `Err` means the program broke an invariant the
    /// benchmark checks (the run reports `correct: false`).
    fn slice(&mut self, t: &mut Tracer) -> Result<SliceOut, String>;

    /// Tears down and checks the final state against everything the
    /// slices did.
    fn finish(self: Box<Self>, t: &mut Tracer) -> Result<Facts, String>;
}

/// Builds the named workload: input generation, server boot, seeding,
/// connects and imports. The caller runs the warm-up slice.
pub fn setup(name: &str, env: &Env<'_>, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "rt-commit" => Box::new(rt::Rt::boot(rt::COMMIT, env, t)?),
        "rt-sync1" => Box::new(rt::Rt::boot(rt::SYNC1, env, t)?),
        "sim-scale" => Box::new(scale::Scale::new(env)),
        "sim-hoard" => Box::new(hoard::Hoard::new(env)),
        "rdo-local" => Box::new(rdo::Rdo::new(env, false)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}
