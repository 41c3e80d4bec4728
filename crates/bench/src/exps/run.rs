//! The soak skeleton: what the chaos soak ([`super::soak`]) and the
//! scale soak ([`super::scale`]) both do around their own workload.
//!
//! A soak builds its servers and clients on one [`Run`], issues its
//! workload and schedules its crashes (a crashed server comes back
//! through [`restart_after`]), and then:
//!
//! - [`Run::drive`] steps the world until the soak's done predicate
//!   holds, and stops early on the run's first error or at a deadline;
//! - [`Run::finish`] plays out what is still queued, returns the first
//!   error, and checks the run's [`History`];
//! - [`Readout::of`] reads the server figures both soaks report.
//!
//! Each outcome is declared with [`outcome!`], which names every figure
//! once, in digest order, and reports emit their metrics from ordered
//! `(name, value)` lists ([`metrics`]).

use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;

use rover_core::{
    step_until, Client, ClientRef, ExportHandle, Guarantees, History, Promise, ReexecuteResolver,
    Server, ServerConfig, ServerRef, Summary, Urn, World,
};
use rover_log::MemStore;
use rover_sim::{Sim, SimDuration, Stats};
use rover_wire::{HostId, Priority, SessionId};

use crate::report::Report;

/// How long a crashed server stays down before it reboots from its
/// write-ahead device: shorter than the clients' backed-off
/// retransmission probes, so retries land on the recovered incarnation.
const OUTAGE: SimDuration = SimDuration::from_secs(12);

/// Client `i`'s host: clients start at `HostId(10)`, above every
/// server host.
pub(crate) fn client_host(i: usize) -> HostId {
    HostId(10 + i as u32)
}

/// One client as a soak drives it: the client, its one session (every
/// guarantee on) and its host.
#[derive(Clone)]
pub(crate) struct Actor {
    pub cl: ClientRef,
    session: SessionId,
    host: HostId,
}

impl Actor {
    /// Opens `cl`'s session.
    pub(crate) fn new(cl: ClientRef) -> Actor {
        let session = Client::create_session(&cl, Guarantees::ALL, true);
        let host = Client::host(&cl);
        Actor { cl, session, host }
    }

    /// Exports `add 1` to counter `obj`, at `urn`, and records the write
    /// in `hist`.
    pub(crate) fn add(
        &self,
        sim: &mut Sim,
        hist: &RefCell<History>,
        obj: usize,
        urn: &Urn,
    ) -> Result<ExportHandle, String> {
        let h = Client::export(
            &self.cl,
            sim,
            urn,
            self.session,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .map_err(|e| format!("export failed: {e:?}"))?;
        hist.borrow_mut()
            .write(sim.now(), self.host, self.session, obj, 1, &h);
        Ok(h)
    }

    /// Imports counter `obj`, at `urn`, at foreground priority and
    /// records the read in `hist`.
    pub(crate) fn read(
        &self,
        sim: &mut Sim,
        hist: &RefCell<History>,
        obj: usize,
        urn: &Urn,
    ) -> Result<Promise, String> {
        let p = Client::import(&self.cl, sim, urn, self.session, Priority::FOREGROUND)
            .map_err(|e| format!("import failed: {e:?}"))?;
        hist.borrow_mut()
            .read(sim.now(), self.host, self.session, obj, &p);
        Ok(p)
    }
}

/// The first error of a run. Workload steps, drivers and restarts keep
/// one, and the drive stops on it.
#[derive(Clone, Default)]
pub(crate) struct FirstError(Rc<RefCell<Option<String>>>);

impl FirstError {
    /// Keeps `e` unless an earlier error is already kept.
    pub(crate) fn keep(&self, e: String) {
        self.0.borrow_mut().get_or_insert(e);
    }
}

/// Reboots the crashed `server` from its write-ahead device after a
/// fixed outage, then runs `then`; a failed reboot is kept as the run's
/// error instead.
pub(crate) fn restart_after(
    sim: &mut Sim,
    server: &ServerRef,
    error: &FirstError,
    then: impl FnOnce(&mut Sim) + 'static,
) {
    let (sv, error) = (server.clone(), error.clone());
    sim.schedule_after(OUTAGE, move |sim| match Server::crash_restart(&sv, sim) {
        Ok(()) => then(sim),
        Err(e) => error.keep(format!("crash_restart failed: {e:?}")),
    });
}

/// One soak run: its world, its first error, the history of every
/// counter, read and write it issues, and the seed every error it
/// returns names.
pub(crate) struct Run {
    pub w: World,
    pub error: FirstError,
    pub hist: Rc<RefCell<History>>,
    seed: u64,
}

impl Run {
    /// An empty world seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Run {
        Run {
            w: World::new(seed),
            error: FirstError::default(),
            hist: Rc::default(),
            seed,
        }
    }

    /// `e`, naming the run's seed.
    pub(crate) fn err(&self, e: impl Display) -> String {
        format!("seed {}: {e}", self.seed)
    }

    /// Builds a server on `cfg.host` that resolves counter conflicts by
    /// re-execution.
    pub(crate) fn counter_server(&mut self, cfg: ServerConfig) -> ServerRef {
        let server = self.w.server(cfg);
        server
            .borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        server
    }

    /// Attaches an in-memory write-ahead log to `server`: its first
    /// checkpoint snapshots every object installed so far, and every
    /// commit hits the log before its reply.
    pub(crate) fn attach_wal(&mut self, server: &ServerRef) -> Result<(), String> {
        Server::attach_wal(server, &mut self.w.sim, Box::new(MemStore::new()))
            .map_err(|e| self.err(format!("attach_wal failed: {e:?}")))
    }

    /// Steps the world until `done` holds. `Err` carries the run's first
    /// error, or `progress` when the event queue empties or more than
    /// `limit` of virtual time passes first.
    pub(crate) fn drive(
        &mut self,
        limit: SimDuration,
        mut done: impl FnMut() -> bool,
        progress: impl FnOnce() -> String,
    ) -> Result<(), String> {
        let error = &self.error.0;
        let finished = step_until(&mut self.w.sim, limit, || {
            error.borrow().is_some() || done()
        });
        self.first_error()?;
        if !finished {
            let now = self.w.sim.now();
            return Err(self.err(format!("did not converge ({} at {now})", progress())));
        }
        Ok(())
    }

    /// Ends the run: plays out every event still queued, then returns
    /// the first error, or else the history check's verdict.
    pub(crate) fn finish(&mut self, actors: &[Actor]) -> Result<Summary, String> {
        self.w.sim.run();
        self.first_error()?;
        let clients: Vec<ClientRef> = actors.iter().map(|a| a.cl.clone()).collect();
        let verdict = self.hist.borrow().check(&self.w, &clients);
        verdict.map_err(|e| self.err(e))
    }

    fn first_error(&self) -> Result<(), String> {
        match self.error.0.borrow().as_ref() {
            Some(e) => Err(self.err(e)),
            None => Ok(()),
        }
    }
}

/// The server figures both soaks report, read once from a run's stats.
pub(crate) struct Readout {
    /// Commits per group flush x100: mean, p50 and p99 (100 each when
    /// nothing flushed).
    pub batch_x100: [u64; 3],
    /// Staged-to-durable wait per commit in microseconds: mean, p50 and
    /// p99.
    pub flush_wait_us: [u64; 3],
    /// Server queue depth sampled at every admission x100 (staged
    /// commits plus ordered-write and writes-follow-reads holds): p50
    /// and p99.
    pub qdepth_x100: [u64; 2],
    /// Commit records appended across every write-ahead log.
    pub wal_appends: u64,
    /// Group flushes (one per commit under the per-operation policy).
    pub group_commits: u64,
    /// Replies that rode an earlier reply's coalesced envelope.
    pub reply_coalesced: u64,
    /// Client retransmissions.
    pub retransmits: u64,
    /// Server power failures that fired.
    pub crashes: u64,
    /// Adversarial-input rejections summed across the codec planes.
    pub input_rejected: u64,
}

impl Readout {
    /// Reads the figures from `stats`.
    pub(crate) fn of(stats: &Stats) -> Readout {
        let [_, qdepth_p50, qdepth_p99] = scaled_summary(stats, "server.qdepth", 100.0, 0);
        Readout {
            batch_x100: scaled_summary(stats, "server.group_commit_batch_size", 100.0, 100),
            flush_wait_us: scaled_summary(stats, "server.flush_wait_ms", 1000.0, 0),
            qdepth_x100: [qdepth_p50, qdepth_p99],
            wal_appends: stats.counter("server.wal_appends"),
            group_commits: stats.counter("server.group_commits"),
            reply_coalesced: stats.counter("server.reply_coalesced"),
            retransmits: stats.counter("client.retransmits"),
            crashes: stats.counter("server.crashes"),
            input_rejected: input_rejected(stats),
        }
    }
}

/// Mean, p50 and p99 of the sample series `name`, each times `scale`
/// and rounded; all three `default` if the series was never recorded.
pub(crate) fn scaled_summary(stats: &Stats, name: &str, scale: f64, default: u64) -> [u64; 3] {
    stats.series(name).map_or([default; 3], |s| {
        [s.mean(), s.quantile(0.50), s.quantile(0.99)].map(|v| (v * scale).round() as u64)
    })
}

/// Adversarial-input rejections across all three codec planes: wire
/// decode failures, WAL scan issues, and script parse rejections.
/// Summed by prefix so new reason tags fold in automatically.
fn input_rejected(stats: &Stats) -> u64 {
    stats
        .counters()
        .filter(|(k, _)| {
            k.starts_with("wire.decode_rejected.")
                || k.starts_with("log.scan_rejected.")
                || *k == "script.parse_rejected"
        })
        .map(|(_, v)| v)
        .sum()
}

/// FNV-1a over 64-bit words: the byte-reproducible outcome digest, one
/// word per figure, in order.
pub(crate) fn fnv_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |d, v| {
        (d ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `v` hundredths as a float (a `_x100` figure).
pub(crate) fn hundredths(v: u64) -> f64 {
    v as f64 / 100.0
}

/// `v` thousandths as a float (microseconds as milliseconds,
/// milliseconds as seconds).
pub(crate) fn thousandths(v: u64) -> f64 {
    v as f64 / 1000.0
}

/// Records each `(name, value)` as the metric `{prefix}.{name}`, in
/// order.
pub(crate) fn metrics(r: &mut Report, prefix: &str, figures: &[(&str, f64)]) {
    for (name, v) in figures {
        r.metric(format!("{prefix}.{name}"), *v);
    }
}

/// Declares an outcome: a struct whose `u64` figures are named once, in
/// digest order, then (after `lists`) its per-shard lists, and a
/// `digest` field. `figures()` returns each figure by name, in that
/// order; `with_digest()` fills the digest in: FNV-1a over the figures,
/// then over each list's words in turn.
macro_rules! outcome {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fdoc:meta])* $f:ident,)*
        }
        $(lists { $($(#[$ldoc:meta])* $l:ident,)* })?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fdoc])* pub $f: u64,)*
            $($($(#[$ldoc])* pub $l: Vec<u64>,)*)?
            /// FNV-1a fingerprint of every figure above, in order: equal
            /// digests mean byte-identical runs.
            pub digest: u64,
        }

        impl $name {
            /// Every figure by name, in digest order.
            pub fn figures(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($f), self.$f)),*]
            }

            fn with_digest(mut self) -> Self {
                let words = self.figures().into_iter().map(|(_, v)| v);
                $($(let words = words.chain(self.$l.iter().copied());)*)?
                let digest = $crate::exps::run::fnv_digest(words);
                self.digest = digest;
                self
            }
        }
    };
}
pub(crate) use outcome;
