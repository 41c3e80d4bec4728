//! `rt-commit` and `rt-sync1`: the real-clock runtime. `run_server` on
//! a thread with a real fsync'd WAL, `run_client` over loopback TCP.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rover_cluster::{
    recover_snapshot, run_client, run_server, ClientOpts, ServerOpts, ServerSummary,
};

use super::{Env, Facts, SliceOut, Workload};
use crate::measure::timed;
use crate::trace::Tracer;

/// How one real-clock workload drives the runtime.
#[derive(Clone, Copy, Debug)]
pub struct RtShape {
    pub clients: usize,
    pub window: usize,
    /// `ServerOpts::group_batch`; 0 selects `CommitPolicy::PerOperation`.
    pub group_batch: usize,
    /// Exports each client drives to durable commit in one slice.
    pub ops_per_client: u64,
}

/// Batched durable writes: 2 clients, 32 in flight each, group commit
/// 32 / 2 ms.
pub const COMMIT: RtShape = RtShape {
    clients: 2,
    window: 32,
    group_batch: 32,
    ops_per_client: 2000,
};

/// The same layers unbatched: one export in flight, one fsync per op.
pub const SYNC1: RtShape = RtShape {
    clients: 1,
    window: 1,
    group_batch: 0,
    ops_per_client: 1000,
};

const GROUP_WINDOW_MS: u64 = 2;
const CHECKPOINT_EVERY: usize = 256;
/// Driver poll tick and first-probe RTO, as `s4-realclock` sets them.
const TICK: Duration = Duration::from_millis(5);
const RTO: Duration = Duration::from_millis(200);

pub struct Rt {
    shape: RtShape,
    ops_per_client: u64,
    dir: PathBuf,
    wal: PathBuf,
    addr: String,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<ServerSummary, String>>,
    next_host: u32,
    committed: u64,
    retransmits: u64,
}

impl Rt {
    pub fn boot(shape: RtShape, env: &Env<'_>, t: &mut Tracer) -> Result<Rt, String> {
        // Several servers boot in one process (set-up is measured more
        // than once); each gets a directory of its own.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = env
            .scratch
            .join(format!("rt-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let wal = dir.join("server.wal");
        let addr_file = dir.join("addr.txt");
        let opts = ServerOpts {
            listen: "127.0.0.1:0".into(),
            wal: wal.clone(),
            group_batch: shape.group_batch,
            group_window_ms: GROUP_WINDOW_MS,
            checkpoint_every: CHECKPOINT_EVERY,
            addr_file: Some(addr_file.clone()),
            tick: TICK,
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let (server, addr) = t.span("cluster.boot", 0, |_| {
            let server = std::thread::spawn(move || run_server(&opts, flag));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(s) if !s.is_empty() => return Ok((server, s)),
                    _ if server.is_finished() => {
                        let why = match server.join() {
                            Ok(Err(e)) => e,
                            _ => "server thread ended".into(),
                        };
                        return Err(format!("server did not start: {why}"));
                    }
                    _ if Instant::now() > deadline => {
                        return Err("server never published its address".to_string());
                    }
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        })?;
        Ok(Rt {
            shape,
            ops_per_client: env.size.scale(shape.ops_per_client),
            dir,
            wal,
            addr,
            shutdown,
            server,
            // The seed picks the client host ids; `run_client` fixes
            // everything else about the op stream (counter `add 1`).
            next_host: 10 + (env.seed % 400_000) as u32,
            committed: 0,
            retransmits: 0,
        })
    }
}

impl Workload for Rt {
    fn slice(&mut self, t: &mut Tracer) -> Result<SliceOut, String> {
        // A fresh `Client` numbers its requests from 1, so every slice
        // uses host ids the server has not seen: a reused id would be
        // answered from the dedup table instead of executed.
        let hosts: Vec<u32> = (0..self.shape.clients as u32)
            .map(|i| self.next_host + i)
            .collect();
        self.next_host += self.shape.clients as u32;
        let ops = self.ops_per_client;
        let client_opts = |host_id: u32| ClientOpts {
            connect: self.addr.clone(),
            host_id,
            ops,
            window: self.shape.window,
            progress: None,
            rto: RTO,
            tick: TICK,
            deadline: Duration::from_secs(60),
        };
        let run = timed(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = hosts
                    .iter()
                    .map(|&h| {
                        let opts = client_opts(h);
                        s.spawn(move || {
                            let start = Instant::now();
                            (run_client(&opts), start, Instant::now())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        let mut out = SliceOut {
            ops: 0,
            failed: 0,
            wall: run.wall,
            cpu_s: run.cpu_s,
        };
        for (i, (result, start, end)) in run.out.into_iter().enumerate() {
            t.record("cluster.client_slice", i as u64 + 1, start, end);
            match result {
                Ok(summary) => {
                    let committed = summary.committed.min(ops);
                    out.ops += committed;
                    out.failed += ops - committed;
                    self.retransmits += summary.retransmits;
                }
                Err(e) => {
                    eprintln!("rover-perf: client {} failed: {e}", hosts[i]);
                    out.failed += ops;
                }
            }
        }
        self.committed += out.ops;
        Ok(out)
    }

    fn finish(self: Box<Self>, t: &mut Tracer) -> Result<Facts, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let summary = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        let recover = t.span("cluster.recover", 0, |_| {
            timed(|| (recover_snapshot(&self.wal), recover_snapshot(&self.wal)))
        });
        let ((snap1, n1), (snap2, n2)) = match recover.out {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return Err(format!("recover: {e}")),
        };
        if snap1 != snap2 || n1 != n2 {
            return Err("two recoveries of one WAL differ".into());
        }
        if n1 > self.committed {
            return Err(format!(
                "recovered counter {n1} exceeds the {} ops committed",
                self.committed
            ));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(Facts {
            // An op acknowledged as committed but absent after recovery.
            failed: self.committed - n1,
            values: vec![
                ("requests", summary.requests as f64),
                ("group_commits", summary.group_commits as f64),
                ("checkpoints", summary.checkpoints as f64),
                ("retransmits", self.retransmits as f64),
                ("recover_ms", recover.wall.as_secs_f64() * 1e3 / 2.0),
            ],
            // How many slices fit the seconds is not a property of the
            // seed, so nothing here repeats exactly.
            exact: Vec::new(),
        })
    }
}
