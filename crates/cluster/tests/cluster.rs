//! Process-level chaos tests: real `rover-cluster` binaries over real
//! TCP and a real fsync'd WAL, with `kill -9` mid-run.
//!
//! The invariant under test is the toolkit's end-to-end exactly-once
//! story: a counter driven by N `add 1` exports must recover to exactly
//! N after any crash/restart sequence (n < N would be a lost replied
//! commit, n > N a re-execution), and replied commits must never be
//! lost even when *both* processes die without warning.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rover-cluster");

/// A scratch directory plus the processes launched into it. Child
/// processes are killed on drop so a failing test can't leak servers.
struct TestCluster {
    dir: PathBuf,
    addr: String,
    children: Vec<Child>,
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl TestCluster {
    /// Creates the scratch dir and boots the first server on an
    /// OS-assigned port, recording the bound address for reconnects.
    fn boot(name: &str, server_flags: &[&str]) -> TestCluster {
        let dir = std::env::temp_dir().join(format!("rover-cluster-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        let mut tc = TestCluster {
            dir,
            addr: String::new(),
            children: Vec::new(),
        };
        let addr_file = tc.dir.join("addr.txt");
        tc.spawn_server("127.0.0.1:0", Some(&addr_file), server_flags);
        tc.addr = wait_for_file(&addr_file, Duration::from_secs(10))
            .expect("server never wrote its address");
        tc
    }

    fn wal(&self) -> PathBuf {
        self.dir.join("w.wal")
    }

    fn spawn_server(&mut self, listen: &str, addr_file: Option<&Path>, flags: &[&str]) -> usize {
        let mut cmd = Command::new(BIN);
        cmd.arg("server")
            .arg("--listen")
            .arg(listen)
            .arg("--wal")
            .arg(self.wal())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(f) = addr_file {
            cmd.arg("--addr-file").arg(f);
        }
        cmd.args(flags);
        self.children.push(cmd.spawn().expect("spawn server"));
        self.children.len() - 1
    }

    /// Restarts a server on the *same* address, recovering the WAL.
    fn respawn_server(&mut self, flags: &[&str]) -> usize {
        let addr = self.addr.clone();
        self.spawn_server(&addr, None, flags)
    }

    fn spawn_client(&mut self, ops: u64, progress: &Path, extra: &[&str]) -> usize {
        let mut cmd = Command::new(BIN);
        cmd.arg("client")
            .arg("--connect")
            .arg(&self.addr)
            .arg("--ops")
            .arg(ops.to_string())
            .arg("--progress")
            .arg(progress)
            .arg("--deadline-s")
            .arg("120")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd.args(extra);
        self.children.push(cmd.spawn().expect("spawn client"));
        self.children.len() - 1
    }

    /// SIGKILL: the process gets no chance to flush or say goodbye.
    fn kill9(&mut self, idx: usize) {
        self.children[idx].kill().expect("kill -9");
        let _ = self.children[idx].wait();
    }

    /// SIGTERM: asks for the graceful flush-and-checkpoint shutdown.
    fn sigterm(&self, idx: usize) {
        let pid = self.children[idx].id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    /// Waits for a child to exit, returning (success, stdout).
    fn wait_exit(&mut self, idx: usize, timeout: Duration) -> (bool, String) {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.children[idx].try_wait().expect("try_wait") {
                let mut out = String::new();
                if let Some(s) = self.children[idx].stdout.as_mut() {
                    let _ = s.read_to_string(&mut out);
                }
                let mut err = String::new();
                if let Some(s) = self.children[idx].stderr.as_mut() {
                    let _ = s.read_to_string(&mut err);
                }
                if !err.is_empty() {
                    out.push_str(&err);
                }
                return (status.success(), out);
            }
            assert!(
                Instant::now() < deadline,
                "child {idx} did not exit in time"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Recovers the WAL offline; returns (counter_n, snapshot_hex).
    fn dump(&self) -> (u64, String) {
        let out_file = self.dir.join("snap.hex");
        let out = Command::new(BIN)
            .arg("dump")
            .arg("--wal")
            .arg(self.wal())
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("run dump");
        assert!(
            out.status.success(),
            "dump failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let n = stdout
            .split_whitespace()
            .find_map(|t| t.strip_prefix("counter_n="))
            .and_then(|v| v.parse().ok())
            .expect("counter_n in dump output");
        let hex = std::fs::read_to_string(&out_file).expect("snapshot file");
        (n, hex)
    }
}

/// Polls `path` until it exists with non-empty contents.
fn wait_for_file(path: &Path, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Ok(s) = std::fs::read_to_string(path) {
            if !s.is_empty() {
                return Some(s);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// Polls a progress file until the committed count reaches `min`.
fn wait_progress(path: &Path, min: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let p: u64 = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        if p >= min {
            return p;
        }
        assert!(
            Instant::now() < deadline,
            "progress stalled at {p} (wanted {min})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline chaos test: `kill -9` the server mid-sync, restart it
/// on the same WAL, and require the client to converge on *exactly* N
/// commits — nothing lost, nothing executed twice.
#[test]
fn kill9_mid_sync_loses_nothing_and_reexecutes_nothing() {
    const OPS: u64 = 6_000;
    let mut tc = TestCluster::boot("kill9", &[]);
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);

    // Let a real sync get going, then yank the server hard.
    let at_kill = wait_progress(&progress, OPS / 4, Duration::from_secs(60));
    tc.kill9(0);
    assert!(at_kill < OPS, "client finished before the kill landed");

    // Same WAL, same address: the client's reconnect loop finds it.
    let server2 = tc.respawn_server(&[]);
    let (ok, out) = tc.wait_exit(client, Duration::from_secs(120));
    assert!(ok, "client failed after server restart: {out}");
    assert!(
        out.contains("committed=6000"),
        "client summary wrong: {out}"
    );
    // The outage must actually have exercised the recovery machinery.
    let reconnects: u64 = out
        .split_whitespace()
        .find_map(|t| t.strip_prefix("reconnects="))
        .and_then(|v| v.parse().ok())
        .expect("reconnects in summary");
    assert!(reconnects >= 1, "client never reconnected: {out}");

    // Graceful shutdown of the survivor, then offline recovery checks.
    tc.sigterm(server2);
    let (ok, out) = tc.wait_exit(server2, Duration::from_secs(30));
    assert!(ok, "server shutdown failed: {out}");
    let (n, hex1) = tc.dump();
    assert_eq!(n, OPS, "counter diverged from the op count");
    // Recovery is deterministic: two replays, byte-identical state.
    let (n2, hex2) = tc.dump();
    assert_eq!(n2, OPS);
    assert_eq!(hex1, hex2, "recovered state snapshots differ");
}

/// Kill *both* processes mid-flush: every commit the client observed as
/// replied (recorded in its progress file) must already be durable in
/// the WAL — a reply is only sent after fsync.
#[test]
fn kill9_both_mid_flush_keeps_all_replied_commits() {
    const OPS: u64 = 6_000;
    let mut tc = TestCluster::boot(
        "bothdie",
        &["--group-batch", "64", "--group-window-ms", "20"],
    );
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);

    wait_progress(&progress, OPS / 4, Duration::from_secs(60));
    tc.kill9(0); // server first: no shutdown flush
                 // Whatever the progress file says now was replied before the crash.
    let replied = wait_progress(&progress, 0, Duration::from_secs(1));
    tc.kill9(client);

    let (n, _) = tc.dump();
    assert!(
        n >= replied,
        "lost replied commits: recovered {n} < replied {replied}"
    );
    assert!(n <= OPS, "recovered more commits than were ever issued");
}

/// SIGTERM path: a graceful shutdown flushes the staged group-commit
/// batch and checkpoints, so a per-window workload ends with durable
/// state equal to everything committed.
#[test]
fn sigterm_flushes_and_checkpoints_before_exit() {
    const OPS: u64 = 300;
    let mut tc = TestCluster::boot(
        "sigterm",
        &["--group-batch", "32", "--group-window-ms", "5"],
    );
    let progress = tc.dir.join("prog.txt");
    let client = tc.spawn_client(OPS, &progress, &[]);
    let (ok, out) = tc.wait_exit(client, Duration::from_secs(60));
    assert!(ok, "client failed: {out}");

    tc.sigterm(0);
    let (ok, out) = tc.wait_exit(0, Duration::from_secs(30));
    assert!(ok, "server shutdown failed: {out}");
    // The shutdown checkpoint is visible in the summary counters.
    let checkpoints: u64 = out
        .split_whitespace()
        .find_map(|t| t.strip_prefix("checkpoints="))
        .and_then(|v| v.parse().ok())
        .expect("checkpoints in summary");
    assert!(checkpoints >= 1, "no checkpoint written: {out}");

    let (n, _) = tc.dump();
    assert_eq!(n, OPS);
}

// ---------------------------------------------------------------------
// In-process runtime: what a client leaves behind at the server
// ---------------------------------------------------------------------

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rover_cluster::{
    recover_snapshot, run_client, run_server, ClientOpts, ClientSummary, ServerOpts, ServerSummary,
};
use rover_core::decode_checkpoint;
use rover_net::{read_frame, write_frame};
use rover_wire::{MsgKind, QrpcRequest, RoverOp, Wire};

/// `run_server` on a thread of this process, on a scratch WAL.
struct InProcServer {
    dir: PathBuf,
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<ServerSummary, String>>,
}

impl InProcServer {
    fn boot(name: &str) -> InProcServer {
        let dir = std::env::temp_dir().join(format!("rover-cluster-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        let addr_file = dir.join("addr.txt");
        let opts = ServerOpts {
            wal: dir.join("w.wal"),
            addr_file: Some(addr_file.clone()),
            tick: Duration::from_millis(5),
            ..ServerOpts::default()
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || run_server(&opts, flag));
        let addr = wait_for_file(&addr_file, Duration::from_secs(10))
            .expect("server never wrote its address");
        InProcServer {
            dir,
            addr,
            shutdown,
            thread,
        }
    }

    fn wal(&self) -> PathBuf {
        self.dir.join("w.wal")
    }

    fn client(&self, connect: &str, host_id: u32, ops: u64) -> Result<ClientSummary, String> {
        run_client(&ClientOpts {
            connect: connect.to_string(),
            host_id,
            ops,
            window: 8,
            rto: Duration::from_millis(300),
            tick: Duration::from_millis(5),
            deadline: Duration::from_secs(60),
            ..ClientOpts::default()
        })
    }

    /// Graceful shutdown; returns the run's summary and removes the
    /// scratch directory.
    fn stop(self) -> ServerSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        let summary = self
            .thread
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
        let _ = std::fs::remove_dir_all(&self.dir);
        summary
    }
}

/// Forty short clients, one after another, against one server: what the
/// server must keep (and rewrite into every checkpoint) for the 40th is
/// what it kept for the 4th, plus a few dozen bytes per client gone. A
/// finished client's closing acknowledgement releases its last window;
/// what stays behind is its floor, its session's sequence floor and the
/// closing ping's own id and empty reply (81 B: 3.4 KB after the 40th).
/// Without the acknowledgement every client left its last window of
/// replies behind, each carrying the object image (7 entries and
/// 1.5 KB per client here: 61 KB after the 40th).
#[test]
fn departed_clients_leave_no_window_of_replies_behind() {
    const OPS: u64 = 24;
    /// Generous bound on a departed client's residue in the image.
    const RESIDUE: usize = 128;
    let sv = InProcServer::boot("departed");

    // (image bytes, pinned dedup entries) of the state a checkpoint
    // taken now would write, read off the live WAL.
    let image_after = |clients: u64| {
        let (snap, n) = recover_snapshot(&sv.wal()).expect("recover live wal");
        assert_eq!(n, clients * OPS, "counter after {clients} clients");
        let img = decode_checkpoint(&snap).expect("own image");
        (snap.len(), img.dedup.len())
    };

    let mut at_4th = (0, 0);
    for i in 1..=40u32 {
        let s = sv.client(&sv.addr, 100 + i, OPS).expect("client run");
        assert_eq!(s.committed, OPS);
        if i == 4 {
            at_4th = image_after(4);
        }
    }
    let at_40th = image_after(40);
    assert!(
        at_40th.1 <= at_4th.1 + 36,
        "pinned dedup entries grew by more than one ping per client: {at_4th:?} -> {at_40th:?}"
    );
    assert!(
        at_40th.0 <= at_4th.0 + 36 * RESIDUE,
        "checkpoint image grew by more than {RESIDUE} B per client: {at_4th:?} -> {at_40th:?}"
    );

    // The summary reports the same two figures.
    let wal_image = at_40th;
    let summary = sv.stop();
    assert_eq!(summary.connections, 40);
    assert_eq!(
        (
            summary.checkpoint_bytes as usize,
            summary.dedup_entries as usize
        ),
        wal_image
    );
}

/// What the ping-watching proxy does once it sees the closing ping.
#[derive(Clone, Copy)]
enum OnPing {
    /// The server "dies": both sockets closed, nothing listening.
    Die,
    /// The server hangs: the ping is swallowed, the sockets stay open.
    Swallow,
}

/// A one-connection frame proxy in front of `upstream` that forwards
/// everything until the first `Ping` request arrives and then behaves
/// as `on_ping` says; the ping never reaches the server. Returns the
/// proxy's address and the slot that receives the instant the ping
/// was seen.
fn ping_watching_proxy(upstream: String, on_ping: OnPing) -> (String, Arc<Mutex<Option<Instant>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let seen = Arc::new(Mutex::new(None));
    let seen2 = seen.clone();
    std::thread::spawn(move || {
        let (mut down, _) = listener.accept().expect("proxy accept");
        drop(listener); // Nothing to redial.
        let mut up = TcpStream::connect(upstream).expect("proxy dial");
        let (mut up_rd, mut down_wr) = (
            up.try_clone().expect("clone"),
            down.try_clone().expect("clone"),
        );
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut up_rd, &mut down_wr);
        });
        while let Ok(env) = read_frame(&mut down) {
            let ping = env.kind == MsgKind::Request
                && QrpcRequest::from_shared(&env.body).is_ok_and(|r| r.op == RoverOp::Ping);
            if !ping {
                write_frame(&mut up, &env).expect("proxy forward");
                continue;
            }
            *seen2.lock().expect("seen lock") = Some(Instant::now());
            if let OnPing::Die = on_ping {
                let _ = down.shutdown(Shutdown::Both);
                let _ = up.shutdown(Shutdown::Both);
                return;
            }
        }
    });
    (addr, seen)
}

/// The closing acknowledgement is best-effort: with the server dead or
/// hung by the time it is sent, the client still reports every op
/// committed, and returns at once (dead) or after its one RTO (hung).
#[test]
fn closing_ack_to_a_dead_or_hung_server_does_not_hold_up_exit() {
    const OPS: u64 = 40;
    const RTO: Duration = Duration::from_millis(300);
    const SLACK: Duration = Duration::from_secs(2);
    let sv = InProcServer::boot("deadack");
    for (host, on_ping) in [(1, OnPing::Die), (2, OnPing::Swallow)] {
        let (proxy, ping_seen) = ping_watching_proxy(sv.addr.clone(), on_ping);
        let s = sv.client(&proxy, host, OPS).expect("client run");
        let waited = ping_seen
            .lock()
            .expect("seen lock")
            .expect("client never sent a closing ping")
            .elapsed();
        assert_eq!(s.committed, OPS);
        match on_ping {
            OnPing::Die => assert!(waited < RTO, "dead server held exit for {waited:?}"),
            OnPing::Swallow => assert!(
                waited >= RTO / 2 && waited < RTO + SLACK,
                "hung server: waited {waited:?}, bound is one RTO ({RTO:?})"
            ),
        }
    }
    // Both clients' commits are durable although neither said goodbye.
    let (_, n) = recover_snapshot(&sv.wal()).expect("recover");
    assert_eq!(n, 2 * OPS);
    sv.stop();
}
