//! `rover-cluster`: run Rover's client/server cores over real sockets.
//!
//! Subcommands:
//!   server --listen A --wal F [--addr-file F] [--group-batch N]
//!          [--group-window-ms N] [--checkpoint-every N]
//!   client --connect A [--host-id N] [--ops N] [--window N]
//!          [--progress F] [--rto-ms N] [--deadline-s N]
//!   dump   --wal F [--out F]
//!
//! `--group-batch` is the server's commit group size (default 32); `0`
//! and `1` both flush each commit on its own.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rover_cluster::{
    atomic_write, recover_snapshot, run_client, run_server, ClientOpts, ServerOpts,
};

/// SIGTERM handling without a signal crate: `std` already links libc,
/// so the C `signal(2)` entry point is available to declare directly.
/// The handler only stores to an atomic — async-signal-safe.
#[allow(unsafe_code)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERMINATED: AtomicBool = AtomicBool::new(false);

    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler; call once at startup.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

fn usage() -> String {
    "usage: rover-cluster <server|client|dump> [flags]\n\
     server --listen ADDR --wal FILE [--addr-file FILE] [--group-batch N]\n\
            [--group-window-ms N] [--checkpoint-every N]\n\
     client --connect ADDR [--host-id N] [--ops N] [--window N]\n\
            [--progress FILE] [--rto-ms N] [--deadline-s N]\n\
     dump   --wal FILE [--out FILE]"
        .into()
}

/// Pulls `--flag value` pairs out of `args`; rejects unknown flags.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let name = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k}"))?;
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), v.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }
}

fn cmd_server(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "listen",
            "wal",
            "addr-file",
            "group-batch",
            "group-window-ms",
            "checkpoint-every",
        ],
    )?;
    let mut opts = ServerOpts {
        listen: f.get("listen").unwrap_or("127.0.0.1:0").to_string(),
        wal: PathBuf::from(f.get("wal").ok_or("--wal is required")?),
        ..ServerOpts::default()
    };
    opts.addr_file = f.get("addr-file").map(PathBuf::from);
    opts.group_batch = f.num("group-batch", opts.group_batch as u64)? as usize;
    opts.group_window_ms = f.num("group-window-ms", opts.group_window_ms)?;
    opts.checkpoint_every = f.num("checkpoint-every", opts.checkpoint_every as u64)? as usize;

    sigterm::install();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    // Bridge the signal-handler static to the runtime's shutdown flag.
    std::thread::spawn(move || loop {
        if sigterm::TERMINATED.load(Ordering::SeqCst) {
            flag.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    let s = run_server(&opts, shutdown)?;
    println!(
        "server: recovered={} requests={} group_commits={} checkpoints={} connections={} \
         dedup_entries={} checkpoint_bytes={}",
        s.recovered,
        s.requests,
        s.group_commits,
        s.checkpoints,
        s.connections,
        s.dedup_entries,
        s.checkpoint_bytes
    );
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "connect",
            "host-id",
            "ops",
            "window",
            "progress",
            "rto-ms",
            "deadline-s",
        ],
    )?;
    let mut opts = ClientOpts {
        connect: f.get("connect").ok_or("--connect is required")?.to_string(),
        ..ClientOpts::default()
    };
    opts.host_id = f.num("host-id", opts.host_id as u64)? as u32;
    opts.ops = f.num("ops", opts.ops)?;
    opts.window = f.num("window", opts.window as u64)? as usize;
    opts.progress = f.get("progress").map(PathBuf::from);
    opts.rto = Duration::from_millis(f.num("rto-ms", 500)?);
    opts.deadline = Duration::from_secs(f.num("deadline-s", 120)?);

    let s = run_client(&opts)?;
    println!(
        "client: committed={} retransmits={} reconnects={} wall_ms={}",
        s.committed, s.retransmits, s.reconnects, s.wall_ms
    );
    Ok(())
}

fn cmd_dump(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["wal", "out"])?;
    let wal = PathBuf::from(f.get("wal").ok_or("--wal is required")?);
    let (snapshot, n) = recover_snapshot(&wal)?;
    if let Some(out) = f.get("out") {
        let hex: String = snapshot.iter().map(|b| format!("{b:02x}")).collect();
        atomic_write(&PathBuf::from(out), &hex)?;
    }
    println!("counter_n={} snapshot_bytes={}", n, snapshot.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.first().map(String::as_str) {
        Some("server") => cmd_server(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        _ => Err(usage()),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rover-cluster: {e}");
            ExitCode::FAILURE
        }
    }
}
