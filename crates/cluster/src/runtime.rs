//! Server and client drive loops bridging `Sim`/`Net` onto TCP sockets.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rover_core::{
    Client, ClientConfig, CommitPolicy, Guarantees, LogPolicy, Priority, ReexecuteResolver,
    RoverError, RoverObject, Server, ServerConfig, ServerRef, StorageModel, Urn, World,
};
use rover_log::{FileStore, MemStore, StableStore};
use rover_net::{
    register_reassembling_host, LinkId, LinkSpec, ReconnectPolicy, TcpTransport, Transport,
    TransportEvent,
};
use rover_sim::{Clock, CpuModel, Sim, SimDuration, SimTime, WallClock};
use rover_wire::HostId;

/// The server's host id on every per-process loopback fabric. Client
/// host ids are chosen by the client process (any value but this one).
pub const SERVER_HOST: HostId = HostId(1_000_000);

/// Effectively-infinite MTU: framing over TCP makes sim-level
/// fragmentation pure overhead, so it is disabled on both sides.
const NO_FRAG_MTU: usize = 1 << 30;

/// The shared workload object: one counter RDO, incremented by `add`.
pub fn counter_urn() -> Urn {
    Urn::parse("urn:rover:cluster/counter").expect("static urn")
}

/// Builds the counter object seeded into a fresh server.
pub fn counter_object() -> RoverObject {
    RoverObject::new(counter_urn(), "counter")
        .with_code(
            "proc get {} {rover::get n 0}
             proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}",
        )
        .with_field("n", "0")
}

/// Writes `contents` to `path` atomically (tmp + rename), so concurrent
/// readers never observe a torn file. The temp file is `<path>.tmp`,
/// `.tmp` appended to the whole name, so `run.addr` and `run.prog`
/// never share one.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Builds the counter-serving home server of `w` on `store`, recovering
/// whatever the device holds. Nothing is modelled: under a wall clock
/// the store's fsync and the CPU this process burns are the real costs,
/// and a modelled charge on top of them is a real timer wait. `tune`
/// adjusts the config before the server is built.
fn counter_server(
    w: &mut World,
    store: Box<dyn StableStore>,
    tune: impl FnOnce(&mut ServerConfig),
) -> Result<ServerRef, RoverError> {
    let mut cfg = ServerConfig::workstation(SERVER_HOST);
    cfg.storage = StorageModel::FREE;
    cfg.cpu = CpuModel::FREE;
    cfg.mtu = NO_FRAG_MTU;
    tune(&mut cfg);
    let server = w.server(cfg);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    // Seed before attaching: on an empty device the object lands in the
    // initial checkpoint; on recovery the checkpoint replaces it.
    server.borrow_mut().put_object(counter_object());
    Server::attach_wal(&server, &mut w.sim, store)?;
    Ok(server)
}

/// Advances `sim` to the wall clock's current instant, firing everything
/// due. (`run_until` requires a non-decreasing deadline.) Outbound
/// frames are queued meanwhile; the driver flushes them once after.
fn catch_up(sim: &mut Sim, clock: &WallClock) {
    sim.run_until(clock.now().max(sim.now()));
}

/// Computes how long the driver may sleep: until the sim's next timer,
/// capped by the poll tick (which bounds shutdown-flag latency).
fn next_wait(sim: &mut Sim, clock: &WallClock, tick: Duration) -> SimTime {
    let cap = clock.now() + SimDuration::from_micros(tick.as_micros().max(1) as u64);
    match sim.next_deadline() {
        Some(d) => d.min(cap),
        None => cap,
    }
}

// ---------------------------------------------------------------------
// Server runtime
// ---------------------------------------------------------------------

/// Configuration for [`run_server`].
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Listen address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// Path of the write-ahead log file (created if absent; a non-empty
    /// file is recovered from).
    pub wal: PathBuf,
    /// Group-commit batch size; `0` and `1` both flush each commit on
    /// its own.
    pub group_batch: usize,
    /// Group-commit window in milliseconds.
    pub group_window_ms: u64,
    /// Commits between checkpoints.
    pub checkpoint_every: usize,
    /// When set, the actually-bound address is written here once
    /// listening (lets harnesses bind port 0).
    pub addr_file: Option<PathBuf>,
    /// Driver poll tick (bounds shutdown latency).
    pub tick: Duration,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            listen: "127.0.0.1:0".into(),
            wal: PathBuf::from("rover.wal"),
            group_batch: 32,
            group_window_ms: 2,
            checkpoint_every: 64,
            addr_file: None,
            tick: Duration::from_millis(25),
        }
    }
}

/// What a server run did, reported after a graceful shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServerSummary {
    /// Commits recovered from the WAL at boot.
    pub recovered: u64,
    /// Requests executed this run.
    pub requests: u64,
    /// Group-commit flushes this run.
    pub group_commits: u64,
    /// Checkpoints written this run (includes the shutdown checkpoint).
    pub checkpoints: u64,
    /// Distinct client connections accepted.
    pub connections: u64,
    /// Dedup replies still pinned at exit (at or above their client's
    /// acknowledgement floor): what every checkpoint re-serialises.
    /// Flat in the number of clients served when clients say goodbye
    /// ([`run_client`]'s closing acknowledgement); grows by a window's
    /// worth per client that vanished without one.
    pub dedup_entries: u64,
    /// Size in bytes of the state image the shutdown checkpoint wrote.
    pub checkpoint_bytes: u64,
}

/// One live client connection and the host id it authenticated as
/// (learned from its first envelope's `src`).
struct Conn {
    transport: TcpTransport,
    host: Option<HostId>,
}

/// Writes every connection's queued frames, one write each. A failed
/// write is a drop: the client retransmits and the dedup table replays
/// the reply.
fn flush_all(conns: &RefCell<BTreeMap<u64, Conn>>) {
    for c in conns.borrow_mut().values_mut() {
        let _ = c.transport.flush();
    }
}

/// Where a throwaway connection to a listener bound at `local` lands.
fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
}

/// Runs a Rover home server on real TCP + a real fsync'd WAL until
/// `shutdown` becomes true, then flushes any staged group-commit batch,
/// checkpoints, and returns.
pub fn run_server(opts: &ServerOpts, shutdown: Arc<AtomicBool>) -> Result<ServerSummary, String> {
    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("bind {}: {e}", opts.listen))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if let Some(f) = &opts.addr_file {
        atomic_write(f, &local.to_string())?;
    }

    let clock = WallClock::new();
    let mut w = World::new(0);

    let store =
        FileStore::open(&opts.wal).map_err(|e| format!("wal {}: {e}", opts.wal.display()))?;
    let server = counter_server(&mut w, Box::new(store), |cfg| {
        cfg.checkpoint_every = opts.checkpoint_every;
        cfg.commit = CommitPolicy::Group {
            max_batch: opts.group_batch,
            window: SimDuration::from_millis(opts.group_window_ms),
        };
    })
    .map_err(|e| format!("attach wal: {e}"))?;
    let recovered = w.sim.stats.counter("server.recovered_commits");

    // Acceptor thread: blocks in `accept()` and hands fresh transports
    // to the driver. Each connection's reader thread notifies the wall
    // clock, waking the driver out of its timer wait.
    let (conn_tx, conn_rx) = mpsc::channel::<TcpTransport>();
    let acc_clock = clock.clone();
    let acc_stop = shutdown.clone();
    let acceptor = std::thread::spawn(move || {
        for sock in listener.incoming() {
            // Checked after every wake-up: the connection that ended
            // the wait may be the shutdown path's throwaway one.
            if acc_stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(sock) = sock else { return };
            let c = acc_clock.clone();
            if let Ok(t) = TcpTransport::from_stream(sock, move || c.notify()) {
                if conn_tx.send(t).is_err() {
                    return;
                }
                acc_clock.notify();
            }
        }
    });

    // Per-client plumbing, shared with the outbound proxy handlers.
    // Connections are keyed by accept order and dropped when they die,
    // so a driver turn costs the live connections, not every one ever
    // accepted.
    let conns: Rc<RefCell<BTreeMap<u64, Conn>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let routes: Rc<RefCell<HashMap<HostId, u64>>> = Rc::new(RefCell::new(HashMap::new()));
    let mut links: HashMap<HostId, LinkId> = HashMap::new();
    let mut connections_total = 0u64;

    while !shutdown.load(Ordering::Relaxed) {
        while let Ok(t) = conn_rx.try_recv() {
            conns.borrow_mut().insert(
                connections_total,
                Conn {
                    transport: t,
                    host: None,
                },
            );
            connections_total += 1;
        }

        // Drain every connection's inbound events, binding connections
        // to client hosts on first contact (latest connection wins, so
        // a reconnect simply re-routes replies).
        let live: Vec<u64> = conns.borrow().keys().copied().collect();
        for idx in live {
            loop {
                let ev = match conns.borrow_mut().get_mut(&idx) {
                    Some(c) => c.transport.poll_event(),
                    None => None,
                };
                match ev {
                    None => break,
                    Some(TransportEvent::Connected) => {}
                    Some(TransportEvent::Disconnected(_)) => {
                        // Reap: the transport, its socket and its
                        // reader's shared state go with the entry.
                        let dead = conns.borrow_mut().remove(&idx);
                        if let Some(h) = dead.and_then(|c| c.host) {
                            let mut rt = routes.borrow_mut();
                            if rt.get(&h) == Some(&idx) {
                                rt.remove(&h);
                            }
                        }
                    }
                    Some(TransportEvent::Frame(env)) => {
                        let src = env.src;
                        if src == SERVER_HOST {
                            continue; // A client may not impersonate us.
                        }
                        if let Some(c) = conns.borrow_mut().get_mut(&idx) {
                            c.host.get_or_insert(src);
                        }
                        routes.borrow_mut().insert(src, idx);
                        let link = *links.entry(src).or_insert_with(|| {
                            // The world gives the server its route back.
                            let link = w.link(LinkSpec::LOOPBACK, src, SERVER_HOST);
                            // Outbound proxy: replies addressed to this
                            // host leave through its live connection.
                            let conns2 = conns.clone();
                            let routes2 = routes.clone();
                            register_reassembling_host(&w.net, src, move |_sim, _net, env| {
                                let target = routes2.borrow().get(&env.dst).copied();
                                let mut cs = conns2.borrow_mut();
                                if let Some(c) = target.and_then(|i| cs.get_mut(&i)) {
                                    // Leaves at the turn's flush.
                                    let _ = c.transport.queue(&env);
                                }
                            });
                            link
                        });
                        let _ = w.net.send(&mut w.sim, link, env);
                    }
                }
            }
        }

        catch_up(&mut w.sim, &clock);
        flush_all(&conns);
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let wait = next_wait(&mut w.sim, &clock, opts.tick);
        clock.wait_until(Some(wait));
    }

    // Graceful shutdown: make the staged batch durable and checkpoint,
    // then let immediate follow-up events (reply dispatch) drain.
    Server::flush_and_checkpoint(&server, &mut w.sim);
    w.sim.run_for(SimDuration::from_millis(5));
    flush_all(&conns);
    // The acceptor sits in `accept()`; a throwaway connection wakes it
    // to see the flag. If even that cannot be made, leave it detached
    // rather than wait on it forever.
    if TcpStream::connect(wake_addr(local)).is_ok() || acceptor.is_finished() {
        let _ = acceptor.join();
    }

    let server = server.borrow();
    Ok(ServerSummary {
        recovered,
        requests: w.sim.stats.counter("server.requests"),
        group_commits: w.sim.stats.counter("server.group_commits"),
        checkpoints: w.sim.stats.counter("server.checkpoints"),
        connections: connections_total,
        dedup_entries: server.dedup_entries() as u64,
        // Nothing changed the state since the shutdown checkpoint, so
        // this is that image again.
        checkpoint_bytes: server.export_store().len() as u64,
    })
}

// ---------------------------------------------------------------------
// Client runtime
// ---------------------------------------------------------------------

/// Configuration for [`run_client`].
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// Server address to dial.
    pub connect: String,
    /// This client's host id (any value except [`SERVER_HOST`]).
    pub host_id: u32,
    /// Number of counter increments to drive to durable commit.
    pub ops: u64,
    /// Maximum exports in flight at once.
    pub window: usize,
    /// When set, the committed-op count is atomically rewritten here
    /// every time it changes (the chaos harness watches this file).
    pub progress: Option<PathBuf>,
    /// Real-time retransmission timeout for the first probe.
    pub rto: Duration,
    /// Driver poll tick.
    pub tick: Duration,
    /// Overall wall-clock budget; exceeded = error.
    pub deadline: Duration,
}

impl Default for ClientOpts {
    fn default() -> Self {
        ClientOpts {
            connect: String::new(),
            host_id: 1,
            ops: 100,
            window: 8,
            progress: None,
            rto: Duration::from_millis(500),
            tick: Duration::from_millis(25),
            deadline: Duration::from_secs(120),
        }
    }
}

/// What a client run observed.
#[derive(Debug, Clone, Default)]
pub struct ClientSummary {
    /// Ops driven to durable commit (equals `opts.ops` on success).
    pub committed: u64,
    /// QRPC retransmissions sent (non-zero across a server kill).
    pub retransmits: u64,
    /// TCP reconnects after the initial connect.
    pub reconnects: u64,
    /// Wall time from first to last commit, in milliseconds.
    pub wall_ms: u64,
}

/// Runs one client: imports the counter, then drives `ops` exports
/// (`add 1`) to durable commit, riding out any server outage via the
/// standard QRPC retransmission path over a reconnecting TCP transport.
pub fn run_client(opts: &ClientOpts) -> Result<ClientSummary, String> {
    let clock = WallClock::new();
    let me = HostId(opts.host_id);
    if me == SERVER_HOST {
        return Err("host id collides with the server".into());
    }

    let mut cfg = ClientConfig::thinkpad(me, SERVER_HOST);
    cfg.storage = StorageModel::FREE;
    cfg.cpu = CpuModel::FREE;
    cfg.mtu = NO_FRAG_MTU;
    cfg.log_policy = LogPolicy::PerOperation;
    cfg.rto = SimDuration::from_micros(opts.rto.as_micros().max(1000) as u64);
    let rto = cfg.rto;
    cfg.rto_max = SimDuration::from_micros((opts.rto.as_micros() as u64).saturating_mul(16));
    let mut w = World::new(0);
    let client = w.client(cfg, LinkSpec::LOOPBACK);
    let link = w.links_of(me)[0];
    let World { mut sim, net, .. } = w;
    let session = Client::create_session(&client, Guarantees::ALL, true);

    // Outbound proxy: envelopes the sim routes to the server host are
    // queued on the TCP transport and leave at the turn's flush;
    // failures are drops (RTO recovers).
    let notify_clock = clock.clone();
    let policy = ReconnectPolicy {
        initial: Duration::from_millis(50),
        backoff: 2.0,
        max: Duration::from_secs(1),
    };
    let transport = Rc::new(RefCell::new(TcpTransport::connect(
        opts.connect.clone(),
        policy,
        move || notify_clock.notify(),
    )));
    let t2 = transport.clone();
    register_reassembling_host(&net, SERVER_HOST, move |_sim, _net, env| {
        let _ = t2.borrow_mut().queue(&env);
    });
    // Down until the dial completes; the up transition re-arms every
    // parked request exactly as a sim link flap would.
    net.set_up(&mut sim, link, false);

    let import = Client::import(
        &client,
        &mut sim,
        &counter_urn(),
        session,
        Priority::FOREGROUND,
    )
    .map_err(|e| format!("import: {e}"))?;

    let mut handles: Vec<rover_core::ExportHandle> = Vec::with_capacity(opts.ops as usize);
    let mut committed_floor = 0usize; // handles[..floor] are all committed.
    let mut reported = u64::MAX;
    let mut reconnects: i64 = -1; // First Connected is the initial dial.
    let started = clock.now();
    let mut first_commit_at: Option<SimTime> = None;

    // Feeds the transport's pending events into the sim; returns the
    // connects seen and whether the connection dropped.
    let pump = |sim: &mut Sim| {
        let (mut connects, mut dropped) = (0, false);
        let mut t = transport.borrow_mut();
        while let Some(ev) = t.poll_event() {
            match ev {
                TransportEvent::Connected => {
                    connects += 1;
                    net.set_up(sim, link, true);
                }
                TransportEvent::Disconnected(_) => {
                    dropped = true;
                    net.set_up(sim, link, false);
                }
                TransportEvent::Frame(env) => {
                    let _ = net.send(sim, link, env);
                }
            }
        }
        (connects, dropped)
    };

    loop {
        reconnects += pump(&mut sim).0;
        catch_up(&mut sim, &clock);
        let _ = transport.borrow_mut().flush();

        // Op pump: once the import resolves, keep `window` exports in
        // flight until all `ops` are issued.
        if import.is_ready() {
            while (handles.len() as u64) < opts.ops {
                let in_flight = handles[committed_floor..]
                    .iter()
                    .filter(|h| !h.committed.is_ready())
                    .count();
                if in_flight >= opts.window {
                    break;
                }
                let h = Client::export(
                    &client,
                    &mut sim,
                    &counter_urn(),
                    session,
                    "add",
                    &["1"],
                    Priority::NORMAL,
                )
                .map_err(|e| format!("export: {e}"))?;
                handles.push(h);
            }
        }
        while committed_floor < handles.len() && handles[committed_floor].committed.is_ready() {
            committed_floor += 1;
        }
        let committed = committed_floor as u64
            + handles[committed_floor..]
                .iter()
                .filter(|h| h.committed.is_ready())
                .count() as u64;
        if committed > 0 && first_commit_at.is_none() {
            first_commit_at = Some(clock.now());
        }
        if committed != reported {
            reported = committed;
            if let Some(p) = &opts.progress {
                atomic_write(p, &committed.to_string())?;
            }
        }
        if committed >= opts.ops {
            break;
        }
        if clock.now().since(started) > SimDuration::from_micros(opts.deadline.as_micros() as u64) {
            return Err(format!(
                "deadline exceeded: {committed}/{} ops committed",
                opts.ops
            ));
        }
        let wait = next_wait(&mut sim, &clock, opts.tick);
        clock.wait_until(Some(wait));
    }

    let wall_ms = first_commit_at
        .map(|t0| clock.now().since(t0).as_micros() / 1000)
        .unwrap_or(0);

    // Closing acknowledgement. `acked_below` only rides on requests, so
    // a client that simply stops leaves its last window unacknowledged:
    // the server pins those replies (each carrying the object image)
    // and re-serialises them into every checkpoint for good. With
    // nothing outstanding, one ping carries `acked_below = next_req`
    // and releases them all. Best-effort: it gets one RTO and no
    // retransmission, and a dropped connection ends the wait, so a dead
    // server cannot hold up the exit.
    let bye = Client::ping(&client, &mut sim, session, Priority::NORMAL);
    let give_up = clock.now() + rto;
    loop {
        let dropped = pump(&mut sim).1;
        catch_up(&mut sim, &clock);
        let _ = transport.borrow_mut().flush();
        if bye.is_ready() || dropped || clock.now() >= give_up {
            break;
        }
        let wait = next_wait(&mut sim, &clock, opts.tick).min(give_up);
        clock.wait_until(Some(wait));
    }

    transport.borrow_mut().shutdown();
    Ok(ClientSummary {
        committed: opts.ops,
        retransmits: sim.stats.counter("client.retransmits"),
        reconnects: reconnects.max(0) as u64,
        wall_ms,
    })
}

// ---------------------------------------------------------------------
// Offline WAL inspection
// ---------------------------------------------------------------------

/// Recovers server state from a WAL file *without touching it*: the
/// device bytes are copied into a [`MemStore`] and replayed through the
/// standard recovery path. Returns the canonical state snapshot
/// ([`Server::export_store`]) and the recovered counter value.
pub fn recover_snapshot(wal: &Path) -> Result<(Vec<u8>, u64), String> {
    let bytes = std::fs::read(wal).map_err(|e| format!("read {}: {e}", wal.display()))?;
    let mut store = MemStore::new();
    store
        .reset(&bytes)
        .map_err(|e| format!("load wal image: {e}"))?;

    let mut w = World::new(0);
    let server =
        counter_server(&mut w, Box::new(store), |_| {}).map_err(|e| format!("recover: {e}"))?;
    w.sim.run();

    let snap = server.borrow().export_store();
    let n = read_counter(&server)?;
    Ok((snap, n))
}

/// Reads the counter object's value from a live server reference.
pub fn read_counter(server: &ServerRef) -> Result<u64, String> {
    let s = server.borrow();
    let obj = s
        .get_object(&counter_urn())
        .ok_or_else(|| "counter object missing".to_string())?;
    obj.field("n")
        .ok_or_else(|| "counter field missing".to_string())?
        .parse::<u64>()
        .map_err(|e| format!("counter not a number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a.addr`'s temp file is `a.addr.tmp`: a directory at `a.tmp`
    /// (or a sibling `a.prog`'s write) does not collide with it.
    #[test]
    fn atomic_write_temp_file_keeps_the_whole_name() {
        let dir = std::env::temp_dir().join(format!("rover-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("a.tmp")).unwrap();
        let path = dir.join("a.addr");
        atomic_write(&path, "127.0.0.1:1").unwrap();
        atomic_write(&path, "127.0.0.1:2").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "127.0.0.1:2");
        assert!(!dir.join("a.addr.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
