//! A client core and a server core in one thread, each in a `Sim` of
//! its own, joined by queues: the arrangement `rover-cluster` uses, with
//! the TCP socket replaced by a `VecDeque`. It lets the benchmark record
//! the envelopes a workload really sends, time the two cores without a
//! kernel in the way, and replay recorded requests into a server alone.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rover_cluster::{counter_object, counter_urn};
use rover_core::{
    Client, ClientConfig, ClientRef, CommitPolicy, Guarantees, LogPolicy, Promise,
    ReexecuteResolver, Server, ServerConfig, ServerRef, StorageModel, Urn,
};
use rover_log::MemStore;
use rover_net::{register_reassembling_host, LinkId, LinkSpec, Net};
use rover_sim::{CpuModel, Sim, SimDuration};
use rover_wire::{Envelope, HostId, Priority, SessionId};

pub const CLIENT: HostId = HostId(7);
pub const SERVER: HostId = HostId(1_000_000);

/// Fragmentation off, as in the cluster runtime: every envelope is one
/// whole message.
const NO_FRAG_MTU: usize = 1 << 30;
/// Modelled CPU costs would only move virtual timestamps; the passes
/// measure wall time.
const FREE_CPU: CpuModel = CpuModel {
    us_per_kilostep: 0.0,
    us_per_kib_marshal: 0.0,
    dispatch_us: 0.0,
};
/// Virtual time one pump round advances each world.
const ROUND: SimDuration = SimDuration::from_micros(100);

type Queue = Rc<RefCell<VecDeque<Envelope>>>;

/// One host's `Sim` and `Net`, with the peer replaced by a handler that
/// queues whatever the core sends it.
pub struct World {
    pub sim: Sim,
    pub net: Net,
    pub link: LinkId,
    pub outbox: Queue,
}

impl World {
    fn new(me: HostId, peer: HostId) -> World {
        let net = Net::new();
        let link = net.add_link(LinkSpec::LOOPBACK, me, peer);
        let outbox: Queue = Rc::default();
        let q = outbox.clone();
        register_reassembling_host(&net, peer, move |_sim, _net, env| {
            q.borrow_mut().push_back(env);
        });
        World {
            sim: Sim::new(0),
            net,
            link,
            outbox,
        }
    }

    /// Hands one envelope from the peer to this world's core.
    pub fn deliver(&mut self, env: Envelope) {
        // The link is up and both ends are its endpoints; a refusal
        // would be a bug in this file.
        self.net
            .send(&mut self.sim, self.link, env)
            .expect("loopback link accepts the envelope");
    }

    pub fn round(&mut self) {
        self.sim.run_for(ROUND);
    }
}

pub struct ClientWorld {
    pub world: World,
    pub client: ClientRef,
    pub session: SessionId,
}

pub fn client_world() -> ClientWorld {
    let mut world = World::new(CLIENT, SERVER);
    let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
    cfg.cpu = FREE_CPU;
    cfg.storage = StorageModel::FREE;
    cfg.mtu = NO_FRAG_MTU;
    cfg.log_policy = LogPolicy::PerOperation;
    let client = Client::new(&mut world.sim, &world.net, cfg, vec![world.link]);
    let session = Client::create_session(&client, Guarantees::ALL, true);
    ClientWorld {
        world,
        client,
        session,
    }
}

pub struct ServerWorld {
    pub world: World,
    pub server: ServerRef,
}

/// A server over a `MemStore` WAL. `group_batch` is read as
/// `ServerOpts::group_batch` is: 0 selects per-operation commit.
/// `seed` puts the objects in before the WAL's first checkpoint.
pub fn server_world(group_batch: usize, seed: impl FnOnce(&ServerRef)) -> ServerWorld {
    let mut world = World::new(SERVER, CLIENT);
    let mut cfg = ServerConfig::workstation(SERVER);
    cfg.cpu = FREE_CPU;
    cfg.storage = StorageModel::FREE;
    cfg.mtu = NO_FRAG_MTU;
    cfg.checkpoint_every = 256;
    if group_batch > 0 {
        cfg.commit = CommitPolicy::Group {
            max_batch: group_batch,
            window: SimDuration::from_millis(2),
        };
    }
    let server = Server::new(&world.net, cfg);
    server.borrow_mut().add_route(CLIENT, world.link);
    server
        .borrow_mut()
        .register_resolver("counter", Box::new(ReexecuteResolver));
    seed(&server);
    Server::attach_wal(&server, &mut world.sim, Box::new(MemStore::new()))
        .expect("a fresh MemStore takes the first checkpoint");
    ServerWorld { world, server }
}

pub fn counter_server(group_batch: usize) -> ServerWorld {
    server_world(group_batch, |s| {
        s.borrow_mut().put_object(counter_object());
    })
}

/// Everything that crossed between the two worlds, in order.
#[derive(Default)]
pub struct Tape {
    pub to_server: Vec<Envelope>,
    pub to_client: Vec<Envelope>,
}

/// Moves queued envelopes across and lets both cores run, once.
pub fn pump(c: &mut ClientWorld, s: &mut ServerWorld, mut tape: Option<&mut Tape>) {
    c.world.round();
    while let Some(env) = c.world.outbox.borrow_mut().pop_front() {
        if let Some(t) = tape.as_deref_mut() {
            t.to_server.push(env.clone());
        }
        s.world.deliver(env);
    }
    s.world.round();
    while let Some(env) = s.world.outbox.borrow_mut().pop_front() {
        if let Some(t) = tape.as_deref_mut() {
            t.to_client.push(env.clone());
        }
        c.world.deliver(env);
    }
}

/// Pumps until `p` resolves.
pub fn await_promise(
    c: &mut ClientWorld,
    s: &mut ServerWorld,
    p: &Promise,
    mut tape: Option<&mut Tape>,
) -> Result<(), String> {
    for _ in 0..100_000 {
        if p.is_ready() {
            return Ok(());
        }
        pump(c, s, tape.as_deref_mut());
    }
    Err("promise did not resolve in 100 000 pump rounds".into())
}

pub fn import(
    c: &mut ClientWorld,
    s: &mut ServerWorld,
    urn: &Urn,
    tape: Option<&mut Tape>,
) -> Result<(), String> {
    let p = Client::import(
        &c.client,
        &mut c.world.sim,
        urn,
        c.session,
        Priority::FOREGROUND,
    )
    .map_err(|e| format!("import {urn}: {e}"))?;
    await_promise(c, s, &p, tape)
}

/// Drives `ops` counter exports (`add 1`) to commit with `window` in
/// flight, as `run_client` does. The counter must be imported.
pub fn drive_exports(
    c: &mut ClientWorld,
    s: &mut ServerWorld,
    ops: usize,
    window: usize,
    mut tape: Option<&mut Tape>,
) -> Result<(), String> {
    let urn = counter_urn();
    let mut handles = Vec::with_capacity(ops);
    let mut floor = 0usize;
    for _ in 0..1_000_000 {
        while handles.len() < ops && handles.len() - floor < window {
            let h = Client::export(
                &c.client,
                &mut c.world.sim,
                &urn,
                c.session,
                "add",
                &["1"],
                Priority::NORMAL,
            )
            .map_err(|e| format!("export: {e}"))?;
            handles.push(h);
        }
        pump(c, s, tape.as_deref_mut());
        while floor < handles.len() && handles[floor].committed.is_ready() {
            floor += 1;
        }
        if floor == ops {
            return Ok(());
        }
    }
    Err(format!(
        "{floor}/{ops} exports committed before the pump gave up"
    ))
}
