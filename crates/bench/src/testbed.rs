//! Shared experiment testbed: one mobile client, one home server, one
//! configurable channel — the paper's measurement setup.

use rover_core::{
    counter_object, step_until, Client, ClientConfig, ClientRef, Guarantees, Promise,
    ReexecuteResolver, RoverObject, ScriptResolver, ServerConfig, ServerRef, Urn, World,
};
use rover_net::{LinkId, LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::{HostId, SessionId};

/// The client host id used by all rigs.
pub const CLIENT: HostId = HostId(1);
/// The server host id used by all rigs.
pub const SERVER: HostId = HostId(2);

/// How long the rig waits on one promise or drain before it panics:
/// nothing in these experiments legitimately takes that long.
const TEN_HOURS: SimDuration = SimDuration::from_secs(36_000);

/// One client/server pair over one link.
pub struct Rig {
    /// The simulation world.
    pub sim: Sim,
    /// The network.
    pub net: Net,
    /// The (single) client↔server link.
    pub link: LinkId,
    /// The home server.
    pub server: ServerRef,
    /// The mobile client.
    pub client: ClientRef,
    /// A ready-made session with all guarantees.
    pub session: SessionId,
}

impl Rig {
    /// Builds a rig over `spec` with the paper's default client config.
    pub fn new(spec: LinkSpec) -> Rig {
        Rig::with_config(spec, |_| {})
    }

    /// Builds a rig, letting the caller tweak the client configuration.
    pub fn with_config(spec: LinkSpec, tweak: impl FnOnce(&mut ClientConfig)) -> Rig {
        Rig::with_configs(spec, tweak, |_| {})
    }

    /// Builds a rig, letting the caller tweak both configurations.
    pub fn with_configs(
        spec: LinkSpec,
        tweak: impl FnOnce(&mut ClientConfig),
        tweak_server: impl FnOnce(&mut ServerConfig),
    ) -> Rig {
        let mut w = World::new(1995);
        let mut scfg = ServerConfig::workstation(SERVER);
        tweak_server(&mut scfg);
        let server = w.server(scfg);
        server
            .borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        for ty in ["mailfolder", "mailmsg", "spool", "calendar", "webpage"] {
            server
                .borrow_mut()
                .register_resolver(ty, Box::new(ScriptResolver::default()));
        }
        let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
        tweak(&mut cfg);
        let client = w.client(cfg, spec);
        let link = w.links_of(CLIENT)[0];
        let session = Client::create_session(&client, Guarantees::ALL, true);
        let World { sim, net, .. } = w;
        Rig {
            sim,
            net,
            link,
            server,
            client,
            session,
        }
    }

    /// Installs a payload object of roughly `bytes` data bytes.
    pub fn put_blob(&self, path: &str, bytes: usize) -> Urn {
        let urn = Urn::new("bench", path).expect("valid urn");
        self.server.borrow_mut().put_object(
            RoverObject::new(urn.clone(), "blob").with_field("body", &"x".repeat(bytes)),
        );
        urn
    }

    /// Installs the standard counter object (`n` = 0) used by the drain
    /// experiments.
    pub fn put_counter(&self) -> Urn {
        let urn = Urn::parse("urn:rover:bench/counter").expect("valid urn");
        self.server.borrow_mut().put_object(counter_object(&urn, 0));
        urn
    }

    /// Runs the sim until `p` resolves (panics after [`TEN_HOURS`]).
    pub fn await_promise(&mut self, p: &Promise) {
        if !step_until(&mut self.sim, TEN_HOURS, || p.is_ready()) {
            panic!("promise did not resolve (t = {})", self.sim.now());
        }
    }

    /// Steps the simulation until no QRPCs are outstanding; returns the
    /// elapsed virtual milliseconds. (Unlike `sim.run()`, this does not
    /// wait out parked retransmission timers.)
    pub fn await_drain(&mut self) -> f64 {
        let t0 = self.sim.now();
        let client = &self.client;
        if !step_until(&mut self.sim, TEN_HOURS, || {
            Client::outstanding_count(client) == 0
        }) {
            panic!("queue did not drain (t = {})", self.sim.now());
        }
        self.sim.now().since(t0).as_millis_f64()
    }

    /// Measures the resolution latency of the promise returned by `f`,
    /// in milliseconds of virtual time.
    pub fn time_op(&mut self, f: impl FnOnce(&mut Rig) -> Promise) -> f64 {
        let t0 = self.sim.now();
        let p = f(self);
        self.await_promise(&p);
        p.resolved_at().expect("resolved").since(t0).as_millis_f64()
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
