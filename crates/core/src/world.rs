//! One simulated world: the simulator, the network, and the hosts on
//! it, wired the one way the toolkit is shaped — a client's access
//! manager, its links, and home servers that route replies back over
//! those links (paper §1).
//!
//! A [`World`] creates every link, so it knows both ends of each one:
//! a link that ends at a registered server gets that server's reply
//! route at once, and a server built later on a host (a restart into a
//! brand-new server) gets the routes of every link already ending
//! there. Hosts and links are created in call order, so a harness that
//! makes the same calls in the same order replays the same run.

use std::collections::HashMap;

use rover_log::MemStore;
use rover_net::{LinkId, LinkSpec, Net};
use rover_sim::{Sim, SimDuration};
use rover_wire::HostId;

use crate::{Client, ClientConfig, ClientRef, Promise, RoverObject, Server, ServerConfig};
use crate::{ServerRef, ShardMap, Urn, Version};

/// A simulator, a network, and a registry of the servers and links on
/// it.
pub struct World {
    /// The event loop and its clock, stats and trace.
    pub sim: Sim,
    /// The network every host and link lives on.
    pub net: Net,
    /// The federation's routing table, when the URN space is sharded:
    /// [`World::put_counter`] installs on a URN's home shard by it.
    pub shards: Option<ShardMap>,
    /// The newest server on each host, in first-registration order.
    servers: Vec<(HostId, ServerRef)>,
    /// Every link ending at a host, with the host at its other end, in
    /// creation order.
    ends: HashMap<HostId, Vec<(LinkId, HostId)>>,
}

impl World {
    /// An empty world whose simulator is seeded with `seed`.
    pub fn new(seed: u64) -> World {
        World {
            sim: Sim::new(seed),
            net: Net::new(),
            shards: None,
            servers: Vec::new(),
            ends: HashMap::new(),
        }
    }

    /// Builds a server on `cfg.host` and registers it. A server built
    /// on a host that already had one replaces it, and takes over the
    /// reply routes of every link ending there.
    pub fn server(&mut self, cfg: ServerConfig) -> ServerRef {
        let host = cfg.host;
        let sv = Server::new(&self.net, cfg);
        for &(link, peer) in self.ends.get(&host).into_iter().flatten() {
            sv.borrow_mut().add_route(peer, link);
        }
        match self.servers.iter_mut().find(|(h, _)| *h == host) {
            Some(slot) => slot.1 = sv.clone(),
            None => self.servers.push((host, sv.clone())),
        }
        sv
    }

    /// Adds a link between `a` and `b`; each end that is a registered
    /// server gets the reply route to the other end, `a`'s first.
    pub fn link(&mut self, spec: LinkSpec, a: HostId, b: HostId) -> LinkId {
        let link = self.net.add_link(spec, a, b);
        for (end, peer) in [(a, b), (b, a)] {
            self.ends.entry(end).or_default().push((link, peer));
            if let Some(sv) = self.server_on(end) {
                sv.borrow_mut().add_route(peer, link);
            }
        }
        link
    }

    /// Builds a client with one `spec` link to each home its config
    /// names — `cfg.server`, then the `cfg.shards` hosts, then the
    /// `cfg.authorities` hosts in host order — each home once, links in
    /// that order.
    pub fn client(&mut self, cfg: ClientConfig, spec: LinkSpec) -> ClientRef {
        let mut homes = vec![cfg.server];
        if let Some(map) = &cfg.shards {
            homes.extend_from_slice(map.hosts());
        }
        let mut authorities: Vec<HostId> = cfg.authorities.values().copied().collect();
        authorities.sort();
        homes.extend(authorities);
        let mut links = Vec::with_capacity(homes.len());
        for (i, &home) in homes.iter().enumerate() {
            if !homes[..i].contains(&home) {
                links.push(self.link(spec, cfg.host, home));
            }
        }
        Client::new(&mut self.sim, &self.net, cfg, links)
    }

    /// Restarts the client on `cfg.host` from its crashed stable log,
    /// over every link that host already has.
    pub fn recover_client(&mut self, cfg: ClientConfig, store: MemStore) -> ClientRef {
        let links = self.links_of(cfg.host);
        Client::recover(&mut self.sim, &self.net, cfg, links, store)
    }

    /// Every link ending at `host`, in creation order.
    pub fn links_of(&self, host: HostId) -> Vec<LinkId> {
        let ends = self.ends.get(&host).into_iter().flatten();
        ends.map(|&(link, _)| link).collect()
    }

    /// The server homing `urn`: its shard under [`World::shards`], else
    /// the first server registered.
    pub fn home(&self, urn: &Urn) -> Option<&ServerRef> {
        match &self.shards {
            Some(map) => self.server_on(map.host_for(urn.as_str())),
            None => self.servers.first().map(|(_, sv)| sv),
        }
    }

    /// Installs a counter object with field `n` at `urn`'s
    /// [home](World::home) and returns its stored version; `None` if the
    /// world has no server to hold it.
    pub fn put_counter(&self, urn: &Urn, n: i64) -> Option<Version> {
        let sv = self.home(urn)?;
        Some(sv.borrow_mut().put_object(counter_object(urn, n)))
    }

    /// Steps the simulation until `p` resolves; false if the event queue
    /// empties or more than `limit` of virtual time passes first.
    pub fn await_promise(&mut self, p: &Promise, limit: SimDuration) -> bool {
        step_until(&mut self.sim, limit, || p.is_ready())
    }

    fn server_on(&self, host: HostId) -> Option<&ServerRef> {
        self.servers
            .iter()
            .find(|(h, _)| *h == host)
            .map(|(_, sv)| sv)
    }
}

/// The counter object every harness counts with: type `counter`, field
/// `n`, and one method, `add k`, that adds `k` to `n`.
pub fn counter_object(urn: &Urn, n: i64) -> RoverObject {
    RoverObject::new(urn.clone(), "counter")
        .with_code("proc add {k} {rover::set n [expr {[rover::get n 0] + $k}]}")
        .with_field("n", &n.to_string())
}

/// Steps `sim` until `done` holds; false if the event queue empties or
/// more than `limit` of virtual time passes first. Unlike `sim.run()`,
/// it stops as soon as `done` holds, without waiting out timers still
/// parked.
pub fn step_until(sim: &mut Sim, limit: SimDuration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = sim.now() + limit;
    while !done() {
        if !sim.step() || sim.now() > deadline {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Guarantees, ReexecuteResolver};
    use rover_wire::{OpStatus, Priority};

    const CLIENT: HostId = HostId(1);
    const SERVER: HostId = HostId(2);
    const LIMIT: SimDuration = SimDuration::from_secs(600);

    fn urn(path: &str) -> Urn {
        Urn::parse(&format!("urn:rover:t/{path}")).unwrap()
    }

    /// Imports `urn` from `host`'s client across an outage, and returns
    /// the counter it read. Every link of `host` drops while the server
    /// works on the request and comes back a second later, so the reply
    /// leaves during the outage: it reaches the client only if the world
    /// registered the server's route back (a server that knows no route
    /// drops it).
    fn import(w: &mut World, host: HostId, cl: &ClientRef, urn: &Urn) -> Option<String> {
        let s = Client::create_session(cl, Guarantees::ALL, true);
        let seen = w.sim.stats.counter("server.requests");
        let p = Client::import(cl, &mut w.sim, urn, s, Priority::FOREGROUND).unwrap();
        while w.sim.stats.counter("server.requests") == seen {
            assert!(w.sim.step(), "{urn} never reached a server");
        }
        let links = w.links_of(host);
        for up in [false, true] {
            for &l in &links {
                w.net.set_up(&mut w.sim, l, up);
            }
            w.sim.run_for(SimDuration::from_secs(1));
        }
        assert!(w.await_promise(&p, LIMIT), "no reply for {urn}");
        assert_eq!(w.sim.stats.counter("server.reply_dropped"), 0);
        let o = p.poll().unwrap();
        assert_eq!(o.status, OpStatus::Ok);
        o.object?.field("n").map(str::to_owned)
    }

    #[test]
    fn single_home() {
        let mut w = World::new(1);
        w.server(ServerConfig::workstation(SERVER));
        assert_eq!(w.put_counter(&urn("c"), 5), Some(crate::Version(1)));
        let cl = w.client(ClientConfig::thinkpad(CLIENT, SERVER), LinkSpec::WAVELAN_2M);
        assert_eq!(w.links_of(CLIENT), w.links_of(SERVER));
        assert_eq!(import(&mut w, CLIENT, &cl, &urn("c")).as_deref(), Some("5"));
    }

    #[test]
    fn two_clients_on_one_server() {
        let mut w = World::new(2);
        w.server(ServerConfig::workstation(SERVER));
        w.put_counter(&urn("c"), 0);
        for (host, spec) in [
            (CLIENT, LinkSpec::ETHERNET_10M),
            (HostId(3), LinkSpec::CSLIP_14_4),
        ] {
            let cl = w.client(ClientConfig::thinkpad(host, SERVER), spec);
            assert_eq!(import(&mut w, host, &cl, &urn("c")).as_deref(), Some("0"));
        }
        assert_eq!(w.links_of(SERVER).len(), 2);
    }

    #[test]
    fn authority_homes_on_different_specs() {
        let (mail, cal) = (HostId(10), HostId(11));
        let mut w = World::new(3);
        let links = [
            w.link(LinkSpec::WAVELAN_2M, CLIENT, mail),
            w.link(LinkSpec::CSLIP_14_4, CLIENT, cal),
        ];
        let mut cfg = ClientConfig::thinkpad(CLIENT, mail);
        for (host, name) in [(mail, "mail"), (cal, "cal")] {
            let sv = w.server(ServerConfig::workstation(host));
            let u = Urn::parse(&format!("urn:rover:{name}/box")).unwrap();
            sv.borrow_mut()
                .put_object(counter_object(&u, host.0.into()));
            cfg.authorities.insert(name.into(), host);
        }
        assert_eq!(w.links_of(CLIENT), links);
        let cl = Client::new(&mut w.sim, &w.net, cfg, links.to_vec());
        for (host, name) in [(mail, "mail"), (cal, "cal")] {
            let u = Urn::parse(&format!("urn:rover:{name}/box")).unwrap();
            let n = import(&mut w, CLIENT, &cl, &u);
            assert_eq!(n, Some(host.0.to_string()));
        }
    }

    #[test]
    fn sharded_client_reaches_every_shard_over_one_link_each() {
        let hosts = vec![SERVER, HostId(3), HostId(4)];
        let map = ShardMap::new(hosts.clone());
        let mut w = World::new(5);
        for &h in &hosts {
            w.server(ServerConfig::workstation(h));
        }
        w.shards = Some(map.clone());
        let mut cfg = ClientConfig::thinkpad(CLIENT, HostId(3));
        cfg.shards = Some(map.clone());
        cfg.authorities.insert("z".into(), HostId(9));
        cfg.authorities.insert("a".into(), HostId(8));
        cfg.authorities.insert("dup".into(), SERVER);
        let cl = w.client(cfg, LinkSpec::ETHERNET_10M);
        let peers: Vec<HostId> = w
            .links_of(CLIENT)
            .iter()
            .map(|&l| w.net.peer_of(l, CLIENT).unwrap())
            .collect();
        assert_eq!(peers, [HostId(3), SERVER, HostId(4), HostId(8), HostId(9)]);
        for shard in 0..hosts.len() {
            let u = (0..)
                .map(|k| urn(&format!("obj{k}")))
                .find(|u| map.shard_for(u.as_str()) == shard);
            let u = u.unwrap();
            w.put_counter(&u, shard as i64);
            assert_eq!(import(&mut w, CLIENT, &cl, &u), Some(shard.to_string()));
        }
    }

    #[test]
    fn dynamic_mesh_carries_replica_frames() {
        let hosts = vec![SERVER, HostId(3)];
        let map = ShardMap::new(hosts.clone()).with_dynamic();
        let mut w = World::new(6);
        let mut servers = Vec::new();
        for (idx, &h) in hosts.iter().enumerate() {
            let mut scfg = ServerConfig::workstation(h);
            scfg.replicate_hot = 1;
            servers.push(w.server(scfg));
            servers[idx]
                .borrow_mut()
                .attach_shard_routing(map.clone(), idx);
        }
        w.link(LinkSpec::ETHERNET_10M, hosts[0], hosts[1]);
        w.shards = Some(map.clone());
        w.put_counter(&urn("hot"), 0);
        let mut cfg = ClientConfig::thinkpad(CLIENT, SERVER);
        cfg.shards = Some(map);
        cfg.cache_capacity = 1;
        let cl = w.client(cfg, LinkSpec::ETHERNET_10M);
        for _ in 0..3 {
            import(&mut w, CLIENT, &cl, &urn("hot"));
        }
        for sv in &servers {
            Server::replication_epoch(sv, &mut w.sim);
        }
        w.sim.run();
        assert_eq!(w.sim.stats.counter("server.replicas_installed"), 1);
    }

    #[test]
    fn server_rebuilt_on_its_host_takes_over_the_routes() {
        let mut w = World::new(7);
        w.server(ServerConfig::workstation(SERVER));
        w.put_counter(&urn("old"), 1);
        let cl = w.client(
            ClientConfig::thinkpad(CLIENT, SERVER),
            LinkSpec::ETHERNET_10M,
        );
        assert_eq!(
            import(&mut w, CLIENT, &cl, &urn("old")).as_deref(),
            Some("1")
        );
        let fresh = w.server(ServerConfig::workstation(SERVER));
        w.put_counter(&urn("new"), 2);
        assert!(std::rc::Rc::ptr_eq(w.home(&urn("new")).unwrap(), &fresh));
        assert_eq!(
            import(&mut w, CLIENT, &cl, &urn("new")).as_deref(),
            Some("2")
        );
    }

    #[test]
    fn client_recovered_on_its_old_links() {
        let mut w = World::new(8);
        let sv = w.server(ServerConfig::workstation(SERVER));
        sv.borrow_mut()
            .register_resolver("counter", Box::new(ReexecuteResolver));
        w.put_counter(&urn("c"), 0);
        let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
        let cl = w.client(cfg.clone(), LinkSpec::CSLIP_14_4);
        let s = Client::create_session(&cl, Guarantees::ALL, true);
        let p = Client::import(&cl, &mut w.sim, &urn("c"), s, Priority::FOREGROUND).unwrap();
        assert!(w.await_promise(&p, LIMIT));
        let link = w.links_of(CLIENT)[0];
        w.net.set_up(&mut w.sim, link, false);
        Client::export(
            &cl,
            &mut w.sim,
            &urn("c"),
            s,
            "add",
            &["1"],
            Priority::NORMAL,
        )
        .unwrap();
        let store = Client::crash(&cl);
        drop(cl);
        let cl = w.recover_client(cfg, store);
        assert_eq!(Client::outstanding_count(&cl), 1);
        w.net.set_up(&mut w.sim, link, true);
        assert!(step_until(&mut w.sim, LIMIT, || Client::outstanding_count(
            &cl
        ) == 0));
        let sv = sv.borrow();
        assert_eq!(sv.get_object(&urn("c")).unwrap().field("n"), Some("1"));
    }
}
