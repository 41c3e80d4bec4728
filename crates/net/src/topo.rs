//! The network itself: links, hosts, message delivery, connectivity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rover_sim::{EventId, Sim, SimDuration, SimTime};
use rover_wire::{Bytes, Envelope, HostId};

use crate::fault::FaultSpec;
use crate::spec::{LinkId, LinkSpec};

/// Errors from network operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The link is administratively down (disconnected).
    LinkDown(LinkId),
    /// No link with this id exists.
    UnknownLink(LinkId),
    /// The envelope's source host is not an endpoint of the link.
    NotEndpoint(HostId, LinkId),
    /// The envelope's destination is not the link's other endpoint.
    WrongDestination(HostId, LinkId),
    /// No handler is registered for the destination host.
    UnknownHost(HostId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LinkDown(l) => write!(f, "link {} is down", l.0),
            NetError::UnknownLink(l) => write!(f, "no such link {}", l.0),
            NetError::NotEndpoint(h, l) => write!(f, "{h} is not an endpoint of link {}", l.0),
            NetError::WrongDestination(h, l) => {
                write!(f, "{h} is not reachable over link {}", l.0)
            }
            NetError::UnknownHost(h) => write!(f, "no handler registered for {h}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Timing of an accepted transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryTicket {
    /// When the message begins transmitting (after queueing/setup).
    pub tx_start: SimTime,
    /// When the sender's interface is free again.
    pub tx_done: SimTime,
    /// When the destination handler will run (if the link stays up).
    pub deliver_at: SimTime,
}

type Handler = Rc<RefCell<dyn FnMut(&mut Sim, &Net, Envelope)>>;
type LinkWatcher = Rc<RefCell<dyn FnMut(&mut Sim, &Net, LinkId, bool)>>;

/// Callback fired when the sending interface frees up.
pub type TxDone = Box<dyn FnOnce(&mut Sim)>;

struct LinkState {
    spec: LinkSpec,
    a: HostId,
    b: HostId,
    up: bool,
    /// Earliest instant the link may carry traffic (connection setup).
    ready_at: SimTime,
    /// Per-direction transmit-queue horizon (0 = a→b, 1 = b→a).
    busy_until: [SimTime; 2],
    /// Delivery events currently in flight; cancelled if the link drops.
    in_flight: Vec<EventId>,
    watchers: Vec<LinkWatcher>,
    /// Random per-message loss probability (noisy wireless / serial
    /// channels); retransmission above recovers losses.
    loss_prob: f64,
    /// Chaos-plane fault injection; `None` on healthy links.
    faults: Option<FaultState>,
}

/// Installed fault spec plus the link's private RNG. A dedicated RNG
/// keeps fault schedules byte-reproducible per seed and leaves the
/// simulator's global stream untouched for experiments that don't opt in.
struct FaultState {
    spec: FaultSpec,
    rng: StdRng,
}

/// One message's worth of fault decisions, drawn in a fixed order so the
/// schedule depends only on the seed and the message sequence.
struct FaultDraw {
    drop: bool,
    corrupt: bool,
    dup: bool,
    /// Extra delivery delay in microseconds (reordering).
    jitter_us: u64,
    /// Lag of the duplicate copy behind the original, in microseconds.
    dup_lag_us: u64,
    /// Raw position used to pick the flipped byte (mod body length).
    flip_pos: u32,
    /// Bit mask XORed into the chosen byte.
    flip_mask: u8,
}

impl FaultState {
    fn draw(&mut self) -> FaultDraw {
        let s = &self.spec;
        let drop = s.drop_prob > 0.0 && self.rng.gen_bool(s.drop_prob);
        let corrupt = s.corrupt_prob > 0.0 && self.rng.gen_bool(s.corrupt_prob);
        let dup = s.dup_prob > 0.0 && self.rng.gen_bool(s.dup_prob);
        let max_jitter = s.reorder_jitter.as_micros();
        let jitter_us = if max_jitter > 0 {
            self.rng.gen_range(0..=max_jitter)
        } else {
            0
        };
        // A duplicate trails the original by at least 1 us (two distinct
        // deliveries), by up to the reorder window when one is set.
        let dup_lag_us = if dup {
            1 + self.rng.gen_range(0..=max_jitter.max(999))
        } else {
            0
        };
        let (flip_pos, flip_mask) = if corrupt {
            (self.rng.gen::<u32>(), 1u8 << self.rng.gen_range(0..8u32))
        } else {
            (0, 0)
        };
        FaultDraw {
            drop,
            corrupt,
            dup,
            jitter_us,
            dup_lag_us,
            flip_pos,
            flip_mask,
        }
    }
}

#[derive(Default)]
struct Network {
    links: Vec<LinkState>,
    handlers: HashMap<u32, Handler>,
}

/// Cloneable handle to the simulated network.
///
/// All mutation happens through this handle so that event closures (which
/// each own a clone) can send, toggle connectivity, and deliver without
/// aliasing issues. User callbacks are always invoked with the internal
/// borrow released, so handlers may freely call back into the network.
///
/// # Examples
///
/// ```
/// use rover_net::{LinkSpec, Net};
/// use rover_sim::Sim;
/// use rover_wire::{Bytes, Envelope, HostId, MsgKind};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Sim::new(1);
/// let net = Net::new();
/// let link = net.add_link(LinkSpec::WAVELAN_2M, HostId(1), HostId(2));
/// let got = Rc::new(RefCell::new(0));
/// let sink = got.clone();
/// net.register_host(HostId(2), move |_sim, _net, env| {
///     assert_eq!(env.body.len(), 64);
///     *sink.borrow_mut() += 1;
/// });
/// net.send(&mut sim, link, Envelope {
///     kind: MsgKind::Request,
///     src: HostId(1),
///     dst: HostId(2),
///     body: Bytes::from(vec![0; 64]),
/// }).unwrap();
/// sim.run();
/// assert_eq!(*got.borrow(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Net(Rc<RefCell<Network>>);

impl Net {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a point-to-point link between hosts `a` and `b`; the link
    /// starts **up** with no pending setup.
    pub fn add_link(&self, spec: LinkSpec, a: HostId, b: HostId) -> LinkId {
        let mut n = self.0.borrow_mut();
        n.links.push(LinkState {
            spec,
            a,
            b,
            up: true,
            ready_at: SimTime::ZERO,
            busy_until: [SimTime::ZERO; 2],
            in_flight: Vec::new(),
            watchers: Vec::new(),
            loss_prob: 0.0,
            faults: None,
        });
        LinkId(n.links.len() - 1)
    }

    /// Installs a chaos-plane [`FaultSpec`] on `link`, replacing any
    /// previous one. The link gets a private RNG seeded from
    /// `spec.seed`, so fault schedules are reproducible per seed and the
    /// simulator's global RNG stream is untouched. If the spec carries a
    /// flap schedule it is scheduled immediately (via
    /// [`Net::schedule_pattern`]), driving the same watcher machinery as
    /// administrative disconnection.
    ///
    /// # Panics
    ///
    /// Panics if a probability lies outside `[0.0, 1.0]` or the link does
    /// not exist.
    pub fn install_faults(&self, sim: &mut Sim, link: LinkId, spec: FaultSpec) {
        spec.validate();
        {
            let mut n = self.0.borrow_mut();
            let l = n
                .links
                .get_mut(link.0)
                .expect("install_faults: unknown link");
            l.faults = Some(FaultState {
                rng: StdRng::seed_from_u64(spec.seed),
                spec,
            });
        }
        sim.trace("net", format_args!("link {}: faults installed", link.0));
        if let Some(flap) = spec.flap {
            self.schedule_pattern(sim, link, flap.up_for, flap.down_for, flap.cycles);
        }
    }

    /// Sets the link's random per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn set_loss(&self, link: LinkId, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability out of range: {p}"
        );
        self.0.borrow_mut().links[link.0].loss_prob = p;
    }

    /// Registers the message handler for `host`, replacing any previous
    /// one.
    pub fn register_host<F>(&self, host: HostId, handler: F)
    where
        F: FnMut(&mut Sim, &Net, Envelope) + 'static,
    {
        self.0
            .borrow_mut()
            .handlers
            .insert(host.0, Rc::new(RefCell::new(handler)));
    }

    /// Subscribes to up/down transitions of `link`.
    pub fn watch_link<F>(&self, link: LinkId, watcher: F)
    where
        F: FnMut(&mut Sim, &Net, LinkId, bool) + 'static,
    {
        let mut n = self.0.borrow_mut();
        let l = n.links.get_mut(link.0).expect("watch_link: unknown link");
        l.watchers.push(Rc::new(RefCell::new(watcher)));
    }

    /// Returns the link's static parameters.
    pub fn spec(&self, link: LinkId) -> LinkSpec {
        self.0.borrow().links[link.0].spec
    }

    /// Returns whether the link is currently up.
    pub fn is_up(&self, link: LinkId) -> bool {
        self.0.borrow().links[link.0].up
    }

    /// Returns all links joining `a` and `b` (either orientation), in
    /// creation order.
    pub fn links_between(&self, a: HostId, b: HostId) -> Vec<LinkId> {
        self.0
            .borrow()
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Returns the first currently-up link joining `a` and `b`.
    pub fn up_link_between(&self, a: HostId, b: HostId) -> Option<LinkId> {
        self.links_between(a, b)
            .into_iter()
            .find(|&l| self.is_up(l))
    }

    /// Returns the far endpoint of `link` as seen from `host`, if
    /// `host` is one of its endpoints.
    pub fn peer_of(&self, link: LinkId, host: HostId) -> Option<HostId> {
        let n = self.0.borrow();
        let l = n.links.get(link.0)?;
        if l.a == host {
            Some(l.b)
        } else if l.b == host {
            Some(l.a)
        } else {
            None
        }
    }

    /// Sends `env` over `link`, scheduling delivery at the destination.
    ///
    /// The message is serialized behind earlier traffic in the same
    /// direction and behind connection setup. If the link goes down
    /// before `deliver_at`, the message is silently lost (higher layers
    /// retransmit — that is QRPC's job).
    pub fn send(
        &self,
        sim: &mut Sim,
        link: LinkId,
        env: Envelope,
    ) -> Result<DeliveryTicket, NetError> {
        self.send_with_tx_done(sim, link, env, None)
    }

    /// Like [`Net::send`], additionally scheduling `tx_done` at the
    /// instant the sender's interface frees up (used by the network
    /// scheduler to pipeline its queue one message at a time).
    pub fn send_with_tx_done(
        &self,
        sim: &mut Sim,
        link: LinkId,
        env: Envelope,
        tx_done: Option<TxDone>,
    ) -> Result<DeliveryTicket, NetError> {
        let ticket = {
            let mut n = self.0.borrow_mut();
            let l = n.links.get_mut(link.0).ok_or(NetError::UnknownLink(link))?;
            if !l.up {
                return Err(NetError::LinkDown(link));
            }
            let dir = if env.src == l.a {
                0
            } else if env.src == l.b {
                1
            } else {
                return Err(NetError::NotEndpoint(env.src, link));
            };
            let expected_dst = if dir == 0 { l.b } else { l.a };
            if env.dst != expected_dst {
                return Err(NetError::WrongDestination(env.dst, link));
            }
            let now = sim.now();
            let tx_start = now.max(l.busy_until[dir]).max(l.ready_at);
            let tx = l.spec.tx_time(env.wire_size());
            let done = tx_start + tx;
            l.busy_until[dir] = done;
            DeliveryTicket {
                tx_start,
                tx_done: done,
                deliver_at: done + l.spec.latency,
            }
        };

        sim.stats.incr("net.sent_msgs");
        sim.stats.add("net.sent_bytes", env.wire_size() as u64);

        // Random channel loss: the message occupies the link but never
        // arrives (a corrupted frame fails its checksum and is dropped).
        let loss = self.0.borrow().links[link.0].loss_prob;
        if loss > 0.0 && sim.rng().gen_bool(loss) {
            sim.stats.incr("net.random_losses");
            if let Some(cb) = tx_done {
                sim.schedule_at(ticket.tx_done, cb);
            }
            return Ok(ticket);
        }

        // Chaos plane: per-link scripted faults, drawn from the link's
        // private seeded RNG.
        let draw = {
            let mut n = self.0.borrow_mut();
            n.links[link.0].faults.as_mut().map(FaultState::draw)
        };
        let mut env = env;
        let mut deliver_at = ticket.deliver_at;
        let mut checksum = None;
        let mut dup_at = None;
        if let Some(d) = draw {
            if d.drop {
                sim.stats.incr("net.faults_injected.drop");
                sim.trace(
                    "net",
                    format_args!("link {}: fault dropped message", link.0),
                );
                if let Some(cb) = tx_done {
                    sim.schedule_at(ticket.tx_done, cb);
                }
                return Ok(DeliveryTicket {
                    deliver_at,
                    ..ticket
                });
            }
            // The CRC the sender stamped into the frame, computed before
            // any in-transit corruption: the receive path must recompute
            // and compare to catch flipped bits.
            checksum = Some(rover_wire::crc32(&env.body));
            if d.corrupt {
                sim.stats.incr("net.faults_injected.corrupt");
                if env.body.is_empty() {
                    // Nothing to flip in the payload: corrupt the frame
                    // header instead, which the checksum also covers.
                    checksum = checksum.map(|c| c ^ 0xA5A5_A5A5);
                } else {
                    let mut v = env.body.to_vec();
                    let pos = d.flip_pos as usize % v.len();
                    v[pos] ^= d.flip_mask;
                    env.body = Bytes::from(v);
                }
            }
            if d.jitter_us > 0 {
                sim.stats.incr("net.faults_injected.jitter");
                deliver_at += SimDuration::from_micros(d.jitter_us);
            }
            if d.dup {
                sim.stats.incr("net.faults_injected.dup");
                dup_at = Some(deliver_at + SimDuration::from_micros(d.dup_lag_us));
            }
        }

        if let Some(at) = dup_at {
            self.schedule_delivery(sim, link, at, env.clone(), checksum);
        }
        self.schedule_delivery(sim, link, deliver_at, env, checksum);

        if let Some(cb) = tx_done {
            sim.schedule_at(ticket.tx_done, cb);
        }
        Ok(DeliveryTicket {
            deliver_at,
            ..ticket
        })
    }

    /// Schedules one delivery; records its id so a link drop can lose it.
    /// The closure learns its own id through `slot` so it can retire
    /// itself from the in-flight set when it fires. When `checksum` is
    /// set (fault-injected links), the frame CRC is validated on receipt
    /// and mismatching frames are rejected, never delivered.
    fn schedule_delivery(
        &self,
        sim: &mut Sim,
        link: LinkId,
        at: SimTime,
        env: Envelope,
        checksum: Option<u32>,
    ) {
        let net = self.clone();
        let dst = env.dst;
        let slot = Rc::new(std::cell::Cell::new(None));
        let my_id = slot.clone();
        let ev = sim.schedule_at(at, move |sim| {
            if let Some(id) = my_id.get() {
                net.retire_in_flight(link, id);
            }
            if let Some(sum) = checksum {
                if rover_wire::crc32(&env.body) != sum {
                    sim.stats.incr("net.corrupt_rejected");
                    sim.trace(
                        "net",
                        format_args!("link {}: frame failed checksum, rejected", link.0),
                    );
                    return;
                }
            }
            net.deliver(sim, dst, env);
        });
        slot.set(Some(ev));
        self.0.borrow_mut().links[link.0].in_flight.push(ev);
    }

    fn retire_in_flight(&self, link: LinkId, id: EventId) {
        let mut n = self.0.borrow_mut();
        if let Some(l) = n.links.get_mut(link.0) {
            l.in_flight.retain(|&e| e != id);
        }
    }

    fn deliver(&self, sim: &mut Sim, dst: HostId, env: Envelope) {
        let handler = self.0.borrow().handlers.get(&dst.0).cloned();
        match handler {
            Some(h) => {
                sim.stats.incr("net.delivered");
                sim.stats.add("net.delivered_bytes", env.wire_size() as u64);
                (h.borrow_mut())(sim, self, env);
            }
            None => {
                sim.stats.incr("net.dropped_no_handler");
            }
        }
    }

    /// Brings a link up or down.
    ///
    /// Coming up charges the link's setup time before traffic flows
    /// (modem dial / PPP negotiation). Going down cancels every in-flight
    /// delivery on the link — those messages are lost.
    pub fn set_up(&self, sim: &mut Sim, link: LinkId, up: bool) {
        let watchers = {
            let mut n = self.0.borrow_mut();
            let l = match n.links.get_mut(link.0) {
                Some(l) => l,
                None => return,
            };
            if l.up == up {
                return;
            }
            l.up = up;
            sim.trace(
                "net",
                format_args!("link {} {}", link.0, if up { "up" } else { "down" }),
            );
            if up {
                l.ready_at = sim.now() + l.spec.setup;
                l.busy_until = [l.ready_at; 2];
            } else {
                let lost = l.in_flight.len() as u64;
                for ev in l.in_flight.drain(..) {
                    sim.cancel(ev);
                }
                sim.stats.add("net.lost_msgs", lost);
            }
            l.watchers.clone()
        };
        for w in watchers {
            (w.borrow_mut())(sim, self, link, up);
        }
    }

    /// Schedules a repeating connectivity pattern: the link stays up for
    /// `up_for`, down for `down_for`, for `cycles` cycles, starting with
    /// a transition to *down* after `up_for` from now.
    pub fn schedule_pattern(
        &self,
        sim: &mut Sim,
        link: LinkId,
        up_for: rover_sim::SimDuration,
        down_for: rover_sim::SimDuration,
        cycles: usize,
    ) {
        let mut t = sim.now();
        for _ in 0..cycles {
            t += up_for;
            let net = self.clone();
            sim.schedule_at(t, move |sim| net.set_up(sim, link, false));
            t += down_for;
            let net = self.clone();
            sim.schedule_at(t, move |sim| net.set_up(sim, link, true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rover_sim::SimDuration;
    use rover_wire::{Bytes, MsgKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn env(src: u32, dst: u32, n: usize) -> Envelope {
        Envelope {
            kind: MsgKind::Request,
            src: HostId(src),
            dst: HostId(dst),
            body: Bytes::from(vec![0u8; n]),
        }
    }

    type Inbox = Rc<RefCell<Vec<(u64, usize)>>>;

    fn wired(spec: LinkSpec) -> (Sim, Net, LinkId, Inbox) {
        let mut sim = Sim::new(1);
        let net = Net::new();
        let link = net.add_link(spec, HostId(1), HostId(2));
        let inbox = Rc::new(RefCell::new(Vec::new()));
        let sink = inbox.clone();
        net.register_host(HostId(2), move |sim: &mut Sim, _net: &Net, e: Envelope| {
            sink.borrow_mut()
                .push((sim.now().as_micros(), e.body.len()));
        });
        // Consume the otherwise-unused sim warning.
        let _ = &mut sim;
        (sim, net, link, inbox)
    }

    #[test]
    fn delivery_time_matches_model() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::ETHERNET_10M);
        let e = env(1, 2, 100);
        let size = e.wire_size();
        let t = net.send(&mut sim, link, e).unwrap();
        sim.run();
        let expect = LinkSpec::ETHERNET_10M.tx_time(size) + LinkSpec::ETHERNET_10M.latency;
        assert_eq!(t.deliver_at.as_micros(), expect.as_micros());
        assert_eq!(inbox.borrow().len(), 1);
        assert_eq!(inbox.borrow()[0].0, expect.as_micros());
    }

    #[test]
    fn contention_serializes_same_direction() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::CSLIP_2_4);
        // Bring the link up instantly (skip modem setup for this test).
        let t1 = net.send(&mut sim, link, env(1, 2, 100)).unwrap();
        let t2 = net.send(&mut sim, link, env(1, 2, 100)).unwrap();
        assert_eq!(t2.tx_start, t1.tx_done);
        sim.run();
        assert_eq!(inbox.borrow().len(), 2);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut sim = Sim::new(1);
        let net = Net::new();
        let link = net.add_link(LinkSpec::WAVELAN_2M, HostId(1), HostId(2));
        net.register_host(HostId(1), |_, _, _| {});
        net.register_host(HostId(2), |_, _, _| {});
        let a = net.send(&mut sim, link, env(1, 2, 5000)).unwrap();
        let b = net.send(&mut sim, link, env(2, 1, 5000)).unwrap();
        assert_eq!(a.tx_start, b.tx_start);
        sim.run();
    }

    #[test]
    fn down_link_rejects_sends() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::ETHERNET_10M);
        net.set_up(&mut sim, link, false);
        assert_eq!(
            net.send(&mut sim, link, env(1, 2, 10)).unwrap_err(),
            NetError::LinkDown(link)
        );
    }

    #[test]
    fn link_drop_loses_in_flight_messages() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::CSLIP_2_4);
        net.send(&mut sim, link, env(1, 2, 10_000)).unwrap();
        // Drop the link long before the ~33 s delivery completes.
        let net2 = net.clone();
        sim.schedule_after(SimDuration::from_secs(1), move |sim| {
            net2.set_up(sim, link, false);
        });
        sim.run();
        assert!(inbox.borrow().is_empty());
        assert_eq!(sim.stats.counter("net.lost_msgs"), 1);
    }

    #[test]
    fn setup_cost_delays_first_message_after_reconnect() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::CSLIP_14_4);
        net.set_up(&mut sim, link, false);
        net.set_up(&mut sim, link, true);
        let t = net.send(&mut sim, link, env(1, 2, 10)).unwrap();
        assert_eq!(t.tx_start, sim.now() + LinkSpec::CSLIP_14_4.setup);
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
    }

    #[test]
    fn watchers_observe_transitions() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::ETHERNET_10M);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        net.watch_link(link, move |_, _, _, up| s.borrow_mut().push(up));
        net.set_up(&mut sim, link, false);
        net.set_up(&mut sim, link, false); // no-op, no callback
        net.set_up(&mut sim, link, true);
        assert_eq!(*seen.borrow(), vec![false, true]);
    }

    #[test]
    fn wrong_endpoints_are_rejected() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::ETHERNET_10M);
        assert!(matches!(
            net.send(&mut sim, link, env(9, 2, 1)),
            Err(NetError::NotEndpoint(..))
        ));
        assert!(matches!(
            net.send(&mut sim, link, env(1, 9, 1)),
            Err(NetError::WrongDestination(..))
        ));
    }

    #[test]
    fn tx_done_callback_fires_when_iface_frees() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::CSLIP_14_4);
        let fired = Rc::new(RefCell::new(None));
        let f = fired.clone();
        let t = net
            .send_with_tx_done(
                &mut sim,
                link,
                env(1, 2, 500),
                Some(Box::new(move |sim: &mut Sim| {
                    *f.borrow_mut() = Some(sim.now());
                })),
            )
            .unwrap();
        sim.run();
        assert_eq!(*fired.borrow(), Some(t.tx_done));
    }

    #[test]
    fn scheduled_pattern_toggles_connectivity() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::ETHERNET_10M);
        let transitions = Rc::new(RefCell::new(0));
        let t = transitions.clone();
        net.watch_link(link, move |_, _, _, _| *t.borrow_mut() += 1);
        net.schedule_pattern(
            &mut sim,
            link,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
            3,
        );
        sim.run();
        assert_eq!(*transitions.borrow(), 6);
        assert!(net.is_up(link));
    }

    #[test]
    fn fault_drop_always_loses_messages() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::ETHERNET_10M);
        net.install_faults(
            &mut sim,
            link,
            crate::FaultSpec {
                drop_prob: 1.0,
                ..crate::FaultSpec::seeded(7)
            },
        );
        for _ in 0..5 {
            net.send(&mut sim, link, env(1, 2, 100)).unwrap();
        }
        sim.run();
        assert!(inbox.borrow().is_empty());
        assert_eq!(sim.stats.counter("net.faults_injected.drop"), 5);
        assert_eq!(sim.stats.counter("net.delivered"), 0);
    }

    #[test]
    fn corrupted_frames_fail_checksum_and_never_deliver() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::ETHERNET_10M);
        net.install_faults(
            &mut sim,
            link,
            crate::FaultSpec {
                corrupt_prob: 1.0,
                ..crate::FaultSpec::seeded(7)
            },
        );
        for n in [0usize, 1, 64, 1000] {
            net.send(&mut sim, link, env(1, 2, n)).unwrap();
        }
        sim.run();
        assert!(inbox.borrow().is_empty());
        assert_eq!(sim.stats.counter("net.faults_injected.corrupt"), 4);
        assert_eq!(sim.stats.counter("net.corrupt_rejected"), 4);
        assert_eq!(sim.stats.counter("net.delivered"), 0);
    }

    #[test]
    fn duplication_delivers_twice_and_clean_frames_pass_checksum() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::ETHERNET_10M);
        net.install_faults(
            &mut sim,
            link,
            crate::FaultSpec {
                dup_prob: 1.0,
                ..crate::FaultSpec::seeded(7)
            },
        );
        net.send(&mut sim, link, env(1, 2, 100)).unwrap();
        sim.run();
        assert_eq!(inbox.borrow().len(), 2);
        assert_eq!(sim.stats.counter("net.faults_injected.dup"), 1);
        assert_eq!(sim.stats.counter("net.corrupt_rejected"), 0);
    }

    #[test]
    fn reorder_jitter_can_invert_delivery_order() {
        let (mut sim, net, link, inbox) = wired(LinkSpec::ETHERNET_10M);
        net.install_faults(
            &mut sim,
            link,
            crate::FaultSpec {
                reorder_jitter: SimDuration::from_millis(50),
                ..crate::FaultSpec::seeded(3)
            },
        );
        // Distinguish messages by size; with a 50 ms window over a fast
        // link some pair inverts for this seed.
        for n in 1..=8usize {
            net.send(&mut sim, link, env(1, 2, n)).unwrap();
        }
        sim.run();
        let sizes: Vec<usize> = inbox.borrow().iter().map(|&(_, n)| n).collect();
        assert_eq!(sizes.len(), 8);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "jitter produced no reordering: {sizes:?}");
        assert!(sim.stats.counter("net.faults_injected.jitter") > 0);
    }

    #[test]
    fn fault_schedule_is_reproducible_per_seed() {
        let run = |seed: u64| -> (Vec<(u64, usize)>, u64, u64, u64) {
            let (mut sim, net, link, inbox) = wired(LinkSpec::WAVELAN_2M);
            net.install_faults(
                &mut sim,
                link,
                crate::FaultSpec {
                    drop_prob: 0.2,
                    corrupt_prob: 0.2,
                    dup_prob: 0.2,
                    reorder_jitter: SimDuration::from_millis(5),
                    ..crate::FaultSpec::seeded(seed)
                },
            );
            for i in 0..40usize {
                net.send(&mut sim, link, env(1, 2, 10 + i)).unwrap();
            }
            sim.run();
            let log = inbox.borrow().clone();
            (
                log,
                sim.stats.counter("net.faults_injected.drop"),
                sim.stats.counter("net.faults_injected.corrupt"),
                sim.stats.counter("net.faults_injected.dup"),
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must replay identically");
        let c = run(12);
        assert_ne!(a.0, c.0, "different seeds should differ");
    }

    #[test]
    fn faults_do_not_perturb_global_rng_stream() {
        let drain = |with_faults: bool| -> Vec<u64> {
            let (mut sim, net, link, _inbox) = wired(LinkSpec::ETHERNET_10M);
            if with_faults {
                net.install_faults(
                    &mut sim,
                    link,
                    crate::FaultSpec {
                        drop_prob: 0.5,
                        corrupt_prob: 0.5,
                        ..crate::FaultSpec::seeded(99)
                    },
                );
            }
            for _ in 0..10 {
                net.send(&mut sim, link, env(1, 2, 64)).unwrap();
            }
            sim.run();
            (0..8).map(|_| sim.rng().gen::<u64>()).collect()
        };
        assert_eq!(drain(false), drain(true));
    }

    #[test]
    fn flap_schedule_toggles_connectivity_and_loses_in_flight() {
        let (mut sim, net, link, _inbox) = wired(LinkSpec::CSLIP_2_4);
        let transitions = Rc::new(RefCell::new(0));
        let t = transitions.clone();
        net.watch_link(link, move |_, _, _, _| *t.borrow_mut() += 1);
        net.install_faults(
            &mut sim,
            link,
            crate::FaultSpec {
                flap: Some(crate::FlapSpec {
                    up_for: SimDuration::from_secs(1),
                    down_for: SimDuration::from_secs(2),
                    cycles: 3,
                }),
                ..crate::FaultSpec::seeded(1)
            },
        );
        // ~33 s of transmission: every flap catches it in flight.
        net.send(&mut sim, link, env(1, 2, 10_000)).unwrap();
        sim.run();
        assert_eq!(*transitions.borrow(), 6);
        assert!(net.is_up(link));
        assert_eq!(sim.stats.counter("net.lost_msgs"), 1);
    }

    #[test]
    fn unknown_destination_counts_drop() {
        let mut sim = Sim::new(1);
        let net = Net::new();
        let link = net.add_link(LinkSpec::ETHERNET_10M, HostId(1), HostId(2));
        net.send(&mut sim, link, env(1, 2, 10)).unwrap();
        sim.run();
        assert_eq!(sim.stats.counter("net.dropped_no_handler"), 1);
    }
}
