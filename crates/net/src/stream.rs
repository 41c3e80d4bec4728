//! A reliable, ordered message stream: the connection-based transport.
//!
//! The paper's transport layer speaks "connection-based protocols (e.g.,
//! TCP/IP)" beneath QRPC. QRPC brings its own end-to-end reliability
//! (stable log + retransmission + server dedup), but other traffic —
//! and the plain-RPC baseline — wants a transport that hides channel
//! loss by itself. [`Stream`] is that substrate: a tiny
//! sequence/acknowledge/retransmit protocol delivering messages exactly
//! once and in order over a lossy link, with a congestion-free
//! stop-and-wait window (window 1 keeps it honest for 1995 modems; the
//! simulator's links already serialize transmissions).
//!
//! Framing rides inside [`Envelope`] bodies with `MsgKind::Ack` used
//! for acknowledgements, so streams coexist with QRPC traffic on the
//! same host handlers.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

use rover_sim::{Sim, SimDuration};
use rover_wire::{Bytes, Decoder, Encoder, Envelope, HostId, MsgKind, Wire, WireError};

use crate::spec::LinkId;
use crate::topo::Net;

/// One stream frame: either data (seq + payload) or an ack.
#[derive(Clone, Debug, PartialEq)]
struct Frame {
    /// True for an acknowledgement (`seq` = highest in-order received).
    ack: bool,
    seq: u64,
    payload: Bytes,
}

impl Wire for Frame {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.ack);
        enc.put_u64(self.seq);
        enc.put_bytes(&self.payload);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Frame {
            ack: dec.get_bool()?,
            seq: dec.get_u64()?,
            payload: dec.get_bytes_shared()?,
        })
    }
}

/// Shared handle to one stream endpoint.
pub type StreamRef = Rc<RefCell<Stream>>;

type DeliverFn = Box<dyn FnMut(&mut Sim, Bytes)>;

/// One endpoint of a reliable ordered message stream.
pub struct Stream {
    net: Net,
    link: LinkId,
    local: HostId,
    peer: HostId,
    rto: SimDuration,
    /// Next sequence number to assign to an outgoing message.
    next_seq: u64,
    /// Messages accepted but not yet acknowledged, in order.
    unacked: VecDeque<(u64, Bytes)>,
    /// A retransmission timer is armed.
    timer_armed: bool,
    /// Highest sequence delivered to the application, in order.
    delivered: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    reorder: BTreeMap<u64, Bytes>,
    deliver: DeliverFn,
}

impl Stream {
    /// Creates one endpoint. The caller must route incoming `Ack`-kind
    /// envelopes from `peer` into [`Stream::on_envelope`] (see
    /// [`Stream::register`] for the common case of owning the whole
    /// host handler).
    pub fn new(
        net: &Net,
        link: LinkId,
        local: HostId,
        peer: HostId,
        rto: SimDuration,
        deliver: impl FnMut(&mut Sim, Bytes) + 'static,
    ) -> StreamRef {
        Rc::new(RefCell::new(Stream {
            net: net.clone(),
            link,
            local,
            peer,
            rto,
            next_seq: 1,
            unacked: VecDeque::new(),
            timer_armed: false,
            delivered: 0,
            reorder: BTreeMap::new(),
            deliver: Box::new(deliver),
        }))
    }

    /// Creates a pair of connected endpoints and installs them as the
    /// two hosts' network handlers.
    #[allow(clippy::too_many_arguments)]
    pub fn pair(
        sim: &mut Sim,
        net: &Net,
        link: LinkId,
        a: HostId,
        b: HostId,
        rto: SimDuration,
        deliver_a: impl FnMut(&mut Sim, Bytes) + 'static,
        deliver_b: impl FnMut(&mut Sim, Bytes) + 'static,
    ) -> (StreamRef, StreamRef) {
        let _ = sim;
        let sa = Stream::new(net, link, a, b, rto, deliver_a);
        let sb = Stream::new(net, link, b, a, rto, deliver_b);
        Stream::register(&sa, net);
        Stream::register(&sb, net);
        (sa, sb)
    }

    /// Installs this endpoint as its host's handler on the network.
    pub fn register(stream: &StreamRef, net: &Net) {
        let weak = Rc::downgrade(stream);
        let host = stream.borrow().local;
        net.register_host(host, move |sim, _net, env| {
            if let Some(s) = weak.upgrade() {
                Stream::on_envelope(&s, sim, env);
            }
        });
    }

    /// Sends one message reliably; it will be delivered to the peer's
    /// callback exactly once, in send order, despite loss.
    pub fn send(stream: &StreamRef, sim: &mut Sim, payload: Bytes) {
        let seq = {
            let mut s = stream.borrow_mut();
            let seq = s.next_seq;
            s.next_seq += 1;
            s.unacked.push_back((seq, payload));
            seq
        };
        let _ = seq;
        Stream::flush(stream, sim);
        Stream::arm_timer(stream, sim);
    }

    /// Number of sent-but-unacknowledged messages.
    pub fn in_flight(stream: &StreamRef) -> usize {
        stream.borrow().unacked.len()
    }

    /// Transmits the head of the unacked queue (stop-and-wait).
    fn flush(stream: &StreamRef, sim: &mut Sim) {
        let (net, link, env) = {
            let s = stream.borrow();
            let Some((seq, payload)) = s.unacked.front().cloned() else {
                return;
            };
            let frame = Frame {
                ack: false,
                seq,
                payload,
            };
            let env = Envelope {
                kind: MsgKind::Ack,
                src: s.local,
                dst: s.peer,
                body: frame.to_bytes(),
            };
            (s.net.clone(), s.link, env)
        };
        let _ = net.send(sim, link, env);
        sim.stats.incr("stream.data_sent");
    }

    fn arm_timer(stream: &StreamRef, sim: &mut Sim) {
        let rto = {
            let mut s = stream.borrow_mut();
            if s.timer_armed || s.unacked.is_empty() {
                return;
            }
            s.timer_armed = true;
            s.rto
        };
        let weak: Weak<RefCell<Stream>> = Rc::downgrade(stream);
        sim.schedule_after(rto, move |sim| {
            let Some(stream) = weak.upgrade() else { return };
            {
                let mut s = stream.borrow_mut();
                s.timer_armed = false;
                if s.unacked.is_empty() {
                    return;
                }
            }
            sim.stats.incr("stream.retransmits");
            Stream::flush(&stream, sim);
            Stream::arm_timer(&stream, sim);
        });
    }

    /// Feeds an incoming envelope (kind `Ack`) from the peer.
    pub fn on_envelope(stream: &StreamRef, sim: &mut Sim, env: Envelope) {
        if env.kind != MsgKind::Ack {
            return;
        }
        let Ok(frame) = Frame::from_shared(&env.body) else {
            sim.stats.incr("stream.bad_frames");
            return;
        };
        if frame.ack {
            Stream::on_ack(stream, sim, frame.seq);
        } else {
            Stream::on_data(stream, sim, frame);
        }
    }

    fn on_ack(stream: &StreamRef, sim: &mut Sim, upto: u64) {
        let more = {
            let mut s = stream.borrow_mut();
            while s.unacked.front().is_some_and(|(seq, _)| *seq <= upto) {
                s.unacked.pop_front();
            }
            !s.unacked.is_empty()
        };
        if more {
            Stream::flush(stream, sim);
            Stream::arm_timer(stream, sim);
        }
    }

    fn on_data(stream: &StreamRef, sim: &mut Sim, frame: Frame) {
        // Buffer, then deliver everything now in order.
        let (to_deliver, ack_seq) = {
            let mut s = stream.borrow_mut();
            if frame.seq > s.delivered {
                s.reorder.entry(frame.seq).or_insert(frame.payload);
            }
            let mut ready = Vec::new();
            loop {
                let next = s.delivered + 1;
                match s.reorder.remove(&next) {
                    Some(p) => {
                        s.delivered = next;
                        ready.push(p);
                    }
                    None => break,
                }
            }
            (ready, s.delivered)
        };

        // Acknowledge the highest in-order sequence (cumulative ack).
        let (net, link, env) = {
            let s = stream.borrow();
            let ack = Frame {
                ack: true,
                seq: ack_seq,
                payload: Bytes::new(),
            };
            (
                s.net.clone(),
                s.link,
                Envelope {
                    kind: MsgKind::Ack,
                    src: s.local,
                    dst: s.peer,
                    body: ack.to_bytes(),
                },
            )
        };
        let _ = net.send(sim, link, env);

        for p in to_deliver {
            sim.stats.incr("stream.delivered");
            // Steal the callback so it runs with no borrow held (it may
            // legitimately send on this same stream).
            let mut cb = std::mem::replace(
                &mut stream.borrow_mut().deliver,
                Box::new(|_sim: &mut Sim, _b: Bytes| {}),
            );
            cb(sim, p);
            stream.borrow_mut().deliver = cb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LinkSpec;

    fn rig(loss: f64) -> (Sim, Net, LinkId) {
        let sim = Sim::new(12);
        let net = Net::new();
        let link = net.add_link(LinkSpec::WAVELAN_2M, HostId(1), HostId(2));
        if loss > 0.0 {
            net.set_loss(link, loss);
        }
        (sim, net, link)
    }

    type Inbox = Rc<RefCell<Vec<Vec<u8>>>>;

    fn collect() -> (Inbox, impl FnMut(&mut Sim, Bytes)) {
        let inbox = Rc::new(RefCell::new(Vec::new()));
        let sink = inbox.clone();
        (inbox, move |_sim: &mut Sim, b: Bytes| {
            sink.borrow_mut().push(b.to_vec())
        })
    }

    // `Frame`'s share of the exact-length property (see `rover-wire`'s
    // `tests/exact_len.rs`); it lives here because the type is private.
    proptest::proptest! {
        #[test]
        fn frame_exact_len(
            ack: bool, seq: u64, payload in proptest::collection::vec(0u8..=255, 0..2048),
        ) {
            let frame = Frame { ack, seq, payload: Bytes::from(payload) };
            let bytes = frame.to_bytes();
            assert_eq!(frame.encoded_len(), bytes.len());
            let buf = Vec::from(bytes);
            assert_eq!(buf.capacity(), buf.len(), "the buffer grew");
        }
    }

    #[test]
    fn in_order_delivery_on_clean_link() {
        let (mut sim, net, link) = rig(0.0);
        let (inbox, deliver_b) = collect();
        let (sa, _sb) = Stream::pair(
            &mut sim,
            &net,
            link,
            HostId(1),
            HostId(2),
            SimDuration::from_secs(2),
            |_, _| {},
            deliver_b,
        );
        for i in 0..10u8 {
            Stream::send(&sa, &mut sim, Bytes::from(vec![i; 100]));
        }
        sim.run();
        let got = inbox.borrow();
        assert_eq!(got.len(), 10);
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m[0], i as u8);
        }
        assert_eq!(Stream::in_flight(&sa), 0);
    }

    #[test]
    fn survives_heavy_loss() {
        let (mut sim, net, link) = rig(0.35);
        let (inbox, deliver_b) = collect();
        let (sa, _sb) = Stream::pair(
            &mut sim,
            &net,
            link,
            HostId(1),
            HostId(2),
            SimDuration::from_millis(500),
            |_, _| {},
            deliver_b,
        );
        for i in 0..20u8 {
            Stream::send(&sa, &mut sim, Bytes::from(vec![i]));
        }
        sim.run_until(rover_sim::SimTime::from_secs(600));
        let got = inbox.borrow();
        assert_eq!(
            got.len(),
            20,
            "after {} retransmits",
            sim.stats.counter("stream.retransmits")
        );
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m[0], i as u8, "order preserved");
        }
        assert!(sim.stats.counter("stream.retransmits") > 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        // Lost *acks* cause data retransmission; the receiver must not
        // deliver twice.
        let (mut sim, net, link) = rig(0.25);
        let (inbox, deliver_b) = collect();
        let (sa, _sb) = Stream::pair(
            &mut sim,
            &net,
            link,
            HostId(1),
            HostId(2),
            SimDuration::from_millis(300),
            |_, _| {},
            deliver_b,
        );
        for i in 0..15u8 {
            Stream::send(&sa, &mut sim, Bytes::from(vec![i]));
        }
        sim.run_until(rover_sim::SimTime::from_secs(600));
        assert_eq!(inbox.borrow().len(), 15, "exactly once");
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut sim, net, link) = rig(0.10);
        let (inbox_a, deliver_a) = collect();
        let (inbox_b, deliver_b) = collect();
        let (sa, sb) = Stream::pair(
            &mut sim,
            &net,
            link,
            HostId(1),
            HostId(2),
            SimDuration::from_millis(400),
            deliver_a,
            deliver_b,
        );
        for i in 0..8u8 {
            Stream::send(&sa, &mut sim, Bytes::from(vec![i]));
            Stream::send(&sb, &mut sim, Bytes::from(vec![100 + i]));
        }
        sim.run_until(rover_sim::SimTime::from_secs(600));
        assert_eq!(inbox_b.borrow().len(), 8);
        assert_eq!(inbox_a.borrow().len(), 8);
        assert_eq!(inbox_a.borrow()[0][0], 100);
    }

    #[test]
    fn callback_may_send_reentrantly() {
        // An echo server implemented in the delivery callback.
        let (mut sim, net, link) = rig(0.0);
        let (inbox_a, deliver_a) = collect();
        let sa = Stream::new(
            &net,
            link,
            HostId(1),
            HostId(2),
            SimDuration::from_secs(1),
            deliver_a,
        );
        Stream::register(&sa, &net);
        let sb: StreamRef = Stream::new(
            &net,
            link,
            HostId(2),
            HostId(1),
            SimDuration::from_secs(1),
            |_, _| {},
        );
        {
            // Rewire B's callback to echo through B itself.
            let sb2 = sb.clone();
            sb.borrow_mut().deliver = Box::new(move |sim: &mut Sim, b: Bytes| {
                Stream::send(&sb2, sim, b);
            });
        }
        Stream::register(&sb, &net);

        Stream::send(&sa, &mut sim, Bytes::from_static(b"ping"));
        sim.run();
        assert_eq!(inbox_a.borrow().len(), 1);
        assert_eq!(inbox_a.borrow()[0], b"ping");
    }
}
