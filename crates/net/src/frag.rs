//! Transport-level fragmentation and reassembly.
//!
//! The network scheduler splits oversized envelopes into MTU-sized
//! [`Fragment`] packets (see [`split_envelope`]); the receiving host
//! reassembles them before its handler runs ([`Reassembler`],
//! [`wrap_reassembly`]). Fragmentation is what makes priority
//! scheduling effective on slow links: a foreground request preempts a
//! bulk transfer at the next packet boundary instead of waiting out a
//! 100 KiB message.
//!
//! Loss handling is deliberately simple: if a link drop eats some
//! fragments, the partial message never completes and is eventually
//! evicted; QRPC retransmits the whole message under a fresh id.

use std::collections::{HashMap, VecDeque};

use rover_sim::Sim;
use rover_wire::{Bytes, Envelope, Fragment, HostId, MsgKind, Wire};

use crate::topo::Net;

/// Splits `env` into fragment envelopes of at most `mtu` payload bytes.
///
/// Returns the original envelope unchanged (as a single element) when it
/// already fits. `msg_id` must be sender-unique.
pub fn split_envelope(env: Envelope, mtu: usize, msg_id: u64) -> Vec<Envelope> {
    assert!(mtu > 0, "mtu must be positive");
    if env.body.len() <= mtu || env.kind == MsgKind::Fragment {
        return vec![env];
    }
    let total = env.body.len().div_ceil(mtu) as u32;
    let mut out = Vec::with_capacity(total as usize);
    for idx in 0..total {
        let start = idx as usize * mtu;
        let end = (start + mtu).min(env.body.len());
        let frag = Fragment {
            orig_kind: env.kind.to_byte(),
            msg_id,
            idx,
            total,
            chunk: env.body.slice(start..end),
        };
        out.push(Envelope {
            kind: MsgKind::Fragment,
            src: env.src,
            dst: env.dst,
            body: frag.to_bytes(),
        });
    }
    out
}

/// Upper bound on the fragment count a single message may declare.
/// `total` arrives off the wire and sizes the chunk table: without a cap
/// a hostile fragment declaring `total = u32::MAX` forces a multi-GiB
/// allocation before the first chunk lands. 64 Ki fragments × the
/// largest real MTU covers any envelope the toolkit produces.
pub const MAX_FRAGMENTS: u32 = 1 << 16;

struct Partial {
    total: u32,
    count: u32,
    chunks: Vec<Option<Bytes>>,
}

/// Reassembles fragment streams back into whole envelopes.
pub struct Reassembler {
    partials: HashMap<(u32, u64), Partial>,
    order: VecDeque<(u32, u64)>,
    cap: usize,
    rejected: u64,
}

impl Reassembler {
    /// Creates a reassembler retaining at most `cap` partial messages;
    /// the oldest partial is evicted beyond that (its message is lost
    /// and must be retransmitted).
    pub fn new(cap: usize) -> Reassembler {
        Reassembler {
            partials: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            rejected: 0,
        }
    }

    /// Feeds one received envelope; returns a completed message when
    /// available. Non-fragment envelopes pass straight through.
    pub fn accept(&mut self, env: Envelope) -> Option<Envelope> {
        if env.kind != MsgKind::Fragment {
            return Some(env);
        }
        // Shared decode: `frag.chunk` is a view of `env.body`, which is
        // itself a view of the received wire buffer — no copy until the
        // final reassembly rebuild.
        let Ok(frag) = Fragment::from_shared(&env.body) else {
            self.rejected += 1;
            return None;
        };
        let Some(kind) = MsgKind::from_byte(frag.orig_kind) else {
            self.rejected += 1;
            return None;
        };
        if frag.total == 0 || frag.total > MAX_FRAGMENTS || frag.idx >= frag.total {
            self.rejected += 1;
            return None;
        }
        let key = (env.src.0, frag.msg_id);
        let p = self.partials.entry(key).or_insert_with(|| {
            self.order.push_back(key);
            Partial {
                total: frag.total,
                count: 0,
                chunks: vec![None; frag.total as usize],
            }
        });
        if p.total != frag.total {
            self.rejected += 1;
            return None; // Corrupt or colliding stream.
        }
        if let Some(slot @ None) = p.chunks.get_mut(frag.idx as usize) {
            *slot = Some(frag.chunk);
            p.count += 1;
        }
        if p.count == p.total {
            let p = self.partials.remove(&key)?;
            self.order.retain(|k| *k != key);
            // Single exactly-sized rebuild: the chunks are views of
            // their fragment buffers, so this is the first (and only)
            // copy of the payload on the receive path.
            let total_len: usize = p.chunks.iter().flatten().map(Bytes::len).sum();
            let mut body = Vec::with_capacity(total_len);
            for c in p.chunks.into_iter().flatten() {
                body.extend_from_slice(&c);
            }
            return Some(Envelope {
                kind,
                src: env.src,
                dst: env.dst,
                body: Bytes::from(body),
            });
        }
        // Bound memory: evict the oldest incomplete message.
        while self.partials.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.partials.remove(&old);
            }
        }
        None
    }

    /// Number of incomplete messages currently buffered.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Total malformed fragments rejected since creation (undecodable
    /// body, unknown original kind, zero/oversized `total`, index out of
    /// range, or a `total` disagreeing with the open partial).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// Wraps a message handler with reassembly: fragments accumulate
/// silently, whole messages invoke `f`.
pub fn wrap_reassembly<F>(mut f: F) -> impl FnMut(&mut Sim, &Net, Envelope)
where
    F: FnMut(&mut Sim, &Net, Envelope),
{
    let mut r = Reassembler::new(64);
    let mut counted = 0u64;
    move |sim: &mut Sim, net: &Net, env: Envelope| {
        let msg = r.accept(env);
        let rejected = r.rejected();
        if rejected > counted {
            sim.stats.add("net.frag_rejected", rejected - counted);
            counted = rejected;
        }
        if let Some(msg) = msg {
            f(sim, net, msg);
        }
    }
}

/// Registers a reassembling handler for `host` on `net`.
pub fn register_reassembling_host<F>(net: &Net, host: HostId, f: F)
where
    F: FnMut(&mut Sim, &Net, Envelope) + 'static,
{
    net.register_host(host, wrap_reassembly(f));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(n: usize) -> Envelope {
        let body: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        Envelope {
            kind: MsgKind::Reply,
            src: HostId(1),
            dst: HostId(2),
            body: Bytes::from(body),
        }
    }

    #[test]
    fn small_messages_pass_through() {
        let e = env(100);
        let frags = split_envelope(e.clone(), 1460, 7);
        assert_eq!(frags, vec![e.clone()]);
        let mut r = Reassembler::new(8);
        assert_eq!(r.accept(e.clone()), Some(e));
    }

    #[test]
    fn split_and_reassemble_roundtrip() {
        for (n, count) in [(10_000, 7), (1 << 20, 719)] {
            let e = env(n);
            let frags = split_envelope(e.clone(), 1460, 9);
            assert_eq!(frags.len(), count);
            assert!(frags.iter().all(|f| f.kind == MsgKind::Fragment));
            let mut r = Reassembler::new(8);
            let mut out = None;
            for f in frags {
                if let Some(m) = r.accept(f) {
                    out = Some(m);
                }
            }
            assert_eq!(out, Some(e));
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn out_of_order_and_duplicate_fragments() {
        let e = env(5_000);
        let mut frags = split_envelope(e.clone(), 1460, 3);
        frags.reverse();
        let dup = frags[1].clone();
        frags.insert(2, dup);
        let mut r = Reassembler::new(8);
        let mut out = None;
        for f in frags {
            if let Some(m) = r.accept(f) {
                out = Some(m);
            }
        }
        assert_eq!(out, Some(e));
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let a = env(4_000);
        let mut b = env(4_000);
        b.body = Bytes::from(vec![0xAA; 4_000]);
        let fa = split_envelope(a.clone(), 1000, 1);
        let fb = split_envelope(b.clone(), 1000, 2);
        let mut r = Reassembler::new(8);
        let mut done = Vec::new();
        for (x, y) in fa.into_iter().zip(fb) {
            if let Some(m) = r.accept(x) {
                done.push(m);
            }
            if let Some(m) = r.accept(y) {
                done.push(m);
            }
        }
        assert_eq!(done, vec![a, b]);
    }

    #[test]
    fn eviction_bounds_partials() {
        let mut r = Reassembler::new(2);
        for id in 0..5u64 {
            // First fragment only of each message.
            let frags = split_envelope(env(5_000), 1000, id);
            r.accept(frags[0].clone());
        }
        assert!(r.pending() <= 2);
    }

    #[test]
    fn hostile_fragment_total_is_rejected_without_allocating() {
        // Fuzz finding: a fragment declaring `total = u32::MAX` used to
        // size the chunk table before any validation — a multi-GiB
        // allocation from one hostile packet.
        let frag = Fragment {
            orig_kind: MsgKind::Reply.to_byte(),
            msg_id: 1,
            idx: 0,
            total: u32::MAX,
            chunk: Bytes::from_static(b"x"),
        };
        let mut r = Reassembler::new(8);
        let e = Envelope {
            kind: MsgKind::Fragment,
            src: HostId(1),
            dst: HostId(2),
            body: frag.to_bytes(),
        };
        assert_eq!(r.accept(e), None);
        assert_eq!(r.pending(), 0);
        assert_eq!(r.rejected(), 1);
        // A total just past the cap is also refused; at the cap is fine.
        for (total, want_rejected) in [(MAX_FRAGMENTS + 1, 2), (MAX_FRAGMENTS, 2)] {
            let frag = Fragment {
                orig_kind: MsgKind::Reply.to_byte(),
                msg_id: u64::from(total),
                idx: 0,
                total,
                chunk: Bytes::from_static(b"x"),
            };
            let e = Envelope {
                kind: MsgKind::Fragment,
                src: HostId(1),
                dst: HostId(2),
                body: frag.to_bytes(),
            };
            assert_eq!(r.accept(e), None);
            assert_eq!(r.rejected(), want_rejected);
        }
    }

    #[test]
    fn undecodable_fragment_bodies_count_as_rejected() {
        let mut r = Reassembler::new(8);
        let e = Envelope {
            kind: MsgKind::Fragment,
            src: HostId(1),
            dst: HostId(2),
            body: Bytes::from_static(b"\x00\x01garbage"),
        };
        assert_eq!(r.accept(e), None);
        assert_eq!(r.rejected(), 1);
    }

    #[test]
    fn incomplete_message_never_delivers() {
        let e = env(5_000);
        let frags = split_envelope(e, 1000, 4);
        let mut r = Reassembler::new(8);
        for f in &frags[..frags.len() - 1] {
            assert_eq!(r.accept(f.clone()), None);
        }
        assert_eq!(r.pending(), 1);
    }
}
