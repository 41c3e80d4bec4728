//! Log retirement under a deep queue: 2 000 logged imports are answered
//! in random order, as replies to a hoard are. Compaction must keep the
//! device within about twice its live bytes — fewer dead records than
//! `max(64, live)`, and as many staged completion markers — while
//! re-framing no more records than were retired, and a crash at a
//! random point must bring back exactly the unanswered requests, with
//! fresh ids above every id handed out before it.

#![cfg(test)]

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rover_net::LinkSpec;

use super::*;
use crate::session::Guarantees;
use crate::world::World;

const CLIENT: HostId = HostId(1);
const SERVER: HostId = HostId(2);
/// One completion marker on the device: frame header plus request id.
const MARKER_BYTES: u64 = 20 + 8;
/// The high-water record a compaction leaves: frame header plus the
/// highest request and session ids.
const HIGH_WATER_BYTES: u64 = 20 + 16;

fn footprint(cl: &ClientRef) -> (u64, u64) {
    let c = cl.borrow();
    (c.log.device_len(), c.log.buffered_bytes() as u64)
}

proptest! {
    #[test]
    fn deep_queue_retires_in_bounded_space_and_recovers_exactly(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = World::new(seed);
        let link = w.link(LinkSpec::ETHERNET_10M, CLIENT, SERVER);
        // Nothing leaves the host: the replies are made up below.
        w.net.set_up(&mut w.sim, link, false);
        let cfg = ClientConfig::thinkpad(CLIENT, SERVER);
        let links = w.links_of(CLIENT);
        let cl = Client::new(&mut w.sim, &w.net, cfg.clone(), links);
        let session = Client::create_session(&cl, Guarantees::NONE, true);

        // (request id, bytes its record takes on the device)
        let mut live: Vec<(u64, u64)> = Vec::new();
        for i in 0..2000 {
            let urn = Urn::parse(&format!("urn:rover:t/m{i}")).unwrap();
            let before = footprint(&cl).0;
            Client::import(&cl, &mut w.sim, &urn, session, Priority::BACKGROUND).unwrap();
            live.push((cl.borrow().next_req - 1, footprint(&cl).0 - before));
        }
        w.sim.run();
        let frame_max = live.iter().map(|l| l.1).max().unwrap();
        let mut live_bytes: u64 = live.iter().map(|l| l.1).sum();
        prop_assert_eq!(footprint(&cl), (live_bytes, 0));

        let (mut retired, mut reframed) = (0u64, 0u64);
        for _ in 0..rng.gen_range(0..2000) {
            let (req, frame) = live.swap_remove(rng.gen_range(0..live.len()));
            let reply = QrpcReply {
                req_id: RequestId(req),
                status: OpStatus::NoSuchObject,
                version: Version(0),
                payload: Bytes::new(),
            };
            Client::complete(&cl, &mut w.sim, reply);
            live_bytes -= frame;
            let slack = live.len().max(64) as u64;
            let (device, staged) = footprint(&cl);
            let live_n = live.len();
            prop_assert!(device <= live_bytes + slack * frame_max, "{device} B, {live_bytes} live");
            prop_assert!(staged <= slack * MARKER_BYTES, "{staged} B of markers, {live_n} live");
            // Every retirement stages a marker, so none staged means a
            // compaction just rewrote the device as its live records
            // and one high-water record.
            retired += 1;
            if staged == 0 {
                prop_assert_eq!(device, live_bytes + HIGH_WATER_BYTES);
                reframed += device;
            }
            prop_assert!(reframed <= retired * frame_max, "{reframed} B for {retired} retired");
        }

        // The next logged request would carry the staged markers to the
        // device; a crash before that re-sends a few answered requests,
        // which the server's at-most-once cache absorbs.
        cl.borrow_mut().log.flush().unwrap();
        let store = Client::crash(&cl);
        drop(cl);
        let cl = w.recover_client(cfg, store);
        let c = cl.borrow();
        let reissued: BTreeSet<u64> = c.outstanding.keys().copied().collect();
        prop_assert_eq!(reissued, live.iter().map(|l| l.0).collect::<BTreeSet<u64>>());
        // Answered or not, compacted away or not, no id is handed out
        // twice.
        prop_assert!(c.next_req > 2000, "next request id {}", c.next_req);
        prop_assert!(c.next_session > session.0, "next session id {}", c.next_session);
    }
}
