//! Differential test of the dedup cache against the eviction it
//! replaced: a FIFO list scanned from the front, on every insert over
//! capacity, for the first entry below its client's floor. The scan is
//! kept here, and only here, as the reference. A real [`Server`] is
//! driven through admission, log replay and snapshot restore with
//! random request ids, floors and capacities; after every step the
//! cache must hold the reference's keys in the reference's order (so
//! the two evicted the same entries in the same sequence) and
//! `export_store()` must be byte-identical to an image built from the
//! reference's list.

#![cfg(test)]

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use rover_wire::{
    Bytes, CommitRecord, HostId, OpStatus, Priority, QrpcReply, QrpcRequest, RequestId, RoverOp,
    SessionId, Version, Wire,
};

use super::Server;
use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::config::ServerConfig;
use crate::object::RoverObject;
use crate::urn::Urn;
use crate::world::World;

type Key = (u32, u64);

/// The linear-scan eviction, as `Server` had it inline.
#[derive(Default)]
struct LinearScan {
    dedup: HashMap<Key, QrpcReply>,
    dedup_order: VecDeque<Key>,
    ack_floor: HashMap<u32, u64>,
    /// Every key evicted, in order.
    evicted: Vec<Key>,
    /// Inserts that left the cache over capacity.
    deferred: u64,
}

impl LinearScan {
    fn advance_floor(&mut self, client: u32, acked_below: u64) -> u64 {
        let floor = self.ack_floor.entry(client).or_insert(0);
        if acked_below > *floor {
            *floor = acked_below;
        }
        *floor
    }

    fn insert(&mut self, key: Key, reply: QrpcReply) -> bool {
        let new = self.dedup.insert(key, reply).is_none();
        if new {
            self.dedup_order.push_back(key);
        }
        new
    }

    fn evict_to(&mut self, capacity: usize) {
        while self.dedup_order.len() > capacity {
            let evictable = self
                .dedup_order
                .iter()
                .position(|k| k.1 < self.ack_floor.get(&k.0).copied().unwrap_or(0));
            match evictable {
                Some(i) => {
                    if let Some(old) = self.dedup_order.remove(i) {
                        self.dedup.remove(&old);
                        self.evicted.push(old);
                    }
                }
                None => {
                    self.deferred += 1;
                    break;
                }
            }
        }
    }

    /// The dedup section of a checkpoint: FIFO order, below-floor
    /// entries pruned.
    fn checkpoint(&self) -> Vec<(Key, QrpcReply)> {
        self.dedup_order
            .iter()
            .filter(|(c, id)| *id >= self.ack_floor.get(c).copied().unwrap_or(0))
            .filter_map(|key| self.dedup.get(key).map(|r| (*key, r.clone())))
            .collect()
    }

    fn restore(&mut self, floors: Vec<(u32, u64)>, dedup: Vec<(Key, QrpcReply)>) {
        self.dedup.clear();
        self.dedup_order.clear();
        self.ack_floor.clear();
        self.ack_floor.extend(floors);
        for (key, reply) in dedup {
            self.insert(key, reply);
        }
    }
}

fn note_urn() -> Urn {
    Urn::parse("urn:rover:diff/note").expect("static urn")
}

fn request(client: u32, id: u64, acked_below: u64, import: bool) -> QrpcRequest {
    QrpcRequest {
        req_id: RequestId(id),
        client: HostId(client),
        session: SessionId(1),
        op: if import {
            RoverOp::Import
        } else {
            RoverOp::Ping
        },
        urn: note_urn().as_str().to_owned(),
        base_version: Version(0),
        priority: Priority::NORMAL,
        auth: 0,
        acked_below,
        payload: Bytes::new(),
        read_vector: Vec::new(),
    }
}

/// What executing `req` replies (nothing in these runs writes the note).
fn reply_to(req: &QrpcRequest, note: &RoverObject) -> QrpcReply {
    match req.op {
        RoverOp::Import => QrpcReply {
            req_id: req.req_id,
            status: OpStatus::Ok,
            version: note.version,
            payload: note.to_bytes(),
        },
        _ => QrpcReply {
            req_id: req.req_id,
            status: OpStatus::Ok,
            version: Version(0),
            payload: Bytes::new(),
        },
    }
}

proptest! {
    #[test]
    fn eviction_sequence_and_checkpoint_bytes_match_the_linear_scan(
        capacity in 0usize..10,
        steps in proptest::collection::vec((0u8..16, 0u32..4, 0u64..20, 0u64..20), 1..160),
    ) {
        let mut w = World::new(1);
        let mut cfg = ServerConfig::workstation(HostId(99));
        cfg.dedup_capacity = capacity;
        let sv = w.server(cfg);
        let World { mut sim, .. } = w;
        sv.borrow_mut()
            .put_object(RoverObject::new(note_urn(), "note").with_field("body", "unchanged"));
        let note = sv.borrow().get_object(&note_urn()).expect("seeded").clone();

        let mut reference = LinearScan::default();
        let mut evicted_by_cache: Vec<Key> = Vec::new();

        for (kind, client, id, acked) in steps {
            let before = sv.borrow().dedup.keys_in_insertion_order();
            match kind {
                // Snapshot restore: both sides rebuild from the image.
                0 => {
                    let bytes = sv.borrow().export_store();
                    sv.borrow_mut().import_store(&bytes).expect("own image");
                    let img = decode_checkpoint(&bytes).expect("own image");
                    reference.restore(img.ack_floors, img.dedup);
                }
                // Log replay: floor, then the entry, no eviction. The
                // id may sit below the floor or repeat a held key.
                1..=3 => {
                    let req = request(client, id, acked, false);
                    let reply = reply_to(&req, &note);
                    sv.borrow_mut()
                        .apply_commit(CommitRecord {
                            client: req.client,
                            req_id: req.req_id,
                            acked_below: acked,
                            session: req.session,
                            session_seq: 0,
                            urn: req.urn.clone(),
                            obj: None,
                            reply: reply.clone(),
                        })
                        .expect("no object image to decode");
                    reference.advance_floor(client, acked);
                    reference.insert((client, id), reply);
                }
                // Admission: the floor moves first; a held key replays,
                // an id below the floor is answered from state, and
                // anything else executes, is cached, and evicts.
                _ => {
                    let req = request(client, id, acked, kind % 2 == 0);
                    let reply = reply_to(&req, &note);
                    Server::admit(&sv, &mut sim, req);
                    sim.run();
                    let floor = reference.advance_floor(client, acked);
                    let key = (client, id);
                    if !reference.dedup.contains_key(&key)
                        && id >= floor
                        && reference.insert(key, reply)
                    {
                        reference.evict_to(capacity);
                    }
                }
            }

            let after = sv.borrow().dedup.keys_in_insertion_order();
            // A restore drops the unpinned entries on both sides; that
            // is the image's pruning, not eviction.
            if kind != 0 {
                evicted_by_cache.extend(before.iter().filter(|k| !after.contains(k)));
            }
            prop_assert_eq!(&after, &Vec::from(reference.dedup_order.clone()));
            prop_assert_eq!(&evicted_by_cache, &reference.evicted);
            prop_assert_eq!(
                sim.stats.counter("server.dedup_evict_deferred"),
                reference.deferred
            );

            let mut img = sv.borrow().checkpoint_image();
            img.dedup = reference.checkpoint();
            img.ack_floors = reference.ack_floor.iter().map(|(c, f)| (*c, *f)).collect();
            img.ack_floors.sort();
            prop_assert_eq!(sv.borrow().export_store(), encode_checkpoint(&img));
            prop_assert_eq!(sv.borrow().dedup_entries(), img.dedup.len());
        }
    }
}
