//! `sim-hoard`: the large-payload read path. A seeded mailbox is
//! hoarded over 10 Mbit/s Ethernet (MTU 1460) into a client cache half
//! its size, then every message is read.

use rover_apps::{MailReader, MailboxGen};
use rover_bench::testbed::Rig;
use rover_core::Guarantees;
use rover_net::LinkSpec;

use super::{mailbox_gen, msg_urn, Env, Facts, SliceOut, Workload, FOLDER, USER};
use crate::measure::timed;
use crate::trace::Tracer;

/// Payload the mailbox is cut at. The generator draws message sizes
/// (400 B-60 KB) from the seed, so a fixed message count would make the
/// bytes to move, and with them memory and time, differ by several
/// percent from seed to seed; a fixed payload differs by less than one
/// message.
pub const PAYLOAD_BYTES: u64 = 9_500_000;
/// Messages generated to find the cut: half again what the payload
/// needs at the generator's mean size (about 6.5 KB).
const PROBE_MESSAGES: u64 = 2200;

fn body_len(rig: &Rig, id: &str) -> u64 {
    let server = rig.server.borrow();
    server
        .get_object(&msg_urn(id))
        .and_then(|o| o.field("body"))
        .map_or(0, |b| b.len() as u64)
}

/// The seed's mailbox: its first messages up to [`PAYLOAD_BYTES`] of
/// bodies. (The generator draws message by message, so a shorter
/// mailbox is a prefix of a longer one.) Returns the payload too.
pub fn mailbox(env: &Env<'_>) -> (MailboxGen, u64) {
    let target = env.size.scale(PAYLOAD_BYTES);
    let rig = Rig::new(LinkSpec::ETHERNET_10M);
    let probe = mailbox_gen(env.seed, env.size.scale(PROBE_MESSAGES) as usize);
    let (mut count, mut bytes) = (0, 0);
    for id in probe.populate(&rig.server) {
        if bytes >= target {
            break;
        }
        bytes += body_len(&rig, &id);
        count += 1;
    }
    (mailbox_gen(env.seed, count), bytes)
}

pub struct Hoard {
    gen: MailboxGen,
    /// Payload bytes the seed generates; what every slice must read.
    bytes: u64,
}

impl Hoard {
    pub fn new(env: &Env<'_>) -> Hoard {
        let (gen, bytes) = mailbox(env);
        Hoard { gen, bytes }
    }
}

impl Workload for Hoard {
    fn slice(&mut self, t: &mut Tracer) -> Result<SliceOut, String> {
        // A fresh client and server per slice (untimed), so each slice
        // starts from an empty cache.
        let cache = (self.bytes / 2) as usize;
        let mut rig = Rig::with_config(LinkSpec::ETHERNET_10M, |c| c.cache_capacity = cache);
        let ids = self.gen.populate(&rig.server);
        let reader = MailReader::new(&rig.client, USER, Guarantees::ALL);

        let run = timed(|| -> Result<u64, String> {
            t.span("apps.hoard", 0, |_| -> Result<(), String> {
                let p = reader
                    .hoard(&mut rig.sim, FOLDER)
                    .map_err(|e| format!("hoard: {e}"))?;
                rig.await_promise(&p);
                rig.await_drain();
                Ok(())
            })?;
            let mut read = 0u64;
            for (i, id) in ids.iter().enumerate() {
                read += t.span("apps.read_message", i as u64 + 1, |_| {
                    let p = reader
                        .read_message(&mut rig.sim, FOLDER, id)
                        .map_err(|e| format!("read {id}: {e}"))?;
                    rig.await_promise(&p);
                    let body = p
                        .poll()
                        .and_then(|o| o.object)
                        .and_then(|o| o.field("body").map(|b| b.len() as u64));
                    body.ok_or_else(|| format!("message {id} came back without a body"))
                })?;
            }
            Ok(read)
        });
        let read = run.out?;
        if read != self.bytes {
            return Err(format!("read {read} body bytes, generated {}", self.bytes));
        }
        Ok(SliceOut {
            // One op is one kB of message payload hoarded and read: the
            // work is per byte, and a seed's mailbox varies in bytes far
            // more than in messages.
            ops: self.bytes / 1000,
            failed: 0,
            wall: run.wall,
            cpu_s: run.cpu_s,
        })
    }

    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Facts, String> {
        Ok(Facts {
            exact: vec![("mailbox_bytes", self.bytes)],
            ..Facts::default()
        })
    }
}
