//! `rdo-local`: cached-RDO invocation, the paper's headline. Folder,
//! calendar and a loop object are imported during set-up; the timed mix
//! is `Client::invoke_local` calls, so `script` does nearly all the work.

use std::time::Instant;

use rover_apps::calendar::calendar_object;
use rover_apps::{Calendar, MailReader};
use rover_bench::testbed::Rig;
use rover_core::{Client, Guarantees, Promise, RoverObject, ServerRef, Urn};
use rover_net::LinkSpec;
use rover_script::{format_list, Value};
use rover_wire::Priority;

use super::{mailbox_gen, Env, Facts, SliceOut, Workload, FOLDER, USER};
use crate::measure::{fnv1a, timed, SplitMix, FNV_INIT};
use crate::trace::Tracer;

/// Messages in the cached folder `summaries` walks.
const FOLDER_MESSAGES: usize = 200;
/// Calendar slots, and how many of them the seed books.
const SLOTS: u64 = 400;
const BOOKED: usize = 60;
/// Tiny `lookup` calls per round: beside the loop method they show
/// what a dispatch costs.
pub const LOOKUPS: usize = 8;
pub const LOOP_ITERS: &str = "1000";
/// Rounds of the mix in one slice; a round is `OPS_PER_ROUND` calls.
pub const ROUNDS: u64 = 500;
pub const OPS_PER_ROUND: u64 = 3 + LOOKUPS as u64;

/// The loop method (`spin`) and the cheapest possible one (`get`).
pub const LOOP_CODE: &str = "proc spin {n} {
    set s 0
    set i 0
    while {$i < $n} {
        incr s 3
        incr i
    }
    return $s
}
proc get {} {rover::get n 0}";

pub fn loop_urn() -> Urn {
    Urn::new("bench", "loop").expect("static urn")
}

pub fn loop_object() -> RoverObject {
    RoverObject::new(loop_urn(), "blob")
        .with_code(LOOP_CODE)
        .with_field("n", "0")
}

/// Which calendar slots the seed books, and the slots each round looks
/// up (half of them booked, so `lookup` returns both kinds of answer).
#[derive(Debug, PartialEq, Eq)]
pub struct CalendarPlan {
    pub booked: Vec<u32>,
    pub lookups: Vec<u32>,
}

pub fn calendar_plan(seed: u64) -> CalendarPlan {
    let mut rng = SplitMix(seed ^ 0xCA1E_0DA2);
    let mut booked: Vec<u32> = Vec::with_capacity(BOOKED);
    while booked.len() < BOOKED {
        let slot = rng.below(SLOTS) as u32;
        if !booked.contains(&slot) {
            booked.push(slot);
        }
    }
    let lookups = (0..LOOKUPS)
        .map(|i| {
            if i % 2 == 0 {
                booked[rng.below(BOOKED as u64) as usize]
            } else {
                rng.below(SLOTS) as u32
            }
        })
        .collect();
    CalendarPlan { booked, lookups }
}

/// Puts the workload's objects at `server`: the seed's 200-message
/// folder, the calendar with the seed's bookings, and the loop object.
pub fn seed_server(server: &ServerRef, seed: u64) -> CalendarPlan {
    mailbox_gen(seed, FOLDER_MESSAGES).populate(server);
    let plan = calendar_plan(seed);
    let mut cal = calendar_object("team");
    for slot in &plan.booked {
        let entry = format_list(&[Value::str(USER), Value::str(format!("meeting {slot}"))]);
        cal.fields.insert(format!("ev{slot}"), entry);
    }
    server.borrow_mut().put_object(cal);
    server.borrow_mut().put_object(loop_object());
    plan
}

/// Wall time of every call of the mix, by method, in microseconds.
#[derive(Default)]
pub struct MethodTimes {
    pub summaries: Vec<f64>,
    pub agenda: Vec<f64>,
    pub lookup: Vec<f64>,
}

pub struct Rdo {
    rig: Rig,
    reader: MailReader,
    cal: Calendar,
    plan: CalendarPlan,
    rounds: u64,
    digest: Option<u64>,
    /// Filled when the caller asked for per-method times.
    pub times: Option<MethodTimes>,
}

impl Rdo {
    pub fn new(env: &Env<'_>, per_method: bool) -> Result<Rdo, String> {
        let mut rig = Rig::new(LinkSpec::ETHERNET_10M);
        let plan = seed_server(&rig.server, env.seed);

        let reader = MailReader::new(&rig.client, USER, Guarantees::ALL);
        let cal = Calendar::new(&rig.client, "team", USER, Guarantees::ALL);
        let imports: Vec<Promise> = vec![
            reader.open_folder(&mut rig.sim, FOLDER),
            cal.open(&mut rig.sim),
            Client::import(
                &rig.client,
                &mut rig.sim,
                &loop_urn(),
                rig.session,
                Priority::FOREGROUND,
            ),
        ]
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("import: {e}"))?;
        for p in &imports {
            rig.await_promise(p);
        }
        Ok(Rdo {
            rig,
            reader,
            cal,
            plan,
            rounds: env.size.scale(ROUNDS),
            digest: None,
            times: per_method.then(MethodTimes::default),
        })
    }

    /// Runs one local invocation to completion and folds its result
    /// into `digest`.
    fn call(
        rig: &mut Rig,
        digest: &mut u64,
        times: Option<&mut Vec<f64>>,
        invoke: impl FnOnce(&mut Rig) -> Result<Promise, rover_core::RoverError>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let p = invoke(rig).map_err(|e| format!("invoke_local: {e}"))?;
        rig.await_promise(&p);
        let value = p.poll().ok_or("promise did not resolve")?.value;
        if let Some(v) = times {
            v.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        *digest = fnv1a(*digest, value.as_str().as_bytes());
        Ok(())
    }
}

impl Workload for Rdo {
    fn slice(&mut self, t: &mut Tracer) -> Result<SliceOut, String> {
        let Rdo {
            rig,
            reader,
            cal,
            plan,
            times,
            ..
        } = self;
        let rounds = self.rounds;
        let run = timed(|| -> Result<u64, String> {
            let mut digest = FNV_INIT;
            for round in 1..=rounds {
                t.span("apps.mail_summaries", round, |_| {
                    let times = times.as_mut().map(|m| &mut m.summaries);
                    Rdo::call(rig, &mut digest, times, |r| {
                        reader.summaries_local(&mut r.sim, FOLDER)
                    })
                })?;
                t.span("apps.calendar_agenda", round, |_| {
                    let times = times.as_mut().map(|m| &mut m.agenda);
                    Rdo::call(rig, &mut digest, times, |r| cal.agenda_local(&mut r.sim))
                })?;
                for &slot in &plan.lookups {
                    t.span("apps.calendar_lookup", round, |_| {
                        let times = times.as_mut().map(|m| &mut m.lookup);
                        Rdo::call(rig, &mut digest, times, |r| {
                            cal.lookup_local(&mut r.sim, slot)
                        })
                    })?;
                }
                t.span("core.invoke_local_spin", round, |_| {
                    Rdo::call(rig, &mut digest, None, |r| {
                        Client::invoke_local(
                            &r.client,
                            &mut r.sim,
                            &loop_urn(),
                            "spin",
                            &[LOOP_ITERS],
                        )
                    })
                })?;
            }
            Ok(digest)
        });
        let digest = run.out?;
        // Every slice makes the same calls on the same cached objects.
        match self.digest {
            Some(first) if first != digest => {
                return Err(format!(
                    "result digest moved between slices: {first:016x} then {digest:016x}"
                ));
            }
            Some(_) => {}
            None => self.digest = Some(digest),
        }
        Ok(SliceOut {
            ops: rounds * OPS_PER_ROUND,
            failed: 0,
            wall: run.wall,
            cpu_s: run.cpu_s,
        })
    }

    fn finish(self: Box<Self>, _t: &mut Tracer) -> Result<Facts, String> {
        Ok(Facts {
            exact: vec![("digest", self.digest.ok_or("no slice ran")?)],
            ..Facts::default()
        })
    }
}
