//! `core`: the client and server state machines with no kernel in the
//! way (two worlds joined by queues), the server alone fed recorded
//! requests, the local fast paths, checkpoint encoding at the
//! workload's store size, and the exact counts of a scale arm.

use rover_bench::exps::scale::run_scale;
use rover_cluster::counter_urn;
use rover_core::{Client, ServerRef, Urn};
use rover_wire::Priority;

use super::worlds::{
    self, client_world, counter_server, drive_exports, server_world, ClientWorld, ServerWorld, Tape,
};
use super::{batch_ns, each_us, Out, Shapes, Traffic, SAMPLES};
use crate::measure::{median, timed};
use crate::workloads::rdo::{self, loop_object, loop_urn};
use crate::workloads::rt::RtShape;
use crate::workloads::{hoard, mailbox_gen, msg_urn, scale, Env, Size};

/// Operations timed together in the pair and server passes.
const OPS_PER_SAMPLE: usize = 64;
const PAIR_SAMPLES: usize = 200;
/// Messages in the mailbox the mail-shaped passes import.
const MAIL_MESSAGES: usize = OPS_PER_SAMPLE;

pub fn record_counter_tape(rt: RtShape) -> Result<(Tape, usize), String> {
    let (mut c, mut s) = (client_world(), counter_server(rt.group_batch));
    worlds::import(&mut c, &mut s, &counter_urn(), None)?;
    let mut tape = Tape::default();
    let ops = 2 * OPS_PER_SAMPLE;
    drive_exports(&mut c, &mut s, ops, rt.window, Some(&mut tape))?;
    Ok((tape, ops))
}

fn mail_server(env: &Env<'_>) -> (ServerWorld, Vec<Urn>) {
    let mut urns = Vec::new();
    let server = server_world(0, |s| {
        urns = mailbox_gen(env.seed, MAIL_MESSAGES)
            .populate(s)
            .iter()
            .map(|id| msg_urn(id))
            .collect();
    });
    (server, urns)
}

fn import_all(
    c: &mut ClientWorld,
    s: &mut ServerWorld,
    urns: &[Urn],
    mut tape: Option<&mut Tape>,
) -> Result<(), String> {
    for urn in urns {
        worlds::import(c, s, urn, tape.as_deref_mut())?;
    }
    Ok(())
}

pub fn record_mail_tape(env: &Env<'_>) -> Result<(Tape, usize), String> {
    let (mut s, urns) = mail_server(env);
    let mut c = client_world();
    let mut tape = Tape::default();
    import_all(&mut c, &mut s, &urns, Some(&mut tape))?;
    Ok((tape, urns.len()))
}

/// Feeds recorded requests to a server alone, `window` per round,
/// sinking its replies. Returns how many envelopes it answered with.
fn replay(s: &mut ServerWorld, requests: &[rover_wire::Envelope], window: usize) -> usize {
    let mut answered = 0;
    for chunk in requests.chunks(window.max(1)) {
        for env in chunk {
            s.world.deliver(env.clone());
        }
        s.world.round();
        answered += s.world.outbox.borrow_mut().drain(..).count();
    }
    // A group-commit window may still be open on the last few.
    for _ in 0..40 {
        s.world.round();
        answered += s.world.outbox.borrow_mut().drain(..).count();
    }
    answered
}

/// Pair and server-only microseconds per op for counter exports, and
/// the server world the pair left behind.
fn counter_passes(rt: RtShape) -> Result<(Vec<f64>, Vec<f64>, ServerWorld), String> {
    let (mut c, mut s) = (client_world(), counter_server(rt.group_batch));
    worlds::import(&mut c, &mut s, &counter_urn(), None)?;
    let mut tape = Tape::default();
    let mut pair = Vec::with_capacity(PAIR_SAMPLES);
    for _ in 0..PAIR_SAMPLES {
        let run =
            timed(|| drive_exports(&mut c, &mut s, OPS_PER_SAMPLE, rt.window, Some(&mut tape)));
        run.out?;
        pair.push(run.wall.as_secs_f64() * 1e6 / OPS_PER_SAMPLE as f64);
    }

    // The same requests, in the same order, into a server that has not
    // seen them. Its import of the counter never happened, which the
    // server does not need: exports name the object themselves.
    let mut alone = counter_server(rt.group_batch);
    let mut server = Vec::with_capacity(PAIR_SAMPLES);
    for sample in tape.to_server.chunks(OPS_PER_SAMPLE) {
        let run = timed(|| replay(&mut alone, sample, rt.window));
        if run.out == 0 {
            return Err("the server answered none of the replayed requests".into());
        }
        server.push(run.wall.as_secs_f64() * 1e6 / sample.len() as f64);
    }
    Ok((pair, server, s))
}

fn mail_passes(env: &Env<'_>) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (tape, _) = record_mail_tape(env)?;
    let (mut pair, mut server) = (Vec::new(), Vec::new());
    for _ in 0..PAIR_SAMPLES {
        // A fresh client (empty cache) and a fresh server (empty dedup
        // table) per sample, built outside the timing.
        let (mut s, urns) = mail_server(env);
        let mut c = client_world();
        let run = timed(|| import_all(&mut c, &mut s, &urns, None));
        run.out?;
        pair.push(run.wall.as_secs_f64() * 1e6 / urns.len() as f64);

        let (mut alone, _) = mail_server(env);
        let run = timed(|| replay(&mut alone, &tape.to_server, 1));
        if run.out == 0 {
            return Err("the server answered none of the replayed imports".into());
        }
        server.push(run.wall.as_secs_f64() * 1e6 / tape.to_server.len() as f64);
    }
    Ok((pair, server))
}

/// `invoke_local` and a cache-hit `import` on the loop object.
fn local_paths(out: &mut Out) -> Result<(), String> {
    let mut c = client_world();
    let mut s = server_world(0, |s| {
        s.borrow_mut().put_object(loop_object());
    });
    worlds::import(&mut c, &mut s, &loop_urn(), None)?;
    let mut broken = None;

    let invoke = batch_ns(SAMPLES, 20, || {
        let done =
            Client::invoke_local(&c.client, &mut c.world.sim, &loop_urn(), "get", &[]).map(|p| {
                c.world.round();
                p.is_ready()
            });
        if !matches!(done, Ok(true)) {
            broken.get_or_insert("invoke_local did not complete");
        }
    });
    // What `invoke_local` adds around the interpreter call it makes.
    let run_method = out.get("script.invoke_ns_warm").unwrap_or(0.0);
    out.put(
        "core.invoke_local_ns",
        median(&invoke) - run_method,
        invoke.len(),
    );

    let hit = batch_ns(SAMPLES, 20, || {
        let done = Client::import(
            &c.client,
            &mut c.world.sim,
            &loop_urn(),
            c.session,
            Priority::FOREGROUND,
        )
        .map(|p| {
            c.world.round();
            p.is_ready()
        });
        if !matches!(done, Ok(true)) {
            broken.get_or_insert("a cached import did not complete");
        }
    });
    out.put("core.import_hit_ns", median(&hit), hit.len());
    broken.map_or(Ok(()), |e| Err(e.to_string()))
}

/// A server holding the store the workload checkpoints.
fn workload_store(name: &str, env: &Env<'_>, after_pair: Option<ServerWorld>) -> ServerRef {
    match (name, after_pair) {
        ("sim-hoard", _) => {
            server_world(0, |s| {
                hoard::mailbox(env).0.populate(s);
            })
            .server
        }
        ("rdo-local", _) => {
            server_world(0, |s| {
                rdo::seed_server(s, env.seed);
            })
            .server
        }
        // Counter traffic: the store, floors and dedup table a run of
        // exports leaves behind.
        (_, Some(world)) => world.server,
        (_, None) => counter_server(0).server,
    }
}

pub fn pass(name: &str, shapes: &Shapes, env: &Env<'_>, out: &mut Out) -> Result<(), String> {
    let (pair, server, after_pair) = match shapes.traffic {
        Traffic::Counter => {
            let (p, s, world) = counter_passes(shapes.rt)?;
            (p, s, Some(world))
        }
        Traffic::Mail => {
            let (p, s) = mail_passes(env)?;
            (p, s, None)
        }
    };
    let (pair_us, server_us) = (median(&pair), median(&server));
    out.put("core.pair_us_per_op", pair_us, pair.len());
    out.put("core.server_us_per_op", server_us, server.len());
    out.put("core.client_us_per_op", pair_us - server_us, pair.len());

    local_paths(out)?;

    let store = workload_store(name, env, after_pair);
    let encode = each_us(SAMPLES / 4, || {
        std::hint::black_box(store.borrow().export_store());
    });
    out.put("core.checkpoint_encode_us", median(&encode), encode.len());

    // Exact counts of a scale arm: the workload's own, or its smoke size.
    let cfg = match name {
        "sim-scale" => scale::config(env),
        _ => scale::config(&Env {
            seed: env.seed,
            size: Size::Smoke,
            scratch: env.scratch,
        }),
    };
    let arm = run_scale(cfg)?;
    out.put("core.batch_mean", arm.batch_mean_x100 as f64 / 100.0, 1);
    out.put(
        "core.wal_bytes_per_commit",
        arm.wal_flush_bytes as f64 / arm.ops.max(1) as f64,
        1,
    );
    out.put("core.reply_coalesced", arm.reply_coalesced as f64, 1);
    Ok(())
}
