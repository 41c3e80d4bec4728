//! `sim`: the event loop, the `Stats` registry and the wall clock's
//! cross-thread wake.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rover_sim::{Clock, Sim, SimDuration, SimTime, Stats, WallClock};

use super::{batch_ns, each_us, Out, SAMPLES};
use crate::measure::median;

const BACKLOG: usize = 10_000;
const ROUND: u64 = 100;

/// Schedule 100, cancel 75, pop 25 against a 10 000-event backlog: the
/// retransmission-timer mix QRPC produces (most timers are cancelled by
/// the reply arriving first).
fn round(sim: &mut Sim, fired: &Rc<Cell<u64>>) {
    let base = sim.now();
    let ids: Vec<_> = (0..ROUND)
        .map(|i| {
            let fired = fired.clone();
            sim.schedule_at(base + SimDuration::from_micros(i + 1), move |_| {
                fired.set(fired.get() + 1);
            })
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        if i % 4 != 3 {
            sim.cancel(*id);
        }
    }
    sim.run_until(base + SimDuration::from_micros(ROUND + 1));
}

/// One-way latency from `notify` on one thread to `wait_until`
/// returning on another, in microseconds.
fn wake_latencies(samples: usize) -> Vec<f64> {
    let clock = WallClock::new();
    let epoch = Instant::now();
    let sent_ns = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<f64>();
    let waiter = {
        let (clock, sent_ns) = (clock.clone(), sent_ns.clone());
        std::thread::spawn(move || {
            for _ in 0..samples {
                clock.wait_until(None);
                let woke = epoch.elapsed().as_nanos() as u64;
                let sent = sent_ns.load(Ordering::SeqCst);
                if tx.send(woke.saturating_sub(sent) as f64 / 1e3).is_err() {
                    return;
                }
            }
        })
    };
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        // Give the waiter time to block, or the notify would only leave
        // a permit for a wait that has not started.
        std::thread::sleep(Duration::from_micros(100));
        sent_ns.store(epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
        clock.notify();
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(us) => out.push(us),
            Err(_) => break,
        }
    }
    // A waiter still blocked (a sample was lost) must not outlive us.
    clock.notify();
    let _ = waiter.join();
    out
}

pub fn pass(out: &mut Out) {
    let mut sim = Sim::new(7);
    let far = SimTime::from_secs(1 << 30);
    for _ in 0..BACKLOG {
        sim.schedule_at(far, |_| {});
    }
    let fired = Rc::new(Cell::new(0));
    let rounds = each_us(2 * SAMPLES, || round(&mut sim, &fired));
    assert_eq!(fired.get(), 2 * SAMPLES as u64 * ROUND / 4);
    out.put(
        "sim.events_per_s",
        ROUND as f64 / (median(&rounds) / 1e6),
        rounds.len(),
    );

    let mut stats = Stats::new();
    stats.incr("server.requests");
    stats.sample("server.batch", 1.0);
    let ns = batch_ns(SAMPLES, 100, || {
        stats.incr(std::hint::black_box("server.requests"));
        stats.sample(std::hint::black_box("server.batch"), 1.0);
    });
    // One `incr` and one `sample` per iteration.
    out.put("sim.stats_incr_ns", median(&ns) / 2.0, ns.len());

    let wakes = wake_latencies(SAMPLES);
    out.put_p50_p99(
        "sim.wallclock_wake_us_p50",
        "sim.wallclock_wake_us_p99",
        &wakes,
    );
}
