//! The event loop: a cancellable, deterministic priority queue of
//! closures over virtual time.
//!
//! # Performance architecture
//!
//! Scheduled closures live in a **generation-stamped slab**: the heap
//! orders lightweight `(time, seq, slot, gen)` records only, and
//! cancellation is O(1) — drop the slot's closure, bump its
//! generation, and recycle the slot. The stale heap record is skipped
//! on pop by a single integer comparison (no hashing, no tombstone
//! set that grows with cancel volume). Events scheduled for the
//! *current* instant — the dominant pattern in QRPC callback chains —
//! bypass the heap entirely through a FIFO micro-queue, which is
//! correct because any such event necessarily has a later sequence
//! number than every heap entry due at the same instant (the heap
//! entry was scheduled before virtual time reached this instant; the
//! micro-queue entry after).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Handle identifying a scheduled event, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// A slab slot owning one scheduled closure.
///
/// `gen` increments whenever the slot's event fires or is cancelled,
/// so queue records and [`EventId`]s carrying an old generation are
/// recognisably stale in O(1).
struct Slot {
    gen: u32,
    f: Option<EventFn>,
}

/// A heap record: ordering data only; the closure stays in the slab.
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
    // Ties break by insertion sequence for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulation: virtual clock, event queues, seeded RNG and
/// statistics.
///
/// Events are `FnOnce(&mut Sim)` closures; they typically capture
/// `Rc<RefCell<…>>` handles to the simulated components they mutate, and
/// may schedule further events. Two events scheduled for the same instant
/// fire in scheduling order, which keeps runs deterministic.
pub struct Sim {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// Same-instant FIFO: events scheduled for `at == now` skip the heap.
    now_queue: VecDeque<Scheduled>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Cancelled records still sitting in a queue awaiting lazy skip.
    dead: usize,
    // Loop telemetry (plain fields: the hot path must not touch maps).
    scheduled_total: u64,
    fired_total: u64,
    cancelled_total: u64,
    fast_path_total: u64,
    rng: StdRng,
    /// Run-wide counters and sample sets, keyed by name.
    pub stats: Stats,
    /// Optional bounded event trace (disabled by default).
    pub trace: Trace,
}

impl Sim {
    /// Creates a simulation at `t = 0` with a deterministically seeded RNG.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            now_queue: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: 0,
            scheduled_total: 0,
            fired_total: 0,
            cancelled_total: 0,
            fast_path_total: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: Stats::new(),
            trace: Trace::default(),
        }
    }

    /// Records a trace point at the current virtual time. `detail` is
    /// rendered only while `sim.trace` is enabled, so pass
    /// `format_args!(…)`, not `format!(…)`: a disabled trace formats
    /// nothing.
    pub fn trace(&mut self, tag: &'static str, detail: impl std::fmt::Display) {
        if self.trace.is_enabled() {
            self.trace.record(self.now, tag, detail.to_string());
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Returns the number of records in the time-ordered heap
    /// (excluding the same-instant micro-queue, including
    /// not-yet-skipped cancelled records).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Returns the number of cancelled records still occupying queue
    /// space until their lazy skip — the quantity the old
    /// tombstone-set design paid a hash lookup per pop to track.
    pub fn cancelled_live(&self) -> usize {
        self.dead
    }

    /// Returns cumulative loop telemetry:
    /// `(scheduled, fired, cancelled, same-instant fast-path hits)`.
    pub fn loop_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.scheduled_total,
            self.fired_total,
            self.cancelled_total,
            self.fast_path_total,
        )
    }

    /// Snapshots the loop telemetry into [`Sim::stats`] under `sim.*`
    /// keys (called automatically when `run`/`run_until` return).
    pub fn record_loop_stats(&mut self) {
        self.stats.set("sim.events_scheduled", self.scheduled_total);
        self.stats.set("sim.events_fired", self.fired_total);
        self.stats.set("sim.events_cancelled", self.cancelled_total);
        self.stats.set("sim.fast_path_hits", self.fast_path_total);
        self.stats.set("sim.heap_len", self.heap.len() as u64);
        self.stats.set("sim.cancelled_live", self.dead as u64);
    }

    /// Returns the deterministic random-number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Allocates a slab slot for `f`, reusing a free one if possible.
    fn alloc_slot(&mut self, f: EventFn) -> (u32, u32) {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.f.is_none(), "free slot holds a closure");
                s.f = Some(f);
                (slot, s.gen)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab exhausted");
                self.slots.push(Slot { gen: 0, f: Some(f) });
                (slot, 0)
            }
        }
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; events cannot violate causality.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        let (slot, gen) = self.alloc_slot(Box::new(f));
        self.seq += 1;
        self.live += 1;
        self.scheduled_total += 1;
        let rec = Scheduled {
            at,
            seq: self.seq,
            slot,
            gen,
        };
        if at == self.now {
            // Same-instant fast path: FIFO order *is* (time, seq)
            // order here, because every heap record due at `now` was
            // scheduled earlier (smaller seq) — see module docs.
            self.fast_path_total += 1;
            self.now_queue.push_back(rec);
        } else {
            self.heap.push(rec);
        }
        EventId { slot, gen }
    }

    /// Schedules `f` to run after `delay` elapses.
    pub fn schedule_after<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event in O(1).
    ///
    /// Cancelling an event that already fired (or was already cancelled)
    /// is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        let Some(s) = self.slots.get_mut(id.slot as usize) else {
            return;
        };
        if s.gen != id.gen {
            return; // Already fired, cancelled, or slot reused.
        }
        s.f = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        self.dead += 1;
        self.cancelled_total += 1;
    }

    /// Takes the closure for a queue record, if it is still current.
    ///
    /// A live take retires the slot (generation bump + free-list push);
    /// a stale record decrements the lazy-skip debt instead.
    fn take_if_live(&mut self, rec: &Scheduled) -> Option<EventFn> {
        let s = &mut self.slots[rec.slot as usize];
        if s.gen != rec.gen {
            self.dead -= 1;
            return None;
        }
        let f = s.f.take().expect("live slot has a closure");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(rec.slot);
        self.live -= 1;
        self.fired_total += 1;
        Some(f)
    }

    /// Runs the earliest pending event; returns `false` when none remain.
    pub fn step(&mut self) -> bool {
        loop {
            // Heap records already due (at == now) precede every
            // micro-queue entry: they were scheduled before virtual
            // time reached this instant.
            if self.heap.peek().is_some_and(|ev| ev.at == self.now) {
                let rec = self.heap.pop().expect("peeked");
                if let Some(f) = self.take_if_live(&rec) {
                    f(self);
                    return true;
                }
                continue;
            }
            if let Some(rec) = self.now_queue.pop_front() {
                if let Some(f) = self.take_if_live(&rec) {
                    f(self);
                    return true;
                }
                continue;
            }
            match self.heap.pop() {
                Some(rec) => {
                    if let Some(f) = self.take_if_live(&rec) {
                        debug_assert!(rec.at >= self.now);
                        self.now = rec.at;
                        f(self);
                        return true;
                    }
                }
                None => return false,
            }
        }
    }

    /// Runs events until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
        self.record_loop_stats();
    }

    /// Runs events with timestamps `<= deadline`, then advances the clock
    /// to `deadline` (even if the queue drained earlier).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            // Micro-queue entries are due at (or before) `now`, which
            // is never past the deadline here.
            if !self.now_queue.is_empty() {
                if !self.step() {
                    break;
                }
                continue;
            }
            match self.heap.peek() {
                Some(ev) if ev.at <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.record_loop_stats();
    }

    /// Runs events for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Returns the instant of the earliest live pending event, or `None`
    /// when the queue holds no live events.
    ///
    /// Takes `&mut self` because stale (cancelled) records at the head
    /// of either queue are lazily discarded here — exactly as `step`
    /// would have skipped them — so external drivers never sleep until a
    /// deadline that belongs to a cancelled timer.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(rec) = self.now_queue.front() {
            if self.slots[rec.slot as usize].gen == rec.gen {
                return Some(self.now);
            }
            self.now_queue.pop_front();
            self.dead -= 1;
        }
        while let Some(rec) = self.heap.peek() {
            if self.slots[rec.slot as usize].gen == rec.gen {
                return Some(rec.at);
            }
            self.heap.pop();
            self.dead -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn disabled_trace_renders_nothing() {
        struct Loud<'a>(&'a std::cell::Cell<u32>);
        impl std::fmt::Display for Loud<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                write!(f, "rendered")
            }
        }
        let rendered = std::cell::Cell::new(0);
        let mut sim = Sim::new(1);
        sim.trace("t", format_args!("{}", Loud(&rendered)));
        assert_eq!((rendered.get(), sim.trace.len()), (0, 0));
        sim.trace.set_enabled(true);
        sim.trace("t", format_args!("{}", Loud(&rendered)));
        assert_eq!((rendered.get(), sim.trace.len()), (1, 1));
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_micros(t), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn same_instant_fires_in_scheduling_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..16 {
            let order = order.clone();
            sim.schedule_at(SimTime::from_micros(5), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        let id = sim.schedule_after(SimDuration::from_micros(1), move |_| {
            *h.borrow_mut() += 1;
        });
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Sim::new(1);
        let id = sim.schedule_after(SimDuration::ZERO, |_| {});
        sim.run();
        sim.cancel(id);
        assert!(!sim.step());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(1);
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        sim.schedule_after(SimDuration::from_millis(1), move |sim| {
            sim.schedule_after(SimDuration::from_millis(2), move |sim| {
                assert_eq!(sim.now().as_millis(), 3);
                *d.borrow_mut() = true;
            });
        });
        sim.run();
        assert!(*done.borrow());
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        for t in [5u64, 15, 25] {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_micros(t), move |_| {
                hits.borrow_mut().push(t);
            });
        }
        sim.run_until(SimTime::from_micros(20));
        assert_eq!(*hits.borrow(), vec![5, 15]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        sim.run();
        assert_eq!(*hits.borrow(), vec![5, 15, 25]);
    }

    #[test]
    fn run_until_advances_past_empty_queue() {
        let mut sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Sim::new(1);
        sim.schedule_at(SimTime::from_micros(10), |sim| {
            sim.schedule_at(SimTime::from_micros(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let mut a = Sim::new(7);
        let mut b = Sim::new(7);
        let xs: Vec<u32> = (0..8).map(|_| a.rng().gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.rng().gen()).collect();
        assert_eq!(xs, ys);
        let mut c = Sim::new(8);
        let zs: Vec<u32> = (0..8).map(|_| c.rng().gen()).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn cancel_is_o1_and_observable() {
        let mut sim = Sim::new(1);
        let ids: Vec<EventId> = (0..100)
            .map(|i| sim.schedule_at(SimTime::from_micros(i + 1), |_| {}))
            .collect();
        assert_eq!(sim.pending(), 100);
        assert_eq!(sim.heap_len(), 100);
        for id in ids.iter().take(60) {
            sim.cancel(*id);
        }
        // Cancel dropped the closures immediately; the records await
        // their lazy skip in the heap.
        assert_eq!(sim.pending(), 40);
        assert_eq!(sim.cancelled_live(), 60);
        assert_eq!(sim.heap_len(), 100);
        sim.run();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.cancelled_live(), 0);
        assert_eq!(sim.heap_len(), 0);
        let (sched, fired, cancelled, _) = sim.loop_counters();
        assert_eq!((sched, fired, cancelled), (100, 40, 60));
    }

    #[test]
    fn slots_are_reused_and_stale_ids_stay_dead() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        let a = sim.schedule_after(SimDuration::from_micros(5), move |_| {
            *h.borrow_mut() += 10;
        });
        sim.cancel(a);
        // The freed slot is reused with a bumped generation…
        let h = hits.clone();
        let b = sim.schedule_after(SimDuration::from_micros(6), move |_| {
            *h.borrow_mut() += 1;
        });
        // …so the stale handle cannot cancel the new occupant.
        sim.cancel(a);
        sim.run();
        assert_eq!(*hits.borrow(), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn double_cancel_and_cancel_of_reused_slot_are_safe() {
        let mut sim = Sim::new(1);
        let id = sim.schedule_after(SimDuration::from_micros(1), |_| {});
        sim.cancel(id);
        sim.cancel(id);
        assert_eq!(sim.pending(), 0);
        sim.run();
        assert_eq!(sim.cancelled_live(), 0);
    }

    #[test]
    fn same_instant_fast_path_interleaves_with_heap_deterministically() {
        // Heap records due at an instant fire before micro-queue
        // entries created *at* that instant, in global seq order.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_micros(10);
        for tag in ["h0", "h1"] {
            let order = order.clone();
            sim.schedule_at(t, move |sim| {
                // Fires at t: schedules same-instant work (fast path).
                let order2 = order.clone();
                sim.schedule_after(SimDuration::ZERO, move |_| {
                    order2.borrow_mut().push(format!("{tag}-now"));
                });
                order.borrow_mut().push(tag.to_string());
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["h0", "h1", "h0-now", "h1-now"]);
        let (.., fast) = sim.loop_counters();
        assert_eq!(fast, 2);
    }

    #[test]
    fn fast_path_events_can_chain() {
        let mut sim = Sim::new(1);
        let depth = Rc::new(RefCell::new(0));
        let d = depth.clone();
        fn chain(sim: &mut Sim, d: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule_after(SimDuration::ZERO, move |sim| {
                *d.borrow_mut() += 1;
                chain(sim, d.clone(), left - 1);
            });
        }
        chain(&mut sim, d, 50);
        sim.run();
        assert_eq!(*depth.borrow(), 50);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn next_deadline_skips_cancelled_records() {
        let mut sim = Sim::new(1);
        let a = sim.schedule_at(SimTime::from_micros(10), |_| {});
        let _b = sim.schedule_at(SimTime::from_micros(20), |_| {});
        assert_eq!(sim.next_deadline(), Some(SimTime::from_micros(10)));
        sim.cancel(a);
        // The cancelled record is discarded lazily by the peek itself.
        assert_eq!(sim.next_deadline(), Some(SimTime::from_micros(20)));
        assert_eq!(sim.cancelled_live(), 0);
        sim.run();
        assert_eq!(sim.next_deadline(), None);
    }

    #[test]
    fn next_deadline_reports_now_for_micro_queue_work() {
        let mut sim = Sim::new(1);
        sim.schedule_at(SimTime::from_micros(5), |sim| {
            sim.schedule_after(SimDuration::ZERO, |_| {});
        });
        sim.run_until(SimTime::from_micros(4));
        assert_eq!(sim.next_deadline(), Some(SimTime::from_micros(5)));
        // Fire the outer event only: its same-instant child is due "now".
        assert!(sim.step());
        assert_eq!(sim.next_deadline(), Some(sim.now()));
    }

    #[test]
    fn real_clock_drive_loop_matches_run() {
        // The same workload — nested scheduling, same-instant chains,
        // cancellation — executed by run() and by the real-clock
        // runtime's drive loop (`run_until(now.max(sim.now()))`, then
        // `next_deadline()`, repeated) must produce identical event
        // orders, final clocks, and loop counters. `now` stands in for
        // a clock whose wait ends exactly at the deadline.
        fn workload(sim: &mut Sim, order: Rc<RefCell<Vec<(u64, u32)>>>) {
            for i in 0..8u32 {
                let order = order.clone();
                let at = SimTime::from_micros(u64::from(i % 3) * 50);
                sim.schedule_at(at, move |sim| {
                    order.borrow_mut().push((sim.now().as_micros(), i));
                    let order2 = order.clone();
                    sim.schedule_after(SimDuration::ZERO, move |sim| {
                        order2.borrow_mut().push((sim.now().as_micros(), 100 + i));
                    });
                    let victim = sim.schedule_after(SimDuration::from_micros(7), |_| {
                        panic!("cancelled event fired");
                    });
                    sim.cancel(victim);
                });
            }
        }
        let run_order = Rc::new(RefCell::new(Vec::new()));
        let mut a = Sim::new(3);
        workload(&mut a, run_order.clone());
        a.run();

        let driven_order = Rc::new(RefCell::new(Vec::new()));
        let mut b = Sim::new(3);
        workload(&mut b, driven_order.clone());
        let mut now = SimTime::ZERO;
        let mut turns = 0;
        loop {
            turns += 1;
            b.run_until(now.max(b.now()));
            match b.next_deadline() {
                Some(d) => now = d,
                None => break,
            }
        }

        assert_eq!(*run_order.borrow(), *driven_order.borrow());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.loop_counters(), b.loop_counters());
        assert_eq!(a.pending(), 0);
        assert_eq!(b.pending(), 0);
        // One turn per distinct instant (0, 50, 100 µs): the cancelled
        // probes never surface as deadlines.
        assert_eq!(turns, 3);
    }

    #[test]
    fn loop_stats_are_published_to_stats() {
        let mut sim = Sim::new(1);
        sim.schedule_after(SimDuration::from_micros(1), |_| {});
        sim.run();
        assert_eq!(sim.stats.counter("sim.events_scheduled"), 1);
        assert_eq!(sim.stats.counter("sim.events_fired"), 1);
        assert_eq!(sim.stats.counter("sim.heap_len"), 0);
    }
}
