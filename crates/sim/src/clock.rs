//! The clock seam: where the real-clock runtime's instants come from.
//!
//! Every timing decision in the toolkit is expressed against [`SimTime`].
//! The simulator keeps its own virtual clock and warps it from event to
//! event. [`Clock`] is the seam for everything that runs on real time
//! instead: [`WallClock`] maps `SimTime` onto real microseconds since a
//! `std::time::Instant` epoch and *sleeps* until deadlines — waking early
//! when another thread (e.g. a socket reader) calls [`Clock::notify`].
//!
//! A real-clock driver loops over [`Sim::run_until`] the clock's current
//! instant, [`Sim::next_deadline`], and [`Clock::wait_until`] that
//! deadline, injecting I/O between waits.
//!
//! [`Sim::run_until`]: crate::Sim::run_until
//! [`Sim::next_deadline`]: crate::Sim::next_deadline

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::time::SimTime;

/// A source of [`SimTime`] instants and a way to wait for them.
///
/// Implementations decide whether "waiting" means warping virtual time
/// forward or blocking a thread on a real timer.
pub trait Clock {
    /// Returns the current instant on this clock.
    fn now(&self) -> SimTime;

    /// Waits until `deadline` (or until [`Clock::notify`] is called from
    /// another thread, whichever comes first) and returns the instant at
    /// which the wait ended. `None` waits for a notification alone.
    fn wait_until(&self, deadline: Option<SimTime>) -> SimTime;

    /// Wakes any thread blocked in [`Clock::wait_until`]. Called by I/O
    /// threads when new work arrives ahead of the next timer deadline.
    fn notify(&self);
}

/// The real-time backend: `SimTime` is microseconds elapsed since the
/// clock's creation (`std::time::Instant` epoch, so it is monotonic and
/// immune to system clock steps).
///
/// Clones share the epoch *and* the wakeup channel: hand clones to
/// reader threads so their [`Clock::notify`] interrupts the driver
/// thread's [`Clock::wait_until`].
#[derive(Clone)]
pub struct WallClock {
    epoch: Instant,
    /// Wakeup permit + condvar. `notify` deposits a permit; `wait_until`
    /// consumes one (returning immediately if it was already deposited),
    /// so a notify that races ahead of the wait — e.g. a reader thread
    /// enqueueing a frame between the driver's "inbox empty" check and
    /// its sleep — is never lost, only at worst one spurious early wake.
    wake: Arc<(Mutex<bool>, Condvar)>,
}

impl WallClock {
    /// Creates a wall clock whose epoch (`SimTime::ZERO`) is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
            wake: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        let us = self.epoch.elapsed().as_micros();
        SimTime::from_micros(u64::try_from(us).unwrap_or(u64::MAX))
    }

    fn wait_until(&self, deadline: Option<SimTime>) -> SimTime {
        let (lock, cv) = &*self.wake;
        let mut permit = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let now = self.now();
            if *permit {
                *permit = false; // Consume the pending notification.
                return now;
            }
            match deadline {
                Some(d) if now >= d => return now,
                Some(d) => {
                    let remain = Duration::from_micros(d.since(now).as_micros());
                    let (p, _) = cv
                        .wait_timeout(permit, remain)
                        .unwrap_or_else(|e| e.into_inner());
                    permit = p;
                }
                None => {
                    permit = cv.wait(permit).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn notify(&self) {
        let (lock, cv) = &*self.wake;
        let mut permit = lock.lock().unwrap_or_else(|e| e.into_inner());
        *permit = true;
        cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn wall_clock_is_monotonic_and_waits_out_deadlines() {
        let c = WallClock::new();
        let a = c.now();
        let target = a + crate::SimDuration::from_millis(20);
        let b = c.wait_until(Some(target));
        assert!(b >= target, "woke at {b:?} before deadline {target:?}");
        assert!(c.now() >= b);
    }

    #[test]
    fn wall_clock_notify_interrupts_wait() {
        let c = WallClock::new();
        let remote = c.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            remote.notify();
        });
        // Without the notify this would sleep 10 virtual seconds.
        let far = SimTime::from_secs(10);
        let woke = c.wait_until(Some(far));
        h.join().unwrap();
        assert!(woke < far, "notify did not interrupt the wait");
    }

    #[test]
    fn wall_clock_notify_before_wait_is_not_lost() {
        // The exact race the permit model exists for: work arrives (and
        // notifies) before the driver reaches its sleep. The deposited
        // permit makes the wait return immediately instead of sleeping
        // out the deadline.
        let c = WallClock::new();
        c.notify();
        let far = c.now() + crate::SimDuration::from_secs(10);
        let woke = c.wait_until(Some(far));
        assert!(woke < far, "pre-deposited notify permit was lost");
        // The permit was consumed: a second wait sleeps normally.
        let target = c.now() + crate::SimDuration::from_millis(5);
        let woke = c.wait_until(Some(target));
        assert!(woke >= target);
    }
}
