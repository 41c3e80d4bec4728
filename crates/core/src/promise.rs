//! Promises: the handle an application holds on an outstanding QRPC.
//!
//! "Import returns a promise. Applications can wait on this promise or
//! continue computation. The callback will be invoked upon arrival of
//! the imported object" (paper §3.2, after Liskov & Shrira). In the
//! simulator, "waiting" is running the event loop; `on_ready` is the
//! callback form.

use std::cell::RefCell;
use std::rc::Rc;

use rover_script::Value;
use rover_sim::{Sim, SimTime};
use rover_wire::{OpStatus, Version};

/// Final disposition of a Rover operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Server-side (or cache-side) status.
    pub status: OpStatus,
    /// Result value: imported object summary, method result, etc.
    pub value: Value,
    /// Committed object version after the operation (0 if n/a).
    pub version: Version,
    /// True when the result reflects tentative (locally cached,
    /// not-yet-committed) state.
    pub tentative: bool,
    /// True when the result was served from the client cache without
    /// network traffic.
    pub from_cache: bool,
    /// The object involved, when the operation produced one (imports and
    /// committed exports): the image the cache holds, shared. Cache
    /// writers copy on write, so it never changes under the holder.
    pub object: Option<Rc<crate::object::RoverObject>>,
}

impl Outcome {
    /// Shorthand for a committed OK outcome.
    pub fn ok(value: Value, version: Version) -> Outcome {
        Outcome {
            status: OpStatus::Ok,
            value,
            version,
            tentative: false,
            from_cache: false,
            object: None,
        }
    }
}

type Callback = Box<dyn FnOnce(&mut Sim, &Outcome)>;

enum State {
    Pending(Vec<Callback>),
    Ready(Outcome, SimTime),
}

/// A single-assignment container resolved when a Rover operation
/// completes.
#[derive(Clone)]
pub struct Promise(Rc<RefCell<State>>);

impl Default for Promise {
    fn default() -> Self {
        Self::new()
    }
}

impl Promise {
    /// Creates an unresolved promise.
    pub fn new() -> Promise {
        Promise(Rc::new(RefCell::new(State::Pending(Vec::new()))))
    }

    /// Creates an already-resolved promise.
    pub fn resolved(sim: &Sim, outcome: Outcome) -> Promise {
        Promise(Rc::new(RefCell::new(State::Ready(outcome, sim.now()))))
    }

    /// Returns the outcome if resolved.
    pub fn poll(&self) -> Option<Outcome> {
        match &*self.0.borrow() {
            State::Ready(o, _) => Some(o.clone()),
            State::Pending(_) => None,
        }
    }

    /// Returns the virtual time at which the promise resolved.
    pub fn resolved_at(&self) -> Option<SimTime> {
        match &*self.0.borrow() {
            State::Ready(_, t) => Some(*t),
            State::Pending(_) => None,
        }
    }

    /// Returns `true` once resolved.
    pub fn is_ready(&self) -> bool {
        matches!(&*self.0.borrow(), State::Ready(..))
    }

    /// Registers a callback; fires immediately (synchronously) if the
    /// promise is already resolved.
    pub fn on_ready<F>(&self, sim: &mut Sim, f: F)
    where
        F: FnOnce(&mut Sim, &Outcome) + 'static,
    {
        let ready = {
            let st = self.0.borrow();
            match &*st {
                State::Pending(_) => None,
                State::Ready(o, _) => Some(o.clone()),
            }
        };
        match ready {
            Some(o) => f(sim, &o),
            None => {
                let mut st = self.0.borrow_mut();
                match &mut *st {
                    State::Pending(cbs) => cbs.push(Box::new(f)),
                    State::Ready(..) => unreachable!("promise resolved during registration"),
                }
            }
        }
    }

    /// Resolves the promise, firing all registered callbacks.
    ///
    /// # Panics
    ///
    /// Panics on double resolution — each QRPC completes exactly once
    /// (at-most-once execution makes violations a toolkit bug).
    pub fn resolve(&self, sim: &mut Sim, outcome: Outcome) {
        let cbs = {
            let mut st = self.0.borrow_mut();
            match std::mem::replace(&mut *st, State::Ready(outcome.clone(), sim.now())) {
                State::Pending(cbs) => cbs,
                State::Ready(..) => panic!("promise resolved twice"),
            }
        };
        for cb in cbs {
            cb(sim, &outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_fires_callbacks() {
        let mut sim = Sim::new(1);
        let p = Promise::new();
        let hits = Rc::new(RefCell::new(0));
        for _ in 0..3 {
            let h = hits.clone();
            p.on_ready(&mut sim, move |_, o| {
                assert_eq!(o.status, OpStatus::Ok);
                *h.borrow_mut() += 1;
            });
        }
        assert!(!p.is_ready());
        p.resolve(&mut sim, Outcome::ok(Value::Int(1), Version(1)));
        assert_eq!(*hits.borrow(), 3);
        assert!(p.is_ready());
        assert_eq!(p.poll().unwrap().value, Value::Int(1));
    }

    #[test]
    fn late_callback_fires_immediately() {
        let mut sim = Sim::new(1);
        let p = Promise::new();
        p.resolve(&mut sim, Outcome::ok(Value::Int(2), Version(0)));
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        p.on_ready(&mut sim, move |_, _| *h.borrow_mut() = true);
        assert!(*hit.borrow());
    }

    #[test]
    fn resolved_at_records_time() {
        let mut sim = Sim::new(1);
        let p = Promise::new();
        let p2 = p.clone();
        sim.schedule_after(rover_sim::SimDuration::from_millis(7), move |sim| {
            p2.resolve(sim, Outcome::ok(Value::empty(), Version(0)));
        });
        sim.run();
        assert_eq!(p.resolved_at().unwrap().as_millis(), 7);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_resolve_panics() {
        let mut sim = Sim::new(1);
        let p = Promise::new();
        p.resolve(&mut sim, Outcome::ok(Value::empty(), Version(0)));
        p.resolve(&mut sim, Outcome::ok(Value::empty(), Version(0)));
    }
}
