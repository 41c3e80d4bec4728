//! Host CPU cost models.
//!
//! The paper's testbed ran clients on IBM ThinkPad 701C laptops
//! (25/75 MHz i486DX4, Linux 1.2.8) and servers on faster stationary
//! hosts. Absolute speeds are testbed artifacts, but the *ratios* between
//! local computation (interpreting an RDO method, marshalling a message)
//! and network transmission drive every figure, so we model per-host CPU
//! costs explicitly and charge them as virtual time.

use crate::time::SimDuration;

/// Per-host CPU cost model, charged as virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Microseconds per 1000 interpreter steps (RDO execution cost).
    pub us_per_kilostep: f64,
    /// Microseconds per KiB marshalled or unmarshalled.
    pub us_per_kib_marshal: f64,
    /// Fixed per-call dispatch overhead in microseconds (procedure-call
    /// and access-manager bookkeeping).
    pub dispatch_us: f64,
}

impl CpuModel {
    /// ThinkPad 701C-class mobile client (i486DX4/75). One interpreter
    /// step is one script command; ~10 µs per command matches
    /// interpreted Tcl on that hardware and calibrates the E4 result to
    /// the paper's reported ratio.
    pub const THINKPAD_701C: CpuModel = CpuModel {
        us_per_kilostep: 10_000.0,
        us_per_kib_marshal: 400.0,
        dispatch_us: 150.0,
    };

    /// Stationary server-class host, roughly 4x the ThinkPad (the
    /// paper's servers were desktop workstations).
    pub const SERVER_WORKSTATION: CpuModel = CpuModel {
        us_per_kilostep: 2_500.0,
        us_per_kib_marshal: 100.0,
        dispatch_us: 40.0,
    };

    /// No modelled CPU cost at all: for the real-clock runtime, where the
    /// CPU the process actually burns is the cost (a modelled charge
    /// there becomes a real timer wait on top of it).
    pub const FREE: CpuModel = CpuModel {
        us_per_kilostep: 0.0,
        us_per_kib_marshal: 0.0,
        dispatch_us: 0.0,
    };

    /// Returns the virtual time charged for `steps` interpreter steps.
    pub fn interp_cost(&self, steps: u64) -> SimDuration {
        SimDuration::from_secs_f64(steps as f64 * self.us_per_kilostep / 1_000.0 / 1e6)
    }

    /// Returns the virtual time charged for marshalling `bytes`.
    pub fn marshal_cost(&self, bytes: usize) -> SimDuration {
        let us = self.dispatch_us + bytes as f64 / 1024.0 * self.us_per_kib_marshal;
        SimDuration::from_secs_f64(us / 1e6)
    }

    /// Returns the fixed dispatch overhead.
    pub fn dispatch_cost(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.dispatch_us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_cost_scales_linearly() {
        let m = CpuModel::THINKPAD_701C;
        let one = m.interp_cost(1_000);
        let ten = m.interp_cost(10_000);
        assert_eq!(one.as_micros(), 10_000);
        assert_eq!(ten.as_micros(), 100_000);
    }

    #[test]
    fn marshal_cost_includes_dispatch() {
        let m = CpuModel::SERVER_WORKSTATION;
        let zero = m.marshal_cost(0);
        assert_eq!(zero, m.dispatch_cost());
        let kib = m.marshal_cost(1024);
        assert_eq!(kib.as_micros(), 140);
    }

    #[test]
    fn free_model_charges_exactly_zero() {
        let m = CpuModel::FREE;
        assert_eq!(m.interp_cost(u64::MAX), SimDuration::ZERO);
        assert_eq!(m.marshal_cost(usize::MAX), SimDuration::ZERO);
        assert_eq!(m.dispatch_cost(), SimDuration::ZERO);
    }

    #[test]
    fn client_is_slower_than_server() {
        let c = CpuModel::THINKPAD_701C.interp_cost(5_000);
        let s = CpuModel::SERVER_WORKSTATION.interp_cost(5_000);
        assert!(c > s);
    }
}
