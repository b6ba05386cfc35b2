//! The paper's CPU-intensive workload, in two forms.
//!
//! ACCUBENCH's work unit is "compute the first 4,285 digits of π in a loop
//! on all available CPUs", a count chosen to take roughly one second per
//! iteration at the Nexus 6's top frequency (§III). This crate provides:
//!
//! * [`pi`] — a real [Rabinowitz–Wagon spigot](pi::pi_digits) that computes
//!   π digits on the host. The host examples use it for genuine
//!   CPU-bound work, and its output is verified against the known
//!   expansion.
//! * [`kernels`] — additional host kernels (FLOP-bound matmul,
//!   bandwidth-bound STREAM triad) behind one [`kernels::Kernel`] trait.
//! * [`WorkloadSpec`] / [`WorkTally`] — the simulator's work accounting:
//!   a core running at frequency *f* for time *dt* with utilisation *u*
//!   retires `f·dt·u` cycles; an iteration costs a fixed number of cycles
//!   (calibrated so a nominal die completes ~1 iteration/s/core at the
//!   Nexus 6's 2.65 GHz, matching the paper's sizing).
//!
//! # Examples
//!
//! ```
//! use pv_workload::{WorkloadSpec, WorkTally};
//! use pv_units::{MegaHertz, Seconds};
//!
//! let spec = WorkloadSpec::pi_digits_default();
//! let mut tally = WorkTally::new();
//! // Four cores flat out at 2649 MHz for 10 s.
//! for _ in 0..4 {
//!     tally.add(MegaHertz(2649.0), Seconds(10.0), 1.0);
//! }
//! let iters = tally.iterations(&spec);
//! assert!((iters - 40.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod pi;

use core::fmt;
use pv_units::{MegaHertz, Seconds};

/// Error type for workload construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Cost model of one benchmark iteration.
///
/// `cycles_per_iteration` is the core-cycles one π-loop iteration retires;
/// `utilization` is the per-core duty cycle the workload sustains (1.0 for
/// the tight spigot loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    cycles_per_iteration: f64,
    utilization: f64,
}

impl WorkloadSpec {
    /// The paper's workload: 4,285 π digits per iteration, sized to take
    /// ≈1 s per core at the Nexus 6's 2,649 MHz top frequency.
    pub fn pi_digits_default() -> Self {
        Self {
            cycles_per_iteration: 2.649e9,
            utilization: 1.0,
        }
    }

    /// Creates a custom workload cost model.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless
    /// `cycles_per_iteration > 0` and `0 < utilization <= 1`.
    pub fn new(cycles_per_iteration: f64, utilization: f64) -> Result<Self, WorkloadError> {
        if !(cycles_per_iteration > 0.0 && cycles_per_iteration.is_finite()) {
            return Err(WorkloadError::InvalidParameter(
                "cycles_per_iteration must be > 0",
            ));
        }
        if !(utilization > 0.0 && utilization <= 1.0) {
            return Err(WorkloadError::InvalidParameter(
                "utilization must be in (0,1]",
            ));
        }
        Ok(Self {
            cycles_per_iteration,
            utilization,
        })
    }

    /// Cycles retired per iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        self.cycles_per_iteration
    }

    /// Per-core duty cycle of the workload.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }
}

/// Accumulates retired cycles across cores and steps.
///
/// The performance metric of every experiment — "the number of iterations
/// the device is able to complete across all cores within T_workload" — is
/// `tally.iterations(&spec)` at the end of the workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkTally {
    cycles: f64,
}

impl WorkTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits one core running at `freq` for `dt` with duty cycle `util`
    /// (clamped to `[0, 1]`). Call once per core per step.
    pub fn add(&mut self, freq: MegaHertz, dt: Seconds, util: f64) {
        let u = util.clamp(0.0, 1.0);
        let f = freq.value().max(0.0);
        let t = dt.value().max(0.0);
        self.cycles += MegaHertz(f).to_hz() * t * u;
    }

    /// Total cycles retired.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Completed iterations under `spec` (fractional: the paper counts
    /// whole iterations, use [`f64::floor`] if exactness matters).
    pub fn iterations(&self, spec: &WorkloadSpec) -> f64 {
        self.cycles / spec.cycles_per_iteration
    }

    /// Zeroes the tally for the next phase.
    pub fn reset(&mut self) {
        self.cycles = 0.0;
    }
}

impl fmt::Display for WorkTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} cycles", self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_paper_sizing() {
        // ~1 iteration per second per core at the Nexus 6 top frequency.
        let spec = WorkloadSpec::pi_digits_default();
        let rate = MegaHertz(2649.0).to_hz() * spec.utilization() / spec.cycles_per_iteration();
        assert!((rate - 1.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn tally_accumulates_across_cores() {
        let spec = WorkloadSpec::pi_digits_default();
        let mut tally = WorkTally::new();
        // 4 cores × 300 s at half the Nexus 6 frequency = 4 × 300 × 0.5
        // iterations.
        for _ in 0..4 {
            tally.add(MegaHertz(1324.5), Seconds(300.0), 1.0);
        }
        assert!((tally.iterations(&spec) - 600.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_scales_linearly() {
        let spec = WorkloadSpec::new(1.0e9, 1.0).unwrap();
        let mut full = WorkTally::new();
        let mut half = WorkTally::new();
        full.add(MegaHertz(1000.0), Seconds(10.0), 1.0);
        half.add(MegaHertz(1000.0), Seconds(10.0), 0.5);
        assert!((full.iterations(&spec) - 2.0 * half.iterations(&spec)).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let mut tally = WorkTally::new();
        tally.add(MegaHertz(1000.0), Seconds(1.0), 2.0); // util clamps to 1
        let clamped = tally.cycles();
        assert_eq!(clamped, 1.0e9);
        tally.add(MegaHertz(-5.0), Seconds(1.0), 1.0); // negative freq = no-op
        tally.add(MegaHertz(1000.0), Seconds(-1.0), 1.0); // negative dt = no-op
        tally.add(MegaHertz(1000.0), Seconds(1.0), -0.5); // negative util = no-op
        assert_eq!(tally.cycles(), clamped);
    }

    #[test]
    fn spec_validation() {
        assert!(WorkloadSpec::new(0.0, 1.0).is_err());
        assert!(WorkloadSpec::new(-1.0, 1.0).is_err());
        assert!(WorkloadSpec::new(1.0e9, 0.0).is_err());
        assert!(WorkloadSpec::new(1.0e9, 1.5).is_err());
        assert!(WorkloadSpec::new(f64::NAN, 1.0).is_err());
        let s = WorkloadSpec::new(2.0e9, 0.8).unwrap();
        assert_eq!(s.cycles_per_iteration(), 2.0e9);
        assert_eq!(s.utilization(), 0.8);
    }

    #[test]
    fn reset_zeroes() {
        let mut tally = WorkTally::new();
        tally.add(MegaHertz(1000.0), Seconds(1.0), 1.0);
        tally.reset();
        assert_eq!(tally.cycles(), 0.0);
    }

    #[test]
    fn display_formats() {
        let mut tally = WorkTally::new();
        tally.add(MegaHertz(1000.0), Seconds(1.0), 1.0);
        assert!(format!("{tally}").contains("cycles"));
        assert!(!format!("{}", WorkloadError::InvalidParameter("x")).is_empty());
    }
}
