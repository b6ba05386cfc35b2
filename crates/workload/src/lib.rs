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

/// Cost model of one benchmark iteration: the core-cycles one π-loop
/// iteration retires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    cycles_per_iteration: f64,
}

impl WorkloadSpec {
    /// The paper's workload: 4,285 π digits per iteration, sized to take
    /// ≈1 s per core at the Nexus 6's 2,649 MHz top frequency.
    pub fn pi_digits_default() -> Self {
        Self {
            cycles_per_iteration: 2.649e9,
        }
    }

    /// Cycles retired per iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        self.cycles_per_iteration
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

    /// Completed iterations under `spec` (fractional: the paper counts
    /// whole iterations, use [`f64::floor`] if exactness matters).
    pub fn iterations(&self, spec: &WorkloadSpec) -> f64 {
        self.cycles / spec.cycles_per_iteration
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
        let rate = MegaHertz(2649.0).to_hz() / spec.cycles_per_iteration();
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
        let spec = WorkloadSpec::pi_digits_default();
        let mut full = WorkTally::new();
        let mut half = WorkTally::new();
        full.add(MegaHertz(1000.0), Seconds(10.0), 1.0);
        half.add(MegaHertz(1000.0), Seconds(10.0), 0.5);
        assert!((full.iterations(&spec) - 2.0 * half.iterations(&spec)).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let spec = WorkloadSpec::pi_digits_default();
        let mut full = WorkTally::new();
        full.add(MegaHertz(1000.0), Seconds(1.0), 1.0);
        let mut tally = WorkTally::new();
        tally.add(MegaHertz(1000.0), Seconds(1.0), 2.0); // util clamps to 1
        assert_eq!(tally, full);
        tally.add(MegaHertz(-5.0), Seconds(1.0), 1.0); // negative freq = no-op
        tally.add(MegaHertz(1000.0), Seconds(-1.0), 1.0); // negative dt = no-op
        tally.add(MegaHertz(1000.0), Seconds(1.0), -0.5); // negative util = no-op
        assert_eq!(tally.iterations(&spec), full.iterations(&spec));
    }

    #[test]
    fn display_formats() {
        let mut tally = WorkTally::new();
        tally.add(MegaHertz(1000.0), Seconds(1.0), 1.0);
        assert!(format!("{tally}").contains("cycles"));
        assert!(!format!("{}", WorkloadError::InvalidParameter("x")).is_empty());
    }
}
