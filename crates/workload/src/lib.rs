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
//! * [`CYCLES_PER_ITERATION`] — the cost of one iteration in the
//!   simulator's work accounting: a core retires `f·dt·u` cycles for
//!   frequency *f*, time *dt* and utilisation *u*, and an iteration costs
//!   a fixed number of cycles (calibrated so a nominal die completes
//!   ~1 iteration/s/core at the Nexus 6's 2.65 GHz, matching the paper's
//!   sizing).
//!
//! # Examples
//!
//! ```
//! use pv_workload::CYCLES_PER_ITERATION;
//!
//! // Four cores flat out at 2649 MHz for 10 s.
//! let cycles = 4.0 * 2649.0e6 * 10.0;
//! let iters = cycles / CYCLES_PER_ITERATION;
//! assert!((iters - 40.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod pi;

use core::fmt;

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

/// Core-cycles one benchmark iteration retires: the paper's workload,
/// 4,285 π digits per iteration, sized to take ≈1 s per core at the
/// Nexus 6's 2,649 MHz top frequency.
///
/// The performance metric of every experiment, "the number of iterations
/// the device is able to complete across all cores within T_workload", is
/// the cycles retired in the workload phase divided by this constant.
pub const CYCLES_PER_ITERATION: f64 = 2.649e9;

#[cfg(test)]
mod tests {
    use super::*;
    use pv_units::MegaHertz;

    #[test]
    fn default_spec_matches_paper_sizing() {
        // ~1 iteration per second per core at the Nexus 6 top frequency.
        let rate = MegaHertz(2649.0).to_hz() / CYCLES_PER_ITERATION;
        assert!((rate - 1.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn display_formats() {
        assert!(!format!("{}", WorkloadError::InvalidParameter("x")).is_empty());
    }
}
