//! Smartphone SoC and device models.
//!
//! This crate assembles the substrates ([`pv_silicon`], [`pv_thermal`],
//! [`pv_power`], [`pv_workload`]) into complete simulated handsets — the
//! synthetic stand-ins for the paper's Nexus 5, Nexus 6, Nexus 6P, LG G5 and
//! Google Pixel:
//!
//! * [`spec`] — declarative device descriptions: clusters, OPP ladders,
//!   thermal RC parameters, throttle policies, supply characteristics.
//! * [`governor`] — demand-driven DVFS governors (`ondemand`,
//!   `conservative`) for studies beyond the paper's pinned modes.
//! * [`throttle`] — stepped thermal throttling with hysteresis, core
//!   hotplug (the Nexus 5 shuts a core at 80 °C, Fig 1), and the LG G5's
//!   input-voltage throttle (Fig 10).
//! * [`rbcpr`] — Rapid-Bridge Core Power Reduction: the closed-loop voltage
//!   trimmer SD-810-class parts use instead of static bin tables (§IV-A2).
//! * [`device`] — the time-stepped device simulator: governor picks a
//!   frequency, silicon turns it into watts, the RC network turns watts into
//!   temperature, the throttler closes the loop, and the work tally counts
//!   what the paper counts — π-loop iterations completed.
//! * [`trace`] — per-step telemetry for the Fig 4/5 timelines and the
//!   Fig 11/12 frequency/temperature distributions.
//! * [`catalog`] — calibrated models of the five handsets plus the named
//!   device personas used throughout the paper's figures.
//!
//! # Examples
//!
//! ```
//! use pv_soc::catalog;
//! use pv_soc::device::{CpuDemand, FrequencyMode};
//! use pv_silicon::binning::BinId;
//! use pv_units::Seconds;
//!
//! let mut device = catalog::nexus5(BinId(0))?;
//! // One busy minute, unconstrained.
//! let mut work = 0.0;
//! for _ in 0..600 {
//!     let report = device.step(
//!         Seconds(0.1),
//!         CpuDemand::busy(),
//!         FrequencyMode::Unconstrained,
//!     )?;
//!     work += report.work_cycles;
//! }
//! assert!(work > 0.0);
//! # Ok::<(), pv_soc::SocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod device;
pub mod faulty;
pub mod governor;
pub mod rbcpr;
pub mod spec;
pub mod throttle;
pub mod trace;

use core::fmt;

/// Error type for device construction and simulation.
#[derive(Debug)]
pub enum SocError {
    /// A specification parameter was out of domain.
    InvalidSpec(&'static str),
    /// An underlying silicon-model error.
    Silicon(pv_silicon::SiliconError),
    /// An underlying thermal-model error.
    Thermal(pv_thermal::ThermalError),
    /// An underlying power-delivery error.
    Power(pv_power::PowerError),
    /// A simulation-step argument was invalid.
    InvalidStep(&'static str),
    /// A core flapped offline mid-step (injected hotplug fault); the busy
    /// step could not run. Transient: idle steps still work, and busy steps
    /// succeed once the fault window passes.
    HotplugFlap,
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::InvalidSpec(what) => write!(f, "invalid device spec: {what}"),
            SocError::Silicon(e) => write!(f, "silicon model: {e}"),
            SocError::Thermal(e) => write!(f, "thermal model: {e}"),
            SocError::Power(e) => write!(f, "power model: {e}"),
            SocError::InvalidStep(what) => write!(f, "invalid step: {what}"),
            SocError::HotplugFlap => {
                write!(f, "core flapped offline mid-step (hotplug fault)")
            }
        }
    }
}

impl std::error::Error for SocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocError::Silicon(e) => Some(e),
            SocError::Thermal(e) => Some(e),
            SocError::Power(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pv_silicon::SiliconError> for SocError {
    fn from(e: pv_silicon::SiliconError) -> Self {
        SocError::Silicon(e)
    }
}

impl From<pv_thermal::ThermalError> for SocError {
    fn from(e: pv_thermal::ThermalError) -> Self {
        SocError::Thermal(e)
    }
}

impl From<pv_power::PowerError> for SocError {
    fn from(e: pv_power::PowerError) -> Self {
        SocError::Power(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = SocError::InvalidSpec("bad");
        assert!(!format!("{e}").is_empty());
        assert!(e.source().is_none());
        let wrapped: SocError = pv_silicon::SiliconError::GradeOutOfRange(2.0).into();
        assert!(wrapped.source().is_some());
        let wrapped: SocError = pv_thermal::ThermalError::SelfLoop.into();
        assert!(format!("{wrapped}").contains("thermal"));
        let wrapped: SocError = pv_power::PowerError::BatteryEmpty.into();
        assert!(format!("{wrapped}").contains("power"));
    }
}
