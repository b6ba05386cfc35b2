//! ACCUBENCH — the paper's temperature-stabilized measurement methodology.
//!
//! Running a benchmark twice on the same phone gives two different numbers,
//! because the second run starts warm. The paper's primary contribution is a
//! protocol that makes smartphone energy/performance measurements
//! *repeatable* (average error 1.1 % RSD over ~300 iterations):
//!
//! 1. **Warm up** the CPU for a fixed time (3 min) so previously-idle and
//!    previously-busy devices reach the same thermal state;
//! 2. **Cool down**: sleep, polling the temperature sensor every 5 s, until
//!    it reports a value below the target start temperature;
//! 3. **Run the workload** (compute π digits on all cores) for a fixed time
//!    (5 min) and count completed iterations; energy is metered over exactly
//!    this window.
//!
//! All of it inside a [ThermaBox](pv_thermal::thermabox::ThermaBox) holding
//! 26 ± 0.5 °C, powered by a [Monsoon](pv_power::Monsoon) instead of the
//! battery.
//!
//! Two workload variants ([`protocol::Protocol::unconstrained`] /
//! [`protocol::Protocol::fixed_frequency`]) reproduce the paper's
//! UNCONSTRAINED (performance differences via thermal throttling) and
//! FIXED-FREQUENCY (energy differences at equal work) experiments.
//!
//! The [`experiments`] module regenerates **every table and figure** of the
//! paper on the simulated device catalog; see DESIGN.md for the index.
//!
//! # Examples
//!
//! ```no_run
//! use accubench::harness::{Ambient, Harness};
//! use accubench::protocol::Protocol;
//! use pv_soc::catalog;
//! use pv_silicon::binning::BinId;
//!
//! let mut device = catalog::nexus5(BinId(0))?;
//! let mut harness = Harness::new(Protocol::unconstrained(), Ambient::paper_chamber()?)?;
//! let session = harness.run_session(&mut device, 5)?;
//! println!("{} iterations (RSD {:.2}%)",
//!     session.performance_summary()?.mean(),
//!     session.performance_summary()?.rsd_percent());
//! # Ok::<(), accubench::BenchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod crowd;
pub mod executor;
pub mod experiments;
pub mod export;
pub mod harness;
pub mod journal;
pub mod protocol;
pub mod report;
pub mod session;
pub mod storage;
pub mod supervise;

use core::fmt;

/// Error type for the measurement harness and experiments.
#[derive(Debug)]
pub enum BenchError {
    /// A protocol parameter was out of domain.
    InvalidProtocol(&'static str),
    /// Device-simulation failure.
    Soc(pv_soc::SocError),
    /// Thermal-chamber failure.
    Thermal(pv_thermal::ThermalError),
    /// Power-delivery or metering failure.
    Power(pv_power::PowerError),
    /// Statistics failure (e.g. asking for a summary of zero iterations).
    Stats(pv_stats::StatsError),
    /// I/O failure while exporting results.
    Io(std::io::Error),
    /// Run-journal failure: corrupt record, resume digest mismatch, or
    /// journal I/O.
    Journal(journal::JournalError),
    /// Supervision failure: a watchdog budget expired or the sweep's
    /// escalation policy aborted the fleet. Never transient — these bypass
    /// the iteration retry loop and surface at the device/sweep level.
    Supervision(supervise::SupervisionError),
    /// A crowd statistic was requested for a model with no accepted scores.
    UnknownModel(String),
}

impl BenchError {
    /// Whether this failure is expected to clear on its own, so a resilient
    /// session should retry the iteration instead of aborting: injected
    /// probe dropouts, chamber controller stalls, meter disconnects, and
    /// core hotplug flaps. Everything else (bad protocol, drained battery,
    /// invalid parameters, I/O) is fatal.
    pub fn is_transient(&self) -> bool {
        fn thermal(e: &pv_thermal::ThermalError) -> bool {
            matches!(
                e,
                pv_thermal::ThermalError::ProbeDropout | pv_thermal::ThermalError::ChamberStalled
            )
        }
        fn power(e: &pv_power::PowerError) -> bool {
            matches!(e, pv_power::PowerError::MeterDisconnected)
        }
        match self {
            BenchError::Thermal(e) => thermal(e),
            BenchError::Power(e) => power(e),
            BenchError::Soc(e) => match e {
                pv_soc::SocError::HotplugFlap => true,
                pv_soc::SocError::Thermal(e) => thermal(e),
                pv_soc::SocError::Power(e) => power(e),
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::InvalidProtocol(what) => write!(f, "invalid protocol: {what}"),
            BenchError::Soc(e) => write!(f, "device: {e}"),
            BenchError::Thermal(e) => write!(f, "chamber: {e}"),
            BenchError::Power(e) => write!(f, "power: {e}"),
            BenchError::Stats(e) => write!(f, "statistics: {e}"),
            BenchError::Io(e) => write!(f, "i/o: {e}"),
            BenchError::Journal(e) => write!(f, "{e}"),
            BenchError::Supervision(e) => write!(f, "{e}"),
            BenchError::UnknownModel(m) => {
                write!(f, "no accepted scores for model \"{m}\"")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Soc(e) => Some(e),
            BenchError::Thermal(e) => Some(e),
            BenchError::Power(e) => Some(e),
            BenchError::Stats(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::Journal(e) => Some(e),
            BenchError::Supervision(e) => Some(e),
            BenchError::InvalidProtocol(_) | BenchError::UnknownModel(_) => None,
        }
    }
}

impl From<journal::JournalError> for BenchError {
    fn from(e: journal::JournalError) -> Self {
        BenchError::Journal(e)
    }
}

impl From<supervise::SupervisionError> for BenchError {
    fn from(e: supervise::SupervisionError) -> Self {
        BenchError::Supervision(e)
    }
}

impl From<pv_soc::SocError> for BenchError {
    fn from(e: pv_soc::SocError) -> Self {
        BenchError::Soc(e)
    }
}

impl From<pv_thermal::ThermalError> for BenchError {
    fn from(e: pv_thermal::ThermalError) -> Self {
        BenchError::Thermal(e)
    }
}

impl From<pv_power::PowerError> for BenchError {
    fn from(e: pv_power::PowerError) -> Self {
        BenchError::Power(e)
    }
}

impl From<pv_stats::StatsError> for BenchError {
    fn from(e: pv_stats::StatsError) -> Self {
        BenchError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        assert!(!format!("{}", BenchError::InvalidProtocol("x")).is_empty());
        assert!(BenchError::InvalidProtocol("x").source().is_none());
        let e: BenchError = pv_stats::StatsError::EmptySample.into();
        assert!(e.source().is_some());
        let e: BenchError = pv_thermal::ThermalError::SelfLoop.into();
        assert!(format!("{e}").contains("chamber"));
        let e: BenchError = pv_soc::SocError::InvalidSpec("y").into();
        assert!(format!("{e}").contains("device"));
        let e: BenchError = pv_power::PowerError::MeterDisconnected.into();
        assert!(format!("{e}").contains("power"));
        let e: BenchError = journal::JournalError::MissingHeader.into();
        assert!(format!("{e}").contains("header"));
        assert!(e.source().is_some());
        assert!(!e.is_transient());
    }

    #[test]
    fn transient_classification() {
        // Transient: injected fault errors, at any wrapping depth.
        assert!(BenchError::Thermal(pv_thermal::ThermalError::ProbeDropout).is_transient());
        assert!(BenchError::Thermal(pv_thermal::ThermalError::ChamberStalled).is_transient());
        assert!(BenchError::Power(pv_power::PowerError::MeterDisconnected).is_transient());
        assert!(BenchError::Soc(pv_soc::SocError::HotplugFlap).is_transient());
        assert!(BenchError::Soc(pv_soc::SocError::Thermal(
            pv_thermal::ThermalError::ProbeDropout
        ))
        .is_transient());
        assert!(BenchError::Soc(pv_soc::SocError::Power(
            pv_power::PowerError::MeterDisconnected
        ))
        .is_transient());
        // Fatal: everything else.
        assert!(!BenchError::InvalidProtocol("x").is_transient());
        assert!(!BenchError::Thermal(pv_thermal::ThermalError::SelfLoop).is_transient());
        assert!(!BenchError::Power(pv_power::PowerError::BatteryEmpty).is_transient());
        assert!(!BenchError::Soc(pv_soc::SocError::InvalidSpec("y")).is_transient());
        assert!(!BenchError::Stats(pv_stats::StatsError::EmptySample).is_transient());
    }
}
