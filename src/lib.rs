//! # process-variation
//!
//! A full-system reproduction of *"Quantifying Process Variations and Its
//! Impacts on Smartphones"* (ISPASS 2019) as a Rust library suite.
//!
//! The paper measures how manufacturing variation makes seemingly-identical
//! smartphones differ by 5–20 % in performance and energy, using a
//! temperature-stabilized measurement methodology (ACCUBENCH) inside a
//! controlled thermal chamber (THERMABOX). This workspace rebuilds that
//! entire apparatus as a deterministic simulation substrate and reproduces
//! every table and figure of the paper's evaluation:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`pv_units`] | Typed physical quantities (°C, W, J, V, MHz, …) |
//! | [`pv_silicon`] | Die sampling, leakage/dynamic power laws, speed & voltage binning |
//! | [`pv_thermal`] | Lumped RC thermal networks, sensor probes, the THERMABOX chamber |
//! | [`pv_power`] | Monsoon power-monitor and Li-ion battery models, energy meters |
//! | [`pv_workload`] | The π-spigot workload (real, host-runnable) + simulated work accounting |
//! | [`pv_soc`] | Device models: clusters, OPPs, governors, throttling, RBCPR, catalog |
//! | [`accubench`] | The paper's methodology + the experiment suite |
//!
//! # Quickstart
//!
//! ```no_run
//! use process_variation::prelude::*;
//!
//! // A bin-0 (slow, frugal silicon) Nexus 5 in the paper's chamber.
//! let mut device = catalog::nexus5(BinId(0))?;
//! let mut harness = Harness::new(Protocol::unconstrained(), Ambient::paper_chamber()?)?;
//! let session = harness.run_session(&mut device, 5)?;
//! let perf = session.performance_summary()?;
//! println!("{:.1} iterations ± {:.2}% RSD", perf.mean(), perf.rsd_percent());
//! # Ok::<(), accubench::BenchError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `cargo run -p pv-bench --bin
//! repro -- all` for the full paper reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use accubench;
pub use pv_faults;
pub use pv_json;
pub use pv_power;
pub use pv_rng;
pub use pv_silicon;
pub use pv_soc;
pub use pv_stats;
pub use pv_thermal;
pub use pv_units;
pub use pv_workload;

/// The most common imports, for examples and downstream experiments.
pub mod prelude {
    pub use accubench::crowd::{
        populate_parallel, CrowdDatabase, CrowdScore, SweepConfig, SweepReport,
    };
    pub use accubench::experiments::ExperimentConfig;
    pub use accubench::harness::{Ambient, Harness, QualityGates, RetryPolicy};
    pub use accubench::journal::{CancelToken, Journal, Record};
    pub use accubench::protocol::{CooldownTarget, Protocol};
    pub use accubench::session::{Iteration, QuarantinedIteration, Session, Verdict};
    pub use accubench::BenchError;
    pub use pv_faults::{FaultHandle, FaultKind, FaultPlan};
    pub use pv_power::{Battery, EnergyMeter, Monsoon, PowerSupply};
    pub use pv_silicon::binning::BinId;
    pub use pv_silicon::{DieSample, ProcessNode};
    pub use pv_soc::catalog;
    pub use pv_soc::device::{CpuDemand, Device, Dut, FrequencyMode};
    pub use pv_soc::faulty::FaultyDevice;
    pub use pv_stats::Summary;
    pub use pv_thermal::thermabox::{ThermaBox, ThermaBoxConfig};
    pub use pv_units::{Celsius, Joules, MegaHertz, Seconds, Volts, Watts};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_stack() {
        use crate::prelude::*;
        let device = catalog::nexus5(BinId(0)).unwrap();
        assert_eq!(device.spec().model, "Nexus 5");
        let _ = Protocol::unconstrained();
        let _ = Summary::from_slice(&[1.0, 2.0]).unwrap();
    }
}
