//! Ablations of the design choices DESIGN.md §5 calls out.
//!
//! * **Leakage variation** — rebuild the Nexus 5 fleet with every die's
//!   leakage multiplier forced to 1 (speed variation kept). The energy
//!   ordering *flips*: with equal leakage, bin-0's higher binned voltage
//!   makes it the *most* energy-hungry — the naive "highest voltage = worst
//!   bin" belief the paper debunks (§IV-A1) would be true only in a world
//!   without leakage variation.
//! * **Leakage–temperature feedback** — set the leakage temperature
//!   coefficient β to zero. The thermal-runaway loop opens and the
//!   UNCONSTRAINED performance spread shrinks.
//! * **Warmup phase** — drop the 3-minute warmup. The first (cold-start)
//!   iteration diverges from the steady-state iterations, exactly the bias
//!   the protocol exists to remove.

use crate::experiments::study::{self, DeviceResult, DeviceTask, SocStudy, StudyPlan};
use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::TextTable;
use crate::BenchError;
use pv_power::Monsoon;
use pv_silicon::binning::{nexus5 as n5bins, BinId};
use pv_silicon::power::PowerParams;
use pv_silicon::DieSample;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::{Celsius, Seconds};

/// A baseline-vs-ablated comparison of one spread metric.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationOutcome {
    /// Which ablation this is.
    pub name: &'static str,
    /// The metric with the mechanism intact.
    pub baseline: f64,
    /// The metric with the mechanism removed.
    pub ablated: f64,
}

impl AblationOutcome {
    /// `ablated / baseline` — below 1 means the mechanism mattered.
    pub fn reduction_ratio(&self) -> f64 {
        if self.baseline > 0.0 {
            self.ablated / self.baseline
        } else {
            1.0
        }
    }
}

/// All ablation outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// The individual comparisons.
    pub outcomes: Vec<AblationOutcome>,
}

impl Ablations {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["ablation", "baseline", "ablated", "ratio"]);
        for o in &self.outcomes {
            t.row(vec![
                o.name.to_owned(),
                format!("{:.2}", o.baseline),
                format!("{:.2}", o.ablated),
                format!("{:.2}", o.reduction_ratio()),
            ]);
        }
        format!("Ablations (spread metrics, %)\n{t}")
    }
}

/// Builds a Nexus 5 fleet whose dies have their leakage variation removed:
/// each die keeps its speed factor (hence its bin voltage) but leaks like a
/// nominal die.
fn nexus5_fleet_equal_leakage() -> Result<Vec<Device>, BenchError> {
    let mut fleet = Vec::new();
    for bin in [0u8, 1, 2, 3] {
        let spec = catalog::nexus5_spec()?;
        let grade = n5bins::bin_center_grade(BinId(bin)).map_err(pv_soc::SocError::from)?;
        let node = spec.soc.node;
        // Choose the residual that exactly cancels the grade-coupled
        // leakage term: coupling·z + σ_res·residual = 0.
        let z = pv_stats::dist::normal_quantile(grade).map_err(BenchError::Stats)?;
        let residual = -node.leak_coupling() * z / node.sigma_leak_residual();
        let die = DieSample::from_grade_with_residual(node, grade, residual)
            .map_err(pv_soc::SocError::from)?;
        let supply =
            Box::new(Monsoon::new(spec.nominal_battery_voltage).map_err(pv_soc::SocError::from)?);
        let label = format!("bin-{bin}-eqleak");
        fleet.push(Device::new(spec, die, supply, label, u64::from(bin))?);
    }
    Ok(fleet)
}

/// Builds a Nexus 5 fleet with the leakage temperature coefficient zeroed.
fn nexus5_fleet_no_feedback() -> Result<Vec<Device>, BenchError> {
    let mut fleet = Vec::new();
    for bin in [0u8, 1, 2, 3] {
        let mut spec = catalog::nexus5_spec()?;
        for cluster in &mut spec.soc.clusters {
            let p = cluster.power;
            cluster.power = PowerParams::new(
                p.ceff_per_core(),
                p.leak_per_core(),
                p.v_ref(),
                p.t_ref(),
                p.leak_voltage_exp(),
                0.0, // open the leak→heat→leak loop
            )
            .map_err(pv_soc::SocError::from)?;
        }
        let grade = n5bins::bin_center_grade(BinId(bin)).map_err(pv_soc::SocError::from)?;
        let die = DieSample::from_grade(spec.soc.node, grade).map_err(pv_soc::SocError::from)?;
        let supply =
            Box::new(Monsoon::new(spec.nominal_battery_voltage).map_err(pv_soc::SocError::from)?);
        let label = format!("bin-{bin}-nofeedback");
        fleet.push(Device::new(spec, die, supply, label, u64::from(bin))?);
    }
    Ok(fleet)
}

fn nexus5_plan(fleet: Vec<Device>) -> StudyPlan {
    StudyPlan {
        soc: "SD-800",
        model: "Nexus 5",
        fleet,
        fixed_freq: pv_units::MegaHertz(960.0),
    }
}

/// First-iteration bias with and without the warmup phase.
fn warmup_bias(cfg: &ExperimentConfig, warmup: bool) -> Result<f64, BenchError> {
    let mut device = catalog::nexus5(BinId(2))?;
    let base = cfg.scaled(Protocol::unconstrained());
    let protocol = if warmup {
        base
    } else {
        base.with_warmup(Seconds(0.0))
    };
    let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0)))?;
    let session = harness.run_session(&mut device, 4.max(cfg.iterations))?;
    let first = session.iterations[0].iterations_completed;
    let rest: f64 = session.iterations[1..]
        .iter()
        .map(|i| i.iterations_completed)
        .sum::<f64>()
        / (session.iterations.len() - 1) as f64;
    Ok(((first - rest) / rest).abs() * 100.0)
}

/// One independent session run of the ablation fan-out.
enum Task {
    /// A device of one of the three Nexus 5 studies.
    Device(Box<DeviceTask>),
    /// The warmup-bias session, with or without the warmup phase.
    WarmupBias(bool),
}

/// What a [`Task`] produced.
enum Outcome {
    Row(DeviceResult),
    Bias(f64),
}

/// Runs all three ablations: the devices of the baseline, equal-leakage
/// and no-feedback studies plus the two warmup-bias sessions, in one
/// fan-out.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Ablations, BenchError> {
    let (studies, devices) = study::device_tasks(vec![
        // Baseline study (mechanisms intact).
        nexus5_plan(pv_soc::catalog::fleet::nexus5_study()?),
        nexus5_plan(nexus5_fleet_equal_leakage()?),
        nexus5_plan(nexus5_fleet_no_feedback()?),
    ])?;
    let tasks = devices
        .into_iter()
        .map(|device| Task::Device(Box::new(device)))
        .chain([true, false].map(Task::WarmupBias))
        .collect();
    let outcomes = par_map(tasks, |_, task| match task {
        Task::Device(device) => device.run(cfg).map(Outcome::Row),
        Task::WarmupBias(warmup) => warmup_bias(cfg, warmup).map(Outcome::Bias),
    })?;
    let mut rows = Vec::new();
    let mut biases = Vec::new();
    for outcome in outcomes {
        match outcome {
            Outcome::Row(row) => rows.push(row),
            Outcome::Bias(bias) => biases.push(bias),
        }
    }
    let [baseline, eq_leak, no_feedback]: [SocStudy; 3] = study::fill_rows(studies, rows)
        .try_into()
        .map_err(|_| BenchError::InvalidProtocol("ablation lost a study"))?;
    let [warm_bias, cold_bias]: [f64; 2] = biases
        .try_into()
        .map_err(|_| BenchError::InvalidProtocol("ablation lost a warmup session"))?;

    // In the equal-leakage world the energy ordering inverts: record the
    // *signed* bin-0-vs-bin-3 energy gap (positive = bin-3 worse, the real
    // world; negative = bin-0 worse, the naive-belief world).
    let signed_gap = |study: &SocStudy| -> f64 {
        let first = study.rows.first().map_or(0.0, |r| r.energy_mean);
        let last = study.rows.last().map_or(0.0, |r| r.energy_mean);
        if first > 0.0 {
            (last / first - 1.0) * 100.0
        } else {
            0.0
        }
    };
    let outcomes = vec![
        AblationOutcome {
            name: "leakage-variation (signed bin3-vs-bin0 energy gap %)",
            baseline: signed_gap(&baseline),
            ablated: signed_gap(&eq_leak),
        },
        AblationOutcome {
            name: "leakage-temp-feedback (perf spread %)",
            baseline: baseline.perf_spread_percent()?,
            ablated: no_feedback.perf_spread_percent()?,
        },
        AblationOutcome {
            name: "warmup-phase (first-iteration bias %)",
            // Here the *ablated* protocol (no warmup) shows the bias the
            // warmup removes, so baseline < ablated is the expected shape.
            baseline: warm_bias,
            ablated: cold_bias,
        },
    ];
    Ok(Ablations { outcomes })
}

pv_json::impl_to_json!(AblationOutcome {
    name,
    baseline,
    ablated
});
pv_json::impl_to_json!(Ablations { outcomes });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_mechanisms_collapses_spreads() {
        let ab = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(ab.outcomes.len(), 3);

        // With real silicon, bin-3 burns clearly more than bin-0; with
        // leakage variation removed the ordering flips (bin-0's higher
        // binned voltage dominates) — the naive "highest voltage = worst
        // bin" world the paper debunks.
        let leak = &ab.outcomes[0];
        assert!(
            leak.baseline > 5.0,
            "baseline bin3-vs-bin0 gap {:.2}% should be clearly positive",
            leak.baseline
        );
        assert!(
            leak.ablated < 0.0,
            "equal-leakage gap {:.2}% should invert (bin-0 worst)",
            leak.ablated
        );

        // No-feedback fleet: perf spread shrinks.
        let fb = &ab.outcomes[1];
        assert!(
            fb.ablated < fb.baseline,
            "no-feedback spread {:.2}% vs baseline {:.2}%",
            fb.ablated,
            fb.baseline
        );

        assert!(ab.render().contains("Ablations"));
    }

    #[test]
    fn warmup_removes_first_iteration_bias() {
        let ab = run(&ExperimentConfig::quick()).unwrap();
        let warm = &ab.outcomes[2];
        assert!(
            warm.ablated >= warm.baseline,
            "cold start bias {:.2}% should exceed warmed bias {:.2}%",
            warm.ablated,
            warm.baseline
        );
    }
}
