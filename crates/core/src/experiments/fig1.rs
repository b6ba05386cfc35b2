//! Fig 1 — energy, completion time, and temperature across Nexus 5 bins
//! for a **fixed amount of work**.
//!
//! Unlike the fixed-*duration* studies, this experiment runs each bin until
//! it completes the same number of π iterations, reproducing the paper's
//! "bin-4 consumes 20 % more energy while also taking ≈20 % longer … once
//! thermal limits of 80 °C are reached, one CPU core is shut down".

use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::{ratio, TextTable};
use crate::BenchError;
use pv_power::EnergyMeter;
use pv_soc::catalog::fleet;
use pv_soc::device::{CpuDemand, FrequencyMode};
use pv_units::{Celsius, Joules, Seconds};
use pv_workload::CYCLES_PER_ITERATION;

/// Outcome for one bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinOutcome {
    /// Device label (`bin-0` … `bin-6`).
    pub label: String,
    /// Wall-clock (simulated) time to finish the fixed work.
    pub completion_time: Seconds,
    /// Supply energy over that window.
    pub energy: Joules,
    /// Peak die temperature reached.
    pub peak_temp: Celsius,
    /// Whether the 80 °C core-shutdown hotplug engaged.
    pub core_shutdown_seen: bool,
}

/// The full Fig 1 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Number of π iterations every bin was asked to complete.
    pub target_iterations: f64,
    /// One outcome per bin, bin-0 first.
    pub outcomes: Vec<BinOutcome>,
}

impl Fig1 {
    /// Energy of the worst bin relative to the best, minus one (the paper's
    /// "20 % more energy").
    pub fn energy_excess_fraction(&self) -> f64 {
        let min = self
            .outcomes
            .iter()
            .map(|o| o.energy.value())
            .fold(f64::INFINITY, f64::min);
        let max = self
            .outcomes
            .iter()
            .map(|o| o.energy.value())
            .fold(0.0f64, f64::max);
        if min > 0.0 {
            max / min - 1.0
        } else {
            0.0
        }
    }

    /// Completion time of the slowest bin relative to the fastest, minus one
    /// (the paper's "≈20 % more time").
    pub fn time_excess_fraction(&self) -> f64 {
        let min = self
            .outcomes
            .iter()
            .map(|o| o.completion_time.value())
            .fold(f64::INFINITY, f64::min);
        let max = self
            .outcomes
            .iter()
            .map(|o| o.completion_time.value())
            .fold(0.0f64, f64::max);
        if min > 0.0 {
            max / min - 1.0
        } else {
            0.0
        }
    }

    /// Renders the Fig 1 table (normalized energy and time per bin).
    pub fn render(&self) -> String {
        let e_min = self
            .outcomes
            .iter()
            .map(|o| o.energy.value())
            .fold(f64::INFINITY, f64::min);
        let t_min = self
            .outcomes
            .iter()
            .map(|o| o.completion_time.value())
            .fold(f64::INFINITY, f64::min);
        let mut t = TextTable::new(vec![
            "bin",
            "energy (norm)",
            "time (norm)",
            "peak temp",
            "core shutdown",
        ]);
        for o in &self.outcomes {
            t.row(vec![
                o.label.clone(),
                ratio(o.energy.value() / e_min),
                ratio(o.completion_time.value() / t_min),
                format!("{:.1}", o.peak_temp),
                if o.core_shutdown_seen { "yes" } else { "no" }.to_owned(),
            ]);
        }
        format!(
            "Fig 1: fixed work of {:.0} iterations across Nexus 5 bins\n{}",
            self.target_iterations, t
        )
    }
}

/// Runs the fixed-work experiment on all seven Nexus 5 bins, one
/// independent device session per bin.
///
/// The work target is what a healthy device completes in roughly the paper's
/// 5-minute workload window (scaled by `cfg.scale`).
///
/// # Errors
///
/// Propagates harness and device errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Fig1, BenchError> {
    // A Nexus 5 at 2,265 MHz with 4 cores retires ~3.42 iterations/s; size
    // the target so the best bin needs a few minutes (before throttling).
    let window = 300.0 * cfg.scale;
    let target_iterations = (4.0 * 2265.0e6 / CYCLES_PER_ITERATION) * window * 0.8;

    let warmup = Protocol::unconstrained()
        .with_warmup(Seconds(180.0 * cfg.scale))
        .with_workload(Seconds(0.0));

    let outcomes = par_map(fleet::nexus5_all_bins()?, |_, mut device| {
        // Standard thermal normalization: warmup + cooldown, no workload.
        let mut harness = Harness::new(warmup, Ambient::paper_chamber()?)?;
        let _ = harness.run_iteration(&mut device)?;

        // Fixed work, unconstrained frequency.
        let mut meter = EnergyMeter::new();
        let mut work = 0.0;
        let mut elapsed = 0.0;
        let mut peak = device.die_temp();
        let mut shutdown = false;
        let dt = Seconds(0.1);
        while work / CYCLES_PER_ITERATION < target_iterations {
            device.set_ambient(harness.ambient_temp())?;
            let r = device.step(dt, CpuDemand::busy(), FrequencyMode::Unconstrained)?;
            meter
                .record(r.supply_power, dt)
                .map_err(pv_soc::SocError::from)?;
            work += r.work_cycles;
            elapsed += dt.value();
            peak = peak.max(r.die_temp);
            shutdown |= r.active_cores[0] < 4;
            if elapsed > 40.0 * window {
                return Err(BenchError::InvalidProtocol(
                    "fixed-work run failed to converge",
                ));
            }
        }
        Ok(BinOutcome {
            label: device.label().to_owned(),
            completion_time: Seconds(elapsed),
            energy: meter.energy(),
            peak_temp: peak,
            core_shutdown_seen: shutdown,
        })
    })?;
    Ok(Fig1 {
        target_iterations,
        outcomes,
    })
}

pv_json::impl_to_json!(BinOutcome {
    label,
    completion_time,
    energy,
    peak_temp,
    core_shutdown_seen
});
pv_json::impl_to_json!(Fig1 {
    target_iterations,
    outcomes
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_bins_take_longer_and_burn_more() {
        let fig = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.outcomes.len(), 7);
        // bin-0 best on both axes.
        let first = &fig.outcomes[0];
        let last = &fig.outcomes[6];
        assert!(last.energy > first.energy, "energy ordering violated");
        assert!(
            last.completion_time > first.completion_time,
            "time ordering violated"
        );
        // Meaningful excesses (the paper reports ≈20 % for bin-4 vs bin-0;
        // bin-6 is more extreme, so expect at least double digits).
        assert!(
            fig.energy_excess_fraction() > 0.08,
            "energy excess {:.3}",
            fig.energy_excess_fraction()
        );
        assert!(
            fig.time_excess_fraction() > 0.05,
            "time excess {:.3}",
            fig.time_excess_fraction()
        );
        let rendered = fig.render();
        assert!(rendered.contains("bin-6"));
    }
}
