//! Fig 2 — energy scaling with ambient temperature.
//!
//! Two devices perform the same fixed work at maximum frequency across a
//! sweep of chamber targets. Higher ambient ⇒ higher die temperature ⇒
//! exponentially more leakage *and* earlier throttling (longer completion),
//! compounding to the paper's "25 % or more additional energy to do the
//! same work" between cool and hot ambients.

use crate::experiments::ExperimentConfig;
use crate::report::{ratio, TextTable};
use crate::BenchError;
use pv_power::EnergyMeter;
use pv_silicon::binning::BinId;
use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Device, FrequencyMode};
use pv_units::{Celsius, Joules, Seconds};
use pv_workload::CYCLES_PER_ITERATION;

/// Energy at one ambient point for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AmbientPoint {
    /// Chamber ambient temperature.
    pub ambient: Celsius,
    /// Energy to complete the fixed work.
    pub energy: Joules,
    /// Time to complete the fixed work.
    pub time: Seconds,
}

/// One device's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSweep {
    /// Device label.
    pub label: String,
    /// Points in ascending ambient order.
    pub points: Vec<AmbientPoint>,
}

impl DeviceSweep {
    /// Energy at the hottest ambient over energy at the coolest, minus one.
    pub fn energy_growth_fraction(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(cool), Some(hot)) if cool.energy.value() > 0.0 => {
                hot.energy.value() / cool.energy.value() - 1.0
            }
            _ => 0.0,
        }
    }
}

/// The full Fig 2 dataset: two devices swept over ambient.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// The swept devices.
    pub sweeps: Vec<DeviceSweep>,
}

impl Fig2 {
    /// Renders energy normalized to each device's coolest point.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["device", "ambient", "energy (norm)", "time (s)"]);
        for sweep in &self.sweeps {
            let base = sweep.points[0].energy.value();
            for p in &sweep.points {
                t.row(vec![
                    sweep.label.clone(),
                    format!("{:.0}", p.ambient),
                    ratio(p.energy.value() / base),
                    format!("{:.0}", p.time.value()),
                ]);
            }
        }
        format!("Fig 2: energy vs ambient temperature (fixed work, max frequency)\n{t}")
    }
}

fn run_fixed_work_at_ambient(
    device: &mut Device,
    ambient: Celsius,
    target_iterations: f64,
) -> Result<AmbientPoint, BenchError> {
    device.reset_thermal(ambient)?;
    let mut meter = EnergyMeter::new();
    let mut work = 0.0;
    let mut elapsed = 0.0;
    let dt = Seconds(0.1);
    while work / CYCLES_PER_ITERATION < target_iterations {
        let r = device.step(dt, CpuDemand::busy(), FrequencyMode::Unconstrained)?;
        meter
            .record(r.supply_power, dt)
            .map_err(pv_soc::SocError::from)?;
        work += r.work_cycles;
        elapsed += dt.value();
        if elapsed > 1.0e5 {
            return Err(BenchError::InvalidProtocol(
                "ambient-sweep run failed to converge",
            ));
        }
    }
    Ok(AmbientPoint {
        ambient,
        energy: meter.energy(),
        time: Seconds(elapsed),
    })
}

/// Runs the sweep on two Nexus 5 units (a good bin-1 and a leaky bin-3 —
/// "this effect is observed across devices").
///
/// # Errors
///
/// Propagates device errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Fig2, BenchError> {
    let ambients = [12.0, 19.0, 26.0, 33.0, 40.0, 46.0];
    let target = (4.0 * 2265.0e6 / CYCLES_PER_ITERATION) * 120.0 * cfg.scale.max(0.1);

    let mut sweeps = Vec::new();
    for bin in [1u8, 3] {
        let mut device = catalog::nexus5(BinId(bin))?;
        let mut points = Vec::new();
        for a in ambients {
            points.push(run_fixed_work_at_ambient(&mut device, Celsius(a), target)?);
        }
        sweeps.push(DeviceSweep {
            label: device.label().to_owned(),
            points,
        });
    }
    Ok(Fig2 { sweeps })
}

pv_json::impl_to_json!(AmbientPoint {
    ambient,
    energy,
    time
});
pv_json::impl_to_json!(DeviceSweep { label, points });
pv_json::impl_to_json!(Fig2 { sweeps });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_rises_with_ambient_on_both_devices() {
        let fig = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.sweeps.len(), 2);
        for sweep in &fig.sweeps {
            // Monotone non-decreasing energy along the sweep.
            for w in sweep.points.windows(2) {
                assert!(
                    w[1].energy.value() >= w[0].energy.value() * 0.999,
                    "{}: energy fell from {} to {}",
                    sweep.label,
                    w[0].energy,
                    w[1].energy
                );
            }
            // The paper's headline: ≥25 % more energy hot vs cool. Allow a
            // looser floor at quick scale.
            let growth = sweep.energy_growth_fraction();
            assert!(growth > 0.10, "{}: growth only {growth:.3}", sweep.label);
        }
        assert!(fig.render().contains("Fig 2"));
    }
}
