//! §VI future work — crowdsourced smartphone binning and ranking.
//!
//! The end-to-end workflow the paper sketches: a crowd of devices submits
//! ACCUBENCH scores; submissions measured without thermal control are
//! caught by the RSD filter; accepted scores are ranked per model and each
//! user learns their device's percentile and the model's quality range.

use crate::crowd::{CrowdDatabase, CrowdScore};
use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::BenchError;
use pv_power::Monsoon;
use pv_silicon::binning::BinId;
use pv_silicon::population;
use pv_silicon::DieSample;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Celsius;

/// Result of the crowdsourcing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingStudy {
    /// The populated database.
    pub database: CrowdDatabase,
    /// How many submissions came from thermally-uncontrolled environments
    /// (hot, drifting ambient) and were *expected* to be filtered.
    pub uncontrolled_submissions: usize,
    /// Percentile of the paper's best-documented unit (a bin-0-grade die).
    pub good_unit_percentile: Option<f64>,
    /// Percentile of a bin-6-grade (leaky) unit.
    pub bad_unit_percentile: Option<f64>,
}

impl RankingStudy {
    /// Renders the Nexus 5 leaderboard plus the percentile answers.
    pub fn render(&self) -> String {
        format!(
            "{}\ngood (bin-0-grade) unit percentile: {}\nbad (bin-6-grade) unit percentile: {}",
            self.database.render_model("Nexus 5"),
            self.good_unit_percentile
                .map_or_else(|| "n/a".to_owned(), |p| format!("{p:.0}")),
            self.bad_unit_percentile
                .map_or_else(|| "n/a".to_owned(), |p| format!("{p:.0}")),
        )
    }
}

/// One unit of the crowd simulation, measured independently of the rest.
enum Unit {
    /// The `i`-th random population die, measured in controlled
    /// conditions.
    Crowd(usize, DieSample),
    /// The `i`-th bin-2 unit measured in a hot, drifting car.
    HotCar(usize),
    /// A catalog unit of the given bin, measured in controlled conditions.
    Reference(BinId),
}

impl Unit {
    /// Measures the unit and packages its score as a submission.
    fn measure(self, cfg: &ExperimentConfig, seed: u64) -> Result<CrowdScore, BenchError> {
        let (device, (score, rsd)) = match self {
            Unit::Crowd(i, die) => {
                let model = catalog::nexus5_model()?;
                let voltage = model.spec().nominal_battery_voltage;
                let supply = Box::new(Monsoon::new(voltage).map_err(pv_soc::SocError::from)?);
                let mut device = Device::from_model(
                    model,
                    die,
                    supply,
                    format!("crowd-{i}"),
                    seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                )?;
                let measured = measure_controlled(&mut device, cfg)?;
                (device.label().to_owned(), measured)
            }
            Unit::HotCar(i) => {
                let mut device = catalog::nexus5(BinId(2))?;
                let mut scores = Vec::new();
                for ambient in [22.0, 34.0, 42.0] {
                    let mut harness = Harness::new(
                        cfg.scaled(Protocol::unconstrained()),
                        Ambient::Fixed(Celsius(ambient + i as f64)),
                    )?;
                    let it = harness.run_iteration(&mut device)?;
                    scores.push(it.iterations_completed);
                }
                let summary = pv_stats::Summary::from_slice(&scores)?;
                (
                    format!("hot-car-{i}"),
                    (summary.mean(), summary.rsd_percent()),
                )
            }
            Unit::Reference(bin) => {
                let mut device = catalog::nexus5(bin)?;
                let measured = measure_controlled(&mut device, cfg)?;
                (device.label().to_owned(), measured)
            }
        };
        Ok(CrowdScore {
            model: "Nexus 5".to_owned(),
            device,
            score,
            rsd,
        })
    }
}

/// Mean and RSD of UNCONSTRAINED performance at a fixed 26 °C ambient.
fn measure_controlled(
    device: &mut Device,
    cfg: &ExperimentConfig,
) -> Result<(f64, f64), BenchError> {
    let mut harness = Harness::new(
        cfg.scaled(Protocol::unconstrained()),
        Ambient::Fixed(Celsius(26.0)),
    )?;
    let session = harness.run_session(device, cfg.iterations.max(2))?;
    let perf = session.performance_summary()?;
    Ok((perf.mean(), perf.rsd_percent()))
}

/// Simulates the crowd: `n` random Nexus 5 units measured in controlled
/// conditions, plus a handful measured in a *drifting-hot* environment that
/// the RSD filter should reject.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig, n: usize, seed: u64) -> Result<RankingStudy, BenchError> {
    let spec = catalog::nexus5_spec()?;
    let dies = population::sample(spec.soc.node, n, seed);
    // Uncontrolled submissions: each iteration at a different hot ambient,
    // inflating the iteration-to-iteration RSD past the filter.
    let uncontrolled = 3usize;

    let mut units: Vec<Unit> = dies
        .into_iter()
        .enumerate()
        .map(|(i, die)| Unit::Crowd(i, die))
        .collect();
    units.extend((0..uncontrolled).map(Unit::HotCar));
    let submitted = units.len();
    // The two reference units a user might ask about.
    units.extend([BinId(0), BinId(6)].map(Unit::Reference));
    let mut submissions = par_map(units, |_, unit| unit.measure(cfg, seed))?;
    let references = submissions.split_off(submitted);

    // Submissions stay in the serial order: crowd, then hot-car units.
    let mut database = CrowdDatabase::new(2.0)?;
    for submission in submissions {
        database.submit(submission);
    }

    Ok(RankingStudy {
        good_unit_percentile: database.percentile("Nexus 5", references[0].score),
        bad_unit_percentile: database.percentile("Nexus 5", references[1].score),
        database,
        uncontrolled_submissions: uncontrolled,
    })
}

pv_json::impl_to_json!(RankingStudy {
    database,
    uncontrolled_submissions,
    good_unit_percentile,
    bad_unit_percentile
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowd_workflow_filters_and_ranks() {
        let cfg = ExperimentConfig {
            scale: 0.25,
            iterations: 2,
            ..ExperimentConfig::quick()
        };
        let study = run(&cfg, 14, 4242).unwrap();

        // The hot-car submissions were rejected by the RSD filter.
        assert!(
            study.database.rejected() >= study.uncontrolled_submissions,
            "filter missed uncontrolled submissions: rejected {}",
            study.database.rejected()
        );
        assert_eq!(study.database.model_scores("Nexus 5").len(), 14);

        // A bin-0-grade unit ranks near the top, a bin-6-grade near the
        // bottom.
        let good = study.good_unit_percentile.unwrap();
        let bad = study.bad_unit_percentile.unwrap();
        assert!(good > 70.0, "good unit percentile {good:.0}");
        assert!(bad < 30.0, "bad unit percentile {bad:.0}");

        // The model spread is in the paper's territory.
        let spread = study.database.model_spread_percent("Nexus 5").unwrap();
        assert!((3.0..=30.0).contains(&spread), "crowd spread {spread:.1}%");
        assert!(study.render().contains("Nexus 5"));
    }
}
