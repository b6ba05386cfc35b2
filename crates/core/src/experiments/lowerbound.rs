//! §VII — quantifying the "lower bound" claim.
//!
//! "It only takes two devices to observe variations. While our study of
//! SoCs is limited, at times with only 3 devices to represent an SoC
//! generation, the process variations shown in Table II can be considered
//! as a minimum lower-bound to the overall variation for each SoC."
//!
//! This Monte Carlo experiment makes that argument quantitative: draw many
//! random 3-unit fleets of one SoC from its silicon population, measure
//! each fleet's energy spread, and compare the distribution against the
//! spread of a large reference population. Small-sample spreads are biased
//! low, so any specific 3-unit study (like the paper's) underestimates the
//! population spread with high probability.

use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::TextTable;
use crate::BenchError;
use pv_power::Monsoon;
use pv_rng::rngs::StdRng;
use pv_rng::{Rng, SeedableRng};
use pv_silicon::population;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::{quantile, Summary};
use pv_units::{Celsius, MegaHertz};

/// The Monte Carlo lower-bound study.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBound {
    /// Energy spread (%) of each sampled small fleet.
    pub small_fleet_spreads: Vec<f64>,
    /// Fleet size sampled (the paper's 3).
    pub fleet_size: usize,
    /// Energy spread (%) of the large reference population.
    pub population_spread: f64,
    /// Size of the reference population.
    pub population_size: usize,
}

impl LowerBound {
    /// Fraction of small fleets whose spread underestimates the population
    /// spread — the probability the paper's numbers are indeed lower bounds.
    pub fn underestimate_fraction(&self) -> f64 {
        if self.small_fleet_spreads.is_empty() {
            return 0.0;
        }
        let under = self
            .small_fleet_spreads
            .iter()
            .filter(|&&s| s < self.population_spread)
            .count();
        under as f64 / self.small_fleet_spreads.len() as f64
    }

    /// Renders the distribution summary.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] if no fleets were sampled.
    pub fn render(&self) -> Result<String, BenchError> {
        let s = Summary::from_slice(&self.small_fleet_spreads)?;
        let median = quantile(&self.small_fleet_spreads, 0.5)?;
        let p90 = quantile(&self.small_fleet_spreads, 0.9)?;
        let mut t = TextTable::new(vec!["metric", "value"]);
        t.row(vec![
            format!("{}-unit fleets sampled", self.fleet_size),
            s.n().to_string(),
        ]);
        t.row(vec!["median fleet spread".into(), format!("{median:.1}%")]);
        t.row(vec!["90th-pct fleet spread".into(), format!("{p90:.1}%")]);
        t.row(vec![
            format!("population spread (n={})", self.population_size),
            format!("{:.1}%", self.population_spread),
        ]);
        t.row(vec![
            "P(fleet underestimates population)".into(),
            format!("{:.0}%", self.underestimate_fraction() * 100.0),
        ]);
        Ok(format!(
            "Lower-bound Monte Carlo (energy spread, SD-821 class)\n{t}"
        ))
    }
}

/// Measures the fixed-frequency workload energy of one die.
fn energy_of(
    die: pv_silicon::DieSample,
    idx: usize,
    cfg: &ExperimentConfig,
) -> Result<f64, BenchError> {
    let model = catalog::pixel_model()?;
    let voltage = model.spec().nominal_battery_voltage;
    let supply = Box::new(Monsoon::new(voltage).map_err(pv_soc::SocError::from)?);
    let mut device = Device::from_model(
        model,
        die,
        supply,
        format!("mc-{idx}"),
        0x10_0B0D ^ idx as u64,
    )?;
    let mut harness = Harness::new(
        cfg.scaled(Protocol::fixed_frequency(MegaHertz(998.0))),
        Ambient::Fixed(Celsius(26.0)),
    )?;
    let it = harness.run_iteration(&mut device)?;
    Ok(it.energy.value())
}

fn spread_percent(energies: &[f64]) -> Result<f64, BenchError> {
    Ok(Summary::from_slice(energies)?.spread_percent_of_min())
}

/// Runs the Monte Carlo: `fleets` random 3-unit fleets against a reference
/// population of `population_size` dies.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(
    cfg: &ExperimentConfig,
    fleets: usize,
    population_size: usize,
    seed: u64,
) -> Result<LowerBound, BenchError> {
    let node = catalog::pixel_spec()?.soc.node;
    let dies = population::sample(node, population_size, seed);

    // One measurement per population die (reused across fleet draws).
    let energies = par_map(dies, |i, die| energy_of(die, i, cfg))?;
    let population_spread = spread_percent(&energies)?;

    let fleet_size = 3;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let mut small_fleet_spreads = Vec::with_capacity(fleets);
    for _ in 0..fleets {
        let sample: Vec<f64> = (0..fleet_size)
            .map(|_| energies[rng.gen_range(0..energies.len())])
            .collect();
        small_fleet_spreads.push(spread_percent(&sample)?);
    }
    Ok(LowerBound {
        small_fleet_spreads,
        fleet_size,
        population_spread,
        population_size,
    })
}

pv_json::impl_to_json!(LowerBound {
    small_fleet_spreads,
    fleet_size,
    population_spread,
    population_size
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleets_systematically_underestimate() {
        let cfg = ExperimentConfig {
            scale: 0.15,
            iterations: 1,
            ..ExperimentConfig::quick()
        };
        let mc = run(&cfg, 200, 24, 31337).unwrap();
        assert_eq!(mc.small_fleet_spreads.len(), 200);
        // The paper's claim, quantified: a 3-unit fleet almost always sees
        // less spread than the population.
        assert!(
            mc.underestimate_fraction() > 0.8,
            "only {:.0}% of fleets underestimate",
            mc.underestimate_fraction() * 100.0
        );
        assert!(mc.population_spread > 0.0);
        assert!(mc.render().unwrap().contains("Lower-bound"));
    }
}
