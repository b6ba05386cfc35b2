//! Beyond the paper — forecasting the efficiency trend one generation out.
//!
//! The paper's Fig 13 ends at the SD-821 (14 nm). This experiment extends
//! the study to a simulated SD-835-class device (10 nm FinFET, Kryo 280)
//! and checks two predictions the paper's trend implies:
//!
//! 1. efficiency keeps improving with the process shrink, and
//! 2. process variation keeps *shrinking but not vanishing* — the new part
//!    still shows a measurable energy spread.

use crate::experiments::study::plans::{self, PlanSpec};
use crate::experiments::study::{run_soc_studies, SocStudy};
use crate::experiments::ExperimentConfig;
use crate::report::{ratio, TextTable};
use crate::BenchError;
use pv_soc::catalog::fleet;
use pv_units::MegaHertz;

/// The forecast device: SD-835 / Google Pixel 2, fixed at 1056 MHz.
const SD_835: PlanSpec = PlanSpec {
    soc: "SD-835",
    model: "Google Pixel 2",
    fleet: fleet::pixel2_forecast,
    fixed_freq: MegaHertz(1056.0),
};

/// The forecast study: the paper's five SoCs plus the SD-835.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Studies in release order, ending with the forecast device.
    pub studies: Vec<SocStudy>,
}

impl Forecast {
    /// Renders efficiency and variation across all six generations.
    pub fn render(&self) -> Result<String, BenchError> {
        let base = self.studies[0].mean_efficiency();
        let mut t = TextTable::new(vec![
            "SoC",
            "model",
            "iters/J",
            "vs SD-800",
            "perf var",
            "energy var",
        ]);
        for s in &self.studies {
            t.row(vec![
                s.soc.to_owned(),
                s.model.to_owned(),
                format!("{:.3}", s.mean_efficiency()),
                ratio(s.mean_efficiency() / base),
                format!("{:.1}%", s.perf_spread_percent()?),
                format!("{:.1}%", s.energy_spread_percent()?),
            ]);
        }
        Ok(format!(
            "Forecast: Fig 13 extended one generation (SD-835, 10 nm)\n{t}"
        ))
    }
}

/// Runs the six-generation study in one fan-out.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Forecast, BenchError> {
    let mut specs = plans::PAPER.to_vec();
    specs.push(SD_835);
    let studies = run_soc_studies(plans::build(&specs)?, cfg)?;
    Ok(Forecast { studies })
}

pv_json::impl_to_json!(Forecast { studies });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_nanometer_part_sets_the_efficiency_record_but_still_varies() {
        let fig = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.studies.len(), 6);
        let (studied, sd835) = fig.studies.split_at(5);
        let sd835 = &sd835[0];
        assert!(
            studied
                .iter()
                .all(|s| s.mean_efficiency() < sd835.mean_efficiency()),
            "SD-835 should be the most efficient part"
        );
        // Variation shrinks relative to the 28 nm part but persists.
        let sd835_energy = sd835.energy_spread_percent().unwrap();
        let sd800_energy = fig.studies[0].energy_spread_percent().unwrap();
        assert!(
            sd835_energy < sd800_energy,
            "10 nm spread {sd835_energy:.1}% should be below 28 nm {sd800_energy:.1}%"
        );
        assert!(
            sd835_energy > 2.0,
            "variation should not vanish: {sd835_energy:.1}%"
        );
        assert!(fig.render().unwrap().contains("SD-835"));
    }
}
