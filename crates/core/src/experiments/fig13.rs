//! Fig 13 — relative efficiency of SoC generations.
//!
//! Iterations per joule of the UNCONSTRAINED workload (mean iterations
//! over mean workload energy per device, then the fleet mean) per SoC —
//! the work each SoC delivers per joule under its own governor.
//! Efficiency improves across generations with the shrinking process — with
//! the paper's notable exception that the SD-805, pushed to 2,649 MHz on
//! the same 28 nm process, is *less* efficient than the SD-800.

use crate::experiments::study::{plans, run_soc_studies, SocStudy};
use crate::experiments::ExperimentConfig;
use crate::report::{ratio, TextTable};
use crate::BenchError;
use pv_stats::regression::{linear_fit, LinearFit};

/// Efficiency of one SoC generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SocEfficiency {
    /// SoC name.
    pub soc: &'static str,
    /// Handset model.
    pub model: &'static str,
    /// Fleet-mean iterations per joule.
    pub iterations_per_joule: f64,
}

/// The Fig 13 dataset, in release order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// SD-800, SD-805, SD-810, SD-820, SD-821.
    pub generations: Vec<SocEfficiency>,
}

impl Fig13 {
    /// Whether the SD-805 regression below the SD-800 is present.
    pub fn sd805_dip(&self) -> bool {
        let sd800 = self.generations.iter().find(|g| g.soc == "SD-800");
        let sd805 = self.generations.iter().find(|g| g.soc == "SD-805");
        match (sd800, sd805) {
            (Some(a), Some(b)) => b.iterations_per_joule < a.iterations_per_joule,
            _ => false,
        }
    }

    /// OLS fit of efficiency against generation index — positive slope
    /// means efficiency improves over time overall.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] with fewer than two generations.
    pub fn trend(&self) -> Result<LinearFit, BenchError> {
        let x: Vec<f64> = (0..self.generations.len()).map(|i| i as f64).collect();
        let y: Vec<f64> = self
            .generations
            .iter()
            .map(|g| g.iterations_per_joule)
            .collect();
        Ok(linear_fit(&x, &y)?)
    }

    /// Renders efficiency normalized to the SD-800.
    pub fn render(&self) -> String {
        let base = self
            .generations
            .first()
            .map_or(1.0, |g| g.iterations_per_joule);
        let mut t = TextTable::new(vec!["SoC", "model", "iters/J", "vs SD-800"]);
        for g in &self.generations {
            t.row(vec![
                g.soc.to_owned(),
                g.model.to_owned(),
                format!("{:.3}", g.iterations_per_joule),
                ratio(g.iterations_per_joule / base),
            ]);
        }
        format!("Fig 13: relative efficiency of smartphone SoCs\n{t}")
    }
}

fn efficiency_of(study: &SocStudy) -> SocEfficiency {
    SocEfficiency {
        soc: study.soc,
        model: study.model,
        iterations_per_joule: study.mean_efficiency(),
    }
}

/// Runs the studies of all five SoCs in one fan-out and extracts the
/// efficiency metric ([`SocStudy::mean_efficiency`], from the
/// UNCONSTRAINED sessions).
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Fig13, BenchError> {
    let studies = run_soc_studies(plans::build(&plans::PAPER)?, cfg)?;
    Ok(from_studies(&studies))
}

/// Builds the figure from already-run studies (so Table II and Fig 13 can
/// share one expensive pass).
pub fn from_studies(studies: &[SocStudy]) -> Fig13 {
    Fig13 {
        generations: studies.iter().map(efficiency_of).collect(),
    }
}

pv_json::impl_to_json!(SocEfficiency {
    soc,
    model,
    iterations_per_joule
});
pv_json::impl_to_json!(Fig13 { generations });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_improves_overall_with_sd805_dip() {
        let fig = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(fig.generations.len(), 5);

        // The paper's two claims: overall upward trend, SD-805 dip.
        assert!(
            fig.sd805_dip(),
            "SD-805 should be less efficient than SD-800"
        );
        let trend = fig.trend().unwrap();
        assert!(
            trend.slope > 0.0,
            "efficiency should improve across generations: slope {}",
            trend.slope
        );

        // FinFET parts beat every 28/20 nm part.
        let eff: Vec<f64> = fig
            .generations
            .iter()
            .map(|g| g.iterations_per_joule)
            .collect();
        assert!(eff[3] > eff[0] && eff[3] > eff[1] && eff[3] > eff[2]);
        assert!(eff[4] > eff[0] && eff[4] > eff[1] && eff[4] > eff[2]);

        assert!(fig.render().contains("SD-821"));
    }
}
