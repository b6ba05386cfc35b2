//! §VI future work — inferring CPU bins by clustering crowd data.
//!
//! The paper proposes shipping a benchmarking app and clustering the
//! crowdsourced performance scores "using unstructured learning algorithms"
//! to recover bin structure where manufacturers hide it. This experiment
//! simulates that: draw a population of Nexus 5 units, benchmark each once
//! with ACCUBENCH, k-means the scores, and check how well the inferred
//! clusters track the true (hidden) die quality.

use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::TextTable;
use crate::BenchError;
use pv_power::Monsoon;
use pv_silicon::population;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::kmeans::{kmeans_1d, KMeansResult};
use pv_units::Celsius;

/// One crowd-sourced measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdPoint {
    /// Synthetic device id.
    pub label: String,
    /// True (hidden) die grade.
    pub true_grade: f64,
    /// Measured ACCUBENCH performance.
    pub performance: f64,
    /// Inferred cluster (0 = slowest) after k-means.
    pub inferred_bin: usize,
}

/// The clustering study.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStudy {
    /// Number of clusters requested.
    pub k: usize,
    /// All measured devices.
    pub points: Vec<CrowdPoint>,
    /// The k-means result over the performance scores.
    pub kmeans: KMeansResult,
}

impl ClusterStudy {
    /// Spearman-style check: fraction of device pairs whose inferred-bin
    /// ordering agrees with their true-grade ordering (ties ignored).
    ///
    /// Leakier (higher-grade) silicon performs *worse*, so agreement means
    /// higher grade ⇒ lower inferred bin.
    pub fn pairwise_agreement(&self) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..self.points.len() {
            for j in (i + 1)..self.points.len() {
                let a = &self.points[i];
                let b = &self.points[j];
                if a.inferred_bin == b.inferred_bin {
                    continue;
                }
                total += 1;
                let grade_order = a.true_grade < b.true_grade;
                // Lower grade ⇒ better performance ⇒ higher inferred bin.
                let bin_order = a.inferred_bin > b.inferred_bin;
                if grade_order == bin_order {
                    agree += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Renders cluster sizes and centroid performance.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["cluster", "members", "centroid perf"]);
        for (i, (size, centroid)) in self
            .kmeans
            .cluster_sizes()
            .iter()
            .zip(&self.kmeans.centroids)
            .enumerate()
        {
            t.row(vec![
                format!("inferred-{i}"),
                size.to_string(),
                format!("{:.1}", centroid[0]),
            ]);
        }
        format!(
            "Bin inference by clustering: k={}, pairwise agreement {:.0}%\n{}",
            self.k,
            self.pairwise_agreement() * 100.0,
            t
        )
    }
}

/// Draws `n` Nexus 5 units, benchmarks each, and clusters the scores.
///
/// # Errors
///
/// Propagates harness errors, and [`BenchError::Stats`] from clustering.
pub fn run(
    cfg: &ExperimentConfig,
    n: usize,
    k: usize,
    seed: u64,
) -> Result<ClusterStudy, BenchError> {
    let model = catalog::nexus5_model()?;
    let spec = model.spec();
    let dies = population::sample(spec.soc.node, n, seed);
    let measured = par_map(dies, |i, die| -> Result<_, BenchError> {
        let supply =
            Box::new(Monsoon::new(spec.nominal_battery_voltage).map_err(pv_soc::SocError::from)?);
        let mut device = Device::from_model(
            model.clone(),
            die,
            supply,
            format!("crowd-{i}"),
            seed ^ i as u64,
        )?;
        let mut harness = Harness::new(
            cfg.scaled(Protocol::unconstrained()),
            Ambient::Fixed(Celsius(26.0)),
        )?;
        let it = harness.run_iteration(&mut device)?;
        Ok((
            device.label().to_owned(),
            die.grade(),
            it.iterations_completed,
        ))
    })?;
    let scores: Vec<f64> = measured.iter().map(|m| m.2).collect();

    let kmeans = kmeans_1d(&scores, k, 200, seed)?;
    let points = measured
        .into_iter()
        .zip(&kmeans.assignments)
        .map(
            |((label, true_grade, performance), &inferred_bin)| CrowdPoint {
                label,
                true_grade,
                performance,
                inferred_bin,
            },
        )
        .collect();
    Ok(ClusterStudy { k, points, kmeans })
}

pv_json::impl_to_json!(CrowdPoint {
    label,
    true_grade,
    performance,
    inferred_bin
});
pv_json::impl_to_json!(ClusterStudy { k, points, kmeans });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_recovers_silicon_quality_ordering() {
        let cfg = ExperimentConfig {
            scale: 0.12,
            iterations: 1,
            ..ExperimentConfig::quick()
        };
        let study = run(&cfg, 24, 3, 77).unwrap();
        assert_eq!(study.points.len(), 24);
        // Inferred bins must track true grades for the clear majority of
        // cross-cluster pairs.
        let agreement = study.pairwise_agreement();
        assert!(agreement > 0.75, "pairwise agreement only {:.2}", agreement);
        // Centroids are distinct performance levels.
        assert!(study.kmeans.centroids[0][0] < study.kmeans.centroids[2][0]);
        assert!(study.render().contains("inferred-0"));
    }
}
