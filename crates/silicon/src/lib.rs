//! Process-variation models for smartphone SoCs.
//!
//! This crate is the synthetic stand-in for the physical silicon the paper
//! measured. It provides:
//!
//! * [`ProcessNode`] — a manufacturing process (28 nm planar … 14 nm FinFET)
//!   with its die-to-die variability parameters.
//! * [`DieSample`] — one die drawn from a process: a *speed grade* (how fast
//!   its transistors are relative to the population) and the correlated
//!   *leakage multiplier* (fast transistors leak more — the physical fact
//!   the whole paper hinges on, §II).
//! * [`power`] — leakage and dynamic power laws with the
//!   leakage–temperature feedback loop that causes thermal runaway on bad
//!   dies.
//! * [`binning`] — speed binning and voltage binning. The paper's Table I
//!   (Nexus 5 voltage/frequency ladder across 7 bins) is embedded as
//!   reference data, and the voltage-binning algorithm regenerates tables of
//!   the same shape for arbitrary dies.
//! * [`population`] — seeded sampling of whole device populations.
//!
//! # Examples
//!
//! ```
//! use pv_silicon::{DieSample, ProcessNode};
//!
//! // A fast (leaky) die and a slow (frugal) die from the same 28nm line.
//! let fast = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.95).unwrap();
//! let slow = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.05).unwrap();
//! assert!(fast.leakage_multiplier() > slow.leakage_multiplier());
//! assert!(fast.speed_factor() > slow.speed_factor());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod population;
pub mod power;

use core::fmt;
use pv_rng::Rng;
use pv_stats::dist::normal_quantile;

/// Error type for invalid silicon-model inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum SiliconError {
    /// A grade/probability was outside the open interval (0, 1).
    GradeOutOfRange(f64),
    /// A voltage/frequency table failed validation.
    InvalidTable(&'static str),
    /// A model parameter was out of its physical domain.
    InvalidParameter(&'static str),
}

impl fmt::Display for SiliconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiliconError::GradeOutOfRange(g) => {
                write!(f, "die grade {g} outside open interval (0, 1)")
            }
            SiliconError::InvalidTable(what) => write!(f, "invalid voltage table: {what}"),
            SiliconError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for SiliconError {}

/// A semiconductor manufacturing process and its die-to-die variability.
///
/// `sigma_speed` scales how much transistor speed varies across dies;
/// `leak_coupling` controls how strongly leakage grows with speed (the
/// log-normal exponent); `sigma_leak_residual` adds speed-independent
/// leakage scatter. Newer processes in this catalog have tighter speed
/// spread but FinFET-era leakage coupling is still significant — matching
/// the paper's finding that variation shrank from ~20 % (28 nm SD-800) to
/// ~5–10 % (14 nm SD-820/821) but never vanished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessNode {
    name: &'static str,
    feature_nm: f64,
    sigma_speed: f64,
    leak_coupling: f64,
    sigma_leak_residual: f64,
}

impl ProcessNode {
    /// 28 nm planar (Snapdragon 800/805 era, 2013). Widest variation.
    pub const PLANAR_28NM: ProcessNode = ProcessNode {
        name: "28nm planar",
        feature_nm: 28.0,
        sigma_speed: 0.055,
        leak_coupling: 0.42,
        sigma_leak_residual: 0.06,
    };

    /// 20 nm planar (Snapdragon 810, 2015). Notoriously leaky.
    pub const PLANAR_20NM: ProcessNode = ProcessNode {
        name: "20nm planar",
        feature_nm: 20.0,
        sigma_speed: 0.045,
        leak_coupling: 0.28,
        sigma_leak_residual: 0.05,
    };

    /// 14 nm FinFET (Snapdragon 820/821, 2016). Tighter control, lower
    /// leakage spread, but variation persists.
    pub const FINFET_14NM: ProcessNode = ProcessNode {
        name: "14nm FinFET",
        feature_nm: 14.0,
        sigma_speed: 0.030,
        leak_coupling: 0.26,
        sigma_leak_residual: 0.04,
    };

    /// 10 nm FinFET (Snapdragon 835 era, 2017) — one generation past the
    /// paper's study, used by the forecast experiment to extrapolate the
    /// Fig 13 efficiency trend.
    pub const FINFET_10NM: ProcessNode = ProcessNode {
        name: "10nm FinFET",
        feature_nm: 10.0,
        sigma_speed: 0.025,
        leak_coupling: 0.22,
        sigma_leak_residual: 0.035,
    };

    /// Log-normal coupling between speed and leakage.
    pub fn leak_coupling(&self) -> f64 {
        self.leak_coupling
    }

    /// Speed-independent leakage scatter (1σ of the log residual).
    pub fn sigma_leak_residual(&self) -> f64 {
        self.sigma_leak_residual
    }
}

impl fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// One die drawn from a [`ProcessNode`].
///
/// A die is characterized by:
///
/// * **grade** — its population quantile of transistor speed in (0, 1):
///   0 ⇒ slowest silicon of the line, 1 ⇒ fastest. The paper's Nexus 5
///   bin-0 chips are low-grade, bin-6 chips high-grade (§II, Table I).
/// * **speed_factor** — multiplicative max-frequency capability relative to
///   nominal (1.0). Voltage binning hides this from the user by giving every
///   die the same frequency ladder.
/// * **leakage_multiplier** — multiplicative static-power factor relative to
///   the nominal die. Correlated with grade: fast transistors (short
///   channels, low V<sub>th</sub>) leak exponentially more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSample {
    node: ProcessNode,
    grade: f64,
    speed_factor: f64,
    leakage_multiplier: f64,
}

impl DieSample {
    /// Creates the deterministic die at population quantile `grade`, with no
    /// speed-independent leakage residual. Useful for constructing the exact
    /// device personas of the paper's experiments.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::GradeOutOfRange`] unless `0 < grade < 1`.
    pub fn from_grade(node: ProcessNode, grade: f64) -> Result<Self, SiliconError> {
        Self::from_grade_with_residual(node, grade, 0.0)
    }

    /// Creates the die at quantile `grade` with an explicit leakage residual
    /// z-score (`residual_z` standard normal units of speed-independent
    /// leakage scatter).
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::GradeOutOfRange`] unless `0 < grade < 1`, and
    /// [`SiliconError::InvalidParameter`] if `residual_z` is non-finite.
    pub fn from_grade_with_residual(
        node: ProcessNode,
        grade: f64,
        residual_z: f64,
    ) -> Result<Self, SiliconError> {
        if !(grade > 0.0 && grade < 1.0) {
            return Err(SiliconError::GradeOutOfRange(grade));
        }
        if !residual_z.is_finite() {
            return Err(SiliconError::InvalidParameter("residual_z non-finite"));
        }
        let z = normal_quantile(grade).expect("grade validated in (0,1)");
        let speed_factor = 1.0 + node.sigma_speed * z;
        let leakage_multiplier =
            (node.leak_coupling * z + node.sigma_leak_residual * residual_z).exp();
        Ok(Self {
            node,
            grade,
            speed_factor,
            leakage_multiplier,
        })
    }

    /// Draws a random die from the process using `rng`.
    ///
    /// The grade is uniform in (0, 1) — by definition of a quantile — and the
    /// residual is standard normal.
    pub fn sample<R: Rng + ?Sized>(node: ProcessNode, rng: &mut R) -> Self {
        // Keep the grade strictly inside (0,1); the quantile function is
        // undefined at the endpoints.
        let grade = rng.gen_range(1e-6..1.0 - 1e-6);
        let residual: f64 = {
            // Box-Muller from two uniforms, avoiding a rand_distr dependency.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        Self::from_grade_with_residual(node, grade, residual)
            .expect("grade sampled strictly inside (0,1)")
    }

    /// Population speed quantile in (0, 1); higher is faster silicon.
    pub fn grade(&self) -> f64 {
        self.grade
    }

    /// Max-frequency capability relative to nominal (1.0 = typical die).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Static-power multiplier relative to the nominal die.
    pub fn leakage_multiplier(&self) -> f64 {
        self.leakage_multiplier
    }
}

impl fmt::Display for DieSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} die @ grade {:.3} (speed ×{:.3}, leakage ×{:.3})",
            self.node, self.grade, self.speed_factor, self.leakage_multiplier
        )
    }
}

pv_json::impl_to_json!(ProcessNode {
    name,
    feature_nm,
    sigma_speed,
    leak_coupling,
    sigma_leak_residual
});
pv_json::impl_to_json!(DieSample {
    node,
    grade,
    speed_factor,
    leakage_multiplier
});

#[cfg(test)]
mod tests {
    use super::*;
    use pv_rng::rngs::StdRng;
    use pv_rng::SeedableRng;

    #[test]
    fn median_die_is_nominal() {
        let die = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.5).unwrap();
        assert!((die.speed_factor() - 1.0).abs() < 1e-9);
        assert!((die.leakage_multiplier() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fast_dies_leak_more() {
        let node = ProcessNode::PLANAR_28NM;
        let grades = [0.1, 0.3, 0.5, 0.7, 0.9];
        let dies: Vec<_> = grades
            .iter()
            .map(|&g| DieSample::from_grade(node, g).unwrap())
            .collect();
        for pair in dies.windows(2) {
            assert!(pair[1].speed_factor() > pair[0].speed_factor());
            assert!(pair[1].leakage_multiplier() > pair[0].leakage_multiplier());
        }
    }

    #[test]
    fn leakage_spread_is_calibrated_for_28nm() {
        // The SD-800 study saw ~19-20% energy differences between extreme
        // bins; that requires a substantial leakage spread between a bin-0
        // (slow) and bin-6 (fast) die.
        let slow = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.07).unwrap();
        let fast = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.93).unwrap();
        let ratio = fast.leakage_multiplier() / slow.leakage_multiplier();
        assert!(
            ratio > 2.0,
            "28nm extreme-bin leakage ratio too small: {ratio}"
        );
        assert!(
            ratio < 6.0,
            "28nm extreme-bin leakage ratio implausible: {ratio}"
        );
    }

    #[test]
    fn finfet_is_tighter_than_planar() {
        let g = 0.9;
        let planar = DieSample::from_grade(ProcessNode::PLANAR_28NM, g).unwrap();
        let finfet = DieSample::from_grade(ProcessNode::FINFET_14NM, g).unwrap();
        assert!(finfet.speed_factor() < planar.speed_factor());
        assert!(finfet.leakage_multiplier() < planar.leakage_multiplier());
    }

    #[test]
    fn grade_bounds_are_enforced() {
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(DieSample::from_grade(ProcessNode::PLANAR_28NM, bad).is_err());
        }
    }

    #[test]
    fn residual_shifts_leakage_not_speed() {
        let base = DieSample::from_grade(ProcessNode::PLANAR_28NM, 0.6).unwrap();
        let leaky =
            DieSample::from_grade_with_residual(ProcessNode::PLANAR_28NM, 0.6, 2.0).unwrap();
        assert_eq!(base.speed_factor(), leaky.speed_factor());
        assert!(leaky.leakage_multiplier() > base.leakage_multiplier());
        assert!(
            DieSample::from_grade_with_residual(ProcessNode::PLANAR_28NM, 0.6, f64::NAN).is_err()
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let da = DieSample::sample(ProcessNode::PLANAR_20NM, &mut a);
        let db = DieSample::sample(ProcessNode::PLANAR_20NM, &mut b);
        assert_eq!(da, db);
    }

    #[test]
    fn sampled_population_statistics_are_sane() {
        let mut rng = StdRng::seed_from_u64(42);
        let dies: Vec<_> = (0..2000)
            .map(|_| DieSample::sample(ProcessNode::PLANAR_28NM, &mut rng))
            .collect();
        let mean_speed: f64 =
            dies.iter().map(DieSample::speed_factor).sum::<f64>() / dies.len() as f64;
        assert!((mean_speed - 1.0).abs() < 0.01, "mean speed {mean_speed}");
        // Median leakage should be near 1 (log-normal), mean above 1.
        let mut leaks: Vec<f64> = dies.iter().map(DieSample::leakage_multiplier).collect();
        leaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = leaks[leaks.len() / 2];
        assert!((median - 1.0).abs() < 0.07, "median leakage {median}");
    }

    #[test]
    fn display_impls() {
        let die = DieSample::from_grade(ProcessNode::FINFET_14NM, 0.25).unwrap();
        let s = format!("{die}");
        assert!(s.contains("14nm FinFET"));
        assert!(!format!("{}", SiliconError::GradeOutOfRange(2.0)).is_empty());
    }
}
