//! §IV-C — non-thermal throttling and the aging battery.
//!
//! The paper's discussion links the LG G5's input-voltage throttle to "the
//! recent reports of old iPhones being throttled: the voltage that a
//! battery is able to supply decreases over time and throttling based on
//! the input voltage deteriorates user-perceived performance". This
//! experiment plays the battery's life story forward: same G5, same
//! silicon, batteries at increasing age (internal resistance grows, usable
//! charge shrinks) — and watches the *input-voltage* throttle quietly
//! steal performance long before the battery actually dies.

use crate::experiments::ExperimentConfig;
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::TextTable;
use crate::BenchError;
use pv_power::Battery;
use pv_soc::catalog;
use pv_units::{Celsius, Joules};

/// Performance at one battery age.
#[derive(Debug, Clone, PartialEq)]
pub struct AgePoint {
    /// Descriptive battery condition.
    pub condition: String,
    /// Internal resistance of the cell (Ω).
    pub internal_resistance: f64,
    /// State of charge at benchmark time.
    pub soc: f64,
    /// Mean iterations completed.
    pub performance: f64,
    /// Fraction of workload time any throttle was engaged.
    pub throttled_fraction: f64,
}

/// The aging study.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingStudy {
    /// Points from fresh to worn, in order.
    pub points: Vec<AgePoint>,
}

impl AgingStudy {
    /// Renders the life story.
    pub fn render(&self) -> String {
        let base = self.points.first().map_or(1.0, |p| p.performance);
        let mut t = TextTable::new(vec![
            "battery",
            "R_int",
            "charge",
            "perf (norm)",
            "throttled",
        ]);
        for p in &self.points {
            t.row(vec![
                p.condition.clone(),
                format!("{:.2} Ω", p.internal_resistance),
                format!("{:.0}%", p.soc * 100.0),
                format!("{:.3}", p.performance / base),
                format!("{:.0}%", p.throttled_fraction * 100.0),
            ]);
        }
        format!(
            "Battery aging vs input-voltage throttling (LG G5, same silicon)\n{}",
            t
        )
    }
}

fn measure(
    condition: &str,
    resistance: f64,
    soc: f64,
    cfg: &ExperimentConfig,
) -> Result<AgePoint, BenchError> {
    let mut device = catalog::lg_g5(0.5, format!("g5-{condition}"))?;
    device.set_supply(Box::new(
        Battery::new(Joules(45_000.0), resistance, soc).map_err(pv_soc::SocError::from)?,
    ));
    let mut harness = Harness::new(
        cfg.scaled(Protocol::unconstrained()),
        Ambient::Fixed(Celsius(26.0)),
    )?;
    let it = harness.run_iteration(&mut device)?;
    Ok(AgePoint {
        condition: condition.to_owned(),
        internal_resistance: resistance,
        soc,
        performance: it.iterations_completed,
        throttled_fraction: it.throttled_fraction,
    })
}

/// Runs the battery life story: fresh and full → aged → worn and half-empty.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<AgingStudy, BenchError> {
    let points = vec![
        measure("fresh", 0.05, 1.00, cfg)?,
        measure("one-year", 0.12, 0.90, cfg)?,
        measure("two-year", 0.22, 0.80, cfg)?,
        measure("worn", 0.38, 0.55, cfg)?,
    ];
    Ok(AgingStudy { points })
}

pv_json::impl_to_json!(AgePoint {
    condition,
    internal_resistance,
    soc,
    performance,
    throttled_fraction
});
pv_json::impl_to_json!(AgingStudy { points });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn old_batteries_quietly_throttle_the_same_silicon() {
        let study = run(&ExperimentConfig::quick()).unwrap();
        assert_eq!(study.points.len(), 4);
        // Performance degrades monotonically (weakly) with age.
        for w in study.points.windows(2) {
            assert!(
                w[1].performance <= w[0].performance * 1.005,
                "{} should not beat {}",
                w[1].condition,
                w[0].condition
            );
        }
        // The worn cell sags under load past the 3.9 V threshold and loses
        // a visible chunk of performance — iPhone-gate in miniature.
        let (fresh, worn) = (&study.points[0], &study.points[3]);
        let ratio = worn.performance / fresh.performance;
        assert!(
            ratio < 0.92,
            "worn battery should cost real performance: {ratio:.3}"
        );
        assert!(
            study.points[3].throttled_fraction > study.points[0].throttled_fraction,
            "worn battery should throttle more"
        );
        assert!(study.render().contains("aging"));
    }
}
