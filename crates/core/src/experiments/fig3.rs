//! Fig 3 — the THERMABOX controlled thermal environment.
//!
//! The paper's figure is a photograph of the apparatus; what the apparatus
//! *does* is hold 26 ± 0.5 °C while the device under test dumps heat into
//! it. This experiment runs the simulated chamber against a realistic load
//! profile and reports the regulation quality: mean, worst excursion, and
//! RSD of the chamber air temperature.

use crate::experiments::ExperimentConfig;
use crate::report::TextTable;
use crate::BenchError;
use pv_stats::Summary;
use pv_thermal::thermabox::{ThermaBox, ThermaBoxConfig};
use pv_units::{Celsius, Seconds, Watts};

/// Regulation-quality statistics of the chamber.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// The regulation target.
    pub target: Celsius,
    /// Time the chamber needed to first reach the band.
    pub settle_time: Seconds,
    /// Statistics of the air temperature over the measurement window.
    pub air_stats: Summary,
    /// Largest |air − target| observed after settling.
    pub worst_excursion: f64,
    /// The recorded `(t, air °C)` series for plotting.
    pub series: Vec<(f64, f64)>,
}

impl Fig3 {
    /// Renders the regulation summary.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["metric", "value"]);
        t.row(vec!["target".into(), format!("{:.1}", self.target)]);
        t.row(vec![
            "settle time".into(),
            format!("{:.0}", self.settle_time),
        ]);
        t.row(vec![
            "mean air".into(),
            format!("{:.3} °C", self.air_stats.mean()),
        ]);
        t.row(vec![
            "air RSD".into(),
            format!("{:.3}%", self.air_stats.rsd_percent()),
        ]);
        t.row(vec![
            "worst excursion".into(),
            format!("{:.3} K", self.worst_excursion),
        ]);
        format!("Fig 3: THERMABOX regulation at 26 ± 0.5 °C\n{t}")
    }
}

/// Runs the chamber against a square-wave device load (idle ↔ 5 W, the
/// signature of back-to-back ACCUBENCH iterations).
///
/// # Errors
///
/// Propagates chamber errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Fig3, BenchError> {
    let mut chamber = ThermaBox::new(ThermaBoxConfig::default())?;
    let settle_time = chamber.settle(Seconds(7200.0))?;

    let window = (3600.0 * cfg.scale).max(300.0);
    let mut series = Vec::new();
    let mut worst: f64 = 0.0;
    let mut temps = Vec::new();
    let mut t = 0.0;
    while t < window {
        // 5-minute busy / 2-minute idle square wave.
        let load = if (t / 60.0) % 7.0 < 5.0 {
            Watts(5.0)
        } else {
            Watts(0.3)
        };
        chamber.step(Seconds(1.0), load)?;
        t += 1.0;
        let air = chamber.air_temp().value();
        temps.push(air);
        worst = worst.max((air - chamber.config().target.value()).abs());
        series.push((t, air));
    }
    Ok(Fig3 {
        target: chamber.config().target,
        settle_time,
        air_stats: Summary::from_slice(&temps)?,
        worst_excursion: worst,
        series,
    })
}

pv_json::impl_to_json!(Fig3 {
    target,
    settle_time,
    air_stats,
    worst_excursion,
    series
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chamber_holds_the_band_under_load() {
        let fig = run(&ExperimentConfig::quick()).unwrap();
        // The paper's ±0.5 °C band, with a small allowance for probe-lag
        // overshoot.
        assert!(
            fig.worst_excursion <= 0.8,
            "excursion {}",
            fig.worst_excursion
        );
        assert!((fig.air_stats.mean() - 26.0).abs() < 0.4);
        assert!(fig.air_stats.rsd_percent() < 2.0);
        assert!(!fig.series.is_empty());
        assert!(fig.render().contains("THERMABOX"));
    }
}
