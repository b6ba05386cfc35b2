//! §VI future work — estimating ambient temperature from the cooldown phase.
//!
//! For crowdsourced measurements "the only parameters that we cannot
//! control for in the wild are ambient temperature and software stack.
//! However, preliminary results on using the cooldown phase as an estimate
//! of ambient temperature are encouraging" (§VI).
//!
//! The physics: an idle device relaxes toward ambient as a sum of
//! exponentials dominated by one time constant, `T(t) ≈ T_amb + ΔT·e^(−t/τ)`.
//! Given the cooldown samples the app already records, grid-search the
//! asymptote `T_amb`: for each candidate, `ln(T − T_amb)` vs `t` should be a
//! straight line, so pick the candidate with the best linear fit. The slope
//! then yields τ for free.

use crate::experiments::ExperimentConfig;
use crate::harness::{Ambient, Harness};
use crate::protocol::{CooldownTarget, Protocol};
use crate::report::TextTable;
use crate::BenchError;
use pv_silicon::binning::BinId;
use pv_soc::catalog;
use pv_stats::regression::linear_fit;
use pv_units::{Celsius, Seconds, TempDelta};

/// An ambient estimate recovered from a cooldown trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientEstimate {
    /// Estimated ambient temperature.
    pub ambient: Celsius,
    /// Estimated dominant cooling time constant.
    pub tau: Seconds,
    /// R² of the log-linear fit at the chosen asymptote.
    pub r_squared: f64,
}

/// Estimates the ambient temperature from `(t seconds, °C)` cooldown
/// samples by grid-searching the exponential asymptote.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] for fewer than 8 samples or a
/// non-cooling series, and propagates regression errors.
pub fn estimate_from_series(series: &[(f64, f64)]) -> Result<AmbientEstimate, BenchError> {
    if series.len() < 8 {
        return Err(BenchError::InvalidProtocol(
            "need at least 8 cooldown samples",
        ));
    }
    let first = series[0].1;
    let last = series[series.len() - 1].1;
    if last >= first {
        return Err(BenchError::InvalidProtocol("series is not cooling"));
    }
    // The ambient must lie below the coolest observation; search a band
    // beneath it at 0.05 K resolution.
    let lo = last - 15.0;
    let mut best: Option<AmbientEstimate> = None;
    let mut candidate = lo;
    while candidate < last - 0.01 {
        let mut xs = Vec::with_capacity(series.len());
        let mut ys = Vec::with_capacity(series.len());
        for &(t, temp) in series {
            let excess = temp - candidate;
            // Points too close to the asymptote are dominated by sensor
            // quantisation; exclude them from the log fit.
            if excess > 0.8 {
                xs.push(t);
                ys.push(excess.ln());
            }
        }
        if xs.len() >= 8 {
            if let Ok(fit) = linear_fit(&xs, &ys) {
                if fit.slope < 0.0 {
                    let est = AmbientEstimate {
                        ambient: Celsius(candidate),
                        tau: Seconds(-1.0 / fit.slope),
                        r_squared: fit.r_squared,
                    };
                    if best.is_none_or(|b| est.r_squared > b.r_squared) {
                        best = Some(est);
                    }
                }
            }
        }
        candidate += 0.05;
    }
    best.ok_or(BenchError::InvalidProtocol(
        "no exponential asymptote fits the series",
    ))
}

/// One device's estimation trial at a known true ambient.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationTrial {
    /// The chamber's true ambient.
    pub true_ambient: Celsius,
    /// The raw curve asymptote (includes the idle-power offset).
    pub estimate: AmbientEstimate,
    /// Asymptote after subtracting the model's calibration offset.
    pub corrected: Celsius,
}

impl EstimationTrial {
    /// Signed estimation error of the corrected estimate.
    pub fn error(&self) -> TempDelta {
        self.corrected - self.true_ambient
    }
}

/// The full estimation study across a sweep of true ambients.
///
/// A sleeping phone still dissipates its idle power, so its cooldown curve
/// asymptotes a few kelvin *above* ambient (`P_idle · R_total`). The study
/// therefore performs one factory-calibration trial at a known reference
/// ambient to learn the model's offset, then applies it in the wild — the
/// "strict filters" + per-model calibration workflow §VI sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct AmbientEstimation {
    /// The per-model idle offset learned at the reference ambient.
    pub calibration_offset: TempDelta,
    /// One trial per true ambient.
    pub trials: Vec<EstimationTrial>,
}

impl AmbientEstimation {
    /// Worst absolute estimation error across trials.
    pub fn worst_error(&self) -> TempDelta {
        self.trials
            .iter()
            .map(|t| t.error().abs())
            .fold(TempDelta::ZERO, TempDelta::max)
    }

    /// Renders the trial table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "true ambient",
            "raw asymptote",
            "corrected",
            "error",
            "tau",
            "R²",
        ]);
        for trial in &self.trials {
            t.row(vec![
                format!("{:.1}", trial.true_ambient),
                format!("{:.2}", trial.estimate.ambient),
                format!("{:.2}", trial.corrected),
                format!("{:+.2} K", trial.error().value()),
                format!("{:.0}", trial.estimate.tau),
                format!("{:.4}", trial.estimate.r_squared),
            ]);
        }
        format!(
            "Ambient estimation from cooldown curves (idle offset {:.2} K, worst error {:.2} K)\n{}",
            self.calibration_offset.value(),
            self.worst_error().value(),
            t
        )
    }
}

/// Runs the estimation study: warm a device, record its cooldown at each
/// true ambient, and recover the ambient from the curve alone.
///
/// # Errors
///
/// Propagates harness and fitting errors.
pub fn run(cfg: &ExperimentConfig) -> Result<AmbientEstimation, BenchError> {
    // Factory calibration: one trial at a known reference ambient learns
    // the model's idle-power offset (not part of the evaluation sweep).
    //
    // Unlike the other artifacts, the trials stay serial on purpose: each
    // records a full warmup + cooldown trace, and fanning them out keeps
    // one such trace per worker resident (about 1 MiB each) to save about
    // 1 % of `repro all`.
    let reference = Celsius(20.0);
    let calibration = raw_trial(cfg, reference)?;
    let calibration_offset = calibration.ambient - reference;

    let mut trials = Vec::new();
    for ambient in [16.0, 22.0, 26.0, 32.0] {
        let true_ambient = Celsius(ambient);
        let estimate = raw_trial(cfg, true_ambient)?;
        trials.push(EstimationTrial {
            true_ambient,
            estimate,
            corrected: estimate.ambient - calibration_offset,
        });
    }
    Ok(AmbientEstimation {
        calibration_offset,
        trials,
    })
}

/// Warms a device, records its cooldown at `true_ambient`, and fits the
/// asymptote — no correction applied.
fn raw_trial(cfg: &ExperimentConfig, true_ambient: Celsius) -> Result<AmbientEstimate, BenchError> {
    let mut device = catalog::nexus5(BinId(2))?;
    // Warm up, then cool down with tracing; an unreachable cooldown target
    // keeps the device idling for the whole (long) window so the curve
    // covers several time constants.
    let mut protocol = cfg
        .scaled(Protocol::unconstrained())
        .with_trace()
        .with_workload(Seconds(0.0))
        .with_cooldown_target(CooldownTarget::AboveAmbient(TempDelta(0.05)));
    protocol.cooldown_timeout = Seconds(900.0);
    let mut harness = Harness::new(protocol, Ambient::Fixed(true_ambient))?;
    let it = harness.run_iteration(&mut device)?;

    // Extract the cooldown segment: idle samples after the warmup, skipping
    // the first 90 s where the fast die-node transient (a second, shorter
    // time constant) would bias the single-exponential fit.
    let warmup_end = cfg.scaled(Protocol::unconstrained()).warmup.value();
    let series: Vec<(f64, f64)> = it
        .full_trace
        .samples()
        .iter()
        .filter(|s| s.t.value() > warmup_end + 90.0)
        .map(|s| (s.t.value(), s.sensor_temp.value()))
        .collect();
    estimate_from_series(&series)
}

pv_json::impl_to_json!(AmbientEstimate {
    ambient,
    tau,
    r_squared
});
pv_json::impl_to_json!(EstimationTrial {
    true_ambient,
    estimate,
    corrected
});
pv_json::impl_to_json!(AmbientEstimation {
    calibration_offset,
    trials
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_synthetic_exponential() {
        // T(t) = 24 + 30 e^{-t/120}
        let series: Vec<(f64, f64)> = (0..120)
            .map(|i| {
                let t = f64::from(i) * 5.0;
                (t, 24.0 + 30.0 * (-t / 120.0).exp())
            })
            .collect();
        let est = estimate_from_series(&series).unwrap();
        assert!(
            (est.ambient.value() - 24.0).abs() < 0.2,
            "ambient {}",
            est.ambient
        );
        assert!((est.tau.value() - 120.0).abs() < 10.0, "tau {}", est.tau);
        assert!(est.r_squared > 0.999);
    }

    #[test]
    fn rejects_degenerate_series() {
        assert!(estimate_from_series(&[(0.0, 30.0)]).is_err());
        let warming: Vec<(f64, f64)> = (0..20)
            .map(|i| (f64::from(i), 20.0 + f64::from(i)))
            .collect();
        assert!(estimate_from_series(&warming).is_err());
        let flat: Vec<(f64, f64)> = (0..20).map(|i| (f64::from(i), 25.0)).collect();
        assert!(estimate_from_series(&flat).is_err());
    }

    #[test]
    fn estimates_track_true_ambient_in_simulation() {
        let cfg = ExperimentConfig {
            scale: 0.4,
            iterations: 1,
            ..ExperimentConfig::quick()
        };
        let study = run(&cfg).unwrap();
        assert_eq!(study.trials.len(), 4);
        // A sleeping phone sits a few kelvin above ambient, so the learned
        // offset must be positive and a couple of kelvin.
        assert!(
            study.calibration_offset.value() > 1.0,
            "offset {:.2} K",
            study.calibration_offset.value()
        );
        // Corrected estimates must order like the true ambients and land
        // within ~1.5 K (the paper calls its own results "preliminary" and
        // "encouraging", not exact).
        for w in study.trials.windows(2) {
            assert!(w[1].corrected > w[0].corrected);
        }
        assert!(
            study.worst_error().value() < 1.5,
            "worst error {:.2} K",
            study.worst_error().value()
        );
        assert!(study.render().contains("Ambient estimation"));
    }
}
