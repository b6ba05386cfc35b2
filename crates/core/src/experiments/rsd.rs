//! §VII — methodology repeatability.
//!
//! The paper's headline for the methodology itself: "an average error of
//! 1.1 % RSD over roughly 300 iterations of our workloads". This experiment
//! runs many back-to-back sessions across the catalog and reports the mean
//! per-session RSD of the performance metric.

use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::TextTable;
use crate::session::Verdict;
use crate::BenchError;
use pv_faults::{FaultHandle, FaultPlan};
use pv_silicon::binning::BinId;
use pv_soc::catalog;
use pv_soc::device::Dut;
use pv_soc::faulty::FaultyDevice;
use pv_units::MegaHertz;

/// One device's repeatability measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatabilityRow {
    /// Device label.
    pub label: String,
    /// Which workload was run (`"unconstrained"` / `"fixed"`).
    pub workload: &'static str,
    /// Number of iterations that survived in the session.
    pub iterations: usize,
    /// RSD (%) of performance across those iterations (0 when fewer than
    /// one iteration survived).
    pub perf_rsd: f64,
    /// The session's quality-gate verdict.
    pub verdict: Verdict,
}

/// The repeatability summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeatability {
    /// Per-device, per-workload rows.
    pub rows: Vec<RepeatabilityRow>,
}

impl Repeatability {
    /// Mean RSD over all sessions — the paper's 1.1 % figure.
    pub fn average_rsd(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.perf_rsd).sum::<f64>() / self.rows.len() as f64
    }

    /// Total iterations across all sessions.
    pub fn total_iterations(&self) -> usize {
        self.rows.iter().map(|r| r.iterations).sum()
    }

    /// Renders the per-session table plus the average.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "device",
            "workload",
            "iterations",
            "perf RSD",
            "verdict",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                r.workload.to_owned(),
                r.iterations.to_string(),
                format!("{:.2}%", r.perf_rsd),
                r.verdict.to_string(),
            ]);
        }
        format!(
            "Methodology repeatability: average RSD {:.2}% over {} iterations\n{}",
            self.average_rsd(),
            self.total_iterations(),
            t
        )
    }
}

/// Runs repeatability sessions on a spread of devices and both workloads.
///
/// # Errors
///
/// Propagates harness errors.
pub fn run(cfg: &ExperimentConfig) -> Result<Repeatability, BenchError> {
    run_with_faults(cfg, None)
}

/// [`run`], optionally injecting a fault plan into every device's sessions.
///
/// Each device gets its own fault timeline (a fresh clone of `faults`);
/// the timeline spans the device's two back-to-back workload sessions, so
/// a plan longer than one session keeps injecting into the second. With
/// `None` the experiment is bit-identical to [`run`].
///
/// # Errors
///
/// Propagates harness errors. Injected transient faults are absorbed by
/// the harness's retry/quarantine machinery and surface as shrunken
/// iteration counts and non-Valid verdicts, not as errors.
pub fn run_with_faults(
    cfg: &ExperimentConfig,
    faults: Option<&FaultPlan>,
) -> Result<Repeatability, BenchError> {
    let devices: Vec<(pv_soc::device::Device, MegaHertz)> = vec![
        (catalog::nexus5(BinId(0))?, MegaHertz(960.0)),
        (catalog::nexus5(BinId(3))?, MegaHertz(960.0)),
        (catalog::nexus6p(0.5, "device-541")?, MegaHertz(384.0)),
        (catalog::pixel(0.5, "device-570")?, MegaHertz(998.0)),
    ];
    let per_device = par_map(devices, |_, (device, fixed_freq)| {
        // The fault handle is created inside the task: it is per device
        // and never crosses threads.
        let handle = faults.map_or_else(FaultHandle::disarmed, |p| FaultHandle::armed(p.clone()));
        let mut device = FaultyDevice::new(device, handle.clone());
        let mut rows = Vec::with_capacity(2);
        for (workload, protocol) in [
            ("unconstrained", Protocol::unconstrained()),
            ("fixed", Protocol::fixed_frequency(fixed_freq)),
        ] {
            let mut harness = Harness::new(cfg.scaled(protocol), Ambient::paper_chamber()?)?
                .with_faults(handle.clone());
            let session = harness.run_session(&mut device, cfg.iterations)?;
            let perf_rsd = if session.iterations.is_empty() {
                0.0
            } else {
                session.performance_summary()?.rsd_percent()
            };
            rows.push(RepeatabilityRow {
                label: device.label().to_owned(),
                workload,
                iterations: session.iterations.len(),
                perf_rsd,
                verdict: session.verdict,
            });
        }
        Ok::<_, BenchError>(rows)
    })?;
    let rows = per_device.into_iter().flatten().collect();
    Ok(Repeatability { rows })
}

pv_json::impl_to_json!(RepeatabilityRow {
    label,
    workload,
    iterations,
    perf_rsd,
    verdict
});
pv_json::impl_to_json!(Repeatability { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_rsd_is_paper_grade() {
        let cfg = ExperimentConfig {
            iterations: 3,
            ..ExperimentConfig::quick()
        };
        let rep = run(&cfg).unwrap();
        assert_eq!(rep.rows.len(), 8);
        // The paper reports 1.1 % average; hold the simulation to < 2 %.
        assert!(
            rep.average_rsd() < 2.0,
            "average RSD {:.2}%",
            rep.average_rsd()
        );
        // Fixed-frequency sessions are the tightest.
        for r in rep.rows.iter().filter(|r| r.workload == "fixed") {
            assert!(
                r.perf_rsd < 1.0,
                "{}: fixed RSD {:.2}%",
                r.label,
                r.perf_rsd
            );
        }
        assert!(rep.total_iterations() >= 24);
        assert!(rep.render().contains("repeatability"));
        for r in &rep.rows {
            assert_eq!(r.verdict, Verdict::Valid, "{}", r.label);
        }
    }

    #[test]
    fn faulty_run_degrades_but_completes() {
        use pv_faults::{FaultEvent, FaultKind};
        let cfg = ExperimentConfig {
            iterations: 2,
            ..ExperimentConfig::quick()
        };
        // A permanent hotplug flap kills every busy phase: all slots
        // quarantine, yet the experiment still returns per-session rows.
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 0.0,
            duration: 1e12,
            kind: FaultKind::HotplugFlap,
            magnitude: 0.0,
        });
        let rep = run_with_faults(&cfg, Some(&plan)).unwrap();
        assert_eq!(rep.rows.len(), 8);
        for r in &rep.rows {
            assert_eq!(r.iterations, 0, "{}", r.label);
            assert_eq!(r.verdict, Verdict::Invalid, "{}", r.label);
        }
    }
}
