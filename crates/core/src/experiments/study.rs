//! The per-SoC variation study shared by Figures 6–9 and Table II.
//!
//! For one device population of a single model, this runs the paper's two
//! experiments:
//!
//! * **UNCONSTRAINED** sessions measure *performance* (π iterations in the
//!   fixed workload window); differences arise from thermal throttling.
//! * **FIXED-FREQUENCY** sessions pin the cores at a low ladder step so all
//!   devices do the *same* work, exposing *energy* differences; they double
//!   as the repeatability check (performance RSD should be tiny).

use crate::experiments::{par_map, ExperimentConfig};
use crate::harness::{Ambient, Harness};
use crate::protocol::Protocol;
use crate::report::{pct, ratio, TextTable};
use crate::BenchError;
use pv_soc::device::Device;
use pv_stats::Summary;
use pv_units::MegaHertz;

/// Per-device outcome of the two workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceResult {
    /// Device label (`bin-0`, `device-363`, …).
    pub label: String,
    /// Mean iterations completed, UNCONSTRAINED workload.
    pub perf_mean: f64,
    /// RSD (%) of the UNCONSTRAINED performance across iterations.
    pub perf_rsd: f64,
    /// Mean workload energy (J), FIXED-FREQUENCY workload.
    pub energy_mean: f64,
    /// RSD (%) of the FIXED-FREQUENCY energy across iterations.
    pub energy_rsd: f64,
    /// RSD (%) of *performance* during FIXED-FREQUENCY — the paper's
    /// setup-reliability check (≤ ~1–3 %).
    pub fixed_perf_rsd: f64,
    /// Mean iterations completed, FIXED-FREQUENCY workload.
    pub fixed_perf_mean: f64,
    /// Mean workload energy (J) during the UNCONSTRAINED workload.
    pub perf_energy_mean: f64,
}

/// Result of a full study on one SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct SocStudy {
    /// SoC name (`SD-800` …).
    pub soc: &'static str,
    /// Handset model (`Nexus 5` …).
    pub model: &'static str,
    /// The fixed frequency used for the energy workload.
    pub fixed_freq: MegaHertz,
    /// One row per device, in fleet order.
    pub rows: Vec<DeviceResult>,
}

impl SocStudy {
    /// Performance of each device normalized to the fastest (the paper's
    /// Fig 6a/7a/8a/9a bars).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] on an empty study.
    pub fn perf_normalized(&self) -> Result<Vec<f64>, BenchError> {
        Ok(pv_stats::normalize_to_max(
            &self.rows.iter().map(|r| r.perf_mean).collect::<Vec<_>>(),
        )?)
    }

    /// Energy of each device normalized to the most frugal (the Fig
    /// 6b/7b/8b/9b bars).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] on an empty study.
    pub fn energy_normalized(&self) -> Result<Vec<f64>, BenchError> {
        Ok(pv_stats::normalize_to_min(
            &self.rows.iter().map(|r| r.energy_mean).collect::<Vec<_>>(),
        )?)
    }

    /// Peak-to-peak performance variation in percent of the best device —
    /// how the paper quotes "bin-0 is 14 % faster than bin-3".
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] on an empty study.
    pub fn perf_spread_percent(&self) -> Result<f64, BenchError> {
        let s = Summary::from_iter(self.rows.iter().map(|r| r.perf_mean))?;
        Ok(s.spread_percent_of_max())
    }

    /// Peak-to-peak energy variation in percent of the most frugal device —
    /// "consumes 19 % more energy to do the same amount of work".
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] on an empty study.
    pub fn energy_spread_percent(&self) -> Result<f64, BenchError> {
        let s = Summary::from_iter(self.rows.iter().map(|r| r.energy_mean))?;
        Ok(s.spread_percent_of_min())
    }

    /// Mean efficiency (iterations per joule) across the fleet during the
    /// UNCONSTRAINED workload — the Fig 13 metric (work delivered per joule
    /// under each SoC's own governor, as the paper measured it).
    pub fn mean_efficiency(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| {
                if r.perf_energy_mean > 0.0 {
                    r.perf_mean / r.perf_energy_mean
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Renders the study as the paper-style normalized table.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Stats`] on an empty study.
    pub fn render(&self) -> Result<String, BenchError> {
        let perf = self.perf_normalized()?;
        let energy = self.energy_normalized()?;
        let mut t = TextTable::new(vec![
            "device",
            "perf (norm)",
            "perf RSD",
            "energy (norm)",
            "energy RSD",
            "fixed-perf RSD",
        ]);
        for ((row, p), e) in self.rows.iter().zip(&perf).zip(&energy) {
            t.row(vec![
                row.label.clone(),
                ratio(*p),
                pct(row.perf_rsd / 100.0),
                ratio(*e),
                pct(row.energy_rsd / 100.0),
                pct(row.fixed_perf_rsd / 100.0),
            ]);
        }
        Ok(format!(
            "{} ({}) — perf spread {}, energy spread {}\n{}",
            self.soc,
            self.model,
            pct(self.perf_spread_percent()? / 100.0),
            pct(self.energy_spread_percent()? / 100.0),
            t
        ))
    }
}

/// One study to run: a fleet of one model plus the pinned step of its
/// FIXED-FREQUENCY workload.
#[derive(Debug, Clone)]
pub struct StudyPlan {
    /// SoC name (`SD-800` …).
    pub soc: &'static str,
    /// Handset model (`Nexus 5` …).
    pub model: &'static str,
    /// The devices, in the order their rows appear.
    pub fleet: Vec<Device>,
    /// The fixed frequency used for the energy workload.
    pub fixed_freq: MegaHertz,
}

/// One device's two back-to-back sessions: the unit of work a study fans
/// out.
pub(crate) struct DeviceTask {
    device: Device,
    fixed_freq: MegaHertz,
}

impl DeviceTask {
    /// Runs the UNCONSTRAINED then the FIXED-FREQUENCY session on the
    /// device.
    pub(crate) fn run(mut self, cfg: &ExperimentConfig) -> Result<DeviceResult, BenchError> {
        let device = &mut self.device;
        // UNCONSTRAINED: performance.
        let mut harness = Harness::new(
            cfg.scaled(Protocol::unconstrained()),
            Ambient::paper_chamber()?,
        )?;
        let perf_session = harness.run_session(device, cfg.iterations)?;
        let perf = perf_session.performance_summary()?;
        let perf_energy = perf_session.energy_summary()?;

        // FIXED-FREQUENCY: energy at equal work.
        device.reset_thermal(harness.ambient_temp())?;
        let mut harness = Harness::new(
            cfg.scaled(Protocol::fixed_frequency(self.fixed_freq)),
            Ambient::paper_chamber()?,
        )?;
        let fixed_session = harness.run_session(device, cfg.iterations)?;
        let energy = fixed_session.energy_summary()?;
        let fixed_perf = fixed_session.performance_summary()?;

        Ok(DeviceResult {
            label: device.label().to_owned(),
            perf_mean: perf.mean(),
            perf_rsd: perf.rsd_percent(),
            energy_mean: energy.mean(),
            energy_rsd: energy.rsd_percent(),
            fixed_perf_rsd: fixed_perf.rsd_percent(),
            fixed_perf_mean: fixed_perf.mean(),
            perf_energy_mean: perf_energy.mean(),
        })
    }
}

/// Studies whose rows are still to be filled, each with its fleet size.
pub(crate) type EmptyStudies = Vec<(SocStudy, usize)>;

/// Flattens the devices of every plan into one task list, returning each
/// study with its rows still empty.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] if any fleet is empty.
pub(crate) fn device_tasks(
    plans: Vec<StudyPlan>,
) -> Result<(EmptyStudies, Vec<DeviceTask>), BenchError> {
    let mut studies = Vec::with_capacity(plans.len());
    let mut tasks = Vec::new();
    for plan in plans {
        if plan.fleet.is_empty() {
            return Err(BenchError::InvalidProtocol("fleet is empty"));
        }
        let study = SocStudy {
            soc: plan.soc,
            model: plan.model,
            fixed_freq: plan.fixed_freq,
            rows: Vec::with_capacity(plan.fleet.len()),
        };
        studies.push((study, plan.fleet.len()));
        tasks.extend(plan.fleet.into_iter().map(|device| DeviceTask {
            device,
            fixed_freq: plan.fixed_freq,
        }));
    }
    Ok((studies, tasks))
}

/// Deals the rows of [`device_tasks`]' task list back to their studies.
pub(crate) fn fill_rows(
    studies: EmptyStudies,
    rows: impl IntoIterator<Item = DeviceResult>,
) -> Vec<SocStudy> {
    let mut rows = rows.into_iter();
    studies
        .into_iter()
        .map(|(mut study, n)| {
            study.rows.extend(rows.by_ref().take(n));
            study
        })
        .collect()
}

/// Runs the two-workload study of every plan, with the devices of all
/// plans fanned out as one task list on the sweep executor. Studies come
/// back in plan order, rows in fleet order.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] for an empty fleet, or the
/// first harness error in plan-then-fleet order.
pub fn run_soc_studies(
    plans: Vec<StudyPlan>,
    cfg: &ExperimentConfig,
) -> Result<Vec<SocStudy>, BenchError> {
    let (studies, tasks) = device_tasks(plans)?;
    let rows = par_map(tasks, |_, task| task.run(cfg))?;
    Ok(fill_rows(studies, rows))
}

/// Runs the two-workload study over a fleet of devices of one model.
///
/// # Errors
///
/// Returns [`BenchError::InvalidProtocol`] for an empty fleet, or any
/// harness error.
pub fn run_soc_study(
    soc: &'static str,
    model: &'static str,
    fleet: Vec<Device>,
    fixed_freq: MegaHertz,
    cfg: &ExperimentConfig,
) -> Result<SocStudy, BenchError> {
    let plan = StudyPlan {
        soc,
        model,
        fleet,
        fixed_freq,
    };
    run_one(plan, cfg)
}

fn run_one(plan: StudyPlan, cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
    let mut studies = run_soc_studies(vec![plan], cfg)?;
    Ok(studies.remove(0))
}

/// The paper's study plans: one table of fleet constructors and pinned
/// frequencies, shared by Figs 6–9, Table II, Fig 13 and the forecast.
pub mod plans {
    use super::*;
    use pv_soc::catalog::fleet;
    use pv_soc::SocError;

    /// A study recipe: which fleet to build and where to pin it.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct PlanSpec {
        pub(crate) soc: &'static str,
        pub(crate) model: &'static str,
        pub(crate) fleet: fn() -> Result<Vec<Device>, SocError>,
        /// The FIXED-FREQUENCY workload's pinned step.
        pub(crate) fixed_freq: MegaHertz,
    }

    impl PlanSpec {
        /// Builds the fleet into a runnable plan.
        fn plan(&self) -> Result<StudyPlan, BenchError> {
            Ok(StudyPlan {
                soc: self.soc,
                model: self.model,
                fleet: (self.fleet)()?,
                fixed_freq: self.fixed_freq,
            })
        }

        /// Runs this one study.
        fn run(&self, cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
            run_one(self.plan()?, cfg)
        }
    }

    /// Fig 6: SD-800 / Nexus 5, bins 0–3, fixed at 960 MHz.
    const SD_800: PlanSpec = PlanSpec {
        soc: "SD-800",
        model: "Nexus 5",
        fleet: fleet::nexus5_study,
        fixed_freq: MegaHertz(960.0),
    };

    /// SD-805 / Nexus 6 (no dedicated figure — "negligible variations",
    /// §IV-A1 — but needed for Table II and Fig 13), fixed at 1032 MHz.
    const SD_805: PlanSpec = PlanSpec {
        soc: "SD-805",
        model: "Nexus 6",
        fleet: fleet::nexus6_study,
        fixed_freq: MegaHertz(1032.0),
    };

    /// Fig 7: SD-810 / Nexus 6P, fixed at 384 MHz (both clusters share the
    /// step; the 20 nm part runs too hot for any higher pinned step to stay
    /// below its first trip).
    const SD_810: PlanSpec = PlanSpec {
        soc: "SD-810",
        model: "Nexus 6P",
        fleet: fleet::nexus6p_study,
        fixed_freq: MegaHertz(384.0),
    };

    /// Fig 8: SD-820 / LG G5, fixed at 998 MHz.
    const SD_820: PlanSpec = PlanSpec {
        soc: "SD-820",
        model: "LG G5",
        fleet: fleet::lg_g5_study,
        fixed_freq: MegaHertz(998.0),
    };

    /// Fig 9: SD-821 / Google Pixel, fixed at 998 MHz.
    const SD_821: PlanSpec = PlanSpec {
        soc: "SD-821",
        model: "Google Pixel",
        fleet: fleet::pixel_study,
        fixed_freq: MegaHertz(998.0),
    };

    /// The five studies of Table II, in release order.
    pub(crate) const PAPER: [PlanSpec; 5] = [SD_800, SD_805, SD_810, SD_820, SD_821];

    /// Builds every plan of `specs`, ready for [`run_soc_studies`].
    pub(crate) fn build(specs: &[PlanSpec]) -> Result<Vec<StudyPlan>, BenchError> {
        specs.iter().map(PlanSpec::plan).collect()
    }

    /// Fig 6: the SD-800 / Nexus 5 study.
    ///
    /// # Errors
    ///
    /// Propagates harness errors.
    pub fn nexus5(cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
        SD_800.run(cfg)
    }

    /// Fig 7: the SD-810 / Nexus 6P study.
    ///
    /// # Errors
    ///
    /// Propagates harness errors.
    pub fn nexus6p(cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
        SD_810.run(cfg)
    }

    /// Fig 8: the SD-820 / LG G5 study.
    ///
    /// # Errors
    ///
    /// Propagates harness errors.
    pub fn lg_g5(cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
        SD_820.run(cfg)
    }

    /// Fig 9: the SD-821 / Google Pixel study.
    ///
    /// # Errors
    ///
    /// Propagates harness errors.
    pub fn pixel(cfg: &ExperimentConfig) -> Result<SocStudy, BenchError> {
        SD_821.run(cfg)
    }
}

pv_json::impl_to_json!(DeviceResult {
    label,
    perf_mean,
    perf_rsd,
    energy_mean,
    energy_rsd,
    fixed_perf_rsd,
    fixed_perf_mean,
    perf_energy_mean
});
pv_json::impl_to_json!(SocStudy {
    soc,
    model,
    fixed_freq,
    rows
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fleet_rejected() {
        let cfg = ExperimentConfig::quick();
        assert!(run_soc_study("X", "Y", Vec::new(), MegaHertz(960.0), &cfg).is_err());
    }

    #[test]
    fn nexus5_study_shape_holds_at_quick_scale() {
        let cfg = ExperimentConfig::quick();
        let study = plans::nexus5(&cfg).unwrap();
        assert_eq!(study.rows.len(), 4);

        // bin-0 (slow, frugal silicon) is the best performer AND the most
        // frugal — the paper's §IV-A1 headline.
        let perf = study.perf_normalized().unwrap();
        let energy = study.energy_normalized().unwrap();
        assert!(
            (perf[0] - 1.0).abs() < 1e-9,
            "bin-0 should be fastest: {perf:?}"
        );
        assert!(
            (energy[0] - 1.0).abs() < 1e-9,
            "bin-0 should be most frugal: {energy:?}"
        );
        // Monotone orderings across bins.
        for w in perf.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "perf not monotone: {perf:?}");
        }
        for w in energy.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "energy not monotone: {energy:?}");
        }

        // Nonzero spreads in the right ballpark even at quick scale.
        let ps = study.perf_spread_percent().unwrap();
        let es = study.energy_spread_percent().unwrap();
        assert!(ps > 2.0, "perf spread {ps}%");
        assert!(es > 5.0, "energy spread {es}%");

        // Repeatability: fixed-frequency perf barely varies.
        let worst = study
            .rows
            .iter()
            .map(|r| r.fixed_perf_rsd)
            .fold(0.0, f64::max);
        assert!(worst < 3.0, "fixed-perf RSD {worst}");

        let rendered = study.render().unwrap();
        assert!(rendered.contains("bin-0"));
        assert!(rendered.contains("SD-800"));
    }
}
