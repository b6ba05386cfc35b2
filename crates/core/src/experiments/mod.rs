//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each submodule regenerates one artifact (see DESIGN.md §4 for the full
//! index with workloads, parameters and tolerances):
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table I — Nexus 5 voltage/frequency ladder across bins |
//! | [`fig1`] | Fig 1 — energy/time/temperature across Nexus 5 bins (fixed work) |
//! | [`fig2`] | Fig 2 — energy vs ambient temperature on two devices |
//! | [`fig3`] | Fig 3 — THERMABOX regulation quality |
//! | [`fig45`] | Figs 4/5 — ACCUBENCH phase timelines (UNCONSTRAINED / FIXED-FREQUENCY) |
//! | [`study`] | Figs 6–9 — per-SoC performance & energy variation studies |
//! | [`fig10`] | Fig 10 — LG G5 input-voltage throttling anomaly |
//! | [`fig1112`] | Figs 11/12 — frequency/temperature distributions |
//! | [`fig13`] | Fig 13 — relative efficiency across SoC generations |
//! | [`table2`] | Table II — summary of energy-performance variations |
//! | [`rsd`] | §VII — methodology repeatability (≈1.1 % average RSD) |
//! | [`cluster`] | §VI future work — k-means bin inference from crowd data |
//! | [`ambient_estimate`] | §VI future work — ambient recovery from cooldown curves |
//! | [`ranking`] | §VI future work — crowdsourced filtering, binning and ranking |
//! | [`lowerbound`] | §VII — Monte Carlo quantification of the lower-bound claim |
//! | [`forecast`] | beyond the paper — Fig 13 extended to a 10 nm part |
//! | [`load_sensitivity`] | beyond the paper — variation vs workload intensity |
//! | [`governor_study`] | beyond the paper — variation under demand-driven governors |
//! | [`skin`] | beyond the paper — skin temperature across bins (§V motivation) |
//! | [`aging`] | §IV-C discussion — battery aging vs input-voltage throttling |
//! | [`ablation`] | DESIGN.md §5 — leakage-feedback / warmup / chamber ablations |
//!
//! Every artifact is built from independent device sessions: each device
//! runs its own warmup → cooldown → workload in its own chamber, a pure,
//! seeded function of the device. The outermost per-device (or per-die,
//! per-configuration) loop of each session-bound artifact therefore fans
//! out on the sweep executor through one crate-private helper, `par_map`, at
//! [`executor::default_threads`] workers, and merges the results in item
//! order. Output is bit-identical at any thread count; a process pinned
//! to one CPU (`taskset -c 0`) runs the serial reference path. Work that
//! depends on order (crowd-database submissions, k-means, resampling RNG)
//! stays on the caller, after the map. See DESIGN.md §10.

pub mod ablation;
pub mod aging;
pub mod ambient_estimate;
pub mod cluster;
pub mod fig1;
pub mod fig10;
pub mod fig1112;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod forecast;
pub mod governor_study;
pub mod load_sensitivity;
pub mod lowerbound;
pub mod ranking;
pub mod rsd;
pub mod skin;
pub mod study;
pub mod table1;
pub mod table2;
mod target;

pub use target::{run, Target};

use crate::executor;
use crate::journal::CancelToken;
use crate::protocol::Protocol;
use pv_thermal::network::Integrator;
use pv_units::Seconds;

/// Runs `task` over every item on the sweep executor and returns the
/// results in item order, or the first error in item order — exactly what
/// a serial `for` loop with `?` returns. Tasks must be pure functions of
/// `(index, item)`; order-sensitive work belongs on the caller, after the
/// map. Only an artifact's outermost loop fans out: a task never calls
/// `par_map` itself.
pub(crate) fn par_map<T, R, E, F>(items: Vec<T>, task: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(usize, T) -> Result<R, E> + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    executor::map_ordered(
        items,
        threads(),
        &CancelToken::new(),
        task,
        |_, result: Result<R, E>| {
            results.push(result?);
            Ok(())
        },
    )?;
    Ok(results)
}

/// Worker count for [`par_map`]: the host's available parallelism, which
/// honours the process's CPU affinity mask.
#[cfg(not(test))]
fn threads() -> usize {
    executor::default_threads()
}

#[cfg(test)]
thread_local! {
    /// Test-only override of [`par_map`]'s worker count on this thread.
    static THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn threads() -> usize {
    THREADS
        .with(std::cell::Cell::get)
        .unwrap_or_else(executor::default_threads)
}

/// Runs `f` with every [`par_map`] it reaches on this thread pinned to
/// `threads` workers.
#[cfg(test)]
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREADS.with(|t| t.replace(Some(threads)));
    let result = f();
    THREADS.with(|t| t.set(previous));
    result
}

/// How long and how often to run each experiment.
///
/// [`ExperimentConfig::paper`] is the full §III protocol (3 min warmup,
/// 5 min workload, 5 iterations). [`ExperimentConfig::quick`] shrinks the
/// phase durations and iteration count so the whole suite fits in a test
/// run; the *shape* conclusions (who wins, by roughly how much) hold at
/// both scales because the devices reach thermal quasi-steady state well
/// within the shortened windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Multiplier on warmup/workload durations (1.0 = paper lengths).
    pub scale: f64,
    /// Back-to-back iterations per device per workload (paper: 5).
    pub iterations: usize,
    /// Thermal integration scheme every experiment protocol runs with
    /// (default: the Euler reference; see `Protocol::integrator`).
    pub integrator: Integrator,
}

impl ExperimentConfig {
    /// The paper's full protocol.
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            iterations: 5,
            integrator: Integrator::Euler,
        }
    }

    /// A shrunk configuration for fast test runs.
    pub fn quick() -> Self {
        Self {
            scale: 0.45,
            iterations: 2,
            integrator: Integrator::Euler,
        }
    }

    /// Selects the thermal integration scheme (builder-style).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Applies the scale and integrator to a protocol — the single funnel
    /// every experiment's protocol passes through.
    pub fn scaled(&self, protocol: Protocol) -> Protocol {
        protocol
            .with_warmup(Seconds(protocol.warmup.value() * self.scale))
            .with_workload(Seconds(protocol.workload.value() * self.scale))
            .with_integrator(self.integrator)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl pv_json::ToJson for ExperimentConfig {
    fn to_json(&self) -> pv_json::Json {
        let mut obj = pv_json::Json::object();
        obj.insert("scale", pv_json::ToJson::to_json(&self.scale));
        obj.insert("iterations", pv_json::ToJson::to_json(&self.iterations));
        obj.insert(
            "integrator",
            pv_json::Json::String(self.integrator.as_str().to_owned()),
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_json::ToJson;

    #[test]
    fn scaling_shrinks_phases() {
        let cfg = ExperimentConfig {
            scale: 0.5,
            iterations: 3,
            integrator: Integrator::Euler,
        };
        let p = cfg.scaled(Protocol::unconstrained());
        assert_eq!(p.warmup, Seconds(90.0));
        assert_eq!(p.workload, Seconds(150.0));
    }

    /// Every artifact whose sessions fan out through [`par_map`], as
    /// compact JSON, at tiny sizes.
    fn parallel_artifacts(cfg: &ExperimentConfig) -> Vec<(&'static str, String)> {
        fn json<T: pv_json::ToJson>(result: Result<T, crate::BenchError>) -> String {
            result.unwrap().to_json().to_string_compact()
        }
        vec![
            ("fig1", json(fig1::run(cfg))),
            ("fig6", json(study::plans::nexus5(cfg))),
            ("fig7", json(study::plans::nexus6p(cfg))),
            ("fig10", json(fig10::run(cfg))),
            ("fig13", json(fig13::run(cfg))),
            ("table2", json(table2::run(cfg))),
            ("forecast", json(forecast::run(cfg))),
            ("ablation", json(ablation::run(cfg))),
            ("ranking", json(ranking::run(cfg, 5, 11))),
            ("cluster", json(cluster::run(cfg, 6, 2, 7))),
            ("lowerbound", json(lowerbound::run(cfg, 40, 6, 3))),
            ("rsd", json(rsd::run(cfg))),
        ]
    }

    #[test]
    fn artifacts_are_bit_identical_at_any_thread_count() {
        for integrator in [Integrator::Euler, Integrator::Exponential] {
            let cfg = ExperimentConfig {
                scale: 0.1,
                iterations: 1,
                integrator,
            };
            let serial = with_threads(1, || parallel_artifacts(&cfg));
            let parallel = with_threads(3, || parallel_artifacts(&cfg));
            for ((name, a), (_, b)) in serial.iter().zip(&parallel) {
                assert!(
                    a == b,
                    "{name} differs between 1 and 3 threads ({integrator:?})"
                );
            }
        }
    }

    #[test]
    fn faulty_rsd_is_bit_identical_at_any_thread_count() {
        use pv_faults::{FaultKind, FaultPlan};
        let cfg = ExperimentConfig {
            scale: 0.1,
            iterations: 2,
            integrator: Integrator::Euler,
        };
        let plan = FaultPlan::generate(
            5,
            600.0,
            20.0,
            &[
                FaultKind::ProbeDropout,
                FaultKind::ProbeSpike,
                FaultKind::MeterMissedSample,
                FaultKind::ChamberControllerStall,
                FaultKind::ThrottleGlitch,
            ],
        );
        assert!(!plan.events.is_empty());
        let run = |threads| {
            with_threads(threads, || rsd::run_with_faults(&cfg, Some(&plan)))
                .unwrap()
                .to_json()
                .to_string_compact()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn par_map_keeps_item_order() {
        for threads in [1, 3] {
            let squares: Result<Vec<usize>, ()> = with_threads(threads, || {
                par_map((0..50).collect(), |i, x: usize| Ok(i * x))
            });
            assert_eq!(squares, Ok((0..50).map(|x| x * x).collect()));
        }
    }

    #[test]
    fn par_map_returns_the_first_error_in_index_order() {
        for threads in [1, 3] {
            // Task 7 is slow, so at 3 threads task 31 fails first in time;
            // the error reported is still task 7's.
            let result: Result<Vec<usize>, usize> = with_threads(threads, || {
                par_map((0..40).collect(), |i, x: usize| match i {
                    7 => {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Err(x)
                    }
                    31 => Err(x),
                    _ => Ok(x),
                })
            });
            assert_eq!(result, Err(7), "{threads} thread(s)");
        }
    }

    #[test]
    fn paper_config_is_default() {
        assert_eq!(ExperimentConfig::default(), ExperimentConfig::paper());
        assert_eq!(ExperimentConfig::paper().iterations, 5);
        assert!(ExperimentConfig::quick().scale < 1.0);
    }
}
