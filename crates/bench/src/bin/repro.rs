//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--quick]
//! repro all [--quick]
//! repro list
//! ```
//!
//! `repro list` prints every experiment. `fig6`–`fig9` are four of the
//! five per-SoC studies behind `table2` and `fig13`; `repro all` runs the
//! five once and derives all six targets from that pass, as it derives
//! `fig4`/`fig5` and `fig11`/`fig12` from one run each.
//!
//! By default the paper's full protocol is used (3 min warmup, 5 min
//! workload, 5 iterations); `--quick` shrinks it for a fast smoke pass,
//! `--json` emits machine-readable results instead of text tables, and
//! `--export <dir>` additionally writes plot-ready `.dat` files for the
//! figure experiments.
//!
//! `--integrator <euler|rk4|exponential>` selects the thermal integration
//! scheme for every experiment (default: `euler`, the seed-era reference).
//! `exponential` is the fast path — a dense discrete-time propagator that
//! steps the whole RC network in one fused matrix-vector product (see
//! DESIGN.md §11); figure verdicts match the reference within the
//! documented tolerance. In debug builds `--verbose` prints the per-run
//! step/substep counters so the integrators' work can be compared.
//!
//! `--faults <plan.toml>` arms a fault-injection plan for the
//! session-based `rsd` experiment (other experiments ignore it and run
//! clean): sessions then exercise the harness's retry/quarantine path and
//! report per-session verdicts.
//!
//! Each experiment runs its independent device sessions on the sweep
//! executor (`executor::map_ordered`) at `executor::default_threads()`
//! workers, and merges them in device order, so the output is
//! bit-identical at any thread count. The worker count follows the CPU
//! affinity mask: `taskset -c 0 repro all` is the serial reference run.
//! See DESIGN.md §10.
//!
//! The `sweep` target runs a §VI crowd-population sweep over a fleet of
//! Pixel devices, and is where the durability options live:
//!
//! ```text
//! repro sweep [--quick] [--devices N] [--seed S] [--threads T] \
//!             [--journal run.journal] [--resume] [--json] \
//!             [--sample K] [--sample-strategy srs|rss|stratified] \
//!             [--sample-seed S] [--oracle] \
//!             [--max-task-seconds W] [--on-failure abort|quarantine] \
//!             [--chaos-seed S] [--chaos-panics N] [--chaos-stalls N] \
//!             [--storage-faults plan.toml] \
//!             [--storage-escalation degrade|abort]
//! repro fsck <journal> [--repair]
//! repro verify <dir>
//! ```
//!
//! With `--journal` every finished device is appended to a write-ahead
//! journal (fsynced, self-checksummed) before the sweep moves on, so the
//! process can be killed — Ctrl-C, SIGTERM, power loss — and re-run with
//! `--resume` to continue from the last journaled device; the final
//! report is bit-identical to an uninterrupted run. `--seed` arms
//! per-device pseudo-random fault injection to exercise the resilient
//! path. `--threads` (default: the host's available parallelism) fans
//! device sessions out across workers that claim devices in index order;
//! the report, database and journal stay bit-identical to `--threads 1`,
//! and an interrupted sweep journals every device it simulated.
//!
//! Every flag comes from one table that names the targets reading it. An
//! unknown, unread, repeated or value-less flag, or an extra argument,
//! fails with the usage text and exit status 1 (`list` tolerates flags).
//!
//! By default the sweep runs on the **streaming aggregation engine**
//! (DESIGN.md §16): per-worker partial aggregates (count/mean/M2 moments, a
//! fixed-bin score histogram, a bounded top-10 leaderboard) merged in a
//! canonical order on an absolute 64-device grid, so memory stays
//! O(bins + K + holes) however large the fleet, and the aggregate's bits —
//! like the journal's — are identical at any `--threads` and across
//! kill+resume. `--oracle` switches back to the exact full-fleet
//! [`CrowdDatabase`] path (every score retained in memory), the reference
//! the streaming engine is tested against.
//!
//! `--sample K` turns the sweep into a *subsampled census* of the
//! `--devices N` virtual population: only K devices are simulated, chosen
//! by `--sample-strategy` (default `stratified` — two-phase stratified over
//! the silicon-grade bins; `rss` is ranked-set sampling on grade; `srs` is
//! simple random sampling) under the deterministic `--sample-seed`. The
//! report then quotes mean/RSD/p50/p90 *estimates with 95 % bootstrap
//! confidence intervals* instead of exact fleet statistics (error bands:
//! DESIGN.md §16). The sampling plan enters the config digest, so a
//! sampled journal resumes only under the identical plan. `--sample`
//! requires the streaming engine (it is incompatible with `--oracle`).
//!
//! The sweep runs under the supervision layer (DESIGN.md §12):
//! `--max-task-seconds` arms a per-session wall-clock watchdog on top of
//! the always-armed simulated-time budget, and `--on-failure` picks the
//! escalation policy — `quarantine` (default) records the device as a
//! hole and completes the fleet `degraded` with exit 0; `abort` fails the
//! whole sweep on the first unrecovered device. `--chaos-panics` /
//! `--chaos-stalls` inject deterministic session panics and stalls into
//! `--chaos-seed`-chosen victims to exercise that machinery end to end.
//!
//! Storage durability (DESIGN.md §13): `--storage-faults <plan.toml>`
//! wraps the journal's filesystem in a deterministic fault injector
//! (`storage-enospc`, `storage-eio-transient`, `storage-eio-persistent`,
//! `storage-short-write`, `storage-fsync-lie`; `at`/`duration` count
//! storage operations, not seconds). The journal retries transients with
//! simulated-time backoff and rotates to a fresh segment on persistent
//! failures; when even that is exhausted, `--storage-escalation` decides:
//! `degrade` (default) stops journaling, finishes the sweep with exit 0
//! and reports the fleet `storage-degraded` — the sealed journal prefix
//! stays resumable — while `abort` fails the sweep with the I/O error.
//!
//! `repro fsck <journal>` verifies a run journal (all segments):
//! checksums, torn tails, header, duplicate outcomes. Exit 0 iff clean;
//! `--repair` truncates torn tails (the same healing `--resume` applies)
//! and re-checks. `repro verify <dir>` re-hashes an `--export` directory
//! against its manifest, naming each mismatched file with both checksums;
//! exit is non-zero on any mismatch.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, FleetVerdict, SamplePlan, SweepConfig,
};
use accubench::executor;
use accubench::experiments::study::{self, SocStudy};
use accubench::experiments::{self, ExperimentConfig};
use accubench::journal::Journal;
use accubench::protocol::Protocol;
use accubench::storage::{FaultyStorage, Storage, StorageEscalation};
use accubench::supervise::{OnFailure, SessionChaos, SupervisionPolicy};
use pv_faults::FaultPlan;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::sampling::{self, Strategy, StratumSample};
use pv_units::Seconds;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

#[path = "../sigint.rs"]
mod sigint;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "rsd",
    "cluster",
    "ablation",
    "ambient",
    "ranking",
    "lowerbound",
    "forecast",
    "load",
    "skin",
    "aging",
    "governor",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--json] [--export dir] \
         [--faults plan.toml] [--integrator euler|rk4|exponential] [--verbose]"
    );
    eprintln!(
        "       repro sweep [--quick] [--json] [--devices N] [--seed S] \
         [--threads T] [--journal run.journal] [--resume] \
         [--sample K] [--sample-strategy srs|rss|stratified] \
         [--sample-seed S] [--oracle] \
         [--integrator euler|rk4|exponential] \
         [--max-task-seconds W] [--on-failure abort|quarantine] \
         [--chaos-seed S] [--chaos-panics N] [--chaos-stalls N] \
         [--storage-faults plan.toml] [--storage-escalation degrade|abort]"
    );
    eprintln!("       repro fsck <journal> [--repair]");
    eprintln!("       repro verify <dir>");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    ExitCode::FAILURE
}

/// Flag kinds: a value flag's value is the token after it, never a
/// positional target.
const VALUE: bool = true;
const SWITCH: bool = false;

/// Reader sets: `experiments` stands for `all` and every experiment.
const EXPERIMENT: &[&str] = &["experiments"];
const SWEEP: &[&str] = &["sweep"];
const EXPERIMENT_OR_SWEEP: &[&str] = &["experiments", "sweep"];

/// A flag's name, whether it takes a value, and the targets that read it.
type Flag = (&'static str, bool, &'static [&'static str]);

/// Every flag `repro` knows. An unknown flag, or one the target does not
/// read, fails through [`usage`]; `list` reads none but tolerates all.
const FLAGS: &[Flag] = &[
    ("--quick", SWITCH, EXPERIMENT_OR_SWEEP),
    ("--json", SWITCH, EXPERIMENT_OR_SWEEP),
    ("--integrator", VALUE, EXPERIMENT_OR_SWEEP),
    ("--export", VALUE, EXPERIMENT),
    ("--faults", VALUE, EXPERIMENT),
    ("--verbose", SWITCH, EXPERIMENT),
    ("--devices", VALUE, SWEEP),
    ("--seed", VALUE, SWEEP),
    ("--journal", VALUE, SWEEP),
    ("--resume", SWITCH, SWEEP),
    ("--threads", VALUE, SWEEP),
    ("--max-task-seconds", VALUE, SWEEP),
    ("--on-failure", VALUE, SWEEP),
    ("--chaos-seed", VALUE, SWEEP),
    ("--chaos-panics", VALUE, SWEEP),
    ("--chaos-stalls", VALUE, SWEEP),
    ("--storage-faults", VALUE, SWEEP),
    ("--storage-escalation", VALUE, SWEEP),
    ("--sample", VALUE, SWEEP),
    ("--sample-strategy", VALUE, SWEEP),
    ("--sample-seed", VALUE, SWEEP),
    ("--oracle", SWITCH, SWEEP),
    ("--repair", SWITCH, &["fsck"]),
];

/// The command line, split once against [`FLAGS`].
struct Flags<'a> {
    /// Every flag given, with its value (`None` for a switch).
    given: Vec<(&'static Flag, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Splits `args` into flags and positional arguments. `Err` describes
    /// the first `--flag` that is unknown, repeated, or missing its value.
    fn parse(args: &'a [String]) -> Result<(Self, Vec<&'a str>), String> {
        let mut given: Vec<(&Flag, _)> = Vec::new();
        let mut positional = Vec::new();
        let mut tokens = args.iter().map(String::as_str);
        while let Some(arg) = tokens.next() {
            if let Some(flag) = FLAGS.iter().find(|f| f.0 == arg) {
                if given.iter().any(|(f, _)| f.0 == arg) {
                    return Err(format!("{arg} given more than once"));
                }
                // A switch consumes no token; a value flag the next one.
                let value = match flag.1.then(|| tokens.next()) {
                    Some(None) => return Err(format!("{arg} requires a value")),
                    value => value.flatten(),
                };
                given.push((flag, value));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                positional.push(arg);
            }
        }
        Ok((Flags { given }, positional))
    }

    /// The first flag given that `command` does not read.
    fn unread_by(&self, command: &str) -> Option<&'static str> {
        let unread = self.given.iter().find(|(f, _)| !f.2.contains(&command));
        unread.map(|(f, _)| f.0)
    }

    /// The value given for `flag`, which must be a value flag in [`FLAGS`].
    fn value(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(FLAGS.iter().any(|f| f.0 == flag && f.1 == VALUE));
        self.given
            .iter()
            .find(|(f, _)| f.0 == flag)
            .and_then(|g| g.1)
    }

    /// Whether `flag`, which must be a switch in [`FLAGS`], was given.
    fn switch(&self, flag: &str) -> bool {
        debug_assert!(FLAGS.iter().any(|f| f.0 == flag && f.1 == SWITCH));
        self.given.iter().any(|(f, _)| f.0 == flag)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = match Flags::parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let Some(&target) = positional.first() else {
        return usage();
    };
    // The reader-set name of `target` (see `FLAGS`).
    let command = match target {
        "list" | "sweep" | "fsck" | "verify" => target,
        _ => "experiments",
    };
    if command == "list" {
        println!("{}", EXPERIMENTS.join("\n"));
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = flags.unread_by(command) {
        eprintln!("{target}: {flag} has no effect on this target");
        return usage();
    }
    // Only `fsck` and `verify` take an operand (a path).
    let operand = match positional[1..] {
        [] => None,
        [path] if matches!(command, "fsck" | "verify") => Some(path),
        [.., extra] => {
            eprintln!("{target}: unexpected argument {extra}");
            return usage();
        }
    };
    let quick = flags.switch("--quick");
    let json = flags.switch("--json");
    let verbose = flags.switch("--verbose");
    let export_dir = flags.value("--export");
    let faults_path = flags.value("--faults");
    if command == "fsck" {
        let Some(path) = operand else {
            eprintln!("fsck: missing journal path");
            return usage();
        };
        return run_fsck(path, flags.switch("--repair"));
    }
    if command == "verify" {
        let Some(dir) = operand else {
            eprintln!("verify: missing export directory");
            return usage();
        };
        return match accubench::export::FigureExporter::verify(dir) {
            Ok(n) => {
                println!("verified {n} file(s) in {dir}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("verify: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(name) = flags.value("--integrator") {
        match pv_thermal::network::Integrator::parse(name) {
            Some(i) => cfg = cfg.with_integrator(i),
            None => {
                eprintln!("--integrator: unknown scheme {name:?} (euler|rk4|exponential)");
                return ExitCode::FAILURE;
            }
        }
    }
    if command == "sweep" {
        return run_sweep(&cfg, &flags);
    }
    let fault_plan = match faults_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match FaultPlan::from_toml_str(&text) {
                Ok(plan) => {
                    eprintln!("armed fault plan {path}: {} event(s)", plan.events.len());
                    Some(plan)
                }
                Err(e) => {
                    eprintln!("--faults: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("--faults: could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let emit = |value: pv_json::Json| {
        println!("{}", value.to_string_pretty());
    };
    let exporter = match export_dir {
        Some(dir) => match accubench::export::FigureExporter::new(dir) {
            Ok(e) => Some(e),
            Err(e) => {
                eprintln!("--export: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Results several targets share, each computed at most once: fig4 and
    // fig5 read one run, fig11 and fig12 another. Under `all`, the five
    // paper studies of table2 also serve fig6–fig9 and fig13; a single
    // study target runs only its own study.
    let (fig45_cell, fig1112_cell, table2_cell) =
        (OnceCell::new(), OnceCell::new(), OnceCell::new());
    let fig45 = || cached(&fig45_cell, || experiments::fig45::run(&cfg));
    let fig1112 = || cached(&fig1112_cell, || experiments::fig1112::run(&cfg));
    let table2 = || cached(&table2_cell, || experiments::table2::run(&cfg));
    let soc_study = |index: usize, alone: StudyRun| match target {
        "all" => Ok(table2()?.studies[index].clone()),
        _ => alone(&cfg),
    };
    let fig13 = || match target {
        "all" => Ok(experiments::fig13::from_studies(&table2()?.studies)),
        _ => experiments::fig13::run(&cfg),
    };
    let run_one = |name: &str| -> Result<(), accubench::BenchError> {
        if let Some(exporter) = &exporter {
            match name {
                "fig2" => {
                    let paths = exporter.export_fig2(&experiments::fig2::run(&cfg)?)?;
                    eprintln!("exported {} file(s) for fig2", paths.len());
                }
                "fig4" | "fig5" => {
                    let paths = exporter.export_fig45(fig45()?)?;
                    eprintln!("exported {} file(s) for fig4/fig5", paths.len());
                }
                "fig11" | "fig12" => {
                    let paths = exporter.export_fig1112(fig1112()?)?;
                    eprintln!("exported {} file(s) for fig11/fig12", paths.len());
                }
                "fig6" => {
                    exporter.export_study("fig6", &soc_study(0, study::plans::nexus5)?)?;
                }
                "fig7" => {
                    exporter.export_study("fig7", &soc_study(2, study::plans::nexus6p)?)?;
                }
                "fig8" => {
                    exporter.export_study("fig8", &soc_study(3, study::plans::lg_g5)?)?;
                }
                "fig9" => {
                    exporter.export_study("fig9", &soc_study(4, study::plans::pixel)?)?;
                }
                _ => {}
            }
        }
        if json {
            let value = match name {
                "table1" => pv_json::ToJson::to_json(&experiments::table1::run()?),
                "fig1" => pv_json::ToJson::to_json(&experiments::fig1::run(&cfg)?),
                "fig2" => pv_json::ToJson::to_json(&experiments::fig2::run(&cfg)?),
                "fig3" => pv_json::ToJson::to_json(&experiments::fig3::run(&cfg)?),
                "fig4" | "fig5" => pv_json::ToJson::to_json(fig45()?),
                "fig6" => pv_json::ToJson::to_json(&soc_study(0, study::plans::nexus5)?),
                "fig7" => pv_json::ToJson::to_json(&soc_study(2, study::plans::nexus6p)?),
                "fig8" => pv_json::ToJson::to_json(&soc_study(3, study::plans::lg_g5)?),
                "fig9" => pv_json::ToJson::to_json(&soc_study(4, study::plans::pixel)?),
                "fig10" => pv_json::ToJson::to_json(&experiments::fig10::run(&cfg)?),
                "fig11" | "fig12" => pv_json::ToJson::to_json(fig1112()?),
                "fig13" => pv_json::ToJson::to_json(&fig13()?),
                "table2" => pv_json::ToJson::to_json(table2()?),
                "rsd" => pv_json::ToJson::to_json(&experiments::rsd::run_with_faults(
                    &cfg,
                    fault_plan.as_ref(),
                )?),
                "cluster" => {
                    pv_json::ToJson::to_json(&experiments::cluster::run(&cfg, 30, 4, 2024)?)
                }
                "ablation" => pv_json::ToJson::to_json(&experiments::ablation::run(&cfg)?),
                "ambient" => pv_json::ToJson::to_json(&experiments::ambient_estimate::run(&cfg)?),
                "ranking" => pv_json::ToJson::to_json(&experiments::ranking::run(&cfg, 20, 2024)?),
                "lowerbound" => {
                    pv_json::ToJson::to_json(&experiments::lowerbound::run(&cfg, 500, 40, 31337)?)
                }
                "forecast" => pv_json::ToJson::to_json(&experiments::forecast::run(&cfg)?),
                "load" => pv_json::ToJson::to_json(&experiments::load_sensitivity::run(&cfg)?),
                "skin" => pv_json::ToJson::to_json(&experiments::skin::run(&cfg)?),
                "aging" => pv_json::ToJson::to_json(&experiments::aging::run(&cfg)?),
                "governor" => pv_json::ToJson::to_json(&experiments::governor_study::run(&cfg)?),
                other => {
                    eprintln!("unknown experiment: {other}");
                    return Err(accubench::BenchError::InvalidProtocol("unknown experiment"));
                }
            };
            emit(value);
            return Ok(());
        }
        match name {
            "table1" => {
                let t = experiments::table1::run()?;
                println!("{}", t.render());
                println!(
                    "worst model-vs-kernel deviation: {} mV\n",
                    t.worst_deviation_mv()
                );
            }
            "fig1" => {
                let f = experiments::fig1::run(&cfg)?;
                println!("{}", f.render());
                println!(
                    "paper: bin-4 ≈ +20% energy, ≈ +18-20% time vs bin-0; core shutdown at 80 °C",
                );
                println!(
                    "measured: worst-vs-best energy +{:.0}%, time +{:.0}%\n",
                    f.energy_excess_fraction() * 100.0,
                    f.time_excess_fraction() * 100.0
                );
            }
            "fig2" => {
                let f = experiments::fig2::run(&cfg)?;
                println!("{}", f.render());
                for s in &f.sweeps {
                    println!(
                        "{}: energy growth cool→hot {:.0}% (paper: 25-30%+)",
                        s.label,
                        s.energy_growth_fraction() * 100.0
                    );
                }
                println!();
            }
            "fig3" => {
                let f = experiments::fig3::run(&cfg)?;
                println!("{}", f.render());
                println!("paper: holds 26 ± 0.5 °C\n");
            }
            "fig4" => println!("{}", fig45()?.unconstrained.render()),
            "fig5" => println!("{}", fig45()?.fixed.render()),
            "fig6" => print_study(&soc_study(0, study::plans::nexus5)?, 14.0, 19.0)?,
            "fig7" => print_study(&soc_study(2, study::plans::nexus6p)?, 10.0, 12.0)?,
            "fig8" => print_study(&soc_study(3, study::plans::lg_g5)?, 4.0, 10.0)?,
            "fig9" => print_study(&soc_study(4, study::plans::pixel)?, 5.0, 9.0)?,
            "fig10" => {
                let f = experiments::fig10::run(&cfg)?;
                println!("{}", f.render());
                println!("paper: nominal-voltage Monsoon ≈ 20% throttled; 4.4 V ≈ battery",);
                println!(
                    "measured: nominal/battery {:.3}, max/battery {:.3}\n",
                    f.nominal_vs_battery(),
                    f.max_vs_battery()
                );
            }
            "fig11" => {
                println!("{}", fig1112()?.pixel.render());
                println!("paper: 7% perf gap matching the mean-frequency gap\n");
            }
            "fig12" => {
                println!("{}", fig1112()?.nexus5.render());
                println!("paper: 11% perf gap matching the mean-frequency gap\n");
            }
            "fig13" => {
                let f = fig13()?;
                println!("{}", f.render());
                println!(
                    "SD-805 dip (paper: present): {}; efficiency trend slope: {:+.3}/gen\n",
                    f.sd805_dip(),
                    f.trend()?.slope
                );
            }
            "table2" => println!("{}", table2()?.render()),
            "rsd" => {
                let r = experiments::rsd::run_with_faults(&cfg, fault_plan.as_ref())?;
                println!("{}", r.render());
                println!("paper: average 1.1% RSD over ~300 iterations\n");
            }
            "cluster" => {
                let c = experiments::cluster::run(&cfg, 30, 4, 2024)?;
                println!("{}", c.render());
            }
            "ablation" => {
                let a = experiments::ablation::run(&cfg)?;
                println!("{}", a.render());
            }
            "ambient" => {
                let a = experiments::ambient_estimate::run(&cfg)?;
                println!("{}", a.render());
                println!("paper (§VI): cooldown-based ambient estimation called 'encouraging'\n");
            }
            "ranking" => {
                let r = experiments::ranking::run(&cfg, 20, 2024)?;
                println!("{}", r.render());
            }
            "lowerbound" => {
                let mc = experiments::lowerbound::run(&cfg, 500, 40, 31337)?;
                println!("{}", mc.render()?);
                println!("paper (§VII): Table II spreads are minimum lower bounds\n");
            }
            "forecast" => {
                let f = experiments::forecast::run(&cfg)?;
                println!("{}", f.render()?);
            }
            "load" => {
                let l = experiments::load_sensitivity::run(&cfg)?;
                println!("{}", l.render());
            }
            "skin" => {
                let s = experiments::skin::run(&cfg)?;
                println!("{}", s.render());
            }
            "aging" => {
                let a = experiments::aging::run(&cfg)?;
                println!("{}", a.render());
                println!("paper (§IV-C): input-voltage throttling 'reminiscent of old iPhones being throttled'\n");
            }
            "governor" => {
                let g = experiments::governor_study::run(&cfg)?;
                println!("{}", g.render());
            }
            other => {
                eprintln!("unknown experiment: {other}");
                return Err(accubench::BenchError::InvalidProtocol("unknown experiment"));
            }
        }
        Ok(())
    };

    let targets: Vec<&str> = if target == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![target]
    };
    for t in targets {
        println!("==== {t} ====");
        if let Err(e) = run_one(t) {
            eprintln!("{t} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if verbose {
        #[cfg(debug_assertions)]
        {
            let (steps, substeps) = pv_thermal::network::step_stats::snapshot();
            eprintln!(
                "[step-stats] integrator={}: {steps} thermal steps, {substeps} substeps",
                cfg.integrator
            );
        }
        #[cfg(not(debug_assertions))]
        eprintln!("[step-stats] only collected in debug builds");
    }
    ExitCode::SUCCESS
}

/// Parses `--max-task-seconds` / `--on-failure` into a supervision policy.
fn parse_supervision(
    max_task_seconds: Option<&str>,
    on_failure: Option<&str>,
) -> Result<SupervisionPolicy, String> {
    let mut policy = SupervisionPolicy::default();
    if let Some(w) = max_task_seconds {
        match w.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => policy.max_wall_seconds = Some(secs),
            _ => return Err("--max-task-seconds must be a positive number".into()),
        }
    }
    if let Some(mode) = on_failure {
        policy.on_failure = OnFailure::parse(mode)
            .ok_or_else(|| format!("--on-failure: unknown policy {mode:?} (abort|quarantine)"))?;
    }
    Ok(policy)
}

/// Parses the `--chaos-*` flags into an optional session-chaos plan.
fn parse_chaos(
    seed: Option<&str>,
    panics: Option<&str>,
    stalls: Option<&str>,
) -> Result<Option<SessionChaos>, String> {
    let count = |arg: Option<&str>, flag: &str| -> Result<usize, String> {
        arg.map_or(Ok(0), |v| {
            v.parse()
                .map_err(|_| format!("{flag} must be a non-negative integer"))
        })
    };
    let panics = count(panics, "--chaos-panics")?;
    let stalls = count(stalls, "--chaos-stalls")?;
    if panics == 0 && stalls == 0 {
        if seed.is_some() {
            return Err("--chaos-seed needs --chaos-panics or --chaos-stalls".into());
        }
        return Ok(None);
    }
    let seed: u64 = match seed.map_or(Ok(0), str::parse) {
        Ok(s) => s,
        Err(_) => return Err("--chaos-seed must be an unsigned integer".into()),
    };
    Ok(Some(SessionChaos::new(seed, panics, stalls)))
}

/// Parses the `--sample*` flags into an optional sampling plan.
fn parse_sampling(
    sample: Option<&str>,
    strategy: Option<&str>,
    seed: Option<&str>,
    oracle: bool,
) -> Result<Option<SamplePlan>, String> {
    let Some(k) = sample else {
        if strategy.is_some() || seed.is_some() {
            return Err("--sample-strategy/--sample-seed need --sample <n>".into());
        }
        return Ok(None);
    };
    if oracle {
        return Err("--sample needs the streaming engine; drop --oracle".into());
    }
    let n: usize = match k.parse() {
        Ok(n) if n > 0 => n,
        _ => return Err("--sample must be a positive integer".into()),
    };
    let strategy = match strategy {
        None => Strategy::Stratified,
        Some(s) => Strategy::parse(s)
            .map_err(|_| format!("--sample-strategy: unknown design {s:?} (srs|rss|stratified)"))?,
    };
    let seed: u64 = match seed.map_or(Ok(0), str::parse) {
        Ok(s) => s,
        Err(_) => return Err("--sample-seed must be an unsigned integer".into()),
    };
    // `population` is filled in from --devices by run_sweep.
    Ok(Some(SamplePlan {
        population: 0,
        n,
        strategy,
        seed,
    }))
}

/// Speed grade of virtual device `i` in a population of `population`:
/// spread evenly across the binning range.
fn grade_of(i: usize, population: usize) -> f64 {
    0.05 + 0.9 * (i as f64) / (population.max(2) - 1) as f64
}

/// Builds sweep devices for the given population indices: Pixels graded by
/// [`grade_of`], labelled `pixel-crowd-NNN` by population index (so a
/// sampled fleet keeps its population identities).
fn fleet_of(
    indices: impl Iterator<Item = usize>,
    population: usize,
) -> Result<Vec<Device>, accubench::BenchError> {
    indices
        .map(|i| {
            catalog::pixel(grade_of(i, population), format!("pixel-crowd-{i:03}"))
                .map_err(Into::into)
        })
        .collect()
}

/// Prints what the journal committed, and its storage-health details,
/// after a sweep.
fn report_journal_health(journal: &Option<Journal>) {
    if let Some(j) = journal {
        let h = j.health();
        eprintln!(
            "journal: {} record(s) in {} commit(s)",
            h.records, h.commits
        );
        if !h.is_clean() {
            eprintln!(
                "journal storage health: {} retried write(s), {} segment rotation(s), \
                 {:.2}s simulated backoff",
                h.retries, h.rotations, h.backoff_sim_s,
            );
            for event in &h.events {
                eprintln!("  {event}");
            }
        }
    }
}

/// The `sweep` target: a journaled, interruptible, parallel, supervised
/// crowd-population sweep — streaming by default, exact with `--oracle`,
/// subsampled with `--sample`.
fn run_sweep(cfg: &ExperimentConfig, flags: &Flags<'_>) -> ExitCode {
    let supervision = match parse_supervision(
        flags.value("--max-task-seconds"),
        flags.value("--on-failure"),
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let chaos = match parse_chaos(
        flags.value("--chaos-seed"),
        flags.value("--chaos-panics"),
        flags.value("--chaos-stalls"),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let storage_escalation = match flags.value("--storage-escalation") {
        None => StorageEscalation::Degrade,
        Some(s) => match StorageEscalation::parse(s) {
            Some(e) => e,
            None => {
                eprintln!("--storage-escalation: unknown policy {s:?} (degrade|abort)");
                return ExitCode::FAILURE;
            }
        },
    };
    let storage_faults = match flags.value("--storage-faults") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match FaultPlan::from_toml_str(&text) {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("--storage-faults: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("--storage-faults: could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let oracle = flags.switch("--oracle");
    let sampling_plan = match parse_sampling(
        flags.value("--sample"),
        flags.value("--sample-strategy"),
        flags.value("--sample-seed"),
        oracle,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let journal_path = flags.value("--journal");
    let resume = flags.switch("--resume");
    let n: usize = match flags.value("--devices").map_or(Ok(100), str::parse) {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("--devices must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let seed: Option<u64> = match flags.value("--seed").map(str::parse).transpose() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("--seed must be an unsigned integer");
            return ExitCode::FAILURE;
        }
    };
    let threads: usize = match flags
        .value("--threads")
        .map_or(Ok(executor::default_threads()), str::parse)
    {
        Ok(t) if t > 0 => t,
        _ => {
            eprintln!("--threads must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    if resume && journal_path.is_none() {
        eprintln!("--resume requires --journal <path>");
        return ExitCode::FAILURE;
    }

    // `scaled` also pins the configured integrator, which the journal's
    // config digest covers: a journal written with one scheme cannot be
    // silently resumed with another.
    let protocol = cfg.scaled(Protocol::unconstrained());
    let mut sweep_cfg = SweepConfig::clean(protocol, cfg.iterations)
        .with_supervision(supervision)
        .with_storage_escalation(storage_escalation);
    if let Some(seed) = seed {
        let iteration = protocol.warmup.value() + protocol.workload.value() + 100.0;
        sweep_cfg = sweep_cfg.with_faults(
            seed,
            Seconds(iteration * 10.0),
            pv_faults::ALL_KINDS.to_vec(),
        );
    }
    if let Some(chaos) = chaos {
        sweep_cfg = sweep_cfg.with_chaos(chaos);
    }

    // Resolve the sampling plan against the population and select the
    // simulated subset. The selection is deterministic for the plan, so a
    // resumed run re-derives the identical device list (and the digest
    // guards against resuming under a different plan).
    let selection = match sampling_plan {
        None => None,
        Some(mut plan) => {
            if plan.n > n {
                eprintln!("--sample {} exceeds --devices {n}", plan.n);
                return ExitCode::FAILURE;
            }
            plan.population = n;
            let aux: Vec<f64> = (0..n).map(|i| grade_of(i, n)).collect();
            let strata = pv_silicon::binning::nexus5::N_BINS as usize;
            let sel = match sampling::select(plan.strategy, &aux, plan.n, strata, plan.seed) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("--sample: {e}");
                    return ExitCode::FAILURE;
                }
            };
            sweep_cfg = sweep_cfg.with_sampling(plan.clone());
            Some((plan, sel))
        }
    };

    // The journal's filesystem, optionally wrapped in the deterministic
    // storage fault injector.
    let storage = match &storage_faults {
        Some(plan) => {
            let armed = plan.events.iter().filter(|e| e.kind.is_storage()).count();
            eprintln!("armed storage fault plan: {armed} storage event(s)");
            Storage::new(Arc::new(FaultyStorage::new(Storage::os(), plan)))
        }
        None => Storage::os(),
    };
    let journal = match journal_path {
        Some(path) => match Journal::open_with(storage, path) {
            Ok(j) => {
                if j.dropped_bytes() > 0 {
                    eprintln!(
                        "journal {path}: dropped {} byte(s) of torn tail",
                        j.dropped_bytes()
                    );
                }
                if !j.recovered().is_empty() && !resume {
                    eprintln!(
                        "journal {path} already holds {} record(s); \
                         pass --resume to continue it or choose a fresh path",
                        j.recovered().len()
                    );
                    return ExitCode::FAILURE;
                }
                Some(j)
            }
            Err(e) => {
                eprintln!("--journal: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let devices = match &selection {
        Some((plan, sel)) => fleet_of(sel.indices.iter().copied(), plan.population),
        None => fleet_of(0..n, n),
    };
    let devices = match devices {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cancel = sigint::install();
    let sweeping = match &selection {
        Some((plan, _)) => format!(
            "sweeping {} sampled of {n} device(s) ({})",
            plan.n,
            plan.strategy.as_str()
        ),
        None => format!("sweeping {n} device(s)"),
    };
    eprintln!(
        "{sweeping}, {} iteration(s) each, {threads} thread(s){}{} ...",
        cfg.iterations,
        if oracle { ", oracle engine" } else { "" },
        journal_path.map_or_else(String::new, |p| format!(", journal {p}")),
    );

    if oracle {
        return run_sweep_oracle(devices, &sweep_cfg, journal, &cancel, threads, flags);
    }
    run_sweep_streamed(
        devices, &sweep_cfg, journal, &cancel, threads, flags, selection,
    )
}

/// The exact reference path: every score retained in a [`CrowdDatabase`].
fn run_sweep_oracle(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    mut journal: Option<Journal>,
    cancel: &accubench::journal::CancelToken,
    threads: usize,
    flags: &Flags<'_>,
) -> ExitCode {
    let json = flags.switch("--json");
    let journal_path = flags.value("--journal");
    let mut db = match CrowdDatabase::new(5.0) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = match populate_parallel(
        &mut db,
        "Pixel",
        devices,
        sweep_cfg,
        journal.as_mut(),
        cancel,
        threads,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if sweep.resumed > 0 {
        eprintln!("resumed {} journaled device(s)", sweep.resumed);
    }
    report_journal_health(&journal);
    if let Some(detail) = &sweep.storage_degraded {
        // Degrade policy: the sweep itself is whole (exit 0 below), but
        // only the sealed journal prefix survives a crash from here on.
        eprintln!("storage degraded: {detail}");
        eprintln!("fleet verdict: {}", sweep.fleet_verdict());
    }
    if json {
        println!(
            "{}",
            pv_json::ToJson::to_json(&sweep.report).to_string_pretty()
        );
    } else {
        println!("{}", sweep.report);
        if let Some(spread) = db.model_spread_percent("Pixel") {
            println!("model spread: {spread:.1}%");
        }
        if sweep.report.fleet_verdict() == FleetVerdict::Degraded {
            // Holes bias a plain mean, so a degraded fleet reports a
            // bootstrap interval computed over the survivors only.
            if let Ok(ci) = sweep.report.survivor_ci(&db, "Pixel") {
                println!(
                    "survivor score: {:.1} (95% bootstrap CI {:.1}..{:.1} over {} device(s))",
                    ci.point,
                    ci.lo,
                    ci.hi,
                    sweep.report.outcomes.len() - sweep.report.quarantined_devices(),
                );
            }
        }
    }
    if !sweep.complete {
        eprintln!(
            "interrupted after {} device(s); resume with: repro sweep --journal {} --resume",
            sweep.report.outcomes.len(),
            journal_path.unwrap_or("<path>"),
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The default streaming path: constant-memory mergeable aggregates, plus
/// sampled estimation when a `--sample` selection rode along.
fn run_sweep_streamed(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    mut journal: Option<Journal>,
    cancel: &accubench::journal::CancelToken,
    threads: usize,
    flags: &Flags<'_>,
    selection: Option<(SamplePlan, sampling::Selection)>,
) -> ExitCode {
    let json = flags.switch("--json");
    let journal_path = flags.value("--journal");
    let mut agg = match ScoreAggregate::new(5.0) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep = match populate_streamed(
        &mut agg,
        "Pixel",
        devices,
        sweep_cfg,
        journal.as_mut(),
        cancel,
        threads,
        1,
        selection.is_some(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if sweep.resumed > 0 {
        eprintln!("resumed {} journaled device(s)", sweep.resumed);
    }
    report_journal_health(&journal);
    if let Some(detail) = &sweep.storage_degraded {
        eprintln!("storage degraded: {detail}");
        eprintln!("fleet verdict: {}", sweep.fleet_verdict());
    }

    // Sampled estimation: group the retained scores back into the
    // selection's weighted strata (devices that quarantined simply leave
    // their stratum lighter) and bootstrap the population estimates.
    let estimates = selection.as_ref().and_then(|(plan, sel)| {
        let by_pop: HashMap<usize, f64> = sweep
            .retained
            .iter()
            .map(|&(idx, score)| (sel.indices[idx], score))
            .collect();
        let groups: Vec<StratumSample> = sel
            .groups
            .iter()
            .map(|g| StratumSample {
                weight: g.weight,
                values: g
                    .indices
                    .iter()
                    .filter_map(|i| by_pop.get(i).copied())
                    .collect(),
            })
            .collect();
        match sampling::estimate(&groups, 0.95, 1000, plan.seed) {
            Ok(est) => Some(est),
            Err(e) => {
                eprintln!("sampled estimation failed: {e}");
                None
            }
        }
    });

    if json {
        let mut obj = pv_json::Json::object();
        obj.insert("model", pv_json::ToJson::to_json(&sweep.model));
        obj.insert("devices", pv_json::ToJson::to_json(&sweep.devices));
        obj.insert("completed", pv_json::ToJson::to_json(&sweep.completed));
        obj.insert("holes", pv_json::ToJson::to_json(&sweep.holes.len()));
        obj.insert("complete", pv_json::ToJson::to_json(&sweep.complete));
        obj.insert("resumed", pv_json::ToJson::to_json(&sweep.resumed));
        obj.insert(
            "verdict",
            pv_json::Json::String(sweep.fleet_verdict().to_string()),
        );
        obj.insert("aggregate", pv_json::ToJson::to_json(&agg));
        if let Some((plan, _)) = &selection {
            let mut p = pv_json::Json::object();
            p.insert("population", pv_json::ToJson::to_json(&plan.population));
            p.insert("n", pv_json::ToJson::to_json(&plan.n));
            p.insert(
                "strategy",
                pv_json::Json::String(plan.strategy.as_str().to_owned()),
            );
            p.insert("seed", pv_json::ToJson::to_json(&plan.seed));
            obj.insert("sampling", p);
        }
        if let Some(est) = &estimates {
            obj.insert("estimates", pv_json::ToJson::to_json(est));
        }
        println!("{}", obj.to_string_pretty());
    } else {
        print!("{sweep}");
        render_streamed_stats(&agg);
        if sweep.fleet_verdict() == FleetVerdict::Degraded {
            // Holes bias a plain mean; quote the survivors-only interval
            // (normal approximation — the streaming path holds no raw
            // scores to bootstrap).
            if let Ok(ci) = sweep.survivor_ci() {
                println!(
                    "survivor score: {:.1} (95% CI {:.1}..{:.1} over {} device(s))",
                    ci.point,
                    ci.lo,
                    ci.hi,
                    agg.accepted(),
                );
            }
        }
        if let (Some((plan, _)), Some(est)) = (&selection, &estimates) {
            println!(
                "sampled estimates ({} n={} of {}; 95% bootstrap CI):",
                plan.strategy.as_str(),
                est.n,
                plan.population
            );
            println!(
                "  mean score: {:.1}  [{:.1}, {:.1}]",
                est.mean.point, est.mean.lo, est.mean.hi
            );
            println!(
                "  RSD:        {:.2}% [{:.2}%, {:.2}%]",
                est.rsd_percent.point, est.rsd_percent.lo, est.rsd_percent.hi
            );
            println!(
                "  p50:        {:.1}  [{:.1}, {:.1}]",
                est.p50.point, est.p50.lo, est.p50.hi
            );
            println!(
                "  p90:        {:.1}  [{:.1}, {:.1}]",
                est.p90.point, est.p90.lo, est.p90.hi
            );
        }
    }
    if !sweep.complete {
        eprintln!(
            "interrupted after {} device(s); resume with: repro sweep --journal {} --resume",
            sweep.processed,
            journal_path.unwrap_or("<path>"),
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints the streaming aggregate's fleet statistics.
fn render_streamed_stats(agg: &ScoreAggregate) {
    if let (Ok(mean), Ok(rsd)) = (agg.mean(), agg.rsd_percent()) {
        println!("fleet mean score: {mean:.1} (RSD {rsd:.2}%)");
    }
    let hist = agg.histogram();
    let (lo, hi) = (hist.bin_edge(0), hist.bin_edge(hist.bins()));
    if let (Some(p50), Some(p90)) = (agg.approx_quantile(0.50), agg.approx_quantile(0.90)) {
        println!(
            "approx p50 {p50:.0}, p90 {p90:.0} (histogram resolution {:.0})",
            (hi - lo) / hist.bins() as f64
        );
    }
    let oor = agg.out_of_range_fraction();
    if oor > 0.01 {
        eprintln!(
            "warning: {:.1}% of scores outside the [{lo}, {hi}] \
             histogram range; quantiles are clamped",
            oor * 100.0
        );
    }
}

/// The `fsck` target: verify a run journal across all its segments, and
/// with `--repair` truncate torn tails (the same healing `--resume`
/// applies) and re-check. Exit 0 iff the journal ends up clean.
fn run_fsck(path: &str, repair: bool) -> ExitCode {
    let report = match accubench::journal::fsck(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fsck: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");
    if report.is_clean() {
        println!("{path}: clean");
        return ExitCode::SUCCESS;
    }
    if !repair {
        eprintln!("{path}: dirty; `repro fsck {path} --repair` truncates torn tails");
        return ExitCode::FAILURE;
    }
    // Opening the journal performs exactly the repair `--resume` would:
    // every segment's torn tail is truncated away.
    match Journal::open(path) {
        Ok(j) => eprintln!(
            "repaired: {} record(s) kept across {} segment(s)",
            j.recovered().len(),
            j.segments().len(),
        ),
        Err(e) => {
            eprintln!("fsck --repair: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match accubench::journal::fsck(path) {
        Ok(r) => {
            println!("{r}");
            if r.is_clean() {
                println!("{path}: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("{path}: still dirty after repair (not a torn-tail problem)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fsck: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one per-SoC study by itself (one of the `study::plans` functions).
type StudyRun = fn(&ExperimentConfig) -> Result<SocStudy, accubench::BenchError>;

/// The value in `cell`, computed by `compute` on first use.
fn cached<T, E>(cell: &OnceCell<T>, compute: impl FnOnce() -> Result<T, E>) -> Result<&T, E> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = compute()?;
    Ok(cell.get_or_init(|| value))
}

fn print_study(
    s: &SocStudy,
    paper_perf: f64,
    paper_energy: f64,
) -> Result<(), accubench::BenchError> {
    println!("{}", s.render()?);
    println!(
        "paper: perf variation {paper_perf:.0}%, energy variation {paper_energy:.0}% | measured: perf {:.1}%, energy {:.1}%\n",
        s.perf_spread_percent()?,
        s.energy_spread_percent()?
    );
    Ok(())
}
