//! `repro` — regenerates every table and figure of the paper, and runs the
//! §VI crowd sweep. The flags are listed by the usage text (`repro` with
//! no argument); this is what they mean.
//!
//! `repro <experiment>` runs one target and `repro all` runs every target
//! that `repro list` names, through `accubench::experiments::run`. By
//! default each uses the paper's full protocol (3 min warmup, 5 min
//! workload, 5 iterations); `--quick` shrinks it for a smoke pass.
//! `--json` prints JSON instead of text tables; `--export <dir>` also
//! writes plot-ready `.dat` files and a checksum manifest, which `repro
//! verify <dir>` re-checks. `--integrator` picks the thermal scheme
//! (default `euler`; `exponential` is the fast path, DESIGN.md §11).
//! `--faults` arms a fault plan for the `rsd` sessions only, and refuses
//! a plan with a session or storage kind, which those sessions cannot
//! apply (DESIGN.md §8). In debug builds `--verbose` prints the thermal
//! step counters.
//!
//! Every experiment fans its device sessions out at the host's available
//! parallelism and merges them in device order, so output is
//! bit-identical at any thread count; `taskset -c 0 repro all` is the
//! serial reference (DESIGN.md §10).
//!
//! `repro sweep` runs a fleet of graded Pixels:
//! - `--journal` appends every finished device to a fsynced,
//!   self-checksummed journal, and `--resume` continues a killed run to a
//!   report bit-identical to an uninterrupted one, at any `--threads`;
//! - `--seed` arms per-device pseudo-random faults;
//! - the default engine streams mergeable aggregates in constant memory
//!   (DESIGN.md §16); `--oracle` keeps every score instead;
//! - `--sample K` simulates K of the `--devices` population and reports
//!   bootstrap confidence intervals;
//! - `--max-task-seconds` and `--on-failure` supervise sessions, and the
//!   `--chaos-*` flags inject panics and stalls (DESIGN.md §12);
//! - `--storage-faults` injects filesystem faults under the journal and
//!   refuses a plan with any other kind, and `--storage-escalation` says
//!   what happens when healing runs out (DESIGN.md §13).
//!
//! `repro fsck <journal>` checks a journal; `--repair` truncates torn
//! tails, as `--resume` does.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, FleetVerdict, SamplePlan, StreamedSweep,
    SweepConfig, SweepReport,
};
use accubench::executor;
use accubench::experiments::{self, ExperimentConfig, Target};
use accubench::export::FigureExporter;
use accubench::journal::{CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::storage::StorageEscalation;
use accubench::supervise::{SessionChaos, SupervisionPolicy};
use pv_bench::cli::{open_journal, write_failed, Flags, REPRO};
use pv_faults::FaultKind;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::sampling::{self, Estimates, Strategy, StratumSample};
use pv_thermal::network::Integrator;
use pv_units::Seconds;
use std::collections::HashMap;
use std::io::{self, Write};
use std::process::ExitCode;

#[path = "../sigint.rs"]
mod sigint;

/// Prints `reason` (when there is one) and the usage text, and fails.
fn usage(reason: &str) -> ExitCode {
    if !reason.is_empty() {
        eprintln!("{reason}");
    }
    eprint!("{}", REPRO.usage());
    let names: Vec<&str> = Target::ALL.iter().map(|t| t.name()).collect();
    eprintln!("experiments: {}", names.join(" "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = match REPRO.parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    let Some(&name) = positional.first() else {
        return usage("");
    };
    if name == "list" {
        return finish(run_list());
    }
    let (command, operands, stray) = REPRO.command(&positional);
    if let Err(e) = flags.check(command, stray) {
        return usage(&format!("{name}: {e}"));
    }
    finish(match (command, operands.first()) {
        ("fsck", Some(path)) => run_fsck(path, flags.switch("--repair")),
        ("fsck", None) => return usage("fsck: missing journal path"),
        ("verify", Some(dir)) => run_verify(dir),
        ("verify", None) => return usage("verify: missing export directory"),
        ("sweep", _) => run_sweep(&flags),
        _ => match Target::select(name) {
            Some(targets) => run_experiments(targets, &flags),
            None => return usage(&format!("unknown experiment: {name}")),
        },
    })
}

/// The exit code of a target's `result`, printing its error if it failed.
fn finish(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// The `list` target: every experiment's name, one a line.
fn run_list() -> Result<ExitCode, String> {
    let mut out = io::stdout().lock();
    for target in Target::ALL {
        writeln!(out, "{target}").map_err(write_failed)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The protocol scale and integrator `--quick` and `--integrator` select.
fn experiment_config(flags: &Flags<'_>) -> Result<ExperimentConfig, String> {
    let cfg = if flags.switch("--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    let integrator = flags.choice("--integrator", Integrator::parse)?;
    Ok(integrator.map_or(cfg, |i| cfg.with_integrator(i)))
}

/// Runs the experiment `targets` and prints them.
fn run_experiments(targets: &[Target], flags: &Flags<'_>) -> Result<ExitCode, String> {
    let cfg = experiment_config(flags)?;
    let instrument = |k| pv_faults::ALL_KINDS.contains(&k);
    let fault_plan = flags
        .fault_plan("--faults", instrument)?
        .map(|(plan, _)| plan);
    if let (Some(plan), Some(path)) = (&fault_plan, flags.value("--faults")) {
        eprintln!("armed fault plan {path}: {} event(s)", plan.events.len());
    }
    let export_dir = flags.value("--export");
    let exporter = export_dir
        .map(FigureExporter::new)
        .transpose()
        .map_err(|e| format!("--export: {e}"))?;
    let (faults, json) = (fault_plan.as_ref(), flags.switch("--json"));
    let mut stdout = io::stdout().lock();
    let files = experiments::run(targets, &cfg, faults, exporter.as_ref(), json, &mut stdout)
        .map_err(|(target, e)| format!("{target} failed: {e}"))?;
    if let Some(dir) = export_dir {
        eprintln!("exported {files} file(s) to {dir}");
    }
    if flags.switch("--verbose") {
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
    Ok(ExitCode::SUCCESS)
}

/// The `verify` target: re-hashes an `--export` directory against its
/// manifest.
fn run_verify(dir: &str) -> Result<ExitCode, String> {
    let n = FigureExporter::verify(dir).map_err(|e| format!("verify: {e}"))?;
    writeln!(io::stdout(), "verified {n} file(s) in {dir}").map_err(write_failed)?;
    Ok(ExitCode::SUCCESS)
}

/// Reads the `--chaos-*` flags into an optional session-chaos plan.
fn chaos(flags: &Flags<'_>) -> Result<Option<SessionChaos>, String> {
    let seed = flags.unsigned("--chaos-seed")?;
    let panics = flags.count("--chaos-panics")?.unwrap_or(0);
    let stalls = flags.count("--chaos-stalls")?.unwrap_or(0);
    if panics == 0 && stalls == 0 {
        if seed.is_some() {
            return Err("--chaos-seed needs --chaos-panics or --chaos-stalls".into());
        }
        return Ok(None);
    }
    Ok(Some(SessionChaos::new(seed.unwrap_or(0), panics, stalls)))
}

/// Reads the `--sample*` flags into an optional sampling plan over a
/// population of `population` devices.
fn sampling_plan(flags: &Flags<'_>, population: usize) -> Result<Option<SamplePlan>, String> {
    let strategy = flags.choice("--sample-strategy", |s| Strategy::parse(s).ok())?;
    let seed = flags.unsigned("--sample-seed")?;
    let Some(n) = flags.positive_integer("--sample")? else {
        if strategy.is_some() || seed.is_some() {
            return Err("--sample-strategy/--sample-seed need --sample <n>".into());
        }
        return Ok(None);
    };
    if flags.switch("--oracle") {
        return Err("--sample needs the streaming engine; drop --oracle".into());
    }
    if n > population {
        return Err(format!("--sample {n} exceeds --devices {population}"));
    }
    Ok(Some(SamplePlan {
        population,
        n,
        strategy: strategy.unwrap_or(Strategy::Stratified),
        seed: seed.unwrap_or(0),
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

/// What both sweep engines report once they have printed their results.
struct SweepEnd {
    resumed: usize,
    storage_degraded: Option<String>,
    verdict: FleetVerdict,
    complete: bool,
    /// Devices with an outcome when the sweep stopped.
    processed: usize,
}

/// The `sweep` target: a journaled, interruptible, parallel, supervised
/// crowd-population sweep — streaming by default, exact with `--oracle`,
/// subsampled with `--sample`.
fn run_sweep(flags: &Flags<'_>) -> Result<ExitCode, String> {
    let journal_path = flags.value("--journal");
    let resume = flags.switch("--resume");
    if journal_path.is_none() {
        // Each of these acts only on the journal: without one it would be
        // silently ignored.
        let journal_only = ["--resume", "--storage-faults", "--storage-escalation"];
        if let Some(flag) = journal_only.iter().find(|flag| flags.switch(flag)) {
            return Err(format!("{flag} requires --journal <path>"));
        }
    }
    let cfg = experiment_config(flags)?;
    let supervision = flags.supervision(SupervisionPolicy::default())?;
    let chaos = chaos(flags)?;
    let storage_escalation = flags
        .choice("--storage-escalation", StorageEscalation::parse)?
        .unwrap_or(StorageEscalation::Degrade);
    let storage_faults = flags
        .fault_plan("--storage-faults", FaultKind::is_storage)?
        .map(|(plan, _)| plan);
    let n = flags.positive_integer("--devices")?.unwrap_or(100);
    let sampling_plan = sampling_plan(flags, n)?;
    let seed = flags.unsigned("--seed")?;
    let threads = flags
        .positive_integer("--threads")?
        .unwrap_or_else(executor::default_threads);
    let oracle = flags.switch("--oracle");

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

    // Select the simulated subset. The selection is deterministic for the
    // plan, so a resumed run re-derives the identical device list (and the
    // digest guards against resuming under a different plan).
    let selection = match sampling_plan {
        None => None,
        Some(plan) => {
            let aux: Vec<f64> = (0..n).map(|i| grade_of(i, n)).collect();
            let strata = pv_silicon::binning::nexus5::N_BINS as usize;
            let sel = sampling::select(plan.strategy, &aux, plan.n, strata, plan.seed)
                .map_err(|e| format!("--sample: {e}"))?;
            sweep_cfg = sweep_cfg.with_sampling(plan.clone());
            Some((plan, sel))
        }
    };

    if let Some(plan) = &storage_faults {
        let armed = plan.events.len();
        eprintln!("armed storage fault plan: {armed} storage event(s)");
    }
    let mut journal = journal_path
        .map(|path| open_journal(path, storage_faults.as_ref(), resume))
        .transpose()?;

    let devices = match &selection {
        Some((plan, sel)) => fleet_of(sel.indices.iter().copied(), plan.population),
        None => fleet_of(0..n, n),
    }
    .map_err(|e| format!("error: {e}"))?;

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

    let (json, journaled) = (flags.switch("--json"), journal.as_mut());
    let end = if oracle {
        run_sweep_oracle(devices, &sweep_cfg, journaled, &cancel, threads, json)?
    } else {
        run_sweep_streamed(
            devices, &sweep_cfg, journaled, &cancel, threads, json, selection,
        )?
    };

    if end.resumed > 0 {
        eprintln!("resumed {} journaled device(s)", end.resumed);
    }
    if let Some(h) = journal.as_ref().map(Journal::health) {
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
    if let Some(detail) = &end.storage_degraded {
        // Degrade policy: the sweep itself is whole (exit 0 below), but
        // only the sealed journal prefix survives a crash from here on.
        eprintln!("storage degraded: {detail}");
        eprintln!("fleet verdict: {}", end.verdict);
    }
    if !end.complete {
        eprintln!(
            "interrupted after {} device(s); resume with: repro sweep --journal {} --resume",
            end.processed,
            journal_path.unwrap_or("<path>"),
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The exact reference engine: every score retained in a
/// [`CrowdDatabase`].
fn run_sweep_oracle(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    json: bool,
) -> Result<SweepEnd, String> {
    let mut db = CrowdDatabase::new(5.0).map_err(|e| format!("error: {e}"))?;
    let sweep = populate_parallel(
        &mut db, "Pixel", devices, sweep_cfg, journal, cancel, threads,
    )
    .map_err(|e| format!("sweep failed: {e}"))?;
    let out = &mut io::stdout().lock();
    render_oracle(out, &sweep.report, &db, json).map_err(write_failed)?;
    Ok(SweepEnd {
        resumed: sweep.resumed,
        verdict: sweep.fleet_verdict(),
        storage_degraded: sweep.storage_degraded,
        complete: sweep.complete,
        processed: sweep.report.outcomes.len(),
    })
}

/// Prints the oracle engine's sweep report.
fn render_oracle(
    out: &mut dyn Write,
    report: &SweepReport,
    db: &CrowdDatabase,
    json: bool,
) -> io::Result<()> {
    if json {
        return writeln!(
            out,
            "{}",
            pv_json::ToJson::to_json(report).to_string_pretty()
        );
    }
    writeln!(out, "{report}")?;
    if let Some(spread) = db.model_spread_percent("Pixel") {
        writeln!(out, "model spread: {spread:.1}%")?;
    }
    if report.fleet_verdict() == FleetVerdict::Degraded {
        // Holes bias a plain mean, so a degraded fleet reports a
        // bootstrap interval computed over the survivors only.
        if let Ok(ci) = report.survivor_ci(db, "Pixel") {
            writeln!(
                out,
                "survivor score: {:.1} (95% bootstrap CI {:.1}..{:.1} over {} device(s))",
                ci.point,
                ci.lo,
                ci.hi,
                report.outcomes.len() - report.quarantined_devices(),
            )?;
        }
    }
    Ok(())
}

/// The default streaming engine: constant-memory mergeable aggregates,
/// plus sampled estimation when a `--sample` selection rode along.
fn run_sweep_streamed(
    devices: Vec<Device>,
    sweep_cfg: &SweepConfig,
    journal: Option<&mut Journal>,
    cancel: &CancelToken,
    threads: usize,
    json: bool,
    selection: Option<(SamplePlan, sampling::Selection)>,
) -> Result<SweepEnd, String> {
    let mut agg = ScoreAggregate::new(5.0).map_err(|e| format!("error: {e}"))?;
    let sweep = populate_streamed(
        &mut agg,
        "Pixel",
        devices,
        sweep_cfg,
        journal,
        cancel,
        threads,
        1,
        selection.is_some(),
    )
    .map_err(|e| format!("sweep failed: {e}"))?;

    // Sampled estimation: group the retained scores back into the
    // selection's weighted strata (devices that quarantined simply
    // leave their stratum lighter) and bootstrap the population
    // estimates.
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

    render_streamed(
        &mut io::stdout().lock(),
        &sweep,
        &agg,
        selection.as_ref(),
        estimates.as_ref(),
        json,
    )
    .map_err(write_failed)?;
    Ok(SweepEnd {
        resumed: sweep.resumed,
        verdict: sweep.fleet_verdict(),
        storage_degraded: sweep.storage_degraded,
        complete: sweep.complete,
        processed: sweep.processed,
    })
}

/// Prints the streaming engine's sweep, and the sampled estimates when a
/// `--sample` selection rode along.
fn render_streamed(
    out: &mut dyn Write,
    sweep: &StreamedSweep,
    agg: &ScoreAggregate,
    selection: Option<&(SamplePlan, sampling::Selection)>,
    estimates: Option<&Estimates>,
    json: bool,
) -> io::Result<()> {
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
        obj.insert("aggregate", pv_json::ToJson::to_json(agg));
        if let Some((plan, _)) = selection {
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
        if let Some(est) = estimates {
            obj.insert("estimates", pv_json::ToJson::to_json(est));
        }
        return writeln!(out, "{}", obj.to_string_pretty());
    }
    write!(out, "{sweep}")?;
    render_streamed_stats(out, agg)?;
    if sweep.fleet_verdict() == FleetVerdict::Degraded {
        // Holes bias a plain mean; quote the survivors-only interval
        // (normal approximation — the streaming path holds no raw scores
        // to bootstrap).
        if let Ok(ci) = sweep.survivor_ci() {
            writeln!(
                out,
                "survivor score: {:.1} (95% CI {:.1}..{:.1} over {} device(s))",
                ci.point,
                ci.lo,
                ci.hi,
                agg.accepted(),
            )?;
        }
    }
    if let (Some((plan, _)), Some(est)) = (selection, estimates) {
        writeln!(
            out,
            "sampled estimates ({} n={} of {}; 95% bootstrap CI):",
            plan.strategy.as_str(),
            est.n,
            plan.population
        )?;
        writeln!(
            out,
            "  mean score: {:.1}  [{:.1}, {:.1}]",
            est.mean.point, est.mean.lo, est.mean.hi
        )?;
        writeln!(
            out,
            "  RSD:        {:.2}% [{:.2}%, {:.2}%]",
            est.rsd_percent.point, est.rsd_percent.lo, est.rsd_percent.hi
        )?;
        writeln!(
            out,
            "  p50:        {:.1}  [{:.1}, {:.1}]",
            est.p50.point, est.p50.lo, est.p50.hi
        )?;
        writeln!(
            out,
            "  p90:        {:.1}  [{:.1}, {:.1}]",
            est.p90.point, est.p90.lo, est.p90.hi
        )?;
    }
    Ok(())
}

/// Prints the streaming aggregate's fleet statistics.
fn render_streamed_stats(out: &mut dyn Write, agg: &ScoreAggregate) -> io::Result<()> {
    if let (Ok(mean), Ok(rsd)) = (agg.mean(), agg.rsd_percent()) {
        writeln!(out, "fleet mean score: {mean:.1} (RSD {rsd:.2}%)")?;
    }
    let hist = agg.histogram();
    let (lo, hi) = (hist.bin_edge(0), hist.bin_edge(hist.bins()));
    if let (Some(p50), Some(p90)) = (agg.approx_quantile(0.50), agg.approx_quantile(0.90)) {
        writeln!(
            out,
            "approx p50 {p50:.0}, p90 {p90:.0} (histogram resolution {:.0})",
            (hi - lo) / hist.bins() as f64
        )?;
    }
    let oor = agg.out_of_range_fraction();
    if oor > 0.01 {
        eprintln!(
            "warning: {:.1}% of scores outside the [{lo}, {hi}] \
             histogram range; quantiles are clamped",
            oor * 100.0
        );
    }
    Ok(())
}

/// The `fsck` target: verify a run journal across all its segments, and
/// with `--repair` truncate torn tails (the same healing `--resume`
/// applies) and re-check. Exit 0 iff the journal ends up clean.
fn run_fsck(path: &str, repair: bool) -> Result<ExitCode, String> {
    let check = || -> Result<bool, String> {
        let report = accubench::journal::fsck(path).map_err(|e| format!("fsck: {path}: {e}"))?;
        let mut out = io::stdout().lock();
        writeln!(out, "{report}").map_err(write_failed)?;
        if report.is_clean() {
            writeln!(out, "{path}: clean").map_err(write_failed)?;
        }
        Ok(report.is_clean())
    };
    if check()? {
        return Ok(ExitCode::SUCCESS);
    }
    if !repair {
        return Err(format!(
            "{path}: dirty; `repro fsck {path} --repair` truncates torn tails"
        ));
    }
    // Opening the journal performs exactly the repair `--resume` would:
    // every segment's torn tail is truncated away.
    let journal = Journal::open(path).map_err(|e| format!("fsck --repair: {path}: {e}"))?;
    eprintln!(
        "repaired: {} record(s) kept across {} segment(s)",
        journal.recovered().len(),
        journal.segments().len(),
    );
    if check()? {
        return Ok(ExitCode::SUCCESS);
    }
    Err(format!(
        "{path}: still dirty after repair (not a torn-tail problem)"
    ))
}
