//! `accubench` — measure one simulated device, the way the paper's app did.
//!
//! ```text
//! accubench --device nexus5:2 [options]
//!
//! options:
//!   --device <model:selector>   nexus5:<bin 0-6> | nexus6|nexus6p|lgg5|pixel|pixel2:<grade>
//!   --mode unconstrained|<MHz>  workload mode (default: unconstrained)
//!   --iterations <n>            back-to-back iterations (default: 5)
//!   --ambient <°C>              fixed ambient instead of the THERMABOX
//!   --scale <f>                 shrink warmup/workload durations (default: 1.0)
//!   --integrator <scheme>       euler|rk4|exponential thermal stepping
//!                               (default: euler; exponential is the fast
//!                               path, see DESIGN.md §11)
//!   --trace <file.csv>          dump the last iteration's full trace as CSV
//!   --faults <plan.toml>        arm a fault-injection plan: instrument
//!                               kinds hit the session; storage-* kinds
//!                               hit the --journal filesystem instead
//!                               (their at/duration count storage
//!                               operations, not seconds)
//!   --json                      emit the session as JSON
//!   --journal <file>            journal the run (self-checksummed, fsynced)
//!   --resume                    replay a completed journal instead of
//!                               re-measuring; refuses a journal whose
//!                               recorded configuration differs
//!   --threads <n>               accepted for symmetry with `repro sweep`;
//!                               a single-device session is one unit of
//!                               work, so it always runs on one worker
//!   --sample <k>                accepted for symmetry with `repro sweep`;
//!                               a single-device session has a population
//!                               of one, so it is always measured exactly
//!   --sample-strategy <name>    srs|rss|stratified; validated, then
//!                               ignored for the same reason
//!   --sample-seed <u64>         validated, then ignored for the same
//!                               reason
//!   --oracle                    accepted for symmetry with `repro sweep`;
//!                               a single session has no streaming
//!                               aggregate to cross-check, so this is
//!                               always the exact path
//!   --max-task-seconds <w>      arm a wall-clock watchdog: a session that
//!                               runs longer than w seconds is stopped at
//!                               the next cooperative checkpoint and
//!                               reported as timed-out (DESIGN.md §12)
//!   --on-failure <policy>       abort (default): a panicked/timed-out/
//!                               failed session exits non-zero;
//!                               quarantine: it is journaled with its
//!                               typed status and the process exits 0 —
//!                               the single-device analogue of a degraded
//!                               fleet completing
//! ```
//!
//! Examples:
//!
//! ```text
//! accubench --device nexus5:0
//! accubench --device pixel:0.8 --mode 998 --iterations 3
//! accubench --device lgg5:0.5 --ambient 35 --trace g5.csv
//! accubench --device nexus5:2 --faults examples/fault_plan.toml
//! ```

use accubench::crowd::SweepOutcome;
use accubench::executor;
use accubench::harness::{Ambient, Harness};
use accubench::journal::{fnv64, Journal, Record};
use accubench::protocol::Protocol;
use accubench::session::Verdict;
use accubench::storage::{FaultyStorage, Storage};
use accubench::supervise::{DeviceStatus, OnFailure, SupervisionError, Watchdog};
use accubench::BenchError;
use pv_faults::{FaultHandle, FaultPlan};
use pv_soc::catalog;
use pv_soc::faulty::FaultyDevice;
use pv_stats::sampling::Strategy;
use pv_units::{Celsius, MegaHertz, Seconds};
use std::process::ExitCode;
use std::sync::Arc;

#[path = "../sigint.rs"]
mod sigint;

struct Options {
    device: String,
    mode: String,
    iterations: usize,
    ambient: Option<f64>,
    scale: f64,
    integrator: pv_thermal::network::Integrator,
    trace: Option<String>,
    faults: Option<String>,
    json: bool,
    journal: Option<String>,
    resume: bool,
    threads: usize,
    sample: Option<usize>,
    sample_strategy: Option<String>,
    sample_seed: Option<u64>,
    oracle: bool,
    max_task_seconds: Option<f64>,
    on_failure: OnFailure,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        device: String::new(),
        mode: "unconstrained".to_owned(),
        iterations: 5,
        ambient: None,
        scale: 1.0,
        integrator: pv_thermal::network::Integrator::Euler,
        trace: None,
        faults: None,
        json: false,
        journal: None,
        resume: false,
        threads: 1,
        sample: None,
        sample_strategy: None,
        sample_seed: None,
        oracle: false,
        max_task_seconds: None,
        // A lone session has no fleet to degrade into, so failures abort
        // (non-zero exit) unless the caller opts into quarantine.
        on_failure: OnFailure::Abort,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--device" => opts.device = value("--device")?,
            "--mode" => opts.mode = value("--mode")?,
            "--iterations" => {
                opts.iterations = value("--iterations")?
                    .parse()
                    .map_err(|_| "--iterations must be a positive integer".to_owned())?
            }
            "--ambient" => {
                opts.ambient = Some(
                    value("--ambient")?
                        .parse()
                        .map_err(|_| "--ambient must be a temperature in °C".to_owned())?,
                )
            }
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale must be a positive number".to_owned())?
            }
            "--integrator" => {
                let name = value("--integrator")?;
                opts.integrator = pv_thermal::network::Integrator::parse(&name)
                    .ok_or_else(|| format!("--integrator: unknown scheme {name:?}"))?
            }
            "--trace" => opts.trace = Some(value("--trace")?),
            "--faults" => opts.faults = Some(value("--faults")?),
            "--json" => opts.json = true,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--resume" => opts.resume = true,
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_owned())?
            }
            "--sample" => {
                let k: usize = value("--sample")?
                    .parse()
                    .map_err(|_| "--sample must be a positive integer".to_owned())?;
                if k == 0 {
                    return Err("--sample must be at least 1".to_owned());
                }
                opts.sample = Some(k)
            }
            "--sample-strategy" => opts.sample_strategy = Some(value("--sample-strategy")?),
            "--sample-seed" => {
                opts.sample_seed = Some(
                    value("--sample-seed")?
                        .parse()
                        .map_err(|_| "--sample-seed must be an unsigned integer".to_owned())?,
                )
            }
            "--oracle" => opts.oracle = true,
            "--max-task-seconds" => {
                let w: f64 = value("--max-task-seconds")?
                    .parse()
                    .map_err(|_| "--max-task-seconds must be a positive number".to_owned())?;
                if !(w > 0.0 && w.is_finite()) {
                    return Err("--max-task-seconds must be a positive number".to_owned());
                }
                opts.max_task_seconds = Some(w)
            }
            "--on-failure" => {
                let mode = value("--on-failure")?;
                opts.on_failure = OnFailure::parse(&mode)
                    .ok_or_else(|| format!("--on-failure: unknown policy {mode:?}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if opts.device.is_empty() {
        return Err("--device is required".to_owned());
    }
    if opts.iterations == 0 {
        return Err("--iterations must be at least 1".to_owned());
    }
    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".to_owned());
    }
    if opts.resume && opts.journal.is_none() {
        return Err("--resume requires --journal <file>".to_owned());
    }
    if opts.threads == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    if opts.threads > 1 {
        eprintln!(
            "note: a single-device session is one unit of work; \
             --threads {} runs it on one worker (use `repro sweep --threads` \
             to parallelise a fleet)",
            opts.threads
        );
    }
    if let Some(name) = &opts.sample_strategy {
        Strategy::parse(name).map_err(|e| format!("--sample-strategy: {e}"))?;
        if opts.sample.is_none() {
            return Err("--sample-strategy requires --sample <n>".to_owned());
        }
    }
    if opts.sample_seed.is_some() && opts.sample.is_none() {
        return Err("--sample-seed requires --sample <n>".to_owned());
    }
    if opts.sample.is_some() {
        eprintln!(
            "note: a single-device session has a population of one; --sample \
             is measured exactly here (use `repro sweep --sample` to \
             subsample a fleet)"
        );
    }
    if opts.oracle {
        eprintln!(
            "note: a single session has no streaming aggregate to cross-check; \
             --oracle has no effect here (use `repro sweep --oracle` for the \
             exact full-fleet reference)"
        );
    }
    Ok(opts)
}

/// Digest over everything that determines this run's simulated outcome:
/// device, mode, iterations, ambient, scale, integrator, the fault plan
/// *text* (so editing the plan file invalidates a stale journal), and the
/// watchdog limit (a journal written under one deadline regime cannot be
/// silently replayed under another). `v2` added the integrator; `v3` adds
/// the supervision fields and the typed outcome status.
fn run_digest(opts: &Options, fault_toml: &str) -> String {
    let ambient = match opts.ambient {
        Some(t) => format!("{:016x}", t.to_bits()),
        None => "chamber".to_owned(),
    };
    let wall = match opts.max_task_seconds {
        Some(w) => format!("{:016x}", w.to_bits()),
        None => "none".to_owned(),
    };
    let s = format!(
        "accubench-v3|device={}|mode={}|iters={}|ambient={ambient}|scale={:016x}|integrator={}|faults={:016x}|wall={wall}",
        opts.device,
        opts.mode,
        opts.iterations,
        opts.scale.to_bits(),
        opts.integrator.as_str(),
        fnv64(fault_toml.as_bytes()),
    );
    format!("{:016x}", fnv64(s.as_bytes()))
}

/// Exit code for a failed session under the selected escalation policy:
/// `abort` fails the process, `quarantine` records the typed status and
/// exits cleanly (the single-device analogue of a degraded fleet).
fn failure_exit(on_failure: OnFailure) -> ExitCode {
    match on_failure {
        OnFailure::Quarantine => ExitCode::SUCCESS,
        OnFailure::Abort => ExitCode::FAILURE,
    }
}

/// Prints a journaled outcome (the `--resume` replay path) and converts
/// it to an exit code.
fn replay_outcome(
    outcome: &SweepOutcome,
    score: Option<f64>,
    rsd: Option<f64>,
    on_failure: OnFailure,
) -> ExitCode {
    println!("journaled result for {}:", outcome.device);
    match outcome.verdict {
        Some(v) => println!("verdict: {v}"),
        None => println!("verdict: {}", outcome.status),
    }
    if let (Some(score), Some(rsd)) = (score, rsd) {
        println!("performance: {score:.1} iterations (RSD {rsd:.2}%)");
    }
    if outcome.quarantined > 0 {
        println!("quarantined: {} slot(s)", outcome.quarantined);
    }
    if outcome.fault_reports > 0 {
        println!("fault log: {} occurrence(s)", outcome.fault_reports);
    }
    if let Some(e) = &outcome.error {
        eprintln!("error (journaled): {e}");
        return failure_exit(on_failure);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: accubench --device <model:selector> [--mode unconstrained|<MHz>] \
                 [--iterations N] [--ambient °C] [--scale F] \
                 [--integrator euler|rk4|exponential] [--trace out.csv] \
                 [--faults plan.toml] [--json] [--journal file] [--resume] [--threads N] \
                 [--sample K] [--sample-strategy srs|rss|stratified] \
                 [--sample-seed S] [--oracle] [--max-task-seconds W] \
                 [--on-failure abort|quarantine]"
            );
            return ExitCode::FAILURE;
        }
    };

    let device = match catalog::parse_device(&opts.device) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The device is always driven through the fault gate; without --faults
    // the gate is disarmed and behaves bit-identically to the bare device.
    // Storage kinds in the plan never fire on the session's simulated-time
    // clock — they are split out and armed on the journal's filesystem,
    // where `at`/`duration` count storage operations.
    let mut fault_toml = String::new();
    let mut storage_plan: Option<FaultPlan> = None;
    let faults = match &opts.faults {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: could not read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match FaultPlan::from_toml_str(&text) {
                Ok(plan) => {
                    fault_toml = text;
                    let (storage_events, instrument_events): (Vec<_>, Vec<_>) = plan
                        .events
                        .iter()
                        .cloned()
                        .partition(|e| e.kind.is_storage());
                    eprintln!(
                        "armed fault plan {path}: {} instrument event(s), {} storage event(s)",
                        instrument_events.len(),
                        storage_events.len(),
                    );
                    if !storage_events.is_empty() {
                        storage_plan = Some(FaultPlan {
                            seed: plan.seed,
                            events: storage_events,
                        });
                    }
                    FaultHandle::armed(FaultPlan {
                        seed: plan.seed,
                        events: instrument_events,
                    })
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => FaultHandle::disarmed(),
    };

    // Journal handling: open (recovering any torn tail), then either seal a
    // fresh header or verify the existing one before anything runs.
    let digest = run_digest(&opts, &fault_toml);
    let storage = match &storage_plan {
        Some(plan) => Storage::new(Arc::new(FaultyStorage::new(Storage::os(), plan))),
        None => Storage::os(),
    };
    let mut journal = match &opts.journal {
        Some(path) => match Journal::open_with(storage, path) {
            Ok(j) => {
                if j.dropped_bytes() > 0 {
                    eprintln!(
                        "journal {path}: dropped {} byte(s) of torn tail",
                        j.dropped_bytes()
                    );
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
    if let Some(j) = journal.as_mut() {
        if j.recovered().is_empty() {
            let header = Record::Header {
                model: opts.device.clone(),
                digest: digest.clone(),
                devices: 1,
            };
            if let Err(e) = j.append(&header) {
                eprintln!("--journal: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            match &j.recovered()[0] {
                Record::Header {
                    digest: journaled, ..
                } if *journaled == digest => {}
                Record::Header { .. } => {
                    eprintln!(
                        "--journal: journal was written by a different configuration; \
                         refusing to resume (re-run with matching options or a fresh path)"
                    );
                    return ExitCode::FAILURE;
                }
                _ => {
                    eprintln!("--journal: journal does not start with a header");
                    return ExitCode::FAILURE;
                }
            }
            if !opts.resume {
                eprintln!(
                    "--journal: journal already holds {} record(s); \
                     pass --resume to replay it or choose a fresh path",
                    j.recovered().len()
                );
                return ExitCode::FAILURE;
            }
            let mut done = None;
            let mut complete = false;
            for r in &j.recovered()[1..] {
                match r {
                    Record::Outcome {
                        outcome,
                        score,
                        rsd,
                        ..
                    } => done = Some((outcome.clone(), *score, *rsd)),
                    Record::Complete { .. } => complete = true,
                    _ => {}
                }
            }
            if complete {
                if let Some((outcome, score, rsd)) = done {
                    return replay_outcome(&outcome, score, rsd, opts.on_failure);
                }
            }
            eprintln!("journal is incomplete; re-measuring");
        }
    }
    let device_label = device.label().to_owned();
    let mut device = FaultyDevice::new(device, faults.clone());

    let mut protocol = if opts.mode == "unconstrained" {
        Protocol::unconstrained()
    } else {
        match opts.mode.parse::<f64>() {
            Ok(mhz) if mhz > 0.0 => Protocol::fixed_frequency(MegaHertz(mhz)),
            _ => {
                eprintln!("error: --mode must be 'unconstrained' or a frequency in MHz");
                return ExitCode::FAILURE;
            }
        }
    };
    protocol = protocol
        .with_warmup(Seconds(protocol.warmup.value() * opts.scale))
        .with_workload(Seconds(protocol.workload.value() * opts.scale))
        .with_integrator(opts.integrator);
    if opts.trace.is_some() {
        protocol = protocol.with_trace();
    }

    let ambient = match opts.ambient {
        Some(t) => Ambient::Fixed(Celsius(t)),
        None => match Ambient::paper_chamber() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut harness = match Harness::new(protocol, ambient) {
        Ok(h) => h.with_faults(faults.clone()),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(wall) = opts.max_task_seconds {
        harness = harness.with_watchdog(Watchdog::new().with_wall_limit(wall));
    }

    // First Ctrl-C lets the session finish and journal; the second one
    // kills the process (recovery then drops any torn journal tail).
    let _cancel = sigint::install();

    eprintln!(
        "measuring {device}: {} iteration(s), mode {} ...",
        opts.iterations, opts.mode
    );
    let journal_end = |journal: &mut Option<Journal>, mut records: Vec<Record>| {
        if let Some(j) = journal.as_mut() {
            records.push(Record::Complete { devices: 1 });
            for r in &records {
                if let Err(e) = j.append(r) {
                    eprintln!("warning: journal append failed: {e}");
                    return;
                }
            }
        }
    };
    // The session runs under panic isolation: a panic (injected or real)
    // is caught, summarized, journaled with its typed status, and turned
    // into an exit code by the escalation policy instead of unwinding
    // through main.
    let caught = executor::run_caught(|| harness.run_session(&mut device, opts.iterations));
    let failed_outcome = |status: DeviceStatus, detail: &str| SweepOutcome {
        device: device_label.clone(),
        verdict: None,
        accepted: false,
        quarantined: 0,
        fault_reports: faults.report_count(),
        error: Some(detail.to_owned()),
        status,
        attempts: 1,
    };
    let session = match caught {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => {
            // A fatal session error is deterministic, so it completes the
            // journal: --resume replays the failure instead of re-running.
            let status = match &e {
                BenchError::Supervision(
                    SupervisionError::SimBudget { .. }
                    | SupervisionError::WallClock { .. }
                    | SupervisionError::Killed,
                ) => DeviceStatus::TimedOut,
                _ => DeviceStatus::Failed,
            };
            journal_end(
                &mut journal,
                vec![Record::Outcome {
                    index: 0,
                    outcome: failed_outcome(status, &e.to_string()),
                    score: None,
                    rsd: None,
                }],
            );
            eprintln!("error ({status}): {e}");
            return failure_exit(opts.on_failure);
        }
        Err(panic) => {
            let headline = panic.headline();
            // The deterministic headline goes into the outcome; the
            // backtrace (when RUST_BACKTRACE enables capture) only into
            // the free-form note, where nondeterminism is harmless.
            let mut note = format!("{device_label}: {headline}");
            if let Some(bt) = &panic.backtrace {
                note.push_str("\nbacktrace:\n");
                note.push_str(bt);
            }
            journal_end(
                &mut journal,
                vec![
                    Record::Note {
                        index: 0,
                        text: note,
                    },
                    Record::Outcome {
                        index: 0,
                        outcome: failed_outcome(DeviceStatus::Panicked, &headline),
                        score: None,
                        rsd: None,
                    },
                ],
            );
            eprintln!("error (panicked): {headline}");
            if let Some(bt) = &panic.backtrace {
                eprintln!("{bt}");
            }
            return failure_exit(opts.on_failure);
        }
    };
    let (score, rsd) = if session.verdict == Verdict::Invalid {
        (None, None)
    } else {
        session
            .performance_summary()
            .map(|p| (Some(p.mean()), Some(p.rsd_percent())))
            .unwrap_or((None, None))
    };
    journal_end(
        &mut journal,
        vec![Record::Outcome {
            index: 0,
            outcome: SweepOutcome {
                device: device_label,
                verdict: Some(session.verdict),
                accepted: session.verdict != Verdict::Invalid,
                quarantined: session.quarantined.len(),
                fault_reports: faults.report_count(),
                error: None,
                status: DeviceStatus::Completed,
                attempts: 1,
            },
            score,
            rsd,
        }],
    );

    if let Some(path) = &opts.trace {
        let csv = session
            .iterations
            .last()
            .map(|it| it.full_trace.to_csv())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }

    if opts.json {
        println!("{}", pv_json::ToJson::to_json(&session).to_string_pretty());
        return ExitCode::SUCCESS;
    }

    println!("{session}");
    println!("verdict: {}", session.verdict);
    for q in &session.quarantined {
        println!("quarantined: {q}");
    }
    if faults.report_count() > 0 {
        println!("fault log ({} occurrence(s)):", faults.report_count());
        for r in faults.reports() {
            println!("  t={:.1}s {}: {}", r.at, r.kind, r.detail);
        }
    }
    match (session.performance_summary(), session.energy_summary()) {
        (Ok(perf), Ok(energy)) => {
            println!(
                "performance: {:.1} iterations (RSD {:.2}%)",
                perf.mean(),
                perf.rsd_percent()
            );
            println!(
                "energy:      {:.1} J (RSD {:.2}%)",
                energy.mean(),
                energy.rsd_percent()
            );
            if session.any_cooldown_timed_out() {
                println!("warning: at least one cooldown timed out (workload started warm)");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "error: no iterations survived (verdict {})",
                session.verdict
            );
            ExitCode::FAILURE
        }
    }
}
