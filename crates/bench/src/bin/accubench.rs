//! `accubench` — measure one simulated device, the way the paper's app did.
//! The flags are listed by the usage text (`accubench --help`); this is
//! what they mean.
//!
//! `--device` takes `nexus5:<bin 0-6>` or `nexus6|nexus6p|lgg5|pixel|
//! pixel2:<grade>`. `--mode` is `unconstrained` (the default) or a pinned
//! frequency in MHz. `--ambient` fixes the ambient temperature instead of
//! running the THERMABOX, and `--scale` shrinks the warmup and workload.
//! `--trace` writes the last iteration's full trace as CSV.
//!
//! `--faults` arms a fault plan: instrument and session kinds hit the
//! session, and `storage-*` kinds hit the `--journal` filesystem instead,
//! where `at`/`duration` count storage operations; a plan with a storage
//! kind is refused without `--journal`. An accubench journal is a
//! one-device sweep journal: `--resume` replays its journaled result
//! instead of re-measuring, and refuses a journal written under other
//! options. Every option is checked before the journal is opened.
//!
//! Every session runs under the sweeps' simulated-time budget, so a
//! wedged one (a `session-stall` window) stops as timed-out; no healthy
//! session reaches it. `--max-task-seconds` stops a session that runs
//! longer in wall time at its next cooperative checkpoint, as timed-out
//! too (DESIGN.md §12). A panicked, timed-out or failed session exits
//! non-zero under `--on-failure abort` (the default); under `quarantine`
//! it is journaled with its typed status and the process exits 0.
//!
//! ```text
//! accubench --device nexus5:0
//! accubench --device pixel:0.8 --mode 998 --iterations 3
//! accubench --device lgg5:0.5 --ambient 35 --trace g5.csv
//! accubench --device nexus5:2 --faults examples/fault_plan.toml
//! ```

use accubench::executor;
use accubench::experiments::ExperimentConfig;
use accubench::harness::{Ambient, Harness};
use accubench::journal::{
    fnv64, journal_outcome, prepare_journal, AttemptFailure, JournalError, JournaledOutcome, Record,
};
use accubench::protocol::Protocol;
use accubench::session::Session;
use accubench::supervise::{OnFailure, SupervisionPolicy, Watchdog};
use pv_bench::cli::{open_journal, write_failed, Flags, ACCUBENCH};
use pv_faults::{FaultHandle, FaultKind, FaultPlan, SESSION_KINDS};
use pv_soc::catalog;
use pv_soc::faulty::FaultyDevice;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, MegaHertz};
use std::io::{self, Write};
use std::process::ExitCode;

#[path = "../sigint.rs"]
mod sigint;

/// Prints `reason` (when there is one) and the usage text, and fails.
fn usage(reason: &str) -> ExitCode {
    if !reason.is_empty() {
        eprintln!("error: {reason}\n");
    }
    eprint!("{}", ACCUBENCH.usage());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = match ACCUBENCH.parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    if flags.switch("--help") || positional.contains(&"-h") {
        return usage("");
    }
    if let Err(e) = flags.check("accubench", &positional) {
        return usage(&e);
    }
    run(&flags).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
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
    out: &mut dyn Write,
    journaled: &JournaledOutcome,
    on_failure: OnFailure,
) -> io::Result<ExitCode> {
    let outcome = &journaled.outcome;
    writeln!(out, "journaled result for {}:", outcome.device)?;
    match outcome.verdict {
        Some(v) => writeln!(out, "verdict: {v}")?,
        None => writeln!(out, "verdict: {}", outcome.status)?,
    }
    if let (Some(score), Some(rsd)) = (journaled.score, journaled.rsd) {
        writeln!(out, "performance: {score:.1} iterations (RSD {rsd:.2}%)")?;
    }
    if outcome.quarantined > 0 {
        writeln!(out, "quarantined: {} slot(s)", outcome.quarantined)?;
    }
    if outcome.fault_reports > 0 {
        writeln!(out, "fault log: {} occurrence(s)", outcome.fault_reports)?;
    }
    if let Some(e) = &outcome.error {
        eprintln!("error (journaled): {e}");
        return Ok(failure_exit(on_failure));
    }
    Ok(ExitCode::SUCCESS)
}

/// Checks every option and builds the session, then opens the journal
/// (replaying a journaled result on `--resume`) and measures.
fn run(flags: &Flags<'_>) -> Result<ExitCode, String> {
    let descriptor = flags.value("--device").ok_or("--device is required")?;
    let mode = flags.value("--mode").unwrap_or("unconstrained");
    let protocol = flags
        .get("--mode", "'unconstrained' or a frequency in MHz", |m| {
            if m == "unconstrained" {
                return Some(Protocol::unconstrained());
            }
            let mhz = m
                .parse::<f64>()
                .ok()
                .filter(|f| *f > 0.0 && f.is_finite())?;
            Some(Protocol::fixed_frequency(MegaHertz(mhz)))
        })?
        .unwrap_or_else(Protocol::unconstrained);
    let iterations = flags.positive_integer("--iterations")?.unwrap_or(5);
    let ambient_c = flags.get("--ambient", "a temperature above -273.15 °C", |t| {
        t.parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t > -273.15)
    })?;
    let scale = flags
        .get("--scale", "a number in (0, 1]", |s| {
            s.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 1.0)
        })?
        .unwrap_or(1.0);
    let integrator = flags
        .choice("--integrator", Integrator::parse)?
        .unwrap_or(Integrator::Euler);
    let trace = flags.value("--trace");
    // A lone session has no fleet to degrade into, so failures abort
    // (non-zero exit) unless the caller opts into quarantine.
    let policy = flags.supervision(SupervisionPolicy {
        on_failure: OnFailure::Abort,
        ..SupervisionPolicy::default()
    })?;
    let resume = flags.switch("--resume");
    let journal_path = flags.value("--journal");
    if resume && journal_path.is_none() {
        return Err("--resume requires --journal <file>".into());
    }
    let device = catalog::parse_device(descriptor).map_err(|e| e.to_string())?;

    // The device is always driven through the fault gate; without --faults
    // the gate is disarmed and behaves bit-identically to the bare device.
    // Storage kinds in the plan never fire on the session's simulated-time
    // clock — they are split out and armed on the journal's filesystem,
    // where `at`/`duration` count storage operations.
    // Without a journal, storage kinds would have nothing to hit.
    let accepts = |k: FaultKind| journal_path.is_some() || !k.is_storage();
    let (faults, storage_plan, fault_toml) = match flags.fault_plan("--faults", accepts)? {
        Some((plan, text)) => {
            // Instrument and session events both run on the session's
            // simulated-time clock; only the count tells them apart.
            let (storage_events, timed_events): (Vec<_>, Vec<_>) =
                plan.events.into_iter().partition(|e| e.kind.is_storage());
            let chaos = timed_events
                .iter()
                .filter(|e| SESSION_KINDS.contains(&e.kind))
                .count();
            eprintln!(
                "armed fault plan {}: {} instrument event(s), {chaos} session event(s), \
                 {} storage event(s)",
                flags.value("--faults").unwrap_or_default(),
                timed_events.len() - chaos,
                storage_events.len(),
            );
            let storage_plan = (!storage_events.is_empty()).then_some(FaultPlan {
                seed: plan.seed,
                events: storage_events,
            });
            let instruments = FaultHandle::armed(FaultPlan {
                seed: plan.seed,
                events: timed_events,
            });
            (instruments, storage_plan, text)
        }
        None => (FaultHandle::disarmed(), None, String::new()),
    };

    let mut protocol = ExperimentConfig {
        scale,
        iterations,
        integrator,
    }
    .scaled(protocol);
    if trace.is_some() {
        protocol = protocol.with_trace();
    }
    let ambient = match ambient_c {
        Some(t) => Ambient::Fixed(Celsius(t)),
        None => Ambient::paper_chamber().map_err(|e| e.to_string())?,
    };
    // The sweeps' default budget: it stops a wedged session as timed-out,
    // and no healthy session reaches it.
    let mut watchdog = Watchdog::new().with_sim_budget(protocol.fault_horizon(iterations));
    if let Some(wall) = policy.max_wall_seconds {
        watchdog = watchdog.with_wall_limit(wall);
    }
    let mut harness = Harness::new(protocol, ambient)
        .map_err(|e| e.to_string())?
        .with_faults(faults.clone())
        .with_watchdog(watchdog);

    // Digest over everything that determines this run's simulated outcome,
    // including the fault plan's *text* (editing the plan file invalidates
    // a stale journal) and the watchdog limit (a journal written under one
    // deadline regime cannot be replayed under another). `v2` added the
    // integrator; `v3` the supervision fields and the typed outcome status.
    let bits =
        |v: Option<f64>, none: &str| v.map_or(none.to_owned(), |x| format!("{:016x}", x.to_bits()));
    let config = format!(
        "accubench-v3|device={descriptor}|mode={mode}|iters={iterations}|ambient={}|scale={:016x}|integrator={}|faults={:016x}|wall={}",
        bits(ambient_c, "chamber"),
        scale.to_bits(),
        integrator.as_str(),
        fnv64(fault_toml.as_bytes()),
        bits(policy.max_wall_seconds, "none"),
    );
    let digest = format!("{:016x}", fnv64(config.as_bytes()));

    // An accubench journal is a one-device sweep journal: a journaled
    // outcome is replayed instead of re-measured.
    let mut journal = journal_path
        .map(|path| open_journal(path, storage_plan.as_ref(), resume))
        .transpose()?;
    if let Some(j) = journal.as_mut() {
        let replay = prepare_journal(j, descriptor, digest, 1).map_err(|e| match e {
            JournalError::DigestMismatch { .. } => "--journal: journal was written by a \
                 different configuration; refusing to resume (re-run with matching options \
                 or a fresh path)"
                .to_owned(),
            JournalError::MissingHeader => "--journal: journal does not start with a header".into(),
            e => format!("--journal: {e}"),
        })?;
        if let Some(done) = replay.outcomes.get(&0) {
            if !replay.sealed {
                if let Err(e) = j.append(&Record::Complete { devices: 1 }) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
            return replay_outcome(&mut io::stdout().lock(), done, policy.on_failure)
                .map_err(write_failed);
        }
        if !j.recovered().is_empty() {
            eprintln!("journal is incomplete; re-measuring");
        }
    }
    let device_label = device.label().to_owned();
    let mut device = FaultyDevice::new(device, faults.clone());

    // First Ctrl-C lets the session finish and journal; the second one
    // kills the process (recovery then drops any torn journal tail).
    let _cancel = sigint::install();

    eprintln!("measuring {device}: {iterations} iteration(s), mode {mode} ...");
    // The session runs under panic isolation: a panic (injected or real)
    // is caught, summarized, journaled with its typed status, and turned
    // into an exit code by the escalation policy instead of unwinding
    // through main. A fatal session error is deterministic, so it
    // completes the journal too: --resume replays the failure instead of
    // re-running.
    let caught = executor::run_caught(|| harness.run_session(&mut device, iterations));
    let (session, failures) = match caught {
        Ok(Ok(session)) => (Some(session), Vec::new()),
        Ok(Err(e)) => (None, vec![AttemptFailure::of_error(1, &e)]),
        Err(panic) => (None, vec![AttemptFailure::of_panic(1, panic)]),
    };
    let result = match &session {
        Some(session) => {
            let mut result =
                JournaledOutcome::finished(device_label, session, faults.report_count(), 1);
            // A lone run has no crowd database to filter it: a submitted
            // score is accepted.
            result.outcome.accepted = result.score.is_some();
            result
        }
        None => JournaledOutcome::hole(device_label, faults.report_count(), &failures),
    };
    // The end-of-session records commit together: one write, one fsync.
    if let Some(j) = journal.as_mut() {
        let mut records = Vec::new();
        journal_outcome(&mut records, 0, &result, &failures);
        records.push(Record::Complete { devices: 1 });
        if let Err(e) = j.append_all(&records) {
            eprintln!("warning: journal append failed: {e}");
        }
    }
    let Some(session) = session else {
        for failure in &failures {
            eprintln!("error ({}): {}", failure.status, failure.detail);
            if let Some(bt) = &failure.backtrace {
                eprintln!("{bt}");
            }
        }
        return Ok(failure_exit(policy.on_failure));
    };

    if let Some(path) = trace {
        let csv = session
            .iterations
            .last()
            .map(|it| it.full_trace.to_csv())
            .unwrap_or_default();
        std::fs::write(path, csv).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    let out = &mut io::stdout().lock();
    if flags.switch("--json") {
        let json = pv_json::ToJson::to_json(&session).to_string_pretty();
        writeln!(out, "{json}").map_err(write_failed)?;
        return Ok(ExitCode::SUCCESS);
    }
    render(out, &session, &faults).map_err(write_failed)
}

/// Prints the session, its verdict, quarantines and fault log, and its
/// performance and energy summaries.
fn render(out: &mut dyn Write, session: &Session, faults: &FaultHandle) -> io::Result<ExitCode> {
    writeln!(out, "{session}")?;
    writeln!(out, "verdict: {}", session.verdict)?;
    for q in &session.quarantined {
        writeln!(out, "quarantined: {q}")?;
    }
    if faults.report_count() > 0 {
        writeln!(out, "fault log ({} occurrence(s)):", faults.report_count())?;
        for r in faults.reports() {
            writeln!(out, "  t={:.1}s {}: {}", r.at, r.kind, r.detail)?;
        }
    }
    let (Ok(perf), Ok(energy)) = (session.performance_summary(), session.energy_summary()) else {
        eprintln!(
            "error: no iterations survived (verdict {})",
            session.verdict
        );
        return Ok(ExitCode::FAILURE);
    };
    writeln!(
        out,
        "performance: {:.1} iterations (RSD {:.2}%)",
        perf.mean(),
        perf.rsd_percent()
    )?;
    writeln!(
        out,
        "energy:      {:.1} J (RSD {:.2}%)",
        energy.mean(),
        energy.rsd_percent()
    )?;
    if session.any_cooldown_timed_out() {
        writeln!(
            out,
            "warning: at least one cooldown timed out (workload started warm)"
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
