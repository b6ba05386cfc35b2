//! The traced sweep: the library's two sweep engines rebuilt from their
//! public parts, with a span around every call into a layer.
//!
//! `populate_streamed` and `populate_parallel` cannot be instrumented from
//! outside, so the traced run drives the same public functions in the same
//! order — `executor::map_ordered`, `Harness::run_session` on a
//! [`Timed`] device, `ScoreAggregate::fold`/`merge`, `CrowdDatabase::submit`
//! and `Journal::append_all` — and the workload then checks that its
//! outputs are byte-identical to the library run's. A mismatch means this
//! file no longer mirrors the library and fails the run.

use crate::trace::{self, span, Timed};
use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{CrowdDatabase, CrowdScore, SweepConfig, SweepOutcome, STREAM_GROUP};
use accubench::executor;
use accubench::harness::{Ambient, Harness};
use accubench::journal::{CancelToken, Journal, Record};
use accubench::session::Verdict;
use accubench::supervise::{DeviceStatus, SupervisionError, Watchdog};
use accubench::BenchError;
use pv_faults::{FaultHandle, FaultPlan};
use pv_soc::device::Device;
use pv_soc::faulty::FaultyDevice;
use std::fmt::Write as _;

/// One supervised attempt that did not finish its session.
pub struct Failure {
    pub attempt: u32,
    pub status: DeviceStatus,
    pub detail: String,
}

/// What one device produced, before the in-order sink takes it.
pub struct DeviceRun {
    pub outcome: SweepOutcome,
    pub score: Option<f64>,
    pub rsd: Option<f64>,
    pub failures: Vec<Failure>,
}

/// The simulated time fault plans cover, and the default per-attempt
/// budget: every iteration at full length, times the retry budget, with
/// slack.
fn fault_horizon(cfg: &SweepConfig) -> f64 {
    let p = &cfg.protocol;
    (p.warmup.value() + p.cooldown_timeout.value() + p.workload.value())
        * cfg.iterations as f64
        * 4.0
}

/// Device `index`'s fault handle: its seeded instrument plan plus any
/// session chaos aimed at it.
fn fault_handle(cfg: &SweepConfig, index: usize, fleet: usize) -> FaultHandle {
    let mut plan = match cfg.fault_seed {
        Some(seed) => FaultPlan::generate(
            seed.wrapping_add(index as u64),
            fault_horizon(cfg),
            cfg.fault_mean_interval.value(),
            &cfg.fault_kinds,
        ),
        None => FaultPlan::empty(),
    };
    let mut armed = cfg.fault_seed.is_some();
    if let Some(chaos) = &cfg.chaos {
        for event in chaos.events_for(index, fleet) {
            plan = plan.with_event(event);
            armed = true;
        }
    }
    if armed {
        FaultHandle::armed(plan)
    } else {
        FaultHandle::disarmed()
    }
}

/// Runs one device under supervision: up to `max_attempts` sessions, each
/// on a pristine clone with a fresh fault handle and watchdog.
pub fn run_device(cfg: &SweepConfig, index: usize, fleet: usize, device: &Device) -> DeviceRun {
    let _device_span = span("crowd.device", Some(index));
    let label = device.label().to_owned();
    let max_attempts = cfg.supervision.max_attempts.max(1);
    let mut failures = Vec::new();
    let mut reports = 0usize;
    for attempt in 1..=max_attempts {
        let handle = {
            let _plan = span("faults.plan", Some(index));
            fault_handle(cfg, index, fleet)
        };
        let fresh = {
            let _clone = span("soc.device.clone", Some(index));
            device.clone()
        };
        let session_handle = handle.clone();
        let caught = executor::run_caught(|| {
            let _session = span("harness.session", Some(index));
            let mut timed = Timed::new(
                FaultyDevice::new(fresh, session_handle.clone()),
                Some(index),
                false,
            );
            let budget = cfg
                .supervision
                .max_sim_seconds
                .unwrap_or_else(|| fault_horizon(cfg));
            let mut watchdog = Watchdog::new().with_sim_budget(budget);
            if let Some(wall) = cfg.supervision.max_wall_seconds {
                watchdog = watchdog.with_wall_limit(wall);
            }
            let session = Harness::new(cfg.protocol, Ambient::Fixed(cfg.ambient))
                .map(|h| {
                    h.with_faults(session_handle.clone())
                        .with_watchdog(watchdog)
                })
                .and_then(|mut h| h.run_session(&mut timed, cfg.iterations));
            if let Ok(s) = &session {
                let retries = timed.attempts().saturating_sub(cfg.iterations as u64);
                trace::count("harness.retries", retries as f64);
                trace::count("harness.quarantined", s.quarantined_count() as f64);
            }
            session
        });
        reports = handle.report_count();
        let (status, detail) = match caught {
            Ok(Ok(session)) => {
                let _summary = span("session.summary", Some(index));
                return finished(label, session, reports, attempt, failures);
            }
            Ok(Err(e)) => (
                match &e {
                    BenchError::Supervision(
                        SupervisionError::SimBudget { .. }
                        | SupervisionError::WallClock { .. }
                        | SupervisionError::Killed,
                    ) => DeviceStatus::TimedOut,
                    _ => DeviceStatus::Failed,
                },
                e.to_string(),
            ),
            Err(panic) => (DeviceStatus::Panicked, panic.headline()),
        };
        failures.push(Failure {
            attempt,
            status,
            detail,
        });
    }
    let last = failures.last();
    DeviceRun {
        outcome: SweepOutcome {
            device: label,
            verdict: None,
            accepted: false,
            quarantined: 0,
            fault_reports: reports,
            error: last.map(|f| f.detail.clone()),
            status: last.map_or(DeviceStatus::Failed, |f| f.status),
            attempts: max_attempts,
        },
        score: None,
        rsd: None,
        failures,
    }
}

fn finished(
    label: String,
    session: accubench::session::Session,
    fault_reports: usize,
    attempts: u32,
    failures: Vec<Failure>,
) -> DeviceRun {
    let (mut score, mut rsd, mut verdict, mut error) = (None, None, Some(session.verdict), None);
    if session.verdict != Verdict::Invalid {
        match session.performance_summary() {
            Ok(perf) => {
                score = Some(perf.mean());
                rsd = Some(perf.rsd_percent());
            }
            Err(e) => {
                verdict = None;
                error = Some(e.to_string());
            }
        }
    }
    let completed = verdict.is_some();
    DeviceRun {
        outcome: SweepOutcome {
            device: label,
            verdict,
            accepted: false,
            quarantined: session.quarantined_count(),
            fault_reports,
            error,
            status: if completed {
                DeviceStatus::Completed
            } else {
                DeviceStatus::Failed
            },
            attempts,
        },
        score,
        rsd,
        failures,
    }
}

/// The journal records one finished device commits with a single fsync.
fn device_records(index: usize, run: &DeviceRun) -> Vec<Record> {
    let mut records: Vec<Record> = run
        .failures
        .iter()
        .map(|f| Record::Supervision {
            index,
            attempt: f.attempt,
            status: f.status,
            detail: f.detail.clone(),
        })
        .collect();
    let o = &run.outcome;
    if o.quarantined > 0 || o.fault_reports > 0 || o.error.is_some() || !run.failures.is_empty() {
        let mut text = format!(
            "{}: {} quarantined, {} fault(s)",
            o.device, o.quarantined, o.fault_reports
        );
        if let Some(e) = &o.error {
            let _ = write!(text, ", fatal: {e}");
        }
        records.push(Record::Note { index, text });
    }
    records.push(Record::Outcome {
        index,
        outcome: o.clone(),
        score: run.score,
        rsd: run.rsd,
    });
    records
}

/// Result of the traced streamed sweep: the parts of `StreamedSweep` the
/// fingerprint covers.
pub struct Streamed {
    pub holes: Vec<SweepOutcome>,
    pub completed: usize,
    pub retained: Vec<(usize, f64)>,
}

/// Records the executor's queue wait: every task is submitted when
/// `map_ordered` is called.
fn task_span(submitted: u64) -> trace::Guard {
    let started = crate::measure::now_ns();
    trace::sample("executor.queue_wait_us", (started - submitted) as f64 / 1e3);
    span("executor.task", None)
}

fn reorder_wait(done: u64) {
    trace::sample(
        "executor.reorder_wait_us",
        (crate::measure::now_ns() - done) as f64 / 1e3,
    );
}

/// `populate_streamed` without a journal, traced: chunks on the
/// [`STREAM_GROUP`] grid, each worker folds its chunk into a partial
/// aggregate, the in-order sink merges the partials.
pub fn streamed(
    agg: &mut ScoreAggregate,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    threads: usize,
    retain: bool,
) -> Result<Streamed, BenchError> {
    let total = devices.len();
    let mut chunks: Vec<Vec<(usize, Device)>> = Vec::new();
    for (i, d) in devices.into_iter().enumerate() {
        if i % STREAM_GROUP == 0 {
            chunks.push(Vec::new());
        }
        chunks
            .last_mut()
            .expect("a chunk was just pushed")
            .push((i, d));
    }
    let mut out = Streamed {
        holes: Vec::new(),
        completed: 0,
        retained: Vec::new(),
    };
    let template = agg.fresh_partial();
    agg.merge(&agg.fresh_partial())?;
    let map = span("executor.map", None);
    let submitted = crate::measure::now_ns();
    executor::map_ordered(
        chunks,
        threads,
        &CancelToken::new(),
        |_, chunk: Vec<(usize, Device)>| {
            let _task = task_span(submitted);
            let mut runs: Vec<(usize, DeviceRun)> = chunk
                .iter()
                .map(|(i, d)| (*i, run_device(cfg, *i, total, d)))
                .collect();
            let mut partial = template.fresh_partial();
            {
                let _fold = span("aggregate.fold", None);
                for (_, run) in &mut runs {
                    run.outcome.accepted = matches!(
                        (run.score, run.rsd),
                        (Some(s), Some(r)) if template.admits(s, r)
                    );
                    if let (Some(s), Some(r)) = (run.score, run.rsd) {
                        trace::timed("aggregate.fold_ns", 1.0, || {
                            partial.fold(&run.outcome.device, s, r)
                        });
                    }
                }
            }
            (runs, partial, crate::measure::now_ns())
        },
        |_, (runs, partial, done)| -> Result<(), BenchError> {
            reorder_wait(done);
            let _sink = span("crowd.sink", None);
            for (index, run) in runs {
                if let (Some(s), true) = (run.score, retain && run.outcome.accepted) {
                    out.retained.push((index, s));
                }
                if run.outcome.verdict.is_some() {
                    out.completed += 1;
                }
                if run.outcome.is_hole() {
                    out.holes.push(run.outcome);
                }
            }
            let _merge = span("aggregate.merge", None);
            trace::timed("aggregate.merge_us", 1e3, || agg.merge(&partial))
        },
    )?;
    drop(map);
    agg.merge(&agg.fresh_partial())?;
    Ok(out)
}

/// `populate_parallel` on a [`CrowdDatabase`] with a journal, traced: one
/// device per task, the in-order sink submits each score and journals each
/// device with one `append_all`.
pub fn journaled(
    db: &mut CrowdDatabase,
    model: &str,
    devices: Vec<Device>,
    cfg: &SweepConfig,
    journal: &mut Journal,
    threads: usize,
) -> Result<Vec<SweepOutcome>, BenchError> {
    let total = devices.len();
    let labels: Vec<String> = devices.iter().map(|d| d.label().to_owned()).collect();
    let header = Record::Header {
        model: model.to_owned(),
        digest: cfg.digest(model, &labels),
        devices: total,
    };
    append(journal, &[header])?;
    let mut outcomes = Vec::with_capacity(total);
    let map = span("executor.map", None);
    let submitted = crate::measure::now_ns();
    executor::map_ordered(
        devices,
        threads,
        &CancelToken::new(),
        |index, device: Device| {
            let _task = task_span(submitted);
            let run = run_device(cfg, index, total, &device);
            (run, crate::measure::now_ns())
        },
        |index, (mut run, done): (DeviceRun, u64)| -> Result<(), BenchError> {
            reorder_wait(done);
            let _sink = span("crowd.sink", Some(index));
            if let (Some(score), Some(rsd)) = (run.score, run.rsd) {
                let _submit = span("crowd_db.submit", Some(index));
                let submission = CrowdScore {
                    model: model.to_owned(),
                    device: run.outcome.device.clone(),
                    score,
                    rsd,
                };
                run.outcome.accepted =
                    trace::timed("crowd_db.submit_ns", 1.0, || db.submit(submission));
            }
            append(journal, &device_records(index, &run))?;
            outcomes.push(run.outcome);
            Ok(())
        },
    )?;
    drop(map);
    append(journal, &[Record::Complete { devices: total }])?;
    Ok(outcomes)
}

fn append(journal: &mut Journal, records: &[Record]) -> Result<(), BenchError> {
    let _append = span("journal.append", None);
    trace::timed("journal.append_us", 1e3, || journal.append_all(records))?;
    Ok(())
}
