//! Chaos tests for the supervision layer (DESIGN.md §12): injected session
//! panics and stalls must be isolated, typed, journaled, and — like every
//! other sweep outcome — **bit-identical** across thread counts and across
//! kill/resume cycles.
//!
//! These tests run with `RUST_BACKTRACE` unset (the CI chaos job exports
//! `RUST_BACKTRACE=0`): backtrace capture is the one documented source of
//! thread-count-dependent journal bytes (see `PanicSummary::backtrace`).

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, FleetVerdict, SweepConfig, SweepReport,
};
use accubench::journal::{CancelToken, Journal, Record};
use accubench::protocol::Protocol;
use accubench::supervise::{
    DeviceStatus, OnFailure, SessionChaos, SupervisionError, SupervisionPolicy,
};
use accubench::BenchError;
use pv_json::ToJson;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::{Celsius, Seconds};
use std::path::PathBuf;

/// Pins std's process-global backtrace decision to "disabled" before any
/// injected panic can capture one. Backtrace capture is the one documented
/// source of thread-dependent journal bytes, so the determinism contract
/// (and the CI chaos job, which exports `RUST_BACKTRACE=0`) holds with it
/// off; this makes the tests immune to the developer's shell environment.
/// Every test calls this first — std caches the decision at the first
/// capture, so it must run before any panic fires.
fn disable_backtraces() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::remove_var("RUST_BACKTRACE");
        std::env::remove_var("RUST_LIB_BACKTRACE");
        let _ = std::backtrace::Backtrace::capture();
    });
}

fn quick() -> Protocol {
    Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0))
}

fn fleet(n: usize) -> Vec<Device> {
    (0..n)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-crowd-{i:03}")).unwrap()
        })
        .collect()
}

fn db() -> CrowdDatabase {
    CrowdDatabase::new(5.0).unwrap()
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pv-chaos-{tag}-{}", std::process::id()))
}

/// Serialized fingerprint of a sweep: compact report JSON + compact
/// database JSON. String equality here is byte equality.
fn fingerprint(report: &SweepReport, db: &CrowdDatabase) -> (String, String) {
    (
        report.to_json().to_string_compact(),
        db.to_json().to_string_compact(),
    )
}

/// A clean-base sweep (no instrument faults, so only chaos victims can
/// become holes) with seeded session chaos.
fn chaos_cfg(panics: usize, stalls: usize) -> SweepConfig {
    SweepConfig::clean(quick(), 2).with_chaos(SessionChaos::new(0xBAD_5EED, panics, stalls))
}

/// Chaos layered over instrument faults: sessions also retry, quarantine
/// iterations, and fail at uneven speeds — the adversarial schedule for
/// determinism checks.
fn faulty_chaos_cfg(panics: usize, stalls: usize) -> SweepConfig {
    SweepConfig::clean(quick(), 2)
        .with_faults(0xC0FFEE, Seconds(1500.0), pv_faults::ALL_KINDS.to_vec())
        .with_chaos(SessionChaos::new(0xBAD_5EED, panics, stalls))
}

fn run(
    cfg: &SweepConfig,
    n: usize,
    threads: usize,
) -> (accubench::crowd::JournaledSweep, CrowdDatabase) {
    let mut d = db();
    let sweep = populate_parallel(
        &mut d,
        "Pixel",
        fleet(n),
        cfg,
        None,
        &CancelToken::new(),
        threads,
    )
    .unwrap();
    (sweep, d)
}

/// Panic chaos: exactly the seeded victims are quarantined as `panicked`,
/// the fleet completes `degraded`, and the result is thread-count
/// independent.
#[test]
fn panic_chaos_quarantines_exact_victims() {
    disable_backtraces();
    const N: usize = 12;
    let cfg = chaos_cfg(3, 0);
    let (panic_victims, _) = cfg.chaos.as_ref().unwrap().victims(N);
    assert_eq!(panic_victims.len(), 3);

    let (serial, serial_db) = run(&cfg, N, 1);
    assert!(serial.complete);
    let report = &serial.report;
    assert_eq!(report.fleet_verdict(), FleetVerdict::Degraded);
    assert_eq!(report.quarantined_devices(), 3);
    assert_eq!(report.panicked(), 3);
    assert_eq!(report.timed_out(), 0);
    for (i, o) in report.outcomes.iter().enumerate() {
        if panic_victims.contains(&i) {
            assert_eq!(o.status, DeviceStatus::Panicked, "device {i}");
            assert!(o.is_hole(), "device {i}");
            assert_eq!(o.verdict, None, "device {i}");
            assert_eq!(o.attempts, 1, "device {i}");
            let err = o.error.as_deref().unwrap();
            assert!(
                err.contains("injected session panic"),
                "device {i}: unexpected error {err:?}"
            );
            // Deterministic headline: the payload alone. An injected
            // panic carries no file:line (and never a backtrace), so the
            // bytes do not depend on the build path.
            assert!(err.starts_with("panic:"), "device {i}: {err:?}");
            assert!(!err.contains(" (at "), "device {i}: {err:?}");
        } else {
            assert_eq!(o.status, DeviceStatus::Completed, "device {i}");
            assert!(o.verdict.is_some(), "device {i}");
        }
    }
    // Survivor statistics exist and exclude the holes.
    let ci = report.survivor_ci(&serial_db, "Pixel").unwrap();
    assert!(ci.lo <= ci.point && ci.point <= ci.hi);
    assert_eq!(serial_db.scores().len(), N - 3);

    let (parallel, parallel_db) = run(&cfg, N, 4);
    assert!(parallel.complete);
    assert_eq!(
        fingerprint(&parallel.report, &parallel_db),
        fingerprint(report, &serial_db),
        "panic chaos diverged between threads 1 and 4"
    );
}

/// Stall chaos: wedged sessions burn only the fault clock until the
/// always-armed simulated-time budget trips, yielding `timed-out` holes —
/// at every thread count.
#[test]
fn stall_chaos_times_out_exact_victims() {
    disable_backtraces();
    const N: usize = 10;
    let cfg = chaos_cfg(0, 2);
    let (_, stall_victims) = cfg.chaos.as_ref().unwrap().victims(N);
    assert_eq!(stall_victims.len(), 2);

    let (serial, serial_db) = run(&cfg, N, 1);
    assert!(serial.complete);
    let report = &serial.report;
    assert_eq!(report.fleet_verdict(), FleetVerdict::Degraded);
    assert_eq!(report.quarantined_devices(), 2);
    assert_eq!(report.timed_out(), 2);
    assert_eq!(report.panicked(), 0);
    for (i, o) in report.outcomes.iter().enumerate() {
        if stall_victims.contains(&i) {
            assert_eq!(o.status, DeviceStatus::TimedOut, "device {i}");
            let err = o.error.as_deref().unwrap();
            assert!(
                err.contains("simulated-time budget"),
                "device {i}: unexpected error {err:?}"
            );
        } else {
            assert_eq!(o.status, DeviceStatus::Completed, "device {i}");
        }
    }

    let (parallel, parallel_db) = run(&cfg, N, 4);
    assert_eq!(
        fingerprint(&parallel.report, &parallel_db),
        fingerprint(report, &serial_db),
        "stall chaos diverged between threads 1 and 4"
    );
}

/// Mixed chaos over an already-faulty fleet, journaled: supervision
/// records land in the journal, outcome indices stay gapless, and killing
/// the journal at seeded random offsets then resuming (at 1 and 4
/// threads) heals to the uninterrupted bytes.
#[test]
fn chaos_journals_are_gapless_and_kill_resume_converges() {
    disable_backtraces();
    const N: usize = 10;
    let cfg = faulty_chaos_cfg(2, 1);

    let full_path = tmp_path("kill-full");
    let _ = std::fs::remove_file(&full_path);
    let mut base_db = db();
    let mut journal = Journal::open(&full_path).unwrap();
    let baseline = populate_parallel(
        &mut base_db,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    assert!(baseline.complete);
    assert_eq!(baseline.report.fleet_verdict(), FleetVerdict::Degraded);
    assert!(baseline.report.quarantined_devices() >= 3);
    drop(journal);
    let full_bytes = std::fs::read(&full_path).unwrap();

    // The journal's outcome indices are the gapless prefix 0..N, and every
    // chaos victim carries at least one supervision record.
    let records = Journal::read_records(&full_path).unwrap();
    let indices: Vec<usize> = records
        .iter()
        .filter_map(|r| match r {
            Record::Outcome { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(indices, (0..N).collect::<Vec<_>>());
    let (panics, stalls) = cfg.chaos.as_ref().unwrap().victims(N);
    for victim in panics.iter().chain(stalls.iter()) {
        assert!(
            records.iter().any(|r| matches!(
                r,
                Record::Supervision { index, .. } if index == victim
            )),
            "device {victim} has no supervision record"
        );
    }

    // Kill at seeded random byte offsets, then resume at 1 and 4 threads.
    let mut rng = StdRng::seed_from_u64(0xFEED_FACE);
    let resume_path = tmp_path("kill-resume");
    for round in 0..6 {
        let cut = rng.gen_range(1..full_bytes.len());
        let threads = if round % 2 == 0 { 1 } else { 4 };
        std::fs::write(&resume_path, &full_bytes[..cut]).unwrap();

        let mut rdb = db();
        let mut journal = Journal::open(&resume_path).unwrap();
        let resumed = populate_parallel(
            &mut rdb,
            "Pixel",
            fleet(N),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            threads,
        )
        .unwrap();
        assert!(resumed.complete, "round {round} (cut {cut})");
        assert_eq!(resumed.report, baseline.report, "round {round} (cut {cut})");
        assert_eq!(rdb.scores(), base_db.scores(), "round {round} (cut {cut})");
        drop(journal);
        assert_eq!(
            std::fs::read(&resume_path).unwrap(),
            full_bytes,
            "round {round} (cut {cut}, threads {threads}): healed journal bytes diverged"
        );
    }
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resume_path);
}

/// Retry escalation: injected chaos is deterministic, so a panic victim
/// granted `max_attempts = 2` fails twice identically, and both attempts
/// are journaled before the device is quarantined.
#[test]
fn retries_fail_deterministically_and_are_journaled() {
    disable_backtraces();
    const N: usize = 6;
    let policy = SupervisionPolicy {
        max_attempts: 2,
        ..SupervisionPolicy::default()
    };
    let cfg = chaos_cfg(1, 0).with_supervision(policy);
    let (panic_victims, _) = cfg.chaos.as_ref().unwrap().victims(N);
    let victim = *panic_victims.iter().next().unwrap();

    let path = tmp_path("retry");
    let _ = std::fs::remove_file(&path);
    let mut d = db();
    let mut journal = Journal::open(&path).unwrap();
    let sweep = populate_parallel(
        &mut d,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        2,
    )
    .unwrap();
    drop(journal);
    assert!(sweep.complete);
    let o = &sweep.report.outcomes[victim];
    assert_eq!(o.status, DeviceStatus::Panicked);
    assert_eq!(o.attempts, 2);
    for (i, o) in sweep.report.outcomes.iter().enumerate() {
        if i != victim {
            assert_eq!(o.attempts, 1, "device {i}");
        }
    }

    let supervision: Vec<(usize, u32, DeviceStatus)> = Journal::read_records(&path)
        .unwrap()
        .iter()
        .filter_map(|r| match r {
            Record::Supervision {
                index,
                attempt,
                status,
                ..
            } => Some((*index, *attempt, *status)),
            _ => None,
        })
        .collect();
    assert_eq!(
        supervision,
        vec![
            (victim, 1, DeviceStatus::Panicked),
            (victim, 2, DeviceStatus::Panicked),
        ]
    );
    let _ = std::fs::remove_file(&path);
}

/// The `abort` escalation policy: the sweep fails on the first hole — but
/// only after journaling it, so the journal still ends on a gapless
/// prefix that includes the fatal device.
#[test]
fn abort_policy_fails_the_sweep_after_journaling_the_hole() {
    disable_backtraces();
    const N: usize = 8;
    let policy = SupervisionPolicy {
        on_failure: OnFailure::Abort,
        ..SupervisionPolicy::default()
    };
    let cfg = chaos_cfg(1, 0).with_supervision(policy);
    let (panic_victims, _) = cfg.chaos.as_ref().unwrap().victims(N);
    let victim = *panic_victims.iter().next().unwrap();

    let path = tmp_path("abort");
    let _ = std::fs::remove_file(&path);
    let mut d = db();
    let mut journal = Journal::open(&path).unwrap();
    let err = populate_parallel(
        &mut d,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        4,
    )
    .unwrap_err();
    drop(journal);
    let oracle_err = err.to_string();
    match err {
        BenchError::Supervision(SupervisionError::FleetAborted {
            device, attempts, ..
        }) => {
            assert_eq!(device, format!("pixel-crowd-{victim:03}"));
            assert_eq!(attempts, 1);
        }
        other => panic!("expected FleetAborted, got {other}"),
    }

    // The journal holds the contiguous prefix through the fatal device,
    // whose outcome (the hole) is the last one journaled.
    let records = Journal::read_records(&path).unwrap();
    let outcomes: Vec<(usize, DeviceStatus)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Outcome { index, outcome, .. } => Some((*index, outcome.status)),
            _ => None,
        })
        .collect();
    assert_eq!(
        outcomes.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        (0..=victim).collect::<Vec<_>>()
    );
    assert_eq!(outcomes.last().unwrap().1, DeviceStatus::Panicked);
    assert!(!records.iter().any(|r| matches!(r, Record::Complete { .. })));

    // The streamed sink aborts on the same hole with the same error and
    // leaves the same journal bytes.
    let streamed_path = tmp_path("abort-streamed");
    let _ = std::fs::remove_file(&streamed_path);
    let mut journal = Journal::open(&streamed_path).unwrap();
    let err = populate_streamed(
        &mut ScoreAggregate::new(5.0).unwrap(),
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        4,
        1,
        false,
    )
    .unwrap_err();
    drop(journal);
    assert!(
        matches!(
            err,
            BenchError::Supervision(SupervisionError::FleetAborted { .. })
        ),
        "{err}"
    );
    assert_eq!(err.to_string(), oracle_err);
    assert_eq!(
        std::fs::read(&streamed_path).unwrap(),
        std::fs::read(&path).unwrap()
    );
    let _ = std::fs::remove_file(&streamed_path);
    let _ = std::fs::remove_file(&path);
}

/// The acceptance scenario: a 1000-device sweep with 5 panicking and 3
/// stalling devices completes `degraded` with exactly 8 quarantined
/// holes, produces survivor bootstrap CIs, and its journal and database
/// bytes are identical across thread counts and across a kill + resume.
/// Ignored by default (minutes of work); CI's chaos job runs it in
/// release mode.
#[test]
#[ignore = "acceptance-scale; run explicitly or via the CI chaos job"]
fn thousand_device_fleet_degrades_gracefully() {
    disable_backtraces();
    const N: usize = 1000;
    // Long and hot enough to throttle, so process grade differentiates
    // scores (quick() never warms the die, every grade scores identically,
    // and the bootstrap interval would degenerate to ulp noise).
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(60.0))
        .with_workload(Seconds(120.0));
    let mut cfg = SweepConfig::clean(protocol, 1).with_chaos(SessionChaos::new(0xACCE55, 5, 3));
    cfg.ambient = Celsius(35.0);
    let (panics, stalls) = cfg.chaos.as_ref().unwrap().victims(N);
    assert_eq!((panics.len(), stalls.len()), (5, 3));

    // Serial journaled reference.
    let serial_path = tmp_path("acc-serial");
    let _ = std::fs::remove_file(&serial_path);
    let mut serial_db = db();
    let mut journal = Journal::open(&serial_path).unwrap();
    let serial = populate_parallel(
        &mut serial_db,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    drop(journal);
    assert!(serial.complete);
    let report = &serial.report;
    assert_eq!(report.fleet_verdict(), FleetVerdict::Degraded);
    assert_eq!(report.quarantined_devices(), 8);
    assert_eq!(report.panicked(), 5);
    assert_eq!(report.timed_out(), 3);
    assert_eq!(report.completed(), N - 8);
    let ci = report.survivor_ci(&serial_db, "Pixel").unwrap();
    assert!(ci.lo < ci.hi && ci.lo <= ci.point && ci.point <= ci.hi);
    assert_eq!(serial_db.scores().len(), N - 8);
    let serial_bytes = std::fs::read(&serial_path).unwrap();

    // Same sweep at 4 threads: byte-identical journal and database.
    let par_path = tmp_path("acc-par");
    let _ = std::fs::remove_file(&par_path);
    let mut par_db = db();
    let mut journal = Journal::open(&par_path).unwrap();
    let parallel = populate_parallel(
        &mut par_db,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        4,
    )
    .unwrap();
    drop(journal);
    assert!(parallel.complete);
    assert_eq!(
        fingerprint(&parallel.report, &par_db),
        fingerprint(report, &serial_db)
    );
    assert_eq!(std::fs::read(&par_path).unwrap(), serial_bytes);

    // Kill the journal at a seeded offset and resume at 4 threads: the
    // healed journal converges on the reference bytes.
    let mut rng = StdRng::seed_from_u64(0xFEED_FACE);
    let cut = rng.gen_range(1..serial_bytes.len());
    let resume_path = tmp_path("acc-resume");
    std::fs::write(&resume_path, &serial_bytes[..cut]).unwrap();
    let mut rdb = db();
    let mut journal = Journal::open(&resume_path).unwrap();
    let resumed = populate_parallel(
        &mut rdb,
        "Pixel",
        fleet(N),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        4,
    )
    .unwrap();
    drop(journal);
    assert!(resumed.complete);
    assert_eq!(resumed.report, serial.report);
    assert_eq!(rdb.scores(), serial_db.scores());
    assert_eq!(std::fs::read(&resume_path).unwrap(), serial_bytes);

    for p in [&serial_path, &par_path, &resume_path] {
        let _ = std::fs::remove_file(p);
    }
}
