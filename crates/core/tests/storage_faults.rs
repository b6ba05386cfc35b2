//! Storage-fault chaos for the journaled sweep: inject ENOSPC, transient
//! and persistent EIO, short writes and lying fsyncs into the journal's
//! filesystem and require the sweep to heal in place, degrade gracefully,
//! or abort — exactly as the escalation policy says — while the journal's
//! sealed prefix stays resumable.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, FleetVerdict, StreamedSweep, SweepConfig,
};
use accubench::journal::{fsck_with, CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::storage::{CrashVariant, FaultyStorage, MemStorage, Storage, StorageEscalation};
use accubench::BenchError;
use pv_faults::{FaultEvent, FaultKind, FaultPlan, ALL_KINDS};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Seconds;
use std::path::Path;
use std::sync::Arc;

const DEVICES: usize = 4;
const JOURNAL: &str = "/chaos/run.journal";

fn quick() -> Protocol {
    Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0))
}

fn fleet() -> Vec<Device> {
    (0..DEVICES)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (DEVICES.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-crowd-{i:03}")).unwrap()
        })
        .collect()
}

fn cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 2).with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
}

fn db() -> CrowdDatabase {
    CrowdDatabase::new(5.0).unwrap()
}

/// A plan holding one storage fault window. `at`/`duration` count storage
/// operations, not seconds.
fn storage_plan(kind: FaultKind, at: f64, duration: f64) -> FaultPlan {
    FaultPlan {
        seed: 0,
        events: vec![FaultEvent {
            at,
            duration,
            kind,
            magnitude: 0.0,
        }],
    }
}

fn sweep(
    db: &mut CrowdDatabase,
    journal: &mut Journal,
    escalation: StorageEscalation,
) -> Result<accubench::crowd::JournaledSweep, BenchError> {
    populate_parallel(
        db,
        "Pixel",
        fleet(),
        &cfg().with_storage_escalation(escalation),
        Some(journal),
        &CancelToken::new(),
        2,
    )
}

/// [`sweep`] through the streamed sink instead of the oracle database.
fn sweep_streamed(
    journal: &mut Journal,
    escalation: StorageEscalation,
) -> Result<StreamedSweep, BenchError> {
    populate_streamed(
        &mut ScoreAggregate::new(5.0).unwrap(),
        "Pixel",
        fleet(),
        &cfg().with_storage_escalation(escalation),
        Some(journal),
        &CancelToken::new(),
        2,
        1,
        false,
    )
}

/// The uninterrupted journal bytes, report and scores on a pristine disk.
fn reference() -> (Vec<u8>, accubench::crowd::SweepReport, Vec<f64>) {
    let mem = MemStorage::new();
    let storage = Storage::new(Arc::new(mem.clone()));
    let mut refdb = db();
    let mut journal = Journal::open_with(storage.clone(), JOURNAL).unwrap();
    let s = sweep(&mut refdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(s.complete && s.storage_degraded.is_none());
    let scores = refdb.scores().iter().map(|s| s.score).collect();
    (
        mem.file_bytes(Path::new(JOURNAL)).unwrap(),
        s.report,
        scores,
    )
}

/// ENOSPC mid-sweep with no room to rotate: under `degrade` the sweep
/// still completes with exit-0 semantics (an `Ok` result), the verdict is
/// `storage-degraded`, and the journal holds a clean, resumable prefix of
/// the uninterrupted run.
#[test]
fn enospc_mid_sweep_degrades_and_leaves_resumable_prefix() {
    let (ref_bytes, ref_report, ref_scores) = reference();

    let mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(mem.clone())),
        &storage_plan(FaultKind::StorageEnospc, 5.0, 1e9),
    )));
    let mut ddb = db();
    let mut journal = Journal::open_with(faulty.clone(), JOURNAL).unwrap();
    let degraded = sweep(&mut ddb, &mut journal, StorageEscalation::Degrade).unwrap();
    drop(journal);

    assert!(degraded.complete);
    let detail = degraded.storage_degraded.as_deref().unwrap();
    assert!(detail.contains("no space left"), "{detail}");
    assert_eq!(degraded.fleet_verdict(), FleetVerdict::StorageDegraded);
    // The sweep itself is whole: every device simulated, scores submitted.
    assert_eq!(degraded.report, ref_report);
    assert_eq!(
        ddb.scores().iter().map(|s| s.score).collect::<Vec<_>>(),
        ref_scores
    );

    // The journal is a clean prefix of the uninterrupted run's bytes.
    let prefix = mem.file_bytes(Path::new(JOURNAL)).unwrap();
    assert!(!prefix.is_empty() && prefix.len() < ref_bytes.len());
    assert!(ref_bytes.starts_with(&prefix));
    let clean = Storage::new(Arc::new(mem.clone()));
    assert!(fsck_with(&clean, JOURNAL).unwrap().is_clean());

    // And once space returns, a resume converges on the reference.
    let mut rdb = db();
    let mut journal = Journal::open_with(clean.clone(), JOURNAL).unwrap();
    let resumed = sweep(&mut rdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(resumed.complete && resumed.storage_degraded.is_none());
    assert!(resumed.resumed > 0);
    assert_eq!(resumed.report, ref_report);
    assert_eq!(mem.file_bytes(Path::new(JOURNAL)).unwrap(), ref_bytes);

    // The streamed sink degrades identically: same verdict, same detail,
    // same journal prefix.
    let streamed_mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(streamed_mem.clone())),
        &storage_plan(FaultKind::StorageEnospc, 5.0, 1e9),
    )));
    let mut journal = Journal::open_with(faulty, JOURNAL).unwrap();
    let streamed = sweep_streamed(&mut journal, StorageEscalation::Degrade).unwrap();
    drop(journal);
    assert!(streamed.complete);
    assert_eq!(streamed.storage_degraded, degraded.storage_degraded);
    assert_eq!(streamed.fleet_verdict(), FleetVerdict::StorageDegraded);
    assert_eq!(streamed_mem.file_bytes(Path::new(JOURNAL)).unwrap(), prefix);
}

/// The same ENOSPC under `abort` escalation surfaces the I/O error.
#[test]
fn enospc_respects_abort_escalation() {
    let mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(mem.clone())),
        &storage_plan(FaultKind::StorageEnospc, 5.0, 1e9),
    )));
    let mut journal = Journal::open_with(faulty.clone(), JOURNAL).unwrap();
    let err = sweep(&mut db(), &mut journal, StorageEscalation::Abort).unwrap_err();
    assert!(matches!(err, BenchError::Journal(_)), "{err}");
    assert!(err.to_string().contains("no space left"), "{err}");
    drop(journal);

    // The streamed sink fails with the same error on the same bytes.
    let streamed_mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(streamed_mem.clone())),
        &storage_plan(FaultKind::StorageEnospc, 5.0, 1e9),
    )));
    let mut journal = Journal::open_with(faulty, JOURNAL).unwrap();
    let streamed_err = sweep_streamed(&mut journal, StorageEscalation::Abort).unwrap_err();
    drop(journal);
    assert!(
        matches!(streamed_err, BenchError::Journal(_)),
        "{streamed_err}"
    );
    assert_eq!(streamed_err.to_string(), err.to_string());
    assert_eq!(
        streamed_mem.file_bytes(Path::new(JOURNAL)).unwrap(),
        mem.file_bytes(Path::new(JOURNAL)).unwrap()
    );
}

/// A bounded transient-EIO window is retried away inside the journal: the
/// sweep completes fully journaled and the bytes are identical to the
/// fault-free run's.
#[test]
fn transient_eio_window_heals_in_place() {
    let (ref_bytes, ref_report, _) = reference();

    let mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(mem.clone())),
        &storage_plan(FaultKind::StorageEioTransient, 4.0, 3.0),
    )));
    let mut sdb = db();
    let mut journal = Journal::open_with(faulty.clone(), JOURNAL).unwrap();
    let s = sweep(&mut sdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(s.complete && s.storage_degraded.is_none());
    assert_eq!(s.report, ref_report);
    let health = journal.health();
    assert!(health.retries > 0, "window never hit a journal write");
    assert_eq!(health.rotations, 0);
    assert!(health.backoff_sim_s > 0.0);
    drop(journal);
    assert_eq!(mem.file_bytes(Path::new(JOURNAL)).unwrap(), ref_bytes);
}

/// A short write (half the batch lands, then the device errors) is
/// repaired by truncating the torn tail and recommitting — no duplicate
/// or interleaved records survive.
#[test]
fn short_write_repairs_tail_and_recommits() {
    let (ref_bytes, ref_report, _) = reference();

    let mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(mem.clone())),
        &storage_plan(FaultKind::StorageShortWrite, 3.0, 0.0),
    )));
    let mut sdb = db();
    let mut journal = Journal::open_with(faulty.clone(), JOURNAL).unwrap();
    let s = sweep(&mut sdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(s.complete && s.storage_degraded.is_none());
    assert_eq!(s.report, ref_report);
    assert!(journal.health().retries > 0);
    drop(journal);
    assert_eq!(mem.file_bytes(Path::new(JOURNAL)).unwrap(), ref_bytes);
}

/// An fsync that lies (reports success without flushing) is undetectable
/// while power holds — but after a power cycle the unflushed suffix is
/// gone, and a resume heals the journal back to the reference bytes.
#[test]
fn fsync_lie_is_healed_by_resume_after_power_cycle() {
    let (ref_bytes, ref_report, _) = reference();

    // Learn the op index of the final sync (the completion marker's) so
    // the lie can target exactly it; every earlier sync would be masked by
    // a later one flushing the whole file.
    let probe_mem = MemStorage::new();
    let probe = FaultyStorage::new(Storage::new(Arc::new(probe_mem)), &FaultPlan::default());
    let probe_storage = Storage::new(Arc::new(probe.clone()));
    let mut journal = Journal::open_with(probe_storage.clone(), JOURNAL).unwrap();
    sweep(&mut db(), &mut journal, StorageEscalation::Abort).unwrap();
    drop(journal);
    let last_sync = probe.ops() as f64 - 1.0;

    let mem = MemStorage::new();
    let faulty = Storage::new(Arc::new(FaultyStorage::new(
        Storage::new(Arc::new(mem.clone())),
        &storage_plan(FaultKind::StorageFsyncLie, last_sync, 0.0),
    )));
    let mut sdb = db();
    let mut journal = Journal::open_with(faulty.clone(), JOURNAL).unwrap();
    let s = sweep(&mut sdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(s.complete && s.storage_degraded.is_none());
    drop(journal);
    // The lie is invisible live...
    assert_eq!(mem.file_bytes(Path::new(JOURNAL)).unwrap(), ref_bytes);
    // ...but the completion marker never reached the platter.
    mem.power_cycle(CrashVariant::Clean);
    let after = mem.file_bytes(Path::new(JOURNAL)).unwrap();
    assert!(after.len() < ref_bytes.len(), "power cycle lost nothing");

    let clean = Storage::new(Arc::new(mem.clone()));
    let mut rdb = db();
    let mut journal = Journal::open_with(clean.clone(), JOURNAL).unwrap();
    let resumed = sweep(&mut rdb, &mut journal, StorageEscalation::Abort).unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, DEVICES);
    assert_eq!(resumed.report, ref_report);
    drop(journal);
    assert_eq!(mem.file_bytes(Path::new(JOURNAL)).unwrap(), ref_bytes);
}
