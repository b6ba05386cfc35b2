//! Group commit of the sweep journal: both sinks commit once per
//! [`STREAM_GROUP`] of device indices — one write and one fsync per group,
//! not per device — on a grid that depends on the device index alone. The
//! storage-op count, the journal bytes and the early-stop commits are
//! pinned here.
//!
//! Runs with `RUST_BACKTRACE` unset, like the chaos suite: backtrace
//! capture is the one documented source of thread-dependent journal bytes.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, SweepConfig, STREAM_GROUP,
};
use accubench::journal::{fsck_with, CancelToken, Journal, JournalError, Record};
use accubench::protocol::Protocol;
use accubench::storage::{FaultyStorage, MemStorage, Storage, StorageEscalation};
use accubench::supervise::{OnFailure, SessionChaos, SupervisionError, SupervisionPolicy};
use accubench::BenchError;
use pv_faults::{FaultEvent, FaultKind, FaultPlan, ALL_KINDS};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Seconds;
use std::path::Path;
use std::sync::Arc;

const JOURNAL: &str = "/group/run.journal";

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

/// Instrument faults give some devices Note records, so a group commit
/// carries more than bare outcomes.
fn cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 1)
        .with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
        .with_storage_escalation(StorageEscalation::Abort)
}

#[derive(Clone, Copy, Debug)]
enum Sink {
    Database,
    Streamed,
}

/// Runs one journaled sweep of `n` devices on `storage` through `sink`.
fn sweep(
    sink: Sink,
    storage: &Storage,
    cfg: &SweepConfig,
    n: usize,
    threads: usize,
) -> Result<(bool, Option<String>), BenchError> {
    let mut journal = Journal::open_with(storage.clone(), JOURNAL)?;
    let cancel = CancelToken::new();
    match sink {
        Sink::Database => {
            let mut db = CrowdDatabase::new(5.0)?;
            let s = populate_parallel(
                &mut db,
                "Pixel",
                fleet(n),
                cfg,
                Some(&mut journal),
                &cancel,
                threads,
            )?;
            Ok((s.complete, s.storage_degraded))
        }
        Sink::Streamed => {
            let s = populate_streamed(
                &mut ScoreAggregate::new(5.0)?,
                "Pixel",
                fleet(n),
                cfg,
                Some(&mut journal),
                &cancel,
                threads,
                1,
                false,
            )?;
            Ok((s.complete, s.storage_degraded))
        }
    }
}

fn mem() -> (MemStorage, Storage) {
    let mem = MemStorage::new();
    let storage = Storage::new(Arc::new(mem.clone()));
    (mem, storage)
}

fn outcome_indices(records: &[Record]) -> Vec<usize> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Outcome { index, .. } => Some(*index),
            _ => None,
        })
        .collect()
}

/// Every sweep performs one create, a write + fsync for the header, one
/// per group of device indices and one for the seal — whatever the sink
/// and the thread count — and writes the bytes a record-at-a-time journal
/// of the same stream would hold.
#[test]
fn one_commit_per_group_at_every_thread_count() {
    disable_backtraces();
    for n in [1, 63, 64, 65, 130] {
        let mut reference: Option<Vec<u8>> = None;
        for sink in [Sink::Database, Sink::Streamed] {
            for threads in [1, 2] {
                let tag = format!("n={n} {sink:?} threads={threads}");
                let (mem, storage) = mem();
                let (complete, degraded) = sweep(sink, &storage, &cfg(), n, threads).unwrap();
                assert!(complete && degraded.is_none(), "{tag}");
                let groups = n.div_ceil(STREAM_GROUP) as u64;
                assert_eq!(mem.ops(), 3 + 2 * groups + 2, "{tag}");

                let bytes = mem.file_bytes(Path::new(JOURNAL)).unwrap();
                let records = Journal::read_records_with(&storage, JOURNAL).unwrap();
                assert_eq!(outcome_indices(&records), (0..n).collect::<Vec<_>>());
                let (one_mem, one_storage) = self::mem();
                let mut one = Journal::open_with(one_storage, JOURNAL).unwrap();
                for r in &records {
                    one.append(r).unwrap();
                }
                assert_eq!(one.health().commits, records.len() as u64);
                drop(one);
                assert_eq!(
                    one_mem.file_bytes(Path::new(JOURNAL)).unwrap(),
                    bytes,
                    "{tag}: group commits changed the journal bytes"
                );
                match &reference {
                    None => reference = Some(bytes),
                    Some(r) => assert_eq!(r, &bytes, "{tag}: bytes differ across runs"),
                }
            }
        }
    }
}

/// The journal counts its commits and the records they carried.
#[test]
fn storage_health_counts_commits_and_records() {
    disable_backtraces();
    let n = STREAM_GROUP + 1;
    let (_, storage) = mem();
    let mut journal = Journal::open_with(storage.clone(), JOURNAL).unwrap();
    let mut db = CrowdDatabase::new(5.0).unwrap();
    populate_parallel(
        &mut db,
        "Pixel",
        fleet(n),
        &cfg(),
        Some(&mut journal),
        &CancelToken::new(),
        2,
    )
    .unwrap();
    let health = journal.health().clone();
    drop(journal);
    let records = Journal::read_records_with(&storage, JOURNAL).unwrap();
    assert_eq!(health.commits, 4, "header, two groups, seal");
    assert_eq!(health.records, records.len() as u64);
    assert!(health.is_clean());
}

/// The first chaos seed whose single panic victim in a fleet of `fleet`
/// is device `victim`.
fn chaos_striking(victim: usize, fleet: usize) -> SessionChaos {
    (0..)
        .map(|seed| SessionChaos::new(seed, 1, 0))
        .find(|c| c.victims(fleet).0.contains(&victim))
        .unwrap()
}

/// `OnFailure::Abort` stops the sweep inside a group: the open group is
/// committed before the error returns, so the journal holds every device
/// through the hole. Resuming replays the hole instead of aborting on it
/// again, and the finished journal holds the uninterrupted quarantine
/// run's record stream.
#[test]
fn abort_commits_the_open_group_through_the_hole() {
    disable_backtraces();
    const N: usize = 130;
    const VICTIM: usize = 70;
    let chaos = chaos_striking(VICTIM, N);
    let policy = |on_failure| SupervisionPolicy {
        on_failure,
        ..SupervisionPolicy::default()
    };
    let abort_cfg = cfg()
        .with_chaos(chaos.clone())
        .with_supervision(policy(OnFailure::Abort));
    let quarantine_cfg = cfg()
        .with_chaos(chaos)
        .with_supervision(policy(OnFailure::Quarantine));

    // The uninterrupted quarantine run.
    let (ref_mem, ref_storage) = mem();
    let (complete, _) = sweep(Sink::Database, &ref_storage, &quarantine_cfg, N, 2).unwrap();
    assert!(complete);
    let ref_bytes = ref_mem.file_bytes(Path::new(JOURNAL)).unwrap();

    for sink in [Sink::Database, Sink::Streamed] {
        for threads in [1, 2] {
            let tag = format!("{sink:?} threads={threads}");
            let (mem, storage) = mem();
            match sweep(sink, &storage, &abort_cfg, N, threads).unwrap_err() {
                BenchError::Supervision(SupervisionError::FleetAborted { device, .. }) => {
                    assert_eq!(device, format!("pixel-crowd-{VICTIM:03}"), "{tag}");
                }
                other => panic!("{tag}: expected FleetAborted, got {other}"),
            }
            let records = Journal::read_records_with(&storage, JOURNAL).unwrap();
            assert_eq!(
                outcome_indices(&records),
                (0..=VICTIM).collect::<Vec<_>>(),
                "{tag}"
            );
            assert!(!records.iter().any(|r| matches!(r, Record::Complete { .. })));
            assert!(fsck_with(&storage, JOURNAL).unwrap().is_clean(), "{tag}");

            // The policy is digested: a quarantine resume of an abort
            // journal is refused rather than continued under other rules.
            assert!(
                matches!(
                    sweep(sink, &storage, &quarantine_cfg, N, threads),
                    Err(BenchError::Journal(JournalError::DigestMismatch { .. }))
                ),
                "{tag}"
            );
            // Under its own policy the resume replays the hole, quarantines
            // it, and runs the tail.
            let (complete, degraded) = sweep(sink, &storage, &abort_cfg, N, threads).unwrap();
            assert!(complete && degraded.is_none(), "{tag}");
            let bytes = mem.file_bytes(Path::new(JOURNAL)).unwrap();
            let body = |b: &[u8]| b[b.iter().position(|&c| c == b'\n').unwrap()..].to_vec();
            assert_eq!(
                body(&bytes),
                body(&ref_bytes),
                "{tag}: the resumed record stream differs from the quarantine run's"
            );
        }
    }
}

/// Under `Degrade`, a failed group commit stops journaling and names the
/// group's first device; the journal keeps the groups committed before it,
/// and a resume on healthy storage reaches the uninterrupted bytes.
#[test]
fn failed_group_commit_degrades_naming_the_group() {
    disable_backtraces();
    const N: usize = 2 * STREAM_GROUP + 2;
    let degrade = cfg().with_storage_escalation(StorageEscalation::Degrade);
    let (ref_mem, ref_storage) = mem();
    sweep(Sink::Database, &ref_storage, &degrade, N, 2).unwrap();
    let ref_bytes = ref_mem.file_bytes(Path::new(JOURNAL)).unwrap();

    // Ops 0–2: create and header; 3–4: the first group; 5: the second
    // group's write, where the disk dies for good.
    let plan = FaultPlan::empty().with_event(FaultEvent {
        at: 5.0,
        duration: 1.0,
        kind: FaultKind::StorageEioPersistent,
        magnitude: 0.0,
    });
    for sink in [Sink::Database, Sink::Streamed] {
        let tag = format!("{sink:?}");
        let mem = MemStorage::new();
        let faulty = Storage::new(Arc::new(FaultyStorage::new(
            Storage::new(Arc::new(mem.clone())),
            &plan,
        )));
        let (complete, degraded) = sweep(sink, &faulty, &degrade, N, 2).unwrap();
        assert!(complete, "{tag}");
        let detail = degraded.unwrap();
        assert!(
            detail.starts_with(&format!("journaling stopped at device {STREAM_GROUP}:")),
            "{tag}: {detail}"
        );
        let clean = Storage::new(Arc::new(mem.clone()));
        let records = Journal::read_records_with(&clean, JOURNAL).unwrap();
        assert_eq!(
            outcome_indices(&records),
            (0..STREAM_GROUP).collect::<Vec<_>>(),
            "{tag}"
        );

        let (complete, degraded) = sweep(sink, &clean, &degrade, N, 2).unwrap();
        assert!(complete && degraded.is_none(), "{tag}");
        assert_eq!(
            mem.file_bytes(Path::new(JOURNAL)).unwrap(),
            ref_bytes,
            "{tag}"
        );
    }
}
