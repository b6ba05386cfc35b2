//! Crash-consistency torture: enumerate EVERY I/O boundary of a journaled
//! sweep, kill the "machine" at each one, reboot, resume — and require the
//! resumed journal and report to be byte-identical to an uninterrupted
//! run's.
//!
//! The filesystem is [`MemStorage`], whose durability model distinguishes
//! page-cache contents from fsynced bytes. A reference sweep counts the
//! mutating storage operations; the torture loop then re-runs the sweep
//! with a crash armed before operation `k`, for every `k`, under three
//! reboot variants: `Clean` (only fsynced bytes survive), `Partial` (half
//! the unsynced suffix landed — a torn multi-sector write) and `Torn`
//! (half landed and its tail was corrupted in flight).
//!
//! The sweep commits its journal once per [`STREAM_GROUP`] devices, so the
//! fleet spans two full groups plus a partial tail: crashes land before,
//! inside and between group commits, and a `Partial` reboot can leave a
//! group's first devices on disk with the rest torn away.

use accubench::crowd::{
    populate_parallel, CrowdDatabase, JournaledSweep, SweepConfig, STREAM_GROUP,
};
use accubench::journal::{fsck_with, CancelToken, Journal};
use accubench::protocol::Protocol;
use accubench::storage::{CrashVariant, MemStorage, Storage, StorageEscalation};
use accubench::BenchError;
use pv_faults::ALL_KINDS;
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Seconds;
use std::path::Path;
use std::sync::Arc;

const DEVICES: usize = 2 * STREAM_GROUP + 3;
const JOURNAL: &str = "/torture/run.journal";

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

/// Instrument faults make outcomes differ across devices (a resume that
/// desynchronised per-device seeding would be caught); `Abort` storage
/// escalation makes the crashed run fail fast instead of finishing the
/// fleet unjournaled.
fn cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 2)
        .with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
        .with_storage_escalation(StorageEscalation::Abort)
}

fn db() -> CrowdDatabase {
    CrowdDatabase::new(5.0).unwrap()
}

/// One journaled sweep over `storage`, two worker threads.
fn run(storage: &Storage, db: &mut CrowdDatabase) -> Result<JournaledSweep, BenchError> {
    let mut journal = Journal::open_with(storage.clone(), JOURNAL)?;
    populate_parallel(
        db,
        "Pixel",
        fleet(),
        &cfg(),
        Some(&mut journal),
        &CancelToken::new(),
        2,
    )
}

#[test]
fn crash_at_every_io_boundary_resumes_byte_identically() {
    // Reference: uninterrupted journaled run on a pristine mem-disk.
    let ref_mem = MemStorage::new();
    let ref_storage = Storage::new(Arc::new(ref_mem.clone()));
    let mut ref_db = db();
    let reference = run(&ref_storage, &mut ref_db).unwrap();
    assert!(reference.complete);
    assert!(reference.storage_degraded.is_none());
    let ref_bytes = ref_mem.file_bytes(Path::new(JOURNAL)).unwrap();
    let ref_scores = ref_db.scores().to_vec();
    let total_ops = ref_mem.ops();
    // One create, then a write + fsync each for the header, every group
    // commit and the completion marker.
    let groups = DEVICES.div_ceil(STREAM_GROUP) as u64;
    assert_eq!(groups, 3);
    assert_eq!(
        total_ops,
        1 + 2 + 2 * groups + 2,
        "expected one create, a header, {groups} group commits and a \
         completion marker"
    );

    // Crash before every operation, under every reboot variant.
    for k in 0..=total_ops {
        for variant in [
            CrashVariant::Clean,
            CrashVariant::Partial,
            CrashVariant::Torn { seed: 0x5EED ^ k },
        ] {
            let mem = MemStorage::new();
            let storage = Storage::new(Arc::new(mem.clone()));
            mem.arm_crash(k);
            // The crashed run may fail (journal I/O surfaced under Abort)
            // or complete (crash armed past its last operation) — both are
            // legitimate ends of a dying machine.
            let _ = run(&storage, &mut db());
            mem.power_cycle(variant);

            let mut resumed_db = db();
            let resumed = run(&storage, &mut resumed_db)
                .unwrap_or_else(|e| panic!("crash at op {k} ({variant:?}): resume failed: {e}"));
            let tag = format!("crash at op {k} ({variant:?})");
            assert!(resumed.complete, "{tag}");
            assert!(resumed.storage_degraded.is_none(), "{tag}");
            assert_eq!(resumed.report, reference.report, "{tag}");
            assert_eq!(resumed_db.scores(), &ref_scores[..], "{tag}");
            assert_eq!(
                mem.file_bytes(Path::new(JOURNAL)).unwrap(),
                ref_bytes,
                "{tag}: resumed journal bytes diverge"
            );
            let report = fsck_with(&storage, JOURNAL).unwrap();
            assert!(
                report.is_clean(),
                "{tag}: fsck dirty after resume: {report}"
            );
        }
    }
}
