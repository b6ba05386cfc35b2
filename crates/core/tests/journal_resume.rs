//! Crash-safety contract of the journaled sweep: kill the process at an
//! arbitrary byte of the write-ahead journal, resume, and the final report
//! is bit-identical to an uninterrupted run's.
//!
//! The "kill" is simulated by truncating a completed journal at a seeded
//! random byte offset — exactly what a power cut mid-`write` leaves on
//! disk — and handing the mutilated file back to [`populate_parallel`].

use accubench::crowd::{populate_parallel, CrowdDatabase, SweepConfig, SweepOutcome, SweepReport};
use accubench::journal::{fsck, prepare_journal, CancelToken, Journal, Record};
use accubench::protocol::Protocol;
use accubench::session::Verdict;
use accubench::supervise::DeviceStatus;
use accubench::BenchError;
use pv_faults::ALL_KINDS;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_units::Seconds;
use std::path::PathBuf;

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

/// Faulty enough that outcomes differ across devices, so a resume that
/// desynchronised the per-device seeding would be caught.
fn faulty_cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 2).with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pv-journal-{tag}-{}", std::process::id()))
}

fn db() -> CrowdDatabase {
    CrowdDatabase::new(5.0).unwrap()
}

const DEVICES: usize = 10;

/// The acceptance test: journal a sweep, truncate the journal at a random
/// byte offset (seeded, 12 distinct kill points), resume, and require the
/// resumed report and crowd database to equal the uninterrupted run's.
#[test]
fn kill_at_random_offset_resumes_to_identical_result() {
    let cfg = faulty_cfg();

    // Uninterrupted, unjournaled baseline.
    let mut base_db = db();
    let baseline = populate_parallel(
        &mut base_db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap()
    .report;

    // Uninterrupted journaled run: same report, and the journal alone
    // reconstructs it.
    let full_path = tmp_path("full");
    let _ = std::fs::remove_file(&full_path);
    let mut journal = Journal::open(&full_path).unwrap();
    let mut jdb = db();
    let sweep = populate_parallel(
        &mut jdb,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    assert!(sweep.complete);
    assert_eq!(sweep.resumed, 0);
    assert_eq!(sweep.report, baseline);
    assert_eq!(jdb.scores(), base_db.scores());
    drop(journal);
    let full_bytes = std::fs::read(&full_path).unwrap();
    let records = Journal::read_records(&full_path).unwrap();
    assert_eq!(SweepReport::from_journal(&records).unwrap(), baseline);

    // Kill at 12 seeded random byte offsets and resume each time.
    let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
    let resume_path = tmp_path("resume");
    for round in 0..12 {
        let cut = rng.gen_range(1..full_bytes.len());
        std::fs::write(&resume_path, &full_bytes[..cut]).unwrap();

        let mut journal = Journal::open(&resume_path).unwrap();
        let recovered = journal.recovered().len();
        assert!(
            recovered < records.len(),
            "round {round}: cut {cut} dropped nothing"
        );
        let mut rdb = db();
        let resumed = populate_parallel(
            &mut rdb,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            1,
        );
        // A cut inside the header leaves an empty journal, which a resume
        // treats as a fresh sweep — still converging on the baseline.
        let resumed = resumed.unwrap();
        assert!(resumed.complete, "round {round} (cut {cut})");
        assert_eq!(resumed.report, baseline, "round {round} (cut {cut})");
        assert_eq!(rdb.scores(), base_db.scores(), "round {round} (cut {cut})");

        // And the healed journal itself reconstructs the same report.
        drop(journal);
        let healed = Journal::read_records(&resume_path).unwrap();
        assert_eq!(
            SweepReport::from_journal(&healed).unwrap(),
            baseline,
            "round {round} (cut {cut})"
        );
    }
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resume_path);
}

/// Resuming under a changed configuration (different fault seed, different
/// fleet size) is a hard error before anything runs.
#[test]
fn resume_refuses_changed_configuration() {
    let cfg = faulty_cfg();
    let path = tmp_path("digest");
    let _ = std::fs::remove_file(&path);

    let mut journal = Journal::open(&path).unwrap();
    populate_parallel(
        &mut db(),
        "Pixel",
        fleet(4),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    drop(journal);

    // Different fault seed.
    let other = SweepConfig::clean(quick(), 2).with_faults(1, Seconds(1500.0), ALL_KINDS.to_vec());
    let mut journal = Journal::open(&path).unwrap();
    let err = populate_parallel(
        &mut db(),
        "Pixel",
        fleet(4),
        &other,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap_err();
    assert!(matches!(err, BenchError::Journal(_)), "{err}");
    assert!(format!("{err}").contains("refusing to resume"), "{err}");
    drop(journal);

    // Different fleet size under the same config.
    let mut journal = Journal::open(&path).unwrap();
    let err = populate_parallel(
        &mut db(),
        "Pixel",
        fleet(5),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap_err();
    assert!(format!("{err}").contains("refusing to resume"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// Cooperative cancellation: a cancelled sweep journals what it finished,
/// reports `complete = false`, and a later resume converges on the full
/// uninterrupted result.
#[test]
fn cancelled_sweep_resumes_cleanly() {
    let cfg = faulty_cfg();
    let mut base_db = db();
    let baseline = populate_parallel(
        &mut base_db,
        "Pixel",
        fleet(6),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap()
    .report;

    let path = tmp_path("cancel");
    let _ = std::fs::remove_file(&path);
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut journal = Journal::open(&path).unwrap();
    let stopped = populate_parallel(
        &mut db(),
        "Pixel",
        fleet(6),
        &cfg,
        Some(&mut journal),
        &cancel,
        1,
    )
    .unwrap();
    assert!(!stopped.complete);
    assert!(stopped.report.outcomes.is_empty());
    drop(journal);

    let mut rdb = db();
    let mut journal = Journal::open(&path).unwrap();
    let resumed = populate_parallel(
        &mut rdb,
        "Pixel",
        fleet(6),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.report, baseline);
    assert_eq!(rdb.scores(), base_db.scores());
    let _ = std::fs::remove_file(&path);
}

/// A journal sealed with its completion marker replays entirely from disk:
/// every device is restored, none re-simulated, and the crowd database
/// matches the live run's.
#[test]
fn complete_journal_replays_without_simulation() {
    let cfg = faulty_cfg();
    let path = tmp_path("replay");
    let _ = std::fs::remove_file(&path);

    let mut live_db = db();
    let mut journal = Journal::open(&path).unwrap();
    let live = populate_parallel(
        &mut live_db,
        "Pixel",
        fleet(5),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    drop(journal);
    let before = std::fs::read(&path).unwrap();

    let mut replay_db = db();
    let mut journal = Journal::open(&path).unwrap();
    let replay = populate_parallel(
        &mut replay_db,
        "Pixel",
        fleet(5),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    assert!(replay.complete);
    assert_eq!(replay.resumed, 5);
    assert_eq!(replay.report, live.report);
    assert_eq!(replay_db.scores(), live_db.scores());
    drop(journal);
    // A pure replay appends nothing.
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let _ = std::fs::remove_file(&path);
}

/// One outcome record of a hand-built journal.
fn outcome(index: usize) -> Record {
    Record::Outcome {
        index,
        outcome: SweepOutcome {
            device: format!("pixel-crowd-{index:03}"),
            verdict: Some(Verdict::Valid),
            accepted: true,
            quarantined: 0,
            fault_reports: 1,
            error: None,
            status: DeviceStatus::Completed,
            attempts: 1,
        },
        score: Some(500.0 + index as f64),
        rsd: Some(0.5),
    }
}

/// `fsck` and a resume apply one rule: a journal is trusted up to its
/// first record out of sequence. Each case is a two-device journal and
/// the number of leading records a resume keeps.
#[test]
fn fsck_and_resume_trust_the_same_prefix() {
    let header = Record::Header {
        model: "Pixel".into(),
        digest: "00ff".into(),
        devices: 2,
    };
    let note = Record::Note {
        index: 1,
        text: "pixel-crowd-001: 0 quarantined, 1 fault(s)".into(),
    };
    let seal = Record::Complete { devices: 2 };
    let cases: [(&str, Vec<Record>, usize); 6] = [
        (
            "whole",
            vec![outcome(0), note.clone(), outcome(1), seal.clone()],
            5,
        ),
        ("uncommitted note", vec![outcome(0), note.clone()], 2),
        (
            "repeat after the seal",
            vec![outcome(0), outcome(1), seal.clone(), outcome(0)],
            5,
        ),
        ("gap", vec![outcome(1), outcome(0)], 1),
        (
            "overrun",
            vec![outcome(0), note.clone(), outcome(2), seal.clone()],
            2,
        ),
        ("early seal", vec![outcome(0), note, seal, outcome(1)], 2),
    ];
    for (case, tail, trusted) in cases {
        let records: Vec<Record> = std::iter::once(header.clone()).chain(tail).collect();
        let path = tmp_path(&format!("sequence-{}", case.replace(' ', "-")));
        let _ = std::fs::remove_file(&path);
        Journal::open(&path).unwrap().append_all(&records).unwrap();
        let cut = records[trusted..]
            .iter()
            .filter(|r| !matches!(r, Record::Note { .. }))
            .count();
        let report = fsck(&path).unwrap();
        assert_eq!(report.out_of_sequence, cut, "{case}");
        let clean = cut == 0 && report.duplicate_outcomes == 0;
        assert_eq!(report.is_clean(), clean, "{case}");

        let mut journal = Journal::open(&path).unwrap();
        let replay = prepare_journal(&mut journal, "Pixel", "00ff".into(), 2).unwrap();
        assert_eq!(journal.recovered(), &records[..trusted], "{case}");
        let kept: Vec<usize> = replay.outcomes.keys().copied().collect();
        assert!(kept.iter().copied().eq(0..kept.len()), "{case}: {kept:?}");
        drop(journal);
        assert_eq!(fsck(&path).unwrap().out_of_sequence, 0, "{case}");
        std::fs::remove_file(&path).unwrap();
    }
}
