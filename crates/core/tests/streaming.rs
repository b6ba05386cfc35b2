//! Determinism and equivalence contract of the streaming sweep engine:
//! [`populate_streamed`] must journal byte-identically to the exact
//! [`populate_parallel`] oracle path, agree with the full-fleet
//! [`CrowdDatabase`] on every count and (within documented float bounds)
//! every statistic, and produce a bit-identical aggregate across thread
//! counts and kill+resume — while holding constant memory.

use accubench::aggregate::ScoreAggregate;
use accubench::crowd::{
    populate_parallel, populate_streamed, CrowdDatabase, FleetVerdict, SweepConfig, STREAM_GROUP,
};
use accubench::journal::{decode_line, CancelToken, Journal, Record};
use accubench::protocol::Protocol;
use accubench::supervise::SessionChaos;
use pv_faults::ALL_KINDS;
use pv_json::ToJson;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_stats::Summary;
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

fn faulty_cfg() -> SweepConfig {
    SweepConfig::clean(quick(), 2).with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec())
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pv-stream-{tag}-{}", std::process::id()))
}

fn agg() -> ScoreAggregate {
    ScoreAggregate::new(5.0).unwrap()
}

/// Byte fingerprint of a streaming aggregate: compact JSON of every field,
/// moments bits included. String equality here is bit equality.
fn print_of(a: &ScoreAggregate) -> String {
    a.to_json().to_string_compact()
}

const DEVICES: usize = 10;

/// The streaming engine against the exact oracle: identical admission
/// decisions, identical journal bytes, identical holes, and moments that
/// match the retained-score [`Summary`] to float round-off.
#[test]
fn streaming_matches_oracle_database_and_journal_bytes() {
    let cfg = faulty_cfg();

    // Oracle: the full-fleet CrowdDatabase path.
    let oracle_path = tmp_path("oracle");
    let _ = std::fs::remove_file(&oracle_path);
    let mut db = CrowdDatabase::new(5.0).unwrap();
    let mut journal = Journal::open(&oracle_path).unwrap();
    let oracle = populate_parallel(
        &mut db,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        2,
    )
    .unwrap();
    assert!(oracle.complete);
    drop(journal);
    let oracle_bytes = std::fs::read(&oracle_path).unwrap();

    // Streaming, journaled, same config.
    let stream_path = tmp_path("streamed");
    let _ = std::fs::remove_file(&stream_path);
    let mut a = agg();
    let mut journal = Journal::open(&stream_path).unwrap();
    let streamed = populate_streamed(
        &mut a,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        2,
        1,
        true,
    )
    .unwrap();
    assert!(streamed.complete);
    drop(journal);

    // Same journal bytes: a streaming journal and an oracle journal are
    // interchangeable for resume.
    assert_eq!(std::fs::read(&stream_path).unwrap(), oracle_bytes);

    // Same admission outcome on every device.
    let scores = db.model_scores("Pixel");
    assert_eq!(streamed.aggregate.accepted() as usize, scores.len());
    assert_eq!(streamed.aggregate.rejected() as usize, db.rejected());
    assert_eq!(streamed.completed, oracle.report.completed());
    assert_eq!(streamed.holes.len(), oracle.report.quarantined_devices());
    assert_eq!(streamed.fleet_verdict(), oracle.fleet_verdict());

    // Retained scores are exactly the oracle's accepted scores, in device
    // order.
    let retained: Vec<f64> = streamed.retained.iter().map(|&(_, s)| s).collect();
    assert_eq!(retained, scores);

    // Moments agree with the exact Summary to round-off.
    let summary = Summary::from_slice(scores).unwrap();
    let m = streamed.aggregate.moments();
    assert!((m.mean().unwrap() - summary.mean()).abs() <= 1e-9 * summary.mean().abs());
    assert!((m.sample_std().unwrap() - summary.std()).abs() <= 1e-9 * summary.std().max(1.0));

    // The streaming leaderboard is the oracle ranking's prefix.
    let mut ranked: Vec<f64> = scores.to_vec();
    ranked.sort_by(|a, b| b.total_cmp(a));
    let top: Vec<f64> = streamed
        .aggregate
        .leaderboard()
        .entries()
        .iter()
        .map(|e| e.score)
        .collect();
    assert_eq!(top, ranked[..ranked.len().min(10)]);

    let _ = std::fs::remove_file(&oracle_path);
    let _ = std::fs::remove_file(&stream_path);
}

/// The aggregate's bits — not just its rounded statistics — are identical
/// across every thread count, for clean, faulted, and chaos-striken fleets
/// alike.
#[test]
fn streamed_aggregate_bit_identical_across_threads() {
    for (tag, cfg) in [
        ("clean", SweepConfig::clean(quick(), 2)),
        ("faulty", faulty_cfg()),
        (
            "chaos",
            faulty_cfg().with_chaos(SessionChaos::new(3, 1, 0).striking_at(30.0)),
        ),
    ] {
        let mut reference = agg();
        let serial = populate_streamed(
            &mut reference,
            "Pixel",
            fleet(DEVICES),
            &cfg,
            None,
            &CancelToken::new(),
            1,
            1,
            true,
        )
        .unwrap();
        let reference_print = print_of(&reference);

        for threads in [1usize, 4] {
            let mut a = agg();
            let run = populate_streamed(
                &mut a,
                "Pixel",
                fleet(DEVICES),
                &cfg,
                None,
                &CancelToken::new(),
                threads,
                1,
                true,
            )
            .unwrap();
            assert_eq!(
                print_of(&a),
                reference_print,
                "{tag}: threads={threads}: aggregate bits diverged"
            );
            assert_eq!(run.holes, serial.holes, "{tag}: t={threads}");
            assert_eq!(run.retained, serial.retained, "{tag}: t={threads}");
        }
    }
}

/// Kill a streaming journaled sweep at byte offsets, resume with a
/// different thread count, and require the aggregate bits, holes, retained
/// scores and healed journal to match the uninterrupted run exactly. The
/// fleet spans two [`STREAM_GROUP`] groups. Three cuts are fixed: the
/// header alone, just after device 63's outcome (the replayed prefix ends
/// on the grid) and just after device 64's (one past it). Seeded random
/// cuts rarely land on the grid, so the resumed sweep must fold replayed
/// and fresh devices of one group into the same group partial the
/// uninterrupted run built.
#[test]
fn streamed_kill_resume_is_bit_deterministic() {
    const FLEET: usize = STREAM_GROUP + 2;
    let cfg = faulty_cfg();

    let full_path = tmp_path("kill-full");
    let _ = std::fs::remove_file(&full_path);
    let mut base = agg();
    let mut journal = Journal::open(&full_path).unwrap();
    let baseline = populate_streamed(
        &mut base,
        "Pixel",
        fleet(FLEET),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
        1,
        true,
    )
    .unwrap();
    assert!(baseline.complete);
    drop(journal);
    let full_bytes = std::fs::read(&full_path).unwrap();
    let base_print = print_of(&base);

    // Byte offset just past the first line whose record matches.
    let line_end = |wanted: &dyn Fn(&Record) -> bool| -> usize {
        let mut end = 0;
        for line in full_bytes.split(|&b| b == b'\n') {
            end += line.len() + 1;
            let record = decode_line(std::str::from_utf8(line).unwrap()).unwrap();
            if wanted(&record) {
                return end;
            }
        }
        panic!("no such record in the journal");
    };
    let outcome_end = |device: usize| {
        line_end(&|r: &Record| matches!(r, Record::Outcome { index, .. } if *index == device))
    };
    let mut cuts = vec![
        line_end(&|r: &Record| matches!(r, Record::Header { .. })),
        outcome_end(STREAM_GROUP - 1),
        outcome_end(STREAM_GROUP),
    ];
    let mut rng = StdRng::seed_from_u64(0x57EA_4001);
    cuts.extend((0..6).map(|_| rng.gen_range(1..full_bytes.len())));

    let resume_path = tmp_path("kill-resume");
    for (round, cut) in cuts.into_iter().enumerate() {
        std::fs::write(&resume_path, &full_bytes[..cut]).unwrap();

        let mut a = agg();
        let mut journal = Journal::open(&resume_path).unwrap();
        let resumed = populate_streamed(
            &mut a,
            "Pixel",
            fleet(FLEET),
            &cfg,
            Some(&mut journal),
            &CancelToken::new(),
            4,
            1,
            true,
        )
        .unwrap();
        assert!(resumed.complete, "round {round} (cut {cut})");
        drop(journal);
        assert_eq!(
            print_of(&a),
            base_print,
            "round {round} (cut {cut}): resumed aggregate bits diverged"
        );
        assert_eq!(resumed.holes, baseline.holes, "round {round} (cut {cut})");
        assert_eq!(
            resumed.retained, baseline.retained,
            "round {round} (cut {cut})"
        );
        assert_eq!(
            std::fs::read(&resume_path).unwrap(),
            full_bytes,
            "round {round} (cut {cut}): healed journal bytes diverged"
        );
    }
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resume_path);
}

/// A streaming sweep can resume a journal the oracle path wrote, and vice
/// versa — the two engines share one journal format and digest.
#[test]
fn streaming_resumes_oracle_journal_and_vice_versa() {
    let cfg = faulty_cfg();

    // Oracle writes a partial journal (cancel mid-flight).
    let path = tmp_path("cross");
    let _ = std::fs::remove_file(&path);
    let cancel = CancelToken::new();
    let trigger = cancel.clone();
    let arm = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        trigger.cancel();
    });
    let mut journal = Journal::open(&path).unwrap();
    let _ = populate_parallel(
        &mut CrowdDatabase::new(5.0).unwrap(),
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &cancel,
        4,
    )
    .unwrap();
    arm.join().unwrap();
    drop(journal);

    // Streaming finishes it.
    let mut a = agg();
    let mut journal = Journal::open(&path).unwrap();
    let finished = populate_streamed(
        &mut a,
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        2,
        1,
        false,
    )
    .unwrap();
    assert!(finished.complete);
    drop(journal);
    let cross_bytes = std::fs::read(&path).unwrap();

    // And the bytes equal an uninterrupted streaming (or oracle) journal.
    let clean_path = tmp_path("cross-clean");
    let _ = std::fs::remove_file(&clean_path);
    let mut journal = Journal::open(&clean_path).unwrap();
    let clean = populate_streamed(
        &mut agg(),
        "Pixel",
        fleet(DEVICES),
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
        1,
        false,
    )
    .unwrap();
    assert!(clean.complete);
    drop(journal);
    assert_eq!(cross_bytes, std::fs::read(&clean_path).unwrap());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&clean_path);
}

/// Memory boundedness: the aggregate's resident footprint does not grow
/// with the fleet (only with histogram bins, leaderboard K, and holes),
/// and a fleet larger than one [`STREAM_GROUP`] exercises multi-group
/// merging without growing the footprint either.
#[test]
fn streamed_memory_is_fleet_size_independent() {
    let cfg = SweepConfig::clean(quick(), 1);
    // Both fleets overfill the K=10 leaderboard, so the only admissible
    // footprint difference is label lengths — of which there is none here.
    let mut small = agg();
    let small_run = populate_streamed(
        &mut small,
        "Pixel",
        fleet(17),
        &cfg,
        None,
        &CancelToken::new(),
        2,
        1,
        false,
    )
    .unwrap();
    let mut large = agg();
    let large_run = populate_streamed(
        &mut large,
        "Pixel",
        fleet(STREAM_GROUP + 17),
        &cfg,
        None,
        &CancelToken::new(),
        2,
        1,
        false,
    )
    .unwrap();
    assert_eq!(small_run.fleet_verdict(), FleetVerdict::Clean);
    assert_eq!(large_run.fleet_verdict(), FleetVerdict::Clean);
    assert_eq!(large.accepted(), (STREAM_GROUP + 17) as u64);
    // Same layout, same saturated K ⇒ same bounded footprint.
    assert_eq!(
        large.approx_bytes(),
        small.approx_bytes(),
        "footprint grew with fleet size"
    );
    assert!(large_run.retained.is_empty());

    // Streaming survivor CI is a well-formed normal-approximation interval
    // containing the mean.
    let ci = large_run.survivor_ci().unwrap();
    assert!(ci.lo <= ci.point && ci.point <= ci.hi);
    assert!(ci.contains(large.mean().unwrap()));
}
