//! Property fuzzing of journal recovery: whatever a dying disk leaves
//! behind — random bit flips, spliced duplicate runs, mid-record
//! truncation, pure garbage — recovery must never panic, must never yield
//! a record that fails its own checksum, and the streamed (chunked) scan
//! must agree byte-for-byte with the in-memory slice scan. Resume gets the
//! same treatment one level up: a journaled sweep whose records are
//! deleted, duplicated or re-indexed (each line with a valid checksum)
//! must resume without a panic to the uninterrupted run.

use accubench::crowd::{
    populate_parallel, CrowdDatabase, JournaledSweep, SweepConfig, SweepOutcome,
};
use accubench::journal::{
    decode_line, encode_line, fnv64, scan_bytes, CancelToken, Journal, Record,
};
use accubench::protocol::Protocol;
use accubench::storage::{MemStorage, Storage};
use accubench::supervise::DeviceStatus;
use pv_faults::ALL_KINDS;
use pv_rng::{Rng, SeedableRng, StdRng};
use pv_soc::catalog;
use pv_units::Seconds;
use std::path::Path;
use std::sync::Arc;

/// A journal with varied record shapes and sizes, including notes long
/// enough to exercise line reassembly.
fn corpus() -> (Vec<Record>, Vec<u8>) {
    let mut records = vec![Record::Header {
        model: "Pixel".to_owned(),
        digest: "deadbeefdeadbeef".to_owned(),
        devices: 6,
    }];
    for index in 0..6 {
        if index % 2 == 0 {
            records.push(Record::Supervision {
                index,
                attempt: 1,
                status: DeviceStatus::Panicked,
                detail: format!("attempt {index} panicked: index out of bounds"),
            });
        }
        records.push(Record::Note {
            index,
            text: format!("device {index}: {}", "x".repeat(40 * (index + 1))),
        });
        records.push(Record::Outcome {
            index,
            outcome: SweepOutcome {
                device: format!("pixel-crowd-{index:03}"),
                verdict: None,
                accepted: index % 2 == 0,
                quarantined: index,
                fault_reports: 2 * index,
                error: (index == 3).then(|| "battery empty".to_owned()),
                status: DeviceStatus::Completed,
                attempts: 1 + index as u32,
            },
            score: Some(100.0 + index as f64),
            rsd: Some(0.5),
        });
    }
    records.push(Record::Complete { devices: 6 });
    let bytes = encode_all(&records);
    (records, bytes)
}

/// A record's `Debug` form, cut to a length a failure message can show:
/// a fuzzed note can hold megabytes.
fn brief(r: &Record) -> String {
    const MAX_CHARS: usize = 300;
    let full = format!("{r:?}");
    if full.chars().count() <= MAX_CHARS {
        return full;
    }
    let head: String = full.chars().take(MAX_CHARS).collect();
    format!("{head}… ({} bytes in all)", full.len())
}

/// Asserts that `actual` and `expected` hold equal records in the same
/// order. A failure names both lengths and the first differing index with
/// its two records, never the whole vectors.
fn assert_same_records(actual: &[Record], expected: &[Record], what: &str) {
    if actual == expected {
        return;
    }
    let i = actual
        .iter()
        .zip(expected)
        .position(|(a, e)| a != e)
        .unwrap_or(actual.len().min(expected.len()));
    let show = |r: Option<&Record>| r.map_or_else(|| "(none)".to_owned(), brief);
    panic!(
        "{what}: {} record(s), expected {}; first difference at record {i}:\n  \
         actual:   {}\n  expected: {}",
        actual.len(),
        expected.len(),
        show(actual.get(i)),
        show(expected.get(i))
    );
}

/// The invariants every recovery must uphold, whatever the input bytes.
fn check_recovery(bytes: &[u8], tag: &str) -> (Vec<Record>, u64) {
    let (records, valid_len) = scan_bytes(bytes);
    assert!(valid_len as usize <= bytes.len(), "{tag}");

    // Every yielded record survives its own encode/decode round trip —
    // i.e. nothing that fails the line checksum is ever returned.
    for (i, r) in records.iter().enumerate() {
        let line = encode_line(r);
        assert!(
            decode_line(line.trim_end()).as_ref() == Ok(r),
            "{tag}: record {i} does not survive its round trip: {}",
            brief(r)
        );
    }

    // The valid prefix is closed under re-scanning: scanning just the
    // bytes declared valid yields the same records and the same length.
    let (again, len_again) = scan_bytes(&bytes[..valid_len as usize]);
    assert_same_records(
        &again,
        &records,
        &format!("{tag}: valid prefix is not a fixpoint"),
    );
    assert_eq!(
        len_again, valid_len,
        "{tag}: valid prefix is not a fixpoint"
    );

    // The chunked streaming scan (journal open over an in-memory disk)
    // recovers exactly the same records, and truncates the file to the
    // same valid length.
    let mem = MemStorage::new();
    let storage = Storage::new(Arc::new(mem.clone()));
    let path = Path::new("/fuzz/run.journal");
    {
        let mut f = storage.create(path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_data().unwrap();
    }
    let journal = Journal::open_with(storage, path).unwrap();
    assert_same_records(
        journal.recovered(),
        &records,
        &format!("{tag}: stream/slice scan disagree"),
    );
    assert_eq!(
        journal.dropped_bytes(),
        bytes.len() as u64 - valid_len,
        "{tag}"
    );
    drop(journal);
    assert_eq!(
        mem.file_bytes(path).unwrap().len() as u64,
        valid_len,
        "{tag}: open did not truncate to the valid prefix"
    );

    (records, valid_len)
}

#[test]
fn pristine_corpus_recovers_completely() {
    let (records, bytes) = corpus();
    let (recovered, valid_len) = check_recovery(&bytes, "pristine");
    assert_same_records(&recovered, &records, "pristine");
    assert_eq!(valid_len as usize, bytes.len());
}

#[test]
fn random_bit_flips_never_yield_corrupt_records() {
    let (_, bytes) = corpus();
    let mut rng = StdRng::seed_from_u64(0xF1195EED);
    for round in 0..150 {
        let mut mutated = bytes.clone();
        let flips = rng.gen_range(1..12usize);
        for _ in 0..flips {
            let i = rng.gen_range(0..mutated.len());
            let bit = rng.gen_range(0..8u32);
            mutated[i] ^= 1 << bit;
        }
        let (records, _) = check_recovery(&mutated, &format!("flips round {round}"));
        // A flip in record k invalidates it and everything after; records
        // before the first flipped byte must survive untouched.
        assert!(records.len() <= 20, "flips round {round}");
    }
}

#[test]
fn mid_record_truncation_recovers_the_record_prefix() {
    let (records, bytes) = corpus();
    let mut rng = StdRng::seed_from_u64(0x7124_CA7E);
    for round in 0..150 {
        let cut = rng.gen_range(0..bytes.len());
        let (recovered, valid_len) = check_recovery(
            &bytes[..cut],
            &format!("truncation round {round} (cut {cut})"),
        );
        // Whatever survives is a prefix of the original record sequence,
        // and the valid bytes never reach past the cut.
        let prefix = &records[..recovered.len().min(records.len())];
        assert_same_records(&recovered, prefix, &format!("round {round}"));
        assert!(valid_len as usize <= cut, "round {round}");
    }
}

#[test]
fn spliced_records_never_yield_corrupt_records() {
    let (_, bytes) = corpus();
    let mut rng = StdRng::seed_from_u64(0x5711_CE5D);
    for round in 0..150 {
        // Copy a random window over a random destination — duplicated
        // runs, overwritten runs, self-overlaps.
        let mut mutated = bytes.clone();
        let start = rng.gen_range(0..bytes.len());
        let len = rng.gen_range(1..(bytes.len() - start).max(2));
        let window = bytes[start..start + len].to_vec();
        let dest = rng.gen_range(0..mutated.len());
        let end = (dest + window.len()).min(mutated.len());
        mutated[dest..end].copy_from_slice(&window[..end - dest]);
        check_recovery(&mutated, &format!("splice round {round}"));
    }
}

#[test]
fn random_garbage_recovers_nothing_and_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6A12_BA6E);
    for round in 0..100 {
        let len = rng.gen_range(0..4096usize);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let (records, _) = check_recovery(&soup, &format!("garbage round {round}"));
        // A checksummed 16-hex-digit frame materialising from uniform
        // noise is (practically) impossible.
        assert!(records.is_empty(), "garbage round {round}: {records:?}");
    }
}

#[test]
fn deeply_nested_line_is_a_corrupt_record_not_a_crash() {
    // A correctly framed line (valid checksum) whose payload nests 10⁶
    // arrays deep: recovery must reject it as corrupt — keeping the valid
    // prefix before it — rather than overflow the stack parsing it.
    let (records, mut bytes) = corpus();
    let payload = "[".repeat(1_000_000);
    let line = format!("{:016x} {payload}\n", fnv64(payload.as_bytes()));
    assert_eq!(
        decode_line(line.trim_end()),
        Err("payload is not valid json")
    );
    let valid = bytes.len();
    bytes.extend_from_slice(line.as_bytes());
    let (recovered, valid_len) = check_recovery(&bytes, "deep nesting");
    assert_same_records(&recovered, &records, "deep nesting");
    assert_eq!(valid_len as usize, valid);
}

#[test]
fn over_long_line_is_torn_tail_however_it_is_chunked() {
    // A correctly framed 5 MiB note as the second record: longer than any
    // line recovery buffers, so the slice scan and the chunked stream scan
    // both keep only the header before it.
    let (records, bytes) = corpus();
    let header = encode_line(&records[0]);
    let note = encode_line(&Record::Note {
        index: 0,
        text: "x".repeat(5 * 1024 * 1024),
    });
    assert!(decode_line(note.trim_end()).is_ok());
    let mut input = header.clone().into_bytes();
    input.extend_from_slice(note.as_bytes());
    input.extend_from_slice(&bytes[header.len()..]);
    let (recovered, valid_len) = check_recovery(&input, "over-long note");
    assert_same_records(&recovered, &records[..1], "over-long note");
    assert_eq!(valid_len as usize, header.len());
}

/// Devices in the sweep the resume fuzz mutates.
const FLEET: usize = 4;

/// Runs a journaled sweep of [`FLEET`] Pixels, on a 2 s warmup and a 2 s
/// workload and faulted often enough that some devices journal notes,
/// over an in-memory journal holding `bytes`. Returns the sweep and the
/// journal's bytes afterwards.
fn resume_small_sweep(bytes: &[u8]) -> (JournaledSweep, Vec<u8>) {
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(2.0))
        .with_workload(Seconds(2.0));
    let cfg = SweepConfig::clean(protocol, 1).with_faults(0x5EED, Seconds(3.0), ALL_KINDS.to_vec());
    let devices = (0..FLEET)
        .map(|i| catalog::pixel(0.2 + 0.2 * i as f64, format!("pixel-{i}")).unwrap())
        .collect();
    let mem = MemStorage::new();
    let storage = Storage::new(Arc::new(mem.clone()));
    let path = Path::new("/fuzz/sweep.journal");
    {
        let mut f = storage.create(path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_data().unwrap();
    }
    let mut journal = Journal::open_with(storage, path).unwrap();
    let mut db = CrowdDatabase::new(5.0).unwrap();
    let sweep = populate_parallel(
        &mut db,
        "Pixel",
        devices,
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )
    .unwrap();
    drop(journal);
    (sweep, mem.file_bytes(path).unwrap())
}

/// The journal bytes of `records`, one `encode_line` each.
fn encode_all(records: &[Record]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| encode_line(r).into_bytes())
        .collect()
}

/// The uninterrupted sweep, its journal's records, and the position of
/// each device's outcome among them.
fn uninterrupted() -> (JournaledSweep, Vec<u8>, Vec<Record>, Vec<usize>) {
    let (sweep, bytes) = resume_small_sweep(&[]);
    assert!(sweep.complete);
    let (records, _) = scan_bytes(&bytes);
    let outcomes: Vec<usize> = (0..records.len())
        .filter(|&i| matches!(records[i], Record::Outcome { .. }))
        .collect();
    assert_eq!(outcomes.len(), FLEET);
    assert!(
        records.iter().any(|r| matches!(r, Record::Note { .. })),
        "the fuzzed sweep should journal notes"
    );
    (sweep, bytes, records, outcomes)
}

#[test]
fn out_of_sequence_outcomes_resume_to_the_uninterrupted_sweep() {
    let (base, base_bytes, records, at) = uninterrupted();
    let mut rng = StdRng::seed_from_u64(0x0DD5_E9ED);
    for round in 0..30 {
        let mut mutated = records.clone();
        let tag = match round % 3 {
            0 => {
                let i = rng.gen_range(0..FLEET);
                mutated.remove(at[i]);
                format!("round {round}: outcome {i} deleted")
            }
            1 => {
                // A copy of outcome j ahead of outcome j - 1: a later
                // repeat would be in sequence, this one is a gap.
                let j = rng.gen_range(1..FLEET);
                let pos = rng.gen_range(1..at[j - 1] + 1);
                mutated.insert(pos, records[at[j]].clone());
                format!("round {round}: outcome {j} copied to record {pos}")
            }
            _ => {
                let i = rng.gen_range(0..FLEET);
                let to = FLEET + rng.gen_range(0..3usize);
                if let Record::Outcome { index, .. } = &mut mutated[at[i]] {
                    *index = to;
                }
                format!("round {round}: outcome {i} re-indexed to {to}")
            }
        };
        let (sweep, bytes) = resume_small_sweep(&encode_all(&mutated));
        assert!(sweep.complete, "{tag}");
        assert!(sweep.resumed < FLEET, "{tag}: resumed {}", sweep.resumed);
        assert_eq!(sweep.report, base.report, "{tag}");
        assert!(bytes == base_bytes, "{tag}: healed journal differs");
    }
}
