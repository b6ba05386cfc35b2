//! Property fuzzing of journal recovery: whatever a dying disk leaves
//! behind — random bit flips, spliced duplicate runs, mid-record
//! truncation, pure garbage — recovery must never panic, must never yield
//! a record that fails its own checksum, and the streamed (chunked) scan
//! must agree byte-for-byte with the in-memory slice scan.

use accubench::crowd::SweepOutcome;
use accubench::journal::{decode_line, encode_line, fnv64, scan_bytes, Journal, Record};
use accubench::storage::{MemStorage, Storage};
use accubench::supervise::DeviceStatus;
use pv_rng::{Rng, SeedableRng, StdRng};
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
    let bytes = records
        .iter()
        .flat_map(|r| encode_line(r).into_bytes())
        .collect();
    (records, bytes)
}

/// The invariants every recovery must uphold, whatever the input bytes.
fn check_recovery(bytes: &[u8], tag: &str) -> (Vec<Record>, u64) {
    let (records, valid_len) = scan_bytes(bytes);
    assert!(valid_len as usize <= bytes.len(), "{tag}");

    // Every yielded record survives its own encode/decode round trip —
    // i.e. nothing that fails the line checksum is ever returned.
    for r in &records {
        let line = encode_line(r);
        assert_eq!(decode_line(line.trim_end()).as_ref(), Ok(r), "{tag}");
    }

    // The valid prefix is closed under re-scanning: scanning just the
    // bytes declared valid yields the same records and the same length.
    let (again, len_again) = scan_bytes(&bytes[..valid_len as usize]);
    assert_eq!(again, records, "{tag}: valid prefix is not a fixpoint");
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
    assert_eq!(
        journal.recovered(),
        &records[..],
        "{tag}: stream/slice scan disagree"
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
    assert_eq!(recovered, records);
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
        assert_eq!(recovered[..], records[..recovered.len()], "round {round}");
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
    assert_eq!(recovered, records);
    assert_eq!(valid_len as usize, valid);
}
