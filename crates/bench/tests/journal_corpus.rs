//! Pins the persisted journal formats to committed bytes in `corpus/`.
//!
//! A change to the record layout, the line checksum or a config digest
//! makes a journal written today unreadable (or re-measured) by the next
//! build, and only a comparison with bytes written by an older build shows
//! it. The corpus was written at small scale without chaos, because panic
//! notes can carry backtraces:
//!
//! ```text
//! accubench --device nexus5:2 --scale 0.1 --iterations 2 --journal accubench.journal
//! accubench ... --journal accubench.journal --resume > accubench-resume.stdout
//! repro sweep --quick --devices 3 --threads 1 --journal sweep.journal > sweep.stdout
//! head -c 850 sweep.journal > sweep-cut.journal   # cut inside the seal
//! ```
//!
//! Three more are `sweep.journal` with its records edited and every line
//! re-encoded with `encode_line` (the checksums are valid; the test checks
//! each line is in that form):
//!
//! * `sweep-gap.journal`: outcome 1's line is deleted;
//! * `sweep-overrun.journal`: outcome 2, re-indexed to 3, follows the seal;
//! * `sweep-v3-digest.journal`: the header's digest is the `fnv64` of the
//!   same config's digest string with its `v4|` prefix written `v3|`.
//!
//! A resume trusts a journal up to its first out-of-sequence outcome, so
//! the first two are dirty to `repro fsck` and heal to `sweep.journal`; the
//! third is a journal of an older digest, which a resume must refuse.

use accubench::journal::{decode_line, encode_line};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const ACCUBENCH: &str = "--device nexus5:2 --scale 0.1 --iterations 2";
const SWEEP: &str = "sweep --quick --devices 3 --threads 1";

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A writable copy of corpus file `name` in `dir`.
fn copy(dir: &accubench::storage::TempDir, name: &str) -> PathBuf {
    let path = dir.file(name);
    std::fs::copy(corpus(name), &path).expect("copy corpus file");
    path
}

/// Runs `bin` on the whitespace-split `args`, then `--journal <journal>`
/// and `tail`.
fn command(bin: &str, args: &str, journal: &Path, tail: &[&str]) -> Output {
    Command::new(bin)
        .env("RUST_BACKTRACE", "0")
        .args(args.split_whitespace())
        .arg("--journal")
        .arg(journal)
        .args(tail)
        .output()
        .expect("binary runs")
}

/// [`command`], which must succeed.
fn run(bin: &str, args: &str, journal: &Path, tail: &[&str]) -> Output {
    let out = command(bin, args, journal, tail);
    assert!(
        out.status.success(),
        "{bin} {args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn accubench_journal_replays_unchanged() {
    let dir = accubench::storage::TempDir::new("corpus-accubench");
    let journal = copy(&dir, "accubench.journal");
    let out = run(
        env!("CARGO_BIN_EXE_accubench"),
        ACCUBENCH,
        &journal,
        &["--resume"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("measuring"), "re-measured: {stderr}");
    assert_eq!(out.stdout, read(&corpus("accubench-resume.stdout")));
    assert_eq!(read(&journal), read(&corpus("accubench.journal")));
}

#[test]
fn sweep_journal_resumes_unchanged() {
    let dir = accubench::storage::TempDir::new("corpus-sweep");
    let journal = copy(&dir, "sweep.journal");
    let out = run(env!("CARGO_BIN_EXE_repro"), SWEEP, &journal, &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed 3 journaled device(s)"), "{stderr}");
    assert_eq!(out.stdout, read(&corpus("sweep.stdout")));
    assert_eq!(read(&journal), read(&corpus("sweep.journal")));
}

/// A writable copy of crafted corpus file `name` in `dir`, after checking
/// that every line of it is what `encode_line` writes for its record.
fn copy_crafted(dir: &accubench::storage::TempDir, name: &str) -> PathBuf {
    let text = String::from_utf8(read(&corpus(name))).expect("utf-8 journal");
    for line in text.lines() {
        let record = decode_line(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
        assert_eq!(encode_line(&record), format!("{line}\n"), "{name}");
    }
    copy(dir, name)
}

/// Asserts that `repro fsck` calls `journal` dirty, and returns its report.
fn assert_dirty(journal: &Path) -> String {
    let fsck = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fsck")
        .arg(journal)
        .output()
        .expect("repro binary runs");
    let report = String::from_utf8_lossy(&fsck.stderr);
    assert_eq!(fsck.status.code(), Some(1), "{report}");
    assert!(report.contains("dirty"), "{report}");
    String::from_utf8_lossy(&fsck.stdout).into_owned()
}

#[test]
fn cut_sweep_journal_is_dirty_and_resume_heals_it() {
    let dir = accubench::storage::TempDir::new("corpus-cut");
    let journal = copy(&dir, "sweep-cut.journal");
    assert_dirty(&journal);

    let out = run(env!("CARGO_BIN_EXE_repro"), SWEEP, &journal, &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed 3 journaled device(s)"), "{stderr}");
    assert_eq!(out.stdout, read(&corpus("sweep.stdout")));
    assert_eq!(read(&journal), read(&corpus("sweep.journal")));
}

#[test]
fn out_of_sequence_journals_are_dirty_and_resume_heals_them() {
    // The gap journal's outcome 2 and its seal lie past the trusted
    // prefix; the overrun journal's extra outcome 3 does.
    for (name, cut, replayed) in [("sweep-gap.journal", 2, 1), ("sweep-overrun.journal", 1, 3)] {
        let dir = accubench::storage::TempDir::new("corpus-sequence");
        let journal = copy_crafted(&dir, name);
        let report = assert_dirty(&journal);
        let cut = format!("{cut} record(s) out of sequence");
        assert!(report.contains(&cut), "{name}: {report}");

        let out = run(env!("CARGO_BIN_EXE_repro"), SWEEP, &journal, &["--resume"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let resumed = format!("resumed {replayed} journaled device(s)");
        assert!(stderr.contains(&resumed), "{name}: {stderr}");
        assert_eq!(out.stdout, read(&corpus("sweep.stdout")), "{name}");
        assert_eq!(read(&journal), read(&corpus("sweep.journal")), "{name}");
    }
}

#[test]
fn older_digest_journal_is_refused_and_left_unchanged() {
    let dir = accubench::storage::TempDir::new("corpus-digest");
    let journal = copy_crafted(&dir, "sweep-v3-digest.journal");
    let out = command(env!("CARGO_BIN_EXE_repro"), SWEEP, &journal, &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("refusing to resume"), "{stderr}");
    assert_eq!(read(&journal), read(&corpus("sweep-v3-digest.journal")));
}
