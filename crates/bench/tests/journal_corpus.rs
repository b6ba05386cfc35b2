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
fn run(bin: &str, args: &str, journal: &Path, tail: &[&str]) -> Output {
    let out = Command::new(bin)
        .env("RUST_BACKTRACE", "0")
        .args(args.split_whitespace())
        .arg("--journal")
        .arg(journal)
        .args(tail)
        .output()
        .expect("binary runs");
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

#[test]
fn cut_sweep_journal_is_dirty_and_resume_heals_it() {
    let dir = accubench::storage::TempDir::new("corpus-cut");
    let journal = copy(&dir, "sweep-cut.journal");
    let fsck = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fsck")
        .arg(&journal)
        .output()
        .expect("repro binary runs");
    let report = String::from_utf8_lossy(&fsck.stderr);
    assert_eq!(fsck.status.code(), Some(1), "{report}");
    assert!(report.contains("dirty"), "{report}");

    let out = run(env!("CARGO_BIN_EXE_repro"), SWEEP, &journal, &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed 3 journaled device(s)"), "{stderr}");
    assert_eq!(out.stdout, read(&corpus("sweep.stdout")));
    assert_eq!(read(&journal), read(&corpus("sweep.journal")));
}
