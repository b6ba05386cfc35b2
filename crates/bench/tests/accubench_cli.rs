//! The `accubench` binary's command line: removed options fail with the
//! usage text, bad values fail before a journal is written, and a
//! journaled run replays on `--resume`, refuses a
//! journal written under a different configuration, commits the end of
//! its session at once, and heals a cut journal to the uninterrupted bytes.
//! A plan with a storage kind needs a journal, and a wedged session stops
//! on the default simulated-time budget.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs one short session with the whitespace-split `extra` options, then
/// `tail` (kept whole, so it may hold a path). A run still going after a
/// minute is killed and fails the test, so a wedged session cannot hang it.
fn accubench(extra: &str, tail: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_accubench"))
        // Backtraces would put thread-dependent stacks into panic notes.
        .env("RUST_BACKTRACE", "0")
        .args("--device nexus5:2 --scale 0.1 --iterations 2".split_whitespace())
        .args(extra.split_whitespace())
        .args(tail)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("accubench binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{extra} {tail:?}: still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn journaled(journal: &Path, extra: &str) -> Output {
    accubench(extra, &["--journal", journal.to_str().unwrap()])
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_sweep_flags_are_unknown_options() {
    for flag in [
        "--threads 2",
        "--sample 1",
        "--sample-strategy srs",
        "--sample-seed 1",
        "--oracle",
    ] {
        let out = accubench(flag, &[]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        let name = flag.split(' ').next().unwrap();
        assert!(err.contains(&format!("unknown flag {name}")), "{err}");
        assert!(err.contains("usage: accubench"), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag} measured anyway");
    }
}

#[test]
fn bad_option_values_are_refused_before_the_journal_opens() {
    let dir = accubench::storage::TempDir::new("accubench-bad-values");
    let journal = dir.file("run.journal");
    for (bad, reason) in [
        ("--mode fast", "--mode must be"),
        ("--ambient nan", "--ambient must be"),
        ("--ambient inf", "--ambient must be"),
        ("--ambient -300", "--ambient must be"),
    ] {
        let out = journaled(&journal, bad);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{bad}: {err}");
        assert!(err.contains(reason), "{bad}: {err}");
        assert!(out.stdout.is_empty(), "{bad} measured anyway");
        assert!(!journal.exists(), "{bad} wrote a journal");
    }
    let corrected = journaled(&journal, "");
    assert!(corrected.status.success(), "{}", stderr(&corrected));
}

#[test]
fn resume_replays_the_journaled_verdict_without_measuring() {
    let dir = accubench::storage::TempDir::new("accubench-resume");
    let journal = dir.file("run.journal");
    let first = journaled(&journal, "");
    assert!(first.status.success(), "{}", stderr(&first));
    let bytes = std::fs::read(&journal).unwrap();

    let replay = journaled(&journal, "--resume");
    let err = stderr(&replay);
    assert!(replay.status.success(), "{err}");
    assert!(!err.contains("measuring"), "re-measured: {err}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("journaled result for bin-2"), "{stdout}");
    assert!(stdout.contains("verdict: valid"), "{stdout}");
    assert_eq!(std::fs::read(&journal).unwrap(), bytes, "replay wrote");
}

#[test]
fn resume_refuses_a_journal_of_a_different_configuration() {
    let dir = accubench::storage::TempDir::new("accubench-refuse");
    let journal = dir.file("run.journal");
    assert!(journaled(&journal, "").status.success());

    let out = journaled(&journal, "--ambient 30 --resume");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("different configuration"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn end_of_session_records_commit_as_one_write() {
    // Storage operations 0-4 are the journal's creation, the header's
    // write + fsync and one write + fsync for the whole end of the
    // session. A persistent I/O fault from operation 5 on therefore
    // never touches a run that commits its end in one batch.
    let dir = accubench::storage::TempDir::new("accubench-one-commit");
    let plan = dir.file("storage.toml");
    let toml = "[[event]]\nkind = \"storage-eio-persistent\"\nat = 5.0\nduration = 1000.0\n";
    std::fs::write(&plan, toml).unwrap();
    let journal = dir.file("run.journal");
    let faults = ["--faults", plan.to_str().unwrap()];
    let journal_flag = ["--journal", journal.to_str().unwrap()];

    let out = accubench("", &[&faults[..], &journal_flag].concat());
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    assert!(!err.contains("journal append failed"), "{err}");

    let replay = accubench("--resume", &[&faults[..], &journal_flag].concat());
    assert!(replay.status.success(), "{}", stderr(&replay));
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("journaled result for bin-2"), "{stdout}");
}

/// `repro fsck <journal>`'s exit code.
fn fsck(journal: &Path) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fsck", journal.to_str().unwrap()])
        .output()
        .expect("repro binary runs")
        .status
        .code()
}

#[test]
fn resume_seals_a_journal_cut_inside_its_seal() {
    let dir = accubench::storage::TempDir::new("accubench-cut-seal");
    let journal = dir.file("run.journal");
    assert!(journaled(&journal, "").status.success());
    let whole = std::fs::read(&journal).unwrap();
    // Five bytes short: the torn `complete` line is all that is lost, and
    // the device's outcome is journaled.
    std::fs::write(&journal, &whole[..whole.len() - 5]).unwrap();

    let replay = journaled(&journal, "--resume");
    let err = stderr(&replay);
    assert!(replay.status.success(), "{err}");
    assert!(!err.contains("measuring"), "re-measured: {err}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(stdout.contains("journaled result for bin-2"), "{stdout}");
    assert_eq!(std::fs::read(&journal).unwrap(), whole, "healed bytes");
    assert_eq!(fsck(&journal), Some(0));
}

#[test]
fn resume_re_measures_a_device_cut_before_its_outcome() {
    let dir = accubench::storage::TempDir::new("accubench-cut-note");
    let plan = dir.file("panic.toml");
    let toml = "[[event]]\nkind = \"session-panic\"\nat = 0.0\nduration = 1000.0\n";
    std::fs::write(&plan, toml).unwrap();
    let journal = dir.file("run.journal");
    let faults = ["--faults", plan.to_str().unwrap()];
    let journal_flag = ["--journal", journal.to_str().unwrap()];
    let args = [&faults[..], &journal_flag].concat();

    let first = accubench("", &args);
    assert_eq!(first.status.code(), Some(1), "{}", stderr(&first));
    let whole = std::fs::read(&journal).unwrap();
    let text = String::from_utf8_lossy(&whole);
    assert_eq!(text.matches(r#""t":"note""#).count(), 1, "{text}");
    // Cut just after the note: the device's supervision and note records
    // survive, but no outcome commits them.
    let note = text.find(r#""t":"note""#).unwrap();
    let cut = note + text[note..].find('\n').unwrap() + 1;
    std::fs::write(&journal, &whole[..cut]).unwrap();

    let resumed = accubench("--resume", &args);
    let err = stderr(&resumed);
    assert_eq!(resumed.status.code(), Some(1), "{err}");
    assert!(err.contains("re-measuring"), "{err}");
    assert_eq!(std::fs::read(&journal).unwrap(), whole, "healed bytes");
    assert_eq!(fsck(&journal), Some(0));
}

#[test]
fn faults_refuse_a_storage_kind_without_a_journal() {
    let dir = accubench::storage::TempDir::new("accubench-storage-kind");
    let plan = dir.file("enospc.toml");
    let toml = "[[event]]\nkind = \"storage-enospc\"\nat = 5.0\nduration = 1.0\n";
    std::fs::write(&plan, toml).unwrap();
    let out = accubench("", &["--faults", plan.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("`storage-enospc` is not applied here"),
        "{err}"
    );
    assert!(err.contains("with `--journal`"), "{err}");
    assert!(out.stdout.is_empty(), "measured anyway");
}

#[test]
fn a_stalled_session_times_out_on_the_default_budget() {
    let dir = accubench::storage::TempDir::new("accubench-stall");
    let plan = dir.file("stall.toml");
    let toml = "[[event]]\nkind = \"session-stall\"\nat = 10.0\nduration = 1e12\n";
    std::fs::write(&plan, toml).unwrap();
    let faults = ["--faults", plan.to_str().unwrap()];

    let aborted = accubench("", &faults);
    let err = stderr(&aborted);
    let armed = format!(
        "armed fault plan {}: 0 instrument event(s), 1 session event(s), 0 storage event(s)",
        plan.display()
    );
    assert!(err.contains(&armed), "{err}");
    assert_eq!(aborted.status.code(), Some(1), "{err}");
    assert!(err.contains("error (timed-out)"), "{err}");
    assert!(err.contains("simulated-time budget"), "{err}");

    let journal = dir.file("run.journal");
    let journal_flag = ["--journal", journal.to_str().unwrap()];
    let args = [&faults[..], &journal_flag].concat();
    let quarantined = accubench("--on-failure quarantine", &args);
    assert!(quarantined.status.success(), "{}", stderr(&quarantined));
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains(r#""status":"timed-out""#), "{text}");
}
