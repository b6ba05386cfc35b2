//! Flag parsing of the `repro` binary: every flag comes from one table,
//! values never leak into positional targets, and a flag outside the
//! table, or an unknown target, fails with the usage text instead of
//! being silently ignored. `--export` writes what a target computed once.
//! A fault plan with a kind its flag cannot apply is refused, not ignored.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_flag_prints_usage_and_fails() {
    // A removed option must not run a sweep with its value ignored.
    let out = repro(&["sweep", "--batch", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --batch"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn flag_values_are_not_targets() {
    let out = repro(&["--threads", "2", "list", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.lines().any(|l| l == "table1"), "{stdout}");
}

#[test]
fn list_into_a_closed_pipe_fails_without_a_panic() {
    // `repro list | head -0`: the reader is gone before the first write.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("could not write to stdout"), "{stderr}");
}

#[test]
fn journaled_sweep_reports_its_commits_on_stderr_only() {
    let dir = accubench::storage::TempDir::new("repro-commits");
    let journal = dir.file("sweep.journal");
    let args = ["sweep", "--quick", "--devices", "2", "--threads", "1"];
    let plain = repro(&args);
    let mut journaled_args = args.to_vec();
    journaled_args.extend(["--journal", journal.to_str().unwrap()]);
    let journaled = repro(&journaled_args);
    let stderr = String::from_utf8_lossy(&journaled.stderr);
    assert!(journaled.status.success(), "{stderr}");
    // Header, two outcomes and the seal: the two devices share one group.
    assert!(
        stderr.contains("journal: 4 record(s) in 3 commit(s)"),
        "{stderr}"
    );
    assert_eq!(journaled.stdout, plain.stdout);
}

/// Runs `repro` on the whitespace-split `line` and asserts it refused the
/// command line before doing any work: exit 1, `reason` and the usage
/// text on stderr, nothing on stdout.
fn assert_refused(line: &str, reason: &str) {
    let out = repro(&line.split_whitespace().collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    assert!(stderr.contains(reason), "{line}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line} ran anyway");
}

#[test]
fn value_flag_without_a_value_is_refused() {
    // A trailing `--seed` must not run an unfaulted sweep.
    let sweep = "sweep --quick --devices 1 --seed";
    assert_refused(sweep, "--seed requires a value");
    assert_refused("table1 --faults", "--faults requires a value");
}

#[test]
fn repeated_flag_is_refused() {
    let sweep = "sweep --quick --devices 4 --devices 9";
    assert_refused(sweep, "--devices given more than once");
}

#[test]
fn flag_the_target_does_not_read_is_refused() {
    let sweep = "sweep --quick --devices 1 --faults /nonexistent.toml --export /nonexistent-dir";
    assert_refused(sweep, "--faults has no effect");
    let dir = accubench::storage::TempDir::new("repro-unread-flag");
    let journal = dir.file("x.journal");
    let table1 = format!("table1 --journal {} --resume", journal.display());
    assert_refused(&table1, "--journal has no effect");
    assert!(!journal.exists(), "table1 wrote a journal");
}

#[test]
fn journal_only_flags_without_a_journal_are_refused() {
    // Each flag acts only on the journal; without one it would be ignored.
    let plan = "[[event]]\nkind = \"storage-eio-persistent\"\nat = 5.0\nduration = 1.0\n";
    let dir = accubench::storage::TempDir::new("repro-journal-only");
    let plan_path = dir.file("plan.toml");
    std::fs::write(&plan_path, plan).unwrap();
    let plan_path = plan_path.to_str().unwrap();
    // The first flag of each line is the one refused.
    for extra in [
        vec!["--resume"],
        vec!["--storage-faults", plan_path],
        vec!["--storage-escalation", "abort"],
        vec![
            "--storage-faults",
            plan_path,
            "--storage-escalation",
            "abort",
        ],
    ] {
        let mut args = vec!["sweep", "--quick", "--devices", "2"];
        args.extend(&extra);
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let reason = format!("{} requires --journal <path>", extra[0]);
        assert!(stderr.contains(&reason), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn extra_targets_are_refused() {
    assert_refused("table1 fig3", "unexpected argument fig3");
}

#[test]
fn unknown_target_is_refused_before_any_work() {
    let dir = accubench::storage::TempDir::new("repro-unknown-target");
    let export = dir.file("figs");
    assert_refused(
        &format!("nosuch --export {}", export.display()),
        "unknown experiment",
    );
    assert!(!export.exists(), "nosuch created its export directory");
}

/// The `[step-stats]` line `repro --verbose` prints for `args`.
fn step_stats(args: &[&str]) -> String {
    let out = repro(&[args, &["--verbose"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    let line = stderr.lines().find(|l| l.starts_with("[step-stats]"));
    line.unwrap_or_else(|| panic!("{args:?}: {stderr}"))
        .to_owned()
}

#[test]
fn export_runs_each_experiment_once() {
    // The thermal step counters exist only in debug builds.
    if !cfg!(debug_assertions) {
        return;
    }
    let dir = accubench::storage::TempDir::new("repro-export-once");
    let export = dir.path().to_str().unwrap();
    for target in ["fig2", "fig6"] {
        let plain = step_stats(&[target, "--quick"]);
        let exported = step_stats(&[target, "--quick", "--export", export]);
        assert_eq!(plain, exported, "{target}");
    }
}

/// Runs `repro` on `args` plus `flag` naming a plan of one `kind` event
/// (at 500, lasting 1e12), and asserts the plan was refused before any
/// work: exit 1 within a minute (an applied stall would never end), an
/// error naming the kind and `applied_by`, nothing on stdout.
fn assert_plan_refused(args: &[&str], flag: &str, kind: &str, applied_by: &str) {
    let dir = accubench::storage::TempDir::new("repro-plan-kinds");
    let plan = dir.file("plan.toml");
    let toml = format!("[[event]]\nkind = \"{kind}\"\nat = 500.0\nduration = 1e12\n");
    std::fs::write(&plan, toml).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args([flag, plan.to_str().unwrap()])
        .env("RUST_BACKTRACE", "0")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{args:?} {flag} {kind}: still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{kind}: {stderr}");
    let reason = format!("{flag}: {}: `{kind}` is not applied here", plan.display());
    assert!(stderr.contains(&reason), "{kind}: {stderr}");
    assert!(stderr.contains(applied_by), "{kind}: {stderr}");
    assert!(out.stdout.is_empty(), "{kind}: ran anyway");
}

#[test]
fn experiment_faults_refuse_a_session_panic() {
    let rsd = ["rsd", "--quick"];
    assert_plan_refused(&rsd, "--faults", "session-panic", "`accubench --faults`");
}

#[test]
fn experiment_faults_refuse_a_session_stall() {
    let rsd = ["rsd", "--quick"];
    assert_plan_refused(&rsd, "--faults", "session-stall", "`accubench --faults`");
}

#[test]
fn experiment_faults_refuse_a_storage_kind() {
    let rsd = ["rsd", "--quick"];
    let applied_by = "`repro sweep --storage-faults`";
    assert_plan_refused(&rsd, "--faults", "storage-enospc", applied_by);
}

#[test]
fn storage_faults_refuse_an_instrument_kind() {
    let dir = accubench::storage::TempDir::new("repro-storage-kinds");
    let journal = dir.file("sweep.journal");
    let sweep = ["sweep", "--quick", "--devices", "2", "--journal"];
    let args = [&sweep[..], &[journal.to_str().unwrap()]].concat();
    let applied_by = "`repro <experiment> --faults`";
    assert_plan_refused(&args, "--storage-faults", "probe-dropout", applied_by);
    assert!(!journal.exists(), "the refused sweep opened its journal");
}
