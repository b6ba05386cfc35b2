//! Golden tests for the `benchdiff` binary: the regression gate must
//! pass a clean run, fail a synthetic 15 % regression, widen for noisy
//! metrics, enforce the absolute floors, and give actionable errors for
//! missing baselines and malformed schemas. Each case drives the real
//! binary (`CARGO_BIN_EXE_benchdiff`) end-to-end over temp files.

use pv_bench::report::{BenchReport, Check, EnvFingerprint, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Unique per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "pv-benchdiff-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn env() -> EnvFingerprint {
    EnvFingerprint {
        host_parallelism: 4,
        rustc_version: "rustc-golden".to_owned(),
        commit_sha: "cafebabecafebabe".to_owned(),
        sample_count: 5,
    }
}

/// A healthy sweep report: comfortable speedup, quiet spreads.
fn sweep_report() -> BenchReport {
    BenchReport {
        bench: "sweep".to_owned(),
        env: env(),
        metrics: vec![
            Metric::scalar("devices_per_sec/t1", "devices/s", true, 1000.0, 0.01, false),
            Metric::scalar("devices_per_sec/t4", "devices/s", true, 2600.0, 0.02, false),
            Metric::scalar("speedup/t4", "x", true, 2.6, 0.02, false),
            // Appended last so the index-based fixture edits above stay
            // stable; every floor metric must be present in a sweep report.
            Metric::scalar("sample_speedup/n2000", "x", true, 50.0, 0.02, false),
        ],
        checks: vec![Check {
            name: "reports_identical".to_owned(),
            ok: true,
        }],
    }
}

fn run_benchdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args(args)
        .output()
        .expect("benchdiff binary runs")
}

fn diff_files(baseline: &Path, current: &Path) -> Output {
    run_benchdiff(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--current",
        current.to_str().unwrap(),
    ])
}

#[test]
fn golden_pass_identical_run() {
    let dir = Scratch::new("pass");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    sweep_report().write(&baseline).unwrap();
    sweep_report().write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("OK: no regression"), "{stdout}");
    assert!(stdout.contains("trend: sweep @"), "{stdout}");
    // The table renders a row per metric with the band column.
    assert!(stdout.contains("| speedup/t4 |"), "{stdout}");
}

#[test]
fn golden_fifteen_percent_regression_fails() {
    let dir = Scratch::new("regress");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    sweep_report().write(&baseline).unwrap();
    let mut slow = sweep_report();
    // Synthetic 15% slip on the 4-thread rate (speedup still above the
    // 2× floor, so it is the band — not the backstop — that catches it).
    slow.metrics[1] = Metric::scalar("devices_per_sec/t4", "devices/s", true, 2210.0, 0.02, false);
    slow.metrics[2] = Metric::scalar("speedup/t4", "x", true, 2.21, 0.02, false);
    slow.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("devices_per_sec/t4"), "{stdout}");
    assert!(stderr.contains("FAIL"), "{stderr}");
}

#[test]
fn golden_noisy_metric_widens_band_and_passes() {
    let dir = Scratch::new("noisy");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    let mut base = sweep_report();
    base.metrics[1] = Metric::scalar("devices_per_sec/t4", "devices/s", true, 2600.0, 0.12, true);
    base.write(&baseline).unwrap();
    let mut cur = sweep_report();
    // Same −15% drift as the failing case, but the metric is flagged
    // noisy on both sides → the band widens to ≥30% and it passes.
    // (speedup/t4 stays quiet and unchanged so only the noisy rule is
    // in play.)
    cur.metrics[1] = Metric::scalar("devices_per_sec/t4", "devices/s", true, 2210.0, 0.12, true);
    cur.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("ok (noisy)"), "{stdout}");
}

#[test]
fn golden_floor_backstop_fails_even_without_drift() {
    let dir = Scratch::new("floor");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    // Baseline itself already below the 2× floor: drift is zero, the
    // absolute backstop must still fail the current run.
    let mut report = sweep_report();
    report.metrics[2] = Metric::scalar("speedup/t4", "x", true, 1.5, 0.02, false);
    report.write(&baseline).unwrap();
    report.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FLOOR FAIL"), "{stdout}");
}

#[test]
fn golden_sample_floor_backstop_fails_even_without_drift() {
    let dir = Scratch::new("samplefloor");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    // Sampling collapsing to 6× over the extrapolated full population:
    // zero drift against an equally-bad baseline, yet the ≥10× backstop
    // fails the run — and it applies even on a single-CPU host.
    let mut report = sweep_report();
    report.env.host_parallelism = 1;
    report.metrics[3] = Metric::scalar("sample_speedup/n2000", "x", true, 6.0, 0.02, false);
    report.write(&baseline).unwrap();
    report.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FLOOR FAIL"), "{stdout}");
    assert!(stdout.contains("sample_speedup/n2000"), "{stdout}");
}

#[test]
fn golden_missing_baseline_gives_refresh_hint() {
    let dir = Scratch::new("missing");
    let baseline = dir.path("does-not-exist.json");
    let current = dir.path("current.json");
    sweep_report().write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot load baseline"), "{stderr}");
    assert!(stderr.contains("Refreshing baselines"), "{stderr}");
}

#[test]
fn golden_missing_metric_in_current_fails() {
    let dir = Scratch::new("dropped");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    sweep_report().write(&baseline).unwrap();
    let mut cur = sweep_report();
    cur.metrics.remove(0); // drop devices_per_sec/t1
    cur.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("MISSING"), "{stdout}");
}

#[test]
fn golden_failed_check_fails() {
    let dir = Scratch::new("check");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    sweep_report().write(&baseline).unwrap();
    let mut cur = sweep_report();
    cur.checks[0].ok = false;
    cur.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("reports_identical"));
}

#[test]
fn check_schema_accepts_valid_and_rejects_garbage() {
    let dir = Scratch::new("schema");
    let good = dir.path("good.json");
    sweep_report().write(&good).unwrap();
    let out = run_benchdiff(&["--check-schema", good.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok:"));

    // Valid JSON, wrong shape: missing metric fields.
    let bad = dir.path("bad.json");
    std::fs::write(
        &bad,
        r#"{"schema": "pv-bench-report/v1", "bench": "sweep",
            "env": {"host_parallelism": 1, "rustc_version": "x",
                    "commit_sha": "y", "sample_count": 1},
            "metrics": [{"name": "m"}], "checks": []}"#,
    )
    .unwrap();
    let out = run_benchdiff(&["--check-schema", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SCHEMA ERROR"), "{stderr}");
    assert!(stderr.contains("metrics[0]"), "{stderr}");

    // Not JSON at all.
    let garbage = dir.path("garbage.json");
    std::fs::write(&garbage, "not json {").unwrap();
    let out = run_benchdiff(&["--check-schema", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn env_mismatch_widens_bands() {
    let dir = Scratch::new("envmismatch");
    let baseline = dir.path("baseline.json");
    let current = dir.path("current.json");
    sweep_report().write(&baseline).unwrap();
    let mut cur = sweep_report();
    cur.env.host_parallelism = 16;
    // −20% on both would fail the tight band; across machines the
    // absolute devices/s metric goes informational and the ratio's
    // band widens to ≥30%, so the gate passes with explanatory notes.
    cur.metrics[1] = Metric::scalar("devices_per_sec/t4", "devices/s", true, 2080.0, 0.02, false);
    cur.metrics[2] = Metric::scalar("speedup/t4", "x", true, 2.08, 0.02, false);
    cur.write(&current).unwrap();
    let out = diff_files(&baseline, &current);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("environment mismatch"), "{stdout}");
    assert!(stdout.contains("info (env)"), "{stdout}");
}
