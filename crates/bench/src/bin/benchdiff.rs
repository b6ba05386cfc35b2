//! `benchdiff` — the perf regression gate.
//!
//! Compares a fresh `BENCH_*.json` (written by the `sweep`/`step`
//! benches in the shared `pv-bench-report/v1` schema) against the
//! committed baseline under `benches/baselines/`, prints a
//! baseline-vs-current table plus a one-line `trend:` summary, and
//! exits nonzero on any regression, absolute-floor violation, or failed
//! invariant check. The comparison rules (tolerance bands, noise-aware
//! widening, environment-mismatch widening, built-in 2×/5× floors) live
//! in `pv_bench::diff`; DESIGN.md §14 documents the methodology and
//! EXPERIMENTS.md the baseline refresh procedure.
//!
//! ```text
//! # gate a fresh run against its committed baseline
//! benchdiff --baseline benches/baselines/BENCH_sweep.json --current BENCH_sweep.json
//!
//! # cheap PR-time schema lint (no comparison)
//! benchdiff --check-schema benches/baselines/BENCH_sweep.json benches/baselines/BENCH_step.json
//! ```
//!
//! Exit codes: 0 = pass, 1 = regression/floor/check failure,
//! 2 = usage, unreadable file, or schema violation.

use pv_bench::cli::{switch, valued, Cli, Flags};
use pv_bench::diff::{diff, DiffConfig};
use pv_bench::report::BenchReport;

const DIFF: &[&str] = &["diff"];
const BOTH: &[&str] = &["diff", "check"];

/// `benchdiff`'s command line: a comparison, or, with `--check-schema`,
/// a schema lint of every file given.
const BENCHDIFF: Cli = Cli {
    program: "benchdiff",
    commands: &[
        ("diff", "--baseline PATH --current PATH", 0),
        ("check", "--check-schema FILE [FILE...]", usize::MAX),
    ],
    flags: &[
        valued("--baseline", "PATH", DIFF),
        valued("--current", "PATH", DIFF),
        valued("--tolerance", "F", DIFF),
        valued("--noise-factor", "F", DIFF),
        valued("--noisy-band", "F", DIFF),
        switch("--check-schema", &["check"]),
        switch("--help", BOTH),
    ],
};

/// Prints `reason` (when there is one) and the usage text, and exits 2.
fn usage(reason: &str) -> ! {
    if !reason.is_empty() {
        eprintln!("{reason}");
    }
    eprint!("{}", BENCHDIFF.usage());
    std::process::exit(2);
}

/// `flag`'s value as a finite number ≥ 0, when given.
fn non_negative(flags: &Flags<'_>, flag: &str) -> Option<f64> {
    flags
        .get(flag, "a non-negative number", |v| {
            v.parse().ok().filter(|f: &f64| f.is_finite() && *f >= 0.0)
        })
        .unwrap_or_else(|e| usage(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = BENCHDIFF.parse(&args).unwrap_or_else(|e| usage(&e));
    if flags.switch("--help") || positional.contains(&"-h") {
        usage("");
    }
    let command = if flags.switch("--check-schema") {
        "check"
    } else {
        "diff"
    };
    let (files, stray) = BENCHDIFF.operands(command, &positional);
    flags.check(command, stray).unwrap_or_else(|e| usage(&e));

    if command == "check" {
        if files.is_empty() {
            usage("--check-schema needs at least one file");
        }
        let mut bad = 0;
        for path in files {
            match BenchReport::load(path) {
                Ok(report) => println!(
                    "ok: {path} ({} metrics, {} checks, bench `{}`)",
                    report.metrics.len(),
                    report.checks.len(),
                    report.bench
                ),
                Err(e) => {
                    eprintln!("SCHEMA ERROR: {e}");
                    bad += 1;
                }
            }
        }
        std::process::exit(if bad == 0 { 0 } else { 2 });
    }

    let defaults = DiffConfig::default();
    let cfg = DiffConfig {
        tolerance: non_negative(&flags, "--tolerance").unwrap_or(defaults.tolerance),
        noise_factor: non_negative(&flags, "--noise-factor").unwrap_or(defaults.noise_factor),
        noisy_band: non_negative(&flags, "--noisy-band").unwrap_or(defaults.noisy_band),
    };
    let (Some(baseline_path), Some(current_path)) =
        (flags.value("--baseline"), flags.value("--current"))
    else {
        usage("--baseline and --current are both required");
    };

    let baseline = match BenchReport::load(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "ERROR: cannot load baseline: {e}\n\
                 hint: commit one with `cp {current_path} {baseline_path}` after a \
                 trusted run (see EXPERIMENTS.md \"Refreshing baselines\")"
            );
            std::process::exit(2);
        }
    };
    let current = match BenchReport::load(current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ERROR: cannot load current report: {e}");
            std::process::exit(2);
        }
    };

    let result = diff(&baseline, &current, &cfg);
    print!("{}", result.render_table());
    println!();
    println!("{}", result.trend_line());
    if result.passed() {
        println!("OK: no regression vs baseline");
    } else {
        eprintln!(
            "FAIL: {} problem(s) — see table above",
            result.failures.len()
        );
        std::process::exit(1);
    }
}
