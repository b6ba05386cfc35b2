//! Machine-readable benchmark reports: the `pv-bench-report/v1` schema.
//!
//! Both perf benches (`sweep` and `step`) write the same JSON shape, so
//! one reader can follow any of them across commits. A report carries:
//!
//! * an **environment fingerprint** (host parallelism, rustc version,
//!   commit SHA, sample count), the conditions a number was measured
//!   under;
//! * a list of **metrics**, each with a robust point estimate (`value`,
//!   the p50), spread statistics, the pinned iteration count, and the
//!   `noisy` guardrail flag from [`crate::stats`];
//! * a list of boolean **checks**: the bench's invariants (e.g. the
//!   sweep's determinism contract) and its absolute [`Floor`]s.
//!
//! A bench writes its report first and then calls
//! [`BenchReport::exit_on_failed_checks`], so a broken invariant or floor
//! fails the bench and the evidence is still on disk.

use crate::stats::RobustStats;
use pv_json::Json;
use std::path::Path;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "pv-bench-report/v1";

/// Where the benchmark ran: enough context to judge comparability.
#[derive(Debug, Clone)]
pub struct EnvFingerprint {
    /// `std::thread::available_parallelism` on the measuring host.
    pub host_parallelism: usize,
    /// `rustc -V` output, or `"unknown"` outside a toolchain.
    pub rustc_version: String,
    /// Commit SHA (`GITHUB_SHA` or `git rev-parse HEAD`), or `"unknown"`.
    pub commit_sha: String,
    /// Timed samples taken per metric.
    pub sample_count: usize,
}

impl EnvFingerprint {
    /// Captures the current host's fingerprint.
    pub fn capture(sample_count: usize) -> Self {
        let rustc_version = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let commit_sha = std::env::var("GITHUB_SHA")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .and_then(|o| String::from_utf8(o.stdout).ok())
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc_version,
            commit_sha,
            sample_count,
        }
    }
}

/// One measurement: a robust summary of its timed samples.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable name across runs (e.g. `speedup/t4`).
    pub name: String,
    /// Display unit (`devices/s`, `ns/step`, `ms`, `x`, …).
    pub unit: String,
    /// Direction: `true` when bigger numbers are better.
    pub higher_is_better: bool,
    /// Robust point estimate: the p50 of retained samples (for a ratio
    /// metric, of its per-round ratios).
    pub value: f64,
    /// 90th percentile of retained samples.
    pub p90: f64,
    /// Smallest retained sample.
    pub min: f64,
    /// Scaled MAD / p50; see [`crate::stats`].
    pub rel_spread: f64,
    /// True when `rel_spread` exceeded the bench's guardrail: the value
    /// should not be trusted to better than its spread.
    pub noisy: bool,
    /// Timed samples behind the estimate.
    pub samples: usize,
    /// Pinned iterations per sample (1 when a sample is one full run).
    pub iterations: u64,
    /// Samples discarded by the IQR fence.
    pub outliers_rejected: usize,
}

impl Metric {
    /// Builds a metric from a robust sample summary.
    pub fn from_stats(
        name: impl Into<String>,
        unit: impl Into<String>,
        higher_is_better: bool,
        stats: &RobustStats,
        iterations: u64,
    ) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            higher_is_better,
            value: stats.p50,
            p90: stats.p90,
            min: stats.min,
            rel_spread: stats.rel_spread,
            noisy: stats.noisy,
            samples: stats.retained + stats.outliers_rejected,
            iterations,
            outliers_rejected: stats.outliers_rejected,
        }
    }
}

/// A pass/fail invariant carried alongside the metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Stable name (e.g. `reports_identical`).
    pub name: String,
    /// Whether the invariant held on this run.
    pub ok: bool,
}

/// An absolute lower bound a bench holds one of its own metrics to.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// Metric name in the report (e.g. `speedup/t4`).
    pub metric: &'static str,
    /// The run's value must be at least this.
    pub min: f64,
    /// The floor applies only on a host with at least this many CPUs:
    /// a 4-thread speedup shows nothing on a 2-CPU host.
    pub min_host_parallelism: usize,
}

/// A full bench run: fingerprint + metrics + checks.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which bench produced this (`sweep`, `step`).
    pub bench: String,
    /// Where and how it ran.
    pub env: EnvFingerprint,
    /// Gated measurements.
    pub metrics: Vec<Metric>,
    /// Hard invariants.
    pub checks: Vec<Check>,
}

impl BenchReport {
    /// Creates an empty report for `bench` with a captured fingerprint.
    pub fn new(bench: impl Into<String>, sample_count: usize) -> Self {
        Self {
            bench: bench.into(),
            env: EnvFingerprint::capture(sample_count),
            metrics: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes to the `pv-bench-report/v1` JSON shape.
    pub fn to_json(&self) -> Json {
        let mut env = Json::object();
        env.insert(
            "host_parallelism",
            Json::Number(self.env.host_parallelism as f64),
        );
        env.insert(
            "rustc_version",
            Json::String(self.env.rustc_version.clone()),
        );
        env.insert("commit_sha", Json::String(self.env.commit_sha.clone()));
        env.insert("sample_count", Json::Number(self.env.sample_count as f64));

        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut o = Json::object();
                o.insert("name", Json::String(m.name.clone()));
                o.insert("unit", Json::String(m.unit.clone()));
                o.insert("higher_is_better", Json::Bool(m.higher_is_better));
                o.insert("value", Json::Number(m.value));
                o.insert("p90", Json::Number(m.p90));
                o.insert("min", Json::Number(m.min));
                o.insert("rel_spread", Json::Number(m.rel_spread));
                o.insert("noisy", Json::Bool(m.noisy));
                o.insert("samples", Json::Number(m.samples as f64));
                o.insert("iterations", Json::Number(m.iterations as f64));
                o.insert(
                    "outliers_rejected",
                    Json::Number(m.outliers_rejected as f64),
                );
                o
            })
            .collect();

        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut o = Json::object();
                o.insert("name", Json::String(c.name.clone()));
                o.insert("ok", Json::Bool(c.ok));
                o
            })
            .collect();

        let mut out = Json::object();
        out.insert("schema", Json::String(SCHEMA.to_owned()));
        out.insert("bench", Json::String(self.bench.clone()));
        out.insert("env", env);
        out.insert("metrics", Json::Array(metrics));
        out.insert("checks", Json::Array(checks));
        out
    }

    /// Writes the report as pretty JSON (with trailing newline).
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty() + "\n")
    }

    /// Records `floor` as the check `<metric> >= <min>`, which fails when
    /// the metric is below the bound or missing from the report. On a
    /// host with fewer CPUs than the floor needs, no check is recorded
    /// and a "floor skipped" note goes to stderr.
    pub fn check_floor(&mut self, floor: Floor) {
        if self.env.host_parallelism < floor.min_host_parallelism {
            eprintln!(
                "floor on `{}` skipped: host has {} CPU(s), floor needs >= {}",
                floor.metric, self.env.host_parallelism, floor.min_host_parallelism
            );
            return;
        }
        let ok = self
            .metric(floor.metric)
            .is_some_and(|m| m.value >= floor.min);
        self.checks.push(Check {
            name: format!("{} >= {}", floor.metric, floor.min),
            ok,
        });
    }

    /// Prints every failed check to stderr and exits 1 when there is one.
    pub fn exit_on_failed_checks(&self) {
        let mut failed = false;
        for check in self.checks.iter().filter(|c| !c.ok) {
            eprintln!(
                "FAILED check `{}` in the `{}` bench",
                check.name, self.bench
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{robust, DEFAULT_NOISE_THRESHOLD};

    fn report_with(name: &str, value: f64, host_parallelism: usize) -> BenchReport {
        let stats = robust(&[value], DEFAULT_NOISE_THRESHOLD).unwrap();
        let mut r = BenchReport::new("sweep", 1);
        r.env.host_parallelism = host_parallelism;
        r.metrics
            .push(Metric::from_stats(name, "x", true, &stats, 1));
        r
    }

    const T4: Floor = Floor {
        metric: "speedup/t4",
        min: 2.0,
        min_host_parallelism: 4,
    };

    #[test]
    fn floor_check_fails_below_the_floor_and_passes_at_it() {
        let mut below = report_with("speedup/t4", 1.99, 4);
        below.check_floor(T4);
        assert_eq!(
            below.checks,
            [Check {
                name: "speedup/t4 >= 2".to_owned(),
                ok: false
            }]
        );
        let mut at = report_with("speedup/t4", 2.0, 4);
        at.check_floor(T4);
        assert_eq!(at.checks.len(), 1);
        assert!(at.checks[0].ok);
    }

    #[test]
    fn floor_on_missing_metric_fails() {
        let mut r = report_with("speedup/t2", 3.0, 4);
        r.check_floor(T4);
        assert_eq!(r.checks.len(), 1);
        assert!(!r.checks[0].ok);
    }

    #[test]
    fn floor_skipped_on_starved_host() {
        let mut r = report_with("speedup/t4", 0.5, 3);
        r.check_floor(T4);
        assert!(r.checks.is_empty());
    }

    #[test]
    fn report_json_keeps_the_v1_shape() {
        let mut r = report_with("speedup/t4", 2.5, 4);
        r.check_floor(T4);
        let json = r.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let check = &json.get("checks").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            check.get("name").and_then(Json::as_str),
            Some("speedup/t4 >= 2")
        );
        assert_eq!(check.get("ok").and_then(Json::as_bool), Some(true));
        let metric = &json.get("metrics").and_then(Json::as_array).unwrap()[0];
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn fingerprint_capture_is_populated() {
        let env = EnvFingerprint::capture(7);
        assert!(env.host_parallelism >= 1);
        assert_eq!(env.sample_count, 7);
        assert!(!env.rustc_version.is_empty());
        assert!(!env.commit_sha.is_empty());
    }
}
