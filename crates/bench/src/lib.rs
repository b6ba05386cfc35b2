//! Benchmark harness crate: the `repro`, `accubench` and `benchdiff`
//! binaries and what they share.
//!
//! [`cli`] holds both CLIs' flag tables and the one parser they use. The
//! perf benches (`sweep`, `step`) summarise their samples with robust
//! p50/p90/MAD statistics and a `noisy` relative-spread guardrail
//! ([`stats`]), write their results in the shared
//! `pv-bench-report/v1` JSON schema ([`report`]), and the `benchdiff`
//! binary ([`diff`]) gates fresh reports against the committed baselines
//! under `benches/baselines/` in CI. DESIGN.md §14 documents the
//! methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod report;
pub mod stats;
