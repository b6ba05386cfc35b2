//! Benchmark harness crate: the `repro` and `accubench` binaries and what
//! they share with the perf benches.
//!
//! [`cli`] holds both CLIs' flag tables and the one parser they use. The
//! perf benches (`sweep`, `step`) summarise their samples with robust
//! p50/p90/MAD statistics and a `noisy` relative-spread guardrail
//! ([`stats`]), and write their results in the shared
//! `pv-bench-report/v1` JSON schema ([`report`]). Each bench holds its
//! own absolute floors and invariants as checks in that report and exits
//! 1 when one fails. DESIGN.md §14 documents the methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod stats;
