//! Flag parsing of the `repro` binary: every flag comes from one table,
//! values never leak into positional targets, and a flag outside the
//! table fails with the usage text instead of being silently ignored.

use std::process::{Command, Output};

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
