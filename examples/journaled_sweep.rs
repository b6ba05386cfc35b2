//! A crash-safe crowd sweep: write-ahead journal, kill, resume.
//!
//! The §VI crowdsourcing vision means long sweeps over many devices — and
//! long runs get killed: Ctrl-C, OOM, power loss. This example journals a
//! sweep, simulates a crash by truncating the journal at an arbitrary
//! byte (exactly what a power cut mid-write leaves behind), then resumes
//! and shows the final report is identical to the uninterrupted run's.
//!
//! ```text
//! cargo run --release --example journaled_sweep
//! ```

use process_variation::prelude::*;
use process_variation::pv_faults::ALL_KINDS;

fn fleet(n: usize) -> Result<Vec<Device>, BenchError> {
    (0..n)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-crowd-{i:03}")).map_err(Into::into)
        })
        .collect()
}

fn main() -> Result<(), BenchError> {
    println!("crash-safe crowd sweep\n");

    // Short protocol, 12 devices, faults armed so outcomes vary.
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0));
    let cfg =
        SweepConfig::clean(protocol, 2).with_faults(0xC0FFEE, Seconds(1500.0), ALL_KINDS.to_vec());
    let path = std::env::temp_dir().join(format!("journaled-sweep-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // --- Uninterrupted run, journaled. ---
    let mut journal = Journal::open(&path)?;
    let mut db = CrowdDatabase::new(5.0)?;
    let full = populate_parallel(
        &mut db,
        "Pixel",
        fleet(12)?,
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )?;
    drop(journal);
    let bytes = std::fs::read(&path).map_err(BenchError::Io)?;
    println!(
        "full run: {} devices, journal {} bytes",
        full.report.outcomes.len(),
        bytes.len()
    );

    // --- Simulate a crash: keep only the first 40 % of the journal. ---
    let cut = bytes.len() * 2 / 5;
    std::fs::write(&path, &bytes[..cut]).map_err(BenchError::Io)?;
    println!("crash: journal truncated to {cut} bytes");

    // --- Resume. Recovery drops any torn trailing record, the header's
    // config digest is verified, journaled devices are replayed, and only
    // the missing tail of the fleet is re-simulated. ---
    let mut journal = Journal::open(&path)?;
    if journal.dropped_bytes() > 0 {
        println!("recovery dropped {} torn byte(s)", journal.dropped_bytes());
    }
    let mut resumed_db = CrowdDatabase::new(5.0)?;
    let resumed = populate_parallel(
        &mut resumed_db,
        "Pixel",
        fleet(12)?,
        &cfg,
        Some(&mut journal),
        &CancelToken::new(),
        1,
    )?;
    println!(
        "resume: {} device(s) restored from the journal, {} re-simulated\n",
        resumed.resumed,
        resumed.report.outcomes.len() - resumed.resumed
    );

    assert_eq!(resumed.report, full.report, "resume must be bit-identical");
    println!("{}", resumed.report);
    println!("resumed report is identical to the uninterrupted run's.");

    let _ = std::fs::remove_file(&path);
    Ok(())
}
