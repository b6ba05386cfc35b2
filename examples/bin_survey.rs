//! Bin survey: the Fig 1 scenario as a runnable tool.
//!
//! Gives every Nexus 5 voltage bin the same fixed amount of work and
//! reports how long each takes, how much energy it burns, how hot it gets,
//! and whether the 80 °C core-shutdown hotplug fired. Run with `--csv` to
//! get a machine-readable trace of the worst bin for plotting.
//!
//! ```text
//! cargo run --release --example bin_survey [-- --csv]
//! ```

use process_variation::prelude::*;
use pv_soc::trace::Trace;
use pv_workload::CYCLES_PER_ITERATION;

fn main() -> Result<(), BenchError> {
    let csv = std::env::args().any(|a| a == "--csv");
    // Work a healthy device finishes in about two minutes flat-out.
    let target_iterations = 4.0 * 2265.0e6 / CYCLES_PER_ITERATION * 120.0;

    println!("Fixed work: {target_iterations:.0} iterations of 4,285 pi digits\n");
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>9} {:>14}",
        "bin", "time (s)", "J", "J (norm)", "peak °C", "core shutdown"
    );

    let mut base_energy = None;
    let mut worst_trace = Trace::new();
    for bin in 0..7u8 {
        let mut device = catalog::nexus5(BinId(bin))?;
        let mut meter = EnergyMeter::new();
        let mut trace = Trace::new();
        let mut work = 0.0;
        let mut t = 0.0;
        let mut peak: f64 = 26.0;
        let mut shutdown = false;
        let dt = Seconds(0.5);
        while work / CYCLES_PER_ITERATION < target_iterations {
            let r = device.step(dt, CpuDemand::busy(), FrequencyMode::Unconstrained)?;
            meter
                .record(r.supply_power, dt)
                .map_err(pv_soc::SocError::from)?;
            work += r.work_cycles;
            t += dt.value();
            peak = peak.max(r.die_temp.value());
            shutdown |= r.active_cores[0] < 4;
            trace.push(r.to_sample(Seconds(t)));
            if t > 3600.0 {
                eprintln!("bin-{bin}: did not finish within an hour, aborting");
                break;
            }
        }
        let energy = meter.energy().value();
        let base = *base_energy.get_or_insert(energy);
        println!(
            "bin-{bin:<2} {t:>9.0} {energy:>9.0} {:>10.3} {peak:>9.1} {:>14}",
            energy / base,
            if shutdown { "yes" } else { "no" }
        );
        worst_trace = trace;
    }

    if csv {
        println!(
            "\n# trace of the last (worst) bin:\n{}",
            worst_trace.to_csv()
        );
    } else {
        println!("\n(re-run with --csv to dump the worst bin's full trace)");
    }
    Ok(())
}
