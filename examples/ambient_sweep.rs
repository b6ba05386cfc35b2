//! Ambient sweep: "freeze it if you can" (Fig 2), runnable.
//!
//! Sweeps the chamber temperature from refrigerator-cold to hot-car-warm
//! and measures the energy a device needs for the same fixed work at each
//! point — the reason benchmark scores are meaningless without ambient
//! control, and the reason putting a phone in a refrigerator inflates its
//! Antutu score.
//!
//! ```text
//! cargo run --release --example ambient_sweep
//! ```

use process_variation::prelude::*;
use pv_workload::CYCLES_PER_ITERATION;

fn run_fixed_work(
    device: &mut Device,
    ambient: Celsius,
    target: f64,
) -> Result<(f64, f64), BenchError> {
    device.reset_thermal(ambient)?;
    let mut meter = EnergyMeter::new();
    let mut work = 0.0;
    let mut t = 0.0;
    let dt = Seconds(0.5);
    while work / CYCLES_PER_ITERATION < target {
        let r = device.step(dt, CpuDemand::busy(), FrequencyMode::Unconstrained)?;
        meter
            .record(r.supply_power, dt)
            .map_err(pv_soc::SocError::from)?;
        work += r.work_cycles;
        t += dt.value();
    }
    Ok((meter.energy().value(), t))
}

fn main() -> Result<(), BenchError> {
    let target = 4.0 * 2265.0e6 / CYCLES_PER_ITERATION * 90.0;

    println!("Energy to complete {target:.0} iterations vs ambient temperature\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "ambient", "bin-1 J", "bin-1 norm", "bin-3 J", "bin-3 norm"
    );

    let mut dev1 = catalog::nexus5(BinId(1))?;
    let mut dev3 = catalog::nexus5(BinId(3))?;
    let mut base = (0.0, 0.0);
    for ambient in [8.0, 14.0, 20.0, 26.0, 32.0, 38.0, 44.0] {
        let (e1, _) = run_fixed_work(&mut dev1, Celsius(ambient), target)?;
        let (e3, _) = run_fixed_work(&mut dev3, Celsius(ambient), target)?;
        if base == (0.0, 0.0) {
            base = (e1, e3);
        }
        println!(
            "{:<10} {:>12.0} {:>12.3} {:>12.0} {:>12.3}",
            format!("{ambient:.0} °C"),
            e1,
            e1 / base.0,
            e3,
            e3 / base.1
        );
    }

    println!("\nThe paper reports 25-30%+ extra energy at hot ambients (Fig 2) —");
    println!("and leakier silicon (bin-3) pays the bigger penalty.");
    Ok(())
}
