//! Cross-crate integration: supplies drain, chambers feel device heat,
//! traces export cleanly, and the silicon → soc voltage pipeline is
//! consistent.

use process_variation::prelude::*;
use process_variation::pv_silicon::binning::{nexus5 as n5bins, voltage_bin_table};

#[test]
fn battery_powered_device_drains_its_cell() {
    let mut device = catalog::pixel(0.5, "px-batt").unwrap();
    device.set_supply(Box::new(Battery::new(Joules(20_000.0), 0.06, 0.9).unwrap()));
    let before = device.supply().energy_delivered();
    for _ in 0..1200 {
        device
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
    }
    let delivered = device.supply().energy_delivered() - before;
    assert!(
        delivered.value() > 100.0,
        "two busy minutes must drain real energy: {delivered}"
    );
}

#[test]
fn drained_battery_eventually_errors() {
    let mut device = catalog::pixel(0.5, "px-dead").unwrap();
    // A tiny nearly-dead cell.
    device.set_supply(Box::new(Battery::new(Joules(300.0), 0.06, 0.1).unwrap()));
    let mut died = false;
    for _ in 0..36_000 {
        if device
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .is_err()
        {
            died = true;
            break;
        }
    }
    assert!(died, "device should fail once the battery is empty");
}

#[test]
fn device_heat_disturbs_the_chamber_and_controller_recovers() {
    let mut chamber = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
    chamber.settle(Seconds(7200.0)).unwrap();
    let mut device = catalog::nexus5(BinId(3)).unwrap();

    let mut worst_dev: f64 = 0.0;
    for _ in 0..9000 {
        device.set_ambient(chamber.air_temp()).unwrap();
        let r = device
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        chamber.step(Seconds(0.1), r.supply_power).unwrap();
        worst_dev = worst_dev.max(chamber.deviation().abs().value());
    }
    assert!(
        worst_dev < 1.0,
        "chamber lost regulation under device load: {worst_dev:.2} K"
    );
    assert!(
        worst_dev > 0.0,
        "device heat must actually perturb the chamber"
    );
}

#[test]
fn trace_csv_has_one_row_per_step() {
    let mut device = catalog::lg_g5(0.5, "g5-trace").unwrap();
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0))
        .with_trace();
    let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0))).unwrap();
    let it = harness.run_iteration(&mut device).unwrap();
    let csv = it.full_trace.to_csv();
    let lines = csv.trim().lines().count();
    assert_eq!(
        lines,
        it.full_trace.len() + 1,
        "header + one row per sample"
    );
    // Two clusters → freq0 and freq1 columns.
    assert!(csv.starts_with("t_s,"));
    assert!(csv.contains("freq0_mhz"));
    assert!(csv.contains("freq1_mhz"));
}

#[test]
fn device_tables_match_direct_binning() {
    // The table a Nexus 5 device actually runs with must equal what the
    // silicon crate generates for the same die.
    let device = catalog::nexus5(BinId(4)).unwrap();
    let slow = n5bins::reference_table(BinId(0)).unwrap();
    let fast = n5bins::reference_table(BinId(6)).unwrap();
    let expected = voltage_bin_table(&slow, &fast, device.die()).unwrap();
    assert_eq!(device.tables()[0], expected);
}

#[test]
fn work_tally_consistency_between_device_and_workload_crates() {
    // A Nexus 5 pinned at 960 MHz for 10 s credits 4 cores × 960 MHz ×
    // 10 s of work: its one cluster has weight 1.
    let mut device = catalog::nexus5(BinId(0)).unwrap();
    let mut device_cycles = 0.0;
    for _ in 0..100 {
        let r = device
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(960.0)),
            )
            .unwrap();
        device_cycles += r.work_cycles;
    }
    let expected = 4.0 * 960.0e6 * 10.0;
    assert!(
        (device_cycles - expected).abs() < 1e-6 * expected,
        "device accounting {device_cycles} vs 4 cores x 960 MHz x 10 s = {expected}"
    );
}

#[test]
fn monsoon_counters_track_harness_energy() {
    // Energy metered by the harness during the workload is a subset of the
    // total the Monsoon delivered across the iteration.
    let mut device = catalog::nexus5(BinId(0)).unwrap();
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(30.0))
        .with_workload(Seconds(40.0));
    let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0))).unwrap();
    let it = harness.run_iteration(&mut device).unwrap();
    let monsoon_total = device.supply().energy_delivered();
    assert!(
        monsoon_total > it.energy,
        "supply total {monsoon_total} must exceed workload-window energy {}",
        it.energy
    );
}
