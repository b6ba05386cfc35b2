//! Reproducibility guarantees across the whole stack: everything stochastic
//! is seeded, so identical configurations produce bit-identical results.

use process_variation::prelude::*;

fn run_session(bin: u8, iterations: usize) -> Vec<(f64, f64)> {
    let mut device = catalog::nexus5(BinId(bin)).unwrap();
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(50.0))
        .with_workload(Seconds(80.0));
    let mut harness = Harness::new(protocol, Ambient::paper_chamber().unwrap()).unwrap();
    let session = harness.run_session(&mut device, iterations).unwrap();
    session
        .iterations
        .iter()
        .map(|i| (i.iterations_completed, i.energy.value()))
        .collect()
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = run_session(2, 3);
    let b = run_session(2, 3);
    assert_eq!(a, b);
}

#[test]
fn different_bins_differ() {
    let a = run_session(0, 1);
    let b = run_session(3, 1);
    assert_ne!(a, b);
    assert!(a[0].0 > b[0].0, "bin-0 must outperform bin-3");
}

#[test]
fn device_sensor_noise_is_label_seeded() {
    // Two units with the same silicon but different labels read slightly
    // different sensor values (independent noise streams) yet agree on the
    // physics to well under a percent.
    let measure = |label: &str| {
        let mut device = catalog::pixel(0.5, label).unwrap();
        let protocol = Protocol::unconstrained()
            .with_warmup(Seconds(40.0))
            .with_workload(Seconds(60.0));
        let mut harness = Harness::new(protocol, Ambient::Fixed(Celsius(26.0))).unwrap();
        harness
            .run_iteration(&mut device)
            .unwrap()
            .iterations_completed
    };
    let a = measure("unit-a");
    let b = measure("unit-b");
    assert!(
        (a / b - 1.0).abs() < 0.01,
        "same silicon must measure the same: {a:.2} vs {b:.2}"
    );
}

#[test]
fn population_sampling_is_seed_stable() {
    use process_variation::pv_silicon::population;
    let a = population::sample(ProcessNode::FINFET_14NM, 64, 1234);
    let b = population::sample(ProcessNode::FINFET_14NM, 64, 1234);
    assert_eq!(a, b);
    let c = population::sample(ProcessNode::FINFET_14NM, 64, 1235);
    assert_ne!(a, c);
}

#[test]
fn fault_plans_and_reports_replay_identically() {
    use process_variation::pv_faults::{FaultHandle, FaultPlan, ALL_KINDS};
    use process_variation::pv_soc::faulty::FaultyDevice;

    // Same (seed, horizon, interval, kinds) ⇒ the same plan.
    let a = FaultPlan::generate(42, 1200.0, 120.0, &ALL_KINDS);
    let b = FaultPlan::generate(42, 1200.0, 120.0, &ALL_KINDS);
    assert_eq!(a, b);

    // And the same plan driven through the same session ⇒ the same
    // FaultReport sequence and the same measurements, bit for bit.
    let run = |plan: FaultPlan| {
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(catalog::nexus5(BinId(1)).unwrap(), handle.clone());
        let protocol = Protocol::unconstrained()
            .with_warmup(Seconds(50.0))
            .with_workload(Seconds(80.0));
        let mut harness = Harness::new(protocol, Ambient::paper_chamber().unwrap())
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 2).unwrap();
        (session, handle.reports())
    };
    let (s1, r1) = run(a);
    let (s2, r2) = run(b);
    assert_eq!(r1, r2, "fault report sequences must replay identically");
    assert_eq!(s1, s2, "faulty sessions must replay identically");
}

#[test]
fn disarmed_fault_layer_is_bit_identical_to_seed_behaviour() {
    use process_variation::pv_faults::FaultHandle;
    use process_variation::pv_soc::faulty::FaultyDevice;

    // Plain device through a plain harness...
    let baseline = run_session(1, 2);
    // ...vs the same device wrapped in a disarmed fault gate through a
    // fault-plumbed harness: the outputs must not differ in any bit.
    let mut device = FaultyDevice::new(catalog::nexus5(BinId(1)).unwrap(), FaultHandle::disarmed());
    let protocol = Protocol::unconstrained()
        .with_warmup(Seconds(50.0))
        .with_workload(Seconds(80.0));
    let mut harness = Harness::new(protocol, Ambient::paper_chamber().unwrap())
        .unwrap()
        .with_faults(FaultHandle::disarmed());
    let session = harness.run_session(&mut device, 2).unwrap();
    let gated: Vec<(f64, f64)> = session
        .iterations
        .iter()
        .map(|i| (i.iterations_completed, i.energy.value()))
        .collect();
    assert_eq!(baseline, gated);
}

#[test]
fn experiment_suite_is_deterministic() {
    use accubench::experiments::{table1, ExperimentConfig};
    let cfg = ExperimentConfig {
        scale: 0.15,
        iterations: 1,
        ..ExperimentConfig::quick()
    };
    let a = accubench::experiments::fig10::run(&cfg).unwrap();
    let b = accubench::experiments::fig10::run(&cfg).unwrap();
    assert_eq!(a, b);
    assert_eq!(table1::run().unwrap(), table1::run().unwrap());
}
