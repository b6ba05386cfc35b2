//! Resilience integration tests: fault-ridden sessions and fleet sweeps.
//!
//! The acceptance bar for the fault-injection layer: a crowd of 100+
//! simulated devices with a ~10 % per-iteration transient-fault rate runs
//! to completion with a verdict for every device, sessions that only hit
//! brief transient faults still validate, and identical fault seeds replay
//! identically.

use accubench::crowd::{populate_parallel, CrowdDatabase, SweepConfig};
use accubench::harness::{Ambient, Harness, QualityGates, RetryPolicy};
use accubench::journal::CancelToken;
use accubench::protocol::Protocol;
use accubench::session::Verdict;
use pv_faults::{FaultEvent, FaultHandle, FaultKind, FaultPlan, ALL_KINDS};
use pv_soc::catalog;
use pv_soc::device::Device;
use pv_soc::faulty::FaultyDevice;
use pv_units::{Celsius, Seconds};

/// Short protocol so the 100-device sweep stays fast.
fn quick() -> Protocol {
    Protocol::unconstrained()
        .with_warmup(Seconds(20.0))
        .with_workload(Seconds(30.0))
}

fn fleet(n: usize) -> Vec<Device> {
    (0..n)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i as f64) / (n.max(2) - 1) as f64;
            catalog::pixel(grade, format!("pixel-crowd-{i:03}")).unwrap()
        })
        .collect()
}

/// One clean quick() iteration lasts roughly this long in simulated time
/// (20 s warmup + a short cooldown + 30 s workload).
const APPROX_ITERATION_S: f64 = 150.0;

#[test]
fn hundred_device_faulty_sweep_completes_with_verdicts() {
    // Mean fault interval ≈ 10× the iteration length ⇒ ~10 % of iterations
    // hit a fault.
    let cfg = SweepConfig::clean(quick(), 3).with_faults(
        0xC0FFEE,
        Seconds(APPROX_ITERATION_S * 10.0),
        ALL_KINDS.to_vec(),
    );
    let mut db = CrowdDatabase::new(5.0).unwrap();
    let report = populate_parallel(
        &mut db,
        "Pixel",
        fleet(100),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap()
    .report;

    assert_eq!(report.outcomes.len(), 100);
    // Every device is accounted for: a verdict, or a recorded fatal error.
    for o in &report.outcomes {
        assert!(
            o.verdict.is_some() || o.error.is_some(),
            "{} has neither verdict nor error",
            o.device
        );
    }
    // At this fault rate the retry/quarantine machinery keeps the vast
    // majority of the fleet measurable.
    assert!(
        report.completed() >= 90,
        "only {} of 100 sessions completed",
        report.completed()
    );
    assert!(
        db.scores().len() >= 50,
        "only {} submissions accepted",
        db.scores().len()
    );
    // Faults genuinely fired somewhere in the fleet.
    let total_faults: usize = report.outcomes.iter().map(|o| o.fault_reports).sum();
    assert!(total_faults > 0, "sweep injected no faults at all");
}

#[test]
fn clean_sweep_accepts_everyone_as_valid() {
    let cfg = SweepConfig::clean(quick(), 3);
    let mut db = CrowdDatabase::new(5.0).unwrap();
    let report = populate_parallel(
        &mut db,
        "Pixel",
        fleet(10),
        &cfg,
        None,
        &CancelToken::new(),
        1,
    )
    .unwrap()
    .report;
    assert_eq!(report.completed(), 10);
    assert_eq!(report.failed(), 0);
    for o in &report.outcomes {
        assert_eq!(o.verdict, Some(Verdict::Valid), "{}", o.device);
        assert_eq!(o.fault_reports, 0);
    }
    assert_eq!(db.scores().len(), 10);
}

/// A session that hits only a handful of brief transient faults — fewer
/// than the retry budget per slot — still completes every iteration and
/// earns a Valid verdict.
#[test]
fn few_transient_faults_still_validate() {
    // Three short dropouts spread across the session: each hits at most
    // one cooldown poll, which just waits for the next poll.
    let mut plan = FaultPlan::empty();
    for &at in &[25.0, 180.0, 400.0] {
        plan = plan.with_event(FaultEvent {
            at,
            duration: 4.0,
            kind: FaultKind::ProbeDropout,
            magnitude: 0.0,
        });
    }
    let handle = FaultHandle::armed(plan);
    let mut device = FaultyDevice::new(
        catalog::nexus5(pv_silicon::binning::BinId(1)).unwrap(),
        handle.clone(),
    );
    let mut harness = Harness::new(quick(), Ambient::Fixed(Celsius(26.0)))
        .unwrap()
        .with_faults(handle.clone());
    let session = harness.run_session(&mut device, 3).unwrap();
    assert_eq!(session.iterations.len(), 3);
    assert!(session.quarantined.is_empty());
    assert_eq!(session.verdict, Verdict::Valid);
}

/// Custom retry policies are honoured: with a single attempt allowed, a
/// permanent fault quarantines every slot after exactly one try.
#[test]
fn retry_policy_attempt_budget_is_respected() {
    let plan = FaultPlan::empty().with_event(FaultEvent {
        at: 0.0,
        duration: 1e9,
        kind: FaultKind::HotplugFlap,
        magnitude: 0.0,
    });
    let handle = FaultHandle::armed(plan);
    let mut device = FaultyDevice::new(
        catalog::nexus5(pv_silicon::binning::BinId(0)).unwrap(),
        handle.clone(),
    );
    let mut harness = Harness::new(quick(), Ambient::Fixed(Celsius(26.0)))
        .unwrap()
        .with_faults(handle.clone())
        .with_retry_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
    let session = harness.run_session(&mut device, 3).unwrap();
    assert!(session.iterations.is_empty());
    assert_eq!(session.quarantined.len(), 3);
    for q in &session.quarantined {
        assert_eq!(q.attempts, 1);
    }
    assert_eq!(session.verdict, Verdict::Invalid);
}

/// Permissive quality gates are honoured: when only one iteration survives
/// a permanent late fault, `min_valid_iterations: 1` downgrades the
/// verdict to Degraded instead of Invalid.
#[test]
fn quality_gates_are_configurable() {
    // Measure one clean iteration so the permanent fault starts after it.
    let clock = FaultHandle::armed(FaultPlan::empty());
    let mut probe_dev = FaultyDevice::new(
        catalog::nexus5(pv_silicon::binning::BinId(0)).unwrap(),
        clock.clone(),
    );
    let mut probe_h = Harness::new(quick(), Ambient::Fixed(Celsius(26.0)))
        .unwrap()
        .with_faults(clock.clone());
    probe_h.run_iteration(&mut probe_dev).unwrap();
    let first_iteration_ends = clock.now();

    let plan = FaultPlan::empty().with_event(FaultEvent {
        at: first_iteration_ends + 1.0,
        duration: 1e9,
        kind: FaultKind::HotplugFlap,
        magnitude: 0.0,
    });
    let handle = FaultHandle::armed(plan);
    let mut device = FaultyDevice::new(
        catalog::nexus5(pv_silicon::binning::BinId(0)).unwrap(),
        handle.clone(),
    );
    let mut harness = Harness::new(quick(), Ambient::Fixed(Celsius(26.0)))
        .unwrap()
        .with_faults(handle.clone())
        .with_quality_gates(QualityGates {
            min_valid_iterations: 1,
            ..QualityGates::default()
        });
    let session = harness.run_session(&mut device, 3).unwrap();
    assert_eq!(session.iterations.len(), 1);
    assert_eq!(session.quarantined.len(), 2);
    // One surviving iteration clears the permissive gate, but the
    // quarantines still taint the verdict.
    assert_eq!(session.verdict, Verdict::Degraded);
}

/// The same fault plan driven through the same session twice produces an
/// identical report sequence — fault injection is fully deterministic.
#[test]
fn fault_report_sequence_replays_identically() {
    let run = || {
        let plan = FaultPlan::generate(0xFEED, 600.0, 90.0, &ALL_KINDS);
        let handle = FaultHandle::armed(plan);
        let mut device = FaultyDevice::new(
            catalog::nexus5(pv_silicon::binning::BinId(2)).unwrap(),
            handle.clone(),
        );
        let mut harness = Harness::new(quick(), Ambient::paper_chamber().unwrap())
            .unwrap()
            .with_faults(handle.clone());
        let session = harness.run_session(&mut device, 2).unwrap();
        (session, handle.reports())
    };
    let (s1, r1) = run();
    let (s2, r2) = run();
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
}
