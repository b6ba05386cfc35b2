//! Replays a recorded session through each lower layer's public function.
//!
//! The device step calls the thermal network, the probe, the throttle and
//! the power model from inside `Device::step_into`, where the benchmark
//! cannot time them. Instead it records one representative session of the
//! workload (every step's `dt` and report) and feeds those operating
//! points to a standalone instance of each layer built from the same
//! device spec, timing the calls in small batches so the clock's own cost
//! stays out of sub-100 ns calls.

use crate::measure::batched_ns;
use crate::trace::StepRecord;
use pv_silicon::DieSample;
use pv_soc::catalog;
use pv_soc::spec::DeviceSpec;
use pv_soc::throttle::ThrottleState;
use pv_thermal::network::{Integrator, ThermalNetwork, ThermalNetworkBuilder};
use pv_thermal::probe::Probe;
use pv_thermal::thermabox::{ThermaBox, ThermaBoxConfig};
use pv_thermal::ThermalError;
use pv_units::Watts;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed batch.
const BATCH: usize = 16;
/// Batches per layer: enough for a p99 with 10 samples beyond it.
const SAMPLES: usize = 2000;

/// The device's three-node RC network, exactly as `Device::new` builds it.
fn network(
    spec: &DeviceSpec,
    integrator: Integrator,
) -> Result<(ThermalNetwork, [pv_thermal::network::NodeId; 2]), ThermalError> {
    let t = &spec.thermal;
    let ambient = spec.initial_ambient;
    let mut b = ThermalNetworkBuilder::new();
    b.integrator(integrator);
    let die = b.add_node("die", t.die_capacitance, ambient)?;
    let package = b.add_node("package", t.package_capacitance, ambient)?;
    let case = b.add_node("case", t.case_capacitance, ambient)?;
    let air = b.add_boundary("ambient", ambient)?;
    b.connect(die, package, t.die_to_package)?;
    b.connect(package, case, t.package_to_case)?;
    b.connect(case, air, t.case_to_ambient)?;
    Ok((b.build()?, [die, package]))
}

/// Per-call nanoseconds of each replayed layer the workload calls, keyed by
/// metric stem: the thermal network only on the workload's `integrator`,
/// and the ThermaBox only when its sessions run in the `chamber`.
pub fn replay(
    spec: &DeviceSpec,
    die: &DieSample,
    steps: &[StepRecord],
    integrator: Integrator,
    chamber: bool,
) -> Result<BTreeMap<&'static str, Vec<f64>>, ThermalError> {
    let mut out = BTreeMap::new();
    if steps.is_empty() {
        return Ok(out);
    }
    let n = steps.len();
    let network_metric = match integrator {
        Integrator::Exponential => Some("thermal.network.step_ns.exp"),
        Integrator::Euler => Some("thermal.network.step_ns.euler"),
        Integrator::Rk4 => None,
    };
    if let Some(name) = network_metric {
        let (mut net, [die_node, package_node]) = network(spec, integrator)?;
        let mut failed = None;
        let ns = batched_ns(SAMPLES, BATCH, |k| {
            let s = &steps[k % n];
            let r = &s.report;
            let heat = [
                (die_node, r.soc_power),
                (package_node, r.supply_power - r.soc_power),
            ];
            if let Err(e) = net.step(s.dt, black_box(&heat)) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.insert(name, ns);
    }

    let t = &spec.thermal;
    let mut probe = Probe::new(t.sensor_tau, t.sensor_noise, t.sensor_quantum, 0x5EED)?;
    probe.reset(spec.initial_ambient);
    let mut ns = Vec::with_capacity(SAMPLES);
    for k in 0..SAMPLES {
        let s = &steps[k % n];
        probe.observe(s.report.die_temp, s.dt)?;
        let start = Instant::now();
        for _ in 0..BATCH {
            black_box(probe.read());
        }
        ns.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    out.insert("thermal.probe.read_ns", ns);

    if chamber {
        let mut thermabox = ThermaBox::new(ThermaBoxConfig::default())?;
        let mut failed = None;
        let ns = batched_ns(SAMPLES, BATCH, |k| {
            let s = &steps[k % n];
            if let Err(e) = thermabox.step(s.dt, black_box(s.report.supply_power)) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        out.insert("thermal.thermabox.step_ns", ns);
    }

    let mut throttle = ThrottleState::new();
    let ns = batched_ns(SAMPLES, BATCH, |k| {
        let r = &steps[k % n].report;
        let prev = &steps[(k + n - 1) % n].report;
        black_box(throttle.update(&spec.throttle, r.sensor_temp, prev.supply_voltage));
    });
    out.insert("soc.throttle.update_ns", ns);

    // Every cluster's operating point of every step: what a power-cache
    // miss computes.
    let clusters = &spec.soc.clusters;
    let points: Vec<(usize, &StepRecord, usize)> = steps
        .iter()
        .enumerate()
        .flat_map(|(k, s)| {
            (0..clusters.len().min(s.report.cluster_freqs.len())).map(move |c| (k, s, c))
        })
        .collect();
    let ns = batched_ns(SAMPLES, BATCH, |k| {
        let (i, s, c) = points[k % points.len()];
        let r = &s.report;
        let temp = steps[(i + n - 1) % n].report.die_temp;
        let powered = f64::from(r.active_cores[c]);
        let util = if r.work_cycles > 0.0 { 1.0 } else { 0.02 };
        let w: Watts = clusters[c].power.total_power(
            die,
            r.cluster_voltages[c],
            r.cluster_freqs[c],
            temp,
            powered * util,
            powered,
        );
        black_box(w);
    });
    out.insert("silicon.power.total_power_ns", ns);

    Ok(out)
}

/// Microseconds per `catalog::pixel` construction, one call per sample.
pub fn catalog_build_us(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let grade = 0.05 + 0.9 * (i % 97) as f64 / 96.0;
            let start = Instant::now();
            let device = catalog::pixel(grade, format!("pixel-build-{i:04}"));
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            black_box(device.ok());
            us
        })
        .collect()
}
