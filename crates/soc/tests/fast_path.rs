//! Bit-identity tests for the device-level fast path: the
//! quantised-temperature power table must be a pure lookup — a hit has to
//! reproduce, bit for bit, what an exact recompute at the quantised
//! temperature would produce.
//!
//! The trick: [`pv_soc::device::Device::set_integrator`] clears the table
//! on every call. Stepping a twin device that re-selects the
//! integrator before *every* step forces a miss (and therefore an
//! exact recompute) at each step, while the device under test runs with
//! a warm table. Identical telemetry across the whole trajectory proves
//! hits and recomputes are interchangeable.

use pv_soc::catalog;
use pv_soc::device::{CpuDemand, Device, FrequencyMode, StepReport};
use pv_soc::spec::VoltageScheme;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, MegaHertz, Seconds};

/// A trajectory that exercises the interesting operating points: cold
/// busy ramp (temperature bins sweep upward, throttle steps engage),
/// idle recovery, and fixed-frequency pinning (distinct OPP targets).
fn trajectory() -> Vec<(Seconds, CpuDemand, FrequencyMode)> {
    let mut t = Vec::new();
    for _ in 0..1500 {
        t.push((
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        ));
    }
    for _ in 0..300 {
        t.push((Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained));
    }
    for &f in &[600.0, 1200.0, 900.0] {
        for _ in 0..200 {
            t.push((
                Seconds(0.1),
                CpuDemand::Busy { util: 0.7 },
                FrequencyMode::Fixed(MegaHertz(f)),
            ));
        }
    }
    t
}

fn assert_reports_bit_identical(a: &StepReport, b: &StepReport, step: usize) {
    // PartialEq on f64 cannot distinguish -0.0 from 0.0 and treats NaN as
    // unequal; compare the payloads that matter through their bit patterns.
    assert_eq!(
        a.cluster_freqs, b.cluster_freqs,
        "frequencies diverged at step {step}"
    );
    for (i, (va, vb)) in a
        .cluster_voltages
        .iter()
        .zip(b.cluster_voltages.iter())
        .enumerate()
    {
        assert_eq!(
            va.value().to_bits(),
            vb.value().to_bits(),
            "cluster {i} voltage diverged at step {step}: {va:?} vs {vb:?}"
        );
    }
    assert_eq!(
        a.soc_power.value().to_bits(),
        b.soc_power.value().to_bits(),
        "soc power diverged at step {step}"
    );
    assert_eq!(
        a.die_temp.value().to_bits(),
        b.die_temp.value().to_bits(),
        "die temperature diverged at step {step}"
    );
    assert_eq!(
        a.active_cores, b.active_cores,
        "cores diverged at step {step}"
    );
    assert_eq!(a.throttled, b.throttled, "throttle diverged at step {step}");
}

/// Steps `warm` and its forced-miss twin `cold` through `trajectory`,
/// re-pinning `warm` before each step listed in `repins`, and asserts
/// every pair of reports is bit-identical.
fn assert_twins_agree(
    mut warm: Device,
    mut cold: Device,
    trajectory: &[(Seconds, CpuDemand, FrequencyMode)],
    repins: &[usize],
) {
    warm.set_integrator(Integrator::Exponential);
    let mut ra = StepReport::empty();
    let mut rb = StepReport::empty();
    for (step, &(dt, demand, mode)) in trajectory.iter().enumerate() {
        if repins.contains(&step) {
            warm.set_integrator(Integrator::Exponential);
        }
        // Re-selecting the integrator clears the power table, so every one
        // of `cold`'s steps recomputes from scratch.
        cold.set_integrator(Integrator::Exponential);
        warm.step_into(dt, demand, mode, &mut ra).unwrap();
        cold.step_into(dt, demand, mode, &mut rb).unwrap();
        assert_reports_bit_identical(&ra, &rb, step);
    }
}

/// Warm-table stepping vs forced-miss stepping on the RBCPR Pixel: every
/// report must match bit for bit. Hits are bit-identical to
/// recomputation, covering the frequencies and the power table
/// (voltages/power), including RBCPR trim invalidation as the die heats
/// through temperature bins.
#[test]
fn fast_path_cache_hits_bit_identical_to_forced_recompute() {
    let warm = catalog::pixel(0.4, "fast-path-twin").unwrap();
    let cold = catalog::pixel(0.4, "fast-path-twin").unwrap();
    assert!(matches!(
        warm.spec().voltage_scheme,
        VoltageScheme::Rbcpr(_)
    ));
    assert_twins_agree(warm, cold, &trajectory(), &[]);
}

/// Same twin construction for a static-table device (Nexus 5 bins): the
/// power table must also be exact when no runtime trim is in play.
#[test]
fn fast_path_bit_identical_on_static_table_device() {
    use pv_silicon::binning::BinId;
    let warm = catalog::nexus5(BinId(1)).unwrap();
    let cold = catalog::nexus5(BinId(1)).unwrap();
    assert!(matches!(
        warm.spec().voltage_scheme,
        VoltageScheme::StaticTable
    ));
    assert_twins_agree(warm, cold, &trajectory(), &[]);
}

/// Slots per cluster in the device's direct-mapped power table.
const TABLE_SLOTS: usize = 512;

/// A busy ramp that steps through ten (frequency, load) points in turn,
/// so each temperature bin is visited at several operating points and
/// revisited at the same ones.
fn conflict_trajectory() -> Vec<(Seconds, CpuDemand, FrequencyMode)> {
    let modes = [
        FrequencyMode::Fixed(MegaHertz(307.0)),
        FrequencyMode::Fixed(MegaHertz(998.0)),
        FrequencyMode::Fixed(MegaHertz(1594.0)),
        FrequencyMode::Fixed(MegaHertz(1996.0)),
        FrequencyMode::Unconstrained,
    ];
    (0..4_000)
        .map(|step| {
            let util = if step % 2 == 0 { 1.0 } else { 0.5 };
            let mode = modes[(step / 2) % modes.len()];
            (Seconds(0.1), CpuDemand::Busy { util }, mode)
        })
        .collect()
}

/// More distinct keys between two re-pins than the table has slots, so
/// keys overwrite each other's slots and are looked up again after
/// eviction; a re-pin mid-run empties the table. The warm device must
/// still agree bit for bit with its forced-miss twin.
#[test]
fn evicted_slots_stay_bit_identical_to_forced_recompute() {
    const REPIN: usize = 2_000;
    let trajectory = conflict_trajectory();

    // Count the distinct performance-cluster keys (frequency, temperature
    // bin, powered cores, utilisation) before the re-pin.
    let mut probe = catalog::pixel(0.3, "fast-path-conflicts").unwrap();
    probe.set_integrator(Integrator::Exponential);
    let mut report = StepReport::empty();
    let mut keys = std::collections::BTreeSet::new();
    for &(dt, demand, mode) in &trajectory[..REPIN] {
        let bin = (probe.die_temp().value() / 0.1).round() as i64;
        probe.step_into(dt, demand, mode, &mut report).unwrap();
        keys.insert((
            report.cluster_freqs[0].value().to_bits(),
            bin,
            report.active_cores[0],
            demand.util().to_bits(),
        ));
    }
    assert!(
        keys.len() > TABLE_SLOTS,
        "only {} distinct key(s) before the re-pin: nothing is evicted",
        keys.len()
    );

    let warm = catalog::pixel(0.3, "fast-path-conflicts").unwrap();
    let cold = catalog::pixel(0.3, "fast-path-conflicts").unwrap();
    assert_twins_agree(warm, cold, &trajectory, &[REPIN]);
}

/// The power-table key's temperature bin must invalidate RBCPR trims as
/// the die moves: on a cold busy ramp the rail voltage at an unchanged
/// frequency has to track the (quantised) die temperature, matching
/// `RbcprSpec::trim` recomputed independently at every step.
#[test]
fn rbcpr_trim_tracks_temperature_bins_through_the_cache() {
    let mut d: Device = catalog::pixel(0.6, "rbcpr-bins").unwrap();
    d.set_integrator(Integrator::Exponential);
    let VoltageScheme::Rbcpr(rb) = d.spec().voltage_scheme else {
        panic!("pixel is expected to use RBCPR");
    };

    let mut start_temp = d.die_temp();
    let mut report = StepReport::empty();
    let mut distinct_voltages = std::collections::BTreeSet::new();
    let mut distinct_bins = std::collections::BTreeSet::new();
    for _ in 0..1200 {
        d.step_into(
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
            &mut report,
        )
        .unwrap();
        // The power model saw the *step-start* die temperature snapped to
        // the 0.1 °C table grid.
        let bin = (start_temp.value() / 0.1).round();
        let quantised = Celsius(bin * 0.1);
        for (ci, (&freq, &v)) in report
            .cluster_freqs
            .iter()
            .zip(report.cluster_voltages.iter())
            .enumerate()
        {
            let nominal = d.tables()[ci].voltage_at(freq);
            let expected = rb.trim(nominal, d.die(), quantised);
            assert_eq!(
                v.value().to_bits(),
                expected.value().to_bits(),
                "cluster {ci}: cached voltage is not the trim at the quantised \
                 step-start temperature (bin {bin})"
            );
        }
        distinct_bins.insert(bin as i64);
        distinct_voltages.insert(report.cluster_voltages[0].value().to_bits());
        start_temp = report.die_temp;
    }
    // The ramp must actually have crossed bins and produced re-trimmed
    // voltages — otherwise this test proves nothing about invalidation.
    assert!(
        distinct_bins.len() > 10,
        "ramp crossed only {} temperature bin(s)",
        distinct_bins.len()
    );
    assert!(
        distinct_voltages.len() > 5,
        "voltage never re-trimmed across bins ({} distinct value(s))",
        distinct_voltages.len()
    );
}
