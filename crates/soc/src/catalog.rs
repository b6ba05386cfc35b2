//! Calibrated models of the paper's five handsets.
//!
//! | Chipset | Model | Process | CPU | Voltage scheme |
//! |---------|-------|---------|-----|----------------|
//! | SD-800 | Nexus 5 | 28 nm | 4× Krait 400 @ 2,265 MHz | static bin table (Table I) |
//! | SD-805 | Nexus 6 | 28 nm | 4× Krait 450 @ 2,649 MHz | static bin table |
//! | SD-810 | Nexus 6P | 20 nm | 4× A57 @ 1,958 + 4× A53 @ 1,555 | RBCPR |
//! | SD-820 | LG G5 | 14 nm FinFET | 2+2 Kryo @ 2,150 / 1,593 | RBCPR + input-voltage throttle |
//! | SD-821 | Google Pixel | 14 nm FinFET | 2+2 Kryo @ 2,150 / 1,593 | RBCPR |
//!
//! Ladder frequencies and trip temperatures come from the paper and public
//! kernel sources; power-law constants are calibrated so the ACCUBENCH
//! experiments land in the paper's reported variation bands (see DESIGN.md
//! §4 for the per-experiment tolerances).
//!
//! The [`fleet`] module provides the exact device populations of §IV: four
//! Nexus 5 bins (bin-4 failed during the paper's experiments and is likewise
//! omitted), three Nexus 6 units, three Nexus 6P units including the named
//! device-363/device-793, five LG G5 units, and three Pixels including
//! device-488/device-653.
//!
//! Each model's [`DeviceModel`] is built once per process, on first use,
//! and shared by every unit the constructors below build: a unit owns only
//! its die, label, binned tables and running state. The `*_spec` functions
//! still return a fresh, owned [`DeviceSpec`] for callers that modify one.

use crate::device::{Device, DeviceModel};
use crate::rbcpr::RbcprSpec;
use crate::spec::{ClusterSpec, DeviceSpec, SocSpec, ThermalSpec, VoltageScheme};
use crate::throttle::{CriticalRule, HotplugRule, InputVoltageRule, ThrottlePolicy, ThrottleStep};
use crate::SocError;
use pv_power::Monsoon;
use pv_silicon::binning::{self, BinId, VfPoint, VfTable};
use pv_silicon::power::PowerParams;
use pv_silicon::{DieSample, ProcessNode};
use pv_units::{
    Celsius, MegaHertz, MilliVolts, Seconds, TempDelta, ThermalCapacitance, ThermalResistance,
    Volts, Watts,
};
use std::sync::{Arc, OnceLock};

fn table(points: &[(f64, u32)]) -> Result<VfTable, SocError> {
    let pts = points
        .iter()
        .map(|&(f, mv)| VfPoint {
            freq: MegaHertz(f),
            voltage: MilliVolts(mv),
        })
        .collect();
    VfTable::new(pts).map_err(SocError::from)
}

/// The model in `cell`, built from `spec()` on first use. Two threads that
/// race the first use may both build one; the first stored wins, and every
/// caller gets that one.
fn shared_model(
    cell: &'static OnceLock<Arc<DeviceModel>>,
    spec: fn() -> Result<DeviceSpec, SocError>,
) -> Result<Arc<DeviceModel>, SocError> {
    if let Some(model) = cell.get() {
        return Ok(Arc::clone(model));
    }
    let model = DeviceModel::new(spec()?)?;
    Ok(Arc::clone(cell.get_or_init(|| model)))
}

/// One unit of `model` with a die at `grade`, powered by a Monsoon at
/// `supply_voltage`, its sensor noise seeded from its label.
fn unit(
    model: Arc<DeviceModel>,
    grade: f64,
    label: String,
    supply_voltage: Volts,
) -> Result<Device, SocError> {
    let die = DieSample::from_grade(model.spec().soc.node, grade)?;
    let supply = Box::new(Monsoon::new(supply_voltage)?);
    let seed = seed_from_label(&label);
    Device::from_model(model, die, supply, label, seed)
}

/// Deterministic seed derived from a device label, so two devices with
/// different labels get independent (but reproducible) sensor noise.
fn seed_from_label(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// Nexus 5 — Snapdragon 800
// ---------------------------------------------------------------------------

/// Device specification for the Nexus 5 (SD-800).
///
/// The slow/fast voltage ladders are the paper's Table I bin-0 and bin-6
/// rows; a unit's actual table is regenerated from its die grade by
/// [`pv_silicon::binning::voltage_bin_table`].
///
/// # Errors
///
/// Never fails in practice; the error branch exists because table
/// construction is fallible.
pub fn nexus5_spec() -> Result<DeviceSpec, SocError> {
    let vf_slow = binning::nexus5::reference_table(BinId(0))?;
    let vf_fast = binning::nexus5::reference_table(BinId(6))?;
    let power = PowerParams::new(
        0.42e-9,      // Ceff per Krait core
        Watts(0.130), // per-core leakage at 0.9 V / 26 °C, nominal die
        Volts(0.9),
        Celsius(26.0),
        2.0,
        0.029,
    )?;
    Ok(DeviceSpec {
        model: "Nexus 5",
        soc: SocSpec {
            name: "SD-800",
            node: ProcessNode::PLANAR_28NM,
            clusters: vec![ClusterSpec {
                name: "Krait-400",
                cores: 4,
                perf_weight: 1.0,
                power,
                vf_slow,
                vf_fast,
            }],
            uncore_power: Watts(0.15),
        },
        thermal: nexus_era_thermals(),
        throttle: ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(70.0),
                    clear: Celsius(66.0),
                    cap: MegaHertz(1574.0),
                },
                ThrottleStep {
                    trip: Celsius(75.0),
                    clear: Celsius(71.0),
                    cap: MegaHertz(960.0),
                },
                ThrottleStep {
                    trip: Celsius(78.0),
                    clear: Celsius(74.0),
                    cap: MegaHertz(729.0),
                },
                // Emergency cap: keeps even the leakiest bin-6 die out of
                // thermal runaway once hotplug alone cannot stem the
                // leakage avalanche.
                ThrottleStep {
                    trip: Celsius(81.0),
                    clear: Celsius(75.0),
                    cap: MegaHertz(300.0),
                },
            ],
            hotplug: Some(HotplugRule {
                trip: Celsius(80.0),
                clear: Celsius(75.0),
                min_cores: 3,
            }),
            input_voltage: None,
            critical: Some(CriticalRule {
                trip: Celsius(86.0),
                clear: Celsius(76.0),
            }),
        },
        voltage_scheme: VoltageScheme::StaticTable,
        nominal_battery_voltage: Volts(3.8),
        max_battery_voltage: Volts(4.35),
        regulator_efficiency: 0.88,
        idle_power: Watts(0.07),
        initial_ambient: Celsius(26.0),
    })
}

/// The Nexus 5 model, built from [`nexus5_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn nexus5_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, nexus5_spec)
}

fn nexus_era_thermals() -> ThermalSpec {
    ThermalSpec {
        die_capacitance: ThermalCapacitance(2.5),
        package_capacitance: ThermalCapacitance(8.0),
        case_capacitance: ThermalCapacitance(5.0),
        die_to_package: ThermalResistance(3.2),
        package_to_case: ThermalResistance(3.0),
        case_to_ambient: ThermalResistance(10.0),
        sensor_tau: Seconds(1.5),
        sensor_noise: TempDelta(0.15),
        sensor_quantum: TempDelta(1.0),
    }
}

/// A Nexus 5 unit from voltage bin `bin` (die at the bin's centre grade),
/// powered by a Monsoon at the nominal battery voltage — the paper's
/// standard setup.
///
/// # Errors
///
/// Returns [`SocError`] for bins outside 0..=6.
pub fn nexus5(bin: BinId) -> Result<Device, SocError> {
    let model = nexus5_model()?;
    let grade = binning::nexus5::bin_center_grade(bin)?;
    let voltage = model.spec().nominal_battery_voltage;
    unit(model, grade, format!("bin-{}", bin.index()), voltage)
}

// ---------------------------------------------------------------------------
// Nexus 6 — Snapdragon 805
// ---------------------------------------------------------------------------

/// Device specification for the Nexus 6 (SD-805).
///
/// Same 28 nm Krait generation as the SD-800 but clocked to 2,649 MHz at
/// higher voltage — which is why the paper's Fig 13 finds it *less*
/// efficient than its predecessor despite being faster.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn nexus6_spec() -> Result<DeviceSpec, SocError> {
    let vf_slow = table(&[
        (300.0, 810),
        (729.0, 845),
        (1032.0, 885),
        (1574.0, 975),
        (2265.0, 1110),
        (2649.0, 1180),
    ])?;
    let vf_fast = table(&[
        (300.0, 760),
        (729.0, 770),
        (1032.0, 810),
        (1574.0, 880),
        (2265.0, 960),
        (2649.0, 1030),
    ])?;
    let power = PowerParams::new(
        0.46e-9,     // Krait 450: wider datapaths, higher Ceff
        Watts(0.19), // hotter-running bin of the same 28nm process
        Volts(0.9),
        Celsius(26.0),
        2.0,
        0.022,
    )?;
    Ok(DeviceSpec {
        model: "Nexus 6",
        soc: SocSpec {
            name: "SD-805",
            node: ProcessNode::PLANAR_28NM,
            clusters: vec![ClusterSpec {
                name: "Krait-450",
                cores: 4,
                perf_weight: 1.0,
                power,
                vf_slow,
                vf_fast,
            }],
            uncore_power: Watts(0.25),
        },
        thermal: ThermalSpec {
            // Physically larger phablet: more thermal mass, better spreading.
            die_capacitance: ThermalCapacitance(3.0),
            package_capacitance: ThermalCapacitance(11.0),
            case_capacitance: ThermalCapacitance(7.0),
            die_to_package: ThermalResistance(3.0),
            package_to_case: ThermalResistance(2.8),
            case_to_ambient: ThermalResistance(8.0),
            sensor_tau: Seconds(1.5),
            sensor_noise: TempDelta(0.15),
            sensor_quantum: TempDelta(1.0),
        },
        throttle: ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(70.0),
                    clear: Celsius(66.0),
                    cap: MegaHertz(2265.0),
                },
                ThrottleStep {
                    trip: Celsius(75.0),
                    clear: Celsius(71.0),
                    cap: MegaHertz(1574.0),
                },
                ThrottleStep {
                    trip: Celsius(78.0),
                    clear: Celsius(74.0),
                    cap: MegaHertz(1032.0),
                },
            ],
            hotplug: Some(HotplugRule {
                trip: Celsius(80.0),
                clear: Celsius(75.0),
                min_cores: 3,
            }),
            input_voltage: None,
            critical: Some(CriticalRule {
                trip: Celsius(86.0),
                clear: Celsius(76.0),
            }),
        },
        voltage_scheme: VoltageScheme::StaticTable,
        nominal_battery_voltage: Volts(3.8),
        max_battery_voltage: Volts(4.35),
        regulator_efficiency: 0.88,
        idle_power: Watts(0.08),
        initial_ambient: Celsius(26.0),
    })
}

/// The Nexus 6 model, built from [`nexus6_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn nexus6_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, nexus6_spec)
}

/// A Nexus 6 unit with a die at `grade`, Monsoon-powered.
///
/// # Errors
///
/// Returns [`SocError`] for a grade outside (0, 1).
pub fn nexus6(grade: f64, label: impl Into<String>) -> Result<Device, SocError> {
    let model = nexus6_model()?;
    let voltage = model.spec().nominal_battery_voltage;
    unit(model, grade, label.into(), voltage)
}

// ---------------------------------------------------------------------------
// Nexus 6P — Snapdragon 810
// ---------------------------------------------------------------------------

/// Device specification for the Nexus 6P (SD-810).
///
/// The notorious 20 nm big.LITTLE part: four hot A57s over four frugal
/// A53s, with RBCPR runtime voltage trimming instead of static bin tables
/// (all the paper's units reported "speed-bin 0", §IV-A2).
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn nexus6p_spec() -> Result<DeviceSpec, SocError> {
    let a57 = table(&[
        (384.0, 800),
        (768.0, 850),
        (1248.0, 920),
        (1632.0, 1000),
        (1958.0, 1080),
    ])?;
    let a53 = table(&[
        (384.0, 750),
        (768.0, 800),
        (1152.0, 850),
        (1440.0, 900),
        (1555.0, 930),
    ])?;
    let a57_power = PowerParams::new(
        0.62e-9, // A57: power-hungry OoO core on leaky 20nm
        Watts(0.22),
        Volts(0.9),
        Celsius(26.0),
        2.0,
        0.024,
    )?;
    let a53_power = PowerParams::new(0.18e-9, Watts(0.06), Volts(0.9), Celsius(26.0), 2.0, 0.024)?;
    Ok(DeviceSpec {
        model: "Nexus 6P",
        soc: SocSpec {
            name: "SD-810",
            node: ProcessNode::PLANAR_20NM,
            clusters: vec![
                ClusterSpec {
                    name: "A57",
                    cores: 4,
                    perf_weight: 1.15,
                    power: a57_power,
                    vf_slow: a57.clone(),
                    vf_fast: a57,
                },
                ClusterSpec {
                    name: "A53",
                    cores: 4,
                    perf_weight: 0.55,
                    power: a53_power,
                    vf_slow: a53.clone(),
                    vf_fast: a53,
                },
            ],
            uncore_power: Watts(0.30),
        },
        thermal: ThermalSpec {
            die_capacitance: ThermalCapacitance(3.0),
            package_capacitance: ThermalCapacitance(9.5),
            case_capacitance: ThermalCapacitance(6.5),
            die_to_package: ThermalResistance(2.8),
            package_to_case: ThermalResistance(2.6),
            case_to_ambient: ThermalResistance(8.2),
            sensor_tau: Seconds(1.2),
            sensor_noise: TempDelta(0.12),
            sensor_quantum: TempDelta(1.0),
        },
        throttle: ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(68.0),
                    clear: Celsius(63.0),
                    cap: MegaHertz(1632.0),
                },
                ThrottleStep {
                    trip: Celsius(73.0),
                    clear: Celsius(68.0),
                    cap: MegaHertz(1248.0),
                },
                ThrottleStep {
                    trip: Celsius(77.0),
                    clear: Celsius(72.0),
                    cap: MegaHertz(768.0),
                },
                ThrottleStep {
                    trip: Celsius(80.0),
                    clear: Celsius(75.0),
                    cap: MegaHertz(384.0),
                },
            ],
            // The 810 famously parks A57 cores under thermal pressure.
            hotplug: Some(HotplugRule {
                trip: Celsius(79.0),
                clear: Celsius(72.0),
                min_cores: 2,
            }),
            input_voltage: None,
            critical: Some(CriticalRule {
                trip: Celsius(87.0),
                clear: Celsius(77.0),
            }),
        },
        voltage_scheme: VoltageScheme::Rbcpr(RbcprSpec::new(0.05, 0.0004, Celsius(26.0), 0.85)?),
        nominal_battery_voltage: Volts(3.84),
        max_battery_voltage: Volts(4.35),
        regulator_efficiency: 0.88,
        idle_power: Watts(0.09),
        initial_ambient: Celsius(26.0),
    })
}

/// The Nexus 6P model, built from [`nexus6p_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn nexus6p_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, nexus6p_spec)
}

/// A Nexus 6P unit with a die at `grade`, Monsoon-powered.
///
/// # Errors
///
/// Returns [`SocError`] for a grade outside (0, 1).
pub fn nexus6p(grade: f64, label: impl Into<String>) -> Result<Device, SocError> {
    let model = nexus6p_model()?;
    let voltage = model.spec().nominal_battery_voltage;
    unit(model, grade, label.into(), voltage)
}

// ---------------------------------------------------------------------------
// LG G5 — Snapdragon 820
// ---------------------------------------------------------------------------

/// Device specification for the LG G5 (SD-820).
///
/// First 14 nm FinFET part in the study: two performance Kryo cores at
/// 2,150 MHz over two efficiency Kryos at 1,593 MHz. Uniquely, the G5
/// throttles on *input voltage* (Fig 10): at or below ≈3.9 V at the power
/// input the OS caps the CPU near 80 % of maximum.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn lg_g5_spec() -> Result<DeviceSpec, SocError> {
    let kryo_perf = table(&[(307.0, 720), (998.0, 790), (1594.0, 870), (2150.0, 990)])?;
    let kryo_eff = table(&[(307.0, 700), (998.0, 770), (1324.0, 820), (1593.0, 865)])?;
    let perf_power = PowerParams::new(0.44e-9, Watts(0.16), Volts(0.9), Celsius(26.0), 2.0, 0.022)?;
    let eff_power = PowerParams::new(0.30e-9, Watts(0.10), Volts(0.9), Celsius(26.0), 2.0, 0.022)?;
    Ok(DeviceSpec {
        model: "LG G5",
        soc: SocSpec {
            name: "SD-820",
            node: ProcessNode::FINFET_14NM,
            clusters: vec![
                ClusterSpec {
                    name: "Kryo-perf",
                    cores: 2,
                    perf_weight: 1.45,
                    power: perf_power,
                    vf_slow: kryo_perf.clone(),
                    vf_fast: kryo_perf,
                },
                ClusterSpec {
                    name: "Kryo-eff",
                    cores: 2,
                    perf_weight: 1.35,
                    power: eff_power,
                    vf_slow: kryo_eff.clone(),
                    vf_fast: kryo_eff,
                },
            ],
            uncore_power: Watts(0.25),
        },
        thermal: ThermalSpec {
            die_capacitance: ThermalCapacitance(2.4),
            package_capacitance: ThermalCapacitance(6.5),
            case_capacitance: ThermalCapacitance(4.0),
            die_to_package: ThermalResistance(3.0),
            package_to_case: ThermalResistance(2.8),
            case_to_ambient: ThermalResistance(8.0),
            sensor_tau: Seconds(1.0),
            sensor_noise: TempDelta(0.1),
            sensor_quantum: TempDelta(0.1),
        },
        throttle: ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(72.0),
                    clear: Celsius(68.0),
                    cap: MegaHertz(1594.0),
                },
                ThrottleStep {
                    trip: Celsius(77.0),
                    clear: Celsius(72.0),
                    cap: MegaHertz(998.0),
                },
            ],
            hotplug: None,
            input_voltage: Some(InputVoltageRule {
                threshold: Volts(3.9),
                cap_fraction: 0.78,
            }),
            critical: Some(CriticalRule {
                trip: Celsius(85.0),
                clear: Celsius(75.0),
            }),
        },
        voltage_scheme: VoltageScheme::Rbcpr(RbcprSpec::new(0.03, 0.0003, Celsius(26.0), 0.85)?),
        nominal_battery_voltage: Volts(3.85),
        max_battery_voltage: Volts(4.4),
        regulator_efficiency: 0.90,
        idle_power: Watts(0.07),
        initial_ambient: Celsius(26.0),
    })
}

/// The LG G5 model, built from [`lg_g5_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn lg_g5_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, lg_g5_spec)
}

/// An LG G5 unit with a die at `grade`.
///
/// The Monsoon is programmed to the battery's **maximum** 4.4 V — the
/// configuration the paper settled on after discovering the input-voltage
/// throttle (the Fig 10 comparison swaps the supply with
/// [`Device::set_supply`]).
///
/// # Errors
///
/// Returns [`SocError`] for a grade outside (0, 1).
pub fn lg_g5(grade: f64, label: impl Into<String>) -> Result<Device, SocError> {
    let model = lg_g5_model()?;
    let voltage = model.spec().max_battery_voltage;
    unit(model, grade, label.into(), voltage)
}

// ---------------------------------------------------------------------------
// Google Pixel — Snapdragon 821
// ---------------------------------------------------------------------------

/// Device specification for the Google Pixel (SD-821).
///
/// Same 14 nm Kryo generation as the SD-820 with a refreshed bin and a more
/// finely stepped throttle policy — the policy whose interaction with
/// silicon quality produces the counter-intuitive Fig 11 result (the device
/// spending *more* time hot throttles *less*).
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn pixel_spec() -> Result<DeviceSpec, SocError> {
    let kryo_perf = table(&[
        (307.0, 715),
        (998.0, 785),
        (1594.0, 860),
        (1996.0, 940),
        (2150.0, 980),
    ])?;
    let kryo_eff = table(&[(307.0, 695), (998.0, 765), (1324.0, 815), (1593.0, 855)])?;
    let perf_power = PowerParams::new(0.47e-9, Watts(0.15), Volts(0.9), Celsius(26.0), 2.0, 0.022)?;
    let eff_power = PowerParams::new(0.31e-9, Watts(0.095), Volts(0.9), Celsius(26.0), 2.0, 0.022)?;
    Ok(DeviceSpec {
        model: "Google Pixel",
        soc: SocSpec {
            name: "SD-821",
            node: ProcessNode::FINFET_14NM,
            clusters: vec![
                ClusterSpec {
                    name: "Kryo-perf",
                    cores: 2,
                    perf_weight: 1.48,
                    power: perf_power,
                    vf_slow: kryo_perf.clone(),
                    vf_fast: kryo_perf,
                },
                ClusterSpec {
                    name: "Kryo-eff",
                    cores: 2,
                    perf_weight: 1.38,
                    power: eff_power,
                    vf_slow: kryo_eff.clone(),
                    vf_fast: kryo_eff,
                },
            ],
            uncore_power: Watts(0.24),
        },
        thermal: ThermalSpec {
            die_capacitance: ThermalCapacitance(2.4),
            package_capacitance: ThermalCapacitance(6.8),
            case_capacitance: ThermalCapacitance(4.0),
            die_to_package: ThermalResistance(3.0),
            package_to_case: ThermalResistance(2.8),
            case_to_ambient: ThermalResistance(9.0),
            sensor_tau: Seconds(1.0),
            sensor_noise: TempDelta(0.1),
            sensor_quantum: TempDelta(0.1),
        },
        throttle: ThrottlePolicy {
            // Finer steps, tighter hysteresis than the G5: the Pixel rides
            // closer to its trip temperature.
            steps: vec![
                ThrottleStep {
                    trip: Celsius(70.0),
                    clear: Celsius(67.0),
                    cap: MegaHertz(1996.0),
                },
                ThrottleStep {
                    trip: Celsius(74.0),
                    clear: Celsius(71.0),
                    cap: MegaHertz(1594.0),
                },
                ThrottleStep {
                    trip: Celsius(78.0),
                    clear: Celsius(74.0),
                    cap: MegaHertz(998.0),
                },
            ],
            hotplug: None,
            input_voltage: None,
            critical: Some(CriticalRule {
                trip: Celsius(85.0),
                clear: Celsius(75.0),
            }),
        },
        voltage_scheme: VoltageScheme::Rbcpr(RbcprSpec::new(0.03, 0.0003, Celsius(26.0), 0.85)?),
        nominal_battery_voltage: Volts(3.85),
        max_battery_voltage: Volts(4.4),
        regulator_efficiency: 0.90,
        idle_power: Watts(0.06),
        initial_ambient: Celsius(26.0),
    })
}

/// The Google Pixel model, built from [`pixel_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn pixel_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, pixel_spec)
}

/// A Google Pixel unit with a die at `grade`, Monsoon-powered.
///
/// # Errors
///
/// Returns [`SocError`] for a grade outside (0, 1).
pub fn pixel(grade: f64, label: impl Into<String>) -> Result<Device, SocError> {
    let model = pixel_model()?;
    let voltage = model.spec().nominal_battery_voltage;
    unit(model, grade, label.into(), voltage)
}

// ---------------------------------------------------------------------------
// Study fleets — the paper's exact device populations
// ---------------------------------------------------------------------------

/// The device populations of the paper's §IV study.
pub mod fleet {
    use super::*;

    /// The four working Nexus 5 chips: bins 0–3 (the paper's bin-4 unit
    /// died mid-study and is excluded, §IV-A1).
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn nexus5_study() -> Result<Vec<Device>, SocError> {
        [0u8, 1, 2, 3]
            .into_iter()
            .map(|b| nexus5(BinId(b)))
            .collect()
    }

    /// All seven Nexus 5 bins for the Fig 1 background experiment.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn nexus5_all_bins() -> Result<Vec<Device>, SocError> {
        (0u8..7).map(|b| nexus5(BinId(b))).collect()
    }

    /// Three Nexus 6 units. The paper found only 2 % spread across its
    /// three units — silicon drawn from the middle of the distribution.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn nexus6_study() -> Result<Vec<Device>, SocError> {
        [
            ("device-214", 0.47),
            ("device-385", 0.50),
            ("device-771", 0.53),
        ]
        .into_iter()
        .map(|(label, g)| nexus6(g, label))
        .collect()
    }

    /// Three Nexus 6P units, including the paper's named device-363 (worst:
    /// 10 % slower, 12 % more energy) and device-793 (best).
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn nexus6p_study() -> Result<Vec<Device>, SocError> {
        [
            ("device-793", 0.39),
            ("device-541", 0.52),
            ("device-363", 0.65),
        ]
        .into_iter()
        .map(|(label, g)| nexus6p(g, label))
        .collect()
    }

    /// Five LG G5 units (Monsoon at 4.4 V, the post-Fig-10 configuration).
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn lg_g5_study() -> Result<Vec<Device>, SocError> {
        [
            ("device-112", 0.24),
            ("device-278", 0.37),
            ("device-430", 0.50),
            ("device-556", 0.63),
            ("device-689", 0.76),
        ]
        .into_iter()
        .map(|(label, g)| lg_g5(g, label))
        .collect()
    }

    /// Three Google Pixel units, including the paper's named device-488
    /// (best; 7 % faster than device-653 in the Fig 11 iterations).
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn pixel_study() -> Result<Vec<Device>, SocError> {
        [
            ("device-488", 0.24),
            ("device-570", 0.50),
            ("device-653", 0.76),
        ]
        .into_iter()
        .map(|(label, g)| pixel(g, label))
        .collect()
    }

    /// Three Google Pixel 2 (SD-835) units for the forecast experiment —
    /// one process generation past the paper's study.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none in practice).
    pub fn pixel2_forecast() -> Result<Vec<Device>, SocError> {
        [
            ("device-2a", 0.25),
            ("device-2b", 0.50),
            ("device-2c", 0.75),
        ]
        .into_iter()
        .map(|(label, g)| pixel2(g, label))
        .collect()
    }
}

// ---------------------------------------------------------------------------
// Google Pixel 2 — Snapdragon 835 (forecast device, one generation past the
// paper's study)
// ---------------------------------------------------------------------------

/// Device specification for the Google Pixel 2 (SD-835, 10 nm FinFET).
///
/// Not part of the paper's study: the forecast experiment uses it to
/// extrapolate the Fig 13 efficiency trend one process generation forward
/// (4+4 Kryo 280 at 2,362 / 1,900 MHz, RBCPR).
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn pixel2_spec() -> Result<DeviceSpec, SocError> {
    let kryo_perf = table(&[
        (300.0, 690),
        (1056.0, 750),
        (1766.0, 830),
        (2112.0, 890),
        (2362.0, 940),
    ])?;
    let kryo_eff = table(&[(300.0, 670), (1056.0, 730), (1555.0, 790), (1900.0, 845)])?;
    let perf_power = PowerParams::new(0.34e-9, Watts(0.10), Volts(0.9), Celsius(26.0), 2.0, 0.021)?;
    let eff_power = PowerParams::new(0.16e-9, Watts(0.05), Volts(0.9), Celsius(26.0), 2.0, 0.021)?;
    Ok(DeviceSpec {
        model: "Google Pixel 2",
        soc: SocSpec {
            name: "SD-835",
            node: ProcessNode::FINFET_10NM,
            clusters: vec![
                ClusterSpec {
                    name: "Kryo280-perf",
                    cores: 4,
                    perf_weight: 1.55,
                    power: perf_power,
                    vf_slow: kryo_perf.clone(),
                    vf_fast: kryo_perf,
                },
                ClusterSpec {
                    name: "Kryo280-eff",
                    cores: 4,
                    perf_weight: 1.05,
                    power: eff_power,
                    vf_slow: kryo_eff.clone(),
                    vf_fast: kryo_eff,
                },
            ],
            uncore_power: Watts(0.22),
        },
        thermal: ThermalSpec {
            die_capacitance: ThermalCapacitance(2.6),
            package_capacitance: ThermalCapacitance(7.5),
            case_capacitance: ThermalCapacitance(4.5),
            die_to_package: ThermalResistance(2.8),
            package_to_case: ThermalResistance(2.6),
            case_to_ambient: ThermalResistance(8.5),
            sensor_tau: Seconds(0.8),
            sensor_noise: TempDelta(0.08),
            sensor_quantum: TempDelta(0.1),
        },
        throttle: ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(72.0),
                    clear: Celsius(69.0),
                    cap: MegaHertz(2112.0),
                },
                ThrottleStep {
                    trip: Celsius(76.0),
                    clear: Celsius(72.0),
                    cap: MegaHertz(1766.0),
                },
                ThrottleStep {
                    trip: Celsius(80.0),
                    clear: Celsius(75.0),
                    cap: MegaHertz(1056.0),
                },
            ],
            hotplug: None,
            input_voltage: None,
            critical: Some(CriticalRule {
                trip: Celsius(86.0),
                clear: Celsius(76.0),
            }),
        },
        voltage_scheme: VoltageScheme::Rbcpr(RbcprSpec::new(0.03, 0.0003, Celsius(26.0), 0.85)?),
        nominal_battery_voltage: Volts(3.85),
        max_battery_voltage: Volts(4.4),
        regulator_efficiency: 0.91,
        idle_power: Watts(0.05),
        initial_ambient: Celsius(26.0),
    })
}

/// The Google Pixel 2 model, built from [`pixel2_spec`] once per process and shared
/// by every unit of it.
///
/// # Errors
///
/// Never fails in practice (fallible table construction).
pub fn pixel2_model() -> Result<Arc<DeviceModel>, SocError> {
    static MODEL: OnceLock<Arc<DeviceModel>> = OnceLock::new();
    shared_model(&MODEL, pixel2_spec)
}

/// A Google Pixel 2 unit with a die at `grade`, Monsoon-powered.
///
/// # Errors
///
/// Returns [`SocError`] for a grade outside (0, 1).
pub fn pixel2(grade: f64, label: impl Into<String>) -> Result<Device, SocError> {
    let model = pixel2_model()?;
    let voltage = model.spec().nominal_battery_voltage;
    unit(model, grade, label.into(), voltage)
}

/// Parses a device descriptor of the form `model:selector` into a ready
/// [`Device`]:
///
/// * `nexus5:<bin>` — a Nexus 5 from voltage bin 0–6 (`nexus5:2`);
/// * `nexus6:<grade>`, `nexus6p:<grade>`, `lgg5:<grade>`, `pixel:<grade>`,
///   `pixel2:<grade>` — a unit with a die at the given grade in (0, 1)
///   (`pixel:0.5`).
///
/// # Errors
///
/// Returns [`SocError::InvalidSpec`] for an unknown model or malformed
/// selector, and propagates construction errors for out-of-range values.
///
/// # Examples
///
/// ```
/// let device = pv_soc::catalog::parse_device("nexus5:2")?;
/// assert_eq!(device.spec().model, "Nexus 5");
/// let device = pv_soc::catalog::parse_device("pixel:0.5")?;
/// assert_eq!(device.spec().soc.name, "SD-821");
/// # Ok::<(), pv_soc::SocError>(())
/// ```
pub fn parse_device(descriptor: &str) -> Result<Device, SocError> {
    let (model, selector) = descriptor
        .split_once(':')
        .ok_or(SocError::InvalidSpec("expected model:selector"))?;
    let label = descriptor.replace(':', "-");
    match model.to_ascii_lowercase().as_str() {
        "nexus5" => {
            let bin: u8 = selector
                .parse()
                .map_err(|_| SocError::InvalidSpec("nexus5 selector must be a bin 0-6"))?;
            nexus5(BinId(bin))
        }
        other => {
            let grade: f64 = selector
                .parse()
                .map_err(|_| SocError::InvalidSpec("selector must be a grade in (0,1)"))?;
            match other {
                "nexus6" => nexus6(grade, label),
                "nexus6p" => nexus6p(grade, label),
                "lgg5" | "lg-g5" | "g5" => lg_g5(grade, label),
                "pixel" => pixel(grade, label),
                "pixel2" => pixel2(grade, label),
                _ => Err(SocError::InvalidSpec("unknown model")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_constructors_build() {
        nexus5(BinId(0)).unwrap();
        nexus5(BinId(6)).unwrap();
        nexus6(0.5, "n6").unwrap();
        nexus6p(0.5, "n6p").unwrap();
        lg_g5(0.5, "g5").unwrap();
        pixel(0.5, "px").unwrap();
    }

    #[test]
    fn fleets_have_paper_sizes() {
        assert_eq!(fleet::nexus5_study().unwrap().len(), 4);
        assert_eq!(fleet::nexus5_all_bins().unwrap().len(), 7);
        assert_eq!(fleet::nexus6_study().unwrap().len(), 3);
        assert_eq!(fleet::nexus6p_study().unwrap().len(), 3);
        assert_eq!(fleet::lg_g5_study().unwrap().len(), 5);
        assert_eq!(fleet::pixel_study().unwrap().len(), 3);
    }

    #[test]
    fn named_personas_exist() {
        let n6p = fleet::nexus6p_study().unwrap();
        assert!(n6p.iter().any(|d| d.label() == "device-363"));
        assert!(n6p.iter().any(|d| d.label() == "device-793"));
        let px = fleet::pixel_study().unwrap();
        assert!(px.iter().any(|d| d.label() == "device-488"));
        assert!(px.iter().any(|d| d.label() == "device-653"));
    }

    #[test]
    fn nexus5_table_tracks_bin() {
        // A bin-0 unit's generated table must sit at/near the Table I bin-0
        // ladder; a bin-6 unit near the bin-6 ladder.
        let d0 = nexus5(BinId(0)).unwrap();
        let d6 = nexus5(BinId(6)).unwrap();
        let f = MegaHertz(2265.0);
        let v0 = d0.tables()[0].voltage_at(f).value();
        let v6 = d6.tables()[0].voltage_at(f).value();
        assert!(v0 > v6, "bin-0 must run at higher voltage than bin-6");
        assert!((v0 - 1.090).abs() < 0.015, "bin-0 top voltage {v0}");
        assert!((v6 - 0.960).abs() < 0.015, "bin-6 top voltage {v6}");
    }

    #[test]
    fn seeds_differ_by_label() {
        assert_ne!(seed_from_label("device-363"), seed_from_label("device-793"));
        assert_eq!(seed_from_label("x"), seed_from_label("x"));
    }

    #[test]
    fn parse_device_handles_all_models() {
        assert_eq!(parse_device("nexus5:0").unwrap().spec().model, "Nexus 5");
        assert_eq!(
            parse_device("nexus6:0.5").unwrap().spec().soc.name,
            "SD-805"
        );
        assert_eq!(
            parse_device("nexus6p:0.5").unwrap().spec().soc.name,
            "SD-810"
        );
        assert_eq!(parse_device("lgg5:0.5").unwrap().spec().soc.name, "SD-820");
        assert_eq!(parse_device("g5:0.5").unwrap().spec().soc.name, "SD-820");
        assert_eq!(parse_device("PIXEL:0.5").unwrap().spec().soc.name, "SD-821");
        assert_eq!(
            parse_device("pixel2:0.5").unwrap().spec().soc.name,
            "SD-835"
        );
        assert!(parse_device("nexus5").is_err());
        assert!(parse_device("nexus5:nine").is_err());
        assert!(parse_device("nexus5:9").is_err());
        assert!(parse_device("iphone:0.5").is_err());
        assert!(parse_device("pixel:1.5").is_err());
    }

    #[test]
    fn g5_default_supply_is_max_voltage() {
        let d = lg_g5(0.5, "g5").unwrap();
        assert_eq!(d.supply().terminal_voltage(Watts(1.0)), Volts(4.4));
    }
}
