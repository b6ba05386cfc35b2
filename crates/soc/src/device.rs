//! The time-stepped device simulator.
//!
//! A [`Device`] is one physical unit: a [`DeviceModel`] (everything its
//! model line shares, built once and held by `Arc`) plus one [`DieSample`]
//! (this unit's silicon) plus a power supply and the unit's running state.
//! Each [`Device::step`] advances the closed loop the paper describes:
//!
//! 1. the kernel reads the (lagged, quantised) thermal sensor;
//! 2. the throttle policy picks frequency caps / core counts;
//! 3. the governor selects each cluster's operating point;
//! 4. the voltage scheme (static bin table or RBCPR) sets the rail voltage;
//! 5. the silicon model turns V/f/T into watts — with the *leakage–
//!    temperature feedback* that separates good dies from bad;
//! 6. the RC network integrates temperatures; the supply is drained;
//! 7. retired, perf-weighted cycles are credited toward π iterations.

use crate::spec::{DeviceSpec, VoltageScheme};
use crate::throttle::ThrottleState;
use crate::trace::TraceSample;
use crate::SocError;
use core::fmt;
use pv_power::PowerSupply;
use pv_silicon::binning::{voltage_bin_table, VfTable};
use pv_silicon::DieSample;
use pv_thermal::network::{Integrator, NodeId, ThermalNetwork, ThermalNetworkBuilder};
use pv_thermal::probe::Probe;
use pv_units::{Celsius, MegaHertz, Seconds, Volts, Watts};
use std::sync::Arc;

/// Fast-path power-table temperature resolution in kelvin. Die temperature
/// is snapped to this grid before the voltage trim and power model run, so
/// an unchanged operating point turns into a table hit. 0.1 K bounds the
/// leakage error at roughly 0.25 % (β ≈ 0.025/K), well inside the
/// documented fast-path tolerance budget (DESIGN.md §11).
const POWER_TABLE_TEMP_QUANTUM: f64 = 0.1;

/// Slots per cluster in the fast-path power table, a power of two. The
/// table is direct-mapped: a (frequency, temperature-bin, load) point
/// lives in the one slot its key hashes to, so a lookup makes at most one
/// key compare and a miss overwrites that slot. 512 slots hold the
/// hundreds of temperature bins of a cold busy ramp; at 56 bytes a slot a
/// two-cluster device carries 56 KiB, allocated only once its fast path is
/// enabled and emptied in O(1) by an epoch bump whenever
/// [`Device::set_integrator`] changes the scheme. Counted on the benchmark
/// workloads (seed 1), a lookup averages 0.24–0.91 key compares and a
/// device evaluates the power model 204 (`durable`), 2257 (`crowd`) and
/// 1511 (`census`) times (DESIGN.md §11).
const POWER_TABLE_SLOTS: usize = 512;

/// What the CPU cores are asked to do this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuDemand {
    /// Deep idle: cores power-collapsed except one housekeeping core, screen
    /// off — the ACCUBENCH cooldown state.
    Idle,
    /// All cores loaded at the given per-core utilisation.
    Busy {
        /// Per-core duty cycle in `(0, 1]`.
        util: f64,
    },
}

impl CpuDemand {
    /// Fully busy on every core — the paper's π workload.
    pub fn busy() -> Self {
        CpuDemand::Busy { util: 1.0 }
    }

    /// Per-core utilisation this demand represents.
    pub fn util(&self) -> f64 {
        match self {
            CpuDemand::Idle => 0.0,
            CpuDemand::Busy { util } => *util,
        }
    }
}

/// How the governor chooses frequencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrequencyMode {
    /// Run at the highest available frequency (subject to throttling) — the
    /// paper's UNCONSTRAINED workload.
    Unconstrained,
    /// Pin all clusters at (the nearest ladder step at or below) the given
    /// frequency — the paper's FIXED-FREQUENCY workload.
    Fixed(MegaHertz),
}

/// Telemetry returned by one [`Device::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Step length.
    pub dt: Seconds,
    /// True die temperature at the end of the step.
    pub die_temp: Celsius,
    /// Sensor reading the throttler acted on this step.
    pub sensor_temp: Celsius,
    /// Case (skin) temperature — what the user's hand feels.
    pub case_temp: Celsius,
    /// Frequency each cluster ran at.
    pub cluster_freqs: Vec<MegaHertz>,
    /// Rail voltage each cluster ran at.
    pub cluster_voltages: Vec<Volts>,
    /// Cores online per cluster.
    pub active_cores: Vec<u32>,
    /// SoC rail power (cores + uncore + platform baseline).
    pub soc_power: Watts,
    /// Power drawn from the supply (rail power over regulator efficiency).
    pub supply_power: Watts,
    /// Supply terminal voltage under this step's load.
    pub supply_voltage: Volts,
    /// Perf-weighted cycles retired this step.
    pub work_cycles: f64,
    /// Whether any throttle mechanism was engaged.
    pub throttled: bool,
}

impl StepReport {
    /// An all-zero report whose `Vec`s can be filled in place by
    /// [`Device::step_into`] — the harness keeps one as reusable scratch so
    /// the session loop never reallocates telemetry.
    pub fn empty() -> Self {
        Self {
            dt: Seconds::ZERO,
            die_temp: Celsius(0.0),
            sensor_temp: Celsius(0.0),
            case_temp: Celsius(0.0),
            cluster_freqs: Vec::new(),
            cluster_voltages: Vec::new(),
            active_cores: Vec::new(),
            soc_power: Watts::ZERO,
            supply_power: Watts::ZERO,
            supply_voltage: Volts(0.0),
            work_cycles: 0.0,
            throttled: false,
        }
    }

    /// Converts to a [`TraceSample`] stamped at time `t`.
    pub fn to_sample(&self, t: Seconds) -> TraceSample {
        TraceSample {
            t,
            dt: self.dt,
            die_temp: self.die_temp,
            sensor_temp: self.sensor_temp,
            case_temp: self.case_temp,
            cluster_freqs: self.cluster_freqs.clone(),
            active_cores: self.active_cores.clone(),
            supply_power: self.supply_power,
            supply_voltage: self.supply_voltage,
            throttled: self.throttled,
        }
    }
}

/// The immutable half of a phone model, shared by every unit of it: the
/// validated [`DeviceSpec`], the nominal voltage ladders an RBCPR part
/// runs, and the chassis thermal network (topology and node names) at the
/// model's initial ambient.
///
/// A model is built once and held by `Arc`; each [`Device`] built from it
/// owns only its per-unit state. The [`catalog`](crate::catalog) builds
/// each of its models once per process, so a fleet of `n` catalog units
/// holds one spec, not `n`. [`Device::new`] builds a fresh model from its
/// spec, so a unit of a modified spec shares nothing with the catalog's.
#[derive(Debug)]
pub struct DeviceModel {
    spec: DeviceSpec,
    /// The per-cluster ladders every unit of an RBCPR part runs (its trim
    /// is applied at runtime); empty for a statically binned part, whose
    /// units each bin their own from the die.
    ladders: Vec<VfTable>,
    /// The chassis network at the spec's initial ambient; a unit clones it,
    /// sharing its topology and copying only its temperatures.
    network: ThermalNetwork,
    die_node: NodeId,
    package_node: NodeId,
    case_node: NodeId,
    ambient_node: NodeId,
}

impl DeviceModel {
    /// Validates `spec` and builds what its units share.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] if the spec fails validation, or a
    /// wrapped substrate error from network construction.
    pub fn new(spec: DeviceSpec) -> Result<Arc<Self>, SocError> {
        spec.validate()?;
        let ladders = match spec.voltage_scheme {
            VoltageScheme::StaticTable => Vec::new(),
            VoltageScheme::Rbcpr(_) => spec
                .soc
                .clusters
                .iter()
                .map(|c| c.vf_slow.clone())
                .collect(),
        };

        let ambient = spec.initial_ambient;
        let mut builder = ThermalNetworkBuilder::new();
        let die_node = builder.add_node("die", spec.thermal.die_capacitance, ambient)?;
        let package_node =
            builder.add_node("package", spec.thermal.package_capacitance, ambient)?;
        let case_node = builder.add_node("case", spec.thermal.case_capacitance, ambient)?;
        let ambient_node = builder.add_boundary("ambient", ambient)?;
        builder.connect(die_node, package_node, spec.thermal.die_to_package)?;
        builder.connect(package_node, case_node, spec.thermal.package_to_case)?;
        builder.connect(case_node, ambient_node, spec.thermal.case_to_ambient)?;
        let network = builder.build()?;

        Ok(Arc::new(Self {
            spec,
            ladders,
            network,
            die_node,
            package_node,
            case_node,
            ambient_node,
        }))
    }

    /// The model's specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The voltage tables a unit with tables `binned` runs: its own on a
    /// statically binned part, the model's ladders on an RBCPR part.
    fn tables<'a>(&'a self, binned: &'a [VfTable]) -> &'a [VfTable] {
        if binned.is_empty() {
            &self.ladders
        } else {
            binned
        }
    }
}

/// One simulated handset.
///
/// # Examples
///
/// ```
/// use pv_soc::catalog;
/// use pv_soc::device::{CpuDemand, FrequencyMode};
/// use pv_silicon::binning::BinId;
/// use pv_units::Seconds;
///
/// let mut device = catalog::nexus5(BinId(0))?;
/// let report = device.step(Seconds(0.1), CpuDemand::busy(), FrequencyMode::Unconstrained)?;
/// assert!(report.soc_power.value() > 0.0);
/// # Ok::<(), pv_soc::SocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    // Fleet sweeps move whole devices onto executor worker threads; every
    // field (including the boxed supply, whose trait requires Send) must
    // stay Send. The assertion below turns a regression into a compile
    // error at the definition site instead of deep inside the executor.
    // Clone (via PowerSupply::clone_box for the boxed supply) is what lets
    // supervised sweeps retry a failed session on a pristine device copy;
    // a clone shares the model and copies only the unit's state.
    model: Arc<DeviceModel>,
    die: DieSample,
    label: String,
    /// The unit's own voltage tables, binned from its die: one per cluster
    /// on a statically binned part, empty on an RBCPR part (whose units run
    /// the model's ladders).
    binned: Vec<VfTable>,
    network: ThermalNetwork,
    probe: Probe,
    throttle: ThrottleState,
    supply: Box<dyn PowerSupply>,
    last_supply_voltage: Volts,
    time: Seconds,
    /// True iff the network runs [`Integrator::Exponential`]. Gates the
    /// power table so the Euler/RK4 reference paths stay bit-identical to
    /// the original implementation.
    fast_path: bool,
    /// Per-cluster power table keyed on (frequency, quantised-temperature
    /// bin, powered cores, utilisation); values are the trimmed rail
    /// voltage and modelled power computed *at the quantised temperature*,
    /// so a hit is bit-identical to recomputing (fast path only). The
    /// temperature bin in the key is what invalidates RBCPR trims when the
    /// die moves: a new bin is a miss and an exact recompute.
    power_table: PowerTable,
}

/// Operating-point key for the fast-path power table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PowerKey {
    freq_bits: u64,
    temp_bin: i64,
    powered_bits: u64,
    util_bits: u64,
}

impl PowerKey {
    /// The key's slot within its cluster's stretch of the table. The load
    /// and frequency fields are mixed into an offset and the temperature bin
    /// is added to it, so one operating point's consecutive bins fill
    /// consecutive slots: a ramp through up to [`POWER_TABLE_SLOTS`] bins
    /// never evicts its own entries.
    fn slot(&self) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h = self.freq_bits.wrapping_mul(K);
        h = (h.rotate_left(23) ^ self.powered_bits).wrapping_mul(K);
        h = (h.rotate_left(23) ^ self.util_bits).wrapping_mul(K);
        (h >> 32).wrapping_add(self.temp_bin as u64) as usize & (POWER_TABLE_SLOTS - 1)
    }
}

/// One slot of the [`PowerTable`]: a key, the epoch it was written in, and
/// the rail voltage and power computed for it.
#[derive(Debug, Clone, Copy)]
struct PowerSlot {
    key: PowerKey,
    epoch: u32,
    volts: Volts,
    watts: Watts,
}

/// Direct-mapped memo of the fast path's voltage trim and power model:
/// [`POWER_TABLE_SLOTS`] slots per cluster, cluster-major. A slot is live
/// only while its epoch equals the table's, so [`PowerTable::clear`] is one
/// increment instead of a pass over every slot.
#[derive(Debug, Clone)]
struct PowerTable {
    /// Empty until the device's fast path is first enabled.
    slots: Vec<PowerSlot>,
    /// Epoch of the live slots; never 0, the epoch of unwritten slots.
    epoch: u32,
}

impl PowerTable {
    /// A table with no slots, as a device starts: it costs nothing until
    /// [`PowerTable::allocate`].
    fn unallocated() -> Self {
        Self {
            slots: Vec::new(),
            epoch: 1,
        }
    }

    /// Gives every one of `clusters` its stretch of empty slots.
    fn allocate(&mut self, clusters: usize) {
        let empty = PowerSlot {
            key: PowerKey {
                freq_bits: 0,
                temp_bin: 0,
                powered_bits: 0,
                util_bits: 0,
            },
            epoch: 0,
            volts: Volts::ZERO,
            watts: Watts::ZERO,
        };
        self.slots = vec![empty; clusters * POWER_TABLE_SLOTS];
    }

    /// Empties every slot by starting a new epoch.
    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The epoch wrapped, so slots written 2³² clears ago could
            // match again: retag every slot as unwritten, once.
            for slot in &mut self.slots {
                slot.epoch = 0;
            }
            self.epoch = 1;
        }
    }

    /// The (voltage, power) pair for `key` on `cluster`: the slot's value if
    /// it holds `key` in this epoch, else `compute()` written over the slot.
    fn get_or_insert_with(
        &mut self,
        cluster: usize,
        key: PowerKey,
        compute: impl FnOnce() -> (Volts, Watts),
    ) -> (Volts, Watts) {
        let epoch = self.epoch;
        let slot = &mut self.slots[cluster * POWER_TABLE_SLOTS + key.slot()];
        if slot.epoch == epoch && slot.key == key {
            return (slot.volts, slot.watts);
        }
        let (volts, watts) = compute();
        *slot = PowerSlot {
            key,
            epoch,
            volts,
            watts,
        };
        (volts, watts)
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Device>();
};

impl Device {
    /// Builds a device from a spec, a die, and a power supply, on a model
    /// of its own: [`DeviceModel::new`] then [`Device::from_model`].
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] if the spec fails validation, or a
    /// wrapped substrate error from table generation / network construction.
    pub fn new(
        spec: DeviceSpec,
        die: DieSample,
        supply: Box<dyn PowerSupply>,
        label: impl Into<String>,
        seed: u64,
    ) -> Result<Self, SocError> {
        Self::from_model(DeviceModel::new(spec)?, die, supply, label, seed)
    }

    /// Builds one unit of `model` from a die and a power supply.
    ///
    /// For statically binned parts the per-cluster voltage tables are
    /// generated here by [`voltage_bin_table`] from the die's grade; RBCPR
    /// parts run the model's nominal ladders and trim at runtime.
    ///
    /// # Errors
    ///
    /// Returns a wrapped substrate error from table generation or from the
    /// spec's sensor parameters.
    pub fn from_model(
        model: Arc<DeviceModel>,
        die: DieSample,
        supply: Box<dyn PowerSupply>,
        label: impl Into<String>,
        seed: u64,
    ) -> Result<Self, SocError> {
        let spec = &model.spec;
        let mut binned = Vec::new();
        if spec.voltage_scheme == VoltageScheme::StaticTable {
            binned.reserve_exact(spec.soc.clusters.len());
            for cluster in &spec.soc.clusters {
                binned.push(voltage_bin_table(&cluster.vf_slow, &cluster.vf_fast, &die)?);
            }
        }
        let mut probe = Probe::new(
            spec.thermal.sensor_tau,
            spec.thermal.sensor_noise,
            spec.thermal.sensor_quantum,
            seed,
        )?;
        probe.reset(spec.initial_ambient);
        let last_supply_voltage = supply.terminal_voltage(spec.idle_power);

        Ok(Self {
            network: model.network.clone(),
            model,
            die,
            label: label.into(),
            binned,
            probe,
            throttle: ThrottleState::new(),
            supply,
            last_supply_voltage,
            time: Seconds::ZERO,
            fast_path: false,
            power_table: PowerTable::unallocated(),
        })
    }

    /// Selects the thermal integration scheme. [`Integrator::Exponential`]
    /// additionally enables the device-level fast path (the
    /// quantised-temperature power table); Euler/RK4 run the original
    /// reference arithmetic bit-for-bit.
    ///
    /// The power table (512 direct-mapped slots per cluster, 56 KiB on a
    /// two-cluster device) is allocated the first time the fast path is
    /// enabled, never by the constructors, so a device that never runs it
    /// carries none. A later call that changes the scheme empties it by
    /// bumping its epoch, an O(1) clear with no allocation; a re-pin to
    /// the current scheme keeps it, since its values depend only on the
    /// key, the die and the spec. Switching to Euler and back before a
    /// step therefore forces a miss on that step.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        let changed = integrator != self.network.integrator();
        self.network.set_integrator(integrator);
        self.fast_path = integrator == Integrator::Exponential;
        if self.fast_path && self.power_table.slots.is_empty() {
            self.power_table
                .allocate(self.model.spec.soc.clusters.len());
        } else if changed {
            self.power_table.clear();
        }
    }

    /// The device's model specification, shared by every unit of its
    /// model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.model.spec
    }

    /// This unit's silicon.
    pub fn die(&self) -> &DieSample {
        &self.die
    }

    /// The per-cluster voltage tables in effect.
    pub fn tables(&self) -> &[VfTable] {
        self.model.tables(&self.binned)
    }

    /// Experiment label (e.g. `"bin-0"` or `"device-363"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Current true die temperature.
    pub fn die_temp(&self) -> Celsius {
        self.network.temperature(self.model.die_node)
    }

    /// Reads the thermal sensor the way the benchmark app's cooldown loop
    /// does (lag, noise, quantisation included).
    pub fn read_sensor(&mut self) -> Celsius {
        self.probe.read()
    }

    /// The power supply.
    pub fn supply(&self) -> &dyn PowerSupply {
        self.supply.as_ref()
    }

    /// Swaps the power supply (the Fig 10 battery-vs-Monsoon comparison).
    pub fn set_supply(&mut self, supply: Box<dyn PowerSupply>) {
        self.last_supply_voltage = supply.terminal_voltage(self.model.spec.idle_power);
        self.supply = supply;
    }

    /// Re-pins the ambient boundary (e.g. to track a
    /// [`ThermaBox`](pv_thermal::thermabox::ThermaBox) air temperature, or
    /// to sweep ambient as in Fig 2).
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    pub fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.network
            .set_boundary_temp(self.model.ambient_node, ambient)?;
        Ok(())
    }

    /// Resets all thermal state to `ambient` and releases all throttles —
    /// a device that has rested indefinitely.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    pub fn reset_thermal(&mut self, ambient: Celsius) -> Result<(), SocError> {
        let model = &self.model;
        self.network.set_temperature(model.die_node, ambient)?;
        self.network.set_temperature(model.package_node, ambient)?;
        self.network.set_temperature(model.case_node, ambient)?;
        self.network
            .set_boundary_temp(model.ambient_node, ambient)?;
        self.probe.reset(ambient);
        self.throttle.reset();
        Ok(())
    }

    /// Advances the device by `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for a non-positive `dt` or an
    /// out-of-range fixed frequency, and wrapped substrate errors for
    /// thermal/supply failures (e.g. a drained battery).
    pub fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        let mut report = StepReport::empty();
        self.step_into(dt, demand, mode, &mut report)?;
        Ok(report)
    }

    /// As [`Device::step`], but fills a caller-owned report in place. The
    /// report's `Vec`s are cleared and re-pushed, so a reused report makes
    /// steady-state stepping allocation-free end to end.
    ///
    /// # Errors
    ///
    /// As [`Device::step`]. On error the report contents are unspecified.
    pub fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(SocError::InvalidStep("dt must be > 0"));
        }
        if let CpuDemand::Busy { util } = demand {
            if !(util > 0.0 && util <= 1.0) {
                return Err(SocError::InvalidStep("util must be in (0,1]"));
            }
        }
        if let FrequencyMode::Fixed(f) = mode {
            if !(f.value() > 0.0 && f.is_finite()) {
                return Err(SocError::InvalidStep("fixed frequency must be > 0"));
            }
        }

        let spec = &self.model.spec;
        let tables = self.model.tables(&self.binned);
        let die_temp = self.network.temperature(self.model.die_node);
        let sensor_temp = self.probe.read();
        let decision = self
            .throttle
            .update(&spec.throttle, sensor_temp, self.last_supply_voltage);

        let n_clusters = spec.soc.clusters.len();
        out.cluster_freqs.clear();
        out.cluster_voltages.clear();
        out.active_cores.clear();
        let mut core_power = Watts::ZERO;
        let mut work_cycles = 0.0;

        // Emergency thermal shutdown suspends the workload outright.
        let idle = matches!(demand, CpuDemand::Idle) || decision.emergency_stop;

        // Fast path: the power model (and RBCPR trim) sees the die
        // temperature snapped to the table's grid, so an unchanged operating
        // point is a pure lookup and a hit is bit-identical to recomputing.
        let temp_bin = (die_temp.value() / POWER_TABLE_TEMP_QUANTUM).round() as i64;
        let power_temp = if self.fast_path {
            Celsius(temp_bin as f64 * POWER_TABLE_TEMP_QUANTUM)
        } else {
            die_temp
        };

        for (ci, (cluster, table)) in spec.soc.clusters.iter().zip(tables).enumerate() {
            let max_f = table.max_freq();

            // Governor target.
            let mut target = match mode {
                FrequencyMode::Unconstrained => max_f,
                FrequencyMode::Fixed(f) => f,
            };
            // Thermal cap.
            if let Some(cap) = decision.freq_cap {
                target = MegaHertz(target.value().min(cap.value()));
            }
            // Input-voltage cap (fraction of this cluster's top frequency).
            if let Some(frac) = decision.freq_fraction {
                target = MegaHertz(target.value().min(max_f.value() * frac));
            }
            if idle {
                target = table.min_freq();
            }

            // OPP resolution: snap the target down onto the ladder.
            let freq = table
                .highest_freq_at_or_below(target)
                .unwrap_or_else(|| table.min_freq());

            // Hotplug floor.
            let mut cores = cluster.cores;
            if let Some(min_cores) = decision.min_cores {
                cores = cores.min(min_cores);
            }
            // Idle: all but one housekeeping core (on the most efficient
            // cluster — the last one by catalog convention) power-collapse.
            let (powered, util) = if idle {
                let keep = if ci + 1 == n_clusters { 1.0 } else { 0.0 };
                (keep, 0.02 * keep)
            } else {
                (f64::from(cores), demand.util())
            };

            // Rail voltage + modelled power. The fast path memoises both per
            // (frequency, temperature bin, load) point; the temperature bin
            // in the key invalidates RBCPR trims as the die moves.
            let evaluate = || {
                let nominal_v = table.voltage_at(freq);
                let v = match &spec.voltage_scheme {
                    VoltageScheme::StaticTable => nominal_v,
                    VoltageScheme::Rbcpr(rb) => rb.trim(nominal_v, &self.die, power_temp),
                };
                let p = cluster.power.total_power(
                    &self.die,
                    v,
                    freq,
                    power_temp,
                    powered * util,
                    powered,
                );
                (v, p)
            };
            let (v, power) = if self.fast_path {
                let key = PowerKey {
                    freq_bits: freq.value().to_bits(),
                    temp_bin,
                    powered_bits: powered.to_bits(),
                    util_bits: util.to_bits(),
                };
                self.power_table.get_or_insert_with(ci, key, evaluate)
            } else {
                evaluate()
            };
            core_power += power;

            if !idle {
                work_cycles += powered * util * freq.to_hz() * cluster.perf_weight * dt.value();
            }

            out.cluster_freqs.push(freq);
            out.cluster_voltages.push(v);
            out.active_cores
                .push(if idle { powered as u32 } else { cores });
        }

        let uncore = if idle {
            spec.soc.uncore_power * 0.2
        } else {
            spec.soc.uncore_power
        };
        let soc_power = core_power + uncore + spec.idle_power;
        let supply_power = soc_power / spec.regulator_efficiency;
        let regulator_loss = supply_power - soc_power;

        let supply_voltage = self.supply.terminal_voltage(supply_power);
        self.last_supply_voltage = supply_voltage;
        self.supply.draw(supply_power, dt)?;

        // SoC power heats the die; regulator loss heats the board.
        let model = &self.model;
        self.network.step(
            dt,
            &[
                (model.die_node, soc_power),
                (model.package_node, regulator_loss),
            ],
        )?;
        let new_die_temp = self.network.temperature(model.die_node);
        self.probe.observe(new_die_temp, dt)?;
        self.time += dt;

        out.dt = dt;
        out.die_temp = new_die_temp;
        out.sensor_temp = sensor_temp;
        out.case_temp = self.network.temperature(model.case_node);
        out.soc_power = soc_power;
        out.supply_power = supply_power;
        out.supply_voltage = supply_voltage;
        out.work_cycles = work_cycles;
        out.throttled = decision.is_throttled();
        Ok(())
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] on {} ({})",
            self.model.spec.model, self.label, self.model.spec.soc.name, self.die
        )
    }
}

/// The device-under-test surface the session harness drives.
///
/// [`Device`] implements it directly (a clean, fault-free unit).
/// [`FaultyDevice`](crate::faulty::FaultyDevice) implements it through a
/// fault-injection gate. The harness is generic over this trait, so every
/// experiment runs unchanged against either.
///
/// Unlike [`Device::read_sensor`], sensor reads here are fallible: a faulty
/// unit's probe can transiently drop out mid-cooldown, and the harness must
/// see that as an error it can retry rather than a bogus temperature.
pub trait Dut {
    /// Human-readable per-unit label.
    fn label(&self) -> &str;

    /// Current true die temperature (for traces and gates, not visible to
    /// the simulated benchmark app).
    fn die_temp(&self) -> Celsius;

    /// Re-pins the ambient boundary (see [`Device::set_ambient`]).
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError>;

    /// Reads the thermal sensor the way the benchmark app does.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Thermal`] ([`pv_thermal::ThermalError::ProbeDropout`])
    /// when an injected dropout makes the sensor unreadable.
    fn try_read_sensor(&mut self) -> Result<Celsius, SocError>;

    /// Advances the device by `dt` (see [`Device::step`]).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for bad arguments, wrapped
    /// substrate errors, or [`SocError::HotplugFlap`] when an injected flap
    /// refuses a busy step.
    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError>;

    /// As [`Dut::step`], but fills a caller-owned report in place so a hot
    /// driver loop can reuse one report's allocations. The default simply
    /// delegates to [`Dut::step`]; [`Device`] overrides it with a true
    /// in-place implementation.
    ///
    /// # Errors
    ///
    /// As [`Dut::step`]. On error the report contents are unspecified.
    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        *out = self.step(dt, demand, mode)?;
        Ok(())
    }

    /// Selects the thermal integration scheme (see
    /// [`Device::set_integrator`]). The default is a no-op so simple test
    /// doubles keep compiling; real DUTs forward to their device.
    fn set_integrator(&mut self, integrator: Integrator) {
        let _ = integrator;
    }
}

impl Dut for Device {
    fn label(&self) -> &str {
        Device::label(self)
    }

    fn die_temp(&self) -> Celsius {
        Device::die_temp(self)
    }

    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        Device::set_ambient(self, ambient)
    }

    fn try_read_sensor(&mut self) -> Result<Celsius, SocError> {
        Ok(self.read_sensor())
    }

    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        Device::step(self, dt, demand, mode)
    }

    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        Device::step_into(self, dt, demand, mode, out)
    }

    fn set_integrator(&mut self, integrator: Integrator) {
        Device::set_integrator(self, integrator);
    }
}

impl Device {
    /// Current case (skin) temperature — what the user's hand feels.
    pub fn case_temp(&self) -> Celsius {
        self.network.temperature(self.model.case_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use pv_power::Monsoon;
    use pv_silicon::binning::BinId;
    use pv_units::TempDelta;

    fn n5(bin: u8) -> Device {
        catalog::nexus5(BinId(bin)).unwrap()
    }

    #[test]
    fn busy_device_heats_up_and_does_work() {
        let mut d = n5(0);
        let t0 = d.die_temp();
        let mut work = 0.0;
        for _ in 0..300 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            work += r.work_cycles;
            assert!(r.soc_power > Watts(0.0));
        }
        assert!(d.die_temp() > t0 + TempDelta(5.0));
        assert!(work > 0.0);
        assert!(d.time > Seconds(29.9));
    }

    #[test]
    fn idle_device_cools_back_down() {
        let mut d = n5(0);
        for _ in 0..600 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        let hot = d.die_temp();
        for _ in 0..6000 {
            d.step(Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained)
                .unwrap();
        }
        assert!(d.die_temp() < hot - TempDelta(10.0));
        // Near ambient after 50 idle minutes.
        assert!(d.die_temp().value() < 35.0, "idle temp {}", d.die_temp());
    }

    #[test]
    fn sustained_load_eventually_throttles() {
        let mut d = n5(3);
        let mut ever_throttled = false;
        let mut min_freq = f64::INFINITY;
        for _ in 0..6000 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Unconstrained,
                )
                .unwrap();
            ever_throttled |= r.throttled;
            min_freq = min_freq.min(r.cluster_freqs[0].value());
        }
        assert!(ever_throttled, "device never throttled under 10 min load");
        assert!(min_freq < 2265.0, "frequency never dropped");
        // Die must not run away past the policy's deepest trip by much.
        assert!(d.die_temp().value() < 95.0, "runaway: {}", d.die_temp());
    }

    #[test]
    fn fixed_low_frequency_never_throttles() {
        let mut d = n5(3);
        for _ in 0..3000 {
            let r = d
                .step(
                    Seconds(0.1),
                    CpuDemand::busy(),
                    FrequencyMode::Fixed(MegaHertz(960.0)),
                )
                .unwrap();
            assert!(!r.throttled, "throttled at fixed 960 MHz");
            assert_eq!(r.cluster_freqs[0], MegaHertz(960.0));
        }
    }

    #[test]
    fn fixed_mode_snaps_to_ladder() {
        let mut d = n5(0);
        let r = d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(1000.0)),
            )
            .unwrap();
        assert_eq!(r.cluster_freqs[0], MegaHertz(960.0));
    }

    #[test]
    fn leakier_bin_draws_more_power_at_same_operating_point() {
        let mut slow = n5(0);
        let mut fast = n5(3);
        let mode = FrequencyMode::Fixed(MegaHertz(960.0));
        let mut p_slow = Watts::ZERO;
        let mut p_fast = Watts::ZERO;
        for _ in 0..1200 {
            p_slow = slow
                .step(Seconds(0.1), CpuDemand::busy(), mode)
                .unwrap()
                .soc_power;
            p_fast = fast
                .step(Seconds(0.1), CpuDemand::busy(), mode)
                .unwrap()
                .soc_power;
        }
        assert!(
            p_fast > p_slow,
            "bin-3 ({p_fast}) should out-consume bin-0 ({p_slow})"
        );
    }

    #[test]
    fn work_scales_with_frequency() {
        let mut d = n5(0);
        let low = d
            .step(
                Seconds(1.0),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(300.0)),
            )
            .unwrap()
            .work_cycles;
        let mut d = n5(0);
        let high = d
            .step(
                Seconds(1.0),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(960.0)),
            )
            .unwrap()
            .work_cycles;
        assert!((high / low - 3.2).abs() < 1e-9);
    }

    #[test]
    fn reset_thermal_restores_cold_state() {
        let mut d = n5(0);
        for _ in 0..1000 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        d.reset_thermal(Celsius(26.0)).unwrap();
        assert_eq!(d.die_temp(), Celsius(26.0));
        assert_eq!(d.case_temp(), Celsius(26.0));
        assert_eq!(d.network.temperature(d.model.package_node), Celsius(26.0));
    }

    #[test]
    fn ambient_shift_propagates() {
        let mut d = n5(0);
        d.set_ambient(Celsius(40.0)).unwrap();
        for _ in 0..36_000 {
            d.step(Seconds(0.5), CpuDemand::Idle, FrequencyMode::Unconstrained)
                .unwrap();
        }
        assert!(
            d.die_temp().value() > 38.0,
            "die should drift toward hot ambient: {}",
            d.die_temp()
        );
    }

    #[test]
    fn step_validation() {
        let mut d = n5(0);
        assert!(d
            .step(
                Seconds(0.0),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::Busy { util: 0.0 },
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::Busy { util: 1.5 },
                FrequencyMode::Unconstrained
            )
            .is_err());
        assert!(d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Fixed(MegaHertz(0.0))
            )
            .is_err());
    }

    #[test]
    fn supply_swap_changes_terminal_voltage() {
        let mut d = n5(0);
        let v1 = d.supply().terminal_voltage(Watts(1.0));
        d.set_supply(Box::new(Monsoon::new(Volts(9.0)).unwrap()));
        let v2 = d.supply().terminal_voltage(Watts(1.0));
        assert_ne!(v1, v2);
        assert_eq!(v2, Volts(9.0));
    }

    #[test]
    fn report_converts_to_trace_sample() {
        let mut d = n5(0);
        let r = d
            .step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        let s = r.to_sample(Seconds(0.1));
        assert_eq!(s.dt, r.dt);
        assert_eq!(s.cluster_freqs, r.cluster_freqs);
        assert_eq!(s.supply_power, r.supply_power);
    }

    #[test]
    fn display_mentions_model_and_label() {
        let d = n5(2);
        let s = format!("{d}");
        assert!(s.contains("Nexus 5"));
        assert!(s.contains("bin-2"));
    }

    #[test]
    fn power_table_is_lazy_and_clears_across_an_epoch_wrap() {
        let mut d = n5(1);
        assert!(d.power_table.slots.is_empty(), "built by the constructor");
        d.set_integrator(Integrator::Euler);
        assert!(d.power_table.slots.is_empty(), "built off the fast path");
        d.set_integrator(Integrator::Exponential);
        let clusters = d.spec().soc.clusters.len();
        assert_eq!(d.power_table.slots.len(), clusters * POWER_TABLE_SLOTS);

        let key = PowerKey {
            freq_bits: 1.0f64.to_bits(),
            temp_bin: 300,
            powered_bits: 4.0f64.to_bits(),
            util_bits: 1.0f64.to_bits(),
        };
        let computed = (Volts(0.9), Watts(1.5));
        let table = &mut d.power_table;
        assert_eq!(table.get_or_insert_with(0, key, || computed), computed);
        let hit = table.get_or_insert_with(0, key, || unreachable!("a hit"));
        assert_eq!(hit, computed);
        // Jump to the last epoch before the wrap, as 2³² − 2 clears would:
        // the clear that wraps it back to epoch 1 must still empty the slot
        // written in epoch 1.
        table.epoch = u32::MAX;
        table.clear();
        assert_eq!(table.epoch, 1);
        let fresh = (Volts(0.8), Watts(1.0));
        assert_eq!(table.get_or_insert_with(0, key, || fresh), fresh);
    }

    #[test]
    fn same_scheme_repin_keeps_the_power_table() {
        let mut d = n5(1);
        d.set_integrator(Integrator::Exponential);
        let key = PowerKey {
            freq_bits: 1.0f64.to_bits(),
            temp_bin: 300,
            powered_bits: 4.0f64.to_bits(),
            util_bits: 1.0f64.to_bits(),
        };
        let computed = (Volts(0.9), Watts(1.5));
        d.power_table.get_or_insert_with(0, key, || computed);
        d.set_integrator(Integrator::Exponential);
        let kept = d
            .power_table
            .get_or_insert_with(0, key, || unreachable!("a re-pin kept the slot"));
        assert_eq!(kept, computed);
        d.set_integrator(Integrator::Euler);
        d.set_integrator(Integrator::Exponential);
        let fresh = (Volts(0.8), Watts(1.0));
        assert_eq!(
            d.power_table.get_or_insert_with(0, key, || fresh),
            fresh,
            "a scheme switch empties the table"
        );
    }
}
