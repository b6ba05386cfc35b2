//! The time-stepped device simulator.
//!
//! A [`Device`] is one physical unit: a [`DeviceSpec`] (shared across the
//! model line) plus one [`DieSample`] (this unit's silicon) plus a power
//! supply. Each [`Device::step`] advances the closed loop the paper
//! describes:
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
use pv_units::{Celsius, MegaHertz, Seconds, TempDelta, Volts, Watts};

/// Fast-path power-cache temperature resolution in kelvin. Die temperature
/// is snapped to this grid before the voltage trim and power model run, so
/// an unchanged operating point turns into a cache hit. 0.1 K bounds the
/// leakage error at roughly 0.25 % (β ≈ 0.025/K), well inside the
/// documented fast-path tolerance budget (DESIGN.md §11).
const POWER_CACHE_TEMP_QUANTUM: f64 = 0.1;

/// Per-cluster cap on cached (frequency, temperature-bin, load) power
/// points. Steady states touch a handful; throttle ladders a few dozen.
const POWER_CACHE_CAP: usize = 64;

/// Per-cluster cap on memoised governor-target → OPP resolutions.
const OPP_MEMO_CAP: usize = 16;

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
    // supervised sweeps retry a failed session on a pristine device copy.
    spec: DeviceSpec,
    die: DieSample,
    label: String,
    tables: Vec<VfTable>,
    network: ThermalNetwork,
    die_node: NodeId,
    package_node: NodeId,
    case_node: NodeId,
    ambient_node: NodeId,
    probe: Probe,
    throttle: ThrottleState,
    supply: Box<dyn PowerSupply>,
    last_supply_voltage: Volts,
    time: Seconds,
    /// True iff the network runs [`Integrator::Exponential`]. Gates the OPP
    /// memo and power cache so the Euler/RK4 reference paths stay
    /// bit-identical to the original implementation.
    fast_path: bool,
    /// Per-cluster governor-target → (ladder frequency, nominal voltage)
    /// memo, keyed on the target's bit pattern (fast path only).
    opp_memo: Vec<Vec<(u64, MegaHertz, Volts)>>,
    /// Per-cluster power cache keyed on (frequency, quantised-temperature
    /// bin, powered cores, utilisation); values are the trimmed rail
    /// voltage and modelled power computed *at the quantised temperature*,
    /// so a hit is bit-identical to recomputing (fast path only). The
    /// temperature bin in the key is what invalidates RBCPR trims when the
    /// die moves: a new bin is a miss and an exact recompute.
    power_cache: Vec<Vec<(PowerKey, Volts, Watts)>>,
}

/// Operating-point key for the fast-path power cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PowerKey {
    freq_bits: u64,
    temp_bin: i64,
    powered_bits: u64,
    util_bits: u64,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Device>();
};

impl Device {
    /// Builds a device from a spec, a die, and a power supply.
    ///
    /// For statically binned parts the per-cluster voltage tables are
    /// generated here by [`voltage_bin_table`] from the die's grade; RBCPR
    /// parts keep the nominal ladder and trim at runtime.
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
        spec.validate()?;
        let mut tables = Vec::with_capacity(spec.soc.clusters.len());
        for cluster in &spec.soc.clusters {
            let table = match spec.voltage_scheme {
                VoltageScheme::StaticTable => {
                    voltage_bin_table(&cluster.vf_slow, &cluster.vf_fast, &die)?
                }
                VoltageScheme::Rbcpr(_) => cluster.vf_slow.clone(),
            };
            tables.push(table);
        }

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

        let mut probe = Probe::new(
            spec.thermal.sensor_tau,
            spec.thermal.sensor_noise,
            spec.thermal.sensor_quantum,
            seed,
        )?;
        probe.reset(ambient);
        let last_supply_voltage = supply.terminal_voltage(spec.idle_power);

        let n_clusters = spec.soc.clusters.len();
        Ok(Self {
            spec,
            die,
            label: label.into(),
            tables,
            network,
            die_node,
            package_node,
            case_node,
            ambient_node,
            probe,
            throttle: ThrottleState::new(),
            supply,
            last_supply_voltage,
            time: Seconds::ZERO,
            fast_path: false,
            opp_memo: vec![Vec::new(); n_clusters],
            power_cache: vec![Vec::new(); n_clusters],
        })
    }

    /// Thermal integration scheme currently in effect.
    pub fn integrator(&self) -> Integrator {
        self.network.integrator()
    }

    /// Selects the thermal integration scheme. [`Integrator::Exponential`]
    /// additionally enables the device-level fast path (OPP memoisation and
    /// the quantised-temperature power cache); Euler/RK4 run the original
    /// reference arithmetic bit-for-bit. Caches are cleared on every
    /// switch, so alternating schemes cannot leak stale entries.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        self.network.set_integrator(integrator);
        self.fast_path = integrator == Integrator::Exponential;
        for m in &mut self.opp_memo {
            m.clear();
        }
        for c in &mut self.power_cache {
            c.clear();
        }
    }

    /// The device's model specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// This unit's silicon.
    pub fn die(&self) -> &DieSample {
        &self.die
    }

    /// The per-cluster voltage tables in effect.
    pub fn tables(&self) -> &[VfTable] {
        &self.tables
    }

    /// Experiment label (e.g. `"bin-0"` or `"device-363"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Simulated time elapsed.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Current true die temperature.
    pub fn die_temp(&self) -> Celsius {
        self.network.temperature(self.die_node)
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

    /// Mutable access to the power supply (e.g. to reprogram a Monsoon).
    pub fn supply_mut(&mut self) -> &mut dyn PowerSupply {
        self.supply.as_mut()
    }

    /// Swaps the power supply (the Fig 10 battery-vs-Monsoon comparison).
    pub fn set_supply(&mut self, supply: Box<dyn PowerSupply>) {
        self.last_supply_voltage = supply.terminal_voltage(self.spec.idle_power);
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
        self.network.set_boundary_temp(self.ambient_node, ambient)?;
        Ok(())
    }

    /// Resets all thermal state to `ambient` and releases all throttles —
    /// a device that has rested indefinitely.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`pv_thermal::ThermalError`] for non-finite input.
    pub fn reset_thermal(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.network.set_temperature(self.die_node, ambient)?;
        self.network.set_temperature(self.package_node, ambient)?;
        self.network.set_temperature(self.case_node, ambient)?;
        self.network.set_boundary_temp(self.ambient_node, ambient)?;
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

        let die_temp = self.network.temperature(self.die_node);
        let sensor_temp = self.probe.read();
        let decision =
            self.throttle
                .update(&self.spec.throttle, sensor_temp, self.last_supply_voltage);

        let n_clusters = self.spec.soc.clusters.len();
        out.cluster_freqs.clear();
        out.cluster_voltages.clear();
        out.active_cores.clear();
        let mut core_power = Watts::ZERO;
        let mut work_cycles = 0.0;

        // Emergency thermal shutdown suspends the workload outright.
        let idle = matches!(demand, CpuDemand::Idle) || decision.emergency_stop;

        // Fast path: the power model (and RBCPR trim) sees the die
        // temperature snapped to the cache grid, so an unchanged operating
        // point is a pure lookup and a hit is bit-identical to recomputing.
        let temp_bin = (die_temp.value() / POWER_CACHE_TEMP_QUANTUM).round() as i64;
        let power_temp = if self.fast_path {
            Celsius(temp_bin as f64 * POWER_CACHE_TEMP_QUANTUM)
        } else {
            die_temp
        };

        for ci in 0..n_clusters {
            let cluster = &self.spec.soc.clusters[ci];
            let table = &self.tables[ci];
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

            // OPP resolution: ladder snap + nominal voltage, memoised per
            // target on the fast path (the ladder is fixed per device).
            let freq = if self.fast_path {
                let memo = &mut self.opp_memo[ci];
                let bits = target.value().to_bits();
                if let Some(pos) = memo.iter().position(|e| e.0 == bits) {
                    let hit = memo[pos];
                    if pos != 0 {
                        memo.swap(pos, pos - 1);
                    }
                    hit.1
                } else {
                    let f = table
                        .highest_freq_at_or_below(target)
                        .unwrap_or_else(|| table.min_freq());
                    memo.truncate(OPP_MEMO_CAP - 1);
                    memo.insert(0, (bits, f, table.voltage_at(f)));
                    f
                }
            } else {
                table
                    .highest_freq_at_or_below(target)
                    .unwrap_or_else(|| table.min_freq())
            };

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

            // Rail voltage + modelled power. The fast path caches both per
            // (frequency, temperature bin, load) point; the temperature bin
            // in the key invalidates RBCPR trims as the die moves.
            let (v, power) = if self.fast_path {
                let key = PowerKey {
                    freq_bits: freq.value().to_bits(),
                    temp_bin,
                    powered_bits: powered.to_bits(),
                    util_bits: util.to_bits(),
                };
                let cache = &mut self.power_cache[ci];
                if let Some(pos) = cache.iter().position(|e| e.0 == key) {
                    let hit = cache[pos];
                    if pos != 0 {
                        cache.swap(pos, pos - 1);
                    }
                    (hit.1, hit.2)
                } else {
                    let nominal_v = table.voltage_at(freq);
                    let v = match &self.spec.voltage_scheme {
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
                    cache.truncate(POWER_CACHE_CAP - 1);
                    cache.insert(0, (key, v, p));
                    (v, p)
                }
            } else {
                let nominal_v = table.voltage_at(freq);
                let v = match &self.spec.voltage_scheme {
                    VoltageScheme::StaticTable => nominal_v,
                    VoltageScheme::Rbcpr(rb) => rb.trim(nominal_v, &self.die, die_temp),
                };
                let p = cluster.power.total_power(
                    &self.die,
                    v,
                    freq,
                    die_temp,
                    powered * util,
                    powered,
                );
                (v, p)
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
            self.spec.soc.uncore_power * 0.2
        } else {
            self.spec.soc.uncore_power
        };
        let soc_power = core_power + uncore + self.spec.idle_power;
        let supply_power = soc_power / self.spec.regulator_efficiency;
        let regulator_loss = supply_power - soc_power;

        let supply_voltage = self.supply.terminal_voltage(supply_power);
        self.last_supply_voltage = supply_voltage;
        self.supply.draw(supply_power, dt)?;

        // SoC power heats the die; regulator loss heats the board.
        self.network.step(
            dt,
            &[
                (self.die_node, soc_power),
                (self.package_node, regulator_loss),
            ],
        )?;
        let new_die_temp = self.network.temperature(self.die_node);
        self.probe.observe(new_die_temp, dt)?;
        self.time += dt;

        out.dt = dt;
        out.die_temp = new_die_temp;
        out.sensor_temp = sensor_temp;
        out.case_temp = self.network.temperature(self.case_node);
        out.soc_power = soc_power;
        out.supply_power = supply_power;
        out.supply_voltage = supply_voltage;
        out.work_cycles = work_cycles;
        out.throttled = decision.is_throttled();
        Ok(())
    }
}

impl Device {
    /// Drives the device for `total` time in steps of `dt`, returning the
    /// perf-weighted cycles retired and the supply energy consumed.
    ///
    /// Convenience over a manual [`step`](Self::step) loop for examples and
    /// quick experiments; the harness in `accubench` remains the
    /// full-protocol driver.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidStep`] for non-positive durations and
    /// propagates any step error.
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
    /// let (work, energy) = device.run_for(
    ///     Seconds(10.0),
    ///     Seconds(0.1),
    ///     CpuDemand::busy(),
    ///     FrequencyMode::Unconstrained,
    /// )?;
    /// assert!(work > 0.0);
    /// assert!(energy.value() > 0.0);
    /// # Ok::<(), pv_soc::SocError>(())
    /// ```
    pub fn run_for(
        &mut self,
        total: Seconds,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<(f64, pv_units::Joules), SocError> {
        if !(total.value() > 0.0 && total.is_finite()) {
            return Err(SocError::InvalidStep("total must be > 0"));
        }
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(SocError::InvalidStep("dt must be > 0"));
        }
        let mut work = 0.0;
        let mut energy = pv_units::Joules::ZERO;
        let mut remaining = total.value();
        while remaining > 0.0 {
            let step = Seconds(remaining.min(dt.value()));
            let r = self.step(step, demand, mode)?;
            work += r.work_cycles;
            energy += r.supply_power * step;
            remaining -= step.value();
        }
        Ok((work, energy))
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] on {} ({})",
            self.spec.model, self.label, self.spec.soc.name, self.die
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

// The case node handle: stored via a small extension because construction
// happens inside `new`. Kept as a private field accessor pattern.
impl Device {
    /// Current case (skin) temperature — what the user's hand feels.
    pub fn case_temp(&self) -> Celsius {
        self.network.temperature(self.case_node)
    }

    /// Current package/board temperature.
    pub fn package_temp(&self) -> Celsius {
        self.network.temperature(self.package_node)
    }

    /// Temperature headroom before the first thermal trip, based on the
    /// current *die* temperature (negative once past the trip).
    pub fn headroom(&self) -> Option<TempDelta> {
        self.spec
            .throttle
            .steps
            .first()
            .map(|s| s.trip - self.die_temp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use pv_power::Monsoon;
    use pv_silicon::binning::BinId;

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
        assert!(d.time() > Seconds(29.9));
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
        assert_eq!(d.package_temp(), Celsius(26.0));
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
    fn headroom_shrinks_as_device_heats() {
        let mut d = n5(0);
        let h0 = d.headroom().unwrap();
        for _ in 0..600 {
            d.step(
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        assert!(d.headroom().unwrap() < h0);
    }
}
