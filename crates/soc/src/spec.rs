//! Declarative device specifications.
//!
//! A [`DeviceSpec`] is everything that is identical across units of one
//! phone model: the SoC floorplan ([`SocSpec`] with its [`ClusterSpec`]s),
//! the chassis thermals ([`ThermalSpec`]), the throttle policy
//! ([`throttle::ThrottlePolicy`](crate::throttle::ThrottlePolicy)) and the
//! supply characteristics. What *differs* between units — the silicon — is
//! supplied separately as a [`pv_silicon::DieSample`] when instantiating a
//! [`Device`](crate::device::Device).

use crate::throttle::ThrottlePolicy;
use crate::SocError;
use pv_silicon::binning::VfTable;
use pv_silicon::power::PowerParams;
use pv_silicon::ProcessNode;
use pv_units::{Celsius, Seconds, TempDelta, ThermalCapacitance, ThermalResistance, Volts, Watts};

/// How a device derives its per-frequency supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoltageScheme {
    /// Static voltage-binned table baked at the factory (Nexus 5 / Nexus 6
    /// era; the paper's Table I).
    StaticTable,
    /// RBCPR closed loop: runtime trim from die quality and temperature
    /// (SD-810 and later, §IV-A2).
    Rbcpr(crate::rbcpr::RbcprSpec),
}

/// One CPU cluster of an SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name, e.g. `"Kryo-perf"` or `"A53"`.
    pub name: &'static str,
    /// Number of cores in the cluster.
    pub cores: u32,
    /// Per-cycle performance relative to the reference core (Krait = 1.0).
    /// Work tallies weight cycles by this, so a little core contributes
    /// fewer π iterations per cycle than a big one.
    pub perf_weight: f64,
    /// Calibrated power laws for this cluster.
    pub power: PowerParams,
    /// Base voltage/frequency ladder (the *slow-silicon* ladder for
    /// statically binned parts; the nominal ladder for RBCPR parts).
    pub vf_slow: VfTable,
    /// Fast-silicon ladder (equal to `vf_slow` for RBCPR parts, which trim
    /// at runtime instead).
    pub vf_fast: VfTable,
}

impl ClusterSpec {
    /// Validates the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] for zero cores, a non-positive
    /// perf weight, or mismatched ladders.
    pub fn validate(&self) -> Result<(), SocError> {
        if self.cores == 0 {
            return Err(SocError::InvalidSpec("cluster has zero cores"));
        }
        if !(self.perf_weight > 0.0 && self.perf_weight.is_finite()) {
            return Err(SocError::InvalidSpec("perf_weight must be > 0"));
        }
        if self.vf_slow.len() != self.vf_fast.len() {
            return Err(SocError::InvalidSpec("slow/fast ladder length mismatch"));
        }
        for (s, f) in self.vf_slow.points().iter().zip(self.vf_fast.points()) {
            if (s.freq.value() - f.freq.value()).abs() > 1e-9 {
                return Err(SocError::InvalidSpec("slow/fast ladder frequency mismatch"));
            }
            if s.voltage < f.voltage {
                return Err(SocError::InvalidSpec(
                    "slow ladder voltage below fast ladder",
                ));
            }
        }
        Ok(())
    }
}

/// An SoC: one or more clusters plus uncore power.
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    /// Marketing name, e.g. `"SD-800"`.
    pub name: &'static str,
    /// Manufacturing process.
    pub node: ProcessNode,
    /// CPU clusters (1 for SD-800/805, 2 for big.LITTLE parts).
    pub clusters: Vec<ClusterSpec>,
    /// Constant uncore power while awake (memory controller, interconnect).
    pub uncore_power: Watts,
}

impl SocSpec {
    /// Validates the SoC.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] for an empty cluster list, a
    /// negative uncore power, or any invalid cluster.
    pub fn validate(&self) -> Result<(), SocError> {
        if self.clusters.is_empty() {
            return Err(SocError::InvalidSpec("SoC has no clusters"));
        }
        if !(self.uncore_power.value() >= 0.0 && self.uncore_power.is_finite()) {
            return Err(SocError::InvalidSpec("uncore_power must be >= 0"));
        }
        for c in &self.clusters {
            c.validate()?;
        }
        Ok(())
    }
}

/// Chassis thermal parameters: the lumped die → package → case → ambient
/// path, plus the temperature sensor the kernel throttles on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Heat capacity of the die + heat spreader.
    pub die_capacitance: ThermalCapacitance,
    /// Heat capacity of the PCB/package/battery mass.
    pub package_capacitance: ThermalCapacitance,
    /// Heat capacity of the case shell.
    pub case_capacitance: ThermalCapacitance,
    /// Die → package resistance.
    pub die_to_package: ThermalResistance,
    /// Package → case resistance.
    pub package_to_case: ThermalResistance,
    /// Case → ambient convection resistance.
    pub case_to_ambient: ThermalResistance,
    /// Thermal sensor lag time constant.
    pub sensor_tau: Seconds,
    /// Thermal sensor read-noise standard deviation.
    pub sensor_noise: TempDelta,
    /// Thermal sensor quantisation (kernel zones report whole degrees).
    pub sensor_quantum: TempDelta,
}

impl ThermalSpec {
    /// Validates the thermal parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] for non-positive capacitances or
    /// resistances, or negative sensor parameters.
    pub fn validate(&self) -> Result<(), SocError> {
        for (v, what) in [
            (self.die_capacitance.value(), "die_capacitance"),
            (self.package_capacitance.value(), "package_capacitance"),
            (self.case_capacitance.value(), "case_capacitance"),
            (self.die_to_package.value(), "die_to_package"),
            (self.package_to_case.value(), "package_to_case"),
            (self.case_to_ambient.value(), "case_to_ambient"),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(SocError::InvalidSpec(what));
            }
        }
        for (v, what) in [
            (self.sensor_tau.value(), "sensor_tau"),
            (self.sensor_noise.value(), "sensor_noise"),
            (self.sensor_quantum.value(), "sensor_quantum"),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(SocError::InvalidSpec(what));
            }
        }
        Ok(())
    }
}

/// A complete phone model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Model name, e.g. `"Nexus 5"`.
    pub model: &'static str,
    /// The SoC inside.
    pub soc: SocSpec,
    /// Chassis thermals.
    pub thermal: ThermalSpec,
    /// Thermal + input-voltage throttle policy.
    pub throttle: ThrottlePolicy,
    /// How per-frequency voltage is derived.
    pub voltage_scheme: VoltageScheme,
    /// Nominal battery voltage printed on the label (what the paper first
    /// programmed the Monsoon to).
    pub nominal_battery_voltage: Volts,
    /// Maximum battery voltage printed on the label.
    pub max_battery_voltage: Volts,
    /// Supply → rail conversion efficiency of the PMIC (0, 1].
    pub regulator_efficiency: f64,
    /// Baseline platform power with screen off and radios disabled (the
    /// paper's experimental configuration).
    pub idle_power: Watts,
    /// Ambient the device model starts at.
    pub initial_ambient: Celsius,
}

impl DeviceSpec {
    /// Validates the whole specification.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SocError> {
        self.soc.validate()?;
        self.thermal.validate()?;
        self.throttle.validate()?;
        if self.nominal_battery_voltage.value() <= 0.0
            || self.nominal_battery_voltage.value().is_nan()
        {
            return Err(SocError::InvalidSpec("nominal_battery_voltage"));
        }
        if self.max_battery_voltage < self.nominal_battery_voltage {
            return Err(SocError::InvalidSpec(
                "max_battery_voltage below nominal_battery_voltage",
            ));
        }
        if !(self.regulator_efficiency > 0.0 && self.regulator_efficiency <= 1.0) {
            return Err(SocError::InvalidSpec("regulator_efficiency not in (0,1]"));
        }
        if !(self.idle_power.value() >= 0.0 && self.idle_power.is_finite()) {
            return Err(SocError::InvalidSpec("idle_power must be >= 0"));
        }
        if !self.initial_ambient.is_finite() {
            return Err(SocError::InvalidSpec("initial_ambient non-finite"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn catalog_specs_validate() {
        // Every shipped spec must pass its own validation.
        for spec in [
            catalog::nexus5_spec().unwrap(),
            catalog::nexus6_spec().unwrap(),
            catalog::nexus6p_spec().unwrap(),
            catalog::lg_g5_spec().unwrap(),
            catalog::pixel_spec().unwrap(),
            catalog::pixel2_spec().unwrap(),
        ] {
            spec.validate().unwrap();
            let cores: u32 = spec.soc.clusters.iter().map(|c| c.cores).sum();
            assert!(cores >= 4);
            let t = &spec.thermal;
            let resistance = t.die_to_package + t.package_to_case + t.case_to_ambient;
            assert!(resistance.value() > 0.0);
        }
    }

    #[test]
    fn validation_catches_broken_specs() {
        let mut spec = catalog::nexus5_spec().unwrap();
        spec.regulator_efficiency = 1.5;
        assert!(spec.validate().is_err());

        let mut spec = catalog::nexus5_spec().unwrap();
        spec.max_battery_voltage = Volts(1.0);
        assert!(spec.validate().is_err());

        let mut spec = catalog::nexus5_spec().unwrap();
        spec.idle_power = Watts(-1.0);
        assert!(spec.validate().is_err());

        let mut spec = catalog::nexus5_spec().unwrap();
        spec.soc.clusters.clear();
        assert!(spec.validate().is_err());

        let mut spec = catalog::nexus5_spec().unwrap();
        spec.soc.clusters[0].cores = 0;
        assert!(spec.validate().is_err());

        let mut spec = catalog::nexus5_spec().unwrap();
        spec.thermal.die_capacitance = ThermalCapacitance(0.0);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn big_little_perf_weights_differ() {
        let spec = catalog::nexus6p_spec().unwrap();
        assert_eq!(spec.soc.clusters.len(), 2);
        assert!(spec.soc.clusters[0].perf_weight > spec.soc.clusters[1].perf_weight);
    }
}
