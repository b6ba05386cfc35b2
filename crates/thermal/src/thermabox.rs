//! THERMABOX — the paper's controlled thermal chamber.
//!
//! The paper's experiments all ran inside a chamber held at 26 ± 0.5 °C by a
//! RaspberryPi reading a thermistor probe and power-cycling two plants: a
//! compressor (cooling) and a 250 W halogen lamp (heating) (§III, Fig 3).
//! [`ThermaBox`] reproduces that control loop over a single lumped air node:
//!
//! ```text
//! C_air · dT/dt = P_heater·[heating] − P_cooler·[cooling] + P_device
//!                 − (T − T_outside)/R_wall
//! ```
//!
//! The bang-bang controller samples the probe once per control period and
//! switches plants at the deadband edges, exactly like the real hardware.
//! The device under test dumps its dissipated power into the chamber air,
//! so a hot phone genuinely warms the box and the controller genuinely
//! compensates — the feedback the paper's reproducibility depends on.

use crate::probe::Probe;
use crate::ThermalError;
use core::fmt;
use pv_faults::{FaultHandle, FaultKind};
use pv_units::{Celsius, Seconds, TempDelta, ThermalCapacitance, ThermalResistance, Watts};

/// Which plant the controller currently runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlantMode {
    /// Both plants off; the chamber drifts toward outside temperature.
    #[default]
    Idle,
    /// The halogen lamp is on.
    Heating,
    /// The compressor is on.
    Cooling,
}

impl fmt::Display for PlantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlantMode::Idle => "idle",
            PlantMode::Heating => "heating",
            PlantMode::Cooling => "cooling",
        };
        write!(f, "{s}")
    }
}

/// Configuration of a [`ThermaBox`].
///
/// [`ThermaBoxConfig::default`] reproduces the paper's setup: 26 °C target,
/// ±0.5 °C deadband, 250 W halogen heater.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermaBoxConfig {
    /// Temperature the controller regulates toward.
    pub target: Celsius,
    /// Half-width of the acceptance band (the paper's ±0.5 °C).
    pub deadband: TempDelta,
    /// Heating plant power (250 W halogen lamp in the paper).
    pub heater_power: Watts,
    /// Cooling plant extraction power (compressor).
    pub cooler_power: Watts,
    /// Effective heat capacity of the chamber air + contents.
    pub air_capacitance: ThermalCapacitance,
    /// Thermal resistance of the chamber walls to the room.
    pub wall_resistance: ThermalResistance,
    /// Room temperature outside the chamber.
    pub outside_temp: Celsius,
    /// How often the controller samples the probe and switches plants.
    pub control_period: Seconds,
    /// Probe lag time constant.
    pub probe_tau: Seconds,
    /// Probe Gaussian read-noise standard deviation.
    pub probe_noise: TempDelta,
    /// Seed for the probe noise stream.
    pub seed: u64,
}

impl Default for ThermaBoxConfig {
    fn default() -> Self {
        Self {
            target: Celsius(26.0),
            deadband: TempDelta(0.5),
            heater_power: Watts(250.0),
            cooler_power: Watts(300.0),
            air_capacitance: ThermalCapacitance(2500.0),
            wall_resistance: ThermalResistance(0.12),
            outside_temp: Celsius(22.0),
            control_period: Seconds(1.0),
            probe_tau: Seconds(3.0),
            probe_noise: TempDelta(0.02),
            seed: 0xACC0_BE9C,
        }
    }
}

/// The simulated controlled thermal chamber.
///
/// # Examples
///
/// ```
/// use pv_thermal::thermabox::{ThermaBox, ThermaBoxConfig};
/// use pv_units::{Seconds, Watts};
///
/// let mut chamber = ThermaBox::new(ThermaBoxConfig::default())?;
/// let settle = chamber.settle(Seconds(3600.0))?;
/// assert!(settle.value() < 3600.0);
/// // Hold for ten minutes against a 4 W device: stays within the band.
/// for _ in 0..600 {
///     chamber.step(Seconds(1.0), Watts(4.0))?;
///     assert!(chamber.deviation().abs().value() < 0.8);
/// }
/// # Ok::<(), pv_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThermaBox {
    cfg: ThermaBoxConfig,
    air: Celsius,
    mode: PlantMode,
    probe: Probe,
    since_control: f64,
    stalled: bool,
}

impl ThermaBox {
    /// Creates a chamber at outside temperature with plants idle.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive powers,
    /// capacitance, resistance, control period, or deadband, or non-finite
    /// temperatures.
    pub fn new(cfg: ThermaBoxConfig) -> Result<Self, ThermalError> {
        if !(cfg.deadband.value() > 0.0 && cfg.deadband.is_finite()) {
            return Err(ThermalError::InvalidParameter("deadband must be > 0"));
        }
        if !(cfg.heater_power.value() > 0.0 && cfg.heater_power.is_finite()) {
            return Err(ThermalError::InvalidParameter("heater_power must be > 0"));
        }
        if !(cfg.cooler_power.value() > 0.0 && cfg.cooler_power.is_finite()) {
            return Err(ThermalError::InvalidParameter("cooler_power must be > 0"));
        }
        if !(cfg.air_capacitance.value() > 0.0 && cfg.air_capacitance.is_finite()) {
            return Err(ThermalError::InvalidParameter(
                "air_capacitance must be > 0",
            ));
        }
        if !(cfg.wall_resistance.value() > 0.0 && cfg.wall_resistance.is_finite()) {
            return Err(ThermalError::InvalidParameter(
                "wall_resistance must be > 0",
            ));
        }
        if !(cfg.control_period.value() > 0.0 && cfg.control_period.is_finite()) {
            return Err(ThermalError::InvalidParameter("control_period must be > 0"));
        }
        if !(cfg.target.is_finite() && cfg.outside_temp.is_finite()) {
            return Err(ThermalError::InvalidParameter("temperature non-finite"));
        }
        let mut probe = Probe::new(cfg.probe_tau, cfg.probe_noise, TempDelta(0.0), cfg.seed)?;
        probe.reset(cfg.outside_temp);
        Ok(Self {
            air: cfg.outside_temp,
            mode: PlantMode::Idle,
            probe,
            since_control: f64::INFINITY, // decide immediately on first step
            stalled: false,
            cfg,
        })
    }

    /// The chamber configuration.
    pub fn config(&self) -> &ThermaBoxConfig {
        &self.cfg
    }

    /// True chamber air temperature.
    pub fn air_temp(&self) -> Celsius {
        self.air
    }

    /// Plant currently engaged.
    pub fn mode(&self) -> PlantMode {
        self.mode
    }

    /// Signed deviation of the air temperature from the target.
    pub fn deviation(&self) -> TempDelta {
        self.air - self.cfg.target
    }

    /// Whether the chamber is inside the acceptance band right now.
    pub fn is_stable(&self) -> bool {
        self.deviation().abs() <= self.cfg.deadband
    }

    /// Freezes or unfreezes the bang-bang controller. While stalled the
    /// plants hold their last commanded state and the probe is never
    /// consulted — the injected "RaspberryPi hung" failure mode. Physics
    /// (wall losses, device heat) keeps integrating normally.
    pub fn set_controller_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Instantly offsets the chamber air temperature by `delta` — the
    /// injected band-excursion failure mode (door opened, plant misfire).
    /// The controller sees the excursion through the probe and recovers on
    /// its own.
    pub fn perturb_air(&mut self, delta: TempDelta) {
        self.air += delta;
    }

    /// Advances the chamber by `dt` with the device under test dissipating
    /// `device_heat` into the air. Internally sub-steps so the controller is
    /// consulted every control period regardless of `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive `dt` or a
    /// negative / non-finite `device_heat`.
    pub fn step(&mut self, dt: Seconds, device_heat: Watts) -> Result<(), ThermalError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be > 0"));
        }
        if !(device_heat.value() >= 0.0 && device_heat.is_finite()) {
            return Err(ThermalError::InvalidParameter("device_heat must be >= 0"));
        }
        let mut remaining = dt.value();
        // Integrate with substeps no longer than half the control period
        // (and at most 0.5 s) so plant switching is resolved.
        let max_h = (self.cfg.control_period.value() / 2.0).min(0.5);
        while remaining > 0.0 {
            let h = remaining.min(max_h);
            // Controller acts on probe readings at control-period boundaries
            // (unless an injected stall has frozen it).
            if !self.stalled && self.since_control >= self.cfg.control_period.value() {
                let reading = self.probe.read();
                let low = self.cfg.target - self.cfg.deadband;
                let high = self.cfg.target + self.cfg.deadband;
                // Asymmetric hysteresis: plants engage at the band edges but
                // run until the midline, so the air oscillates *around* the
                // target instead of riding one edge.
                self.mode = match self.mode {
                    PlantMode::Heating if reading < self.cfg.target => PlantMode::Heating,
                    PlantMode::Cooling if reading > self.cfg.target => PlantMode::Cooling,
                    _ => {
                        if reading < low {
                            PlantMode::Heating
                        } else if reading > high {
                            PlantMode::Cooling
                        } else {
                            PlantMode::Idle
                        }
                    }
                };
                self.since_control = 0.0;
            }
            let plant = match self.mode {
                PlantMode::Idle => Watts::ZERO,
                PlantMode::Heating => self.cfg.heater_power,
                PlantMode::Cooling => -self.cfg.cooler_power,
            };
            let wall_loss = (self.air - self.cfg.outside_temp) / self.cfg.wall_resistance;
            let net = plant + device_heat - wall_loss;
            let delta = (net * Seconds(h)) / self.cfg.air_capacitance;
            self.air += delta;
            self.probe.observe(self.air, Seconds(h))?;
            self.since_control += h;
            remaining -= h;
        }
        Ok(())
    }

    /// Runs the chamber (no device load) until it reports stable, returning
    /// the time taken. Mirrors the benchmarking app's start-up handshake:
    /// "the app first communicates with the THERMABOX and confirms that it
    /// is within the target temperature range."
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if the chamber cannot
    /// settle within `max_time` (undersized plants or unreachable target).
    pub fn settle(&mut self, max_time: Seconds) -> Result<Seconds, ThermalError> {
        let mut elapsed = 0.0;
        // Require several consecutive stable controller periods, so we do
        // not declare victory while shooting through the band.
        let mut stable_time = 0.0;
        let hold_needed = (5.0 * self.cfg.control_period.value()).max(5.0);
        while elapsed < max_time.value() {
            let h = self.cfg.control_period.value();
            self.step(Seconds(h), Watts::ZERO)?;
            elapsed += h;
            if self.is_stable() {
                stable_time += h;
                if stable_time >= hold_needed {
                    return Ok(Seconds(elapsed));
                }
            } else {
                stable_time = 0.0;
            }
        }
        Err(ThermalError::InvalidParameter(
            "chamber failed to settle within max_time",
        ))
    }
}

/// A [`ThermaBox`] driven through a fault-injection gate.
///
/// With a disarmed [`FaultHandle`] (the default) every call delegates
/// unchanged, so chamber behaviour is bit-identical to the plain box. With
/// an armed handle, two chamber fault kinds apply:
///
/// * [`FaultKind::ChamberControllerStall`] — the bang-bang controller
///   freezes for the fault window (plants hold their last state), then
///   resumes.
/// * [`FaultKind::ChamberBandExcursion`] — the chamber air is kicked once
///   per event by the event's magnitude, interpreted in kelvin.
///
/// The wrapper reads the *shared* fault clock; it never advances it during
/// [`FaultyThermaBox::step`] — the session harness owns simulated time so
/// device and chamber faults stay on one timeline. The one exception is
/// [`FaultyThermaBox::settle`], which runs outside the coupled loop and
/// advances the clock by the time it consumed.
#[derive(Debug, Clone)]
pub struct FaultyThermaBox {
    inner: ThermaBox,
    faults: FaultHandle,
    last_excursion: Option<f64>,
}

impl FaultyThermaBox {
    /// Wraps `chamber`, gating control on `faults`.
    pub fn new(chamber: ThermaBox, faults: FaultHandle) -> Self {
        Self {
            inner: chamber,
            faults,
            last_excursion: None,
        }
    }

    /// Applies whatever chamber faults are active at the current fault
    /// clock: engages/clears controller stall, fires pending excursions.
    fn apply_faults(&mut self) {
        match self.faults.active(FaultKind::ChamberControllerStall) {
            Some(e) => {
                self.inner.set_controller_stalled(true);
                self.faults
                    .report_once(&e, || "chamber controller stalled (plants frozen)".into());
            }
            None => self.inner.set_controller_stalled(false),
        }
        if let Some(e) = self.faults.active(FaultKind::ChamberBandExcursion) {
            // One kick per scheduled event, however many steps its window
            // spans — an excursion is an impulse, not a sustained offset.
            if self.last_excursion != Some(e.at) {
                self.last_excursion = Some(e.at);
                self.inner.perturb_air(TempDelta(e.magnitude));
                self.faults.report_once(&e, || {
                    format!("chamber air kicked by {:+.2} K", e.magnitude)
                });
            }
        }
    }

    /// Advances the chamber by `dt` (see [`ThermaBox::step`]), first
    /// applying any faults active at the current fault clock.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermaBox::step`] validation errors.
    pub fn step(&mut self, dt: Seconds, device_heat: Watts) -> Result<(), ThermalError> {
        self.apply_faults();
        self.inner.step(dt, device_heat)
    }

    /// Settles the chamber (see [`ThermaBox::settle`]) and advances the
    /// fault clock by the time it took.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::ChamberStalled`] if a controller-stall fault
    /// is active when settling starts — a hung controller can never confirm
    /// the band; propagates [`ThermaBox::settle`] errors otherwise.
    pub fn settle(&mut self, max_time: Seconds) -> Result<Seconds, ThermalError> {
        self.apply_faults();
        if let Some(e) = self.faults.active(FaultKind::ChamberControllerStall) {
            self.faults
                .report_once(&e, || "settle refused: controller stalled".into());
            return Err(ThermalError::ChamberStalled);
        }
        let elapsed = self.inner.settle(max_time)?;
        self.faults.advance(elapsed.value());
        Ok(elapsed)
    }

    /// True chamber air temperature.
    pub fn air_temp(&self) -> Celsius {
        self.inner.air_temp()
    }

    /// Whether the chamber is inside the acceptance band right now.
    pub fn is_stable(&self) -> bool {
        self.inner.is_stable()
    }

    /// Replaces the fault handle (re-arming or disarming the gate) and
    /// forgets any excursion already fired, so a fresh plan replays its
    /// events from scratch.
    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
        self.last_excursion = None;
        self.inner.set_controller_stalled(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settles_from_cold_room() {
        let mut boxx = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        let t = boxx.settle(Seconds(3600.0)).unwrap();
        assert!(t.value() > 0.0 && t.value() < 1200.0, "settle took {t}");
        assert!(boxx.is_stable());
    }

    #[test]
    fn settles_from_hot_room() {
        let cfg = ThermaBoxConfig {
            outside_temp: Celsius(35.0),
            ..ThermaBoxConfig::default()
        };
        let mut boxx = ThermaBox::new(cfg).unwrap();
        boxx.settle(Seconds(3600.0)).unwrap();
        assert!(boxx.deviation().abs().value() <= 0.5 + 1e-9);
    }

    #[test]
    fn holds_band_under_device_load() {
        let mut boxx = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        boxx.settle(Seconds(3600.0)).unwrap();
        let mut worst: f64 = 0.0;
        for _ in 0..1800 {
            boxx.step(Seconds(1.0), Watts(5.0)).unwrap();
            worst = worst.max(boxx.deviation().abs().value());
        }
        // The paper claims ±0.5 °C; allow a whisker for probe lag overshoot.
        assert!(worst < 0.8, "worst excursion {worst} °C");
    }

    #[test]
    fn ambient_rsd_is_paper_grade() {
        let mut boxx = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        boxx.settle(Seconds(3600.0)).unwrap();
        let mut temps = Vec::new();
        for _ in 0..3600 {
            boxx.step(Seconds(1.0), Watts(3.0)).unwrap();
            temps.push(boxx.air_temp().value());
        }
        let mean = temps.iter().sum::<f64>() / temps.len() as f64;
        let var = temps.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / temps.len() as f64;
        let rsd = var.sqrt() / mean * 100.0;
        assert!((mean - 26.0).abs() < 0.5, "mean {mean}");
        assert!(rsd < 2.0, "ambient RSD {rsd}%");
    }

    #[test]
    fn plants_cycle() {
        let mut boxx = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        boxx.settle(Seconds(3600.0)).unwrap();
        let mut saw = std::collections::HashSet::new();
        let mut switches = 0;
        let mut last = boxx.mode();
        for _ in 0..3600 {
            boxx.step(Seconds(1.0), Watts(6.0)).unwrap();
            saw.insert(format!("{}", boxx.mode()));
            if boxx.mode() != last {
                switches += 1;
                last = boxx.mode();
            }
        }
        // Holding 26 °C against a 22 °C room requires the heater to cycle
        // against wall losses; the controller must also idle inside the band.
        assert!(saw.contains("heating"), "modes seen: {saw:?}");
        assert!(saw.contains("idle"), "modes seen: {saw:?}");
        assert!(
            switches > 5,
            "controller barely cycled: {switches} switches"
        );
    }

    #[test]
    fn compressor_cycles_in_hot_room() {
        let cfg = ThermaBoxConfig {
            outside_temp: Celsius(33.0),
            ..ThermaBoxConfig::default()
        };
        let mut boxx = ThermaBox::new(cfg).unwrap();
        boxx.settle(Seconds(3600.0)).unwrap();
        let mut saw_cooling = false;
        for _ in 0..1800 {
            boxx.step(Seconds(1.0), Watts(4.0)).unwrap();
            saw_cooling |= boxx.mode() == PlantMode::Cooling;
        }
        assert!(saw_cooling, "compressor never engaged in a 33 °C room");
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut b = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
            b.settle(Seconds(3600.0)).unwrap();
            for _ in 0..100 {
                b.step(Seconds(1.0), Watts(2.0)).unwrap();
            }
            b.air_temp()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn config_validation() {
        let bad = |f: fn(&mut ThermaBoxConfig)| {
            let mut cfg = ThermaBoxConfig::default();
            f(&mut cfg);
            ThermaBox::new(cfg).is_err()
        };
        assert!(bad(|c| c.deadband = TempDelta(0.0)));
        assert!(bad(|c| c.heater_power = Watts(0.0)));
        assert!(bad(|c| c.cooler_power = Watts(-1.0)));
        assert!(bad(|c| c.air_capacitance = ThermalCapacitance(0.0)));
        assert!(bad(|c| c.wall_resistance = ThermalResistance(0.0)));
        assert!(bad(|c| c.control_period = Seconds(0.0)));
        assert!(bad(|c| c.target = Celsius(f64::NAN)));
    }

    #[test]
    fn step_validation() {
        let mut boxx = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        assert!(boxx.step(Seconds(0.0), Watts(1.0)).is_err());
        assert!(boxx.step(Seconds(1.0), Watts(-1.0)).is_err());
        assert!(boxx.step(Seconds(1.0), Watts(f64::NAN)).is_err());
    }

    #[test]
    fn disarmed_faulty_chamber_is_bit_identical() {
        let mut plain = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        let mut gated = FaultyThermaBox::new(plain.clone(), FaultHandle::disarmed());
        assert_eq!(
            plain.settle(Seconds(3600.0)).unwrap(),
            gated.settle(Seconds(3600.0)).unwrap()
        );
        for _ in 0..300 {
            plain.step(Seconds(1.0), Watts(4.0)).unwrap();
            gated.step(Seconds(1.0), Watts(4.0)).unwrap();
            assert_eq!(plain.air_temp(), gated.air_temp());
            assert_eq!(plain.mode(), gated.inner.mode());
        }
    }

    #[test]
    fn stalled_controller_freezes_plants_then_recovers() {
        use pv_faults::{FaultEvent, FaultPlan};
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 0.0,
            duration: 120.0,
            kind: FaultKind::ChamberControllerStall,
            magnitude: 0.0,
        });
        let mut chamber = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        chamber.settle(Seconds(3600.0)).unwrap();
        let handle = FaultHandle::armed(plan);
        let mut gated = FaultyThermaBox::new(chamber, handle.clone());
        // Settle refuses while the controller is hung.
        assert_eq!(
            gated.settle(Seconds(10.0)),
            Err(ThermalError::ChamberStalled)
        );
        // During the stall the mode never changes.
        let frozen = gated.inner.mode();
        for _ in 0..120 {
            gated.step(Seconds(1.0), Watts(6.0)).unwrap();
            handle.advance(1.0);
            assert_eq!(gated.inner.mode(), frozen);
        }
        // After the window the controller resumes and re-centres the band.
        for _ in 0..600 {
            gated.step(Seconds(1.0), Watts(6.0)).unwrap();
            handle.advance(1.0);
        }
        assert!(gated.is_stable(), "deviation {}", gated.inner.deviation());
        assert!(handle.report_count() >= 1);
    }

    #[test]
    fn band_excursion_kicks_air_once_per_event() {
        use pv_faults::{FaultEvent, FaultPlan};
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 5.0,
            duration: 10.0,
            kind: FaultKind::ChamberBandExcursion,
            magnitude: 4.0,
        });
        let mut chamber = ThermaBox::new(ThermaBoxConfig::default()).unwrap();
        chamber.settle(Seconds(3600.0)).unwrap();
        let before = chamber.air_temp();
        let handle = FaultHandle::armed(plan);
        let mut gated = FaultyThermaBox::new(chamber, handle.clone());
        handle.advance(5.0);
        gated.step(Seconds(0.1), Watts::ZERO).unwrap();
        // One +4 K impulse (minus a sliver of wall loss during the step).
        assert!(gated.air_temp().value() > before.value() + 3.0);
        let kicked = gated.air_temp();
        // Further steps inside the same window do not re-apply the kick
        // (plant drift over 0.1 s is far smaller than another 4 K impulse).
        handle.advance(1.0);
        gated.step(Seconds(0.1), Watts::ZERO).unwrap();
        assert!((gated.air_temp().value() - kicked.value()).abs() < 1.0);
        assert_eq!(handle.report_count(), 1);
    }

    #[test]
    fn unreachable_target_reports_failure() {
        // A 1 W heater cannot push a leaky box 30 K above the room.
        let cfg = ThermaBoxConfig {
            target: Celsius(52.0),
            heater_power: Watts(1.0),
            ..ThermaBoxConfig::default()
        };
        let mut boxx = ThermaBox::new(cfg).unwrap();
        assert!(boxx.settle(Seconds(600.0)).is_err());
    }
}
