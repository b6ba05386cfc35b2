//! Energy metering over experiment windows.
//!
//! The paper reports energy per workload phase: the meter is armed when the
//! workload starts and read when it ends. [`EnergyMeter`] accumulates
//! power × time samples and exposes the aggregate statistics experiments
//! need (total energy, average power, peak power, duration).

use crate::PowerError;
use core::fmt;
use pv_faults::{FaultHandle, FaultKind};
use pv_units::{Joules, Seconds, Watts};

/// Integrates power samples into energy over a measurement window.
///
/// # Examples
///
/// ```
/// use pv_power::EnergyMeter;
/// use pv_units::{Seconds, Watts};
///
/// let mut meter = EnergyMeter::new();
/// meter.record(Watts(2.0), Seconds(10.0))?;
/// meter.record(Watts(4.0), Seconds(10.0))?;
/// assert_eq!(meter.energy().value(), 60.0);
/// assert_eq!(meter.average_power().unwrap().value(), 3.0);
/// # Ok::<(), pv_power::PowerError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    energy: Joules,
    elapsed: Seconds,
    peak: Watts,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the load drew `power` for `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for negative/non-finite
    /// power or non-positive `dt`.
    pub fn record(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError> {
        if !(power.value() >= 0.0 && power.is_finite()) {
            return Err(PowerError::InvalidParameter("power must be >= 0"));
        }
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(PowerError::InvalidParameter("dt must be > 0"));
        }
        self.energy += power * dt;
        self.elapsed += dt;
        self.peak = self.peak.max(power);
        Ok(())
    }

    /// Total energy accumulated.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Total time accumulated.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Mean power over the window; `None` before any sample.
    pub fn average_power(&self) -> Option<Watts> {
        if self.elapsed.value() > 0.0 {
            Some(self.energy / self.elapsed)
        } else {
            None
        }
    }

    /// Highest instantaneous power recorded.
    pub fn peak_power(&self) -> Watts {
        self.peak
    }
}

/// An [`EnergyMeter`] recorded through a fault-injection gate.
///
/// With a disarmed [`FaultHandle`] (the default) every record is a plain
/// pass-through and the accumulated statistics are bit-identical to the
/// inner meter's. With an armed handle, three meter fault kinds apply at
/// record time:
///
/// * [`FaultKind::MeterDisconnect`] — records fail with
///   [`PowerError::MeterDisconnected`] while the fault window is active.
/// * [`FaultKind::MeterMissedSample`] — the sample is silently dropped
///   (energy and time are simply not accumulated, as when a real meter's
///   USB buffer overruns).
/// * [`FaultKind::MeterGainDrift`] — recorded power is scaled by
///   `1 + magnitude` (multiplicative calibration error).
#[derive(Debug, Clone, Default)]
pub struct FaultyMeter {
    inner: EnergyMeter,
    faults: FaultHandle,
}

impl FaultyMeter {
    /// Creates a zeroed meter gated on `faults`.
    pub fn new(faults: FaultHandle) -> Self {
        Self {
            inner: EnergyMeter::new(),
            faults,
        }
    }

    /// Records that the load drew `power` for `dt`, subject to active
    /// meter faults.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::MeterDisconnected`] while a disconnect window
    /// is active, and propagates [`EnergyMeter::record`] validation errors.
    pub fn record(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError> {
        if let Some(e) = self.faults.active(FaultKind::MeterDisconnect) {
            self.faults
                .report_once(&e, || "meter disconnected; sample lost".into());
            return Err(PowerError::MeterDisconnected);
        }
        if let Some(e) = self.faults.active(FaultKind::MeterMissedSample) {
            self.faults
                .report_once(&e, || "meter missed samples (buffer overrun)".into());
            return Ok(());
        }
        let mut power = power;
        if let Some(e) = self.faults.active(FaultKind::MeterGainDrift) {
            power = Watts(power.value() * (1.0 + e.magnitude));
            self.faults.report_once(&e, || {
                format!("meter gain drifted by {:+.1}%", e.magnitude * 100.0)
            });
        }
        self.inner.record(power, dt)
    }

    /// Total energy accumulated.
    pub fn energy(&self) -> Joules {
        self.inner.energy()
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} over {:.1} (avg {:.3}, peak {:.3})",
            self.energy,
            self.elapsed,
            self.average_power().unwrap_or(Watts::ZERO),
            self.peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_piecewise_constant_power() {
        let mut m = EnergyMeter::new();
        m.record(Watts(1.0), Seconds(5.0)).unwrap();
        m.record(Watts(3.0), Seconds(5.0)).unwrap();
        assert_eq!(m.energy(), Joules(20.0));
        assert_eq!(m.elapsed(), Seconds(10.0));
        assert_eq!(m.average_power(), Some(Watts(2.0)));
        assert_eq!(m.peak_power(), Watts(3.0));
    }

    #[test]
    fn fresh_meter_is_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.energy(), Joules::ZERO);
        assert_eq!(m.average_power(), None);
        assert_eq!(m.peak_power(), Watts::ZERO);
    }

    #[test]
    fn zero_power_accumulates_time_only() {
        let mut m = EnergyMeter::new();
        m.record(Watts(0.0), Seconds(5.0)).unwrap();
        assert_eq!(m.energy(), Joules::ZERO);
        assert_eq!(m.elapsed(), Seconds(5.0));
        assert_eq!(m.average_power(), Some(Watts::ZERO));
    }

    #[test]
    fn validates_inputs() {
        let mut m = EnergyMeter::new();
        assert!(m.record(Watts(-1.0), Seconds(1.0)).is_err());
        assert!(m.record(Watts(1.0), Seconds(0.0)).is_err());
        assert!(m.record(Watts(f64::INFINITY), Seconds(1.0)).is_err());
        assert!(m.record(Watts(1.0), Seconds(f64::NAN)).is_err());
        // Failed records leave the meter untouched.
        assert_eq!(m, EnergyMeter::new());
    }

    #[test]
    fn disarmed_faulty_meter_matches_plain() {
        let mut plain = EnergyMeter::new();
        let mut gated = FaultyMeter::new(FaultHandle::disarmed());
        for i in 1..=20 {
            let p = Watts(f64::from(i) * 0.37);
            plain.record(p, Seconds(0.1)).unwrap();
            gated.record(p, Seconds(0.1)).unwrap();
        }
        assert_eq!(gated.inner, plain);
    }

    #[test]
    fn meter_faults_apply_in_window() {
        use pv_faults::{FaultEvent, FaultPlan};
        let plan = FaultPlan::empty()
            .with_event(FaultEvent {
                at: 1.0,
                duration: 1.0,
                kind: FaultKind::MeterMissedSample,
                magnitude: 0.0,
            })
            .with_event(FaultEvent {
                at: 3.0,
                duration: 1.0,
                kind: FaultKind::MeterGainDrift,
                magnitude: 0.5,
            })
            .with_event(FaultEvent {
                at: 5.0,
                duration: 1.0,
                kind: FaultKind::MeterDisconnect,
                magnitude: 0.0,
            });
        let handle = FaultHandle::armed(plan);
        let mut m = FaultyMeter::new(handle.clone());
        // t = 0: clean sample.
        m.record(Watts(2.0), Seconds(1.0)).unwrap();
        // t = 1: missed sample — accepted but not accumulated.
        handle.advance(1.0);
        m.record(Watts(2.0), Seconds(1.0)).unwrap();
        assert_eq!(m.inner.elapsed(), Seconds(1.0));
        assert_eq!(m.energy(), Joules(2.0));
        // t = 3: gain drift scales recorded power by 1.5.
        handle.advance(2.0);
        m.record(Watts(2.0), Seconds(1.0)).unwrap();
        assert_eq!(m.energy(), Joules(2.0 + 3.0));
        // t = 5: disconnected.
        handle.advance(2.0);
        assert_eq!(
            m.record(Watts(2.0), Seconds(1.0)),
            Err(PowerError::MeterDisconnected)
        );
        // t = 7: window passed; clean again.
        handle.advance(2.0);
        m.record(Watts(2.0), Seconds(1.0)).unwrap();
        assert_eq!(m.energy(), Joules(7.0));
        assert_eq!(handle.report_count(), 3);
    }

    #[test]
    fn display_shows_energy() {
        let mut m = EnergyMeter::new();
        m.record(Watts(2.0), Seconds(3.0)).unwrap();
        assert!(format!("{m}").contains("6.00 J"));
    }
}
