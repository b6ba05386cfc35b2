//! A device under test driven through a fault-injection gate.
//!
//! [`FaultyDevice`] wraps a [`Device`] and applies the four device-level
//! fault kinds from an armed [`pv_faults::FaultPlan`]:
//!
//! * sensor faults ([`FaultKind::ProbeStuck`], [`FaultKind::ProbeDropout`],
//!   [`FaultKind::ProbeSpike`]) corrupt what
//!   [`Dut::try_read_sensor`] reports — the die keeps its true temperature;
//! * [`FaultKind::ThrottleGlitch`] pins busy steps to the lowest operating
//!   point (a spurious thermal-daemon trip);
//! * [`FaultKind::HotplugFlap`] refuses busy steps outright (the benchmark
//!   process lost its cores mid-run). Idle steps still succeed, so a
//!   session harness waiting out the fault in simulated time always makes
//!   progress.
//!
//! With a disarmed handle (the default) every call is a plain pass-through:
//! step reports, sensor readings, and timings are bit-identical to the
//! inner device's. That property is what lets the session harness wrap
//! *every* device unconditionally and arm faults only when asked.

use crate::device::{CpuDemand, Device, Dut, FrequencyMode, StepReport};
use crate::SocError;
use core::fmt;
use pv_faults::{FaultHandle, FaultKind};
use pv_units::{Celsius, MegaHertz, Seconds, TempDelta};

/// A [`Device`] whose sensor and scheduler pass through injected faults.
///
/// See the [module docs](self) for fault semantics.
#[derive(Debug)]
pub struct FaultyDevice {
    inner: Device,
    faults: FaultHandle,
    stuck_reading: Option<Celsius>,
}

impl FaultyDevice {
    /// Wraps `device`, gating it on `faults`. A disarmed handle makes the
    /// wrapper fully transparent.
    pub fn new(device: Device, faults: FaultHandle) -> Self {
        Self {
            inner: device,
            faults,
            stuck_reading: None,
        }
    }

    /// Lowest operating point across the device's clusters — where an
    /// injected throttle glitch pins the frequency.
    fn frequency_floor(&self) -> MegaHertz {
        self.inner
            .tables()
            .iter()
            .map(|t| t.min_freq())
            .fold(MegaHertz(f64::INFINITY), |a, b| {
                if b.value() < a.value() {
                    b
                } else {
                    a
                }
            })
    }
}

impl Dut for FaultyDevice {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn die_temp(&self) -> Celsius {
        self.inner.die_temp()
    }

    fn set_ambient(&mut self, ambient: Celsius) -> Result<(), SocError> {
        self.inner.set_ambient(ambient)
    }

    fn try_read_sensor(&mut self) -> Result<Celsius, SocError> {
        if let Some(e) = self.faults.active(FaultKind::ProbeDropout) {
            self.faults
                .report_once(&e, || "device sensor returned no reading".into());
            return Err(SocError::Thermal(pv_thermal::ThermalError::ProbeDropout));
        }
        if let Some(e) = self.faults.active(FaultKind::ProbeStuck) {
            let held = match self.stuck_reading {
                Some(held) => held,
                None => {
                    let first = self.inner.read_sensor();
                    self.stuck_reading = Some(first);
                    first
                }
            };
            self.faults
                .report_once(&e, || format!("device sensor stuck at {held}"));
            return Ok(held);
        }
        self.stuck_reading = None;
        let mut reading = self.inner.read_sensor();
        if let Some(e) = self.faults.active(FaultKind::ProbeSpike) {
            reading += TempDelta(e.magnitude);
            self.faults.report_once(&e, || {
                format!("device sensor spiked by {:+.2} K", e.magnitude)
            });
        }
        Ok(reading)
    }

    fn step(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
    ) -> Result<StepReport, SocError> {
        let mut report = StepReport::empty();
        self.step_into(dt, demand, mode, &mut report)?;
        Ok(report)
    }

    fn step_into(
        &mut self,
        dt: Seconds,
        demand: CpuDemand,
        mode: FrequencyMode,
        out: &mut StepReport,
    ) -> Result<(), SocError> {
        // A flapping core only breaks *busy* work: the housekeeping core
        // that idles the device stays up, so waiting out the fault in
        // simulated time always progresses.
        if matches!(demand, CpuDemand::Busy { .. }) {
            if let Some(e) = self.faults.active(FaultKind::HotplugFlap) {
                self.faults
                    .report_once(&e, || "core flapped offline; busy step refused".into());
                return Err(SocError::HotplugFlap);
            }
        }
        let mut mode = mode;
        if let Some(e) = self.faults.active(FaultKind::ThrottleGlitch) {
            let floor = self.frequency_floor();
            self.faults.report_once(&e, || {
                format!("spurious throttle pinned frequency to {floor}")
            });
            mode = FrequencyMode::Fixed(floor);
        }
        self.inner.step_into(dt, demand, mode, out)
    }

    fn set_integrator(&mut self, integrator: pv_thermal::network::Integrator) {
        self.inner.set_integrator(integrator);
    }
}

impl fmt::Display for FaultyDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gate = if self.faults.is_armed() {
            "faults armed"
        } else {
            "faults disarmed"
        };
        write!(f, "{} ({gate})", self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use pv_faults::{FaultEvent, FaultPlan};
    use pv_silicon::binning::BinId;

    fn device() -> Device {
        catalog::nexus5(BinId(3)).unwrap()
    }

    #[test]
    fn disarmed_wrapper_matches_plain_device() {
        let mut plain = device();
        let mut gated = FaultyDevice::new(device(), FaultHandle::disarmed());
        for i in 0..50 {
            let demand = if i % 5 == 0 {
                CpuDemand::Idle
            } else {
                CpuDemand::busy()
            };
            let a = plain
                .step(Seconds(0.1), demand, FrequencyMode::Unconstrained)
                .unwrap();
            let b = Dut::step(
                &mut gated,
                Seconds(0.1),
                demand,
                FrequencyMode::Unconstrained,
            )
            .unwrap();
            assert_eq!(a, b);
            assert_eq!(plain.read_sensor(), gated.try_read_sensor().unwrap());
        }
    }

    #[test]
    fn hotplug_flap_refuses_busy_but_not_idle() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 0.0,
            duration: 10.0,
            kind: FaultKind::HotplugFlap,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut d = FaultyDevice::new(device(), handle.clone());
        assert!(matches!(
            Dut::step(
                &mut d,
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained
            ),
            Err(SocError::HotplugFlap)
        ));
        // Idle steps keep working, so simulated time can pass the window.
        Dut::step(
            &mut d,
            Seconds(0.5),
            CpuDemand::Idle,
            FrequencyMode::Unconstrained,
        )
        .unwrap();
        handle.advance(10.0);
        Dut::step(
            &mut d,
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        )
        .unwrap();
        assert_eq!(handle.report_count(), 1);
    }

    #[test]
    fn throttle_glitch_pins_to_frequency_floor() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 0.0,
            duration: 10.0,
            kind: FaultKind::ThrottleGlitch,
            magnitude: 0.0,
        });
        let handle = FaultHandle::armed(plan);
        let mut d = FaultyDevice::new(device(), handle.clone());
        let floor = d.frequency_floor();
        let r = Dut::step(
            &mut d,
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        )
        .unwrap();
        for f in &r.cluster_freqs {
            assert!(f.value() <= floor.value() + 1e-9);
        }
        // Past the window, full speed returns.
        handle.advance(20.0);
        let r = Dut::step(
            &mut d,
            Seconds(0.1),
            CpuDemand::busy(),
            FrequencyMode::Unconstrained,
        )
        .unwrap();
        assert!(r.cluster_freqs.iter().any(|f| f.value() > floor.value()));
    }

    #[test]
    fn sensor_faults_gate_reads() {
        let plan = FaultPlan::empty()
            .with_event(FaultEvent {
                at: 0.0,
                duration: 5.0,
                kind: FaultKind::ProbeDropout,
                magnitude: 0.0,
            })
            .with_event(FaultEvent {
                at: 10.0,
                duration: 5.0,
                kind: FaultKind::ProbeStuck,
                magnitude: 0.0,
            })
            .with_event(FaultEvent {
                at: 20.0,
                duration: 5.0,
                kind: FaultKind::ProbeSpike,
                magnitude: 2.5,
            });
        let handle = FaultHandle::armed(plan);
        let mut d = FaultyDevice::new(device(), handle.clone());
        assert!(matches!(
            d.try_read_sensor(),
            Err(SocError::Thermal(pv_thermal::ThermalError::ProbeDropout))
        ));
        handle.advance(10.0);
        let held = d.try_read_sensor().unwrap();
        // Heat the device; the stuck sensor does not move.
        for _ in 0..20 {
            Dut::step(
                &mut d,
                Seconds(0.1),
                CpuDemand::busy(),
                FrequencyMode::Unconstrained,
            )
            .unwrap();
        }
        assert_eq!(d.try_read_sensor().unwrap(), held);
        handle.advance(10.0);
        let spiked = d.try_read_sensor().unwrap();
        handle.advance(10.0);
        let clean = d.try_read_sensor().unwrap();
        // The spiked reading sits ~2.5 K above a clean one taken at the same
        // thermal state (reads differ only by sensor noise/quantisation).
        assert!(spiked.value() > clean.value() + 1.0);
        assert_eq!(handle.report_count(), 3);
    }
}
