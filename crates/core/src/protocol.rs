//! The ACCUBENCH protocol definition.
//!
//! A [`Protocol`] captures the §III parameters: warmup length, cooldown
//! target and polling cadence, workload length, the frequency mode
//! (UNCONSTRAINED vs FIXED-FREQUENCY), and simulation step sizes.

use crate::BenchError;
use pv_soc::device::FrequencyMode;
use pv_thermal::network::Integrator;
use pv_units::{Celsius, MegaHertz, Seconds, TempDelta};

/// When the cooldown phase ends: the sensor must report below this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CooldownTarget {
    /// A fixed absolute temperature (what the paper's app used inside the
    /// always-26 °C THERMABOX).
    Absolute(Celsius),
    /// Ambient plus a margin — needed when sweeping ambient (Fig 2), where
    /// a fixed 32 °C target is unreachable in a 40 °C chamber.
    AboveAmbient(TempDelta),
}

impl CooldownTarget {
    /// Resolves the target against the current ambient temperature.
    pub fn resolve(&self, ambient: Celsius) -> Celsius {
        match self {
            CooldownTarget::Absolute(t) => *t,
            CooldownTarget::AboveAmbient(d) => ambient + *d,
        }
    }
}

/// Full parameterisation of one ACCUBENCH run.
///
/// # Examples
///
/// ```
/// use accubench::protocol::Protocol;
/// use pv_units::{MegaHertz, Seconds};
///
/// // The paper's two workloads:
/// let unconstrained = Protocol::unconstrained();
/// let fixed = Protocol::fixed_frequency(MegaHertz(960.0));
/// assert_eq!(unconstrained.warmup, Seconds(180.0));
/// assert_eq!(fixed.workload, Seconds(300.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Warmup phase duration (paper: 3 minutes).
    pub warmup: Seconds,
    /// Cooldown sensor polling period (paper: 5 seconds).
    pub cooldown_poll: Seconds,
    /// Temperature at which cooldown ends and the workload starts.
    pub cooldown_target: CooldownTarget,
    /// Give up on cooldown after this long (the workload then starts warm
    /// and the iteration is flagged).
    pub cooldown_timeout: Seconds,
    /// Workload phase duration (paper: 5 minutes).
    pub workload: Seconds,
    /// Simulation step during busy phases.
    pub busy_dt: Seconds,
    /// Simulation step during the sleeping cooldown phase.
    pub idle_dt: Seconds,
    /// UNCONSTRAINED or FIXED-FREQUENCY.
    pub mode: FrequencyMode,
    /// Whether to keep full per-step traces (Figs 4/5/11/12 need them; the
    /// bulk studies do not).
    pub record_trace: bool,
    /// Thermal integration scheme the harness pins on the DUT at the start
    /// of every iteration. Part of the recorded configuration: sweeps fold
    /// it into the journal's config digest, so resuming a journal with a
    /// different integrator is rejected rather than silently mixed.
    pub integrator: Integrator,
}

impl Protocol {
    /// The paper's UNCONSTRAINED workload: 3 min warmup, cooldown to
    /// ambient + 6 K polling every 5 s, 5 min workload at unconstrained
    /// frequency.
    pub fn unconstrained() -> Self {
        Self {
            warmup: Seconds::from_minutes(3.0),
            cooldown_poll: Seconds(5.0),
            cooldown_target: CooldownTarget::AboveAmbient(TempDelta(6.0)),
            cooldown_timeout: Seconds::from_minutes(30.0),
            workload: Seconds::from_minutes(5.0),
            busy_dt: Seconds(0.1),
            idle_dt: Seconds(0.5),
            mode: FrequencyMode::Unconstrained,
            record_trace: false,
            integrator: Integrator::Euler,
        }
    }

    /// The paper's FIXED-FREQUENCY workload: identical phases, but every
    /// cluster pinned at (the ladder step at or below) `freq`, "guaranteed
    /// to not thermally throttle".
    pub fn fixed_frequency(freq: MegaHertz) -> Self {
        Self {
            mode: FrequencyMode::Fixed(freq),
            ..Self::unconstrained()
        }
    }

    /// Enables full tracing (builder-style).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Overrides the workload duration (builder-style).
    pub fn with_workload(mut self, workload: Seconds) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the warmup duration (builder-style).
    pub fn with_warmup(mut self, warmup: Seconds) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the cooldown target (builder-style).
    pub fn with_cooldown_target(mut self, target: CooldownTarget) -> Self {
        self.cooldown_target = target;
        self
    }

    /// Overrides the thermal integration scheme (builder-style). The
    /// default, [`Integrator::Euler`], reproduces the original reference
    /// arithmetic bit-for-bit; [`Integrator::Exponential`] is the fast
    /// path (see DESIGN.md §11 for the tolerance budget).
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Simulated time a session of `iterations` iterations may take: every
    /// iteration at full length (warmup, cooldown timeout, workload), times
    /// 4 for retries and backoff. Sweeps draw their fault plans over it,
    /// and sweeps and `accubench` arm it as the default simulated-time
    /// budget: no healthy session approaches it, while a wedged one stops
    /// on it deterministically (DESIGN.md §12).
    pub fn fault_horizon(&self, iterations: usize) -> f64 {
        (self.warmup.value() + self.cooldown_timeout.value() + self.workload.value())
            * iterations as f64
            * 4.0
    }

    /// Validates all durations and steps.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidProtocol`] naming the offending field.
    pub fn validate(&self) -> Result<(), BenchError> {
        for (v, what) in [
            (self.warmup.value(), "warmup must be >= 0"),
            (self.workload.value(), "workload must be >= 0"),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(BenchError::InvalidProtocol(what));
            }
        }
        for (v, what) in [
            (self.cooldown_poll.value(), "cooldown_poll must be > 0"),
            (
                self.cooldown_timeout.value(),
                "cooldown_timeout must be > 0",
            ),
            (self.busy_dt.value(), "busy_dt must be > 0"),
            (self.idle_dt.value(), "idle_dt must be > 0"),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(BenchError::InvalidProtocol(what));
            }
        }
        if self.busy_dt > self.workload.max(Seconds(1.0)) {
            return Err(BenchError::InvalidProtocol("busy_dt larger than workload"));
        }
        match self.cooldown_target {
            CooldownTarget::Absolute(t) if !t.is_finite() => {
                return Err(BenchError::InvalidProtocol("cooldown target non-finite"))
            }
            CooldownTarget::AboveAmbient(d) if !(d.value() > 0.0 && d.is_finite()) => {
                return Err(BenchError::InvalidProtocol("cooldown margin must be > 0"))
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = Protocol::unconstrained();
        assert_eq!(p.warmup, Seconds(180.0));
        assert_eq!(p.workload, Seconds(300.0));
        assert_eq!(p.cooldown_poll, Seconds(5.0));
        assert_eq!(p.mode, FrequencyMode::Unconstrained);
        assert!(!p.record_trace);
        // Euler is the seed-era reference; fast paths are opt-in.
        assert_eq!(p.integrator, Integrator::Euler);
        p.validate().unwrap();
    }

    #[test]
    fn with_integrator_only_changes_integrator() {
        let base = Protocol::unconstrained();
        let fast = base.with_integrator(Integrator::Exponential);
        assert_eq!(fast.integrator, Integrator::Exponential);
        assert_eq!(
            Protocol {
                integrator: Integrator::Euler,
                ..fast
            },
            base
        );
        fast.validate().unwrap();
    }

    #[test]
    fn fixed_frequency_only_changes_mode() {
        let u = Protocol::unconstrained();
        let f = Protocol::fixed_frequency(MegaHertz(960.0));
        assert_eq!(f.mode, FrequencyMode::Fixed(MegaHertz(960.0)));
        assert_eq!(f.warmup, u.warmup);
        assert_eq!(f.workload, u.workload);
        f.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let p = Protocol::unconstrained()
            .with_trace()
            .with_workload(Seconds(60.0))
            .with_warmup(Seconds(30.0))
            .with_cooldown_target(CooldownTarget::Absolute(Celsius(30.0)));
        assert!(p.record_trace);
        assert_eq!(p.workload, Seconds(60.0));
        assert_eq!(p.warmup, Seconds(30.0));
        assert_eq!(p.cooldown_target.resolve(Celsius(26.0)), Celsius(30.0));
        p.validate().unwrap();
    }

    #[test]
    fn cooldown_target_resolution() {
        let abs = CooldownTarget::Absolute(Celsius(32.0));
        assert_eq!(abs.resolve(Celsius(40.0)), Celsius(32.0));
        let rel = CooldownTarget::AboveAmbient(TempDelta(6.0));
        assert_eq!(rel.resolve(Celsius(40.0)), Celsius(46.0));
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = Protocol::unconstrained();
        p.busy_dt = Seconds(0.0);
        assert!(p.validate().is_err());

        let mut p = Protocol::unconstrained();
        p.idle_dt = Seconds(-1.0);
        assert!(p.validate().is_err());

        let mut p = Protocol::unconstrained();
        p.warmup = Seconds(f64::NAN);
        assert!(p.validate().is_err());

        let mut p = Protocol::unconstrained();
        p.cooldown_target = CooldownTarget::AboveAmbient(TempDelta(0.0));
        assert!(p.validate().is_err());

        let mut p = Protocol::unconstrained();
        p.cooldown_target = CooldownTarget::Absolute(Celsius(f64::INFINITY));
        assert!(p.validate().is_err());
    }
}
