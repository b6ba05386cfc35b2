//! Thermal and input-voltage throttling.
//!
//! Android thermal engines cap the CPU frequency in discrete steps as the
//! sensed temperature crosses trip points, with hysteresis so caps release
//! only after the die cools past a clear point. Devices differ in their
//! tables and aggressiveness — exactly the difference the paper exploits in
//! §IV-B: two Pixels with different silicon throttle *differently* even
//! under the same policy, because the leakier die cools more slowly once
//! capped.
//!
//! Two additional mechanisms appear in the paper:
//!
//! * **Core hotplug** — the Nexus 5 shuts one core down when the sensor
//!   reports 80 °C (Fig 1 caption).
//! * **Input-voltage throttling** — the LG G5 caps frequency when its power
//!   input sits at or below a voltage threshold, which is why a Monsoon at
//!   the battery's *nominal* 3.85 V makes the phone ~20 % slower (Fig 10).

use crate::SocError;
use core::fmt;
use pv_units::{Celsius, MegaHertz, Volts};

/// One thermal throttle step: at or above `trip`, frequency is capped at
/// `cap`; the step releases when the sensor falls below `clear`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleStep {
    /// Temperature at which this step engages.
    pub trip: Celsius,
    /// Temperature below which this step releases (must be ≤ `trip`).
    pub clear: Celsius,
    /// Frequency cap while engaged.
    pub cap: MegaHertz,
}

/// Core-hotplug rule: at or above `trip`, cores are shut down until only
/// `min_cores` remain; they return when the sensor falls below `clear`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotplugRule {
    /// Temperature at which cores are unplugged.
    pub trip: Celsius,
    /// Temperature below which cores come back.
    pub clear: Celsius,
    /// Cores left online while engaged (per cluster).
    pub min_cores: u32,
}

/// Critical thermal-shutdown rule: at or above `trip` the CPU is forced
/// idle (workload suspended, cores power-collapsed) until the die cools
/// below `clear`. Android's thermal engine does this as a last resort; a
/// die that cannot even survive this is a dead chip — the likely fate of
/// the paper's bin-4 unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalRule {
    /// Temperature at which the emergency stop engages.
    pub trip: Celsius,
    /// Temperature below which normal operation resumes.
    pub clear: Celsius,
}

/// Input-voltage throttle rule (LG G5): when the supply terminal voltage is
/// at or below `threshold`, every cluster's frequency is capped at
/// `cap_fraction` of its maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputVoltageRule {
    /// Terminal-voltage threshold at or below which the throttle engages.
    pub threshold: Volts,
    /// Fraction of each cluster's top frequency allowed while engaged.
    pub cap_fraction: f64,
}

/// A device's complete throttle policy.
///
/// # Examples
///
/// ```
/// use pv_soc::throttle::{ThrottlePolicy, ThrottleState, ThrottleStep};
/// use pv_units::{Celsius, MegaHertz, Volts};
///
/// let policy = ThrottlePolicy {
///     steps: vec![ThrottleStep {
///         trip: Celsius(70.0),
///         clear: Celsius(66.0),
///         cap: MegaHertz(1574.0),
///     }],
///     ..ThrottlePolicy::default()
/// };
/// policy.validate()?;
/// let mut state = ThrottleState::new();
/// let decision = state.update(&policy, Celsius(72.0), Volts(4.0));
/// assert_eq!(decision.freq_cap, Some(MegaHertz(1574.0)));
/// # Ok::<(), pv_soc::SocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThrottlePolicy {
    /// Stepped frequency caps, ordered by ascending trip temperature.
    pub steps: Vec<ThrottleStep>,
    /// Optional hotplug rule.
    pub hotplug: Option<HotplugRule>,
    /// Optional input-voltage rule.
    pub input_voltage: Option<InputVoltageRule>,
    /// Optional emergency thermal-shutdown rule.
    pub critical: Option<CriticalRule>,
}

impl ThrottlePolicy {
    /// Validates ordering and hysteresis constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidSpec`] if steps are unsorted, any clear
    /// point exceeds its trip, caps are non-positive, or rule parameters
    /// are out of range.
    pub fn validate(&self) -> Result<(), SocError> {
        for s in &self.steps {
            if s.clear > s.trip {
                return Err(SocError::InvalidSpec("throttle clear above trip"));
            }
            if !(s.cap.value() > 0.0 && s.cap.is_finite()) {
                return Err(SocError::InvalidSpec("throttle cap must be > 0"));
            }
            if !(s.trip.is_finite() && s.clear.is_finite()) {
                return Err(SocError::InvalidSpec("throttle temperature non-finite"));
            }
        }
        for w in self.steps.windows(2) {
            if w[1].trip <= w[0].trip {
                return Err(SocError::InvalidSpec(
                    "throttle steps must have ascending trips",
                ));
            }
            if w[1].cap.value() >= w[0].cap.value() {
                return Err(SocError::InvalidSpec(
                    "deeper throttle steps must cap lower",
                ));
            }
        }
        if let Some(h) = &self.hotplug {
            if h.clear > h.trip {
                return Err(SocError::InvalidSpec("hotplug clear above trip"));
            }
            if h.min_cores == 0 {
                return Err(SocError::InvalidSpec("hotplug must keep >= 1 core"));
            }
        }
        if let Some(iv) = &self.input_voltage {
            if !(iv.threshold.value() > 0.0 && iv.threshold.is_finite()) {
                return Err(SocError::InvalidSpec("input-voltage threshold"));
            }
            if !(iv.cap_fraction > 0.0 && iv.cap_fraction <= 1.0) {
                return Err(SocError::InvalidSpec(
                    "input-voltage cap fraction not in (0,1]",
                ));
            }
        }
        if let Some(c) = &self.critical {
            if c.clear > c.trip {
                return Err(SocError::InvalidSpec("critical clear above trip"));
            }
            if let Some(last) = self.steps.last() {
                if c.trip <= last.trip {
                    return Err(SocError::InvalidSpec(
                        "critical trip must exceed the deepest step trip",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runtime state of a [`ThrottlePolicy`]: how many steps are engaged,
/// whether hotplug and the input-voltage cap are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThrottleState {
    engaged_steps: usize,
    hotplug_active: bool,
    input_voltage_active: bool,
    critical_active: bool,
}

impl ThrottleState {
    /// Fresh, fully-released state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates the state from a sensor reading and the supply terminal
    /// voltage, then returns the constraint to apply this step.
    pub fn update(
        &mut self,
        policy: &ThrottlePolicy,
        sensor: Celsius,
        input_voltage: Volts,
    ) -> ThrottleDecision {
        // Engage deeper steps while the sensor is at/above the next trip.
        while self.engaged_steps < policy.steps.len()
            && sensor >= policy.steps[self.engaged_steps].trip
        {
            self.engaged_steps += 1;
        }
        // Release while below the deepest engaged step's clear point.
        while self.engaged_steps > 0 && sensor < policy.steps[self.engaged_steps - 1].clear {
            self.engaged_steps -= 1;
        }

        if let Some(h) = &policy.hotplug {
            if self.hotplug_active {
                if sensor < h.clear {
                    self.hotplug_active = false;
                }
            } else if sensor >= h.trip {
                self.hotplug_active = true;
            }
        }

        self.input_voltage_active = policy
            .input_voltage
            .as_ref()
            .is_some_and(|iv| input_voltage <= iv.threshold);

        if let Some(c) = &policy.critical {
            if self.critical_active {
                if sensor < c.clear {
                    self.critical_active = false;
                }
            } else if sensor >= c.trip {
                self.critical_active = true;
            }
        }

        ThrottleDecision {
            freq_cap: if self.engaged_steps > 0 {
                Some(policy.steps[self.engaged_steps - 1].cap)
            } else {
                None
            },
            min_cores: if self.hotplug_active {
                policy.hotplug.map(|h| h.min_cores)
            } else {
                None
            },
            freq_fraction: if self.input_voltage_active {
                policy.input_voltage.map(|iv| iv.cap_fraction)
            } else {
                None
            },
            emergency_stop: self.critical_active,
        }
    }

    /// Number of thermal steps currently engaged.
    pub fn engaged_steps(&self) -> usize {
        self.engaged_steps
    }

    /// Whether any mechanism is limiting the device right now.
    pub fn is_throttled(&self) -> bool {
        self.engaged_steps > 0
            || self.hotplug_active
            || self.input_voltage_active
            || self.critical_active
    }

    /// Releases everything (e.g. when resetting a device between runs).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl fmt::Display for ThrottleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} hotplug={} input_v={} critical={}",
            self.engaged_steps,
            self.hotplug_active,
            self.input_voltage_active,
            self.critical_active
        )
    }
}

/// The constraint a [`ThrottleState::update`] call imposes on this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleDecision {
    /// Absolute frequency cap from thermal steps, if any.
    pub freq_cap: Option<MegaHertz>,
    /// Per-cluster core floor from hotplug, if active.
    pub min_cores: Option<u32>,
    /// Fractional frequency cap from input-voltage throttling, if active.
    pub freq_fraction: Option<f64>,
    /// Emergency thermal shutdown: the workload must be suspended.
    pub emergency_stop: bool,
}

impl ThrottleDecision {
    /// Whether this decision constrains anything.
    pub fn is_throttled(&self) -> bool {
        self.freq_cap.is_some()
            || self.min_cores.is_some()
            || self.freq_fraction.is_some()
            || self.emergency_stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ThrottlePolicy {
        ThrottlePolicy {
            steps: vec![
                ThrottleStep {
                    trip: Celsius(70.0),
                    clear: Celsius(65.0),
                    cap: MegaHertz(1574.0),
                },
                ThrottleStep {
                    trip: Celsius(75.0),
                    clear: Celsius(71.0),
                    cap: MegaHertz(960.0),
                },
            ],
            hotplug: Some(HotplugRule {
                trip: Celsius(80.0),
                clear: Celsius(74.0),
                min_cores: 3,
            }),
            input_voltage: Some(InputVoltageRule {
                threshold: Volts(3.9),
                cap_fraction: 0.8,
            }),
            critical: Some(CriticalRule {
                trip: Celsius(90.0),
                clear: Celsius(80.0),
            }),
        }
    }

    #[test]
    fn cool_device_is_unthrottled() {
        let p = policy();
        let mut s = ThrottleState::new();
        let d = s.update(&p, Celsius(40.0), Volts(4.4));
        assert!(!d.is_throttled());
        assert!(!s.is_throttled());
    }

    #[test]
    fn steps_engage_in_order() {
        let p = policy();
        let mut s = ThrottleState::new();
        let d = s.update(&p, Celsius(71.0), Volts(4.4));
        assert_eq!(d.freq_cap, Some(MegaHertz(1574.0)));
        let d = s.update(&p, Celsius(76.0), Volts(4.4));
        assert_eq!(d.freq_cap, Some(MegaHertz(960.0)));
        assert_eq!(s.engaged_steps(), 2);
    }

    #[test]
    fn hot_jump_engages_multiple_steps_at_once() {
        let p = policy();
        let mut s = ThrottleState::new();
        let d = s.update(&p, Celsius(78.0), Volts(4.4));
        assert_eq!(d.freq_cap, Some(MegaHertz(960.0)));
    }

    #[test]
    fn hysteresis_holds_until_clear() {
        let p = policy();
        let mut s = ThrottleState::new();
        s.update(&p, Celsius(76.0), Volts(4.4));
        // Cooling to 72 °C: step 2 clears at 71, so still capped at 960.
        let d = s.update(&p, Celsius(72.0), Volts(4.4));
        assert_eq!(d.freq_cap, Some(MegaHertz(960.0)));
        // Below 71: down to step 1's cap.
        let d = s.update(&p, Celsius(70.5), Volts(4.4));
        assert_eq!(d.freq_cap, Some(MegaHertz(1574.0)));
        // Below 65: fully released.
        let d = s.update(&p, Celsius(64.0), Volts(4.4));
        assert_eq!(d.freq_cap, None);
    }

    #[test]
    fn hotplug_cycle() {
        let p = policy();
        let mut s = ThrottleState::new();
        let d = s.update(&p, Celsius(80.0), Volts(4.4));
        assert_eq!(d.min_cores, Some(3));
        assert!(s.hotplug_active);
        // Must cool below 74 to restore the core.
        let d = s.update(&p, Celsius(75.0), Volts(4.4));
        assert_eq!(d.min_cores, Some(3));
        let d = s.update(&p, Celsius(73.0), Volts(4.4));
        assert_eq!(d.min_cores, None);
    }

    #[test]
    fn input_voltage_throttle_tracks_supply() {
        let p = policy();
        let mut s = ThrottleState::new();
        // The Fig 10 scenario: Monsoon at nominal 3.85 V ⇒ throttled.
        let d = s.update(&p, Celsius(30.0), Volts(3.85));
        assert_eq!(d.freq_fraction, Some(0.8));
        assert!(s.input_voltage_active);
        // Raised to 4.4 V ⇒ released immediately (no hysteresis: the OS
        // samples the rail directly).
        let d = s.update(&p, Celsius(30.0), Volts(4.4));
        assert_eq!(d.freq_fraction, None);
    }

    #[test]
    fn validation_rules() {
        let mut p = policy();
        p.steps[1].trip = Celsius(60.0); // unsorted
        assert!(p.validate().is_err());

        let mut p = policy();
        p.steps[0].clear = Celsius(99.0); // clear above trip
        assert!(p.validate().is_err());

        let mut p = policy();
        p.steps[1].cap = MegaHertz(2000.0); // deeper step caps higher
        assert!(p.validate().is_err());

        let mut p = policy();
        p.hotplug = Some(HotplugRule {
            trip: Celsius(80.0),
            clear: Celsius(74.0),
            min_cores: 0,
        });
        assert!(p.validate().is_err());

        let mut p = policy();
        p.input_voltage = Some(InputVoltageRule {
            threshold: Volts(3.9),
            cap_fraction: 1.5,
        });
        assert!(p.validate().is_err());

        assert!(policy().validate().is_ok());
        assert!(ThrottlePolicy::default().validate().is_ok());
    }

    #[test]
    fn reset_releases_everything() {
        let p = policy();
        let mut s = ThrottleState::new();
        s.update(&p, Celsius(85.0), Volts(3.0));
        assert!(s.is_throttled());
        s.reset();
        assert!(!s.is_throttled());
        assert_eq!(s, ThrottleState::new());
    }

    #[test]
    fn display_is_nonempty() {
        let s = ThrottleState::new();
        assert!(!format!("{s}").is_empty());
    }
}
