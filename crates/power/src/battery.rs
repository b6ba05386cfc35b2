//! Li-ion battery model.
//!
//! A single-cell smartphone battery: open-circuit voltage (OCV) falls with
//! state of charge along a typical Li-ion curve, and the terminal voltage
//! sags below OCV under load through the internal resistance:
//!
//! ```text
//! V_t = OCV(soc) − I·R_int,   P = V_t · I
//! ⇒ I = (OCV − sqrt(OCV² − 4·R·P)) / (2R)
//! ```
//!
//! The paper's LG G5 battery is labelled 3.85 V nominal / 4.4 V maximum;
//! its OS throttles the CPU when the *input* voltage is low — which is why
//! a Monsoon programmed to the nominal 3.85 V made the phone ~20 % slower
//! than running from its own (mostly-full, ≈4.3 V) battery (Fig 10).

use crate::{PowerError, PowerSupply};
use core::cell::Cell;
use core::fmt;
use pv_units::{Joules, Seconds, Volts, Watts};

/// Piecewise-linear OCV curve: (state-of-charge, volts) knots, ascending soc.
const DEFAULT_OCV_KNOTS: [(f64, f64); 7] = [
    (0.00, 3.40),
    (0.10, 3.60),
    (0.25, 3.70),
    (0.50, 3.80),
    (0.75, 3.95),
    (0.90, 4.15),
    (1.00, 4.35),
];

/// A single-cell Li-ion battery.
///
/// # Examples
///
/// ```
/// use pv_power::{Battery, PowerSupply};
/// use pv_units::{Volts, Watts};
///
/// // LG G5 class cell: 2800 mAh ≈ 38.8 kJ, 90% charged.
/// let batt = Battery::new(pv_units::Joules(38_800.0), 0.08, 0.9)?;
/// let idle_v = batt.terminal_voltage(Watts(0.0));
/// let load_v = batt.terminal_voltage(Watts(5.0));
/// assert!(load_v < idle_v); // sag under load
/// assert!(idle_v > Volts(4.0)); // well above the 3.85 V throttle region
/// # Ok::<(), pv_power::PowerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Battery {
    capacity: Joules,
    internal_resistance: f64, // ohms
    soc: f64,
    energy_delivered: Joules,
    /// Memoised OCV interpolation, keyed on the state-of-charge bits. A
    /// device step consults the OCV several times (terminal voltage, max
    /// power, discharge accounting) at one unchanged state of charge; the
    /// cached value IS the previous interpolation result, so hits are
    /// bit-identical to recomputing.
    ocv_cache: Cell<(u64, f64)>,
    /// Memoised terminal-voltage solve, keyed on (soc bits, load bits) —
    /// the step loop asks twice per step (once for the rail reading, once
    /// inside [`Battery::draw`]) with identical inputs.
    vt_cache: Cell<(u64, u64, f64)>,
}

/// Equality is over the semantic state only; the derived value caches are
/// transparent (hits are bit-identical to recomputing).
impl PartialEq for Battery {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.internal_resistance == other.internal_resistance
            && self.soc == other.soc
            && self.energy_delivered == other.energy_delivered
    }
}

impl Battery {
    /// Creates a battery with `capacity` (full-charge energy), internal
    /// resistance in ohms, and initial state of charge in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for non-positive capacity,
    /// negative resistance, or a state of charge outside `[0, 1]`.
    pub fn new(capacity: Joules, internal_resistance: f64, soc: f64) -> Result<Self, PowerError> {
        if !(capacity.value() > 0.0 && capacity.is_finite()) {
            return Err(PowerError::InvalidParameter("capacity must be > 0"));
        }
        if !(internal_resistance >= 0.0 && internal_resistance.is_finite()) {
            return Err(PowerError::InvalidParameter("resistance must be >= 0"));
        }
        if !(0.0..=1.0).contains(&soc) {
            return Err(PowerError::InvalidParameter("soc must be in [0,1]"));
        }
        Ok(Self {
            capacity,
            internal_resistance,
            soc,
            energy_delivered: Joules::ZERO,
            ocv_cache: Cell::new((f64::NAN.to_bits(), 0.0)),
            vt_cache: Cell::new((f64::NAN.to_bits(), 0, 0.0)),
        })
    }

    /// Open-circuit voltage at the current state of charge.
    pub fn ocv(&self) -> Volts {
        let bits = self.soc.to_bits();
        let (cached_soc, cached) = self.ocv_cache.get();
        if cached_soc == bits {
            return Volts(cached);
        }
        let v = self.ocv_uncached();
        self.ocv_cache.set((bits, v));
        Volts(v)
    }

    /// The piecewise-linear OCV interpolation itself.
    fn ocv_uncached(&self) -> f64 {
        let soc = self.soc;
        let knots = &DEFAULT_OCV_KNOTS;
        if soc <= knots[0].0 {
            return knots[0].1;
        }
        for w in knots.windows(2) {
            let (s0, v0) = w[0];
            let (s1, v1) = w[1];
            if soc <= s1 {
                let t = (soc - s0) / (s1 - s0);
                return v0 + t * (v1 - v0);
            }
        }
        knots[knots.len() - 1].1
    }

    /// Remaining energy.
    pub fn remaining(&self) -> Joules {
        self.capacity * self.soc
    }

    /// Maximum power deliverable right now (at which the terminal voltage
    /// collapses to OCV/2). Infinite for a zero-resistance cell.
    pub fn max_power(&self) -> Watts {
        if self.internal_resistance == 0.0 {
            Watts(f64::INFINITY)
        } else {
            let ocv = self.ocv().value();
            Watts(ocv * ocv / (4.0 * self.internal_resistance))
        }
    }
}

impl PowerSupply for Battery {
    fn clone_box(&self) -> Box<dyn PowerSupply> {
        Box::new(self.clone())
    }

    fn terminal_voltage(&self, load: Watts) -> Volts {
        let key = (self.soc.to_bits(), load.value().to_bits());
        let (s, l, cached) = self.vt_cache.get();
        if (s, l) == key {
            return Volts(cached);
        }
        let ocv = self.ocv().value();
        let p = load.value().max(0.0);
        let v = if self.internal_resistance == 0.0 || p == 0.0 {
            ocv
        } else {
            let disc = ocv * ocv - 4.0 * self.internal_resistance * p;
            if disc <= 0.0 {
                // Beyond deliverable power: voltage collapses.
                ocv / 2.0
            } else {
                let current = (ocv - disc.sqrt()) / (2.0 * self.internal_resistance);
                ocv - current * self.internal_resistance
            }
        };
        self.vt_cache.set((key.0, key.1, v));
        Volts(v)
    }

    fn draw(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError> {
        if !(power.value() >= 0.0 && power.is_finite()) {
            return Err(PowerError::InvalidParameter("power must be >= 0"));
        }
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(PowerError::InvalidParameter("dt must be > 0"));
        }
        if self.soc <= 0.0 {
            return Err(PowerError::BatteryEmpty);
        }
        let max = self.max_power();
        if power.value() > max.value() {
            return Err(PowerError::Overload {
                requested: power,
                available: max,
            });
        }
        // Energy leaves the cell at the OCV rate (the I²R loss also comes
        // out of the cell), i.e. E_cell = OCV·I·dt.
        let ocv = self.ocv().value();
        let vt = self.terminal_voltage(power).value();
        let current = if vt > 0.0 { power.value() / vt } else { 0.0 };
        let cell_energy = Joules(ocv * current * dt.value());
        self.soc = (self.soc - cell_energy.value() / self.capacity.value()).max(0.0);
        self.energy_delivered += power * dt;
        Ok(())
    }

    fn energy_delivered(&self) -> Joules {
        self.energy_delivered
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "battery {:.0}% (ocv {:.2}, {:.0} of {:.0})",
            self.soc * 100.0,
            self.ocv(),
            self.remaining(),
            self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_cell() -> Battery {
        Battery::new(Joules(38_800.0), 0.08, 1.0).unwrap()
    }

    #[test]
    fn ocv_tracks_soc() {
        let full = Battery::new(Joules(1000.0), 0.1, 1.0).unwrap();
        let half = Battery::new(Joules(1000.0), 0.1, 0.5).unwrap();
        let empty = Battery::new(Joules(1000.0), 0.1, 0.0).unwrap();
        assert_eq!(full.ocv(), Volts(4.35));
        assert_eq!(half.ocv(), Volts(3.80));
        assert_eq!(empty.ocv(), Volts(3.40));
        // Interpolation between knots.
        let b = Battery::new(Joules(1000.0), 0.1, 0.375).unwrap();
        assert!((b.ocv().value() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn terminal_voltage_sags_with_load() {
        let b = full_cell();
        let v0 = b.terminal_voltage(Watts(0.0));
        let v5 = b.terminal_voltage(Watts(5.0));
        let v10 = b.terminal_voltage(Watts(10.0));
        assert!(v0 > v5 && v5 > v10);
        // Sanity: 5 W from 4.35 V / 0.08 Ω sags by roughly I·R ≈ 0.095 V.
        assert!((v0.value() - v5.value() - 0.095).abs() < 0.01);
    }

    #[test]
    fn zero_resistance_cell_never_sags() {
        let b = Battery::new(Joules(1000.0), 0.0, 0.8).unwrap();
        assert_eq!(b.terminal_voltage(Watts(50.0)), b.ocv());
        assert_eq!(b.max_power(), Watts(f64::INFINITY));
    }

    #[test]
    fn drawing_discharges() {
        let mut b = full_cell();
        let before = b.soc;
        b.draw(Watts(4.0), Seconds(600.0)).unwrap();
        assert!(b.soc < before);
        assert!((b.energy_delivered().value() - 2400.0).abs() < 1e-9);
        // Cell drains slightly more than delivered energy (I²R loss).
        let drained = (before - b.soc) * 38_800.0;
        assert!(drained > 2400.0, "drained {drained}");
        assert!(drained < 2600.0, "implausible loss {drained}");
    }

    #[test]
    fn empty_battery_refuses() {
        let mut b = Battery::new(Joules(100.0), 0.05, 0.001).unwrap();
        // Drain it dry.
        while b.soc > 0.0 {
            if b.draw(Watts(1.0), Seconds(1.0)).is_err() {
                break;
            }
        }
        assert_eq!(
            b.draw(Watts(1.0), Seconds(1.0)),
            Err(PowerError::BatteryEmpty)
        );
    }

    #[test]
    fn overload_is_reported() {
        let mut b = Battery::new(Joules(1000.0), 1.0, 1.0).unwrap();
        // max power = 4.35²/4 ≈ 4.73 W at 1 Ω.
        let max = b.max_power();
        assert!((max.value() - 4.35 * 4.35 / 4.0).abs() < 1e-9);
        match b.draw(Watts(10.0), Seconds(1.0)) {
            Err(PowerError::Overload { requested, .. }) => assert_eq!(requested, Watts(10.0)),
            other => panic!("expected overload, got {other:?}"),
        }
        // Voltage collapses to OCV/2 beyond max power.
        assert!((b.terminal_voltage(Watts(100.0)).value() - 4.35 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(Battery::new(Joules(0.0), 0.1, 0.5).is_err());
        assert!(Battery::new(Joules(100.0), -0.1, 0.5).is_err());
        assert!(Battery::new(Joules(100.0), 0.1, 1.5).is_err());
        assert!(Battery::new(Joules(100.0), 0.1, -0.1).is_err());
        let mut b = full_cell();
        assert!(b.draw(Watts(-1.0), Seconds(1.0)).is_err());
        assert!(b.draw(Watts(1.0), Seconds(0.0)).is_err());
    }

    #[test]
    fn mostly_full_g5_battery_stays_above_throttle_region() {
        // The Fig 10 mechanism: a healthy, mostly-charged battery presents
        // well above 3.85 V even under a full CPU load, so the OS does not
        // throttle; a Monsoon programmed to exactly 3.85 V does.
        let b = Battery::new(Joules(38_800.0), 0.08, 0.9).unwrap();
        let v = b.terminal_voltage(Watts(6.0));
        assert!(v > Volts(3.95), "loaded battery voltage {v}");
    }

    #[test]
    fn display_is_informative() {
        let b = full_cell();
        let s = format!("{b}");
        assert!(s.contains("100%"));
    }
}
