//! Power delivery and energy measurement.
//!
//! The paper powers every device from a Monsoon Power Monitor instead of its
//! battery, "configured to provide the nominal voltage for each device as
//! specified by the manufacturer" (§III) — until the LG G5 revealed that the
//! OS throttles on *input voltage*, requiring the Monsoon to be raised to
//! the battery's 4.4 V maximum (Fig 10). Reproducing that experiment needs
//! both supplies:
//!
//! * [`Monsoon`] — an ideal programmable source with per-sample current
//!   logging and energy integration, like the real instrument.
//! * [`Battery`] — a Li-ion cell: open-circuit voltage falling with state of
//!   charge, internal resistance causing sag under load.
//!
//! Both implement [`PowerSupply`], the interface the device simulator draws
//! from, and [`EnergyMeter`] accumulates what the paper reports: joules over
//! the workload window.
//!
//! # Examples
//!
//! ```
//! use pv_power::{Monsoon, PowerSupply};
//! use pv_units::{Seconds, Volts, Watts};
//!
//! let mut monsoon = Monsoon::new(Volts(4.4))?;
//! let v = monsoon.terminal_voltage(Watts(3.3));
//! assert_eq!(v, Volts(4.4)); // ideal source: no sag
//! monsoon.draw(Watts(3.3), Seconds(10.0))?;
//! assert!((monsoon.energy_delivered().value() - 33.0).abs() < 1e-9);
//! # Ok::<(), pv_power::PowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod meter;

pub use battery::Battery;
pub use meter::{EnergyMeter, FaultyMeter};

use core::fmt;
use pv_units::{Joules, Seconds, Volts, Watts};

/// Error type for power-delivery models.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerError {
    /// A parameter was outside its physical domain.
    InvalidParameter(&'static str),
    /// The requested load exceeds what the supply can deliver.
    Overload {
        /// Power that was requested.
        requested: Watts,
        /// Maximum the supply can deliver in its current state.
        available: Watts,
    },
    /// The battery is exhausted.
    BatteryEmpty,
    /// The energy meter dropped off the measurement bus (injected fault).
    /// Transient: reconnects when the fault window passes.
    MeterDisconnected,
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            PowerError::Overload {
                requested,
                available,
            } => write!(f, "load of {requested:.3} exceeds available {available:.3}"),
            PowerError::BatteryEmpty => write!(f, "battery is empty"),
            PowerError::MeterDisconnected => {
                write!(f, "energy meter disconnected from the measurement bus")
            }
        }
    }
}

impl std::error::Error for PowerError {}

/// A source that powers the device under test.
///
/// The device simulator calls [`terminal_voltage`](Self::terminal_voltage)
/// each step (the OS samples this for input-voltage throttling) and
/// [`draw`](Self::draw) to account the energy consumed over the step.
///
/// Supplies are owned by devices that migrate across worker threads in
/// parallel fleet sweeps, so implementations must be `Send`.
pub trait PowerSupply: fmt::Debug + Send {
    /// Voltage at the device's power input under the given load.
    ///
    /// For an ideal source this is the programmed voltage; for a battery it
    /// sags with load through the internal resistance.
    fn terminal_voltage(&self, load: Watts) -> Volts;

    /// Draws `power` for `dt`, updating supply state (energy counters,
    /// battery charge).
    ///
    /// # Errors
    ///
    /// Implementations return [`PowerError`] for invalid arguments, for
    /// loads beyond their capability, or when exhausted.
    fn draw(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError>;

    /// Total energy delivered since construction (or last reset).
    fn energy_delivered(&self) -> Joules;

    /// Clones the supply behind the trait object, preserving its full state
    /// (programmed voltage, charge, energy counters).
    ///
    /// Supervised sweeps retry a failed session on a *pristine* copy of the
    /// device, which requires cloning a `Box<dyn PowerSupply>`.
    fn clone_box(&self) -> Box<dyn PowerSupply>;
}

impl Clone for Box<dyn PowerSupply> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The Monsoon Power Monitor: an ideal programmable bench supply that
/// meters the energy it delivers.
///
/// The real instrument samples current at 5 kHz; this model integrates
/// exactly, which is the limit of infinitely fast sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct Monsoon {
    voltage: Volts,
    energy: Joules,
    samples: u64,
}

impl Monsoon {
    /// Creates a Monsoon programmed to `voltage`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a non-positive or
    /// non-finite voltage.
    pub fn new(voltage: Volts) -> Result<Self, PowerError> {
        if !(voltage.value() > 0.0 && voltage.is_finite()) {
            return Err(PowerError::InvalidParameter("voltage must be > 0"));
        }
        Ok(Self {
            voltage,
            energy: Joules::ZERO,
            samples: 0,
        })
    }

    /// Number of draw samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl PowerSupply for Monsoon {
    fn terminal_voltage(&self, _load: Watts) -> Volts {
        self.voltage
    }

    fn clone_box(&self) -> Box<dyn PowerSupply> {
        Box::new(self.clone())
    }

    fn draw(&mut self, power: Watts, dt: Seconds) -> Result<(), PowerError> {
        if !(power.value() >= 0.0 && power.is_finite()) {
            return Err(PowerError::InvalidParameter("power must be >= 0"));
        }
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(PowerError::InvalidParameter("dt must be > 0"));
        }
        self.energy += power * dt;
        self.samples += 1;
        Ok(())
    }

    fn energy_delivered(&self) -> Joules {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monsoon_is_ideal() {
        let m = Monsoon::new(Volts(3.85)).unwrap();
        assert_eq!(m.terminal_voltage(Watts(0.0)), Volts(3.85));
        assert_eq!(m.terminal_voltage(Watts(100.0)), Volts(3.85));
    }

    #[test]
    fn monsoon_integrates_energy() {
        let mut m = Monsoon::new(Volts(4.0)).unwrap();
        m.draw(Watts(2.0), Seconds(30.0)).unwrap();
        m.draw(Watts(4.0), Seconds(15.0)).unwrap();
        assert!((m.energy_delivered().value() - 120.0).abs() < 1e-12);
        assert_eq!(m.samples(), 2);
    }

    #[test]
    fn monsoon_validates() {
        assert!(Monsoon::new(Volts(0.0)).is_err());
        assert!(Monsoon::new(Volts(-1.0)).is_err());
        let mut m = Monsoon::new(Volts(4.0)).unwrap();
        assert!(m.draw(Watts(-1.0), Seconds(1.0)).is_err());
        assert!(m.draw(Watts(1.0), Seconds(0.0)).is_err());
        assert!(m.draw(Watts(f64::NAN), Seconds(1.0)).is_err());
    }

    #[test]
    fn error_display() {
        assert!(!format!("{}", PowerError::BatteryEmpty).is_empty());
        assert!(!format!(
            "{}",
            PowerError::Overload {
                requested: Watts(10.0),
                available: Watts(5.0)
            }
        )
        .is_empty());
    }
}
