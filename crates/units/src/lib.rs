//! Typed physical quantities for the process-variation simulation stack.
//!
//! Every quantity that crosses a module boundary in this workspace is a
//! newtype over `f64` ([C-NEWTYPE]): temperatures are [`Celsius`], powers are
//! [`Watts`], energies are [`Joules`], and so on. The compiler then rules out
//! entire classes of unit bugs (adding a voltage to a temperature, passing a
//! frequency where a duration is expected) that plagued ad-hoc `f64` code.
//!
//! Cross-unit arithmetic is provided only where physically meaningful:
//!
//! * [`Watts`] × [`Seconds`] = [`Joules`] (and the inverse divisions)
//! * [`Volts`] × [`Amperes`] = [`Watts`] (and the inverse divisions)
//! * [`TempDelta`] ÷ [`ThermalResistance`] = [`Watts`] (Fourier's law)
//! * [`Joules`] ÷ [`ThermalCapacitance`] = [`TempDelta`] (lumped heating)
//!
//! # Examples
//!
//! ```
//! use pv_units::{Watts, Seconds, Volts, Celsius};
//!
//! let energy = Watts(2.5) * Seconds(60.0);
//! assert_eq!(energy.value(), 150.0);
//!
//! let current = Watts(3.3) / Volts(4.4);
//! assert!((current.value() - 0.75).abs() < 1e-12);
//!
//! let t = Celsius(26.0) + pv_units::TempDelta(0.5);
//! assert_eq!(t, Celsius(26.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use pv_json::{FromJson, Json, ToJson};

/// Implements the boilerplate shared by every scalar quantity newtype:
/// construction, accessors, same-unit arithmetic, scalar scaling, ordering
/// helpers, iterator summation, and `Display` with the unit suffix.
macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl ToJson for $name {
            /// Units serialize as transparent numbers.
            fn to_json(&self) -> Json {
                Json::Number(self.0)
            }
        }

        impl FromJson for $name {
            fn from_json(value: &Json) -> Option<Self> {
                value.as_f64().map(Self)
            }
        }

        impl $name {
            /// A zero-valued quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of this quantity.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            ///
            /// NaN values propagate as in [`f64::min`].
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $suffix),
                    None => write!(f, "{} {}", self.0, $suffix),
                }
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

scalar_unit!(
    /// A temperature difference in kelvin (equivalently, °C difference).
    ///
    /// Absolute temperatures are [`Celsius`]; subtracting two of those yields
    /// a `TempDelta`. Keeping the two apart prevents the classic bug of
    /// treating an absolute temperature as a difference.
    TempDelta,
    "K"
);
scalar_unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);
scalar_unit!(
    /// Energy in joules.
    Joules,
    "J"
);
scalar_unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
scalar_unit!(
    /// Electric current in amperes.
    Amperes,
    "A"
);
scalar_unit!(
    /// A span of simulated (or wall-clock) time in seconds.
    Seconds,
    "s"
);
scalar_unit!(
    /// CPU clock frequency in megahertz.
    ///
    /// Smartphone OPP tables are conventionally listed in MHz (see the
    /// paper's Table I: 300–2265 MHz for the Nexus 5), so MHz is this
    /// workspace's canonical frequency unit.
    MegaHertz,
    "MHz"
);
scalar_unit!(
    /// Thermal resistance in kelvin per watt (K/W).
    ThermalResistance,
    "K/W"
);
scalar_unit!(
    /// Thermal capacitance in joules per kelvin (J/K).
    ThermalCapacitance,
    "J/K"
);

/// An absolute temperature in degrees Celsius.
///
/// `Celsius` is an *affine* quantity: adding two absolute temperatures is
/// meaningless, so only `Celsius ± TempDelta` and `Celsius − Celsius` are
/// provided.
///
/// # Examples
///
/// ```
/// use pv_units::{Celsius, TempDelta};
/// let trip = Celsius(80.0);
/// let now = Celsius(76.5);
/// assert_eq!(trip - now, TempDelta(3.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(pub f64);

impl ToJson for Celsius {
    /// Units serialize as transparent numbers.
    fn to_json(&self) -> Json {
        Json::Number(self.0)
    }
}

impl FromJson for Celsius {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_f64().map(Self)
    }
}

impl Celsius {
    /// Returns the raw value in degrees Celsius.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the temperature in kelvin.
    #[inline]
    pub fn to_kelvin(self) -> f64 {
        self.0 + 273.15
    }

    /// Creates a temperature from a value in kelvin.
    #[inline]
    pub fn from_kelvin(kelvin: f64) -> Self {
        Self(kelvin - 273.15)
    }

    /// Returns the larger of two temperatures.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Clamps the temperature to the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN (as [`f64::clamp`]).
    #[inline]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Returns `true` if the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn add(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 + rhs.0)
    }
}

impl AddAssign<TempDelta> for Celsius {
    #[inline]
    fn add_assign(&mut self, rhs: TempDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn sub(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 - rhs.0)
    }
}

impl SubAssign<TempDelta> for Celsius {
    #[inline]
    fn sub_assign(&mut self, rhs: TempDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub for Celsius {
    type Output = TempDelta;
    #[inline]
    fn sub(self, rhs: Celsius) -> TempDelta {
        TempDelta(self.0 - rhs.0)
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match f.precision() {
            Some(p) => write!(f, "{:.*} °C", p, self.0),
            None => write!(f, "{} °C", self.0),
        }
    }
}

impl From<f64> for Celsius {
    #[inline]
    fn from(value: f64) -> Self {
        Self(value)
    }
}

impl From<Celsius> for f64 {
    #[inline]
    fn from(t: Celsius) -> f64 {
        t.0
    }
}

/// Electric potential in millivolts.
///
/// Kernel voltage-frequency tables (the paper's Table I) list voltages in
/// millivolts, so the binning code works in `MilliVolts` and converts to
/// [`Volts`] at the power-model boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MilliVolts(pub u32);

impl ToJson for MilliVolts {
    /// Units serialize as transparent numbers.
    fn to_json(&self) -> Json {
        Json::Number(f64::from(self.0))
    }
}

impl FromJson for MilliVolts {
    fn from_json(value: &Json) -> Option<Self> {
        let n = value.as_f64()?;
        if n.is_finite() && n >= 0.0 && n <= f64::from(u32::MAX) && n.fract() == 0.0 {
            Some(Self(n as u32))
        } else {
            None
        }
    }
}

impl MilliVolts {
    /// Returns the raw value in millivolts.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Converts to [`Volts`].
    #[inline]
    pub fn to_volts(self) -> Volts {
        Volts(f64::from(self.0) / 1000.0)
    }
}

impl fmt::Display for MilliVolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

impl From<MilliVolts> for Volts {
    #[inline]
    fn from(mv: MilliVolts) -> Volts {
        mv.to_volts()
    }
}

// ---------------------------------------------------------------------------
// Cross-unit arithmetic
// ---------------------------------------------------------------------------

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Mul<Amperes> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amperes) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amperes {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Div<Volts> for Watts {
    type Output = Amperes;
    #[inline]
    fn div(self, rhs: Volts) -> Amperes {
        Amperes(self.0 / rhs.0)
    }
}

impl Div<Amperes> for Watts {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Amperes) -> Volts {
        Volts(self.0 / rhs.0)
    }
}

impl Div<ThermalResistance> for TempDelta {
    /// Fourier's law for a lumped element: heat flow = ΔT / R.
    type Output = Watts;
    #[inline]
    fn div(self, rhs: ThermalResistance) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<ThermalCapacitance> for Joules {
    /// Lumped heating: temperature rise = E / C.
    type Output = TempDelta;
    #[inline]
    fn div(self, rhs: ThermalCapacitance) -> TempDelta {
        TempDelta(self.0 / rhs.0)
    }
}

impl Mul<TempDelta> for ThermalCapacitance {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: TempDelta) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl MegaHertz {
    /// Returns the frequency in hertz.
    #[inline]
    pub fn to_hz(self) -> f64 {
        self.0 * 1.0e6
    }

    /// Creates a frequency from a value in hertz.
    #[inline]
    pub fn from_hz(hz: f64) -> Self {
        Self(hz / 1.0e6)
    }

    /// Number of clock cycles elapsed over `dt` at this frequency.
    #[inline]
    pub fn cycles_over(self, dt: Seconds) -> f64 {
        self.to_hz() * dt.0
    }
}

impl Seconds {
    /// Creates a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self(minutes * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        assert_eq!(Watts(2.0) * Seconds(3.0), Joules(6.0));
        assert_eq!(Seconds(3.0) * Watts(2.0), Joules(6.0));
    }

    #[test]
    fn energy_divisions_invert() {
        let e = Joules(10.0);
        assert_eq!(e / Seconds(4.0), Watts(2.5));
        assert_eq!(e / Watts(2.5), Seconds(4.0));
    }

    #[test]
    fn ohms_law_family() {
        assert_eq!(Volts(5.0) * Amperes(2.0), Watts(10.0));
        assert_eq!(Amperes(2.0) * Volts(5.0), Watts(10.0));
        assert_eq!(Watts(10.0) / Volts(5.0), Amperes(2.0));
        assert_eq!(Watts(10.0) / Amperes(2.0), Volts(5.0));
    }

    #[test]
    fn fouriers_law() {
        // 10 K across 2 K/W conducts 5 W.
        assert_eq!(TempDelta(10.0) / ThermalResistance(2.0), Watts(5.0));
    }

    #[test]
    fn lumped_heating() {
        // 100 J into 50 J/K raises temperature by 2 K.
        assert_eq!(Joules(100.0) / ThermalCapacitance(50.0), TempDelta(2.0));
        assert_eq!(ThermalCapacitance(50.0) * TempDelta(2.0), Joules(100.0));
    }

    #[test]
    fn celsius_is_affine() {
        let a = Celsius(26.0);
        let b = Celsius(24.5);
        assert_eq!(a - b, TempDelta(1.5));
        assert_eq!(b + TempDelta(1.5), a);
        assert_eq!(a - TempDelta(1.5), b);
    }

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius(26.0);
        assert!((t.to_kelvin() - 299.15).abs() < 1e-12);
        let back = Celsius::from_kelvin(t.to_kelvin());
        assert!((back.value() - 26.0).abs() < 1e-12);
        assert!((Celsius(-273.15).to_kelvin()).abs() < 1e-12);
    }

    #[test]
    fn millivolts_to_volts() {
        assert_eq!(MilliVolts(1100).to_volts(), Volts(1.1));
        let v: Volts = MilliVolts(750).into();
        assert_eq!(v, Volts(0.75));
    }

    #[test]
    fn megahertz_cycles() {
        // 1 MHz over 2 s = 2e6 cycles.
        assert_eq!(MegaHertz(1.0).cycles_over(Seconds(2.0)), 2.0e6);
        assert_eq!(MegaHertz::from_hz(2.265e9), MegaHertz(2265.0));
        assert_eq!(MegaHertz(300.0).to_hz(), 3.0e8);
    }

    #[test]
    fn seconds_constructors() {
        assert_eq!(Seconds::from_minutes(3.0), Seconds(180.0));
    }

    #[test]
    fn scalar_ops_and_helpers() {
        let w = Watts(4.0);
        assert_eq!(w * 0.5, Watts(2.0));
        assert_eq!(0.5 * w, Watts(2.0));
        assert_eq!(w / 2.0, Watts(2.0));
        assert_eq!(w / Watts(2.0), 2.0);
        assert_eq!(-w, Watts(-4.0));
        assert_eq!((-w).abs(), w);
        assert_eq!(Watts(1.0).max(Watts(2.0)), Watts(2.0));
        assert_eq!(Watts(1.0).min(Watts(2.0)), Watts(1.0));
        assert!(Watts(1.0).is_finite());
        assert!(!Watts(f64::NAN).is_finite());
    }

    #[test]
    fn sum_over_iterators() {
        let joules = [Joules(1.0), Joules(2.0), Joules(3.5)];
        let total: Joules = joules.iter().sum();
        assert_eq!(total, Joules(6.5));
        let total2: Joules = joules.into_iter().sum();
        assert_eq!(total2, Joules(6.5));
    }

    #[test]
    fn accumulating_assign_ops() {
        let mut e = Joules::ZERO;
        e += Joules(1.5);
        e += Joules(2.5);
        assert_eq!(e, Joules(4.0));
        e -= Joules(1.0);
        assert_eq!(e, Joules(3.0));

        let mut t = Celsius(26.0);
        t += TempDelta(2.0);
        assert_eq!(t, Celsius(28.0));
        t -= TempDelta(4.0);
        assert_eq!(t, Celsius(24.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.2}", Watts(1.2345)), "1.23 W");
        assert_eq!(format!("{}", Joules(2.0)), "2 J");
        assert_eq!(format!("{:.1}", Celsius(26.04)), "26.0 °C");
        assert_eq!(format!("{}", MilliVolts(950)), "950 mV");
        assert_eq!(format!("{:.0}", MegaHertz(2265.0)), "2265 MHz");
    }

    #[test]
    fn conversions_via_from() {
        let w: Watts = 3.0.into();
        assert_eq!(w, Watts(3.0));
        let raw: f64 = w.into();
        assert_eq!(raw, 3.0);
        let t: Celsius = 21.5.into();
        assert_eq!(f64::from(t), 21.5);
    }
}
