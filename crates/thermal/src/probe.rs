//! Temperature sensors with realistic imperfections.
//!
//! Three effects matter for the paper's methodology:
//!
//! 1. **Lag** — a thermistor (or the on-die tsens averaged by the kernel)
//!    responds as a first-order system with time constant τ, so readings
//!    trail true temperature during fast transients like throttle cycles.
//! 2. **Quantisation** — kernel thermal zones round to whole degrees (or
//!    tenths), which is why the ACCUBENCH cooldown loop polls until a
//!    *reported* value is below target.
//! 3. **Read noise** — small Gaussian jitter per read.
//!
//! All randomness is seeded, so probes are deterministic per seed.

use crate::ThermalError;
use pv_rng::rngs::StdRng;
use pv_rng::{Rng, SeedableRng};
use pv_units::{Celsius, Seconds, TempDelta};

/// A first-order-lag temperature sensor with quantisation and read noise.
///
/// Feed it the true temperature with [`Probe::observe`] as simulation time
/// advances; sample it with [`Probe::read`].
///
/// # Examples
///
/// ```
/// use pv_thermal::probe::Probe;
/// use pv_units::{Celsius, Seconds, TempDelta};
///
/// let mut p = Probe::new(Seconds(2.0), TempDelta(0.0), TempDelta(0.1), 7)?;
/// p.reset(Celsius(26.0));
/// // A step to 80 °C takes several time constants to register.
/// p.observe(Celsius(80.0), Seconds(2.0))?;
/// assert!(p.read().value() < 70.0);
/// p.observe(Celsius(80.0), Seconds(20.0))?;
/// assert!((p.read().value() - 80.0).abs() < 0.2);
/// # Ok::<(), pv_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Probe {
    tau: Seconds,
    noise_std: TempDelta,
    quantum: TempDelta,
    state: Celsius,
    initialized: bool,
    rng: StdRng,
    /// Memoised lag coefficient for the last `dt` seen: `(dt bits, alpha)`.
    /// `observe` runs once per simulation step with one of two protocol
    /// step sizes, so this removes an `exp` from the hot loop while staying
    /// bit-identical (the cached value IS the previous `exp` result).
    alpha_cache: (u64, f64),
}

impl Probe {
    /// Creates a probe.
    ///
    /// * `tau` — first-order lag time constant (0 for an instant sensor).
    /// * `noise_std` — standard deviation of Gaussian read noise (0 for a
    ///   noiseless sensor).
    /// * `quantum` — reading resolution (0 for continuous readings; 1.0 for
    ///   whole-degree kernel zones).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for negative or non-finite
    /// parameters.
    pub fn new(
        tau: Seconds,
        noise_std: TempDelta,
        quantum: TempDelta,
        seed: u64,
    ) -> Result<Self, ThermalError> {
        if !(tau.value() >= 0.0 && tau.is_finite()) {
            return Err(ThermalError::InvalidParameter("tau must be >= 0"));
        }
        if !(noise_std.value() >= 0.0 && noise_std.is_finite()) {
            return Err(ThermalError::InvalidParameter("noise_std must be >= 0"));
        }
        if !(quantum.value() >= 0.0 && quantum.is_finite()) {
            return Err(ThermalError::InvalidParameter("quantum must be >= 0"));
        }
        Ok(Self {
            tau,
            noise_std,
            quantum,
            state: Celsius(0.0),
            initialized: false,
            rng: StdRng::seed_from_u64(seed),
            alpha_cache: (f64::NAN.to_bits(), 0.0),
        })
    }

    /// Resets the lag state to `temp` (e.g. at experiment start, when the
    /// sensor has long since settled).
    pub fn reset(&mut self, temp: Celsius) {
        self.state = temp;
        self.initialized = true;
    }

    /// Advances the sensor: the true temperature was `truth` for the last
    /// `dt`. An un-reset probe snaps to the first observation.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-finite `truth`
    /// or a negative / non-finite `dt` — feeding either into the lag filter
    /// would poison the sensor state for every later reading.
    pub fn observe(&mut self, truth: Celsius, dt: Seconds) -> Result<(), ThermalError> {
        if !truth.is_finite() {
            return Err(ThermalError::InvalidParameter("truth must be finite"));
        }
        if !(dt.value() >= 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be >= 0"));
        }
        if !self.initialized {
            self.reset(truth);
            return Ok(());
        }
        if self.tau.value() == 0.0 {
            self.state = truth;
            return Ok(());
        }
        // Exact first-order update: s += (truth - s)(1 - e^{-dt/tau}).
        // The coefficient depends only on dt (tau is fixed), so reuse the
        // previous exp() result when the step size repeats — bit-identical
        // by construction.
        let dt_bits = dt.value().to_bits();
        let alpha = if self.alpha_cache.0 == dt_bits {
            self.alpha_cache.1
        } else {
            let a = 1.0 - (-dt.value() / self.tau.value()).exp();
            self.alpha_cache = (dt_bits, a);
            a
        };
        self.state = self.state + (truth - self.state) * alpha;
        Ok(())
    }

    /// Samples the sensor: lagged state plus read noise, quantised.
    pub fn read(&mut self) -> Celsius {
        let mut value = self.state.value();
        if self.noise_std.value() > 0.0 {
            // Box-Muller.
            let u1: f64 = self.rng.gen_range(1e-12..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            value += z * self.noise_std.value();
        }
        if self.quantum.value() > 0.0 {
            value = (value / self.quantum.value()).round() * self.quantum.value();
        }
        Celsius(value)
    }

    /// The internal lag state, without noise or quantisation (useful for
    /// tests and traces).
    pub fn lag_state(&self) -> Celsius {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> Probe {
        Probe::new(Seconds(0.0), TempDelta(0.0), TempDelta(0.0), 0).unwrap()
    }

    #[test]
    fn ideal_probe_tracks_exactly() {
        let mut p = ideal();
        p.observe(Celsius(42.5), Seconds(0.001)).unwrap();
        assert_eq!(p.read(), Celsius(42.5));
    }

    #[test]
    fn first_observation_initialises() {
        let mut p = Probe::new(Seconds(100.0), TempDelta(0.0), TempDelta(0.0), 0).unwrap();
        p.observe(Celsius(30.0), Seconds(0.01)).unwrap();
        // Despite the huge tau, the first observation snaps.
        assert_eq!(p.read(), Celsius(30.0));
    }

    #[test]
    fn lag_follows_first_order_response() {
        let mut p = Probe::new(Seconds(5.0), TempDelta(0.0), TempDelta(0.0), 0).unwrap();
        p.reset(Celsius(20.0));
        // Step to 30 °C for exactly one tau: response = 1 - 1/e ≈ 0.632.
        p.observe(Celsius(30.0), Seconds(5.0)).unwrap();
        let expected = 20.0 + 10.0 * (1.0 - (-1.0f64).exp());
        assert!((p.read().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn lag_is_step_size_invariant() {
        // The exact exponential update must give identical results for one
        // 10 s observation and ten 1 s observations.
        let mut coarse = Probe::new(Seconds(3.0), TempDelta(0.0), TempDelta(0.0), 0).unwrap();
        let mut fine = coarse.clone();
        coarse.reset(Celsius(20.0));
        fine.reset(Celsius(20.0));
        coarse.observe(Celsius(50.0), Seconds(10.0)).unwrap();
        for _ in 0..10 {
            fine.observe(Celsius(50.0), Seconds(1.0)).unwrap();
        }
        assert!((coarse.lag_state().value() - fine.lag_state().value()).abs() < 1e-9);
    }

    #[test]
    fn alpha_memoisation_is_bit_identical() {
        // Alternating step sizes (cache hit, miss, hit, …) must leave the
        // state bit-identical to the closed-form update applied manually.
        let mut p = Probe::new(Seconds(4.0), TempDelta(0.0), TempDelta(0.0), 0).unwrap();
        p.reset(Celsius(20.0));
        let mut reference = 20.0f64;
        for (i, &dt) in [0.1, 0.1, 0.5, 0.1, 0.5, 0.5, 0.1].iter().enumerate() {
            let truth = 30.0 + i as f64;
            p.observe(Celsius(truth), Seconds(dt)).unwrap();
            let alpha = 1.0 - (-dt / 4.0f64).exp();
            reference += (truth - reference) * alpha;
            assert_eq!(p.lag_state().value().to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn quantisation_rounds_to_grid() {
        let mut p = Probe::new(Seconds(0.0), TempDelta(0.0), TempDelta(1.0), 0).unwrap();
        p.observe(Celsius(26.4), Seconds(1.0)).unwrap();
        assert_eq!(p.read(), Celsius(26.0));
        p.observe(Celsius(26.6), Seconds(1.0)).unwrap();
        assert_eq!(p.read(), Celsius(27.0));
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_zero_mean() {
        let mut a = Probe::new(Seconds(0.0), TempDelta(0.5), TempDelta(0.0), 9).unwrap();
        let mut b = Probe::new(Seconds(0.0), TempDelta(0.5), TempDelta(0.0), 9).unwrap();
        a.reset(Celsius(26.0));
        b.reset(Celsius(26.0));
        let ra: Vec<f64> = (0..100).map(|_| a.read().value()).collect();
        let rb: Vec<f64> = (0..100).map(|_| b.read().value()).collect();
        assert_eq!(ra, rb);
        let mean = ra.iter().sum::<f64>() / ra.len() as f64;
        assert!((mean - 26.0).abs() < 0.2, "mean {mean}");
        // Noise actually varies between reads.
        assert!(ra.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn constructor_validates() {
        assert!(Probe::new(Seconds(-1.0), TempDelta(0.0), TempDelta(0.0), 0).is_err());
        assert!(Probe::new(Seconds(0.0), TempDelta(-0.1), TempDelta(0.0), 0).is_err());
        assert!(Probe::new(Seconds(0.0), TempDelta(0.0), TempDelta(f64::NAN), 0).is_err());
    }

    #[test]
    fn observe_rejects_bad_inputs() {
        let mut p = ideal();
        p.observe(Celsius(25.0), Seconds(1.0)).unwrap();
        assert!(p.observe(Celsius(f64::NAN), Seconds(1.0)).is_err());
        assert!(p.observe(Celsius(f64::INFINITY), Seconds(1.0)).is_err());
        assert!(p.observe(Celsius(30.0), Seconds(-1.0)).is_err());
        assert!(p.observe(Celsius(30.0), Seconds(f64::NAN)).is_err());
        // A rejected observation leaves the state untouched.
        assert_eq!(p.read(), Celsius(25.0));
    }
}
