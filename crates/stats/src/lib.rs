//! Statistics toolkit for the process-variation measurement stack.
//!
//! The paper reports all its results as normalized means with Relative
//! Standard Deviation (RSD) error bars, frequency/temperature *distributions*
//! (Figures 11 and 12), and proposes k-means-style clustering of crowd data
//! into inferred CPU bins (§VI). This crate provides exactly those tools:
//!
//! * [`Summary`] — n/mean/std/min/max/RSD over a sample, plus normalization
//!   helpers used to produce the paper's normalized bar charts.
//! * [`histogram::Histogram`] — fixed-bin histograms for the Fig 11/12
//!   frequency and temperature distributions.
//! * [`dist`] — normal cdf/quantile (Acklam's inverse-CDF approximation)
//!   used by the silicon sampling model.
//! * [`kmeans`] — seeded k-means (with k-means++ initialisation) for the
//!   future-work bin-clustering experiment.
//! * [`bootstrap`] — bootstrap confidence intervals for means.
//! * [`regression`] — ordinary least-squares line fits for trend analysis.
//! * [`stream`] — mergeable count/mean/M2 accumulators for streaming,
//!   memory-bounded crowd aggregation.
//! * [`sampling`] — SRS / ranked-set / stratified subsampling designs with
//!   bootstrap confidence intervals for million-device sweeps.
//!
//! # Examples
//!
//! ```
//! use pv_stats::Summary;
//! let s = Summary::from_slice(&[10.0, 10.2, 9.9, 10.1]).unwrap();
//! assert!(s.rsd_percent() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod dist;
pub mod histogram;
pub mod kmeans;
pub mod regression;
pub mod sampling;
pub mod stream;

use core::fmt;

/// Error produced when a statistic is requested over an invalid sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty.
    EmptySample,
    /// The input contained a NaN or infinite value.
    NonFiniteValue,
    /// A parameter was outside its valid domain (e.g. `k = 0` clusters).
    InvalidParameter(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::NonFiniteValue => write!(f, "sample contains a non-finite value"),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Summary statistics over a sample of `f64` observations.
///
/// `std` is the *sample* standard deviation (n−1 denominator), matching how
/// measurement papers report run-to-run error. [`Summary::rsd_percent`] is
/// the paper's error metric: the absolute coefficient of variation in
/// percent.
///
/// # Examples
///
/// ```
/// use pv_stats::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.n(), 3);
/// assert_eq!(s.std(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Computes summary statistics over a slice.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] for an empty slice and
    /// [`StatsError::NonFiniteValue`] if any observation is NaN or infinite.
    pub fn from_slice(values: &[f64]) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteValue);
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(Self {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        })
    }

    /// Computes summary statistics over anything iterable.
    ///
    /// # Errors
    ///
    /// Same as [`Summary::from_slice`].
    #[allow(clippy::should_implement_trait)] // fallible, unlike FromIterator
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Result<Self, StatsError> {
        let values: Vec<f64> = iter.into_iter().collect();
        Self::from_slice(&values)
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0 for a single point).
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Relative Standard Deviation in percent: `100·|std/mean|`.
    ///
    /// This is the error metric the paper reports ("errors are represented
    /// in the form of Relative Standard Deviation"). Returns infinity when
    /// the mean is zero and the std is not.
    pub fn rsd_percent(&self) -> f64 {
        if self.std == 0.0 {
            0.0
        } else {
            (self.std / self.mean).abs() * 100.0
        }
    }

    /// Peak-to-peak spread in percent of the best (largest) observation:
    /// `100·(max − min)/max`.
    ///
    /// This is how the paper quotes variation ("bin-0 … 14% faster than
    /// bin-3"): the gap between best and worst device relative to the best.
    pub fn spread_percent_of_max(&self) -> f64 {
        if self.max == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.max * 100.0
        }
    }

    /// Peak-to-peak spread in percent of the smallest observation:
    /// `100·(max − min)/min`.
    ///
    /// Used for "consumes X% more energy" style comparisons where the best
    /// device is the one with the *lowest* value.
    pub fn spread_percent_of_min(&self) -> f64 {
        if self.min == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.min * 100.0
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} rsd={:.2}% min={:.4} max={:.4}",
            self.n,
            self.mean,
            self.std,
            self.rsd_percent(),
            self.min,
            self.max
        )
    }
}

/// Normalizes a sample so its largest element is 1.0.
///
/// The paper presents per-device results "in a normalized form"; performance
/// charts normalize to the best (fastest) device.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input,
/// [`StatsError::NonFiniteValue`] for non-finite input, and
/// [`StatsError::InvalidParameter`] if the maximum is zero.
pub fn normalize_to_max(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    let s = Summary::from_slice(values)?;
    if s.max() == 0.0 {
        return Err(StatsError::InvalidParameter("maximum is zero"));
    }
    Ok(values.iter().map(|v| v / s.max()).collect())
}

/// Normalizes a sample so its smallest element is 1.0.
///
/// Energy charts normalize to the most frugal device, so worse devices show
/// as ratios above 1.
///
/// # Errors
///
/// Same as [`normalize_to_max`], with the zero check on the minimum.
pub fn normalize_to_min(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    let s = Summary::from_slice(values)?;
    if s.min() == 0.0 {
        return Err(StatsError::InvalidParameter("minimum is zero"));
    }
    Ok(values.iter().map(|v| v / s.min()).collect())
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between
/// order statistics (type-7 / NumPy default).
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input,
/// [`StatsError::NonFiniteValue`] for non-finite input, and
/// [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteValue);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile outside [0,1]"));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

pv_json::impl_to_json!(Summary {
    n,
    mean,
    std,
    min,
    max
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::from_slice(&[5.0; 10]).unwrap();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.rsd_percent(), 0.0);
        assert_eq!(s.max() - s.min(), 0.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std with n-1: variance = 32/7.
        assert!((s.std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_single_point_has_zero_std() {
        let s = Summary::from_slice(&[3.25]).unwrap();
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert_eq!(Summary::from_slice(&[]), Err(StatsError::EmptySample));
        assert_eq!(
            Summary::from_slice(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteValue)
        );
        assert_eq!(
            Summary::from_slice(&[f64::INFINITY]),
            Err(StatsError::NonFiniteValue)
        );
    }

    #[test]
    fn rsd_matches_hand_computation() {
        // mean 10, std 1 → RSD 10%.
        let s = Summary::from_slice(&[9.0, 10.0, 11.0]).unwrap();
        assert!((s.rsd_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn spreads_match_paper_style_quotes() {
        // Best = 100, worst = 86: "best is 14% faster" → spread of max = 14%.
        let s = Summary::from_slice(&[86.0, 95.0, 100.0]).unwrap();
        assert!((s.spread_percent_of_max() - 14.0).abs() < 1e-9);
        // Energy: best 100 J, worst 119 J → "19% more energy".
        let e = Summary::from_slice(&[100.0, 110.0, 119.0]).unwrap();
        assert!((e.spread_percent_of_min() - 19.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_to_max_puts_best_at_one() {
        let n = normalize_to_max(&[50.0, 100.0, 75.0]).unwrap();
        assert_eq!(n, vec![0.5, 1.0, 0.75]);
    }

    #[test]
    fn normalize_to_min_puts_best_at_one() {
        let n = normalize_to_min(&[50.0, 100.0, 75.0]).unwrap();
        assert_eq!(n, vec![1.0, 2.0, 1.5]);
    }

    #[test]
    fn normalize_rejects_zero_reference() {
        assert!(normalize_to_max(&[0.0, 0.0]).is_err());
        assert!(normalize_to_min(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&v, 0.5).unwrap(), 2.5);
        assert!(quantile(&v, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn from_iter_matches_from_slice() {
        let a = Summary::from_iter((1..=5).map(f64::from)).unwrap();
        let b = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_slice(&[1.0, 2.0]).unwrap();
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{}", StatsError::EmptySample).is_empty());
    }
}
