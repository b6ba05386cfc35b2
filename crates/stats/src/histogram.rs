//! Fixed-bin histograms.
//!
//! Figures 11 and 12 of the paper show the *distribution* of observed CPU
//! frequencies and temperatures over the course of an experiment iteration.
//! [`Histogram`] accumulates those time series into bins; the optional
//! per-sample weight supports time-weighted histograms (weight = sample
//! interval), which is what "time spent at temperature" means.

use crate::StatsError;
use core::fmt;

/// A histogram over a fixed, uniform set of bins spanning `[lo, hi)`.
///
/// Samples below `lo` land in an underflow counter and samples at or above
/// `hi` in an overflow counter, so no observation is ever silently dropped.
///
/// # Examples
///
/// ```
/// use pv_stats::histogram::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.add(1.0);
/// h.add(9.5);
/// assert_eq!(h.counts()[0], 1.0);
/// assert_eq!(h.counts()[4], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    underflow: f64,
    overflow: f64,
    total_weight: f64,
    weighted_sum: f64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `bins == 0`, `lo >= hi`,
    /// or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("zero bins"));
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::NonFiniteValue);
        }
        if lo >= hi {
            return Err(StatsError::InvalidParameter("lo >= hi"));
        }
        Ok(Self {
            lo,
            hi,
            counts: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
            total_weight: 0.0,
            weighted_sum: 0.0,
        })
    }

    /// Adds a sample with weight 1.
    pub fn add(&mut self, value: f64) {
        self.add_weighted(value, 1.0);
    }

    /// Adds a sample with an explicit weight (e.g. the sampling interval for
    /// time-weighted distributions). Non-finite samples and non-positive
    /// weights are ignored.
    pub fn add_weighted(&mut self, value: f64, weight: f64) {
        if !value.is_finite() || !weight.is_finite() || weight <= 0.0 {
            return;
        }
        self.total_weight += weight;
        self.weighted_sum += value * weight;
        if value < self.lo {
            self.underflow += weight;
        } else if value >= self.hi {
            self.overflow += weight;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Guard the upper edge against floating rounding.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += weight;
        }
    }

    /// Extends the histogram from an iterator of unweighted samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }

    /// Merges another histogram over the *same* bin layout into this one.
    ///
    /// Bin counts are sums of unit (or sample-interval) weights, so for
    /// unweighted use the merged counts are exact regardless of merge
    /// order; `weighted_sum` is a float accumulation and is only
    /// order-deterministic for a fixed merge order.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when the bin layouts
    /// (bounds or bin count) differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), StatsError> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(StatsError::InvalidParameter("histogram layout mismatch"));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total_weight += other.total_weight;
        self.weighted_sum += other.weighted_sum;
        Ok(())
    }

    /// Per-bin accumulated weights.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Weight accumulated below the range.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Weight accumulated at or above the range.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Total accumulated weight, including under/overflow.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted mean of all samples (including those out of range).
    /// Returns `None` if nothing has been added.
    pub fn mean(&self) -> Option<f64> {
        if self.total_weight > 0.0 {
            Some(self.weighted_sum / self.total_weight)
        } else {
            None
        }
    }

    /// Lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edge(&self, i: usize) -> f64 {
        assert!(i <= self.counts.len(), "bin index out of range");
        self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64
    }

    /// Normalized bin fractions (each bin's weight over total in-range weight).
    /// Returns an all-zero vector when empty.
    pub fn fractions(&self) -> Vec<f64> {
        let in_range: f64 = self.counts.iter().sum();
        if in_range == 0.0 {
            vec![0.0; self.counts.len()]
        } else {
            self.counts.iter().map(|c| c / in_range).collect()
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "histogram [{:.3}, {:.3}) bins={} total_weight={:.3}",
            self.lo,
            self.hi,
            self.counts.len(),
            self.total_weight
        )?;
        let max = self.counts.iter().copied().fold(0.0f64, f64::max);
        for (i, &c) in self.counts.iter().enumerate() {
            let bar_len = if max > 0.0 {
                ((c / max) * 40.0).round() as usize
            } else {
                0
            };
            writeln!(
                f,
                "  [{:>9.2}, {:>9.2}) {:>10.2} {}",
                self.bin_edge(i),
                self.bin_edge(i + 1),
                c,
                "#".repeat(bar_len)
            )?;
        }
        Ok(())
    }
}

pv_json::impl_to_json!(Histogram {
    lo,
    hi,
    counts,
    underflow,
    overflow,
    total_weight,
    weighted_sum
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 4).is_ok());
    }

    #[test]
    fn samples_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        h.add(0.0);
        h.add(9.999);
        h.add(10.0);
        h.add(99.999);
        assert_eq!(h.counts()[0], 2.0);
        assert_eq!(h.counts()[1], 1.0);
        assert_eq!(h.counts()[9], 1.0);
    }

    #[test]
    fn out_of_range_is_tracked_not_dropped() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(-1.0);
        h.add(10.0);
        h.add(1e9);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 2.0);
        assert_eq!(h.total_weight(), 3.0);
    }

    #[test]
    fn weighted_mean() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add_weighted(2.0, 1.0);
        h.add_weighted(6.0, 3.0);
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_is_none() {
        let h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn invalid_samples_ignored() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(f64::NAN);
        h.add_weighted(5.0, 0.0);
        h.add_weighted(5.0, -1.0);
        h.add_weighted(5.0, f64::NAN);
        assert_eq!(h.total_weight(), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 4).unwrap();
        h.extend([1.0, 2.0, 3.0, 7.0, 8.0]);
        let total: f64 = h.fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_bins_and_rejects_layout_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5).unwrap();
        a.extend([1.0, -2.0]);
        let mut b = Histogram::new(0.0, 10.0, 5).unwrap();
        b.extend([1.5, 99.0]);
        a.merge(&b).unwrap();
        assert_eq!(a.counts()[0], 2.0);
        assert_eq!(a.underflow(), 1.0);
        assert_eq!(a.overflow(), 1.0);
        assert_eq!(a.total_weight(), 4.0);
        let c = Histogram::new(0.0, 10.0, 4).unwrap();
        assert!(a.merge(&c).is_err());
        let d = Histogram::new(0.0, 11.0, 5).unwrap();
        assert!(a.merge(&d).is_err());
    }

    #[test]
    fn extend_and_edges() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        h.extend([0.5, 1.5, 2.5, 3.5]);
        assert_eq!(h.counts(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(h.bin_edge(0), 0.0);
        assert_eq!(h.bin_edge(4), 4.0);
        assert_eq!(h.bins(), 4);
    }

    #[test]
    fn display_renders_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.add(0.5);
        let s = format!("{h}");
        assert!(s.contains('#'));
        assert!(s.contains("bins=2"));
    }
}
