//! Robust sample statistics for benchmark timing data.
//!
//! The SimpleBench variance reviews (SNIPPETS.md) showed that what ruins
//! benchmark reproducibility is not the estimator but the sampling
//! discipline: auto-scaled iteration counts produced 30–105 % run-to-run
//! variance while fixed iterations × high sample counts achieved < 4 %.
//! This module supplies the estimator half of that bargain: order
//! statistics with interpolation (p50/p90), median absolute deviation,
//! Tukey-fence outlier rejection, and a single [`RobustStats`] summary
//! that carries a *relative spread* guardrail — metrics whose spread
//! exceeds the threshold are flagged `noisy`, so a reader of the report
//! knows the value is not to be trusted to better than its spread.
//!
//! All functions are deterministic pure functions of their input vector,
//! so the whole path is unit-testable with injected samples.

/// Consistency constant scaling MAD to the standard deviation of a
/// normal distribution (1 / Φ⁻¹(3/4)). Using the scaled value makes
/// `rel_spread` comparable to a coefficient of variation.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Default relative-spread guardrail: metrics whose scaled MAD exceeds
/// 5 % of the median are flagged `noisy`. Chosen from the SimpleBench
/// finding that a well-conditioned fixed-iteration benchmark sits
/// under 4 % even on a shared host.
pub const DEFAULT_NOISE_THRESHOLD: f64 = 0.05;

/// Robust summary of one benchmark's timed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustStats {
    /// Smallest retained sample.
    pub min: f64,
    /// Median (50th percentile) of retained samples — the point estimate.
    pub p50: f64,
    /// 90th percentile of retained samples.
    pub p90: f64,
    /// Mean of retained samples.
    pub mean: f64,
    /// Median absolute deviation of retained samples (unscaled).
    pub mad: f64,
    /// Scaled MAD relative to the median: `MAD_TO_SIGMA · mad / p50`.
    /// Zero when the median is zero (degenerate all-zero samples).
    pub rel_spread: f64,
    /// Samples discarded by the IQR fence.
    pub outliers_rejected: usize,
    /// Samples that survived the fence and fed every statistic above.
    pub retained: usize,
    /// True when `rel_spread` exceeded the caller's guardrail.
    pub noisy: bool,
}

/// Interpolated percentile of an ascending-sorted slice (`q` in 0..=1,
/// linear interpolation between closest ranks). Empty input returns 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of an ascending-sorted slice. Empty input returns 0.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Median absolute deviation (unscaled) of an ascending-sorted slice.
pub fn mad(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let m = median(sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - m).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    median(&dev)
}

/// Tukey-fence outlier rejection on an ascending-sorted slice: samples
/// outside `[q1 − 1.5·IQR, q3 + 1.5·IQR]` are discarded. Returns the
/// retained (still sorted) samples and the rejected count. Slices of
/// fewer than 4 samples are returned unchanged — quartiles are
/// meaningless there.
pub fn iqr_retain(sorted: &[f64]) -> (Vec<f64>, usize) {
    if sorted.len() < 4 {
        return (sorted.to_vec(), 0);
    }
    let q1 = percentile(sorted, 0.25);
    let q3 = percentile(sorted, 0.75);
    let iqr = q3 - q1;
    let lo = q1 - 1.5 * iqr;
    let hi = q3 + 1.5 * iqr;
    let retained: Vec<f64> = sorted
        .iter()
        .copied()
        .filter(|&x| x >= lo && x <= hi)
        .collect();
    let rejected = sorted.len() - retained.len();
    (retained, rejected)
}

/// Full robust pipeline: sort, IQR-reject, then summarize. Returns
/// `None` for an empty sample vector — callers must treat that as a
/// skipped benchmark, never as a zero measurement.
pub fn robust(samples: &[f64], noise_threshold: f64) -> Option<RobustStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let (retained, outliers_rejected) = iqr_retain(&sorted);
    let p50 = median(&retained);
    let p90 = percentile(&retained, 0.9);
    let mean = retained.iter().sum::<f64>() / retained.len() as f64;
    let mad_v = mad(&retained);
    let rel_spread = if p50 > 0.0 {
        MAD_TO_SIGMA * mad_v / p50
    } else {
        0.0
    };
    Some(RobustStats {
        min: retained.first().copied().unwrap_or(0.0),
        p50,
        p90,
        mean,
        mad: mad_v,
        rel_spread,
        outliers_rejected,
        retained: retained.len(),
        noisy: rel_spread > noise_threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        // rank = 0.9 * 4 = 3.6 → 4 + 0.6*(5-4)
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn mad_of_known_vector() {
        // median = 3, |x - 3| = [2,1,0,1,2] → sorted [0,1,1,2,2] → MAD 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn iqr_rejects_the_wild_point() {
        let mut v = vec![10.0, 10.1, 10.2, 10.3, 10.1, 10.2, 50.0];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (retained, rejected) = iqr_retain(&v);
        assert_eq!(rejected, 1);
        assert_eq!(retained.len(), 6);
        assert!(retained.iter().all(|&x| x < 11.0));
    }

    #[test]
    fn iqr_keeps_small_vectors_whole() {
        let v = [1.0, 2.0, 100.0];
        let (retained, rejected) = iqr_retain(&v);
        assert_eq!(rejected, 0);
        assert_eq!(retained, v.to_vec());
    }

    #[test]
    fn robust_quiet_samples_are_not_noisy() {
        let samples = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9];
        let s = robust(&samples, DEFAULT_NOISE_THRESHOLD).unwrap();
        assert!(!s.noisy, "rel_spread {} should be quiet", s.rel_spread);
        assert!((s.p50 - 10.0).abs() < 0.1);
        assert_eq!(s.retained + s.outliers_rejected, samples.len());
    }

    #[test]
    fn robust_scattered_samples_are_noisy() {
        let samples = [10.0, 14.0, 8.0, 13.0, 9.0, 15.0, 7.5, 12.0];
        let s = robust(&samples, DEFAULT_NOISE_THRESHOLD).unwrap();
        assert!(s.noisy, "rel_spread {} should be noisy", s.rel_spread);
    }

    #[test]
    fn robust_outlier_does_not_poison_p50() {
        // One 10× outlier among 9 quiet samples: rejected, median stays.
        let samples = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 10.0];
        let s = robust(&samples, DEFAULT_NOISE_THRESHOLD).unwrap();
        // The 10× point must go; a tight fence may also clip a
        // straggler from the cluster edge.
        assert!(s.outliers_rejected >= 1 && s.outliers_rejected <= 2);
        assert!((s.p50 - 1.0).abs() < 0.02);
        assert!(s.p90 < 2.0, "10x outlier survived: p90 = {}", s.p90);
        assert!(!s.noisy);
    }

    #[test]
    fn robust_empty_is_none_not_zero() {
        assert!(robust(&[], DEFAULT_NOISE_THRESHOLD).is_none());
    }

    #[test]
    fn robust_all_zero_samples_do_not_divide_by_zero() {
        let s = robust(&[0.0, 0.0, 0.0], DEFAULT_NOISE_THRESHOLD).unwrap();
        assert_eq!(s.rel_spread, 0.0);
        assert!(!s.noisy);
    }
}
