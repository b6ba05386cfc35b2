//! Streaming, mergeable moment accumulators.
//!
//! Million-device sweeps cannot afford to retain every score: the streaming
//! aggregation pipeline folds each device's score into a constant-size
//! [`Moments`] accumulator and merges per-worker partials in a canonical
//! order. The algebra is chosen so that the same fold produces *bitwise*
//! identical results regardless of how the stream was chunked, provided the
//! merge order is fixed:
//!
//! - [`Moments::push`] is defined as `merge` with a singleton accumulator
//!   (`n = 1, mean = x, m2 = 0`). With `other.n == 1`, Chan's parallel merge
//!   formula reduces exactly to Welford's online update, so merging width-1
//!   chunks left-to-right *is* the sequential fold, bit for bit.
//! - [`Moments::merge`] uses Chan et al.'s pairwise update with `self` as
//!   the lower-index block. Callers must merge partials in ascending block
//!   order; the combining step is then deterministic for a fixed chunking.
//!
//! Floating-point addition is not associative, so different chunkings of the
//! same stream agree with each other (and with the sequential fold) only
//! within a small relative error (see the property tests in `pv-core`). The
//! crowd aggregation pipeline therefore fixes the chunk grid *absolutely*
//! (aligned to device index, independent of worker count),
//! which makes the aggregate bitwise reproducible across thread counts and
//! kill+resume even though it is not bitwise equal to the width-1 fold.

use crate::StatsError;

/// Constant-size running count/mean/M2 accumulator (Welford/Chan).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Moments {
    /// An empty accumulator (identity element for [`Moments::merge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An accumulator holding a single observation.
    pub fn singleton(x: f64) -> Self {
        Self {
            n: 1,
            mean: x,
            m2: 0.0,
        }
    }

    /// Folds one observation in. Defined as `merge(singleton(x))`, which for
    /// a single-element right operand is exactly Welford's update.
    pub fn push(&mut self, x: f64) {
        self.merge(&Self::singleton(x));
    }

    /// Merges `other` into `self` using Chan's parallel update.
    ///
    /// Order contract: `self` must be the lower-index (earlier-in-stream)
    /// block. Merging partials in ascending block order reproduces the exact
    /// operation sequence of the canonical single-writer fold when each
    /// partial was built by sequential [`Moments::push`] calls.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.n += other.n;
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] when nothing has been pushed.
    pub fn mean(&self) -> Result<f64, StatsError> {
        if self.n == 0 {
            return Err(StatsError::EmptySample);
        }
        Ok(self.mean)
    }

    /// Sample variance (n − 1 denominator, matching [`crate::Summary`]).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] with fewer than two observations.
    pub fn sample_variance(&self) -> Result<f64, StatsError> {
        if self.n < 2 {
            return Err(StatsError::EmptySample);
        }
        Ok(self.m2 / (self.n as f64 - 1.0))
    }

    /// Sample standard deviation (n − 1 denominator).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] with fewer than two observations.
    pub fn sample_std(&self) -> Result<f64, StatsError> {
        Ok(self.sample_variance()?.sqrt())
    }

    /// Relative standard deviation as a percentage of the mean.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] with fewer than two observations
    /// and [`StatsError::InvalidParameter`] when the mean is zero.
    pub fn rsd_percent(&self) -> Result<f64, StatsError> {
        let std = self.sample_std()?;
        if self.mean == 0.0 {
            return Err(StatsError::InvalidParameter("zero mean"));
        }
        Ok(std / self.mean.abs() * 100.0)
    }

    /// Standard error of the mean (sample std / √n).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySample`] with fewer than two observations.
    pub fn standard_error(&self) -> Result<f64, StatsError> {
        Ok(self.sample_std()? / (self.n as f64).sqrt())
    }
}

pv_json::impl_to_json!(Moments { n, mean, m2 });

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 40.0 + 17.0 * ((i as f64 * 0.7311).sin() + 1.0))
            .collect()
    }

    #[test]
    fn push_matches_summary() {
        let xs = scores(257);
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        let summary = crate::Summary::from_slice(&xs).unwrap();
        assert!((m.mean().unwrap() - summary.mean()).abs() < 1e-12);
        assert!((m.sample_std().unwrap() - summary.std()).abs() < 1e-12);
        assert!((m.rsd_percent().unwrap() - summary.rsd_percent()).abs() < 1e-10);
        assert_eq!(m.count(), 257);
    }

    fn fold_chunked(xs: &[f64], chunk_width: usize) -> Moments {
        let mut merged = Moments::new();
        for chunk in xs.chunks(chunk_width) {
            let mut part = Moments::new();
            for &x in chunk {
                part.push(x);
            }
            merged.merge(&part);
        }
        merged
    }

    #[test]
    fn width_one_chunking_is_the_sequential_fold_bitwise() {
        let xs = scores(100);
        let mut seq = Moments::new();
        for &x in &xs {
            seq.push(x);
        }
        assert_eq!(seq, fold_chunked(&xs, 1));
    }

    #[test]
    fn fixed_chunking_is_deterministic_and_near_sequential() {
        let xs = scores(1000);
        let mut seq = Moments::new();
        for &x in &xs {
            seq.push(x);
        }
        for chunk_width in [7, 32, 64, 1000] {
            let a = fold_chunked(&xs, chunk_width);
            // Same chunking → bitwise identical, always.
            assert_eq!(a, fold_chunked(&xs, chunk_width));
            // Different association → tiny relative error only.
            assert_eq!(a.count(), seq.count());
            let rel_mean =
                (a.mean().unwrap() - seq.mean().unwrap()).abs() / seq.mean().unwrap().abs();
            let rel_std = (a.sample_std().unwrap() - seq.sample_std().unwrap()).abs()
                / seq.sample_std().unwrap();
            assert!(rel_mean < 1e-12, "width {chunk_width}: {rel_mean}");
            assert!(rel_std < 1e-12, "width {chunk_width}: {rel_std}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::singleton(3.0);
        m.merge(&Moments::new());
        assert_eq!(m, Moments::singleton(3.0));
        let mut e = Moments::new();
        e.merge(&Moments::singleton(3.0));
        assert_eq!(e, Moments::singleton(3.0));
    }

    #[test]
    fn empty_errors() {
        let m = Moments::new();
        assert_eq!(m.mean(), Err(StatsError::EmptySample));
        assert_eq!(m.sample_std(), Err(StatsError::EmptySample));
        let one = Moments::singleton(1.0);
        assert_eq!(one.sample_variance(), Err(StatsError::EmptySample));
    }

    #[test]
    fn zero_mean_rsd_rejected() {
        let mut m = Moments::new();
        m.push(-1.0);
        m.push(1.0);
        assert!(matches!(
            m.rsd_percent(),
            Err(StatsError::InvalidParameter(_))
        ));
    }
}
