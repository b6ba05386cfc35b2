//! Seeded sampling of device populations.
//!
//! The paper studied 3–5 retail devices per SoC; its future work (§VI)
//! envisions crowdsourced populations of thousands. [`sample`] supports
//! both scales: draw `n` dies from a [`ProcessNode`] deterministically from
//! a seed.

use crate::{DieSample, ProcessNode};
use pv_rng::rngs::StdRng;
use pv_rng::SeedableRng;

/// Draws a population of `n` dies manufactured on `node`,
/// deterministically for a fixed `seed`.
///
/// # Examples
///
/// ```
/// use pv_silicon::{population, ProcessNode};
///
/// let dies = population::sample(ProcessNode::PLANAR_28NM, 1000, 42);
/// assert_eq!(dies.len(), 1000);
/// ```
pub fn sample(node: ProcessNode, n: usize, seed: u64) -> Vec<DieSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| DieSample::sample(node, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::assign_bin;

    #[test]
    fn sampling_is_deterministic() {
        let a = sample(ProcessNode::PLANAR_28NM, 100, 7);
        let b = sample(ProcessNode::PLANAR_28NM, 100, 7);
        assert_eq!(a, b);
        let c = sample(ProcessNode::PLANAR_28NM, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn bin_histogram_is_roughly_uniform() {
        // Grades are uniform quantiles, so equal-quantile bins should be
        // roughly balanced for large n.
        let dies = sample(ProcessNode::PLANAR_28NM, 7000, 3);
        let mut hist = [0usize; 7];
        for die in &dies {
            hist[usize::from(assign_bin(die, 7).unwrap().index())] += 1;
        }
        for &count in &hist {
            assert!(
                (800..1200).contains(&count),
                "bin count {count} far from uniform"
            );
        }
    }
}
