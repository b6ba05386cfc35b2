//! Seeded sampling of device populations.
//!
//! The paper studied 3–5 retail devices per SoC; its future work (§VI)
//! envisions crowdsourced populations of thousands. [`Population`] supports
//! both scales: draw `n` dies from a [`ProcessNode`] deterministically from
//! a seed.

use crate::{DieSample, ProcessNode};
use pv_rng::rngs::StdRng;
use pv_rng::SeedableRng;

/// A population of dies manufactured on one process.
///
/// # Examples
///
/// ```
/// use pv_silicon::population::Population;
/// use pv_silicon::ProcessNode;
///
/// let pop = Population::sample(ProcessNode::PLANAR_28NM, 1000, 42);
/// assert_eq!(pop.dies().len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    dies: Vec<DieSample>,
}

impl Population {
    /// Draws `n` dies from `node`, deterministically for a fixed `seed`.
    pub fn sample(node: ProcessNode, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dies = (0..n).map(|_| DieSample::sample(node, &mut rng)).collect();
        Self { dies }
    }

    /// The sampled dies.
    pub fn dies(&self) -> &[DieSample] {
        &self.dies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::assign_bin;

    #[test]
    fn sampling_is_deterministic() {
        let a = Population::sample(ProcessNode::PLANAR_28NM, 100, 7);
        let b = Population::sample(ProcessNode::PLANAR_28NM, 100, 7);
        assert_eq!(a, b);
        let c = Population::sample(ProcessNode::PLANAR_28NM, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn bin_histogram_is_roughly_uniform() {
        // Grades are uniform quantiles, so equal-quantile bins should be
        // roughly balanced for large n.
        let pop = Population::sample(ProcessNode::PLANAR_28NM, 7000, 3);
        let mut hist = [0usize; 7];
        for die in pop.dies() {
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
