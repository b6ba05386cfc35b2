//! Host-runnable CPU kernels beyond the paper's π loop.
//!
//! The paper's benchmark is a single CPU-bound kernel. For methodology
//! studies on real hosts (and to show ACCUBENCH generalises), this module
//! adds two classic kernels with different bottlenecks:
//!
//! * [`Matmul`] — dense FLOP-bound matrix multiply (frequency-sensitive,
//!   like the π spigot);
//! * [`StreamTriad`] — the STREAM triad `a[i] = b[i] + s·c[i]`,
//!   bandwidth-bound (mostly frequency-*insensitive* on real hardware).
//!
//! All kernels are deterministic and fold their output into a checksum so
//! the optimiser cannot elide the work.

use crate::WorkloadError;

/// A deterministic, optimiser-proof unit of CPU work.
pub trait Kernel {
    /// Human-readable kernel name.
    fn name(&self) -> &'static str;

    /// Runs one iteration, returning a data-dependent checksum.
    fn run_once(&mut self) -> u64;
}

/// Dense `n×n` matrix multiply, FLOP-bound.
#[derive(Debug, Clone)]
pub struct Matmul {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Matmul {
    /// Creates an `n×n` multiply with deterministic operands.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for `n == 0` or `n`
    /// large enough to risk memory exhaustion (> 2048).
    pub fn new(n: usize) -> Result<Self, WorkloadError> {
        if n == 0 || n > 2048 {
            return Err(WorkloadError::InvalidParameter("n must be in 1..=2048"));
        }
        let a: Vec<f64> = (0..n * n).map(|i| ((i % 17) as f64) * 0.25 + 1.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64) * 0.5 - 2.0).collect();
        Ok(Self {
            n,
            a,
            b,
            c: vec![0.0; n * n],
        })
    }
}

impl Kernel for Matmul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn run_once(&mut self) -> u64 {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (k, &aik) in self.a[i * n..(i + 1) * n].iter().enumerate() {
                    acc += aik * self.b[k * n + j];
                }
                self.c[i * n + j] = acc;
            }
        }
        self.c
            .iter()
            .fold(0u64, |h, &v| h.wrapping_mul(31).wrapping_add(v.to_bits()))
    }
}

/// STREAM triad `a[i] = b[i] + s·c[i]`, bandwidth-bound on real machines.
#[derive(Debug, Clone)]
pub struct StreamTriad {
    scalar: f64,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    passes: usize,
}

impl StreamTriad {
    /// Creates a triad over `len` elements, `passes` sweeps per iteration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero length or
    /// zero passes.
    pub fn new(len: usize, passes: usize) -> Result<Self, WorkloadError> {
        if len == 0 {
            return Err(WorkloadError::InvalidParameter("len must be >= 1"));
        }
        if passes == 0 {
            return Err(WorkloadError::InvalidParameter("passes must be >= 1"));
        }
        Ok(Self {
            scalar: 3.0,
            a: vec![0.0; len],
            b: (0..len).map(|i| (i % 7) as f64).collect(),
            c: (0..len).map(|i| (i % 5) as f64 * 0.5).collect(),
            passes,
        })
    }
}

impl Kernel for StreamTriad {
    fn name(&self) -> &'static str {
        "stream-triad"
    }

    fn run_once(&mut self) -> u64 {
        for _ in 0..self.passes {
            for i in 0..self.a.len() {
                self.a[i] = self.b[i] + self.scalar * self.c[i];
            }
            // Feed back so successive passes aren't dead code.
            self.scalar = self.a[self.a.len() / 2] * 1e-6 + 3.0;
        }
        self.a
            .iter()
            .step_by((self.a.len() / 64).max(1))
            .fold(0u64, |h, &v| h.wrapping_mul(31).wrapping_add(v.to_bits()))
    }
}

/// The paper's π kernel (4,285 digits) wrapped in the [`Kernel`] interface.
#[derive(Debug, Clone, Copy)]
pub struct PiKernel;

impl PiKernel {
    /// Creates the paper-sized kernel.
    pub fn paper() -> Self {
        Self
    }
}

impl Kernel for PiKernel {
    fn name(&self) -> &'static str {
        "pi-spigot"
    }

    fn run_once(&mut self) -> u64 {
        let digits = crate::pi::pi_digits(crate::pi::PAPER_DIGITS).expect("PAPER_DIGITS >= 1");
        digits
            .iter()
            .fold(0u64, |h, &d| h.wrapping_mul(31).wrapping_add(u64::from(d)))
    }
}

/// The standard host kernel suite (π, matmul, triad) at sizes that each run
/// in very roughly comparable time on a laptop core.
///
/// # Errors
///
/// Never fails in practice; sizes are valid by construction.
pub fn standard_suite() -> Result<Vec<Box<dyn Kernel>>, WorkloadError> {
    Ok(vec![
        Box::new(PiKernel::paper()),
        Box::new(Matmul::new(256)?),
        Box::new(StreamTriad::new(1 << 20, 24)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        // 2×2 with the deterministic init:
        // a = [1.0, 1.25; 1.5, 1.75], b = [-2.0, -1.5; -1.0, -0.5].
        let mut m = Matmul::new(2).unwrap();
        m.run_once();
        let c = &m.c;
        assert!((c[0] - (1.0 * -2.0 - 1.25)).abs() < 1e-12);
        assert!((c[1] - (1.0 * -1.5 + 1.25 * -0.5)).abs() < 1e-12);
        assert!((c[2] - (1.5 * -2.0 - 1.75)).abs() < 1e-12);
        assert!((c[3] - (1.5 * -1.5 + 1.75 * -0.5)).abs() < 1e-12);
    }

    #[test]
    fn kernels_are_deterministic() {
        let mut a = Matmul::new(16).unwrap();
        let mut b = Matmul::new(16).unwrap();
        assert_eq!(a.run_once(), b.run_once());

        let mut s1 = StreamTriad::new(1024, 3).unwrap();
        let mut s2 = StreamTriad::new(1024, 3).unwrap();
        assert_eq!(s1.run_once(), s2.run_once());
        // The π kernel's checksum is pinned to `pi_iteration` below.
    }

    #[test]
    fn pi_kernel_checksum_matches_pi_iteration() {
        let mut k = PiKernel::paper();
        assert_eq!(k.run_once(), crate::pi::pi_iteration());
    }

    #[test]
    fn validation() {
        assert!(Matmul::new(0).is_err());
        assert!(Matmul::new(4096).is_err());
        assert!(StreamTriad::new(0, 1).is_err());
        assert!(StreamTriad::new(8, 0).is_err());
    }

    #[test]
    fn suite_has_three_distinct_kernels() {
        let suite = standard_suite().unwrap();
        let names: Vec<&str> = suite.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["pi-spigot", "matmul", "stream-triad"]);
    }

    #[test]
    fn stream_feedback_prevents_constant_folding() {
        // Successive iterations can differ because the scalar feeds back —
        // but from a fresh kernel the first run is always the same.
        let mut s = StreamTriad::new(4096, 2).unwrap();
        let first = s.run_once();
        let second = s.run_once();
        let mut fresh = StreamTriad::new(4096, 2).unwrap();
        assert_eq!(fresh.run_once(), first);
        // May or may not equal `first`; just exercise it.
        let _ = second;
    }
}
