//! Normal-distribution primitives.
//!
//! The silicon population model draws die quality from a standard normal and
//! needs the inverse CDF to map a *quantile grade* (e.g. "this die is at the
//! 85th percentile of leakiness") to a z-score deterministically. The
//! quantile function uses Acklam's rational approximation (relative error
//! < 1.15e−9 over the open unit interval), which is far more than enough for
//! a power-model input.

use crate::StatsError;

/// Cumulative distribution of the standard normal at `x`.
///
/// Computed via the complementary error function using the Abramowitz &
/// Stegun 7.1.26 polynomial (absolute error < 1.5e−7), symmetrized for
/// negative arguments.
pub fn normal_cdf(x: f64) -> f64 {
    // erf via A&S 7.1.26 on |x|/sqrt(2).
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf_abs = 1.0 - poly * (-z * z).exp();
    let erf = if z >= 0.0 { erf_abs } else { -erf_abs };
    0.5 * (1.0 + erf)
}

/// Quantile (inverse CDF) of the standard normal.
///
/// Uses Peter Acklam's rational approximation (relative error below
/// 1.15e−9 across the whole open unit interval).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] unless `0 < p < 1`.
///
/// # Examples
///
/// ```
/// let z = pv_stats::dist::normal_quantile(0.975).unwrap();
/// assert!((z - 1.959964).abs() < 1e-5);
/// ```
pub fn normal_quantile(p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidParameter("probability outside (0,1)"));
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-5);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn quantile_known_points() {
        assert!(normal_quantile(0.5).unwrap().abs() < 1e-9);
        assert!((normal_quantile(0.841_344_746).unwrap() - 1.0).abs() < 1e-6);
        assert!((normal_quantile(0.975).unwrap() - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.025).unwrap() + 1.959_963_985).abs() < 1e-6);
    }

    #[test]
    fn quantile_rejects_degenerate_probabilities() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.3).is_err());
        assert!(normal_quantile(f64::NAN).is_err());
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p).unwrap();
            assert!(
                (normal_cdf(x) - p).abs() < 2e-6,
                "p={p} x={x} cdf={}",
                normal_cdf(x)
            );
        }
    }
}
