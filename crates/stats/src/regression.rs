//! Ordinary least-squares line fitting.
//!
//! Used for trend analysis in the efficiency experiment (Fig 13): fitting
//! iterations-per-joule against SoC generation index quantifies whether
//! efficiency improves monotonically (it does overall, with the SD-805 dip).

use crate::StatsError;

/// A fitted line `y = slope·x + intercept` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination R² (1 for a perfect fit; 0 when the fit
    /// explains nothing beyond the mean; can be negative only for forced
    /// fits, which OLS never produces).
    pub r_squared: f64,
}

/// Fits `y = a·x + b` by ordinary least squares.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] if the slices are empty,
/// [`StatsError::InvalidParameter`] if they differ in length, have fewer
/// than two points, or all `x` values coincide, and
/// [`StatsError::NonFiniteValue`] on NaN/infinite input.
///
/// # Examples
///
/// ```
/// let fit = pv_stats::regression::linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<LinearFit, StatsError> {
    if x.is_empty() || y.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter("x and y lengths differ"));
    }
    if x.len() < 2 {
        return Err(StatsError::InvalidParameter("need at least two points"));
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteValue);
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|xi| (xi - mx).powi(2)).sum();
    if sxx == 0.0 {
        return Err(StatsError::InvalidParameter("all x values identical"));
    }
    let sxy: f64 = x.iter().zip(y).map(|(xi, yi)| (xi - mx) * (yi - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = y.iter().map(|yi| (yi - my).powi(2)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(xi, yi)| (yi - (slope * xi + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

pv_json::impl_to_json!(LinearFit {
    slope,
    intercept,
    r_squared
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [5.0, 7.0, 9.0, 11.0];
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!((f.slope * 10.0 + f.intercept - 23.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_data_has_partial_r2() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.1, 1.2, 1.8, 3.3, 3.9, 5.2];
        let f = linear_fit(&x, &y).unwrap();
        assert!(f.r_squared > 0.97 && f.r_squared < 1.0);
        assert!((f.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn flat_data_r2_is_one() {
        // Constant y: model predicts it exactly, define R² = 1.
        let f = linear_fit(&[0.0, 1.0, 2.0], &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(linear_fit(&[], &[]).is_err());
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn negative_slope() {
        let f = linear_fit(&[0.0, 1.0, 2.0], &[10.0, 8.0, 6.0]).unwrap();
        assert!((f.slope + 2.0).abs() < 1e-12);
    }
}
