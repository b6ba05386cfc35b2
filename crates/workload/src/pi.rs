//! Rabinowitz–Wagon spigot computation of π digits.
//!
//! This is the actual arithmetic the paper's benchmark app performs in its
//! JavaScript worker: compute the first 4,285 decimal digits of π, in a
//! loop, on every core. The host-side examples run this Rust port for
//! genuine CPU-bound load; its output is testable against the known
//! expansion, which also guards against the compiler optimising the
//! benchmark away.

use crate::WorkloadError;

/// Number of digits the paper's workload computes per iteration.
pub const PAPER_DIGITS: usize = 4285;

/// Computes the first `n` decimal digits of π (including the leading 3).
///
/// Implements the Rabinowitz–Wagon streaming spigot with the usual
/// held-predigit / nines-run carry handling.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] when `n == 0`.
///
/// # Examples
///
/// ```
/// let digits = pv_workload::pi::pi_digits(10)?;
/// assert_eq!(digits, vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
/// # Ok::<(), pv_workload::WorkloadError>(())
/// ```
pub fn pi_digits(n: usize) -> Result<Vec<u8>, WorkloadError> {
    if n == 0 {
        return Err(WorkloadError::InvalidParameter("n must be >= 1"));
    }
    // Work length per Rabinowitz–Wagon: floor(10n/3) + 1 mixed-radix places.
    let len = n * 10 / 3 + 1;
    let mut a = vec![2u64; len];
    let mut out: Vec<u8> = Vec::with_capacity(n + 2);
    let mut held: Option<u64> = None;
    let mut nines: usize = 0;

    // Produce a couple of spare digits so a trailing nines-run can resolve.
    let target = n + 2;
    'outer: for _ in 0..target + 8 {
        let mut q: u64 = 0;
        for i in (1..len).rev() {
            let denom = 2 * (i as u64) + 1;
            let x = 10 * a[i] + q * (i as u64 + 1);
            a[i] = x % denom;
            q = x / denom;
        }
        let x = 10 * a[0] + q;
        a[0] = x % 10;
        q = x / 10;

        if q == 9 {
            nines += 1;
        } else if q == 10 {
            // Carry ripples into the held digit and the nines become zeros.
            if let Some(h) = held {
                out.push((h + 1) as u8);
            }
            out.extend(std::iter::repeat_n(0u8, nines));
            held = Some(0);
            nines = 0;
        } else {
            if let Some(h) = held {
                out.push(h as u8);
            }
            out.extend(std::iter::repeat_n(9u8, nines));
            nines = 0;
            held = Some(q);
        }
        if out.len() >= target {
            break 'outer;
        }
    }
    // Flush whatever resolved digits remain.
    if out.len() < target {
        if let Some(h) = held {
            out.push(h as u8);
        }
        out.extend(std::iter::repeat_n(9u8, nines));
    }
    out.truncate(n);
    Ok(out)
}

/// One paper-sized benchmark iteration: computes [`PAPER_DIGITS`] digits of
/// π and folds them into a checksum (so the work cannot be optimised away).
///
/// # Panics
///
/// Never panics: `PAPER_DIGITS` is a valid digit count.
pub fn pi_iteration() -> u64 {
    let digits = pi_digits(PAPER_DIGITS).expect("PAPER_DIGITS >= 1");
    digits.iter().fold(0u64, |acc, &d| {
        acc.wrapping_mul(31).wrapping_add(u64::from(d))
    })
}

/// Formats digits as the familiar "3.14159…" string.
///
/// # Examples
///
/// ```
/// let digits = pv_workload::pi::pi_digits(6)?;
/// assert_eq!(pv_workload::pi::format_digits(&digits), "3.14159");
/// # Ok::<(), pv_workload::WorkloadError>(())
/// ```
pub fn format_digits(digits: &[u8]) -> String {
    let mut s = String::with_capacity(digits.len() + 1);
    for (i, &d) in digits.iter().enumerate() {
        s.push(char::from(b'0' + d));
        if i == 0 && digits.len() > 1 {
            s.push('.');
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const PI_50: &str = "31415926535897932384626433832795028841971693993751";

    #[test]
    fn first_50_digits_are_exact() {
        let digits = pi_digits(50).unwrap();
        let expected: Vec<u8> = PI_50.bytes().map(|b| b - b'0').collect();
        assert_eq!(digits, expected);
    }

    #[test]
    fn single_digit() {
        assert_eq!(pi_digits(1).unwrap(), vec![3]);
    }

    #[test]
    fn zero_digits_rejected() {
        assert!(pi_digits(0).is_err());
    }

    #[test]
    fn prefix_property() {
        // The first k digits of an n-digit run equal the k-digit run.
        let long = pi_digits(200).unwrap();
        let short = pi_digits(120).unwrap();
        assert_eq!(&long[..120], &short[..]);
    }

    #[test]
    fn digit_762_starts_the_feynman_point() {
        // The 762nd decimal place of π begins the famous "999999" run;
        // with the leading 3 that is 0-based index 762.
        let digits = pi_digits(769).unwrap();
        assert_eq!(&digits[762..768], &[9, 9, 9, 9, 9, 9]);
        // And the digit after the run is 8 — carries were handled right.
        assert_eq!(digits[768], 8);
    }

    #[test]
    fn paper_iteration_is_deterministic() {
        // Two iterations produce the same checksum, and it is derived from
        // the true digits (spot-check against a recomputation).
        let a = pi_iteration();
        let b = pi_iteration();
        assert_eq!(a, b);
        let digits = pi_digits(PAPER_DIGITS).unwrap();
        assert_eq!(digits.len(), PAPER_DIGITS);
        let check = digits.iter().fold(0u64, |acc, &d| {
            acc.wrapping_mul(31).wrapping_add(u64::from(d))
        });
        assert_eq!(a, check);
    }

    #[test]
    fn formatting() {
        let digits = pi_digits(5).unwrap();
        assert_eq!(format_digits(&digits), "3.1415");
        assert_eq!(format_digits(&[3]), "3");
    }
}
