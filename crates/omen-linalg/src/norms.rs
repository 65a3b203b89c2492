//! Norms, error metrics, and value-distribution diagnostics for complex
//! slices, used across the solver for convergence checks and for
//! reproducing Fig. 7a (the output value distribution of SSE).

use crate::complex::C64;

/// Largest element magnitude of a complex slice.
pub fn max_abs(xs: &[C64]) -> f64 {
    xs.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

/// Summary of the order-of-magnitude distribution of the nonzero real and
/// imaginary components of a tensor — the quantity plotted in Fig. 7a.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MagnitudeDistribution {
    /// Number of exactly-zero components.
    pub zeros: usize,
    /// Number of nonzero components.
    pub nonzeros: usize,
    /// Minimum magnitude over nonzero components.
    pub min_abs: f64,
    /// Maximum magnitude.
    pub max_abs: f64,
    /// Histogram over decades: `counts[d]` counts components with
    /// `10^(lo+d) <= |x| < 10^(lo+d+1)` where `lo = decade_lo`.
    pub decade_lo: i32,
    /// Per-decade counts.
    pub counts: Vec<usize>,
}

/// Computes the decade histogram of the real and imaginary components of a
/// complex slice (both components contribute, as in the paper's plot of
/// `Σ<` real/imaginary values separately — callers split planes if needed).
pub fn magnitude_distribution(xs: &[f64]) -> MagnitudeDistribution {
    let mut zeros = 0usize;
    let mut min_abs = f64::INFINITY;
    let mut max_abs = 0.0f64;
    for &x in xs {
        let a = x.abs();
        if a == 0.0 {
            zeros += 1;
        } else {
            min_abs = min_abs.min(a);
            max_abs = max_abs.max(a);
        }
    }
    if max_abs == 0.0 {
        return MagnitudeDistribution {
            zeros,
            ..Default::default()
        };
    }
    let lo = min_abs.log10().floor() as i32;
    let hi = max_abs.log10().floor() as i32;
    let nbins = (hi - lo + 1) as usize;
    let mut counts = vec![0usize; nbins];
    let mut nonzeros = 0usize;
    for &x in xs {
        let a = x.abs();
        if a > 0.0 {
            nonzeros += 1;
            let d = (a.log10().floor() as i32 - lo) as usize;
            counts[d.min(nbins - 1)] += 1;
        }
    }
    MagnitudeDistribution {
        zeros,
        nonzeros,
        min_abs,
        max_abs,
        decade_lo: lo,
        counts,
    }
}

/// Extracts the real components of a complex slice.
pub fn real_plane(xs: &[C64]) -> Vec<f64> {
    xs.iter().map(|z| z.re).collect()
}

/// Extracts the imaginary components of a complex slice.
pub fn imag_plane(xs: &[C64]) -> Vec<f64> {
    xs.iter().map(|z| z.im).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn basic_norms() {
        let v = vec![c64(3.0, 4.0), c64(0.0, 0.0)];
        assert_eq!(max_abs(&v), 5.0);
    }

    #[test]
    fn distribution_decades() {
        let xs = vec![0.0, 1e-3, 5e-3, 2e-1, 0.0, -3e-2];
        let d = magnitude_distribution(&xs);
        assert_eq!(d.zeros, 2);
        assert_eq!(d.nonzeros, 4);
        assert_eq!(d.decade_lo, -3);
        // decades: -3 -> two (1e-3, 5e-3), -2 -> one (3e-2), -1 -> one (2e-1)
        assert_eq!(d.counts, vec![2, 1, 1]);
        assert_eq!(d.min_abs, 1e-3);
        assert_eq!(d.max_abs, 0.2);
    }

    #[test]
    fn distribution_all_zero() {
        let d = magnitude_distribution(&[0.0, 0.0]);
        assert_eq!(d.zeros, 2);
        assert_eq!(d.nonzeros, 0);
        assert!(d.counts.is_empty());
    }

    #[test]
    fn planes_split() {
        let v = vec![c64(1.0, -2.0), c64(3.0, -4.0)];
        assert_eq!(real_plane(&v), vec![1.0, 3.0]);
        assert_eq!(imag_plane(&v), vec![-2.0, -4.0]);
    }
}
