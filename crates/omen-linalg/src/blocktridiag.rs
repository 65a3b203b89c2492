//! Block-tridiagonal matrix container.
//!
//! `H`, `S` and `Φ` are block-tridiagonal when the device is partitioned
//! into `bnum` slabs along transport (§4): only adjacent slabs couple. The
//! RGF algorithm walks these blocks; the dense reference solver assembles
//! them into a full matrix.

use crate::complex::C64;
use crate::dense::CMatrix;

/// A square block-tridiagonal matrix with uniform block size.
#[derive(Clone, Debug)]
pub struct BlockTriDiag {
    /// Number of diagonal blocks (`bnum` in the paper).
    nb: usize,
    /// Size of each (square) block.
    bs: usize,
    /// Diagonal blocks `A[n][n]`, `nb` of them.
    pub diag: Vec<CMatrix>,
    /// Super-diagonal blocks `A[n][n+1]`, `nb − 1` of them.
    pub upper: Vec<CMatrix>,
    /// Sub-diagonal blocks `A[n+1][n]`, `nb − 1` of them.
    pub lower: Vec<CMatrix>,
}

impl BlockTriDiag {
    /// Creates a zero block-tridiagonal matrix with `nb` blocks of size `bs`.
    pub fn zeros(nb: usize, bs: usize) -> Self {
        assert!(nb >= 1, "need at least one block");
        BlockTriDiag {
            nb,
            bs,
            diag: vec![CMatrix::zeros(bs, bs); nb],
            upper: vec![CMatrix::zeros(bs, bs); nb.saturating_sub(1)],
            lower: vec![CMatrix::zeros(bs, bs); nb.saturating_sub(1)],
        }
    }

    /// Number of diagonal blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.nb
    }

    /// Block size.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Full matrix dimension `nb * bs`.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.nb * self.bs
    }

    /// Assembles the dense representation (for reference solves and tests).
    pub fn to_dense(&self) -> CMatrix {
        let n = self.dim();
        let mut out = CMatrix::zeros(n, n);
        for b in 0..self.nb {
            out.set_block(b * self.bs, b * self.bs, &self.diag[b]);
        }
        for b in 0..self.nb - 1 {
            out.set_block(b * self.bs, (b + 1) * self.bs, &self.upper[b]);
            out.set_block((b + 1) * self.bs, b * self.bs, &self.lower[b]);
        }
        out
    }

    /// `true` if the assembled matrix is Hermitian within `tol`
    /// (each diagonal block Hermitian and `lower[b] == upper[b]†`).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.diag.iter().all(|d| d.is_hermitian(tol))
            && self
                .upper
                .iter()
                .zip(self.lower.iter())
                .all(|(u, l)| l.approx_eq(&u.adjoint(), tol))
    }

    /// Returns `alpha*self + beta*other` blockwise.
    pub fn linear_comb(&self, alpha: C64, other: &BlockTriDiag, beta: C64) -> BlockTriDiag {
        assert_eq!(self.nb, other.nb);
        assert_eq!(self.bs, other.bs);
        let comb = |a: &CMatrix, b: &CMatrix| {
            let mut out = a.scaled(alpha);
            out += &b.scaled(beta);
            out
        };
        BlockTriDiag {
            nb: self.nb,
            bs: self.bs,
            diag: self
                .diag
                .iter()
                .zip(other.diag.iter())
                .map(|(a, b)| comb(a, b))
                .collect(),
            upper: self
                .upper
                .iter()
                .zip(other.upper.iter())
                .map(|(a, b)| comb(a, b))
                .collect(),
            lower: self
                .lower
                .iter()
                .zip(other.lower.iter())
                .map(|(a, b)| comb(a, b))
                .collect(),
        }
    }

    /// Largest element magnitude over all blocks.
    pub fn max_abs(&self) -> f64 {
        self.diag
            .iter()
            .chain(self.upper.iter())
            .chain(self.lower.iter())
            .map(|m| m.max_abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn sample(nb: usize, bs: usize) -> BlockTriDiag {
        let mut m = BlockTriDiag::zeros(nb, bs);
        for b in 0..nb {
            m.diag[b] = CMatrix::from_fn(bs, bs, |i, j| {
                if i == j {
                    c64(2.0 + b as f64, 0.0)
                } else {
                    c64(0.1, 0.05)
                }
            });
            m.diag[b].hermitianize();
        }
        for b in 0..nb - 1 {
            m.upper[b] = CMatrix::from_fn(bs, bs, |i, j| c64(-(i as f64) * 0.1, j as f64 * 0.2));
            m.lower[b] = m.upper[b].adjoint();
        }
        m
    }

    #[test]
    fn dense_assembly_places_blocks() {
        let m = sample(3, 2);
        let d = m.to_dense();
        assert_eq!(d.shape(), (6, 6));
        assert_eq!(d[(0, 0)], m.diag[0][(0, 0)]);
        assert_eq!(d[(2, 3)], m.diag[1][(0, 1)]);
        assert_eq!(d[(0, 2)], m.upper[0][(0, 0)]);
        assert_eq!(d[(2, 0)], m.lower[0][(0, 0)]);
        // Far-off-diagonal entries are zero.
        assert_eq!(d[(0, 4)], C64::ZERO);
        assert_eq!(d[(5, 0)], C64::ZERO);
    }

    #[test]
    fn hermitian_detection() {
        let m = sample(4, 3);
        assert!(m.is_hermitian(1e-14));
        assert!(m.to_dense().is_hermitian(1e-14));
        let mut broken = m.clone();
        broken.lower[0][(0, 0)] += c64(0.5, 0.0);
        assert!(!broken.is_hermitian(1e-14));
    }

    #[test]
    fn linear_combination() {
        let a = sample(3, 2);
        let b = sample(3, 2);
        let c = a.linear_comb(c64(2.0, 0.0), &b, c64(-1.0, 0.0));
        // 2a - b == a when a == b.
        assert!(c.to_dense().approx_eq(&a.to_dense(), 1e-14));
    }

    #[test]
    fn single_block_edge_case() {
        let m = BlockTriDiag::zeros(1, 4);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.upper.len(), 0);
        assert!(m.is_hermitian(0.0));
        assert_eq!(m.to_dense().shape(), (4, 4));
    }

    #[test]
    fn max_abs_spans_all_blocks() {
        let mut m = BlockTriDiag::zeros(3, 2);
        m.upper[1][(1, 1)] = c64(0.0, -7.5);
        assert_eq!(m.max_abs(), 7.5);
    }
}
