//! Dense complex matrices in column-major layout.
//!
//! Column-major matches the BLAS convention the paper's kernels (cuBLAS,
//! MKL, ESSL) use, so leading-dimension/stride reasoning in the batched
//! kernels carries over directly.

use crate::complex::{c64, C64};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// `tr(X · Y)` for column-major `n × n` slices: `Σ_r Σ_s X[r,s]·Y[s,r]`,
/// `n²` multiply-adds straight off the operands, in that order.
#[inline]
pub fn trace_product(x: &[C64], y: &[C64], n: usize) -> C64 {
    let mut acc = C64::ZERO;
    for r in 0..n {
        for s in 0..n {
            acc = acc.mul_add(x[s * n + r], y[r * n + s]);
        }
    }
    acc
}

/// A dense `rows × cols` complex matrix, column-major.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Creates a matrix that owns `data` (column-major, `rows*cols` long).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        CMatrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[C64]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw column-major data slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Borrows column `j` as a contiguous slice.
    #[inline(always)]
    pub(crate) fn col(&self, j: usize) -> &[C64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrows column `j`.
    #[inline(always)]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [C64] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Unchecked-ish linear index of `(i, j)`.
    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        j * self.rows + i
    }

    /// Sets every element to zero, keeping the allocation.
    pub(crate) fn fill_zero(&mut self) {
        self.data.fill(C64::ZERO);
    }

    /// Element capacity of the backing buffer (what [`CMatrix::resize`]
    /// can reach without reallocating).
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshapes to `rows × cols`, reusing the backing buffer. Contents are
    /// zeroed. Allocates only when the buffer must grow beyond its
    /// capacity — the workspace reuse path never does after warmup.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, C64::ZERO);
    }

    /// Reshapes like [`CMatrix::resize`] but without zeroing surviving
    /// contents — for outputs that are fully overwritten immediately
    /// (e.g. `gemm` with `beta == 0`, which zero-fills itself).
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, C64::ZERO);
    }

    /// Becomes an elementwise copy of `src`, reusing the backing buffer.
    pub fn copy_from(&mut self, src: &CMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites with the identity (must already be square).
    pub(crate) fn set_identity(&mut self) {
        assert!(self.is_square(), "set_identity on non-square matrix");
        self.data.fill(C64::ZERO);
        for i in 0..self.rows {
            let k = i * self.rows + i;
            self.data[k] = C64::ONE;
        }
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CMatrix {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v = v.conj();
        }
        out
    }

    /// Scales all elements by a complex factor, in place.
    pub fn scale_inplace(&mut self, s: C64) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scaled(&self, s: C64) -> CMatrix {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Trace (sum of diagonal elements); requires a square matrix.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `tr(self · b)` of two square matrices of one size, by
    /// [`trace_product`]: no product is formed.
    pub fn trace_product(&self, b: &CMatrix) -> C64 {
        assert!(
            self.is_square() && self.shape() == b.shape(),
            "trace_product of {:?} and {:?}",
            self.shape(),
            b.shape()
        );
        trace_product(&self.data, &b.data, self.rows)
    }

    /// `true` if `‖self − other‖_max <= tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (*a - *b).abs() <= tol)
    }

    /// `true` if the matrix is Hermitian to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..=j {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if the matrix is anti-Hermitian (`A† = −A`) to within `tol`.
    /// Lesser/greater Green's functions satisfy this identity.
    pub fn is_anti_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..=j {
                if (self[(i, j)] + self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the `br × bc` sub-matrix whose top-left corner is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, br: usize, bc: usize) -> CMatrix {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        CMatrix::from_fn(br, bc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `src` into the sub-matrix at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &CMatrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "set_block out of range"
        );
        for j in 0..src.cols {
            for i in 0..src.rows {
                let v = src[(i, j)];
                self[(r0 + i, c0 + j)] = v;
            }
        }
    }

    /// Adds `alpha * src` into the sub-matrix at `(r0, c0)`.
    pub fn add_block(&mut self, r0: usize, c0: usize, alpha: C64, src: &CMatrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "add_block out of range"
        );
        for j in 0..src.cols {
            for i in 0..src.rows {
                let v = src[(i, j)];
                let dst = &mut self[(r0 + i, c0 + j)];
                *dst = dst.mul_add(alpha, v);
            }
        }
    }

    /// Symmetrizes the matrix Hermitianly in place: `A ← (A + A†)/2`.
    pub fn hermitianize(&mut self) {
        assert!(self.is_square());
        for j in 0..self.cols {
            for i in 0..=j {
                let avg = (self[(i, j)] + self[(j, i)].conj()).scale(0.5);
                self[(i, j)] = avg;
                self[(j, i)] = avg.conj();
            }
        }
    }

    /// Anti-Hermitian projection in place: `A ← (A − A†)/2`.
    pub fn anti_hermitianize(&mut self) {
        assert!(self.is_square());
        for j in 0..self.cols {
            for i in 0..=j {
                let avg = (self[(i, j)] - self[(j, i)].conj()).scale(0.5);
                self[(i, j)] = avg;
                self[(j, i)] = -avg.conj();
            }
        }
    }

    /// Matrix-vector product `y = A x`.
    pub fn matvec(&self, x: &[C64]) -> Vec<C64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![C64::ZERO; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            let col = self.col(j);
            for (yi, &aij) in y.iter_mut().zip(col.iter()) {
                *yi = yi.mul_add(aij, xj);
            }
        }
        y
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[self.idx(i, j)]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        let k = self.idx(i, j);
        &mut self.data[k]
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, other: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let mut out = self.clone();
        out += other;
        out
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, other: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let mut out = self.clone();
        out -= other;
        out
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    fn add_assign(&mut self, other: &CMatrix) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    fn sub_assign(&mut self, other: &CMatrix) {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scaled(c64(-1.0, 0.0))
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    /// Convenience `A * B` (allocating). Hot paths should call
    /// [`crate::gemm::gemm`] directly to control accumulation and transposes.
    fn mul(self, other: &CMatrix) -> CMatrix {
        crate::gemm::matmul(self, other)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        let rmax = self.rows.min(8);
        let cmax = self.cols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > cmax { "…" } else { "" })?;
        }
        if self.rows > rmax {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = CMatrix::from_fn(3, 2, |i, j| c64(i as f64, j as f64));
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], c64(2.0, 1.0));
        // Column-major: col(1) contiguous.
        assert_eq!(m.col(1), &[c64(0.0, 1.0), c64(1.0, 1.0), c64(2.0, 1.0)]);
    }

    #[test]
    fn identity_and_trace() {
        let id = CMatrix::identity(4);
        assert_eq!(id.trace(), c64(4.0, 0.0));
        assert!(id.is_hermitian(0.0));
    }

    #[test]
    fn adjoint_involution() {
        let m = CMatrix::from_fn(3, 4, |i, j| c64(i as f64 + 0.5, j as f64 - 1.0));
        assert!(m.adjoint().adjoint().approx_eq(&m, 0.0));
        assert_eq!(m.adjoint().shape(), (4, 3));
        assert_eq!(m.adjoint()[(1, 2)], m[(2, 1)].conj());
    }

    #[test]
    fn hermitian_checks() {
        let mut m = CMatrix::from_fn(3, 3, |i, j| c64((i * j) as f64, i as f64 - j as f64));
        m.hermitianize();
        assert!(m.is_hermitian(1e-15));
        let mut a = m.clone();
        a.anti_hermitianize();
        assert!(a.is_anti_hermitian(1e-15));
    }

    #[test]
    fn block_round_trip() {
        let m = CMatrix::from_fn(6, 6, |i, j| c64((10 * i + j) as f64, 0.0));
        let b = m.block(2, 3, 2, 2);
        assert_eq!(b[(0, 0)], c64(23.0, 0.0));
        let mut z = CMatrix::zeros(6, 6);
        z.set_block(2, 3, &b);
        assert_eq!(z[(3, 4)], m[(3, 4)]);
        assert_eq!(z[(0, 0)], C64::ZERO);
    }

    #[test]
    fn arithmetic_ops() {
        let a = CMatrix::from_fn(2, 2, |i, j| c64((i + j) as f64, 1.0));
        let b = CMatrix::identity(2);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], a[(0, 0)] + C64::ONE);
        let d = &s - &b;
        assert!(d.approx_eq(&a, 0.0));
        let n = -&a;
        assert_eq!(n[(1, 1)], -a[(1, 1)]);
    }

    #[test]
    fn matvec_identity() {
        let id = CMatrix::identity(3);
        let x = vec![c64(1.0, -1.0), c64(2.0, 0.0), c64(0.0, 3.0)];
        assert_eq!(id.matvec(&x), x);
    }

    #[test]
    fn norms() {
        let m = CMatrix::from_diag(&[c64(3.0, 4.0), c64(0.0, 0.0)]);
        assert_eq!(m.max_abs(), 5.0);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(3, 2);
        let _ = &a + &b;
    }
}
