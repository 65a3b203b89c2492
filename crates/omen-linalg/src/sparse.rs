//! Complex sparse matrices (CSR and CSC) and sparse-dense products.
//!
//! The Hamiltonian off-diagonal blocks in RGF are sparse; §7.1.4 of the
//! paper compares three cuSPARSE strategies:
//!
//! * `CSRMM2` — CSR (left) × dense, supporting `NN`, `NT`, `TN`;
//! * `GEMMI`  — dense × CSC (right), `NN` only;
//! * dense `GEMM` after densification.
//!
//! We implement the same three code paths with the same operation-support
//! matrix so Tables 7 and 8 can be regenerated.

use crate::complex::C64;
use crate::dense::CMatrix;
use crate::gemm::Op;

/// Compressed sparse row complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, `rows + 1` long.
    indptr: Vec<usize>,
    /// Column indices, `nnz` long, sorted within each row.
    indices: Vec<usize>,
    /// Nonzero values.
    data: Vec<C64>,
}

/// Compressed sparse column complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// Column pointer array, `cols + 1` long.
    indptr: Vec<usize>,
    /// Row indices, `nnz` long, sorted within each column.
    indices: Vec<usize>,
    /// Nonzero values.
    data: Vec<C64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense one, dropping entries with
    /// `|a_ij| <= threshold`.
    pub fn from_dense(a: &CMatrix, threshold: f64) -> Self {
        let (rows, cols) = a.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = a[(i, j)];
                if v.abs() > threshold {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub(crate) fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Fraction of nonzero entries.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Densifies.
    pub fn to_dense(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                out[(i, self.indices[k])] = self.data[k];
            }
        }
        out
    }

    /// Converts to CSC (equivalently: CSR of the transpose, reinterpreted).
    pub fn to_csc(&self) -> CscMatrix {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0usize; nnz];
        let mut data = vec![C64::ZERO; nnz];
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k];
                let dst = cursor[j];
                indices[dst] = i;
                data[dst] = self.data[k];
                cursor[j] += 1;
            }
        }
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Iterates over `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, C64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (self.indptr[i]..self.indptr[i + 1]).map(move |k| (i, self.indices[k], self.data[k]))
        })
    }
}

impl CscMatrix {
    /// Builds a CSC matrix from a dense one, dropping `|a_ij| <= threshold`.
    pub fn from_dense(a: &CMatrix, threshold: f64) -> Self {
        CsrMatrix::from_dense(a, threshold).to_csc()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Densifies.
    pub fn to_dense(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for k in self.indptr[j]..self.indptr[j + 1] {
                out[(self.indices[k], j)] = self.data[k];
            }
        }
        out
    }
}

/// `C = alpha · op(A_csr) · B + beta · C` — the cuSPARSE `csrmm2` analogue.
///
/// Supported `op`: `N`, `T`, `C` on the sparse operand (the paper's NT/TN
/// timings refer to the dense operand's layout; transposing the *dense*
/// operand is handled by the caller staging `B` appropriately).
pub fn csrmm(alpha: C64, a: &CsrMatrix, op_a: Op, b: &CMatrix, beta: C64, c: &mut CMatrix) {
    let (m, k) = match op_a {
        Op::N => (a.rows, a.cols),
        Op::T | Op::C => (a.cols, a.rows),
    };
    assert_eq!(b.rows(), k, "csrmm inner dimension mismatch");
    let n = b.cols();
    assert_eq!((c.rows(), c.cols()), (m, n), "csrmm output shape mismatch");

    if beta == C64::ZERO {
        c.fill_zero();
    } else if beta != C64::ONE {
        c.scale_inplace(beta);
    }

    match op_a {
        Op::N => {
            // C[i, :] += alpha * sum_k A[i,k] B[k, :]
            for i in 0..a.rows {
                for p in a.indptr[i]..a.indptr[i + 1] {
                    let j = a.indices[p];
                    let v = alpha * a.data[p];
                    for col in 0..n {
                        let bv = b[(j, col)];
                        let dst = &mut c[(i, col)];
                        *dst = dst.mul_add(v, bv);
                    }
                }
            }
        }
        Op::T | Op::C => {
            let conj = op_a == Op::C;
            // op(A)[j, i] = A[i, j]: scatter row i of A into row j of C.
            for i in 0..a.rows {
                for p in a.indptr[i]..a.indptr[i + 1] {
                    let j = a.indices[p];
                    let v0 = if conj { a.data[p].conj() } else { a.data[p] };
                    let v = alpha * v0;
                    for col in 0..n {
                        let bv = b[(i, col)];
                        let dst = &mut c[(j, col)];
                        *dst = dst.mul_add(v, bv);
                    }
                }
            }
        }
    }
}

/// `C = alpha · A_dense · B_csc + beta · C` — the cuBLAS `gemmi` analogue
/// (dense × sparse-on-the-right, `NN` only, matching the library's support
/// matrix in Table 7).
pub fn gemmi(alpha: C64, a: &CMatrix, b: &CscMatrix, beta: C64, c: &mut CMatrix) {
    assert_eq!(a.cols(), b.rows, "gemmi inner dimension mismatch");
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols),
        "gemmi output shape mismatch"
    );
    if beta == C64::ZERO {
        c.fill_zero();
    } else if beta != C64::ONE {
        c.scale_inplace(beta);
    }
    // Column j of C = alpha * sum_{k in col j of B} B[k,j] * A[:,k].
    for j in 0..b.cols {
        for p in b.indptr[j]..b.indptr[j + 1] {
            let k = b.indices[p];
            let w = alpha * b.data[p];
            let ak = a.col(k);
            let cj = c.col_mut(j);
            for (ci, &av) in cj.iter_mut().zip(ak.iter()) {
                *ci = ci.mul_add(av, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::{gemm, matmul};

    fn sparse_test_dense(r: usize, c: usize, keep_every: usize) -> CMatrix {
        CMatrix::from_fn(r, c, |i, j| {
            if (i * c + j).is_multiple_of(keep_every) {
                c64((i + 1) as f64 * 0.3, (j as f64) - 1.5)
            } else {
                C64::ZERO
            }
        })
    }

    #[test]
    fn csr_round_trip() {
        let d = sparse_test_dense(7, 5, 3);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert!(s.to_dense().approx_eq(&d, 0.0));
        assert_eq!(
            s.nnz(),
            d.as_slice().iter().filter(|z| z.abs() > 0.0).count()
        );
    }

    #[test]
    fn csc_round_trip_and_conversion() {
        let d = sparse_test_dense(6, 8, 4);
        let csr = CsrMatrix::from_dense(&d, 0.0);
        let csc = csr.to_csc();
        assert!(csc.to_dense().approx_eq(&d, 0.0));
        assert_eq!(csc.nnz(), csr.nnz());
        let direct = CscMatrix::from_dense(&d, 0.0);
        assert!(direct.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn csrmm_n_matches_dense() {
        let da = sparse_test_dense(5, 4, 2);
        let a = CsrMatrix::from_dense(&da, 0.0);
        let b = CMatrix::from_fn(4, 6, |i, j| c64(i as f64, j as f64 * 0.5));
        let mut c = CMatrix::zeros(5, 6);
        csrmm(C64::ONE, &a, Op::N, &b, C64::ZERO, &mut c);
        assert!(c.approx_eq(&matmul(&da, &b), 1e-12));
    }

    #[test]
    fn csrmm_t_and_c_match_dense() {
        let da = sparse_test_dense(5, 4, 3);
        let a = CsrMatrix::from_dense(&da, 0.0);
        let b = CMatrix::from_fn(5, 3, |i, j| c64(0.2 * i as f64 - 1.0, 0.7 * j as f64));
        for &op in &[Op::T, Op::C] {
            let mut c = CMatrix::zeros(4, 3);
            csrmm(C64::ONE, &a, op, &b, C64::ZERO, &mut c);
            let mut want = CMatrix::zeros(4, 3);
            gemm(C64::ONE, &da, op, &b, Op::N, C64::ZERO, &mut want);
            assert!(c.approx_eq(&want, 1e-12), "op {op:?}");
        }
    }

    #[test]
    fn csrmm_alpha_beta() {
        let da = sparse_test_dense(3, 3, 2);
        let a = CsrMatrix::from_dense(&da, 0.0);
        let b = CMatrix::identity(3);
        let c0 = CMatrix::from_fn(3, 3, |i, j| c64((i + j) as f64, 0.0));
        let mut c = c0.clone();
        let alpha = c64(2.0, 1.0);
        let beta = c64(0.0, -1.0);
        csrmm(alpha, &a, Op::N, &b, beta, &mut c);
        let mut want = c0.scaled(beta);
        want += &da.scaled(alpha);
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn gemmi_matches_dense() {
        let a = CMatrix::from_fn(6, 5, |i, j| c64(i as f64 - 2.0, j as f64 * 0.1));
        let db = sparse_test_dense(5, 4, 3);
        let b = CscMatrix::from_dense(&db, 0.0);
        let mut c = CMatrix::zeros(6, 4);
        gemmi(C64::ONE, &a, &b, C64::ZERO, &mut c);
        assert!(c.approx_eq(&matmul(&a, &db), 1e-12));
    }

    #[test]
    fn empty_sparse_matrix() {
        let d = CMatrix::zeros(4, 4);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.density(), 0.0);
        let b = CMatrix::identity(4);
        let mut c = CMatrix::identity(4);
        csrmm(C64::ONE, &s, Op::N, &b, C64::ONE, &mut c); // beta=1 keeps C
        assert!(c.approx_eq(&CMatrix::identity(4), 0.0));
    }

    #[test]
    fn threshold_drops_small_entries() {
        let d = CMatrix::from_fn(3, 3, |i, j| c64(if i == j { 1.0 } else { 1e-12 }, 0.0));
        let s = CsrMatrix::from_dense(&d, 1e-9);
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn iter_yields_sorted_triplets() {
        let d = sparse_test_dense(4, 4, 2);
        let s = CsrMatrix::from_dense(&d, 0.0);
        let trips: Vec<_> = s.iter().collect();
        for w in trips.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
        for (i, j, v) in trips {
            assert_eq!(d[(i, j)], v);
        }
    }
}
