//! Complex LU factorization with partial pivoting, linear solves, and
//! matrix inversion.
//!
//! The RGF recursion inverts one diagonal block per step (`g = M⁻¹`); OMEN
//! uses `Zgetrf/Zgetrs` from cuBLAS/MAGMA. Block sizes here are moderate
//! (tens to a few hundreds), so a cache-friendly right-looking factorization
//! is adequate. One type holds a factorization, `LuFactors`: the
//! allocating [`invert`] and [`solve`] and the reusing
//! [`crate::Workspace::invert_into`] all run on it.

use crate::complex::C64;
use crate::dense::CMatrix;

/// An LU factorization `P A = L U` of a square complex matrix, in
/// reusable storage: the packed factors and pivot vector live across
/// factorizations, so a held `LuFactors` allocates nothing after the
/// first one.
pub(crate) struct LuFactors {
    /// Packed factors: unit-lower `L` below the diagonal, `U` on and above.
    lu: CMatrix,
    /// Row permutation: `perm[k]` is the pivot row chosen at step `k`.
    perm: Vec<usize>,
}

impl Default for LuFactors {
    fn default() -> Self {
        Self::new()
    }
}

impl LuFactors {
    /// Empty storage; holds no factorization until [`LuFactors::factorize`].
    pub(crate) fn new() -> Self {
        LuFactors {
            lu: CMatrix::zeros(0, 0),
            perm: Vec::new(),
        }
    }

    /// Factorizes `a` into this storage (buffers reused). Returns an error
    /// if a zero pivot column is found; the stored factors are then
    /// unspecified.
    pub(crate) fn factorize(&mut self, a: &CMatrix) -> Result<(), SingularMatrix> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        self.lu.copy_from(a);
        self.perm.clear();
        let lu = &mut self.lu;

        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut p = k;
            let mut pmax = lu[(k, k)].norm_sqr();
            for i in (k + 1)..n {
                let v = lu[(i, k)].norm_sqr();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 {
                return Err(SingularMatrix { step: k });
            }
            self.perm.push(p);
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
            }

            // Eliminate below the pivot; update the trailing submatrix
            // column by column (contiguous in column-major storage).
            let pivot_inv = lu[(k, k)].recip();
            for i in (k + 1)..n {
                let m = lu[(i, k)] * pivot_inv;
                lu[(i, k)] = m;
            }
            for j in (k + 1)..n {
                let ukj = lu[(k, j)];
                if ukj == C64::ZERO {
                    continue;
                }
                for i in (k + 1)..n {
                    let lik = lu[(i, k)];
                    let v = lu[(i, j)];
                    lu[(i, j)] = v - lik * ukj;
                }
            }
        }
        Ok(())
    }

    /// [`LuFactors::factorize`], panicking on a singular `a` with a
    /// message naming `what` was asked for. RGF diagonal blocks of a
    /// well-posed NEGF system are always invertible (the `i·η` broadening
    /// guarantees it), so a panic here indicates malformed input.
    pub(crate) fn factorize_or_panic(&mut self, a: &CMatrix, what: &str) {
        if let Err(e) = self.factorize(a) {
            panic!("{what}: {e} (matrix {}x{})", a.rows(), a.cols());
        }
    }

    /// Dimension of the factored matrix.
    fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for a single right-hand side, in place.
    // Triangular-solve index loops mirror the textbook formulation.
    #[allow(clippy::needless_range_loop)]
    fn solve_vec_inplace(&self, b: &mut [C64]) {
        let n = self.n();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation.
        for (k, &p) in self.perm.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward: L y = P b (unit diagonal).
        for i in 1..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc * self.lu[(i, i)].recip();
        }
    }

    /// Solves `A X = B` for a multi-column right-hand side, in place.
    pub(crate) fn solve_inplace(&self, b: &mut CMatrix) {
        assert_eq!(b.rows(), self.n(), "rhs row count mismatch");
        for j in 0..b.cols() {
            self.solve_vec_inplace(b.col_mut(j));
        }
    }

    /// Writes `A⁻¹` into `out` (buffer reused; resized to `n × n`).
    pub(crate) fn invert_into(&self, out: &mut CMatrix) {
        out.resize_for_overwrite(self.n(), self.n());
        out.set_identity();
        self.solve_inplace(out);
    }
}

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularMatrix {
    /// The elimination step at which no usable pivot was found.
    pub(crate) step: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at elimination step {}", self.step)
    }
}

/// Inverts a square matrix, panicking on singularity with a descriptive
/// message ([`crate::Workspace::invert_into`] reuses its factor storage).
pub fn invert(a: &CMatrix) -> CMatrix {
    let mut f = LuFactors::new();
    f.factorize_or_panic(a, "invert");
    let mut inv = CMatrix::zeros(0, 0);
    f.invert_into(&mut inv);
    inv
}

/// Solves `A X = B`, panicking on singularity.
pub fn solve(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut f = LuFactors::new();
    f.factorize_or_panic(a, "solve");
    let mut x = b.clone();
    f.solve_inplace(&mut x);
    x
}

/// Flop count of an `n × n` complex LU factorization plus `m`-column solve,
/// using the paper's 8-flops-per-complex-MAC convention:
/// `8·(2n³/3)/2 = 8n³/3 …` we report the standard `8(n³/3)` for `getrf` and
/// `8 n² m` for `getrs`.
pub fn lu_flops(n: usize, solve_cols: usize) -> u64 {
    let n = n as u64;
    let m = solve_cols as u64;
    8 * n * n * n / 3 + 8 * n * n * m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::matmul;

    fn test_mat(n: usize, seed: f64) -> CMatrix {
        // Diagonally dominated so it is comfortably nonsingular.
        CMatrix::from_fn(n, n, |i, j| {
            let base = c64(
                ((i * 7 + j * 3) as f64 + seed).sin() * 0.4,
                ((i * 5 + j * 11) as f64 - seed).cos() * 0.4,
            );
            if i == j {
                base + c64(3.0, 0.5)
            } else {
                base
            }
        })
    }

    #[test]
    fn inverse_times_original_is_identity() {
        for n in [1, 2, 3, 5, 17, 40] {
            let a = test_mat(n, 0.3);
            let inv = invert(&a);
            let prod = matmul(&a, &inv);
            assert!(
                prod.approx_eq(&CMatrix::identity(n), 1e-9),
                "n={n}: ‖A·A⁻¹−I‖ too large"
            );
        }
    }

    #[test]
    fn solve_matches_inverse_multiply() {
        let a = test_mat(12, 1.0);
        let b = CMatrix::from_fn(12, 4, |i, j| c64(i as f64 * 0.1, j as f64 * 0.2 - 0.3));
        let x = solve(&a, &b);
        let x2 = matmul(&invert(&a), &b);
        assert!(x.approx_eq(&x2, 1e-9));
        // Residual check.
        let r = &matmul(&a, &x) - &b;
        assert!(r.max_abs() < 1e-10, "residual {}", r.max_abs());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // A[0,0] = 0 forces a pivot swap.
        let a = CMatrix::from_vec(
            2,
            2,
            vec![C64::ZERO, c64(1.0, 0.0), c64(1.0, 0.0), c64(1.0, 0.0)],
        );
        let inv = invert(&a);
        assert!(matmul(&a, &inv).approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = CMatrix::from_fn(3, 3, |i, _| c64(i as f64, 0.0)); // rank 1
        assert!(LuFactors::new().factorize(&a).is_err());
    }

    #[test]
    fn reused_factors_match_fresh_ones() {
        // One `LuFactors` across sizes gives the bits of fresh storage,
        // and its solve has a small residual.
        let mut f = LuFactors::new();
        for n in [17, 3, 40, 9] {
            let a = test_mat(n, 0.1 * n as f64);
            f.factorize(&a).unwrap();
            let mut inv = CMatrix::from_fn(n + 1, 2, |i, j| c64(i as f64, j as f64));
            f.invert_into(&mut inv);
            assert!(inv.approx_eq(&invert(&a), 0.0), "n={n}: inverse");
            let b = CMatrix::from_fn(n, 3, |i, j| c64(i as f64 * 0.1, 0.2 - j as f64));
            let mut x = b.clone();
            f.solve_inplace(&mut x);
            assert!(x.approx_eq(&solve(&a, &b), 0.0), "n={n}: solve");
            let r = &matmul(&a, &x) - &b;
            assert!(r.max_abs() < 1e-10, "n={n}: residual {}", r.max_abs());
        }
    }

    #[test]
    fn hermitian_inverse_is_hermitian() {
        let mut a = test_mat(9, 0.7);
        a.hermitianize();
        let inv = invert(&a);
        assert!(inv.is_hermitian(1e-9));
    }

    #[test]
    fn flop_model_positive() {
        assert!(lu_flops(10, 10) > 0);
        assert_eq!(lu_flops(3, 0), 8 * 27 / 3);
    }
}
