//! The Recursive Green's Function (RGF) algorithm [Svizhenko et al. 2002],
//! the workhorse of the paper's GF phase.
//!
//! Given the block-tridiagonal `M = E·S − H − Σ^R` (boundary self-energies
//! folded into the end blocks) and block-diagonal `Σ^≷`, RGF computes the
//! diagonal and first off-diagonal blocks of `G^R` and `G^≷` in
//! `O(bnum · bs³)` instead of the dense `O((bnum·bs)³)`:
//!
//! 1. a forward sweep builds left-connected Green's functions `gL`, `gl`;
//! 2. a backward sweep assembles the fully-connected blocks.
//!
//! Every block this module produces is validated against the dense
//! reference solver in the test suite.
//!
//! # What one block row costs
//!
//! [`RgfSolution::flops`] counts `8·bs³` per `bs × bs` block product and
//! [`lu_flops`]`(bs, bs)` per block inverse, and is pinned by a test to
//! `8·(37·bnum − 33)·bs³ + bnum·lu_flops(bs, bs)`: 37 products per block
//! row, 4 fewer on the first forward row and none backward on the last.
//! Each product, what it produces and who reads it:
//!
//! | sweep | products | produces | read by |
//! |---|---|---|---|
//! | forward, `n > 0` | 2: `L·gL[n−1]·U` | the Schur term folded into `M[n][n]` before `gL[n] = M⁻¹` | every later step |
//! | forward | 2 + 2 (`n > 0`): `L·g≷[n−1]·L†`, `gL·Σ≷·gL†`, per `≷` | left-connected `g≷[n]` | the backward `≷` steps |
//! | backward | 2: `G^R[n+1][n+1]·L·gL` | `G^R[n+1][n]` | nothing — no observable reads it |
//! | backward | 2: `gL·U·G^R[n+1][n+1]` | `G^R[n][n+1]` | the `G^R[n][n]` step |
//! | backward | 2: `G^R[n][n+1]·L·gL` | `G^R[n][n]` | the next row's steps; phonon spectral function |
//! | backward | 1: `gu = gL·U` | shared by both `≷` steps | them |
//! | backward | 3 + 3, per `≷`: `gu·G≷[n+1]·U†·gL†`, `gu·G^R[n+1]·L·g≷` | `G≷[n][n]` | per-atom `G≷`/`D≷` blocks (SSE input), densities, contact currents |
//! | backward | 4, per `≷`: `G^R[n+1]·L·g≷`, `G≷[n+1]·U†·gL†` | `G≷[n+1][n]` | interface currents (`G^<` with `M[n][n+1]`), cross-slab phonon pair blocks |
//!
//! So 10 forward and 27 backward per row. The paper's §6.1.1 model
//! ([`rgf_flops_model`]) counts 26: the counted/model ratio is 1.49–1.50
//! at `bnum` 6–12 (the inverse term included). Two terms account for
//! that: `G^R[n+1][n]` is computed and never read (2 products), and each
//! `≷` step evaluates `G^R[n+1]·L·g≷` and `G≷[n+1]·U†·gL†` twice, once
//! inside `T1`/`T3` and once for `G≷[n+1][n]` (8 products per row, which
//! a reordering could share). Both are kept: the row solve
//! ([`crate::rows`]) repeats this algebra exactly, so its per-lane count
//! is this one.

use crate::dense_ref::DenseSolution;
use omen_linalg::{
    gemm, gemm_flops, lu::lu_flops, matmul, matmul3_into, matmul_into, matmul_op, BlockTriDiag,
    CMatrix, Op, Workspace, C64,
};

/// Inputs of one RGF solve: one energy-momentum point.
pub struct RgfInputs<'a> {
    /// `E·S − H − Σ^R` (block-tridiagonal; boundary Σ folded into the
    /// first and last diagonal blocks).
    pub m: &'a BlockTriDiag,
    /// Lesser self-energy, one diagonal block per slab (scattering +
    /// boundary contributions).
    pub sigma_l: &'a [CMatrix],
    /// Greater self-energy blocks.
    pub sigma_g: &'a [CMatrix],
}

/// Output blocks of one RGF solve.
#[derive(Clone, Debug)]
pub struct RgfSolution {
    /// `G^R[n][n]`.
    pub gr_diag: Vec<CMatrix>,
    /// `G^R[n][n+1]`.
    pub gr_upper: Vec<CMatrix>,
    /// `G^R[n+1][n]`.
    pub gr_lower: Vec<CMatrix>,
    /// `G^<[n][n]`.
    pub gl_diag: Vec<CMatrix>,
    /// `G^>[n][n]`.
    pub gg_diag: Vec<CMatrix>,
    /// `G^<[n+1][n]` (needed by the current operator).
    pub gl_lower: Vec<CMatrix>,
    /// `G^>[n+1][n]`.
    pub gg_lower: Vec<CMatrix>,
    /// Real flops performed (8 per complex MAC convention).
    pub flops: u64,
}

/// Solves one energy-momentum point with RGF, allocating fresh output and
/// scratch storage. Hot paths should hold a [`Workspace`] and a reusable
/// [`RgfSolution`] and call [`rgf_solve_into`] instead.
pub fn rgf_solve(inp: &RgfInputs) -> RgfSolution {
    let mut ws = Workspace::new();
    let mut out = RgfSolution::empty();
    rgf_solve_into(inp, &mut ws, &mut out);
    out
}

/// Resizes `v` to `n` blocks of `bs × bs`, reusing existing buffers.
fn ensure_blocks(v: &mut Vec<CMatrix>, n: usize, bs: usize) {
    v.truncate(n);
    for m in v.iter_mut() {
        m.resize(bs, bs);
    }
    while v.len() < n {
        v.push(CMatrix::zeros(bs, bs));
    }
}

/// Left-connected lesser/greater block:
/// `out = gL (Σ≷ + L g≷_prev L†) gL†` (the `prev` term only for `n > 0`).
#[allow(clippy::too_many_arguments)]
fn left_connected_lg(
    sigma: &CMatrix,
    prev: Option<(&CMatrix, &CMatrix)>, // (L[n−1], g≷_left[n−1])
    g: &CMatrix,
    s: &mut CMatrix,
    t1: &mut CMatrix,
    t2: &mut CMatrix,
    out: &mut CMatrix,
    flops: &mut u64,
    g3: u64,
) {
    s.copy_from(sigma);
    if let Some((l, p)) = prev {
        // L[n−1] · p · L[n−1]†
        matmul_into(l, p, t1);
        gemm(C64::ONE, t1, Op::N, l, Op::C, C64::ZERO, t2);
        *flops += 2 * g3;
        *s += &*t2;
    }
    matmul_into(g, s, t1);
    gemm(C64::ONE, t1, Op::N, g, Op::C, C64::ZERO, out);
    *flops += 2 * g3;
}

/// One lesser/greater backward-recursion step (identical algebra for `<`
/// and `>`, different Σ). `gu = gL[n]·U` is hoisted by the caller and
/// shared between both applications.
#[allow(clippy::too_many_arguments)]
fn backward_lg_step(
    gu: &CMatrix,
    gl_n: &CMatrix,
    u: &CMatrix,
    l: &CMatrix,
    g_conn_next: &CMatrix, // G^R[n+1][n+1]
    g_less_next: &CMatrix, // G≷[n+1][n+1]
    g_less_left: &CMatrix, // g≷_left[n]
    t1: &mut CMatrix,
    t2: &mut CMatrix,
    t3: &mut CMatrix,
    t4: &mut CMatrix,
    diag_out: &mut CMatrix,
    lower_out: &mut CMatrix,
    flops: &mut u64,
    g3: u64,
) {
    // T1 = gL·U·G≷[n+1]·U†·gL†  (gu = gL·U precomputed)
    matmul_into(gu, g_less_next, t1);
    gemm(C64::ONE, t1, Op::N, u, Op::C, C64::ZERO, t2);
    gemm(C64::ONE, t2, Op::N, gl_n, Op::C, C64::ZERO, t1); // t1 = T1
                                                           // T3 = gL·U·G^R[n+1]·L·g≷_left[n]
    matmul_into(gu, g_conn_next, t2);
    matmul3_into(t2, l, g_less_left, t4, t3); // t3 = T3
    *flops += 6 * g3;

    // diag = g≷_left + T1 + T3 − T3† (the adjoint keeps it anti-Hermitian).
    diag_out.copy_from(g_less_left);
    *diag_out += &*t1;
    *diag_out += &*t3;
    t3.adjoint_into(t4);
    *diag_out -= &*t4;

    // Off-diagonal: G≷[n+1][n] = −(G^R[n+1]·L·g≷_left + G≷[n+1]·U†·gL†).
    matmul3_into(g_conn_next, l, g_less_left, t1, lower_out);
    gemm(C64::ONE, g_less_next, Op::N, u, Op::C, C64::ZERO, t1);
    gemm(C64::ONE, t1, Op::N, gl_n, Op::C, C64::ONE, lower_out);
    *flops += 4 * g3;
    lower_out.scale_inplace(C64::from_re(-1.0));
}

/// Solves one energy-momentum point with RGF into a reusable solution.
///
/// All temporaries come from `ws` and every output block reuses `out`'s
/// buffers, so a warm `(ws, out)` pair makes the solve **allocation-free**
/// — the property the `integration_alloc` regression test pins down. The
/// forward/backward sweeps share the workspace's block buffers; values are
/// identical to the seed implementation up to floating-point
/// reassociation inside GEMM tiles.
pub fn rgf_solve_into(inp: &RgfInputs, ws: &mut Workspace, out: &mut RgfSolution) {
    let m = inp.m;
    let nb = m.num_blocks();
    let bs = m.block_size();
    assert_eq!(inp.sigma_l.len(), nb, "sigma_l blocks");
    assert_eq!(inp.sigma_g.len(), nb, "sigma_g blocks");
    let mut flops: u64 = 0;
    let g3 = gemm_flops(bs, bs, bs);

    ensure_blocks(&mut out.gr_diag, nb, bs);
    ensure_blocks(&mut out.gl_diag, nb, bs);
    ensure_blocks(&mut out.gg_diag, nb, bs);
    ensure_blocks(&mut out.gr_upper, nb.saturating_sub(1), bs);
    ensure_blocks(&mut out.gr_lower, nb.saturating_sub(1), bs);
    ensure_blocks(&mut out.gl_lower, nb.saturating_sub(1), bs);
    ensure_blocks(&mut out.gg_lower, nb.saturating_sub(1), bs);

    // Scratch blocks (returned to the workspace at the end).
    let mut t1 = ws.take(bs, bs);
    let mut t2 = ws.take(bs, bs);
    let mut t3 = ws.take(bs, bs);
    let mut t4 = ws.take(bs, bs);
    let mut s = ws.take(bs, bs);
    let mut eff = ws.take(bs, bs);
    let mut gu = ws.take(bs, bs);
    let mut grd_s = ws.take(bs, bs);
    let mut dl_s = ws.take(bs, bs);
    let mut dg_s = ws.take(bs, bs);

    // ---------- forward sweep: left-connected quantities ----------
    let mut g_left = ws.take_vec(); // gL[n]
    let mut gl_left = ws.take_vec(); // g<[n] left-connected
    let mut gg_left = ws.take_vec();

    for n in 0..nb {
        eff.copy_from(&m.diag[n]);
        if n > 0 {
            // M[n][n] − L[n−1] · gL[n−1] · U[n−1]
            matmul_into(&m.lower[n - 1], &g_left[n - 1], &mut t1);
            matmul_into(&t1, &m.upper[n - 1], &mut t2);
            flops += 2 * g3;
            eff -= &t2;
        }
        let mut g = ws.take(bs, bs);
        ws.invert_into(&eff, &mut g);
        flops += lu_flops(bs, bs);

        // Left-connected lesser/greater: g≷ = gL (Σ≷ + L g≷_prev L†) gL†.
        let mut gl = ws.take(bs, bs);
        let prev_l = (n > 0).then(|| (&m.lower[n - 1], &gl_left[n - 1]));
        left_connected_lg(
            &inp.sigma_l[n],
            prev_l,
            &g,
            &mut s,
            &mut t1,
            &mut t2,
            &mut gl,
            &mut flops,
            g3,
        );
        let mut gg = ws.take(bs, bs);
        let prev_g = (n > 0).then(|| (&m.lower[n - 1], &gg_left[n - 1]));
        left_connected_lg(
            &inp.sigma_g[n],
            prev_g,
            &g,
            &mut s,
            &mut t1,
            &mut t2,
            &mut gg,
            &mut flops,
            g3,
        );

        g_left.push(g);
        gl_left.push(gl);
        gg_left.push(gg);
    }

    // ---------- backward sweep: fully-connected blocks ----------
    out.gr_diag[nb - 1].copy_from(&g_left[nb - 1]);
    out.gl_diag[nb - 1].copy_from(&gl_left[nb - 1]);
    out.gg_diag[nb - 1].copy_from(&gg_left[nb - 1]);

    for n in (0..nb.saturating_sub(1)).rev() {
        let u = &m.upper[n]; // M[n][n+1]
        let l = &m.lower[n]; // M[n+1][n]
        let gl_n = &g_left[n];

        // Retarded off-diagonals:
        // G[n+1][n] = −G[n+1][n+1] · L · gL[n]
        matmul3_into(&out.gr_diag[n + 1], l, gl_n, &mut t1, &mut out.gr_lower[n]);
        out.gr_lower[n].scale_inplace(C64::from_re(-1.0));
        // G[n][n+1] = −gL[n] · U · G[n+1][n+1]
        matmul3_into(gl_n, u, &out.gr_diag[n + 1], &mut t1, &mut out.gr_upper[n]);
        out.gr_upper[n].scale_inplace(C64::from_re(-1.0));
        flops += 4 * g3;

        // Retarded diagonal: G[n][n] = gL[n] + gL[n]·U·G[n+1][n+1]·L·gL[n]
        //                            = gL[n] − G[n][n+1]·L·gL[n].
        grd_s.copy_from(gl_n);
        matmul3_into(&out.gr_upper[n], l, gl_n, &mut t1, &mut t2);
        flops += 2 * g3;
        grd_s -= &t2;

        // gu = gL[n]·U, shared by the lesser and greater steps below.
        matmul_into(gl_n, u, &mut gu);
        flops += g3;

        backward_lg_step(
            &gu,
            gl_n,
            u,
            l,
            &out.gr_diag[n + 1],
            &out.gl_diag[n + 1],
            &gl_left[n],
            &mut t1,
            &mut t2,
            &mut t3,
            &mut t4,
            &mut dl_s,
            &mut out.gl_lower[n],
            &mut flops,
            g3,
        );
        backward_lg_step(
            &gu,
            gl_n,
            u,
            l,
            &out.gr_diag[n + 1],
            &out.gg_diag[n + 1],
            &gg_left[n],
            &mut t1,
            &mut t2,
            &mut t3,
            &mut t4,
            &mut dg_s,
            &mut out.gg_lower[n],
            &mut flops,
            g3,
        );

        // Diagonal writes happen last: the steps above still read the
        // `n + 1` diagonals of the same vectors.
        out.gr_diag[n].copy_from(&grd_s);
        out.gl_diag[n].copy_from(&dl_s);
        out.gg_diag[n].copy_from(&dg_s);
    }

    ws.give_vec(g_left);
    ws.give_vec(gl_left);
    ws.give_vec(gg_left);
    for sc in [t1, t2, t3, t4, s, eff, gu, grd_s, dl_s, dg_s] {
        ws.give(sc);
    }
    out.flops = flops;
}

impl RgfSolution {
    /// A zero-block solution, the reusable output slot for
    /// [`rgf_solve_into`]. Performs no allocation.
    pub fn empty() -> Self {
        RgfSolution {
            gr_diag: Vec::new(),
            gr_upper: Vec::new(),
            gr_lower: Vec::new(),
            gl_diag: Vec::new(),
            gg_diag: Vec::new(),
            gl_lower: Vec::new(),
            gg_lower: Vec::new(),
            flops: 0,
        }
    }

    /// Checks the blocks against a dense solution; returns the largest
    /// absolute deviation over all compared blocks.
    pub fn max_deviation_from_dense(&self, dense: &DenseSolution, bs: usize) -> f64 {
        let nb = self.gr_diag.len();
        let mut worst = 0.0f64;
        let mut upd = |got: &CMatrix, want: &CMatrix| {
            worst = worst.max((got - want).max_abs());
        };
        for n in 0..nb {
            upd(&self.gr_diag[n], &DenseSolution::block(&dense.gr, bs, n, n));
            upd(&self.gl_diag[n], &DenseSolution::block(&dense.gl, bs, n, n));
            upd(&self.gg_diag[n], &DenseSolution::block(&dense.gg, bs, n, n));
        }
        for n in 0..nb.saturating_sub(1) {
            upd(
                &self.gr_upper[n],
                &DenseSolution::block(&dense.gr, bs, n, n + 1),
            );
            upd(
                &self.gr_lower[n],
                &DenseSolution::block(&dense.gr, bs, n + 1, n),
            );
            upd(
                &self.gl_lower[n],
                &DenseSolution::block(&dense.gl, bs, n + 1, n),
            );
            upd(
                &self.gg_lower[n],
                &DenseSolution::block(&dense.gg, bs, n + 1, n),
            );
        }
        worst
    }

    /// Spectral-function diagonal `A[n] = i(G^R[n][n] − G^A[n][n])`.
    pub fn spectral_diag(&self) -> Vec<CMatrix> {
        self.gr_diag
            .iter()
            .map(|g| {
                let mut a = g - &g.adjoint();
                a.scale_inplace(C64::I);
                a
            })
            .collect()
    }
}

/// Measured vs modeled: the paper's RGF flop model per energy-momentum
/// point, `8·(26·bnum − 25)·bs³` (dense-operation term of §6.1.1).
pub fn rgf_flops_model(bnum: usize, bs: usize) -> u64 {
    8 * (26 * bnum as u64 - 25) * (bs as u64).pow(3)
}

/// Convenience used by tests and benches: `A·B·C` with `C = B†`.
pub fn sandwich_adjoint(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let ab = matmul(a, b);
    matmul_op(&ab, Op::N, b, Op::C)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_ref::dense_solve;
    use omen_linalg::c64;

    use crate::testutil::test_system;

    #[test]
    fn rgf_matches_dense_small() {
        for &(nb, bs) in &[(2usize, 2usize), (3, 2), (4, 3), (6, 4), (8, 2)] {
            let (m, sl, sg) = test_system(nb, bs, 0.37 * nb as f64);
            let rgf = rgf_solve(&RgfInputs {
                m: &m,
                sigma_l: &sl,
                sigma_g: &sg,
            });
            let dense = dense_solve(&m, &sl, &sg);
            let dev = rgf.max_deviation_from_dense(&dense, bs);
            assert!(dev < 1e-9, "nb={nb} bs={bs}: deviation {dev}");
        }
    }

    #[test]
    fn single_block_degenerates_to_direct_solve() {
        let (m, sl, sg) = test_system(1, 4, 0.9);
        let rgf = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let dense = dense_solve(&m, &sl, &sg);
        assert!(rgf.max_deviation_from_dense(&dense, 4) < 1e-10);
        assert!(rgf.gr_upper.is_empty());
    }

    #[test]
    fn lesser_greater_anti_hermitian_diagonals() {
        let (m, sl, sg) = test_system(5, 3, 1.1);
        let rgf = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        for n in 0..5 {
            assert!(rgf.gl_diag[n].is_anti_hermitian(1e-10), "G<[{n}]");
            assert!(rgf.gg_diag[n].is_anti_hermitian(1e-10), "G>[{n}]");
        }
    }

    #[test]
    fn keldysh_difference_identity() {
        // G^> − G^< == G^R − G^A when Σ^> − Σ^< == Σ^R − Σ^A == −iΓ_total.
        // Build Σ^≷ satisfying the identity with the anti-Hermitian part of M.
        let (mut m, _, _) = test_system(4, 2, 0.0);
        // Anti-Hermitian part of M's diagonal: M − M† restricted blockwise.
        // Σ^R − Σ^A = −(M − M†) since M = ES − H − Σ^R and ES−H Hermitian.
        let nb = 4;
        let occ = 0.3;
        let mut sl = Vec::new();
        let mut sg = Vec::new();
        for b in 0..nb {
            let ra = &m.diag[b] - &m.diag[b].adjoint(); // = −(Σ^R − Σ^A)
            let ra = ra.scaled(c64(-1.0, 0.0));
            sl.push(ra.scaled(c64(-occ, 0.0)));
            sg.push(ra.scaled(c64(1.0 - occ, 0.0)));
        }
        // Ensure the off-diagonal blocks are exactly Hermitian-conjugate.
        for b in 0..nb - 1 {
            m.lower[b] = m.upper[b].adjoint();
        }
        let rgf = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        for n in 0..nb {
            let lhs = &rgf.gg_diag[n] - &rgf.gl_diag[n];
            let rhs = &rgf.gr_diag[n] - &rgf.gr_diag[n].adjoint();
            assert!(
                lhs.approx_eq(&rhs, 1e-9),
                "block {n}: ‖(G>−G<)−(GR−GA)‖ = {}",
                (&lhs - &rhs).max_abs()
            );
        }
    }

    #[test]
    fn flops_counted_and_scale() {
        let (m, sl, sg) = test_system(6, 3, 0.5);
        let r1 = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let (m2, sl2, sg2) = test_system(12, 3, 0.5);
        let r2 = rgf_solve(&RgfInputs {
            m: &m2,
            sigma_l: &sl2,
            sigma_g: &sg2,
        });
        assert!(r1.flops > 0);
        // Doubling the block count roughly doubles the work.
        let ratio = r2.flops as f64 / r1.flops as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
        // The paper's model grows the same way.
        let model_ratio = rgf_flops_model(12, 3) as f64 / rgf_flops_model(6, 3) as f64;
        assert!((model_ratio - ratio).abs() < 0.6);
    }

    #[test]
    fn flops_are_pinned_to_37_products_per_block_row() {
        for bs in [3usize, 12, 32] {
            for nb in [1usize, 2, 3, 6, 12] {
                let (m, sl, sg) = test_system(nb, bs, 0.3);
                let sol = rgf_solve(&RgfInputs {
                    m: &m,
                    sigma_l: &sl,
                    sigma_g: &sg,
                });
                let want =
                    8 * (37 * nb as u64 - 33) * (bs as u64).pow(3) + nb as u64 * lu_flops(bs, bs);
                assert_eq!(sol.flops, want, "nb {nb}, bs {bs}");
            }
        }
    }

    #[test]
    fn spectral_diag_hermitian_positive_trace() {
        let (m, sl, sg) = test_system(4, 3, 2.2);
        let rgf = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        for a in rgf.spectral_diag() {
            assert!(a.is_hermitian(1e-10));
            assert!(a.trace().re > 0.0, "spectral weight must be positive");
        }
    }
}
