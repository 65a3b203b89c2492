//! The Recursive Green's Function (RGF) algorithm [Svizhenko et al. 2002],
//! the workhorse of the paper's GF phase, for one energy-momentum point.
//!
//! Given the block-tridiagonal `M = E·S − H − Σ^R` (boundary self-energies
//! folded into the end blocks) and block-diagonal `Σ^≷`, RGF computes the
//! diagonal and first off-diagonal blocks of `G^R` and `G^≷` in
//! `O(bnum · bs³)` instead of the dense `O((bnum·bs)³)`:
//!
//! 1. a forward sweep builds left-connected Green's functions `gL`, `gl`;
//! 2. a backward sweep assembles the fully-connected blocks.
//!
//! The recursion itself is written once, in [`crate::rows`]:
//! [`rgf_solve_into`] is [`rgf_row_into`] on a single energy lane, its
//! rows collected into an [`RgfSolution`]. What one block row costs — 23
//! products against the §6.1.1 model's 26, each with what it produces and
//! who reads it — is tabled there. Every block this module produces is
//! validated against the dense reference solver in the test suite.

use crate::dense_ref::DenseSolution;
use crate::rows::{rgf_row_into, RgfRow};
use omen_linalg::{BlockTriDiag, CMatrix, Workspace, C64};

/// Inputs of one RGF solve: one energy-momentum point.
#[derive(Clone, Copy)]
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
    let mut out = RgfSolution::empty();
    rgf_solve_into(inp, &mut Workspace::new(), &mut out);
    out
}

/// Solves one energy-momentum point with RGF into a reusable solution:
/// [`rgf_row_into`] on one lane.
///
/// All temporaries come from `ws` and every output block reuses `out`'s
/// buffers, so a warm `(ws, out)` pair makes the solve **allocation-free**
/// — the property the `integration_alloc` regression test pins down.
pub fn rgf_solve_into(inp: &RgfInputs, ws: &mut Workspace, out: &mut RgfSolution) {
    let (nb, bs) = (inp.m.num_blocks(), inp.m.block_size());
    assert_eq!(inp.sigma_l.len(), nb, "sigma_l blocks");
    assert_eq!(inp.sigma_g.len(), nb, "sigma_g blocks");
    out.shape(nb, bs);
    let flops = rgf_row_into(&mut [*inp][..], ws, |_, row| out.put(row));
    out.flops = flops;
}

impl RgfSolution {
    /// A zero-block solution, the reusable output slot for
    /// [`rgf_solve_into`]. Performs no allocation.
    pub fn empty() -> Self {
        RgfSolution {
            gr_diag: Vec::new(),
            gr_upper: Vec::new(),
            gl_diag: Vec::new(),
            gg_diag: Vec::new(),
            gl_lower: Vec::new(),
            gg_lower: Vec::new(),
            flops: 0,
        }
    }

    /// Sizes every block vector for `nb` block rows of `bs × bs`, reusing
    /// existing buffers.
    pub(crate) fn shape(&mut self, nb: usize, bs: usize) {
        for (v, n) in [
            (&mut self.gr_diag, nb),
            (&mut self.gl_diag, nb),
            (&mut self.gg_diag, nb),
            (&mut self.gr_upper, nb - 1),
            (&mut self.gl_lower, nb - 1),
            (&mut self.gg_lower, nb - 1),
        ] {
            v.truncate(n);
            v.iter_mut().for_each(|m| m.resize(bs, bs));
            v.resize_with(n, || CMatrix::zeros(bs, bs));
        }
    }

    /// Copies block row `row.n` of a solve shaped by [`RgfSolution::shape`]
    /// into its blocks.
    pub(crate) fn put(&mut self, row: &RgfRow<'_>) {
        let n = row.n;
        self.gr_diag[n].copy_from(row.gr_diag);
        self.gl_diag[n].copy_from(row.gl_diag);
        self.gg_diag[n].copy_from(row.gg_diag);
        if let Some(c) = &row.coupling {
            self.gr_upper[n].copy_from(c.gr_upper);
            self.gl_lower[n].copy_from(c.gl_lower);
            self.gg_lower[n].copy_from(c.gg_lower);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{contact_sigma_lg, lead_self_energies};
    use crate::dense_ref::{dense_solve, DenseSolution};
    use omen_linalg::{c64, lu::lu_flops, matmul, Workspace};

    use crate::testutil::test_system;

    #[test]
    fn rgf_matches_dense_small() {
        // The last two are over the GEMM's SMALL_DIM (16), which no longer
        // picks a kernel here: one lane of the lane kernel up to
        // LANE_MAX_DIM, the packed GEMM above it.
        for &(nb, bs) in &[
            (2usize, 2usize),
            (3, 2),
            (4, 3),
            (6, 4),
            (8, 2),
            (3, 17),
            (2, 24),
        ] {
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
        // Tiny blocks on the lane kernel; 17 × 17 and 24 × 24 through the
        // packed GEMM.
        for (nb, bs) in [(5, 3), (3, 17), (3, 24)] {
            let (m, sl, sg) = test_system(nb, bs, 1.1);
            let rgf = rgf_solve(&RgfInputs {
                m: &m,
                sigma_l: &sl,
                sigma_g: &sg,
            });
            for n in 0..nb {
                assert!(rgf.gl_diag[n].is_anti_hermitian(1e-10), "bs {bs} G<[{n}]");
                assert!(rgf.gg_diag[n].is_anti_hermitian(1e-10), "bs {bs} G>[{n}]");
            }
        }
    }

    #[test]
    fn keldysh_difference_identity() {
        // G^> − G^< == G^R − G^A when Σ^> − Σ^< == Σ^R − Σ^A == −iΓ_total,
        // on the lane kernel and (17 × 17, 24 × 24) the packed GEMM.
        for (nb, bs) in [(4, 2), (3, 17), (3, 24)] {
            // Σ^≷ from the anti-Hermitian part of M's diagonal:
            // Σ^R − Σ^A = −(M − M†) since M = ES − H − Σ^R, ES − H Hermitian.
            let (mut m, _, _) = test_system(nb, bs, 0.0);
            let occ = 0.3;
            let (mut sl, mut sg) = (Vec::new(), Vec::new());
            for b in 0..nb {
                let ra = (&m.diag[b] - &m.diag[b].adjoint()).scaled(c64(-1.0, 0.0));
                sl.push(ra.scaled(c64(-occ, 0.0)));
                sg.push(ra.scaled(c64(1.0 - occ, 0.0)));
            }
            // Off-diagonal blocks exactly Hermitian-conjugate.
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
                    "bs {bs} block {n}: ‖(G>−G<)−(GR−GA)‖ = {}",
                    (&lhs - &rhs).max_abs()
                );
            }
        }
    }

    #[test]
    fn keldysh_difference_carries_the_eta_term() {
        // Σ≷ from the contacts only, as the driver builds them: Σ> − Σ< =
        // Σ^R − Σ^A of the leads, while M = (E + iη)·I − H − Σ^R carries
        // the +iη broadening everywhere. Then G^R − G^A = G^R·(Σ^R − Σ^A −
        // 2iη)·G^A, so (G> − G<) − (G^R − G^A) = 2iη·G^R·G^A: an
        // η-reservoir term, not rounding.
        let (nb, bs, e, eta) = (5, 2, 0.3, 1e-2);
        let onsite = CMatrix::from_fn(bs, bs, |i, j| match (i, j) {
            (0, 1) => c64(-0.3, -0.1),
            (1, 0) => c64(-0.3, 0.1),
            _ => c64(0.2 * i as f64, 0.0),
        });
        let hop = CMatrix::from_fn(bs, bs, |i, j| c64(if i == j { -1.0 } else { -0.2 }, 0.0));
        let mut m = BlockTriDiag::zeros(nb, bs);
        for n in 0..nb {
            m.diag[n] = &CMatrix::identity(bs).scaled(c64(e, eta)) - &onsite;
        }
        for n in 0..nb - 1 {
            m.upper[n] = hop.scaled(c64(-1.0, 0.0));
            m.lower[n] = m.upper[n].adjoint();
        }
        let leads = [
            [&m.diag[0], &m.lower[0], &m.upper[0]],
            [&m.diag[nb - 1], &m.upper[nb - 2], &m.lower[nb - 2]],
        ];
        let contacts = lead_self_energies(&leads, 1e-13, 200, &mut Workspace::new());
        let (mut sl, mut sg) = (
            vec![CMatrix::zeros(bs, bs); nb],
            vec![CMatrix::zeros(bs, bs); nb],
        );
        let mut folded = m.clone();
        for ((sigma, _), (n, occ)) in contacts.iter().zip([(0, 0.8), (nb - 1, 0.1)]) {
            let (l, g) = contact_sigma_lg(sigma, occ, false);
            sl[n] += &l;
            sg[n] += &g;
            folded.diag[n] -= sigma;
        }

        let dense = dense_solve(&folded, &sl, &sg);
        let term = matmul(&dense.gr, &dense.ga).scaled(c64(0.0, 2.0 * eta));
        let difference = &(&(&dense.gg - &dense.gl) - &dense.gr) + &dense.ga;
        let dev = (&difference - &term).max_abs();
        assert!(dev <= 1e-12 * term.max_abs(), "dense: {dev:e}");
        let size = term.max_abs() / dense.gg.max_abs();
        assert!(size > 1e-2, "the η term is small: {size:e} of |G>|");

        let rgf = rgf_solve(&RgfInputs {
            m: &folded,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        for n in 0..nb {
            let gr = &rgf.gr_diag[n];
            let lhs = &(&(&rgf.gg_diag[n] - &rgf.gl_diag[n]) - gr) + &gr.adjoint();
            let want = DenseSolution::block(&term, bs, n, n);
            let dev = (&lhs - &want).max_abs();
            assert!(dev <= 1e-10 * term.max_abs(), "block {n}: {dev:e}");
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
    fn flops_are_pinned_to_23_products_per_block_row() {
        for bs in [3usize, 12, 32] {
            for nb in [1usize, 2, 3, 6, 12] {
                let (m, sl, sg) = test_system(nb, bs, 0.3);
                let sol = rgf_solve(&RgfInputs {
                    m: &m,
                    sigma_l: &sl,
                    sigma_g: &sg,
                });
                let want =
                    8 * (23 * nb as u64 - 19) * (bs as u64).pow(3) + nb as u64 * lu_flops(bs, bs);
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
