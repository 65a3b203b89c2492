//! Physical observables extracted from Green's function blocks: currents,
//! transmission, densities — the quantities behind Figs. 1(d) and 11.

use omen_linalg::{invert, matmul, matmul3, BlockTriDiag, CMatrix, C64};

/// Per-energy particle current through the interface between blocks `n` and
/// `n+1`:
///
/// `j_n(E) = 2 · Re Tr[ (H − E·S)[n][n+1] · G^<[n+1][n] ]
///         = −2 · Re Tr[ U[n] · G^<[n+1][n] ]`
///
/// with `U[n] = (E·S − H)[n][n+1]`. Positive values flow from block `n`
/// toward block `n+1` (source → drain); for a ballistic conductor the value
/// equals `T(E)·(f_L − f_R)` at every interface. The caller multiplies by
/// the grid weight `dE/2π` and sums over energy/momentum (spin degeneracy
/// included there). The trace is taken straight off the two blocks
/// ([`CMatrix::trace_product`]); no product is formed.
pub fn interface_current(u: &CMatrix, gl_lower: &CMatrix) -> f64 {
    -2.0 * u.trace_product(gl_lower).re
}

/// Per-energy Meir-Wingreen current through the *left* contact:
///
/// `i_L(E) = Re Tr[ Σ^<_L · G^>[0][0] − Σ^>_L · G^<[0][0] ]`.
///
/// (The trace of a product of two anti-Hermitian matrices is real; `Re`
/// discards only numerical noise.) Positive = net injection from the left
/// lead into the device. For a two-terminal device in steady state,
/// `i_L(E)` integrates to the same current as [`interface_current`] at any
/// interface. Both traces are taken without forming a product.
pub fn contact_current(
    sigma_l_boundary: &CMatrix,
    sigma_g_boundary: &CMatrix,
    gl0: &CMatrix,
    gg0: &CMatrix,
) -> f64 {
    let t1 = sigma_l_boundary.trace_product(gg0);
    let t2 = sigma_g_boundary.trace_product(gl0);
    (t1 - t2).re
}

/// Ballistic transmission via the Caroli formula, computed densely (test
/// and validation use):
///
/// `T(E) = Tr[ Γ_L · G^R[0][N−1] · Γ_R · (G^R[0][N−1])† ]`.
pub fn caroli_transmission(m: &BlockTriDiag, gamma_left: &CMatrix, gamma_right: &CMatrix) -> f64 {
    let bs = m.block_size();
    let nb = m.num_blocks();
    let gr = invert(&m.to_dense());
    let corner = gr.block(0, (nb - 1) * bs, bs, bs);
    let t = matmul3(gamma_left, &corner, gamma_right);
    let tt = matmul(&t, &corner.adjoint());
    tt.trace().re
}

/// Per-block electron (or phonon-energy) occupation:
/// `n = Re(−i·diag(G^<)) = +Im diag(G^<)` summed over the block —
/// proportional to the carrier density in the slab.
pub fn block_occupation(gl_diag: &CMatrix) -> f64 {
    let n = gl_diag.rows();
    (0..n).map(|i| gl_diag[(i, i)].im).sum::<f64>()
}

/// Per-orbital occupation vector of one block.
pub fn orbital_occupation(gl_diag: &CMatrix) -> Vec<f64> {
    (0..gl_diag.rows()).map(|i| gl_diag[(i, i)].im).collect()
}

/// Local density of states of one block: `Tr A / 2π` with
/// `A = i(G^R − G^A)`.
pub fn block_ldos(gr_diag: &CMatrix) -> f64 {
    let n = gr_diag.rows();
    let tr: f64 = (0..n)
        .map(|i| {
            let z = gr_diag[(i, i)];
            (C64::I * (z - z.conj())).re
        })
        .sum();
    tr / (2.0 * std::f64::consts::PI)
}

/// Energy-resolved current spectrum along the device: one value per
/// interface (length `nb − 1`), for the spectral-current map of Fig. 11.
pub fn current_profile(m: &BlockTriDiag, gl_lower: &[CMatrix]) -> Vec<f64> {
    (0..m.num_blocks() - 1)
        .map(|n| interface_current(&m.upper[n], &gl_lower[n]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{broadening, contact_sigma_lg, fermi, lead_self_energies};
    use crate::rgf::{rgf_solve, RgfInputs};
    use omen_linalg::{c64, Workspace};

    /// A clean 1-orbital, bs=1 tight-binding chain with open boundaries:
    /// H = 2t on-site (band centred at 2t), −t hopping, so the band is
    /// [0, 4t]. Returns (M with boundary folded, Σ^<, Σ^>, Γ_L, Γ_R,
    /// Σ_L^R, Σ_R^R) at energy `e` and occupations `f_l`, `f_r`.
    #[allow(clippy::type_complexity)]
    fn ballistic_chain(
        nb: usize,
        e: f64,
        f_l: f64,
        f_r: f64,
    ) -> (
        BlockTriDiag,
        Vec<CMatrix>,
        Vec<CMatrix>,
        CMatrix,
        CMatrix,
        CMatrix,
        CMatrix,
    ) {
        let t = 1.0;
        // η must stay well above the decimation branch-point floor
        // (see `boundary::sancho_rubio_lanes`): 1e-6 of the bandwidth is safe.
        let eta = 1e-6;
        let mut m = BlockTriDiag::zeros(nb, 1);
        for b in 0..nb {
            m.diag[b] = CMatrix::from_fn(1, 1, |_, _| c64(e - 2.0 * t, eta));
        }
        for b in 0..nb - 1 {
            m.upper[b] = CMatrix::from_fn(1, 1, |_, _| c64(t, 0.0)); // −H = +t
            m.lower[b] = m.upper[b].clone();
        }
        let leads = [
            [&m.diag[0], &m.lower[0], &m.upper[0]],
            [&m.diag[nb - 1], &m.upper[nb - 2], &m.lower[nb - 2]],
        ];
        let [(left, _), (right, _)]: [(CMatrix, usize); 2] =
            lead_self_energies(&leads, 1e-14, 500, &mut Workspace::new())
                .try_into()
                .expect("two leads");
        let mut mfolded = m.clone();
        mfolded.diag[0] -= &left;
        let last = nb - 1;
        mfolded.diag[last] -= &right;

        let (sl_l, sg_l) = contact_sigma_lg(&left, f_l, false);
        let (sl_r, sg_r) = contact_sigma_lg(&right, f_r, false);
        let mut sigma_l = vec![CMatrix::zeros(1, 1); nb];
        let mut sigma_g = vec![CMatrix::zeros(1, 1); nb];
        sigma_l[0] += &sl_l;
        sigma_g[0] += &sg_l;
        sigma_l[last] += &sl_r;
        sigma_g[last] += &sg_r;
        (
            mfolded,
            sigma_l,
            sigma_g,
            broadening(&left),
            broadening(&right),
            left,
            right,
        )
    }

    #[test]
    fn ballistic_transmission_is_unity_in_band() {
        // Perfect chain: T(E) = 1 inside the band.
        for &e in &[0.5, 1.0, 2.0, 3.2] {
            let (m, _, _, gl, gr, _, _) = ballistic_chain(6, e, 1.0, 0.0);
            let t = caroli_transmission(&m, &gl, &gr);
            assert!((t - 1.0).abs() < 1e-4, "T({e}) = {t}");
        }
    }

    #[test]
    fn transmission_zero_outside_band() {
        let (m, _, _, gl, gr, _, _) = ballistic_chain(6, 5.0, 1.0, 0.0);
        let t = caroli_transmission(&m, &gl, &gr);
        assert!(t.abs() < 1e-4, "T outside band = {t}");
    }

    #[test]
    fn current_matches_transmission_times_bias_window() {
        // Landauer at a single energy: j(E) = T(E)·(f_L − f_R) = 1·(1−0).
        let (m, sl, sg, gaml, gamr, sbl, _) = ballistic_chain(8, 1.7, 1.0, 0.0);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let t = caroli_transmission(&m, &gaml, &gamr);
        // Interface currents must be equal at every interface (conservation)
        // and equal T·(f_L − f_R).
        let j: Vec<f64> = (0..7)
            .map(|n| interface_current(&m.upper[n], &sol.gl_lower[n]))
            .collect();
        for (n, jn) in j.iter().enumerate() {
            assert!((jn - t).abs() < 1e-4, "interface {n}: j = {jn}, T = {t}");
        }
        // Contact current agrees.
        let (sl_b, sg_b) = contact_sigma_lg(&sbl, 1.0, false);
        let ic = contact_current(&sl_b, &sg_b, &sol.gl_diag[0], &sol.gg_diag[0]);
        assert!((ic - t).abs() < 1e-4, "contact current {ic} vs T {t}");
    }

    #[test]
    fn zero_bias_zero_current() {
        let f = fermi(1.7, 1.0, 0.025);
        let (m, sl, sg, _, _, _, _) = ballistic_chain(6, 1.7, f, f);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        for n in 0..5 {
            let j = interface_current(&m.upper[n], &sol.gl_lower[n]);
            assert!(j.abs() < 1e-6, "interface {n}: {j}");
        }
    }

    #[test]
    fn reverse_bias_reverses_current() {
        let (m, sl, sg, _, _, _, _) = ballistic_chain(6, 1.7, 0.0, 1.0);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let j = interface_current(&m.upper[2], &sol.gl_lower[2]);
        assert!(j < -1e-4, "current should flow right-to-left: {j}");
        assert!((j + 1.0).abs() < 1e-4, "magnitude should be T = 1: {j}");
    }

    #[test]
    fn occupation_follows_filling() {
        let (m, sl, sg, _, _, _, _) = ballistic_chain(6, 1.7, 1.0, 1.0);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        // Fully occupied state: occupation equals the spectral weight.
        for n in 0..6 {
            let occ = block_occupation(&sol.gl_diag[n]);
            let ldos = block_ldos(&sol.gr_diag[n]) * 2.0 * std::f64::consts::PI;
            assert!(
                (occ - ldos).abs() < 1e-4,
                "block {n}: occ {occ} vs A {ldos}"
            );
            assert!(occ > 0.0);
        }
        let (m0, sl0, sg0, _, _, _, _) = ballistic_chain(6, 1.7, 0.0, 0.0);
        let sol0 = rgf_solve(&RgfInputs {
            m: &m0,
            sigma_l: &sl0,
            sigma_g: &sg0,
        });
        for n in 0..6 {
            assert!(block_occupation(&sol0.gl_diag[n]).abs() < 1e-6);
        }
    }

    #[test]
    fn current_profile_length() {
        let (m, sl, sg, _, _, _, _) = ballistic_chain(5, 1.0, 1.0, 0.0);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let prof = current_profile(&m, &sol.gl_lower);
        assert_eq!(prof.len(), 4);
        // Conservation: flat profile.
        // Conservation is exact up to the O(η) absorption of the finite
        // broadening.
        for w in prof.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-5);
        }
    }

    /// A seeded `n × n` block, real and imaginary parts uniform in [−1, 1).
    fn random_block(n: usize, seed: u64) -> CMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        CMatrix::from_fn(n, n, |_, _| c64(next(), next()))
    }

    #[test]
    fn currents_match_the_traced_product() {
        // The oracle forms the product and takes its trace; the two sums
        // differ in order only, so each trace is within 4·n·ε·‖A‖_F·‖B‖_F.
        let traced = |a: &CMatrix, b: &CMatrix| matmul(a, b).trace();
        let bound = |a: &CMatrix, b: &CMatrix| {
            4.0 * a.rows() as f64 * f64::EPSILON * a.fro_norm() * b.fro_norm()
        };
        // 49 is above the lane kernel's `LANE_MAX_DIM`.
        for (i, n) in [1, 3, 12, 24, 32, 49].into_iter().enumerate() {
            let [u, gl, gg, sl, sg] = [0, 1, 2, 3, 4].map(|k| random_block(n, 5 * i as u64 + k));
            let j = interface_current(&u, &gl);
            let want = -2.0 * traced(&u, &gl).re;
            let err = (j - want).abs() / 2.0;
            assert!(err <= bound(&u, &gl), "bs {n}: interface {j} vs {want}");
            let ic = contact_current(&sl, &sg, &gl, &gg);
            let want = (traced(&sl, &gg) - traced(&sg, &gl)).re;
            let tol = bound(&sl, &gg) + bound(&sg, &gl);
            assert!((ic - want).abs() <= tol, "bs {n}: contact {ic} vs {want}");
        }
    }

    #[test]
    fn orbital_occupation_sums_to_block() {
        let (m, sl, sg, _, _, _, _) = ballistic_chain(4, 1.3, 0.7, 0.2);
        let sol = rgf_solve(&RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        });
        let per_orb = orbital_occupation(&sol.gl_diag[1]);
        let total: f64 = per_orb.iter().sum();
        assert!((total - block_occupation(&sol.gl_diag[1])).abs() < 1e-12);
    }
}
