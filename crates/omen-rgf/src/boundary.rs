//! Open-boundary self-energies from semi-infinite leads.
//!
//! The device's first and last slabs connect to semi-infinite periodic
//! leads. Eliminating a lead produces its boundary self-energy
//! `Σ^R_B = α·g_s·β`, where `g_s` is the lead's surface Green's function
//! and `α`, `β` the couplings into the lead and back. One algorithm
//! computes `g_s`: Sancho–Rubio decimation ([`sancho_rubio_lanes`]),
//! doubling the lead's depth every step; the GF sweeps decimate to a
//! tolerance of 1e-13 within 200 steps. (The paper instead pipelines a
//! contour-integral method on GPUs; decimation computes the same surface
//! GF.)
//!
//! Each lead is one lane path from its three blocks to `Σ^R`: a chunk of
//! leads of one side — one per energy of a row solve — is decimated on
//! energy lanes, its surface GFs stay in their lanes, and the fold is two
//! lane products (`lead_self_energies`). A lane's bits depend only on
//! its lead's blocks `[D, α, β]`, never on which other leads share the
//! call, so a `Σ^R` computed once stands for every later request of the
//! same blocks; [`crate::BoundaryCache`] keys on exactly that.
//!
//! Lesser/greater boundary terms follow from local equilibrium in the
//! contacts: `Σ^<_B = −f·(Σ^R_B − Σ^A_B)` with the Fermi factor for
//! electrons, `Π^<_B = n_B·(Π^R_B − Π^A_B)` with the Bose factor for
//! phonons.

use crate::rows::{row_width, sub, Lanes};
use omen_linalg::{count_fused_run, gemm_flops, planes_invert, CMatrix, Workspace, C64};

/// Decimation tolerance of the GF sweeps: a lead has converged once
/// `max(|a|, |b|)` is below it (see [`sancho_rubio_lanes`]).
pub(crate) const DECIMATION_TOL: f64 = 1e-13;

/// Decimation step cap of the GF sweeps.
pub(crate) const DECIMATION_MAX_ITER: usize = 200;

/// One decimation step is six products: `a·g₀` and `b·g₀` once each, then
/// `(a·g₀)·b` and `(b·g₀)·a` for the effective blocks and `(a·g₀)·a`,
/// `(b·g₀)·b` for the next couplings.
const SR_PRODUCTS: u64 = 6;

/// Sancho–Rubio decimation for a chunk of leads at once — one per
/// energy of a row solve — on energy-lane blocks (split-complex
/// `[element][re|im][lane]`, see [`crate::rows`]). `leads[e]` is lane
/// `e`'s `[D, α, β]`, all of one block size: `D` the principal-layer
/// block of `M = E·S − H` (with the `+iη` broadening), `α` the coupling
/// from the surface layer *into* the lead and `β` the coupling back, so
/// `g_s = (D − α·g_s·β)⁻¹`. Blocks over `LANE_MAX_DIM` take one lead
/// ([`crate::row_width`]).
///
/// Each step inverts the bulk block `eb` into `g₀` (every lane in one
/// [`planes_invert`], bitwise `invert_into` per lane), then
/// `es −= a·g₀·b`, `eb −= a·g₀·b + b·g₀·a`, `a ← a·g₀·a`, `b ← b·g₀·b`,
/// every product one [`omen_linalg::planes_gemm`] over the lanes still
/// iterating. A **convergence mask** freezes a lane as soon as its
/// `max(|a|, |b|) < tol`: its surface block `es` moves to its lead's lane
/// and the lane leaves the chunk, so each lead runs exactly the
/// iterations it would alone and the trace counts the flops of active
/// lanes only. Once every lead has converged (or hit `max_iter`), one
/// `planes_invert` turns the surface blocks into the surface GFs, lane
/// `e` of `gs` (at least `2·bs²·leads.len()` `f64`s) for lead `e`.
/// Returns each lead's step count.
///
/// A lane's arithmetic does not depend on which leads share the call
/// (`planes_gemm`'s and `planes_invert`'s contract; everything else is
/// per lane or elementwise), so the result is bitwise reproducible under
/// any split of a row into chunks, one-lead chunks included.
///
/// **Conditioning caveat**: at energies within ~`η` of a band branch
/// point (e.g. the exact band centre of a 1-D chain) the first step
/// amplifies by `1/η`; broadenings below ~1e-7 of the bandwidth can then
/// converge to a spurious fixed point. Keep `η ≳ 1e-6` of the bandwidth.
pub fn sancho_rubio_lanes(
    leads: &[[&CMatrix; 3]],
    tol: f64,
    max_iter: usize,
    gs: &mut [f64],
    ws: &mut Workspace,
) -> Vec<usize> {
    let Some([d0, ..]) = leads.first() else {
        return Vec::new();
    };
    let n = d0.rows();
    let all = Lanes::new(n, leads.len());
    assert!(gs.len() >= all.len, "sancho_rubio_lanes: gs too short");
    let mut s = all;
    let mut buf = ws.take_planes(11 * all.len);
    let mut blocks = buf.chunks_exact_mut(all.len);
    let mut next_block = || blocks.next().expect("eleven lane blocks");
    let [surface, es, eb, mut a, mut b, g0, ag, bg, agb, bga, mut next] =
        std::array::from_fn::<_, 11, _>(|_| next_block());
    for (e, [d, alpha, beta]) in leads.iter().enumerate() {
        s.pack(d, e, es);
        s.pack(d, e, eb);
        s.pack(alpha, e, a);
        s.pack(beta, e, b);
    }

    // Lane `e` of the blocks is lead `active[e]`.
    let mut active: Vec<usize> = (0..leads.len()).collect();
    let mut steps = vec![0; leads.len()];
    let mut keep = Vec::with_capacity(leads.len());
    let (g3, mut products) = (gemm_flops(n, n, n), 0u64);
    let mut iterations = 0;
    while !active.is_empty() && iterations < max_iter {
        iterations += 1;
        let len = s.len;
        planes_invert(n, s.lanes, eb, g0, ws);
        s.mm(a, g0, ag);
        s.mm(b, g0, bg);
        s.mm(ag, b, agb);
        s.mm(bg, a, bga);
        sub(&mut es[..len], &agb[..len]);
        sub(&mut eb[..len], &agb[..len]);
        sub(&mut eb[..len], &bga[..len]);
        s.mm(ag, a, next);
        std::mem::swap(&mut a, &mut next);
        s.mm(bg, b, next);
        std::mem::swap(&mut b, &mut next);
        products += SR_PRODUCTS * s.lanes as u64;

        keep.clear();
        for (e, &lead) in active.iter().enumerate() {
            if s.below(a, e, tol) && s.below(b, e, tol) {
                s.move_lane(es, e, &all, lead, surface);
                steps[lead] = iterations;
            } else {
                keep.push(e);
            }
        }
        if keep.len() < s.lanes {
            for block in [&mut *es, &mut *eb, &mut *a, &mut *b] {
                s.retain(&keep, block);
            }
            active = keep.iter().map(|&e| active[e]).collect();
            s = Lanes::new(n, keep.len());
        }
    }
    for (e, &lead) in active.iter().enumerate() {
        s.move_lane(es, e, &all, lead, surface);
        steps[lead] = iterations;
    }
    planes_invert(n, all.lanes, surface, gs, ws);

    ws.give_planes(buf);
    if row_width(n) > 1 {
        count_fused_run(products * g3);
    }
    steps
}

/// The retarded boundary self-energies `Σ^R = α·g_s·β` of a chunk of
/// leads `[D, α, β]` (see [`sancho_rubio_lanes`]), each with its
/// decimation step count. The surface GFs never leave their lanes: the
/// fold is two lane products, `(α·g_s)·β` as `matmul3` associates
/// it. (The left lead extends to −∞, so its `[D, α, β]` is
/// `[M[0][0], M[1][0], M[0][1]]`; the right lead's is
/// `[M[N][N], M[N−1][N], M[N][N−1]]`.)
pub(crate) fn lead_self_energies(
    leads: &[[&CMatrix; 3]],
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> Vec<(CMatrix, usize)> {
    let Some([d0, ..]) = leads.first() else {
        return Vec::new();
    };
    let s = Lanes::new(d0.rows(), leads.len());
    let mut buf = ws.take_planes(4 * s.len);
    let (gs, rest) = buf.split_at_mut(s.len);
    let steps = sancho_rubio_lanes(leads, tol, max_iter, gs, ws);
    let (ag, rest) = rest.split_at_mut(s.len);
    let (coupling, sigma) = rest.split_at_mut(s.len);
    for (e, [_, alpha, _]) in leads.iter().enumerate() {
        s.pack(alpha, e, coupling);
    }
    s.mm(coupling, gs, ag);
    for (e, [.., beta]) in leads.iter().enumerate() {
        s.pack(beta, e, coupling);
    }
    s.mm(ag, coupling, sigma);
    let out = steps
        .into_iter()
        .enumerate()
        .map(|(e, steps)| {
            let mut m = CMatrix::zeros(0, 0);
            s.unpack(sigma, e, &mut m);
            (m, steps)
        })
        .collect();
    ws.give_planes(buf);
    out
}

/// The broadening `Γ = i(Σ^R − Σ^A)` of a boundary self-energy.
pub(crate) fn broadening(sigma: &CMatrix) -> CMatrix {
    let mut g = sigma - &sigma.adjoint();
    g.scale_inplace(C64::I);
    g
}

/// Fermi-Dirac occupation `f(E) = 1/(e^{(E−μ)/kT} + 1)`.
pub fn fermi(e: f64, mu: f64, kt: f64) -> f64 {
    let x = (e - mu) / kt;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (x.exp() + 1.0)
    }
}

/// Bose-Einstein occupation `n(ω) = 1/(e^{ω/kT} − 1)` (ω > 0).
pub fn bose(w: f64, kt: f64) -> f64 {
    assert!(w > 0.0, "Bose factor needs ω > 0");
    let x = w / kt;
    if x > 40.0 {
        0.0
    } else {
        1.0 / (x.exp_m1())
    }
}

/// Equilibrium lesser/greater boundary self-energies of a contact with
/// occupation `occ` (Fermi factor for electrons, Bose factor for phonons)
/// and statistics sign `boson`:
///
/// * fermions: `Σ^< = −f (Σ^R − Σ^A)`, `Σ^> = (1−f)(Σ^R − Σ^A)`;
/// * bosons:   `Π^< = n (Π^R − Π^A)`,  `Π^> = (1+n)(Π^R − Π^A)`.
///
/// Both satisfy `Σ^> − Σ^< = Σ^R − Σ^A`, the identity the RGF lesser
/// recursion relies on.
pub fn contact_sigma_lg(sigma_r: &CMatrix, occ: f64, boson: bool) -> (CMatrix, CMatrix) {
    let mut lg = (CMatrix::zeros(0, 0), CMatrix::zeros(0, 0));
    contact_sigma_lg_into(sigma_r, occ, boson, &mut lg);
    lg
}

/// [`contact_sigma_lg`] into caller-owned blocks.
pub(crate) fn contact_sigma_lg_into(
    sigma_r: &CMatrix,
    occ: f64,
    boson: bool,
    (sl, sg): &mut (CMatrix, CMatrix),
) {
    let (fl, fg) = if boson {
        (occ, 1.0 + occ)
    } else {
        (-occ, 1.0 - occ)
    };
    let (fl, fg) = (C64::from_re(fl), C64::from_re(fg));
    let n = sigma_r.rows();
    sl.resize_for_overwrite(n, n);
    sg.resize_for_overwrite(n, n);
    for j in 0..n {
        for i in 0..n {
            let ra = sigma_r[(i, j)] - sigma_r[(j, i)].conj(); // Σ^R − Σ^A
            (sl[(i, j)], sg[(i, j)]) = (ra * fl, ra * fg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::gemm::SMALL_DIM;
    use omen_linalg::{c64, matmul, matmul3, LANE_MAX_DIM};

    /// A simple 1-orbital chain: D = (E + iη) − ε0, α = β = −t.
    fn chain_blocks(e: f64, eta: f64, eps0: f64, t: f64, n: usize) -> (CMatrix, CMatrix, CMatrix) {
        let d = CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                c64(e - eps0, eta)
            } else if i.abs_diff(j) == 1 {
                c64(-t * 0.3, 0.0) // intra-block coupling
            } else {
                C64::ZERO
            }
        });
        let hop = CMatrix::from_fn(n, n, |i, j| if i == j { c64(-t, 0.0) } else { C64::ZERO });
        (d, hop.clone(), hop)
    }

    /// [`sancho_rubio_lanes`] over `leads`, each lane's surface GF read
    /// back as a matrix, with its step count.
    fn surfaces(
        leads: &[[&CMatrix; 3]],
        tol: f64,
        max_iter: usize,
        ws: &mut Workspace,
    ) -> Vec<(CMatrix, usize)> {
        let Some([d0, ..]) = leads.first() else {
            return Vec::new();
        };
        let s = Lanes::new(d0.rows(), leads.len());
        let mut gs = vec![0.0; s.len];
        let steps = sancho_rubio_lanes(leads, tol, max_iter, &mut gs, ws);
        assert_eq!(steps.len(), leads.len(), "one step count per lead");
        (steps.into_iter().enumerate())
            .map(|(e, steps)| {
                let mut g = CMatrix::zeros(0, 0);
                s.unpack(&gs, e, &mut g);
                (g, steps)
            })
            .collect()
    }

    /// The surface GF of one lead and its step count.
    fn surface(
        d: &CMatrix,
        a: &CMatrix,
        b: &CMatrix,
        tol: f64,
        max_iter: usize,
    ) -> (CMatrix, usize) {
        let mut one = surfaces(&[[d, a, b]], tol, max_iter, &mut Workspace::new());
        one.pop().expect("one lead")
    }

    /// How far `g` is from its own fixed-point equation
    /// `(D − α·g·β)·g = I`.
    fn surface_residual(g: &CMatrix, d: &CMatrix, alpha: &CMatrix, beta: &CMatrix) -> f64 {
        let agb = matmul3(alpha, g, beta);
        (&matmul(&(d - &agb), g) - &CMatrix::identity(d.rows())).max_abs()
    }

    #[test]
    fn scalar_chain_analytic_surface_gf() {
        // For the scalar chain g = 1/(E − ε0 − t² g): inside the band the
        // imaginary part is −sqrt(4t² − x²)/(2t²) with x = E − ε0.
        let (d, a, b) = chain_blocks(0.3, 1e-9, 0.0, 1.0, 1);
        let (g, _) = surface(&d, &a, &b, 1e-14, 100);
        let x: f64 = 0.3;
        let t: f64 = 1.0;
        let want_im = -(4.0 * t * t - x * x).sqrt() / (2.0 * t * t);
        let want_re = x / (2.0 * t * t);
        assert!((g[(0, 0)].im - want_im).abs() < 1e-6, "im {}", g[(0, 0)].im);
        assert!((g[(0, 0)].re - want_re).abs() < 1e-6, "re {}", g[(0, 0)].re);
    }

    #[test]
    fn decimation_converges_fast() {
        let (d, a, b) = chain_blocks(0.5, 1e-6, 0.0, 1.0, 3);
        let (g, steps) = surface(&d, &a, &b, 1e-12, 200);
        assert!(steps < 60, "decimation took {steps} iterations");
        let residual = surface_residual(&g, &d, &a, &b);
        assert!(residual < 1e-8, "residual {residual}");
    }

    #[test]
    fn decimation_satisfies_dyson_outside_the_band() {
        // Far from ε0 the decimated g solves g = (D − α·g·β)⁻¹, the
        // equation a fixed-point iteration would converge on.
        let (d, a, b) = chain_blocks(3.0, 1e-4, 0.0, 1.0, 2);
        let (g, _) = surface(&d, &a, &b, 1e-13, 300);
        let residual = surface_residual(&g, &d, &a, &b);
        assert!(residual < 1e-12, "residual {residual:e}");
    }

    #[test]
    fn surface_gf_satisfies_dyson() {
        let (d, a, b) = chain_blocks(0.2, 1e-6, -0.1, 0.8, 3);
        let (g, _) = surface(&d, &a, &b, 1e-13, 200);
        assert!(surface_residual(&g, &d, &a, &b) < 1e-7);
    }

    #[test]
    fn retarded_surface_gf_has_negative_imag_diag() {
        // Causality: Im g_s(diag) <= 0 for a retarded GF.
        let (d, a, b) = chain_blocks(0.1, 1e-6, 0.0, 1.0, 3);
        let (g, _) = surface(&d, &a, &b, 1e-13, 200);
        for i in 0..3 {
            assert!(g[(i, i)].im <= 1e-10, "Im g[{i},{i}] = {}", g[(i, i)].im);
        }
    }

    #[test]
    fn gamma_hermitian_positive_in_band() {
        // Both leads of a chain, decimated and folded on two lanes.
        let (d, a, b) = chain_blocks(0.4, 1e-8, 0.0, 1.0, 1);
        let sigma = lead_self_energies(
            &[[&d, &b, &a], [&d, &a, &b]],
            1e-13,
            200,
            &mut Workspace::new(),
        );
        for (sigma, _) in &sigma {
            let gamma = broadening(sigma);
            assert!(gamma.is_hermitian(1e-9));
            // Γ positive (scalar case) inside the band.
            assert!(gamma[(0, 0)].re > 0.0);
        }
    }

    #[test]
    fn occupation_functions() {
        assert!((fermi(0.0, 0.0, 0.025) - 0.5).abs() < 1e-12);
        assert!(fermi(10.0, 0.0, 0.025) < 1e-12);
        assert!((fermi(-10.0, 0.0, 0.025) - 1.0).abs() < 1e-12);
        // Bose diverges at ω -> 0+ and decays at large ω.
        assert!(bose(1e-4, 0.025) > 100.0);
        assert!(bose(2.0, 0.025) < 1e-12);
    }

    /// A lead of `bs` orbitals at energy `e`: orbital `i` a chain of
    /// hopping ≈ −1 at on-site energy `5·i`, so its band is `5·i ± 2` and
    /// the bands do not overlap, with every block entry non-zero.
    fn lead(bs: usize, e: f64, eta: f64) -> [CMatrix; 3] {
        let mut h = CMatrix::from_fn(bs, bs, |i, j| {
            let (x, y) = ((i + 2 * j) as f64, (2 * i + j) as f64);
            c64(0.1 * x.sin(), 0.06 * y.cos())
        });
        h.hermitianize();
        let onsite = |i: usize, j: usize| {
            if i == j {
                c64(e - 5.0 * i as f64, eta)
            } else {
                C64::ZERO
            }
        };
        let d = CMatrix::from_fn(bs, bs, |i, j| onsite(i, j) - h[(i, j)]);
        let alpha = CMatrix::from_fn(bs, bs, |i, j| {
            let (x, y) = ((i * j) as f64 + 0.3, (i + j) as f64);
            if i == j {
                c64(-1.0, 0.0)
            } else {
                c64(0.05 * x.cos(), 0.025 * y.sin())
            }
        });
        let beta = alpha.adjoint();
        [d, alpha, beta]
    }

    fn lead_refs(leads: &[[CMatrix; 3]]) -> Vec<[&CMatrix; 3]> {
        leads.iter().map(|l| l.each_ref()).collect()
    }

    /// Sancho–Rubio on one lead in dense `CMatrix` algebra: the reference
    /// the lane decimation is held to.
    fn point_decimation(
        d: &CMatrix,
        alpha: &CMatrix,
        beta: &CMatrix,
        tol: f64,
    ) -> (CMatrix, usize) {
        let (mut es, mut eb) = (d.clone(), d.clone());
        let (mut a, mut b) = (alpha.clone(), beta.clone());
        let below = |m: &CMatrix| {
            m.as_slice().iter().all(|z| {
                let r = z.abs();
                r < tol || r.is_nan()
            })
        };
        let mut iterations = 0;
        while iterations < 200 {
            iterations += 1;
            let g0 = omen_linalg::invert(&eb);
            let (ag, bg) = (matmul(&a, &g0), matmul(&b, &g0));
            let agb = matmul(&ag, &b);
            es -= &agb;
            eb -= &agb;
            eb -= &matmul(&bg, &a);
            a = matmul(&ag, &a);
            b = matmul(&bg, &b);
            if below(&a) && below(&b) {
                break;
            }
        }
        (omen_linalg::invert(&es), iterations)
    }

    #[test]
    fn sancho_rubio_lanes_match_the_point_decimation() {
        // Two energies inside the lowest band (slow, ~log2(1/η) steps) and
        // two above its edge at 2 (fast): the lanes of one call converge at
        // different steps, and each must still run exactly the iterations
        // of the dense decimation of its lead alone.
        let edge = [1.9, 2.1, 1.8, 2.4];
        let mut ws = Workspace::new();
        for bs in 1..=16 {
            for lanes in 1..=4 {
                let leads: Vec<[CMatrix; 3]> = (0..lanes)
                    .map(|k| lead(bs, edge[(k + bs) % 4], 1e-5))
                    .collect();
                let got = surfaces(&lead_refs(&leads), 1e-13, 200, &mut ws);
                let mut counts = Vec::new();
                for (e, ([d, a, b], (g, steps))) in leads.iter().zip(&got).enumerate() {
                    let (want, want_steps) = point_decimation(d, a, b, 1e-13);
                    assert_eq!(
                        *steps, want_steps,
                        "bs {bs}, {lanes} lanes, lane {e}: iterations"
                    );
                    let dev = (g - &want).max_abs() / want.max_abs();
                    assert!(dev <= 1e-12, "bs {bs}, {lanes} lanes, lane {e}: {dev:e}");
                    counts.push(*steps);
                }
                if lanes == 4 {
                    assert!(
                        counts.iter().any(|&c| c != counts[0]),
                        "bs {bs}: every lane converged at step {}",
                        counts[0]
                    );
                }
            }
        }
    }

    #[test]
    fn sancho_rubio_lanes_are_bitwise_under_every_chunking() {
        // Energies inside the lowest band (slow, ~log2(1/η) steps) and
        // above its edge at 2 (fast): the lanes of one call converge at
        // different steps, yet a lane's surface GF and iteration count do
        // not depend on which leads share its call — one-lead chunks are
        // the per-point solve. Every lead satisfies its Dyson equation.
        let mut ws = Workspace::new();
        for bs in [1, 2, 5, 6, 12, 16] {
            let leads: Vec<[CMatrix; 3]> = (0..7)
                .map(|k| lead(bs, 1.7 + 0.1 * k as f64, 1e-5))
                .collect();
            let refs = lead_refs(&leads);
            let whole = surfaces(&refs, 1e-13, 200, &mut ws);
            let first = whole[0].1;
            assert!(
                whole.iter().any(|(_, steps)| *steps != first),
                "bs {bs}: every lane converged at step {first}"
            );
            for ([d, a, b], (g, _)) in leads.iter().zip(&whole) {
                let residual = surface_residual(g, d, a, b);
                assert!(residual < 1e-8, "bs {bs}: residual {residual:e}");
            }
            for widths in [
                &[1, 1, 1, 1, 1, 1, 1][..],
                &[3, 4],
                &[4, 3],
                &[5, 2],
                &[2, 4, 1],
            ] {
                let mut at = 0;
                for &w in widths {
                    let part = surfaces(&refs[at..at + w], 1e-13, 200, &mut ws);
                    for (k, (g, steps)) in part.iter().enumerate() {
                        let (want, want_steps) = &whole[at + k];
                        let why = format!("bs {bs}, chunks {widths:?}");
                        assert_eq!(steps, want_steps, "{why}");
                        assert_eq!(g.as_slice(), want.as_slice(), "{why}");
                    }
                    at += w;
                }
            }
        }
        assert!(sancho_rubio_lanes(&[], 1e-13, 200, &mut [], &mut ws).is_empty());
    }

    #[test]
    fn sancho_rubio_lanes_over_lane_max_dim_take_one_lead() {
        // Blocks the packed GEMM takes: one lead per call, in the band
        // (slow) and above it (fast).
        let mut steps = Vec::new();
        for e in [1.8, 2.4] {
            let [d, a, b] = lead(LANE_MAX_DIM + 1, e, 1e-5);
            let (g, n) = surface(&d, &a, &b, 1e-13, 200);
            let residual = surface_residual(&g, &d, &a, &b);
            assert!(residual < 1e-8, "E {e}: residual {residual:e}");
            steps.push(n);
        }
        assert!(steps[0] > steps[1], "steps {steps:?}");
    }

    #[test]
    fn lead_self_energies_fold_the_surface_gf() {
        // The lane fold is `(α·g_s)·β` of the lane decimation's surface
        // GF. Above `SMALL_DIM` the AVX2 and AVX-512 lane products sum in
        // `gemm`'s order, so there it is `matmul3` bit for bit; below, and
        // on the portable instantiation (`OMEN_FORCE_SCALAR=1`), it agrees
        // to rounding. One lane product tells which instantiation runs.
        let mut ws = Workspace::new();
        for bs in [1, 6, 12, SMALL_DIM + 1, 32] {
            let leads: Vec<[CMatrix; 3]> = (0..3)
                .map(|k| lead(bs, 1.8 + 0.3 * k as f64, 1e-5))
                .collect();
            let refs = lead_refs(&leads);
            let sigma = lead_self_energies(&refs, 1e-13, 200, &mut ws);
            let gs = surfaces(&refs, 1e-13, 200, &mut ws);
            let [_, a, b] = &leads[0];
            let (one, mut planes, mut ab) = (Lanes::new(bs, 1), vec![0.0; 6 * bs * bs], a.clone());
            let (pa, rest) = planes.split_at_mut(2 * bs * bs);
            let (pb, pc) = rest.split_at_mut(2 * bs * bs);
            one.pack(a, 0, pa);
            one.pack(b, 0, pb);
            one.mm(pa, pb, pc);
            one.unpack(pc, 0, &mut ab);
            let gemm_order = ab.as_slice() == matmul(a, b).as_slice();
            for (([_, a, b], (got, steps)), (g, want_steps)) in leads.iter().zip(&sigma).zip(&gs) {
                assert_eq!(steps, want_steps, "bs {bs}: steps");
                let want = matmul3(a, g, b);
                if gemm_order {
                    assert_eq!(got.as_slice(), want.as_slice(), "bs {bs}");
                } else {
                    let dev = (got - &want).max_abs() / want.max_abs();
                    assert!(dev <= 1e-13, "bs {bs}: {dev:e}");
                }
            }
        }
        assert!(lead_self_energies(&[], 1e-13, 200, &mut ws).is_empty());
    }

    #[test]
    fn contact_sigma_identities() {
        let (d, a, b) = chain_blocks(0.4, 1e-8, 0.0, 1.0, 2);
        let (g, _) = surface(&d, &a, &b, 1e-13, 200);
        let sig = matmul3(&b, &g, &a);
        for &(occ, boson) in &[(0.3, false), (1.7, true)] {
            let (sl, sg) = contact_sigma_lg(&sig, occ, boson);
            // Σ^> − Σ^< = Σ^R − Σ^A.
            let lhs = &sg - &sl;
            let rhs = &sig - &sig.adjoint();
            assert!(lhs.approx_eq(&rhs, 1e-12), "boson={boson}");
            // Both anti-Hermitian.
            assert!(sl.is_anti_hermitian(1e-12));
            assert!(sg.is_anti_hermitian(1e-12));
        }
    }
}
