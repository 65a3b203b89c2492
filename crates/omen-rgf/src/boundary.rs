//! Open-boundary self-energies from semi-infinite leads.
//!
//! The device's first and last slabs connect to semi-infinite periodic
//! leads. Eliminating the leads produces the boundary self-energies
//! `Σ^R_B = τ g_s τ'` where `g_s` is the lead surface Green's function.
//! Two algorithms compute `g_s`:
//!
//! * [`BoundaryMethod::SanchoRubio`] — the decimation scheme (doubling
//!   convergence; the production choice);
//! * [`BoundaryMethod::FixedPoint`] — plain self-consistent iteration
//!   `g ← (D − α g β)⁻¹`, linear convergence (the paper instead pipelines a
//!   contour-integral method on GPUs; decimation computes the same surface
//!   GF, and the fixed-point variant serves as the slow baseline for the
//!   boundary-conditions ablation bench).
//!
//! Lesser/greater boundary terms follow from local equilibrium in the
//! contacts: `Σ^<_B = −f·(Σ^R_B − Σ^A_B)` with the Fermi factor for
//! electrons, `Π^<_B = n_B·(Π^R_B − Π^A_B)` with the Bose factor for
//! phonons.

use crate::rows::{row_width, sub, Lanes};
use omen_linalg::{
    count_fused_run, gemm_flops, matmul, matmul3, matmul3_into, planes_invert, CMatrix, Workspace,
    C64,
};

/// Surface Green's function algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryMethod {
    /// Sancho-Rubio decimation (doubling).
    SanchoRubio,
    /// Naive fixed-point iteration (baseline).
    FixedPoint,
}

/// Outcome of a surface-GF computation.
#[derive(Clone, Debug)]
pub struct SurfaceGf {
    /// The surface Green's function of the lead.
    pub g: CMatrix,
    /// Iterations used.
    pub iterations: usize,
}

/// Computes the lead surface Green's function solving
///
/// **Conditioning caveat**: at energies within ~`η` of a band branch point
/// (e.g. the exact band centre of a 1-D chain) the decimation's first step
/// amplifies by `1/η`; broadenings below ~1e-7 of the bandwidth can then
/// converge to a spurious fixed point. Callers should keep `η ≳ 1e-6` of
/// the bandwidth and check [`surface_residual`].
///
/// Solves
/// `g = (D − α · g · β)⁻¹`, where `D` is the principal-layer block of
/// `M = E·S − H` (with `+iη` broadening included by the caller), `α` the
/// coupling from the surface layer *into* the lead and `β` the coupling
/// back.
pub fn surface_gf(
    method: BoundaryMethod,
    d: &CMatrix,
    alpha: &CMatrix,
    beta: &CMatrix,
    tol: f64,
    max_iter: usize,
) -> SurfaceGf {
    surface_gf_ws(method, d, alpha, beta, tol, max_iter, &mut Workspace::new())
}

/// [`surface_gf`] with caller-supplied scratch: every iteration temporary
/// comes from `ws`, so repeated boundary solves with a warm workspace
/// allocate little beyond the returned surface GF. Sancho–Rubio is
/// [`sancho_rubio_lanes`] on one lead.
pub fn surface_gf_ws(
    method: BoundaryMethod,
    d: &CMatrix,
    alpha: &CMatrix,
    beta: &CMatrix,
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> SurfaceGf {
    let mut one = surface_gfs(method, &[[d, alpha, beta]], tol, max_iter, ws);
    one.pop().expect("one lead")
}

/// The surface GFs of a chunk of leads `[D, α, β]`: decimated together
/// under Sancho–Rubio, one at a time under the fixed point.
fn surface_gfs(
    method: BoundaryMethod,
    leads: &[[&CMatrix; 3]],
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> Vec<SurfaceGf> {
    match method {
        BoundaryMethod::SanchoRubio => sancho_rubio_lanes(leads, tol, max_iter, ws),
        BoundaryMethod::FixedPoint => leads
            .iter()
            .map(|[d, alpha, beta]| fixed_point(d, alpha, beta, tol, max_iter, ws))
            .collect(),
    }
}

/// One decimation step is six products: `a·g₀` and `b·g₀` once each, then
/// `(a·g₀)·b` and `(b·g₀)·a` for the effective blocks and `(a·g₀)·a`,
/// `(b·g₀)·b` for the next couplings.
const SR_PRODUCTS: u64 = 6;

/// [`BoundaryMethod::SanchoRubio`] for a chunk of leads at once — one per
/// energy of a row solve — on energy-lane blocks (split-complex
/// `[element][re|im][lane]`, see [`crate::rows`]). `leads[e]` is lane
/// `e`'s `[D, α, β]`, all of one block size; blocks over `LANE_MAX_DIM`
/// take one lead ([`crate::row_width`]).
///
/// Each step inverts the bulk block `eb` into `g₀` (every lane in one
/// [`omen_linalg::planes_invert`], bitwise `invert_into` per lane), then
/// `es −= a·g₀·b`, `eb −= a·g₀·b + b·g₀·a`, `a ← a·g₀·a`, `b ← b·g₀·b`,
/// every product one [`omen_linalg::planes_gemm`] over the lanes still
/// iterating. A **convergence mask** freezes a lane as soon as its
/// `max(|a|, |b|) < tol`: its surface block is inverted into the surface
/// GF and the lane leaves the chunk, so each lead runs exactly the
/// iterations it would alone and the trace counts the flops of active
/// lanes only. A lane's arithmetic does not depend on which leads share
/// the call (`planes_gemm`'s contract; everything else is per lane or
/// elementwise), so the result is bitwise reproducible under any split of
/// a row into chunks, one-lead chunks included.
pub fn sancho_rubio_lanes(
    leads: &[[&CMatrix; 3]],
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> Vec<SurfaceGf> {
    let Some([d0, ..]) = leads.first() else {
        return Vec::new();
    };
    let n = d0.rows();
    let mut s = Lanes::new(n, leads.len());
    let mut buf = ws.take_planes(10 * s.len);
    let mut blocks = buf.chunks_exact_mut(s.len);
    let mut next_block = || blocks.next().expect("ten lane blocks");
    let [es, eb, mut a, mut b, g0, ag, bg, agb, bga, mut next] =
        std::array::from_fn::<_, 10, _>(|_| next_block());
    let mut m = ws.take(n, n);
    for (e, [d, alpha, beta]) in leads.iter().enumerate() {
        s.pack(d, e, es);
        s.pack(d, e, eb);
        s.pack(alpha, e, a);
        s.pack(beta, e, b);
    }

    // Lane `e` of the blocks is lead `active[e]`.
    let mut active: Vec<usize> = (0..leads.len()).collect();
    let mut out: Vec<Option<SurfaceGf>> = leads.iter().map(|_| None).collect();
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
                out[lead] = Some(finish_lane(&s, es, e, iterations, &mut m, ws));
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
        out[lead] = Some(finish_lane(&s, es, e, iterations, &mut m, ws));
    }

    ws.give(m);
    ws.give_planes(buf);
    if row_width(n) > 1 {
        count_fused_run(products * g3);
    }
    out.into_iter()
        .map(|g| g.expect("every lead finishes"))
        .collect()
}

/// Lane `e`'s surface GF, the inverse of its surface block `es`.
fn finish_lane(
    s: &Lanes,
    es: &[f64],
    e: usize,
    iterations: usize,
    m: &mut CMatrix,
    ws: &mut Workspace,
) -> SurfaceGf {
    s.unpack(es, e, m);
    let mut g = CMatrix::zeros(s.bs, s.bs);
    ws.invert_into(m, &mut g);
    SurfaceGf { g, iterations }
}

fn fixed_point(
    d: &CMatrix,
    alpha: &CMatrix,
    beta: &CMatrix,
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> SurfaceGf {
    let n = d.rows();
    let mut g = CMatrix::zeros(n, n);
    ws.invert_into(d, &mut g);
    let mut agb = ws.take(n, n);
    let mut t = ws.take(n, n);
    let mut next = ws.take(n, n);
    let mut iterations = 0;
    while iterations < max_iter {
        iterations += 1;
        matmul3_into(alpha, &g, beta, &mut t, &mut agb);
        t.copy_from(d);
        t -= &agb;
        ws.invert_into(&t, &mut next);
        next -= &g;
        let res = next.max_abs();
        // Damped update stabilizes the linear iteration near band edges:
        // g ← (g + next)/2, where `next` currently holds `next − g`.
        next.scale_inplace(C64::from_re(0.5));
        g += &next;
        if res < tol {
            break;
        }
    }
    for sc in [agb, t, next] {
        ws.give(sc);
    }
    SurfaceGf { g, iterations }
}

/// Both boundary self-energies of a homogeneous block-tridiagonal system.
#[derive(Clone, Debug)]
pub struct BoundarySelfEnergies {
    /// `Σ^R_B` folded into the first diagonal block.
    pub left: CMatrix,
    /// `Σ^R_B` folded into the last diagonal block.
    pub right: CMatrix,
    /// Left broadening `Γ_L = i(Σ_L − Σ_L†)`.
    pub gamma_left: CMatrix,
    /// Right broadening `Γ_R`.
    pub gamma_right: CMatrix,
    /// Decimation iterations spent (left + right).
    pub iterations: usize,
}

/// Computes the left/right boundary self-energies for a system whose lead
/// principal layers replicate the first/last device blocks, with
/// caller-supplied scratch.
///
/// * `d_first`, `d_last` — `M` diagonal blocks of the first/last slabs;
/// * `upper`, `lower` — the `M[n][n+1]` / `M[n+1][n]` couplings at each end
///   (`(upper_first, lower_first)` for the left lead, `(upper_last,
///   lower_last)` for the right).
#[allow(clippy::too_many_arguments)]
pub fn boundary_self_energies_ws(
    method: BoundaryMethod,
    d_first: &CMatrix,
    upper_first: &CMatrix,
    lower_first: &CMatrix,
    d_last: &CMatrix,
    upper_last: &CMatrix,
    lower_last: &CMatrix,
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> BoundarySelfEnergies {
    let ends = [
        d_first,
        upper_first,
        lower_first,
        d_last,
        upper_last,
        lower_last,
    ];
    let mut one = boundary_self_energies_lanes(method, &[ends], tol, max_iter, ws);
    one.pop().expect("one point")
}

/// [`boundary_self_energies_ws`] for a chunk of points, `ends[e]` being
/// lane `e`'s `[D_first, U_first, L_first, D_last, U_last, L_last]`: each
/// lead side is one [`surface_gfs`] call over the chunk (one
/// [`sancho_rubio_lanes`] call under Sancho–Rubio) and every point folds
/// its own surface GFs.
pub(crate) fn boundary_self_energies_lanes(
    method: BoundaryMethod,
    ends: &[[&CMatrix; 6]],
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
) -> Vec<BoundarySelfEnergies> {
    // The left lead extends to −∞: its surface cell couples deeper via
    // M[-1,-2] = lower, back via M[-2,-1] = upper. The right lead extends
    // to +∞: deeper via upper, back via lower.
    let left: Vec<[&CMatrix; 3]> = ends.iter().map(|&[d0, u0, l0, ..]| [d0, l0, u0]).collect();
    let right: Vec<[&CMatrix; 3]> = ends.iter().map(|&[.., dn, un, ln]| [dn, un, ln]).collect();
    let left = surface_gfs(method, &left, tol, max_iter, ws);
    let right = surface_gfs(method, &right, tol, max_iter, ws);
    ends.iter()
        .zip(left.into_iter().zip(right))
        .map(|(&[_, u0, l0, _, un, ln], (l, r))| fold_boundaries(l, r, u0, l0, un, ln, ws))
        .collect()
}

/// Folds the two lead surface GFs into boundary self-energies:
/// `Σ_L = lower · g_s · upper` and `Σ_R = upper · g_s · lower`.
fn fold_boundaries(
    left_surface: SurfaceGf,
    right_surface: SurfaceGf,
    upper_first: &CMatrix,
    lower_first: &CMatrix,
    upper_last: &CMatrix,
    lower_last: &CMatrix,
    ws: &mut Workspace,
) -> BoundarySelfEnergies {
    let n = left_surface.g.rows();
    let mut t = ws.take(n, n);
    let mut left = CMatrix::zeros(n, n);
    matmul3_into(lower_first, &left_surface.g, upper_first, &mut t, &mut left);
    let mut right = CMatrix::zeros(n, n);
    matmul3_into(upper_last, &right_surface.g, lower_last, &mut t, &mut right);
    ws.give(t);

    let gamma = |sig: &CMatrix| {
        let mut g = sig - &sig.adjoint();
        g.scale_inplace(C64::I);
        g
    };
    BoundarySelfEnergies {
        gamma_left: gamma(&left),
        gamma_right: gamma(&right),
        left,
        right,
        iterations: left_surface.iterations + right_surface.iterations,
    }
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

/// Convenience: validates that a surface GF satisfies its own fixed-point
/// equation (used in tests and debug assertions).
pub fn surface_residual(g: &CMatrix, d: &CMatrix, alpha: &CMatrix, beta: &CMatrix) -> f64 {
    let agb = matmul3(alpha, g, beta);
    (&matmul(&(d - &agb), g) - &CMatrix::identity(d.rows())).max_abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::{c64, LANE_MAX_DIM};

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

    #[test]
    fn scalar_chain_analytic_surface_gf() {
        // For the scalar chain g = 1/(E − ε0 − t² g): inside the band the
        // imaginary part is −sqrt(4t² − x²)/(2t²) with x = E − ε0.
        let (d, a, b) = chain_blocks(0.3, 1e-9, 0.0, 1.0, 1);
        let s = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-14, 100);
        let x: f64 = 0.3;
        let t: f64 = 1.0;
        let want_im = -(4.0 * t * t - x * x).sqrt() / (2.0 * t * t);
        let want_re = x / (2.0 * t * t);
        assert!(
            (s.g[(0, 0)].im - want_im).abs() < 1e-6,
            "im {}",
            s.g[(0, 0)].im
        );
        assert!(
            (s.g[(0, 0)].re - want_re).abs() < 1e-6,
            "re {}",
            s.g[(0, 0)].re
        );
    }

    #[test]
    fn decimation_converges_fast() {
        let (d, a, b) = chain_blocks(0.5, 1e-6, 0.0, 1.0, 3);
        let s = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-12, 200);
        assert!(
            s.iterations < 60,
            "decimation took {} iterations",
            s.iterations
        );
        let residual = surface_residual(&s.g, &d, &a, &b);
        assert!(residual < 1e-8, "residual {residual}");
    }

    #[test]
    fn fixed_point_agrees_with_decimation() {
        // Outside the band (E far from ε0) both converge to the same g.
        let (d, a, b) = chain_blocks(3.0, 1e-4, 0.0, 1.0, 2);
        let s1 = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-13, 300);
        let s2 = surface_gf(BoundaryMethod::FixedPoint, &d, &a, &b, 1e-13, 5000);
        assert!(
            s1.g.approx_eq(&s2.g, 1e-6),
            "methods disagree: {} vs {}",
            s1.g[(0, 0)],
            s2.g[(0, 0)]
        );
        assert!(
            s2.iterations > s1.iterations,
            "fixed point should be slower"
        );
    }

    #[test]
    fn surface_gf_satisfies_dyson() {
        let (d, a, b) = chain_blocks(0.2, 1e-6, -0.1, 0.8, 3);
        let s = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-13, 200);
        assert!(surface_residual(&s.g, &d, &a, &b) < 1e-7);
    }

    #[test]
    fn retarded_surface_gf_has_negative_imag_diag() {
        // Causality: Im g_s(diag) <= 0 for a retarded GF.
        let (d, a, b) = chain_blocks(0.1, 1e-6, 0.0, 1.0, 3);
        let s = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-13, 200);
        for i in 0..3 {
            assert!(
                s.g[(i, i)].im <= 1e-10,
                "Im g[{i},{i}] = {}",
                s.g[(i, i)].im
            );
        }
    }

    #[test]
    fn gamma_hermitian_positive_in_band() {
        let (d, a, b) = chain_blocks(0.4, 1e-8, 0.0, 1.0, 1);
        let bse = boundary_self_energies_ws(
            BoundaryMethod::SanchoRubio,
            &d,
            &a,
            &b,
            &d,
            &a,
            &b,
            1e-13,
            200,
            &mut Workspace::new(),
        );
        assert!(bse.gamma_left.is_hermitian(1e-9));
        assert!(bse.gamma_right.is_hermitian(1e-9));
        // Γ positive (scalar case) inside the band.
        assert!(bse.gamma_left[(0, 0)].re > 0.0);
        assert!(bse.gamma_right[(0, 0)].re > 0.0);
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
    fn point_decimation(d: &CMatrix, alpha: &CMatrix, beta: &CMatrix, tol: f64) -> SurfaceGf {
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
        SurfaceGf {
            g: omen_linalg::invert(&es),
            iterations,
        }
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
                let got = sancho_rubio_lanes(&lead_refs(&leads), 1e-13, 200, &mut ws);
                let mut counts = Vec::new();
                for (e, ([d, a, b], got)) in leads.iter().zip(&got).enumerate() {
                    let want = point_decimation(d, a, b, 1e-13);
                    assert_eq!(
                        got.iterations, want.iterations,
                        "bs {bs}, {lanes} lanes, lane {e}: iterations"
                    );
                    let dev = (&got.g - &want.g).max_abs() / want.g.max_abs();
                    assert!(dev <= 1e-12, "bs {bs}, {lanes} lanes, lane {e}: {dev:e}");
                    counts.push(got.iterations);
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
            let whole = sancho_rubio_lanes(&refs, 1e-13, 200, &mut ws);
            let first = whole[0].iterations;
            assert!(
                whole.iter().any(|s| s.iterations != first),
                "bs {bs}: every lane converged at step {first}"
            );
            for ([d, a, b], s) in leads.iter().zip(&whole) {
                let residual = surface_residual(&s.g, d, a, b);
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
                    let part = sancho_rubio_lanes(&refs[at..at + w], 1e-13, 200, &mut ws);
                    for (k, p) in part.iter().enumerate() {
                        let want = &whole[at + k];
                        let why = format!("bs {bs}, chunks {widths:?}");
                        assert_eq!(p.iterations, want.iterations, "{why}");
                        assert_eq!(p.g.as_slice(), want.g.as_slice(), "{why}");
                    }
                    at += w;
                }
            }
        }
        assert!(sancho_rubio_lanes(&[], 1e-13, 200, &mut ws).is_empty());
    }

    #[test]
    fn sancho_rubio_lanes_over_lane_max_dim_take_one_lead() {
        // Blocks the packed GEMM takes: one lead per call, in the band
        // (slow) and above it (fast).
        let mut ws = Workspace::new();
        let mut steps = Vec::new();
        for e in [1.8, 2.4] {
            let [d, a, b] = lead(LANE_MAX_DIM + 1, e, 1e-5);
            let s = surface_gf_ws(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-13, 200, &mut ws);
            let residual = surface_residual(&s.g, &d, &a, &b);
            assert!(residual < 1e-8, "E {e}: residual {residual:e}");
            steps.push(s.iterations);
        }
        assert!(steps[0] > steps[1], "steps {steps:?}");
    }

    #[test]
    fn contact_sigma_identities() {
        let (d, a, b) = chain_blocks(0.4, 1e-8, 0.0, 1.0, 2);
        let s = surface_gf(BoundaryMethod::SanchoRubio, &d, &a, &b, 1e-13, 200);
        let sig = matmul3(&b, &s.g, &a);
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
