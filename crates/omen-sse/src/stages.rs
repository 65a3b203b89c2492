//! Leaf stages of the transformed SSE dataflow (Fig. 6), one directed
//! pair at a time over an [`EnergyWindow`].
//!
//! [`crate::transformed`] calls them on slices of its materialised
//! transients with the full window; the atom×energy tiles of
//! `omen-comm`'s data-centric plan call the same functions on per-pair
//! stream buffers with their own window — one kernel, two schedules. All
//! operands are slices, so any block store that can hand out a contiguous
//! energy run feeds them.

use crate::problem::SseProblem;
use crate::reference::trace_product;
use crate::tensors::D_BSZ;
use omen_linalg::{sbsmm, sbsmm_pb, use_packed_kernel, BatchDims, CMatrix, PackedB, Strides, C64};

/// The energies one evaluation produces (`own`) and the source energies
/// resident for it (`halo ⊇ own ± Nω`, clamped to the grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnergyWindow {
    /// Global energy count `NE` (where the stencil is cut off).
    pub ne: usize,
    /// Produced energies `[lo, hi)`.
    pub own: (usize, usize),
    /// Resident source energies `[lo, hi)`.
    pub halo: (usize, usize),
}

impl EnergyWindow {
    /// The single-tile window: every energy produced, every energy resident.
    pub fn full(ne: usize) -> Self {
        EnergyWindow {
            ne,
            own: (0, ne),
            halo: (0, ne),
        }
    }

    /// Produced energies.
    pub fn own_len(&self) -> usize {
        self.own.1 - self.own.0
    }

    /// Resident source energies.
    pub fn halo_len(&self) -> usize {
        self.halo.1 - self.halo.0
    }
}

/// Stage A: `out[i][x] = ∇H^i · g[x]` for the three directions over a
/// contiguous run of blocks — one strided-batched GEMM per direction
/// (`A` = `∇H^i` at stride 0, `B` = the run at stride `Norb²`).
pub fn grad_g(dims: BatchDims, grads: &[CMatrix; 3], g: &[C64], out: &mut [C64]) {
    let bsz = dims.m * dims.n;
    assert_eq!(out.len(), 3 * g.len(), "∇H·G run length");
    let strides = Strides {
        a: 0,
        b: bsz,
        c: bsz,
    };
    for (grad, o) in grads.iter().zip(out.chunks_exact_mut(g.len())) {
        let (one, zero) = (C64::ONE, C64::ZERO);
        sbsmm(
            dims,
            g.len() / bsz,
            one,
            grad.as_slice(),
            g,
            zero,
            o,
            strides,
        );
    }
}

/// Stage B: `dst = Σ_j Dc^{ij} · ∇H^j_ba` for direction `i`, with `dc` the
/// phonon-block combination of Eq. (2).
pub fn d_grad(dc: &[C64; D_BSZ], i: usize, grad_ba: &[CMatrix; 3], dst: &mut [C64]) {
    dst.fill(C64::ZERO);
    for (j, grad) in grad_ba.iter().enumerate() {
        let w = dc[j * 3 + i];
        for (d, g) in dst.iter_mut().zip(grad.as_slice()) {
            *d = d.mul_add(*g, w);
        }
    }
}

/// `out[cx + x] += hg[ax + x] · hd` over a run of `n` blocks.
#[allow(clippy::too_many_arguments)]
fn mac_run(
    dims: BatchDims,
    n: usize,
    hg: &[C64],
    ax: usize,
    hd: &[C64],
    pb: Option<&PackedB>,
    out: &mut [C64],
    cx: usize,
) {
    if n == 0 {
        return;
    }
    let bsz = dims.m * dims.n;
    let (a, c) = (&hg[ax..ax + n * bsz], &mut out[cx..cx + n * bsz]);
    match pb {
        Some(pb) => sbsmm_pb(dims, n, C64::ONE, a, bsz, pb, C64::ONE, c, bsz),
        None => {
            let strides = Strides {
                a: bsz,
                b: 0,
                c: bsz,
            };
            sbsmm(dims, n, C64::ONE, a, hd, C64::ONE, c, strides);
        }
    }
}

/// Stage C for one directed pair `a → b`: accumulates the pair's share of
/// `Σ^≷_aa` over the window's own energies.
///
/// * `hg_l`/`hg_g` — `∇H_ab·G^≷_b`, laid out `[i][kz][E − halo.lo]`;
/// * `hd_l`/`hd_g` — the pair's [`d_grad`] blocks, `[i][qz][ω]`;
/// * `out_l`/`out_g` — unscaled `Σ^≷_aa`, `[kz][E − own.lo]`.
///
/// When the block shape amortizes packing, each `∇H·D` block is packed
/// once into `pb` and swept by the FMA micro-kernel across the whole `kz`
/// loop and all four updates; tiny blocks keep the scalar batched loop.
/// Returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn sigma_pair(
    prob: &SseProblem,
    win: &EnergyWindow,
    hg_l: &[C64],
    hg_g: &[C64],
    hd_l: &[C64],
    hd_g: &[C64],
    pb: &mut [PackedB; 2],
    out_l: &mut [C64],
    out_g: &mut [C64],
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
    let (hw, ew) = (win.halo_len(), win.own_len());
    let packed = use_packed_kernel(dims);
    let [pb_l, pb_g] = pb;
    let mut flops = 0u64;
    for i in 0..3 {
        for q in 0..nq {
            for m in 0..nw {
                let steps = prob.omega_steps(m);
                // Emission: Σ(e) += hg(e−ω)·hd over e ∈ [em_lo, own.hi);
                // absorption: Σ(e) += hg(e+ω)·hd' over e ∈ [own.lo, own.lo + n_ab).
                let em_lo = win.own.0.max(steps);
                let n_em = win.own.1.saturating_sub(em_lo);
                let ab_hi = win.own.1.min(win.ne.saturating_sub(steps));
                let n_ab = ab_hi.saturating_sub(win.own.0);
                if n_em + n_ab == 0 {
                    continue;
                }
                let hd0 = ((i * nq + q) * nw + m) * bsz;
                let (dl, dg) = (&hd_l[hd0..hd0 + bsz], &hd_g[hd0..hd0 + bsz]);
                if packed {
                    pb_l.pack(norb, norb, dl);
                    pb_g.pack(norb, norb, dg);
                }
                let (pl, pg) = (packed.then_some(&*pb_l), packed.then_some(&*pb_g));
                for k in 0..nk {
                    let src = (i * nk + prob.k_minus_q(k, q)) * hw;
                    let a_em = (src + em_lo - steps - win.halo.0) * bsz;
                    let a_ab = (src + win.own.0 + steps - win.halo.0) * bsz;
                    let c_em = (k * ew + em_lo - win.own.0) * bsz;
                    let c_ab = k * ew * bsz;
                    mac_run(dims, n_em, hg_l, a_em, dl, pl, out_l, c_em);
                    mac_run(dims, n_em, hg_g, a_em, dg, pg, out_g, c_em);
                    mac_run(dims, n_ab, hg_l, a_ab, dg, pg, out_l, c_ab);
                    mac_run(dims, n_ab, hg_g, a_ab, dl, pl, out_g, c_ab);
                    flops += 2 * (n_em + n_ab) as u64 * dims.flops();
                }
            }
        }
    }
    flops
}

/// Stage D for one directed pair `p = a → b` at one `(qz, ω_m)`:
/// `C^≷_{ij} = Σ_kz Σ_E tr{x^i(kz+qz, E+ω) · y^j(kz, E)}` over the
/// window's own energies with `E + ω < NE`, where `x = ∇H_ba·G_a` (the
/// reverse pair's product) and `y = ∇H_ab·G_b`, both laid out
/// `[direction][kz][E − halo.lo]`. `C^<` pairs `x^<` with `y^>`, `C^>` the
/// opposite. Returns `(C^<, C^>, flops)`; each contributes to the pair
/// entry `Π_ab` and the diagonal entry `Π_aa`.
#[allow(clippy::too_many_arguments)]
pub fn pi_pair(
    prob: &SseProblem,
    q: usize,
    m: usize,
    win: &EnergyWindow,
    x_l: &[C64],
    x_g: &[C64],
    y_l: &[C64],
    y_g: &[C64],
) -> ([C64; D_BSZ], [C64; D_BSZ], u64) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let hw = win.halo_len();
    let steps = prob.omega_steps(m);
    let e_hi = win.own.1.min(win.ne.saturating_sub(steps));
    let blk = |dir: usize, k: usize, e: usize| {
        let o = ((dir * prob.nk + k) * hw + e - win.halo.0) * bsz;
        o..o + bsz
    };
    let mut c_l = [C64::ZERO; D_BSZ];
    let mut c_g = [C64::ZERO; D_BSZ];
    let mut flops = 0u64;
    for k in 0..prob.nk {
        let kq = prob.k_plus_q(k, q);
        for e in win.own.0..e_hi {
            for i in 0..3 {
                let xr = blk(i, kq, e + steps);
                for j in 0..3 {
                    let yr = blk(j, k, e);
                    c_l[j * 3 + i] += trace_product(&x_l[xr.clone()], &y_g[yr.clone()], norb);
                    c_g[j * 3 + i] += trace_product(&x_g[xr.clone()], &y_l[yr], norb);
                    flops += 2 * 8 * bsz as u64;
                }
            }
        }
    }
    (c_l, c_g, flops)
}
