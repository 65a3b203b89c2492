//! Leaf stages of the transformed SSE dataflow (Fig. 6), one directed
//! pair at a time over an [`EnergyWindow`].
//!
//! [`crate::transformed`] calls them on slices of its materialised
//! transients with the full window, and [`crate::mixed`] calls stage C on
//! binary16-quantised copies of the same transients; the atom×energy tiles
//! of `omen-comm`'s data-centric plan call the same functions on per-pair
//! stream buffers with their own window — one kernel, two schedules. All
//! operands are slices, so any block store that can hand out a contiguous
//! energy run feeds them.

use crate::problem::SseProblem;
use crate::tensors::D_BSZ;
use omen_linalg::{
    add_planes, count_fused_run, pack_planes, pack_split, planes_dots, planes_mac, sbsmm, sbsmm_pb,
    use_packed_kernel, BatchDims, CMatrix, DotTile, PlaneScratch, SplitRun, Strides, C64,
};

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

/// The energies one `(qz, ω_m)` update of stage C touches in a window:
/// emission `Σ(e) += hg(e−ω)·hd` over `e ∈ [em_lo, em_lo + n_em)`,
/// absorption `Σ(e) += hg(e+ω)·hd'` over `e ∈ [own.lo, own.lo + n_ab)`.
pub(crate) struct Stencil {
    pub(crate) steps: usize,
    pub(crate) em_lo: usize,
    pub(crate) n_em: usize,
    pub(crate) n_ab: usize,
}

impl Stencil {
    pub(crate) fn new(win: &EnergyWindow, steps: usize) -> Self {
        let em_lo = win.own.0.max(steps);
        let ab_hi = win.own.1.min(win.ne.saturating_sub(steps));
        Stencil {
            steps,
            em_lo,
            n_em: win.own.1.saturating_sub(em_lo),
            n_ab: ab_hi.saturating_sub(win.own.0),
        }
    }
}

/// Stage C for one directed pair `a → b`: adds the pair's share of the
/// scaled `Σ^≷_aa` over the window's own energies.
///
/// * `hg_l`/`hg_g` — `∇H_ab·G^≷_b`, laid out `[i][kz][E − halo.lo]`;
/// * `hd_l`/`hd_g` — the pair's [`d_grad`] blocks, `[i][qz][ω]`;
/// * `out_l`/`out_g` — `Σ^≷_aa`, `[kz][E − own.lo]`.
///
/// The prefactor `scale_sigma` rides on each `∇H·D` block, so no sweep
/// over `Σ` follows. Blocks big enough for a register tile
/// ([`use_packed_kernel`]) pack each `∇H·D` block once and sweep it with
/// the FMA micro-kernel across the whole `kz` loop and all four updates.
/// Tiny blocks turn the batch into the SIMD axis instead: the pair's `hg`
/// stream is packed once into energy planes, every update is a
/// [`planes_mac`] over an energy run, and the accumulated planes are added
/// to `out` once. Either way the loop nest is `(i, qz, ω, kz)`, and an
/// output element receives its `(i, qz, ω)` terms in loop order, emission
/// before absorption, whatever the window. Returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn sigma_pair(
    prob: &SseProblem,
    win: &EnergyWindow,
    hg_l: &[C64],
    hg_g: &[C64],
    hd_l: &[C64],
    hd_g: &[C64],
    scratch: &mut PlaneScratch,
    out_l: &mut [C64],
    out_g: &mut [C64],
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
    let (hw, ew) = (win.halo_len(), win.own_len());
    let packed = use_packed_kernel(dims);
    // Lesser and greater side by side; an update reads and writes the
    // same side and takes either side's `∇H·D`.
    let hg = [hg_l, hg_g];
    let mut out = [out_l, out_g];
    let PlaneScratch {
        a: src,
        c: acc,
        w,
        pb,
        ..
    } = scratch;
    // Element planes: `[i][kz][element][re|im][E − halo.lo]` sources,
    // `[kz][element][re|im][E − own.lo]` accumulators.
    let (src_run, acc_run) = (2 * bsz * hw, 2 * bsz * ew);
    if !packed {
        for ((src, acc), hg) in src.iter_mut().zip(acc.iter_mut()).zip(hg) {
            pack_planes(norb, hw, hg, src);
            acc.clear();
            acc.resize(prob.nk * acc_run, 0.0);
        }
    }
    let mut flops = 0u64;
    for i in 0..3 {
        for q in 0..nq {
            for m in 0..nw {
                let st = Stencil::new(win, prob.omega_steps(m));
                if st.n_em + st.n_ab == 0 {
                    continue;
                }
                // The pair's `∇H·D` blocks `[i][qz][ω]`, lesser and greater,
                // are the right operands of every update below.
                let block = (i * nq + q) * nw + m;
                for ((w, pb), hd) in w.iter_mut().zip(pb.iter_mut()).zip([hd_l, hd_g]) {
                    w.clear();
                    let block = &hd[block * bsz..(block + 1) * bsz];
                    w.extend(block.iter().map(|z| z.scale(prob.scale_sigma)));
                    if packed {
                        pb.pack(norb, norb, w);
                    }
                }
                // `side[cx..] += side[ax..] · ∇H·D[d]` over `n` energies,
                // offsets in blocks: `ax` into the pair's
                // `[i][kz][E − halo.lo]` stream, `cx` into `Σ_aa`'s
                // `[kz][E − own.lo]`.
                let mut mac = |n: usize, side: usize, ax: usize, d: usize, cx: usize| {
                    if n == 0 {
                        return;
                    }
                    if packed {
                        let (a, c) = (&hg[side][ax * bsz..], &mut out[side][cx * bsz..]);
                        sbsmm_pb(dims, n, C64::ONE, a, bsz, &pb[d], C64::ONE, c, bsz);
                    } else {
                        // `2·Norb²` planes per `(i, kz)` run, the energy
                        // inside a plane.
                        let a = &src[side][(ax / hw) * src_run + ax % hw..];
                        let c = &mut acc[side][(cx / ew) * acc_run + cx % ew..];
                        planes_mac(norb, n, a, hw, &w[d], c, ew);
                    }
                };
                for k in 0..nk {
                    let from = (i * nk + prob.k_minus_q(k, q)) * hw;
                    let a_em = from + st.em_lo - st.steps - win.halo.0;
                    let a_ab = from + win.own.0 + st.steps - win.halo.0;
                    let c_em = k * ew + st.em_lo - win.own.0;
                    let c_ab = k * ew;
                    mac(st.n_em, 0, a_em, 0, c_em);
                    mac(st.n_em, 1, a_em, 1, c_em);
                    mac(st.n_ab, 0, a_ab, 1, c_ab);
                    mac(st.n_ab, 1, a_ab, 0, c_ab);
                    flops += 2 * (st.n_em + st.n_ab) as u64 * dims.flops();
                }
            }
        }
    }
    if !packed {
        for (acc, out) in acc.iter().zip(out) {
            add_planes(norb, ew, acc, out);
        }
        count_fused_run(flops);
    }
    flops
}

fn split_runs(
    s: &[f64],
    nk: usize,
    row: usize,
    k: usize,
    at: usize,
    n: usize,
) -> [SplitRun<'_>; 3] {
    std::array::from_fn(|dir| {
        let o = (dir * nk + k) * 2 * row + at;
        [&s[o..o + n], &s[o + row..o + row + n]]
    })
}

/// Stage D for one directed pair `p = a → b`, every `(qz, ω_m)` at once:
/// `C^≷_{ij} = Σ_kz Σ_E tr{x^i(kz+qz, E+ω) · y^j(kz, E)}` over the
/// window's own energies with `E + ω < NE`, where `x = ∇H_ba·G_a` (the
/// reverse pair's product) and `y = ∇H_ab·G_b`, both laid out
/// `[direction][kz][E − halo.lo]`. `C^<` pairs `x^<` with `y^>`, `C^>` the
/// opposite; `sink(qz, m, C^<, C^>)` receives each non-empty point, whose
/// blocks contribute to the pair entry `Π_ab` and the diagonal entry
/// `Π_aa`.
///
/// `x` and the block-transposed `y` are split into real and imaginary
/// runs once; a trace over a `kz` row is then a plain complex dot product
/// over `E × Norb²` contiguous numbers, nine of them per [`planes_dots`]
/// tile. Returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn pi_pair(
    prob: &SseProblem,
    win: &EnergyWindow,
    x_l: &[C64],
    x_g: &[C64],
    y_l: &[C64],
    y_g: &[C64],
    scratch: &mut PlaneScratch,
    mut sink: impl FnMut(usize, usize, &[C64; D_BSZ], &[C64; D_BSZ]),
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let nk = prob.nk;
    // One `[re|im]` pair of runs per `(direction, kz)`.
    let row = win.halo_len() * bsz;
    let PlaneScratch {
        a: [xs_l, xs_g],
        b: [ys_l, ys_g],
        ..
    } = scratch;
    pack_split(row, None, x_l, xs_l);
    pack_split(row, None, x_g, xs_g);
    pack_split(row, Some(norb), y_l, ys_l);
    pack_split(row, Some(norb), y_g, ys_g);
    // The three directions' runs of `n` numbers from `at` in row `kz`.
    let runs = |s, k: usize, at: usize, n: usize| split_runs(s, nk, row, k, at, n);
    let mut flops = 0u64;
    for q in 0..prob.nq {
        for m in 0..prob.nw {
            let steps = prob.omega_steps(m);
            let e_hi = win.own.1.min(win.ne.saturating_sub(steps));
            if e_hi <= win.own.0 {
                continue;
            }
            let n = (e_hi - win.own.0) * bsz;
            let at_y = (win.own.0 - win.halo.0) * bsz;
            let at_x = at_y + steps * bsz;
            let (mut c_l, mut c_g) = (DotTile::default(), DotTile::default());
            for k in 0..nk {
                let kq = prob.k_plus_q(k, q);
                planes_dots(runs(xs_l, kq, at_x, n), runs(ys_g, k, at_y, n), &mut c_l);
                planes_dots(runs(xs_g, kq, at_x, n), runs(ys_l, k, at_y, n), &mut c_g);
            }
            sink(q, m, &c_l.sum(), &c_g.sum());
            flops += 2 * 8 * (D_BSZ * nk * n) as u64;
        }
    }
    count_fused_run(flops);
    flops
}
