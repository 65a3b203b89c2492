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
/// The prefactor `scale_sigma` rides on each `∇H·D` block, scaled once
/// per pair, so no sweep over `Σ` follows. Blocks big enough for a
/// register tile ([`use_packed_kernel`]) pack each `∇H·D` block once and
/// sweep it with the FMA micro-kernel across the whole `kz` loop and all
/// four updates, loop nest `(i, qz, ω, kz)`. Tiny blocks turn the batch
/// into the SIMD axis instead: each side's `hg` stream is packed once
/// into energy planes covering `own ± Nω` (zeros outside the grid), and
/// every `(side, kz)` output run is one [`planes_mac`] call over all its
/// `(i, qz, ω)` emission and absorption terms, accumulated into planes
/// that are added to `out` once. A term's energies outside the grid read
/// the padding zeros: for finite `∇H·D` an exact no-op on an accumulator
/// that starts at `+0`. Either way an output element receives its
/// `(i, qz, ω)` terms in loop order, emission before absorption, whatever
/// the window. Returns the flops performed.
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
    // Lesser and greater side by side; an update reads and writes the
    // same side and takes either side's `∇H·D`.
    let hg = [hg_l, hg_g];
    let mut out = [out_l, out_g];
    let PlaneScratch {
        a: src,
        c: acc,
        w,
        terms,
        pb,
        ..
    } = scratch;
    // The right operand of every update: the pair's `∇H·D` blocks
    // `[side][i][qz][ω]`, scaled.
    let blocks = 3 * nq * nw;
    w.clear();
    for hd in [hd_l, hd_g] {
        w.extend(hd[..blocks * bsz].iter().map(|z| z.scale(prob.scale_sigma)));
    }
    let stencils = || (0..nw).map(|m| Stencil::new(win, prob.omega_steps(m)));
    let per_kz: usize = stencils().map(|st| st.n_em + st.n_ab).sum();
    let flops = (3 * nq * nk * 2 * per_kz) as u64 * dims.flops();
    // The scaled block `(side, i, qz, ω)`.
    let block =
        |side: usize, i: usize, q: usize, m: usize| (((side * 3 + i) * nq + q) * nw + m) * bsz;
    if use_packed_kernel(dims) {
        for i in 0..3 {
            for q in 0..nq {
                for (m, st) in stencils().enumerate() {
                    if st.n_em + st.n_ab == 0 {
                        continue;
                    }
                    for (d, pb) in pb.iter_mut().enumerate() {
                        pb.pack(norb, norb, &w[block(d, i, q, m)..][..bsz]);
                    }
                    // `side[cx..] += side[ax..] · ∇H·D[d]` over `n` energies,
                    // offsets in blocks: `ax` into the pair's
                    // `[i][kz][E − halo.lo]` stream, `cx` into `Σ_aa`'s
                    // `[kz][E − own.lo]`.
                    let mut mac = |n: usize, side: usize, ax: usize, d: usize, cx: usize| {
                        if n > 0 {
                            let (a, c) = (&hg[side][ax * bsz..], &mut out[side][cx * bsz..]);
                            sbsmm_pb(dims, n, C64::ONE, a, bsz, &pb[d], C64::ONE, c, bsz);
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
                    }
                }
            }
        }
        return flops;
    }
    // Element planes `[i][kz][element][re|im][plane]`: `pad` zeros before
    // the halo's first energy and zeros past its last, so that position
    // `base + j` is energy `own.lo + j` and every term reads its whole
    // run `base ± steps + j` within the planes. Accumulators
    // `[kz][element][re|im][E − own.lo]`.
    let reach = stencils().map(|st| st.steps).max().unwrap_or(0);
    let pad = reach.saturating_sub(win.own.0 - win.halo.0);
    let base = win.own.0 - win.halo.0 + pad;
    let plane = (pad + hw).max(base + ew + reach);
    let (src_run, acc_run) = (2 * bsz * plane, 2 * bsz * ew);
    for (side, (src, acc)) in src.iter_mut().zip(acc.iter_mut()).enumerate() {
        pack_planes(norb, hw, hg[side], plane, pad, src);
        acc.clear();
        acc.resize(nk * acc_run, 0.0);
        for (k, acc) in acc.chunks_exact_mut(acc_run).enumerate() {
            terms.clear();
            for i in 0..3 {
                for q in 0..nq {
                    let from = (i * nk + prob.k_minus_q(k, q)) * src_run + base;
                    for (m, st) in stencils().enumerate() {
                        if st.n_em > 0 {
                            terms.push((from - st.steps, block(side, i, q, m)));
                        }
                        if st.n_ab > 0 {
                            terms.push((from + st.steps, block(1 - side, i, q, m)));
                        }
                    }
                }
            }
            planes_mac(norb, ew, src, plane, w, terms, acc, ew);
        }
    }
    for (acc, out) in acc.iter().zip(out) {
        add_planes(norb, ew, acc, out);
    }
    count_fused_run(flops);
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

#[cfg(test)]
mod tests {
    use super::*;
    use omen_device::{DeviceConfig, DeviceStructure};
    use omen_linalg::{c64, PLANES_MAX_DIM};

    fn noise(n: usize, seed: u64) -> Vec<C64> {
        let f = |i: usize, k: f64| ((i as f64 + 0.5 + seed as f64 * 17.0) * k).sin();
        (0..n).map(|i| c64(f(i, 0.37), f(i, 1.13))).collect()
    }

    /// Stage C's plane branch as one update at a time: `∇H·G` packed into
    /// unpadded planes of the halo's length, one one-term [`planes_mac`]
    /// per `(i, qz, ω, kz, update)` over the update's in-grid energies,
    /// the accumulators added to `out` once.
    #[allow(clippy::too_many_arguments)]
    fn update_loop(
        prob: &SseProblem,
        win: &EnergyWindow,
        hg_l: &[C64],
        hg_g: &[C64],
        hd_l: &[C64],
        hd_g: &[C64],
        out_l: &mut [C64],
        out_g: &mut [C64],
    ) {
        let norb = prob.norb();
        let bsz = norb * norb;
        let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
        let (hw, ew) = (win.halo_len(), win.own_len());
        let (src_run, acc_run) = (2 * bsz * hw, 2 * bsz * ew);
        let mut src = [Vec::new(), Vec::new()];
        pack_planes(norb, hw, hg_l, hw, 0, &mut src[0]);
        pack_planes(norb, hw, hg_g, hw, 0, &mut src[1]);
        let mut acc = [vec![0.0; nk * acc_run], vec![0.0; nk * acc_run]];
        for i in 0..3 {
            for q in 0..nq {
                for m in 0..nw {
                    let st = Stencil::new(win, prob.omega_steps(m));
                    let block = (i * nq + q) * nw + m;
                    let w = [hd_l, hd_g].map(|hd| -> Vec<C64> {
                        let hd = &hd[block * bsz..(block + 1) * bsz];
                        hd.iter().map(|z| z.scale(prob.scale_sigma)).collect()
                    });
                    let mut mac = |n: usize, side: usize, ax: usize, d: usize, cx: usize| {
                        if n > 0 {
                            let a = (ax / hw) * src_run + ax % hw;
                            let c = &mut acc[side][(cx / ew) * acc_run + cx % ew..];
                            planes_mac(norb, n, &src[side], hw, &w[d], &[(a, 0)], c, ew);
                        }
                    };
                    for k in 0..nk {
                        let from = (i * nk + prob.k_minus_q(k, q)) * hw;
                        let a_em = from + st.em_lo - st.steps - win.halo.0;
                        let a_ab = from + win.own.0 + st.steps - win.halo.0;
                        let c_em = k * ew + st.em_lo - win.own.0;
                        mac(st.n_em, 0, a_em, 0, c_em);
                        mac(st.n_em, 1, a_em, 1, c_em);
                        mac(st.n_ab, 0, a_ab, 1, k * ew);
                        mac(st.n_ab, 1, a_ab, 0, k * ew);
                    }
                }
            }
        }
        add_planes(norb, ew, &acc[0], out_l);
        add_planes(norb, ew, &acc[1], out_g);
    }

    #[test]
    fn sigma_pair_planes_are_the_parent_update_loop() {
        // One fused call per `(side, kz)` over padded planes is bitwise the
        // update-at-a-time loop, on the full window and on clamped tiles.
        let (nk, ne, nq, nw) = (2, 24, 2, 3);
        let bits = |v: &[C64]| -> Vec<[u64; 2]> {
            v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
        };
        // A scratch that held other values: stale numbers in the padding
        // would show.
        let mut scratch = PlaneScratch {
            a: [vec![1.5; 1 << 16], vec![-2.5; 1 << 16]],
            ..PlaneScratch::default()
        };
        for norb in 1..=PLANES_MAX_DIM {
            let dev = DeviceStructure::build(DeviceConfig {
                norb,
                ..DeviceConfig::tiny()
            });
            let prob = SseProblem::new(&dev, nk, ne, nq, nw, 0.37, 1.0);
            let bsz = norb * norb;
            let hd_len = 3 * nq * nw * bsz;
            let (hd_l, hd_g) = (noise(hd_len, 1), noise(hd_len, 2));
            let tiles: [(usize, usize); 4] = [(0, ne), (0, 7), (5, 13), (17, 24)];
            for (t, own) in tiles.into_iter().enumerate() {
                let halo = (own.0.saturating_sub(nw), (own.1 + nw).min(ne));
                let win = EnergyWindow { ne, own, halo };
                let stream = 3 * nk * win.halo_len() * bsz;
                let seed = 10 * (t as u64 + 1);
                let (hg_l, hg_g) = (noise(stream, seed), noise(stream, seed + 1));
                let base = noise(nk * win.own_len() * bsz, seed + 2);
                let (mut got_l, mut got_g) = (base.clone(), base.clone());
                let (mut want_l, mut want_g) = (base.clone(), base);
                sigma_pair(
                    &prob,
                    &win,
                    &hg_l,
                    &hg_g,
                    &hd_l,
                    &hd_g,
                    &mut scratch,
                    &mut got_l,
                    &mut got_g,
                );
                update_loop(
                    &prob,
                    &win,
                    &hg_l,
                    &hg_g,
                    &hd_l,
                    &hd_g,
                    &mut want_l,
                    &mut want_g,
                );
                assert!(
                    bits(&got_l) == bits(&want_l),
                    "Σ<: Norb {norb}, own {own:?}"
                );
                assert!(
                    bits(&got_g) == bits(&want_g),
                    "Σ>: Norb {norb}, own {own:?}"
                );
            }
        }
    }
}
