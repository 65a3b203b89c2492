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
//!
//! # The `∇H·G` stream
//!
//! Stage A writes, and stages C and D read, one stream per directed pair
//! and side, `[i][κ][E − halo.lo]` over `f64`s: the pair's `∇H·G` at the
//! momentum harmonics `κ` (below). Blocks up to
//! [`omen_linalg::PLANES_MAX_DIM`] (every block [`use_packed_kernel`]
//! leaves out) are element planes, `[i][κ][element][re|im][E −
//! halo.lo]` with the elements in row-major order, so stage A runs with
//! the energy run as the SIMD axis and no stage repacks its blocks. Larger
//! blocks are column-major blocks `[i][κ][E − halo.lo][Norb²]` as `re,
//! im` pairs ([`omen_linalg::as_c64`]), the operands of the packed
//! micro-kernel. Either way a stream holds `2 · 3 · Nkz · E · Norb²`
//! numbers.
//!
//! # Momentum harmonics
//!
//! Stages C and D write k-space `Σ` and `Π`, but work on harmonics `κ` of
//! a length-`Nkz` DFT along momentum, `x̂(κ) = Σ_kz ω^{−κ·kz} x(kz)` with
//! `ω = e^{2πi/Nkz}`: their momentum sums are circular convolutions (`Nqz
//! = Nkz`, periodic wrap), one product per harmonic. `∇H_p` does not
//! depend on `kz`, so `∇H·Ĝ(κ)` is the harmonic of `∇H·G`, and stage A is
//! the one place a stream is transformed ([`grad_g`]): every consumer —
//! stage C, stage D, the transformed kernel's window, the mixed kernel's
//! quantisation, the DaCe tile's pair buffers — reads harmonics. Stage C
//! transforms its scaled copy of the `∇H·D` blocks ([`dft_blocks`]); the
//! inverse, with its `1/Nkz`, goes into `Σ` and `Π`. The transforms are
//! plain unfused arithmetic, per energy and element, so a window never
//! changes an output element's bits. `Nkz = 2` and `4` run butterflies of
//! additions only; other counts sum twiddled terms, exact at quarter
//! turns. At `Nkz = 1` nothing is transformed.

use crate::point_kernels::{d_combination, DBlocks};
use crate::problem::SseProblem;
use crate::tensors::D_BSZ;
use omen_linalg::{
    add_planes, as_c64, as_c64_mut, count_fused_run, dft_blocks, dft_planes, pack_planes,
    pack_split, pad_planes, planes_dots, planes_lmul, planes_mac, sbsmm, sbsmm_pb, split_planes,
    use_packed_kernel, BatchDims, CMatrix, DotTile, PackedB, PlaneScratch, SplitRun, Strides, C64,
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

/// Stage A: `out[i][κ][e] = ∇H^i · Ĝ(κ)[e]` for the three directions,
/// `g` being `[kz][E]` runs of `len` blocks, one per momentum, and `out`
/// the pair's `∇H·G` stream at the momentum harmonics (see the module
/// docs). Blocks that take the energy-plane kernels are packed into
/// `scratch.b[0]` once and transformed there ([`dft_planes`]), then each
/// direction is one [`planes_lmul`] over all runs; for finite `∇H`,
/// bitwise [`dft_blocks`] on `g`, then `sbsmm`, then `pack_planes`.
/// Larger blocks take one strided-batched GEMM per direction (`A` =
/// `∇H^i` at stride 0, `B` = the blocks at stride `Norb²`), whose output
/// is transformed in place ([`dft_blocks`]).
pub fn grad_g(
    norb: usize,
    len: usize,
    grads: &[CMatrix; 3],
    g: &[C64],
    scratch: &mut PlaneScratch,
    out: &mut [f64],
) {
    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let nk = g.len() / (len * bsz);
    assert_eq!(out.len(), 3 * 2 * g.len(), "∇H·G stream length");
    let dirs = out.chunks_exact_mut(2 * g.len());
    if !use_packed_kernel(dims) {
        let planes = &mut scratch.b[0];
        pack_planes(norb, len, g, len, 0, planes);
        dft_planes(nk, false, bsz, len, planes);
        for (grad, o) in grads.iter().zip(dirs) {
            planes_lmul(norb, len, grad.as_slice(), planes, o);
        }
        count_fused_run(3 * (g.len() / bsz) as u64 * dims.flops());
        return;
    }
    let strides = Strides {
        a: 0,
        b: bsz,
        c: bsz,
    };
    for (grad, o) in grads.iter().zip(dirs) {
        let (one, zero) = (C64::ONE, C64::ZERO);
        let o = as_c64_mut(o);
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
        dft_blocks(nk, false, len * bsz, o);
    }
}

/// Stage B for the directed pair `p = a → b`: `out[i][qz][ω] = Σ_j
/// Dc^{ij}(qz, ω) · ∇H^j_ba` over every `(qz, ω)` of `prob`, with `Dc`
/// the phonon-block combination of Eq. (2) ([`crate::d_combination`])
/// read from `d`: the pair's `∇H·D` blocks, in k-space.
pub fn grad_d(prob: &SseProblem, d: &impl DBlocks, p: usize, out: &mut [C64]) {
    let bsz = prob.norb() * prob.norb();
    let (nq, nw) = (prob.nq, prob.nw);
    let (pair, rev) = (&prob.device.neighbors.pairs[p], prob.rev_pair[p]);
    let grad_ba = &prob.device.gradients.grads[rev];
    for q in 0..nq {
        for m in 0..nw {
            let dc = d_combination(d, q, m, p, rev, pair.from, pair.to, prob.npairs());
            for i in 0..3 {
                let o = ((i * nq + q) * nw + m) * bsz;
                d_grad(&dc, i, grad_ba, &mut out[o..o + bsz]);
            }
        }
    }
}

/// `dst = Σ_j Dc^{ij} · ∇H^j_ba` for direction `i`, with `dc` the
/// phonon-block combination of Eq. (2).
pub(crate) fn d_grad(dc: &[C64; D_BSZ], i: usize, grad_ba: &[CMatrix; 3], dst: &mut [C64]) {
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
/// * `hg_l`/`hg_g` — the `∇H_ab·G^≷_b` streams as [`grad_g`] writes them,
///   `[i][κ][E − halo.lo]` (harmonics, planes or blocks, see the module
///   docs);
/// * `hd_l`/`hd_g` — the pair's [`grad_d`] blocks, `[i][qz][ω]`;
/// * `out_l`/`out_g` — `Σ^≷_aa`, `[kz][E − own.lo]`.
///
/// `Σ(kz) = Σ_qz ∇H·G(kz − qz) · ∇H·D(qz)` is a circular convolution on
/// the one momentum grid (`Nqz = Nkz`), so the stage runs on momentum
/// harmonics `κ`: the streams come as harmonics, the copy it makes of the
/// `∇H·D` blocks is taken through a length-`Nkz` DFT along momentum in
/// place ([`dft_blocks`]), each harmonic's output is one product per `(i,
/// ω)` term, and the accumulators' inverse transform (×`1/Nkz`) is added
/// into `out`. At `Nkz = 1` no transform runs. The flops count the block
/// products only: the transforms (additions only at `Nkz = 2` and `4`)
/// are not flops of the model, and `bytes_packed` counts the copies.
///
/// The prefactor `scale_sigma` rides on each `∇H·D` block, scaled once
/// per pair, so no sweep over `Σ` follows. Blocks big enough for a
/// register tile ([`use_packed_kernel`]) read the streams in place, pack
/// each `∇H·D` harmonic once and sweep it with the FMA micro-kernel over
/// all four updates, loop nest `(i, κ, ω)`. Tiny blocks turn the batch
/// into the SIMD axis instead: each side's `hg` harmonics are padded into
/// planes covering `own ± Nω` (zeros outside the grid), and every `(side,
/// κ)` output run is one [`planes_mac`] call over all its `(i, ω)`
/// emission and absorption terms, accumulated into planes. A term's
/// energies outside the grid read the padding zeros: for finite `∇H·D` an
/// exact no-op on an accumulator that starts at `+0`. Either way an
/// output element receives its `(i, ω)` terms in loop order, emission
/// before absorption, and the same transforms, whatever the window.
/// Returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn sigma_pair(
    prob: &SseProblem,
    win: &EnergyWindow,
    hg_l: &[f64],
    hg_g: &[f64],
    hd_l: &[C64],
    hd_g: &[C64],
    scratch: &mut PlaneScratch,
    out_l: &mut [C64],
    out_g: &mut [C64],
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, nw) = (prob.nk, prob.nw);
    let (hw, ew) = (win.halo_len(), win.own_len());
    // Lesser and greater side by side; an update reads and writes the
    // same side and takes either side's `∇H·D`.
    let hg = [hg_l, hg_g];
    let out = [out_l, out_g];
    let PlaneScratch {
        a: src,
        c: acc,
        w,
        terms,
        pb,
        ..
    } = scratch;
    // The right operand of every update: the pair's `∇H·D` harmonics
    // `[side][i][κ][ω]`, scaled.
    let blocks = 3 * nk * nw * bsz;
    w.clear();
    for hd in [hd_l, hd_g] {
        w.extend(hd[..blocks].iter().map(|z| z.scale(prob.scale_sigma)));
    }
    dft_blocks(nk, false, nw * bsz, w);
    let stencils = || (0..nw).map(|m| Stencil::new(win, prob.omega_steps(m)));
    let per_kz: usize = stencils().map(|st| st.n_em + st.n_ab).sum();
    let flops = (3 * nk * 2 * per_kz) as u64 * dims.flops();
    if use_packed_kernel(dims) {
        let hg = hg.map(as_c64);
        // At one momentum `Σ` is its own harmonic.
        if nk == 1 {
            sigma_blocks(prob, win, hg, w, pb, out);
            return flops;
        }
        for acc in acc.iter_mut() {
            acc.clear();
            acc.resize(2 * nk * ew * bsz, 0.0);
        }
        let [c_l, c_g] = acc;
        sigma_blocks(prob, win, hg, w, pb, [as_c64_mut(c_l), as_c64_mut(c_g)]);
        for (acc, out) in [c_l, c_g].into_iter().zip(out) {
            let acc = as_c64_mut(acc);
            dft_blocks(nk, true, ew * bsz, acc);
            out.iter_mut().zip(&*acc).for_each(|(o, a)| *o += *a);
        }
        return flops;
    }
    // Element planes `[i][κ][element][re|im][plane]`: `pad` zeros before
    // the halo's first energy and zeros past its last, so that position
    // `base + j` is energy `own.lo + j` and every term reads its whole
    // run `base ± steps + j` within the planes. Accumulators
    // `[κ][element][re|im][E − own.lo]`.
    let reach = stencils().map(|st| st.steps).max().unwrap_or(0);
    let pad = reach.saturating_sub(win.own.0 - win.halo.0);
    let base = win.own.0 - win.halo.0 + pad;
    let plane = (pad + hw).max(base + ew + reach);
    let (src_run, acc_run) = (2 * bsz * plane, 2 * bsz * ew);
    // The scaled harmonic `(side, i, κ, ω)`.
    let block =
        |side: usize, i: usize, k: usize, m: usize| (((side * 3 + i) * nk + k) * nw + m) * bsz;
    for (side, (src, acc)) in src.iter_mut().zip(acc.iter_mut()).enumerate() {
        pad_planes(hw, hg[side], plane, pad, src);
        acc.clear();
        acc.resize(nk * acc_run, 0.0);
        for (k, acc) in acc.chunks_exact_mut(acc_run).enumerate() {
            terms.clear();
            for i in 0..3 {
                let from = (i * nk + k) * src_run + base;
                for (m, st) in stencils().enumerate() {
                    if st.n_em > 0 {
                        terms.push((from - st.steps, block(side, i, k, m)));
                    }
                    if st.n_ab > 0 {
                        terms.push((from + st.steps, block(1 - side, i, k, m)));
                    }
                }
            }
            planes_mac(norb, ew, src, plane, w, terms, acc, ew);
        }
        dft_planes(nk, true, bsz, ew, acc);
    }
    for (acc, out) in acc.iter().zip(out) {
        add_planes(norb, ew, acc, out);
    }
    count_fused_run(flops);
    flops
}

/// Stage C's packed branch on harmonics: `c[side]`, `[κ][E − own.lo]`
/// blocks, receives the four updates of every `(i, κ, ω)` from the
/// `∇H·G` harmonics `a[side]`, `[i][κ][E − halo.lo]`, and the scaled
/// `∇H·D` harmonics `w` (see [`sigma_pair`]), each `∇H·D` block packed
/// once.
fn sigma_blocks(
    prob: &SseProblem,
    win: &EnergyWindow,
    a: [&[C64]; 2],
    w: &[C64],
    pb: &mut [PackedB; 2],
    mut c: [&mut [C64]; 2],
) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let (nk, nw) = (prob.nk, prob.nw);
    let (hw, ew) = (win.halo_len(), win.own_len());
    for i in 0..3 {
        for k in 0..nk {
            for m in 0..nw {
                let st = Stencil::new(win, prob.omega_steps(m));
                if st.n_em + st.n_ab == 0 {
                    continue;
                }
                for (d, pb) in pb.iter_mut().enumerate() {
                    let at = (((d * 3 + i) * nk + k) * nw + m) * bsz;
                    pb.pack(norb, norb, &w[at..at + bsz]);
                }
                // `c[side][cx..] += a[side][ax..] · ∇H·D[d]` over `n`
                // energies, offsets in blocks.
                let mut mac = |n: usize, side: usize, ax: usize, d: usize, cx: usize| {
                    if n > 0 {
                        let (a, c) = (&a[side][ax * bsz..], &mut c[side][cx * bsz..]);
                        sbsmm_pb(dims, n, C64::ONE, a, bsz, &pb[d], C64::ONE, c, bsz);
                    }
                };
                let from = (i * nk + k) * hw;
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
/// reverse pair's product) and `y = ∇H_ab·G_b` are `∇H·G` streams (see
/// the module docs). `C^<` pairs `x^<` with `y^>`, `C^>` the
/// opposite; `sink(qz, m, C^<, C^>)` receives each non-empty point, in
/// `(qz, ω)` order, whose blocks contribute to the pair entry `Π_ab` and
/// the diagonal entry `Π_aa`.
///
/// The momentum sum is a circular correlation, so it runs on harmonics:
/// with `x̂(κ) = Σ_kz ω^{−κ·kz} x(kz)` and `ŷ` alike (`ω = e^{2πi/Nkz}`),
/// `C(qz) = (1/Nkz) Σ_κ ω^{κ·qz} · Σ_E tr{x̂(κ) · ŷ(−κ)}`: one trace
/// tile per `(κ, ω)` instead of `Nkz` per `(qz, ω)`.
///
/// `x` and `y` come as harmonics, as [`grad_g`] writes them. `x` and the
/// block-transposed `y` are split into real and imaginary runs of blocks
/// once ([`split_planes`] from planes, [`pack_split`] from blocks: the
/// same runs); a trace over a harmonic is then a plain complex dot
/// product over `E × Norb²` contiguous numbers, nine of them per
/// [`planes_dots`] tile. The tiles' inverse transform gives `C(qz)`.
/// Returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn pi_pair(
    prob: &SseProblem,
    win: &EnergyWindow,
    x_l: &[f64],
    x_g: &[f64],
    y_l: &[f64],
    y_g: &[f64],
    scratch: &mut PlaneScratch,
    mut sink: impl FnMut(usize, usize, &[C64; D_BSZ], &[C64; D_BSZ]),
) -> u64 {
    let norb = prob.norb();
    let bsz = norb * norb;
    let (nk, nw) = (prob.nk, prob.nw);
    // One `[re|im]` pair of runs per `(direction, kz)`.
    let row = win.halo_len() * bsz;
    let PlaneScratch {
        a: [xs_l, xs_g],
        b: [ys_l, ys_g],
        w: tiles,
        ..
    } = scratch;
    let blocks = use_packed_kernel(BatchDims::square(norb));
    for (x, transpose, dst) in [
        (x_l, false, &mut *xs_l),
        (x_g, false, &mut *xs_g),
        (y_l, true, &mut *ys_l),
        (y_g, true, &mut *ys_g),
    ] {
        if blocks {
            pack_split(row, transpose.then_some(norb), as_c64(x), dst);
        } else {
            split_planes(norb, win.halo_len(), transpose, x, dst);
        }
    }
    // The tiles `T^≷(κ, ω)`, `[ω][κ][≷][D_BSZ]`.
    let tile = |m: usize, k: usize| (m * nk + k) * 2 * D_BSZ;
    tiles.clear();
    tiles.resize(2 * nk * nw * D_BSZ, C64::ZERO);
    // The harmonics' runs of `n` numbers from `at` in each direction.
    let runs = |s, k: usize, at: usize, n: usize| split_runs(s, nk, row, k, at, n);
    // The point `(·, ω_m)` is empty when no own energy has `E + ω < NE`.
    let e_hi = |m: usize| win.own.1.min(win.ne.saturating_sub(prob.omega_steps(m)));
    let points = || (0..nw).filter(|&m| e_hi(m) > win.own.0);
    let mut flops = 0u64;
    for m in points() {
        let steps = prob.omega_steps(m);
        let n = (e_hi(m) - win.own.0) * bsz;
        let at_y = (win.own.0 - win.halo.0) * bsz;
        let at_x = at_y + steps * bsz;
        for k in 0..nk {
            let minus = (nk - k) % nk;
            let (mut c_l, mut c_g) = (DotTile::default(), DotTile::default());
            planes_dots(runs(xs_l, k, at_x, n), runs(ys_g, minus, at_y, n), &mut c_l);
            planes_dots(runs(xs_g, k, at_x, n), runs(ys_l, minus, at_y, n), &mut c_g);
            let t = &mut tiles[tile(m, k)..][..2 * D_BSZ];
            t[..D_BSZ].copy_from_slice(&c_l.sum());
            t[D_BSZ..].copy_from_slice(&c_g.sum());
        }
        flops += 2 * 8 * (D_BSZ * nk * n) as u64;
    }
    // `C(qz) = (1/Nkz) Σ_κ ω^{κ·qz} T(κ)`, `[ω][qz][≷][D_BSZ]`.
    dft_blocks(nk, true, 2 * D_BSZ, tiles);
    for q in 0..nk {
        for m in points() {
            let c = &tiles[tile(m, q)..][..2 * D_BSZ];
            let (c_l, c_g) = c.split_first_chunk().expect("a tile holds Π< and Π>");
            sink(q, m, c_l, c_g.try_into().expect("a tile holds Π< and Π>"));
        }
    }
    count_fused_run(flops);
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pi_pair_scalar, sigma_pair_scalar, stream_of};
    use omen_device::{DeviceConfig, DeviceStructure};
    use omen_linalg::{c64, PLANES_MAX_DIM};

    fn max_diff(a: &[C64], b: &[C64]) -> f64 {
        let diff = a.iter().zip(b).map(|(x, y)| (*x - *y).abs());
        diff.fold(0.0, f64::max)
    }

    fn noise(n: usize, seed: u64) -> Vec<C64> {
        let f = |i: usize, k: f64| ((i as f64 + 0.5 + seed as f64 * 17.0) * k).sin();
        (0..n).map(|i| c64(f(i, 0.37), f(i, 1.13))).collect()
    }

    /// Stage C's plane branch as one update at a time: the `∇H·G`
    /// harmonics packed into unpadded planes of the halo's length, one
    /// one-term [`planes_mac`] per `(i, κ, ω, update)` over the update's
    /// in-grid energies, the accumulators added to `out` once. At one
    /// momentum that is the k-space loop itself (`κ = kz`); above, the
    /// scaled `∇H·D` blocks go through the forward transform first and
    /// the accumulators through the inverse.
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
        let (nk, nw) = (prob.nk, prob.nw);
        let (hw, ew) = (win.halo_len(), win.own_len());
        let (src_run, acc_run) = (2 * bsz * hw, 2 * bsz * ew);
        let src = [hg_l, hg_g].map(|hg| {
            let mut planes = Vec::new();
            pack_planes(norb, hw, hg, hw, 0, &mut planes);
            planes
        });
        let w = [hd_l, hd_g].map(|hd| {
            let mut w: Vec<C64> = hd.iter().map(|z| z.scale(prob.scale_sigma)).collect();
            if nk > 1 {
                dft_blocks(nk, false, nw * bsz, &mut w);
            }
            w
        });
        let mut acc = [vec![0.0; nk * acc_run], vec![0.0; nk * acc_run]];
        for i in 0..3 {
            for k in 0..nk {
                for m in 0..nw {
                    let st = Stencil::new(win, prob.omega_steps(m));
                    let block = ((i * nk + k) * nw + m) * bsz;
                    let w = [&w[0][block..block + bsz], &w[1][block..block + bsz]];
                    let mut mac = |n: usize, side: usize, ax: usize, d: usize, cx: usize| {
                        if n > 0 {
                            let a = (ax / hw) * src_run + ax % hw;
                            let c = &mut acc[side][(cx / ew) * acc_run + cx % ew..];
                            planes_mac(norb, n, &src[side], hw, w[d], &[(a, 0)], c, ew);
                        }
                    };
                    let from = (i * nk + k) * hw;
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
        for (acc, out) in acc.iter_mut().zip([out_l, out_g]) {
            if nk > 1 {
                dft_planes(nk, true, bsz, ew, acc);
            }
            add_planes(norb, ew, acc, out);
        }
    }

    /// Stage D as a loop over points: the harmonic streams split into
    /// runs ([`split_planes`] or [`pack_split`]), and per `(qz, ω)` one
    /// [`planes_dots`] tile per `kz` at one momentum, where that is the
    /// k-space sum itself; above, every harmonic's tile `T(κ)` pairs
    /// `x̂(κ)` with `ŷ(−κ)`, and `C(qz)` is their inverse transform
    /// ([`dft_blocks`]).
    #[allow(clippy::too_many_arguments)]
    fn point_loop(
        prob: &SseProblem,
        win: &EnergyWindow,
        x_l: &[f64],
        x_g: &[f64],
        y_l: &[f64],
        y_g: &[f64],
        mut sink: impl FnMut(usize, usize, &[C64; D_BSZ], &[C64; D_BSZ]),
    ) {
        let norb = prob.norb();
        let bsz = norb * norb;
        let nk = prob.nk;
        let row = win.halo_len() * bsz;
        let [xs_l, xs_g, ys_l, ys_g] =
            [(x_l, false), (x_g, false), (y_l, true), (y_g, true)].map(|(x, transpose)| {
                let mut runs = Vec::new();
                if use_packed_kernel(BatchDims::square(norb)) {
                    pack_split(row, transpose.then_some(norb), as_c64(x), &mut runs);
                } else {
                    split_planes(norb, win.halo_len(), transpose, x, &mut runs);
                }
                runs
            });
        let runs = |s, k: usize, at: usize, n: usize| split_runs(s, nk, row, k, at, n);
        for q in 0..nk {
            for m in 0..prob.nw {
                let steps = prob.omega_steps(m);
                let e_hi = win.own.1.min(win.ne.saturating_sub(steps));
                if e_hi <= win.own.0 {
                    continue;
                }
                let n = (e_hi - win.own.0) * bsz;
                let at_y = (win.own.0 - win.halo.0) * bsz;
                let at_x = at_y + steps * bsz;
                if nk == 1 {
                    let (mut c_l, mut c_g) = (DotTile::default(), DotTile::default());
                    planes_dots(runs(&xs_l, 0, at_x, n), runs(&ys_g, 0, at_y, n), &mut c_l);
                    planes_dots(runs(&xs_g, 0, at_x, n), runs(&ys_l, 0, at_y, n), &mut c_g);
                    sink(q, m, &c_l.sum(), &c_g.sum());
                    continue;
                }
                // `T(κ)`, `[κ][≷][D_BSZ]`, and its inverse transform.
                let mut tiles = Vec::new();
                for k in 0..nk {
                    let minus = (nk - k) % nk;
                    let (mut t_l, mut t_g) = (DotTile::default(), DotTile::default());
                    planes_dots(
                        runs(&xs_l, k, at_x, n),
                        runs(&ys_g, minus, at_y, n),
                        &mut t_l,
                    );
                    planes_dots(
                        runs(&xs_g, k, at_x, n),
                        runs(&ys_l, minus, at_y, n),
                        &mut t_g,
                    );
                    tiles.extend(t_l.sum().into_iter().chain(t_g.sum()));
                }
                dft_blocks(nk, true, 2 * D_BSZ, &mut tiles);
                let (c_l, c_g) = tiles[q * 2 * D_BSZ..][..2 * D_BSZ].split_at(D_BSZ);
                sink(q, m, c_l.try_into().unwrap(), c_g.try_into().unwrap());
            }
        }
    }

    /// Zeros, `−0.0` and mixed-sign values, `re` and `im` independently.
    fn with_zeros(n: usize, seed: u64) -> Vec<C64> {
        let pick = |x: f64, i: usize| match i % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        };
        let v = noise(n, seed).into_iter().enumerate();
        v.map(|(i, z)| c64(pick(z.re, i), pick(z.im, i / 5)))
            .collect()
    }

    #[test]
    fn grad_g_planes_is_the_block_product() {
        // Stage A's stream is bitwise the block products at the momentum
        // harmonics: at one momentum `sbsmm` per direction into blocks,
        // then `pack_planes` (above the plane kernels the blocks
        // themselves); above it, on planes, `dft_blocks` on `G`, then
        // `sbsmm`, then `pack_planes`, and on blocks `sbsmm`, then
        // `dft_blocks`. Run lengths around one and three AVX-512 steps
        // leave tails on every instantiation.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut scratch = PlaneScratch {
            b: [vec![7.5; 1 << 12], Vec::new()],
            ..PlaneScratch::default()
        };
        for nk in 1..=5 {
            for norb in 1..=PLANES_MAX_DIM + 1 {
                let (dims, bsz) = (BatchDims::square(norb), norb * norb);
                let grads: [CMatrix; 3] = std::array::from_fn(|i| {
                    CMatrix::from_vec(norb, norb, noise(bsz, 40 + i as u64))
                });
                for len in [1, 7, 8, 9, 23, 24, 96] {
                    let g = with_zeros(nk * len * bsz, len as u64);
                    let mut got = vec![f64::NAN; 3 * 2 * g.len()];
                    grad_g(norb, len, &grads, &g, &mut scratch, &mut got);
                    let packed = use_packed_kernel(dims);
                    let mut g_hat = g.clone();
                    if !packed {
                        dft_blocks(nk, false, len * bsz, &mut g_hat);
                    }
                    let mut want = Vec::new();
                    for grad in &grads {
                        let mut blocks = vec![C64::ZERO; g.len()];
                        let strides = Strides {
                            a: 0,
                            b: bsz,
                            c: bsz,
                        };
                        let (a, n) = (grad.as_slice(), nk * len);
                        sbsmm(
                            dims,
                            n,
                            C64::ONE,
                            a,
                            &g_hat,
                            C64::ZERO,
                            &mut blocks,
                            strides,
                        );
                        if packed {
                            dft_blocks(nk, false, len * bsz, &mut blocks);
                            want.extend(blocks.iter().flat_map(|z| [z.re, z.im]));
                        } else {
                            let mut planes = Vec::new();
                            pack_planes(norb, len, &blocks, len, 0, &mut planes);
                            want.extend(planes);
                        }
                    }
                    assert!(
                        bits(&got) == bits(&want),
                        "Nkz {nk}, Norb {norb}, run {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn sigma_pair_planes_are_the_parent_update_loop() {
        // One fused call per `(side, κ)` over padded planes is bitwise the
        // update-at-a-time loop, on the full window and on clamped tiles:
        // at one momentum the k-space loop, above it the loop on the same
        // harmonics.
        let (ne, nw) = (24, 3);
        let bits = |v: &[C64]| -> Vec<[u64; 2]> {
            v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
        };
        // A scratch that held other values: stale numbers in the padding
        // would show.
        let mut scratch = PlaneScratch {
            a: [vec![1.5; 1 << 16], vec![-2.5; 1 << 16]],
            ..PlaneScratch::default()
        };
        for nk in 1..=4 {
            for norb in 1..=PLANES_MAX_DIM {
                let dev = DeviceStructure::build(DeviceConfig {
                    norb,
                    ..DeviceConfig::tiny()
                });
                let prob = SseProblem::new(&dev, nk, ne, nk, nw, 0.37, 1.0);
                let bsz = norb * norb;
                let hd_len = 3 * nk * nw * bsz;
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
                    let planes = |hg: &[C64]| {
                        let mut p = Vec::new();
                        pack_planes(norb, win.halo_len(), hg, win.halo_len(), 0, &mut p);
                        p
                    };
                    sigma_pair(
                        &prob,
                        &win,
                        &planes(&hg_l),
                        &planes(&hg_g),
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
                    let what = format!("Nkz {nk}, Norb {norb}, own {own:?}");
                    assert!(bits(&got_l) == bits(&want_l), "Σ<: {what}");
                    assert!(bits(&got_g) == bits(&want_g), "Σ>: {what}");
                }
            }
        }
    }

    #[test]
    fn pi_pair_tiles_are_the_point_loop() {
        // Stage D's one tile per `(κ, ω)` is bitwise the loop over points,
        // on both branches, on the full window and on clamped tiles: at
        // one momentum the k-space tiles, above it the same harmonics.
        let (ne, nw) = (13, 3);
        let bits = |v: &[C64]| -> Vec<[u64; 2]> {
            v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
        };
        let mut scratch = PlaneScratch::default();
        for nk in 1..=4 {
            for norb in [1, 3, PLANES_MAX_DIM, PLANES_MAX_DIM + 1] {
                let dev = DeviceStructure::build(DeviceConfig {
                    norb,
                    ..DeviceConfig::tiny()
                });
                let prob = SseProblem::new(&dev, nk, ne, nk, nw, 0.37, 1.0);
                let bsz = norb * norb;
                for (t, own) in [(0usize, ne), (0, 5), (9, 13)].into_iter().enumerate() {
                    let halo = (own.0.saturating_sub(nw), (own.1 + nw).min(ne));
                    let win = EnergyWindow { ne, own, halo };
                    let stream = 3 * nk * win.halo_len() * bsz;
                    let st = |seed: u64| stream_of(norb, nk, win.halo_len(), &noise(stream, seed));
                    let seed = 10 * (t as u64 + 1);
                    let [x_l, x_g, y_l, y_g] = [0, 1, 2, 3].map(|s| st(seed + s));
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    pi_pair(
                        &prob,
                        &win,
                        &x_l,
                        &x_g,
                        &y_l,
                        &y_g,
                        &mut scratch,
                        |q, m, l, g| got.push((q, m, bits(l), bits(g))),
                    );
                    point_loop(&prob, &win, &x_l, &x_g, &y_l, &y_g, |q, m, l, g| {
                        want.push((q, m, bits(l), bits(g)))
                    });
                    assert!(!got.is_empty(), "Nkz {nk}, Norb {norb}, own {own:?}");
                    assert!(got == want, "Nkz {nk}, Norb {norb}, own {own:?}");
                }
            }
        }
    }

    #[test]
    fn pair_stages_stay_near_the_k_space_oracles() {
        // Both stages against their k-space oracles, both branches, every
        // momentum count through 5 (3 and 5 have rounded twiddles). The
        // bounds are the oracle tests' own (`pair_stages_match_…`), on
        // values of magnitude ≤ 1.
        let (ne, nw) = (11, 3);
        let mut scratch = PlaneScratch::default();
        for nk in 1..=5 {
            for norb in [1, 2, 3, PLANES_MAX_DIM, PLANES_MAX_DIM + 1] {
                let dev = DeviceStructure::build(DeviceConfig {
                    norb,
                    ..DeviceConfig::tiny()
                });
                let prob = SseProblem::new(&dev, nk, ne, nk, nw, 0.37, 1.0);
                let bsz = norb * norb;
                let hd_len = 3 * nk * nw * bsz;
                let (hd_l, hd_g) = (noise(hd_len, 3), noise(hd_len, 4));
                for (t, own) in [(0usize, ne), (2, 6), (8, 11)].into_iter().enumerate() {
                    let halo = (own.0.saturating_sub(nw), (own.1 + nw).min(ne));
                    let win = EnergyWindow { ne, own, halo };
                    let stream = 3 * nk * win.halo_len() * bsz;
                    let seed = 20 * (t as u64 + 1);
                    let [hg_l, hg_g, hr_l, hr_g] = [0, 1, 2, 3].map(|s| noise(stream, seed + s));
                    let st = |s: &[C64]| stream_of(norb, nk, win.halo_len(), s);
                    let base = noise(nk * win.own_len() * bsz, seed + 4);
                    let (mut got_l, mut got_g) = (base.clone(), base.clone());
                    let (mut want_l, mut want_g) = (base.clone(), base);
                    let what = format!("Nkz {nk}, Norb {norb}, own {own:?}");
                    let (sg_l, sg_g) = (st(&hg_l), st(&hg_g));
                    sigma_pair(
                        &prob,
                        &win,
                        &sg_l,
                        &sg_g,
                        &hd_l,
                        &hd_g,
                        &mut scratch,
                        &mut got_l,
                        &mut got_g,
                    );
                    sigma_pair_scalar(
                        &prob,
                        &win,
                        &hg_l,
                        &hg_g,
                        &hd_l,
                        &hd_g,
                        &mut want_l,
                        &mut want_g,
                    );
                    let tol = 1e-13 * (3 * nk * nw * norb) as f64;
                    assert!(max_diff(&got_l, &want_l) < tol, "Σ<: {what}");
                    assert!(max_diff(&got_g, &want_g) < tol, "Σ>: {what}");
                    let (sr_l, sr_g) = (st(&hr_l), st(&hr_g));
                    let mut points = 0;
                    let tol = 1e-13 * (nk * ne * bsz) as f64;
                    pi_pair(
                        &prob,
                        &win,
                        &sr_l,
                        &sr_g,
                        &sg_l,
                        &sg_g,
                        &mut scratch,
                        |q, m, l, g| {
                            let (want_l, want_g) =
                                pi_pair_scalar(&prob, q, m, &win, &hr_l, &hr_g, &hg_l, &hg_g);
                            assert!(max_diff(l, &want_l) < tol, "Π< ({q}, {m}): {what}");
                            assert!(max_diff(g, &want_g) < tol, "Π> ({q}, {m}): {what}");
                            points += 1;
                        },
                    );
                    assert!(points > 0, "{what}");
                }
            }
        }
    }
}
