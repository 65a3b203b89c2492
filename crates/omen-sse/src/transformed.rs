//! The DaCe-transformed SSE kernel — Fig. 6 of the paper.
//!
//! Four transformations are applied to the reference dataflow:
//!
//! 1. **Map fission** (❶): the products `∇H·G^≷` and `Σ_j Dc^{ij}·∇H^j`
//!    are hoisted into transient arrays (`hg`, `hd`), lowering the
//!    multiplication count — each `∇H·G` block is reused by all
//!    `Nqz · Nω` consumers instead of being recomputed, the
//!    `2NqzNω/(NqzNω+1)` flop reduction of §6.1.1.
//! 2. **Data layout** (❷): `G^≷`/`Σ^≷` are held `AtomMajor` (energy
//!    innermost) so consecutive batch items sit at constant stride.
//! 3. **Strided-batched multiplication** (❸): the per-energy small GEMMs
//!    become one batched product per `(pair, i, kz, qz, ω)` tuple over a
//!    contiguous energy run — the packed micro-kernel with `A`-stride
//!    `Norb²`, `B`-stride `0`, `C`-stride `Norb²` for blocks that fill a
//!    register tile, the energy run itself as the SIMD axis for tinier
//!    ones (see [`crate::stages::sigma_pair`]).
//! 4. **Map fusion** (❹): the stages share transients and loop structure.
//!
//! The kernel produces values elementwise-identical (up to floating-point
//! reassociation) to [`crate::reference::sse_reference`].

use crate::problem::SseProblem;
use crate::reference::SseOutput;
use crate::stages::{d_grad, grad_g, pi_pair, sigma_pair, EnergyWindow};
use crate::tensors::{DLayout, DTensor, GLayout, GTensor, D_BSZ};
use omen_linalg::{give_tls_plane_scratch, small_gemm, take_tls_plane_scratch, BatchDims, C64};
use rayon::prelude::*;

/// Below this many complex elements in a stage's output, the per-call
/// heap cost of parallel dispatch (job buffers, scoped threads) outweighs
/// the speedup; the serial loop is both faster and allocation-free, which
/// keeps warm Born iterations on test-sized devices off the heap
/// entirely (pinned by `tests/integration_alloc.rs`).
const PAR_MIN_ELEMS: usize = 1 << 16;

/// Runs `f` over `chunk`-sized pieces of `buf` — in parallel when the
/// buffer is large enough to amortize dispatch, serially otherwise.
fn for_each_chunk<F>(buf: &mut [C64], chunk: usize, f: F)
where
    F: Fn(usize, &mut [C64]) + Sync + Send,
{
    if buf.len() >= PAR_MIN_ELEMS {
        buf.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    } else {
        buf.chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
    }
}

/// The transient arrays produced by map fission (step ❶), kept public so
/// the mixed-precision kernel can reuse stage A/B outputs.
pub struct Transients {
    /// `∇H·G^<` blocks: layout `[pair][i][kz][E][Norb²]`.
    pub hg_l: Vec<C64>,
    /// `∇H·G^>` blocks.
    pub hg_g: Vec<C64>,
    /// `Σ_j Dc^<_{ij}·∇H^j_ba` blocks: layout `[pair][i][qz][ω][Norb²]`.
    pub hd_l: Vec<C64>,
    /// Greater-component `∇H·D` blocks.
    pub hd_g: Vec<C64>,
    /// Flops spent building the transients (stages A and B).
    pub flops: u64,
    nk: usize,
    ne: usize,
    nq: usize,
    nw: usize,
    bsz: usize,
}

impl Transients {
    /// Empty transients, the reusable slot for [`build_transients_into`].
    /// Performs no allocation.
    pub fn empty() -> Self {
        Transients {
            hg_l: Vec::new(),
            hg_g: Vec::new(),
            hd_l: Vec::new(),
            hd_g: Vec::new(),
            flops: 0,
            nk: 0,
            ne: 0,
            nq: 0,
            nw: 0,
            bsz: 0,
        }
    }

    /// Offset of `hg[pair][i][k][e]`.
    #[inline]
    pub fn hg_offset(&self, pair: usize, i: usize, k: usize, e: usize) -> usize {
        (((pair * 3 + i) * self.nk + k) * self.ne + e) * self.bsz
    }

    /// Offset of `hd[pair][i][q][m]`.
    #[inline]
    pub fn hd_offset(&self, pair: usize, i: usize, q: usize, m: usize) -> usize {
        (((pair * 3 + i) * self.nq + q) * self.nw + m) * self.bsz
    }
}

impl Default for Transients {
    fn default() -> Self {
        Transients::empty()
    }
}

/// Stage A + B: builds the `∇H·G` and `∇H·D` transients.
///
/// `g_l`/`g_g` must be `AtomMajor` (the data-layout transformation);
/// `d_l`/`d_g` may be in either layout.
pub fn build_transients(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> Transients {
    let mut tr = Transients::empty();
    build_transients_into(prob, g_l, g_g, d_l, d_g, &mut tr);
    tr
}

/// [`build_transients`] into reusable storage: the four transient tensors
/// keep their buffers across calls, so a warm `Transients` makes the
/// stage-A/B rebuild allocation-free.
pub fn build_transients_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
) {
    assert_eq!(
        g_l.layout,
        GLayout::AtomMajor,
        "transformed kernel expects AtomMajor G"
    );
    assert_eq!(
        g_g.layout,
        GLayout::AtomMajor,
        "transformed kernel expects AtomMajor G"
    );
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let npairs = prob.npairs();
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    let grads = &prob.device.gradients;
    let pairs = &prob.device.neighbors.pairs;

    // ---- stage A: hg[p][i][k][e] = ∇H^i_p · G_{to(p)}(k, e) ----
    let hg_len = npairs * 3 * nk * ne * bsz;
    // No zeroing: `grad_g` overwrites every block (β = 0).
    tr.hg_l.resize(hg_len, C64::ZERO);
    tr.hg_g.resize(hg_len, C64::ZERO);
    let hg_l = &mut tr.hg_l;
    let hg_g = &mut tr.hg_g;
    let chunk = 3 * nk * ne * bsz;
    let stage_a = |hg: &mut [C64], g: &GTensor| {
        for_each_chunk(hg, chunk, |p, out| {
            // AtomMajor: atom b's blocks are one contiguous [kz][E] run.
            let g0 = g.offset(0, 0, pairs[p].to);
            grad_g(
                dims,
                &grads.grads[p],
                &g.as_slice()[g0..g0 + nk * ne * bsz],
                out,
            );
        });
    };
    stage_a(hg_l, g_l);
    stage_a(hg_g, g_g);
    let flops_a = 2 * (npairs * 3 * nk * ne) as u64 * dims.flops();

    // ---- stage B: hd[p][i][q][m] = Σ_j Dc^{ij}(q,m,p) · ∇H^j_ba ----
    let hd_len = npairs * 3 * nq * nw * bsz;
    // No zeroing: `d_grad` overwrites every block.
    tr.hd_l.resize(hd_len, C64::ZERO);
    tr.hd_g.resize(hd_len, C64::ZERO);
    let hd_l = &mut tr.hd_l;
    let hd_g = &mut tr.hd_g;
    let chunk_b = 3 * nq * nw * bsz;
    let stage_b = |hd: &mut [C64], d: &DTensor| {
        for_each_chunk(hd, chunk_b, |p, out| {
            let a = pairs[p].from;
            let b = pairs[p].to;
            let rev = prob.rev_pair[p];
            for q in 0..nq {
                for m in 0..nw {
                    let dc = crate::reference::d_combination(d, q, m, p, rev, a, b);
                    for i in 0..3 {
                        let o = ((i * nq + q) * nw + m) * bsz;
                        d_grad(&dc, i, &grads.grads[rev], &mut out[o..o + bsz]);
                    }
                }
            }
        });
    };
    stage_b(hd_l, d_l);
    stage_b(hd_g, d_g);
    let flops_b = 2 * (npairs * nq * nw * 3 * 3) as u64 * 8 * bsz as u64;

    tr.flops = flops_a + flops_b;
    tr.nk = nk;
    tr.ne = ne;
    tr.nq = nq;
    tr.nw = nw;
    tr.bsz = bsz;
}

/// Stage C + D: consumes the transients, producing `Σ^≷` (AtomMajor) and
/// `Π^≷` (PointMajor).
pub fn sse_transformed(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> SseOutput {
    let mut tr = Transients::empty();
    let mut out = SseOutput::empty();
    sse_transformed_into(prob, g_l, g_g, d_l, d_g, &mut tr, &mut out);
    out
}

/// [`sse_transformed`] with reusable transient and output storage: a warm
/// `(tr, out)` pair re-runs stages A–D without reallocating any of the
/// large intermediate tensors.
pub fn sse_transformed_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
    out: &mut SseOutput,
) {
    build_transients_into(prob, g_l, g_g, d_l, d_g, tr);
    consume_transients_into(prob, tr, out);
}

/// The Σ/Π assembly from prebuilt transients (shared with the
/// mixed-precision kernel for its stage D).
pub fn consume_transients(prob: &SseProblem, tr: &Transients) -> SseOutput {
    let mut out = SseOutput::empty();
    consume_transients_into(prob, tr, &mut out);
    out
}

/// [`consume_transients`] into reusable output storage.
pub fn consume_transients_into(prob: &SseProblem, tr: &Transients, out: &mut SseOutput) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let na = prob.na();
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    out.sigma_l.reset(nk, ne, na, norb, GLayout::AtomMajor);
    out.sigma_g.reset(nk, ne, na, norb, GLayout::AtomMajor);
    let sigma_l = &mut out.sigma_l;
    let sigma_g = &mut out.sigma_g;

    // ---- stage C: Σ^≷[a][k][e] via strided-batched GEMMs ----
    let atom_chunk = nk * ne * bsz;
    let offsets = &prob.device.neighbors.offsets;
    let win = EnergyWindow::full(ne);
    let (hg_chunk, hd_chunk) = (3 * nk * ne * bsz, 3 * nq * nw * bsz);

    let flops_c: u64 = {
        // Each atom owns a contiguous output chunk; atoms run in parallel
        // when the Σ tensors are large enough to amortize dispatch. The
        // pair scratch is a thread-local lease, warm after the first atom.
        let sl = sigma_l.as_mut_slice();
        let sg = sigma_g.as_mut_slice();
        let par = sl.len() >= PAR_MIN_ELEMS;
        let atom_body = |a: usize, out_l: &mut [C64], out_g: &mut [C64]| -> u64 {
            let mut scratch = take_tls_plane_scratch();
            let flops = (offsets[a]..offsets[a + 1])
                .map(|p| {
                    let (hg, hd) = (
                        p * hg_chunk..(p + 1) * hg_chunk,
                        p * hd_chunk..(p + 1) * hd_chunk,
                    );
                    sigma_pair(
                        prob,
                        &win,
                        &tr.hg_l[hg.clone()],
                        &tr.hg_g[hg],
                        &tr.hd_l[hd.clone()],
                        &tr.hd_g[hd],
                        &mut scratch,
                        out_l,
                        out_g,
                    )
                })
                .sum();
            give_tls_plane_scratch(scratch);
            flops
        };
        if par {
            sl.par_chunks_mut(atom_chunk)
                .zip(sg.par_chunks_mut(atom_chunk))
                .enumerate()
                .map(|(a, (out_l, out_g))| atom_body(a, out_l, out_g))
                .sum()
        } else {
            sl.chunks_mut(atom_chunk)
                .zip(sg.chunks_mut(atom_chunk))
                .enumerate()
                .map(|(a, (out_l, out_g))| atom_body(a, out_l, out_g))
                .sum()
        }
    };

    let flops_d = pi_stage(prob, tr, &mut out.pi_l, &mut out.pi_g);
    out.flops = tr.flops + flops_c + flops_d;
}

/// Stage D: `Π^≷` (PointMajor) from the transient traces, in double
/// precision — shared with the mixed-precision kernel, whose `Π` stays
/// f64. Returns the flops performed.
pub(crate) fn pi_stage(
    prob: &SseProblem,
    tr: &Transients,
    pi_l: &mut DTensor,
    pi_g: &mut DTensor,
) -> u64 {
    let (nq, nw, npairs) = (prob.nq, prob.nw, prob.npairs());
    pi_l.reset(nq, nw, npairs, prob.na(), DLayout::PointMajor);
    pi_g.reset(nq, nw, npairs, prob.na(), DLayout::PointMajor);
    let win = EnergyWindow::full(prob.ne);
    let chunk = 3 * prob.nk * prob.ne * tr.bsz;
    let hg = |p: usize| p * chunk..(p + 1) * chunk;
    let mut scratch = take_tls_plane_scratch();
    let mut flops = 0u64;
    for (p, pair) in prob.device.neighbors.pairs.iter().enumerate() {
        let rev = prob.rev_pair[p];
        let (x_l, x_g) = (&tr.hg_l[hg(rev)], &tr.hg_g[hg(rev)]);
        let (y_l, y_g) = (&tr.hg_l[hg(p)], &tr.hg_g[hg(p)]);
        let pe = pi_l.pair_entry(p);
        let de = pi_l.diag_entry(pair.from);
        let add = |q, m, c_l: &[C64; D_BSZ], c_g: &[C64; D_BSZ]| {
            for (pi, c) in [(&mut *pi_l, c_l), (&mut *pi_g, c_g)] {
                for en in [pe, de] {
                    for (v, c) in pi.block_mut(q, m, en).iter_mut().zip(c) {
                        *v += c.scale(prob.scale_pi);
                    }
                }
            }
        };
        flops += pi_pair(prob, &win, x_l, x_g, y_l, y_g, &mut scratch, add);
    }
    give_tls_plane_scratch(scratch);
    flops
}

/// Sequential single-block helper mirroring the reference arithmetic; used
/// in unit tests of the transient construction.
pub fn check_transient_block(
    prob: &SseProblem,
    g: &GTensor,
    pair: usize,
    i: usize,
    k: usize,
    e: usize,
) -> Vec<C64> {
    let norb = prob.norb();
    let dims = BatchDims::square(norb);
    let b = prob.device.neighbors.pairs[pair].to;
    let mut out = vec![C64::ZERO; norb * norb];
    small_gemm(
        dims,
        C64::ONE,
        prob.device.gradients.grads[pair][i].as_slice(),
        g.block(k, e, b),
        C64::ZERO,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn transformed_matches_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 42);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let transformed = sse_transformed(&prob, &gl_am, &gg_am, &dl, &dg);

        let scale = reference.sigma_l.max_abs().max(1e-300);
        let dev_sl = transformed.sigma_l.max_deviation(&reference.sigma_l) / scale;
        assert!(dev_sl < 1e-12, "Σ< relative deviation {dev_sl}");
        let dev_sg = transformed.sigma_g.max_deviation(&reference.sigma_g)
            / reference.sigma_g.max_abs().max(1e-300);
        assert!(dev_sg < 1e-12, "Σ> relative deviation {dev_sg}");
        let dev_pl =
            transformed.pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs().max(1e-300);
        assert!(dev_pl < 1e-12, "Π< relative deviation {dev_pl}");
        let dev_pg =
            transformed.pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs().max(1e-300);
        assert!(dev_pg < 1e-12, "Π> relative deviation {dev_pg}");
    }

    #[test]
    fn flop_reduction_matches_model() {
        // The GEMM-dominated part shrinks by ≈ 2NqNω/(NqNω+1) (§6.1.1).
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 1);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let transformed = sse_transformed(&prob, &gl_am, &gg_am, &dl, &dg);
        assert!(
            transformed.flops < reference.flops,
            "transformed must do fewer flops: {} vs {}",
            transformed.flops,
            reference.flops
        );
        // Windowing and the Π stage blur the exact ratio; require at least
        // a 25% reduction for this tiny configuration.
        let ratio = transformed.flops as f64 / reference.flops as f64;
        assert!(ratio < 0.75, "flop ratio {ratio}");
    }

    #[test]
    fn transient_blocks_match_direct_product() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, _, _) = random_inputs(&prob, 9);
        let gl_am = gl.to_layout(GLayout::AtomMajor);
        let gg_am = gg.to_layout(GLayout::AtomMajor);
        let (_, _, dl, dg) = random_inputs(&prob, 9);
        let tr = build_transients(&prob, &gl_am, &gg_am, &dl, &dg);
        let bsz = prob.norb() * prob.norb();
        for &(p, i, k, e) in &[(0usize, 0usize, 0usize, 0usize), (3, 2, 1, 4), (7, 1, 1, 2)] {
            let want = check_transient_block(&prob, &gl_am, p, i, k, e);
            let got = &tr.hg_l[tr.hg_offset(p, i, k, e)..tr.hg_offset(p, i, k, e) + bsz];
            let dev: f64 = want
                .iter()
                .zip(got)
                .map(|(w, g)| (*w - *g).abs())
                .fold(0.0, f64::max);
            assert!(dev < 1e-13, "transient ({p},{i},{k},{e}) deviates by {dev}");
        }
    }

    #[test]
    fn layout_requirement_enforced() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 2);
        // PairMajor input must panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sse_transformed(&prob, &gl, &gg, &dl, &dg)
        }));
        assert!(result.is_err(), "PairMajor input must be rejected");
    }
}
