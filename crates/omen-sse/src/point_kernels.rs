//! Per-point SSE update kernels over abstract block storage.
//!
//! The OMEN communication plan in `omen-comm` executes SSE round by round
//! with rows scattered across simulated ranks; it cannot hand full
//! [`GTensor`]s to the kernels. These helpers compute the contribution of
//! a single `(qz, ω)` round to `Σ^≷(kz, E)` and `Π^≷(qz, ω)` through the
//! [`GBlocks`]/[`DBlocks`] traits, and the test suite proves that summing
//! the rounds reproduces [`crate::reference::sse_reference`] exactly.

use crate::problem::SseProblem;
use crate::reference::{d_combination_from, trace_product};
use crate::tensors::{DTensor, GTensor, D_BSZ};
use omen_linalg::{
    small_gemm, small_gemm_pb, use_packed_kernel, BatchDims, PackedB, Workspace, C64,
};

/// Abstract access to `G^≷` atom-diagonal blocks.
pub trait GBlocks {
    /// The `Norb × Norb` block of atom `a` at point `(k, e)`.
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64];
}

impl GBlocks for GTensor {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        self.block(k, e, a)
    }
}

/// Abstract access to `D^≷` pair/diagonal blocks at one `(q, ω)` point.
pub trait DBlocks {
    /// The `3 × 3` block of `entry` at point `(q, w)`; entries follow the
    /// [`DTensor`] convention (pairs first, then atom diagonals).
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64];
}

impl DBlocks for DTensor {
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        self.block(q, w, entry)
    }
}

/// `out = a · g`, through the pack of `g` where one was made.
fn gemm_g(dims: BatchDims, a: &[C64], g: &[C64], pb: Option<&PackedB>, out: &mut [C64]) {
    match pb {
        Some(pb) => small_gemm_pb(dims, C64::ONE, a, pb, C64::ZERO, out),
        None => small_gemm(dims, C64::ONE, a, g, C64::ZERO, out),
    }
}

/// Adds the `(q, m)` round's contribution to `Σ^≷(k, e)` for every atom
/// and returns the flops performed.
///
/// `out_l`/`out_g` are the unscaled `Σ^≷` accumulators at `(k, e)`:
/// `na · Norb²` elements, atom-blocked. The arithmetic is identical to the
/// corresponding slice of [`crate::reference::sse_reference`]; scratch
/// comes from `ws` (allocation-free once warm).
#[allow(clippy::too_many_arguments)]
pub fn sigma_round_update_ws(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    d_l: &impl DBlocks,
    d_g: &impl DBlocks,
    out_l: &mut [C64],
    out_g: &mut [C64],
    ws: &mut Workspace,
) -> u64 {
    let na = prob.na();
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    assert_eq!(out_l.len(), na * bsz, "Σ< accumulator length");
    assert_eq!(out_g.len(), na * bsz, "Σ> accumulator length");
    let grads = &prob.device.gradients;
    let steps = prob.omega_steps(m);
    let kk = prob.k_minus_q(k, q);
    let emission = e >= steps;
    let absorption = e + steps < prob.ne;
    if !emission && !absorption {
        return 0;
    }
    let mut flops = 0u64;
    let mut t1 = ws.take_buf(bsz);
    let mut t2 = ws.take_buf(bsz);
    let mut c_l = ws.take_buf(bsz);
    let mut c_g = ws.take_buf(bsz);
    // When the block shape amortizes packing, each G block is packed once
    // per pair into split-complex micro-panels (workspace-pooled, warm in
    // steady state) and reused across the three gradient directions.
    let packed = use_packed_kernel(dims);
    let mut pbs: [PackedB; 4] = std::array::from_fn(|_| ws.take_packed_b());

    for a in 0..na {
        for (pair, b) in prob.pairs_of(a) {
            let rev = prob.rev_pair[pair];
            let dc_l = d_combination_from(d_l, q, m, pair, rev, a, b, prob.npairs());
            let dc_g = d_combination_from(d_g, q, m, pair, rev, a, b, prob.npairs());
            let grad_ab = &grads.grads[pair];
            let grad_ba = &grads.grads[rev];
            // The terms of Σ^< then Σ^>, emission G(kz−qz, E−ω) before
            // absorption G(kz−qz, E+ω).
            let blocks = [
                emission.then(|| g_l.gblock(kk, e - steps, b)),
                absorption.then(|| g_l.gblock(kk, e + steps, b)),
                emission.then(|| g_g.gblock(kk, e - steps, b)),
                absorption.then(|| g_g.gblock(kk, e + steps, b)),
            ];
            if packed {
                for (pb, block) in pbs.iter_mut().zip(blocks) {
                    if let Some(block) = block {
                        pb.pack(norb, norb, block);
                    }
                }
            }
            for i in 0..3 {
                c_l.fill(C64::ZERO);
                c_g.fill(C64::ZERO);
                for j in 0..3 {
                    let wl = dc_l[j * 3 + i];
                    let wg = dc_g[j * 3 + i];
                    let gj = grad_ba[j].as_slice();
                    for x in 0..bsz {
                        c_l[x] = c_l[x].mul_add(gj[x], wl);
                        c_g[x] = c_g[x].mul_add(gj[x], wg);
                    }
                }
                let terms = u64::from(emission) + u64::from(absorption);
                flops += 2 * 3 * 8 * bsz as u64 + terms * 4 * dims.flops();
                let gi = grad_ab[i].as_slice();
                // Emission pairs G with the same-component Dc, absorption
                // with the opposite one.
                let factors = [&c_l, &c_g, &c_g, &c_l];
                for (x, (block, c)) in blocks.iter().zip(factors).enumerate() {
                    let Some(block) = block else { continue };
                    gemm_g(dims, gi, block, packed.then_some(&pbs[x]), &mut t1);
                    small_gemm(dims, C64::ONE, &t1, c, C64::ZERO, &mut t2);
                    let out = if x < 2 { &mut *out_l } else { &mut *out_g };
                    for (o, v) in out[a * bsz..(a + 1) * bsz].iter_mut().zip(&t2) {
                        *o += *v;
                    }
                }
            }
        }
    }
    for buf in [t1, t2, c_l, c_g] {
        ws.give_buf(buf);
    }
    pbs.into_iter().for_each(|pb| ws.give_packed_b(pb));
    flops
}

/// The `(q, m)` round's `Π^≷` contribution from summation point `(k, e)`,
/// restricted to the directed pairs in `pair_subset` (pass all pairs for a
/// full evaluation). Fills `out` with `(pair, C^<_{3×3}, C^>_{3×3})`
/// tuples; each contributes to both the pair entry `Π_ab` and the diagonal
/// entry `Π_aa` of the pair's source atom. Allocation-free once `ws` and
/// `out` are warm; returns the flops performed.
#[allow(clippy::too_many_arguments)]
pub fn pi_round_update_into(
    prob: &SseProblem,
    q: usize,
    m: usize,
    k: usize,
    e: usize,
    g_l: &impl GBlocks,
    g_g: &impl GBlocks,
    pair_subset: &[usize],
    ws: &mut Workspace,
    out: &mut Vec<(usize, [C64; D_BSZ], [C64; D_BSZ])>,
) -> u64 {
    out.clear();
    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let steps = prob.omega_steps(m);
    if e + steps >= prob.ne {
        return 0;
    }
    let kq = prob.k_plus_q(k, q);
    let grads = &prob.device.gradients;
    let pairs = &prob.device.neighbors.pairs;
    let mut t1 = ws.take_buf(bsz);
    let mut t2 = ws.take_buf(bsz);
    // Pack the four G blocks of each pair once and sweep them across the
    // 3×3 gradient-direction loop (see `sigma_round_update_ws`).
    let packed = use_packed_kernel(dims);
    let mut pbs: [PackedB; 4] = std::array::from_fn(|_| ws.take_packed_b());
    out.reserve(pair_subset.len());
    for &p in pair_subset {
        let a = pairs[p].from;
        let b = pairs[p].to;
        let grad_ab = &grads.grads[p];
        let grad_ba = &grads.grads[prob.rev_pair[p]];
        // Π^<: G^<_aa(E+ω)·G^>_bb(E); Π^>: G^>_aa(E+ω)·G^<_bb(E).
        let blocks = [
            g_l.gblock(kq, e + steps, a),
            g_g.gblock(k, e, b),
            g_g.gblock(kq, e + steps, a),
            g_l.gblock(k, e, b),
        ];
        if packed {
            for (pb, block) in pbs.iter_mut().zip(blocks) {
                pb.pack(norb, norb, block);
            }
        }
        let pb = |x: usize| packed.then_some(&pbs[x]);
        let mut c_l = [C64::ZERO; D_BSZ];
        let mut c_g = [C64::ZERO; D_BSZ];
        for i in 0..3 {
            for j in 0..3 {
                gemm_g(dims, grad_ba[i].as_slice(), blocks[0], pb(0), &mut t1);
                gemm_g(dims, grad_ab[j].as_slice(), blocks[1], pb(1), &mut t2);
                c_l[j * 3 + i] += trace_product(&t1, &t2, norb);
                gemm_g(dims, grad_ba[i].as_slice(), blocks[2], pb(2), &mut t1);
                gemm_g(dims, grad_ab[j].as_slice(), blocks[3], pb(3), &mut t2);
                c_g[j * 3 + i] += trace_product(&t1, &t2, norb);
            }
        }
        out.push((p, c_l, c_g));
    }
    ws.give_buf(t1);
    ws.give_buf(t2);
    pbs.into_iter().for_each(|pb| ws.give_packed_b(pb));
    pair_subset.len() as u64 * 9 * (4 * dims.flops() + 2 * 8 * bsz as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::tensors::{DLayout, GLayout};
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn summed_rounds_match_reference() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 31);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);

        let norb = prob.norb();
        let bsz = norb * norb;
        let na = prob.na();
        let mut sigma_l = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
        let mut sigma_g = GTensor::zeros(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
        let mut pi_l = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
        let mut pi_g = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
        let all_pairs: Vec<usize> = (0..prob.npairs()).collect();
        let mut ws = Workspace::new();
        let mut updates = Vec::new();
        let mut flops = 0u64;

        for q in 0..prob.nq {
            for m in 0..prob.nw {
                for k in 0..prob.nk {
                    for e in 0..prob.ne {
                        let mut acc_l = vec![C64::ZERO; na * bsz];
                        let mut acc_g = vec![C64::ZERO; na * bsz];
                        flops += sigma_round_update_ws(
                            &prob, q, m, k, e, &gl, &gg, &dl, &dg, &mut acc_l, &mut acc_g, &mut ws,
                        );
                        for a in 0..na {
                            for (x, v) in sigma_l.block_mut(k, e, a).iter_mut().enumerate() {
                                *v += acc_l[a * bsz + x];
                            }
                            for (x, v) in sigma_g.block_mut(k, e, a).iter_mut().enumerate() {
                                *v += acc_g[a * bsz + x];
                            }
                        }
                        flops += pi_round_update_into(
                            &prob,
                            q,
                            m,
                            k,
                            e,
                            &gl,
                            &gg,
                            &all_pairs,
                            &mut ws,
                            &mut updates,
                        );
                        for &(p, c_l, c_g) in &updates {
                            let a = dev.neighbors.pairs[p].from;
                            let pe = pi_l.pair_entry(p);
                            let de = pi_l.diag_entry(a);
                            for x in 0..D_BSZ {
                                pi_l.block_mut(q, m, pe)[x] += c_l[x];
                                pi_l.block_mut(q, m, de)[x] += c_l[x];
                                pi_g.block_mut(q, m, pe)[x] += c_g[x];
                                pi_g.block_mut(q, m, de)[x] += c_g[x];
                            }
                        }
                    }
                }
            }
        }
        // (scale factors are 1.0 in tiny_problem)
        let ds = sigma_l.max_deviation(&reference.sigma_l) / reference.sigma_l.max_abs();
        assert!(ds < 1e-12, "Σ< deviation {ds}");
        let dg_ = sigma_g.max_deviation(&reference.sigma_g) / reference.sigma_g.max_abs();
        assert!(dg_ < 1e-12, "Σ> deviation {dg_}");
        let dp = pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs();
        assert!(dp < 1e-12, "Π< deviation {dp}");
        let dpg = pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs();
        assert!(dpg < 1e-12, "Π> deviation {dpg}");
        // The rounds do the reference's GEMMs and traces, but rebuild the
        // `Dc·∇H` blocks at every `(k, e)` instead of once per `(q, m)`.
        let rebuilt = (3 * prob.npairs() * prob.nq * prob.nw * (prob.nk * prob.ne - 1)) as u64;
        assert_eq!(flops, reference.flops + rebuilt * 2 * 3 * 8 * bsz as u64);
    }

    #[test]
    fn out_of_window_round_is_noop() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 8);
        let na = prob.na();
        let bsz = prob.norb() * prob.norb();
        // e = 0 with only absorption possible; m such that steps >= ne is
        // impossible here, so test the Π window instead: e + steps >= ne.
        let e = prob.ne - 1;
        let mut ws = Workspace::new();
        let mut updates = vec![(0, [C64::ZERO; D_BSZ], [C64::ZERO; D_BSZ])];
        pi_round_update_into(&prob, 0, 0, 0, e, &gl, &gg, &[0, 1], &mut ws, &mut updates);
        assert!(updates.is_empty());
        // Σ at e=ne−1 has emission only; accumulator changes.
        let mut acc_l = vec![C64::ZERO; na * bsz];
        let mut acc_g = vec![C64::ZERO; na * bsz];
        sigma_round_update_ws(
            &prob, 0, 0, 0, e, &gl, &gg, &dl, &dg, &mut acc_l, &mut acc_g, &mut ws,
        );
        assert!(acc_l.iter().any(|z| z.abs() > 0.0));
    }
}
