//! The untransformed SSE loop nest, one `(qz, ω)` round at a time.
//!
//! OMEN evaluates Eqs. (2)–(3) round by round: in round `(qz, ω)` every
//! electron point `(kz, E)` gathers `G^≷(kz∓qz, E∓ω)` and adds its share
//! of `Σ^≷(kz, E)` and of `Π^≷(qz, ω)`. [`omen_round`] is that round over
//! abstract block stores ([`GBlocks`]/[`DBlocks`]), so one loop nest runs
//! on full tensors — [`crate::reference::sse_reference`] is every round
//! over every point — and on the rank-local rows of `omen-comm`'s OMEN
//! plan, every round over the rank's points. Every `(kz, E)` has one
//! owner and receives the same additions in the same round order either
//! way, so the plan's `Σ^≷` is bitwise the reference's.

use crate::problem::SseProblem;
use crate::stages::d_grad;
use crate::tensors::{DTensor, GTensor, D_BSZ};
pub use omen_linalg::trace_product;
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

/// The 3×3 phonon-block combination of Eq. (2) for the directed pair
/// `pair = a → b` (reverse `rev`) over a store of `npairs` pair entries:
/// `Dc^{ij} = D^{ij}_ba − D^{ij}_bb − D^{ij}_aa + D^{ij}_ab`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn d_combination(
    d: &impl DBlocks,
    q: usize,
    w: usize,
    pair: usize,
    rev: usize,
    a: usize,
    b: usize,
    npairs: usize,
) -> [C64; D_BSZ] {
    let d_ba = d.dblock(q, w, rev);
    let d_bb = d.dblock(q, w, npairs + b);
    let d_aa = d.dblock(q, w, npairs + a);
    let d_ab = d.dblock(q, w, pair);
    let mut out = [C64::ZERO; D_BSZ];
    for x in 0..D_BSZ {
        out[x] = d_ba[x] - d_bb[x] - d_aa[x] + d_ab[x];
    }
    out
}

/// `out = a · g`, through the pack of `g` where one was made.
fn gemm_g(dims: BatchDims, a: &[C64], g: &[C64], pb: Option<&PackedB>, out: &mut [C64]) {
    match pb {
        Some(pb) => small_gemm_pb(dims, C64::ONE, a, pb, C64::ZERO, out),
        None => small_gemm(dims, C64::ONE, a, g, C64::ZERO, out),
    }
}

fn acc(dst: &mut [C64], src: &[C64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

/// Adds round `(q, m)`'s unscaled contribution of the `(k, e)` `points`
/// to `sigma` and `pi_row`, lesser then greater, and returns the flops
/// performed.
///
/// * `sigma` — `Σ^≷` rows atom-major over the point list: one run per
///   atom of `Norb²` elements per point, in `points` order (over every
///   `(kz, E)` in order, [`GTensor`]'s own layout);
/// * `pi_row` — `Π^≷(q, m)`, `(Npairs + Na) · 9` elements, entries as in
///   [`DTensor`].
///
/// For each directed pair `a → b` the `Dc·∇H` blocks are built once per
/// direction; every point then adds its emission and absorption terms to
/// `Σ_aa`, and the pair's `Π` block, summed over the points in order, is
/// added to the pair entry `Π_ab` and the diagonal entry `Π_aa`. Blocks
/// that fill a register tile ([`use_packed_kernel`]) pack each `G` block
/// once per pair and point and reuse it across the gradient directions.
/// Scratch comes from `ws`, allocation-free once warm.
#[allow(clippy::too_many_arguments)]
pub fn omen_round<G: GBlocks, D: DBlocks>(
    prob: &SseProblem,
    (q, m): (usize, usize),
    points: impl Iterator<Item = (usize, usize)> + Clone,
    [g_l, g_g]: [&G; 2],
    [d_l, d_g]: [&D; 2],
    [sigma_l, sigma_g]: [&mut [C64]; 2],
    [pi_l, pi_g]: [&mut [C64]; 2],
    ws: &mut Workspace,
) -> u64 {
    let (na, norb, npairs, ne) = (prob.na(), prob.norb(), prob.npairs(), prob.ne);
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);
    let steps = prob.omega_steps(m);
    let grads = &prob.device.gradients.grads;
    let packed = use_packed_kernel(dims);
    let npoints = points.clone().count();
    let mut t1 = ws.take_buf(bsz);
    let mut t2 = ws.take_buf(bsz);
    // `Dc^<·∇H_ba` for the three directions, then `Dc^>·∇H_ba`.
    let mut hd: [Vec<C64>; 6] = std::array::from_fn(|_| ws.take_buf(bsz));
    let mut pbs: [PackedB; 4] = std::array::from_fn(|_| ws.take_packed_b());
    let mut flops = 0u64;
    for a in 0..na {
        for (p, b) in prob.pairs_of(a) {
            let rev = prob.rev_pair[p];
            let (grad_ab, grad_ba) = (&grads[p], &grads[rev]);

            // Σ^≷_aa(k, e) += ∇H^i_ab · G^≷_bb(kz−qz, E∓ω) · (Dc·∇H_ba)^i
            let (hd_l, hd_g) = hd.split_at_mut(3);
            for (hd, d) in [hd_l, hd_g].into_iter().zip([d_l, d_g]) {
                let dc = d_combination(d, q, m, p, rev, a, b, npairs);
                for (i, dst) in hd.iter_mut().enumerate() {
                    d_grad(&dc, i, grad_ba, dst);
                }
            }
            flops += 3 * 2 * 3 * 8 * bsz as u64;
            for (x, (k, e)) in points.clone().enumerate() {
                let kk = prob.k_minus_q(k, q);
                let (emission, absorption) = (e >= steps, e + steps < ne);
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
                let o = (a * npoints + x) * bsz;
                for i in 0..3 {
                    // Emission pairs G with the same-component Dc,
                    // absorption with the opposite one.
                    let factors = [&hd[i], &hd[3 + i], &hd[3 + i], &hd[i]];
                    for (y, (block, c)) in blocks.iter().zip(factors).enumerate() {
                        let Some(block) = block else { continue };
                        let gi = grad_ab[i].as_slice();
                        gemm_g(dims, gi, block, packed.then_some(&pbs[y]), &mut t1);
                        small_gemm(dims, C64::ONE, &t1, c, C64::ZERO, &mut t2);
                        let out = if y < 2 { &mut *sigma_l } else { &mut *sigma_g };
                        acc(&mut out[o..o + bsz], &t2);
                    }
                }
                let terms = u64::from(emission) + u64::from(absorption);
                flops += 3 * terms * 4 * dims.flops();
            }

            // C^≷_{ij} = Σ_{k,E} tr{∇H^i_ba·G^≷_aa(kz+qz, E+ω) ·
            //                        ∇H^j_ab·G^≶_bb(kz, E)}
            let (mut c_l, mut c_g) = ([C64::ZERO; D_BSZ], [C64::ZERO; D_BSZ]);
            for (k, e) in points.clone().filter(|&(_, e)| e + steps < ne) {
                let kq = prob.k_plus_q(k, q);
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
                let pb = |y: usize| packed.then_some(&pbs[y]);
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
                flops += 9 * (4 * dims.flops() + 2 * 8 * bsz as u64);
            }
            for (row, c) in [&mut *pi_l, &mut *pi_g].into_iter().zip([c_l, c_g]) {
                for en in [p, npairs + a] {
                    acc(&mut row[en * D_BSZ..(en + 1) * D_BSZ], &c);
                }
            }
        }
    }
    for buf in [t1, t2].into_iter().chain(hd) {
        ws.give_buf(buf);
    }
    pbs.into_iter().for_each(|pb| ws.give_packed_b(pb));
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};

    #[test]
    fn out_of_window_round_is_noop() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 8);
        let row = prob.na() * prob.norb() * prob.norb();
        let mut sigma = [vec![C64::ZERO; row], vec![C64::ZERO; row]];
        let mut pi = [(); 2].map(|_| vec![C64::ZERO; (prob.npairs() + prob.na()) * D_BSZ]);
        // The top energy has no `E + ω` partner: Π gets nothing, Σ its
        // emission terms only.
        omen_round(
            &prob,
            (0, 0),
            std::iter::once((0, prob.ne - 1)),
            [&gl, &gg],
            [&dl, &dg],
            sigma.each_mut().map(|s| &mut s[..]),
            pi.each_mut().map(|p| &mut p[..]),
            &mut Workspace::new(),
        );
        assert!(pi.iter().flatten().all(|z| *z == C64::ZERO));
        assert!(sigma.iter().all(|s| s.iter().any(|z| z.abs() > 0.0)));
    }
}
