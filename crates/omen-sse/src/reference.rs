//! The OMEN-style reference SSE kernel — Eqs. (2)–(3) evaluated in the
//! physics-natural loop order, with one pair of small GEMMs per
//! `(kz, E, qz, ω, pair, direction)` tuple and no transient reuse.
//!
//! The kernel is the `Nqz · Nω` rounds of [`omen_round`], the one
//! untransformed loop nest, each over every `(kz, E)` point; `omen-comm`'s
//! OMEN plan runs the same rounds over each rank's points, so its `Σ^≷`
//! is bitwise this kernel's at every rank count, and its `Π^≷` at one
//! rank (≤ 1e-12 otherwise, where its reduction reassociates). It reads
//! atom-major `G^≷` in place and writes atom-major `Σ^≷`, like every
//! other kernel.
//!
//! This is the baseline whose flop count the paper models as
//! `64·Na·Nb·N3D·Nkz·Nqz·NE·Nω·Norb³` (§6.1.1). The transformed kernel in
//! [`crate::transformed`] computes the *same values* with ~half the flops
//! and strided-batched structure; the test suite asserts elementwise
//! agreement between the two.

use crate::point_kernels::omen_round;
use crate::problem::SseProblem;
use crate::tensors::{DTensor, GTensor, D_BSZ};
use omen_linalg::Workspace;

/// Output of one SSE evaluation.
#[derive(Clone, Default)]
pub struct SseOutput {
    /// Electron lesser self-energy `Σ^<` (diagonal atom blocks).
    pub sigma_l: GTensor,
    /// Electron greater self-energy `Σ^>`.
    pub sigma_g: GTensor,
    /// Phonon lesser self-energy `Π^<` (pair + diagonal entries).
    pub pi_l: DTensor,
    /// Phonon greater self-energy `Π^>`.
    pub pi_g: DTensor,
    /// Real flops performed.
    pub flops: u64,
}

impl SseOutput {
    /// A zero-size output, the reusable slot for the `_into` kernel
    /// variants. Performs no allocation.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// Evaluates `Σ^≷` and `Π^≷` in the OMEN schedule.
///
/// Inputs:
/// * `g_l`, `g_g` — electron `G^≷` diagonal atom blocks;
/// * `d_l`, `d_g` — phonon `D^≷` pair/diagonal blocks.
///
/// `Σ^≷` comes out atom-major.
pub fn sse_reference(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
) -> SseOutput {
    let mut ws = Workspace::new();
    let mut out = SseOutput::empty();
    sse_reference_into(prob, g_l, g_g, d_l, d_g, &mut ws, &mut out);
    out
}

/// [`sse_reference`] into a reusable output with workspace-held scratch:
/// a warm `(ws, out)` pair makes the evaluation **allocation-free**
/// (asserted by the `integration_alloc` regression test).
pub fn sse_reference_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    ws: &mut Workspace,
    out: &mut SseOutput,
) {
    let na = prob.na();
    out.sigma_l.reset(prob.nk, prob.ne, na, prob.norb());
    out.sigma_g.reset(prob.nk, prob.ne, na, prob.norb());
    out.pi_l.reset(prob.nq, prob.nw, prob.npairs(), na);
    out.pi_g.reset(prob.nq, prob.nw, prob.npairs(), na);
    // Over every `(kz, E)` in this order, `omen_round`'s atom-major rows
    // are the tensor's own layout.
    let points = (0..prob.nk).flat_map(|k| (0..prob.ne).map(move |e| (k, e)));
    let row = (prob.npairs() + na) * D_BSZ;
    let mut flops = 0u64;
    for q in 0..prob.nq {
        for m in 0..prob.nw {
            let o = out.pi_l.offset(q, m, 0);
            flops += omen_round(
                prob,
                (q, m),
                points.clone(),
                [g_l, g_g],
                [d_l, d_g],
                [out.sigma_l.as_mut_slice(), out.sigma_g.as_mut_slice()],
                [
                    &mut out.pi_l.as_mut_slice()[o..o + row],
                    &mut out.pi_g.as_mut_slice()[o..o + row],
                ],
                ws,
            );
        }
    }
    scale_g(&mut out.sigma_l, prob.scale_sigma);
    scale_g(&mut out.sigma_g, prob.scale_sigma);
    scale_d(&mut out.pi_l, prob.scale_pi);
    scale_d(&mut out.pi_g, prob.scale_pi);
    out.flops = flops;
}

fn scale_g(t: &mut GTensor, s: f64) {
    if s != 1.0 {
        for v in t.as_mut_slice() {
            *v = v.scale(s);
        }
    }
}

fn scale_d(t: &mut DTensor, s: f64) {
    if s != 1.0 {
        for v in t.as_mut_slice() {
            *v = v.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_inputs, tiny_problem};

    #[test]
    fn output_shapes() {
        let dev = crate::testutil::tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 7);
        let out = sse_reference(&prob, &gl, &gg, &dl, &dg);
        assert_eq!(out.sigma_l.nk, prob.nk);
        assert_eq!(out.sigma_l.ne, prob.ne);
        assert_eq!(out.sigma_l.na, prob.na());
        assert_eq!(out.pi_l.npairs, prob.npairs());
        assert!(out.flops > 0);
    }

    #[test]
    fn zero_d_gives_zero_sigma() {
        let dev = crate::testutil::tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 3);
        let zero_dl = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), prob.na());
        let zero_dg = zero_dl.clone();
        let out = sse_reference(&prob, &gl, &gg, &zero_dl, &zero_dg);
        assert_eq!(out.sigma_l.max_abs(), 0.0);
        assert_eq!(out.sigma_g.max_abs(), 0.0);
        // Π does not involve D: still nonzero.
        let _ = (dl, dg);
        assert!(out.pi_l.max_abs() > 0.0);
    }

    #[test]
    fn zero_g_gives_zero_everything() {
        let dev = crate::testutil::tiny_device();
        let prob = tiny_problem(&dev);
        let (_, _, dl, dg) = random_inputs(&prob, 3);
        let zg = GTensor::zeros(prob.nk, prob.ne, prob.na(), prob.norb());
        let out = sse_reference(&prob, &zg, &zg, &dl, &dg);
        assert_eq!(out.sigma_l.max_abs(), 0.0);
        assert_eq!(out.pi_l.max_abs(), 0.0);
        assert_eq!(out.pi_g.max_abs(), 0.0);
    }

    #[test]
    fn scale_factors_are_linear() {
        let dev = crate::testutil::tiny_device();
        let prob1 = tiny_problem(&dev);
        let mut prob2 = tiny_problem(&dev);
        prob2.scale_sigma = 2.0 * prob1.scale_sigma;
        prob2.scale_pi = 3.0 * prob1.scale_pi;
        let (gl, gg, dl, dg) = random_inputs(&prob1, 11);
        let o1 = sse_reference(&prob1, &gl, &gg, &dl, &dg);
        let o2 = sse_reference(&prob2, &gl, &gg, &dl, &dg);
        // Σ scales by 2, Π by 3.
        let mut max_s = 0.0f64;
        for (x, y) in o1.sigma_l.as_slice().iter().zip(o2.sigma_l.as_slice()) {
            max_s = max_s.max((*y - x.scale(2.0)).abs());
        }
        assert!(max_s < 1e-12);
        let mut max_p = 0.0f64;
        for (x, y) in o1.pi_g.as_slice().iter().zip(o2.pi_g.as_slice()) {
            max_p = max_p.max((*y - x.scale(3.0)).abs());
        }
        assert!(max_p < 1e-12);
    }

    #[test]
    fn energy_windowing_respected() {
        // Σ at the lowest energy can only receive absorption terms; at the
        // highest only emission. Check the edge blocks are still populated
        // (coupling exists) but differ from the bulk.
        let dev = crate::testutil::tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 5);
        let out = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let lo = out.sigma_l.block(0, 0, 0);
        let hi = out.sigma_l.block(0, prob.ne - 1, 0);
        assert!(lo.iter().any(|z| z.abs() > 0.0));
        assert!(hi.iter().any(|z| z.abs() > 0.0));
    }
}
