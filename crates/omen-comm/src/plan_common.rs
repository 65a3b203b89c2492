//! Result assembly shared by the distributed SSE plans: both write the
//! ranks' owned rows into one [`SseOutput`] (scaled, comparable to
//! [`omen_sse::reference::sse_reference`]; `Σ^≷` atom-major like every
//! kernel's, `flops` summed over the ranks in rank order).

use omen_linalg::C64;
use omen_sse::{SseOutput, SseProblem, D_BSZ};

/// Shapes `out` as a zeroed plan output: `Σ^≷` atom-major, no flops.
/// Allocation-free once `out` is warm.
pub(crate) fn reset_output(prob: &SseProblem, out: &mut SseOutput) {
    let (na, norb) = (prob.na(), prob.norb());
    for sigma in [&mut out.sigma_l, &mut out.sigma_g] {
        sigma.reset(prob.nk, prob.ne, na, norb);
    }
    for pi in [&mut out.pi_l, &mut out.pi_g] {
        pi.reset(prob.nq, prob.nw, prob.npairs(), na);
    }
    out.flops = 0;
}

/// Writes one rank's owned rows into the (reset) output, multiplying
/// `Σ^≷` by `scale_sigma` and `Π^≷` by `scale_pi` (the problem scales, or
/// `1.0` for rows that carry theirs already):
///
/// * `sigma` — the rank's `(k, e)` points and its `Σ^≷` blocks atom-major
///   over them (`[atom][point]`, the rows [`omen_sse::omen_round`]
///   writes), lesser then greater; each block lands at its `(k, e, a)`;
/// * `pi` — the rank's `(q, m)` points and one `Π^≷` row of
///   `(Npairs + Na) · 9` elements per point, in that order.
///
/// Every `(k, e)` and `(q, m)` has exactly one owner, so rows are stored,
/// not accumulated.
pub(crate) fn deposit_rows(
    out: &mut SseOutput,
    (scale_sigma, scale_pi): (f64, f64),
    (pairs, [sigma_l, sigma_g]): (&[(usize, usize)], &[Vec<C64>; 2]),
    (rounds, [pi_l, pi_g]): (&[(usize, usize)], &[Vec<C64>; 2]),
) {
    fn store(dst: &mut [C64], o: usize, src: &[C64], scale: f64) {
        for (d, s) in dst[o..o + src.len()].iter_mut().zip(src) {
            *d = s.scale(scale);
        }
    }
    let bsz = out.sigma_l.bsz();
    let blocks = sigma_l.chunks_exact(bsz).zip(sigma_g.chunks_exact(bsz));
    let at = (0..out.sigma_l.na).flat_map(|a| pairs.iter().map(move |&(k, e)| (k, e, a)));
    for ((k, e, a), (l, g)) in at.zip(blocks) {
        let o = out.sigma_l.offset(k, e, a);
        store(out.sigma_l.as_mut_slice(), o, l, scale_sigma);
        store(out.sigma_g.as_mut_slice(), o, g, scale_sigma);
    }
    let len = out.pi_l.nentries() * D_BSZ;
    let rows = pi_l.chunks_exact(len).zip(pi_g.chunks_exact(len));
    for (&(q, m), (l, g)) in rounds.iter().zip(rows) {
        let o = out.pi_l.offset(q, m, 0);
        store(out.pi_l.as_mut_slice(), o, l, scale_pi);
        store(out.pi_g.as_mut_slice(), o, g, scale_pi);
    }
}
