//! Shared scaffolding of the distributed SSE plans: result assembly from
//! the ranks' owned rows, and the OMEN plan's per-round view of `G^≷`.

use crate::sse_state::LocalG;
use omen_linalg::C64;
use omen_sse::{GBlocks, GLayout, GTensor, SseOutput, SseProblem};

/// Assembled plan output (scaled; comparable to
/// [`omen_sse::reference::sse_reference`]): `Σ^≷` in `PairMajor` layout,
/// `flops` summed over the ranks in rank order.
pub type PlanResult = SseOutput;

/// One owned row pair as `((i, j), row_l, row_g)`, borrowed from a rank.
pub type RowRef<'r> = ((usize, usize), &'r [C64], &'r [C64]);

/// Shapes `out` as a zeroed plan output: `Σ^≷` `PairMajor`, no flops.
/// Allocation-free once `out` is warm.
pub fn reset_output(prob: &SseProblem, out: &mut SseOutput) {
    let (na, norb) = (prob.na(), prob.norb());
    for sigma in [&mut out.sigma_l, &mut out.sigma_g] {
        sigma.reset(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
    }
    for pi in [&mut out.pi_l, &mut out.pi_g] {
        pi.reset(prob.nq, prob.nw, prob.npairs(), na);
    }
    out.flops = 0;
}

/// Writes one rank's owned rows into the (reset) output, multiplying
/// `Σ^≷` rows by `scale_sigma` and `Π^≷` rows by `scale_pi` (the problem
/// scales, or `1.0` for rows that carry theirs already). Every `(k, e)`
/// and `(q, m)` has exactly one owner, so rows are stored, not
/// accumulated.
pub fn deposit_rows<'r>(
    out: &mut SseOutput,
    (scale_sigma, scale_pi): (f64, f64),
    sigma: impl IntoIterator<Item = RowRef<'r>>,
    pi: impl IntoIterator<Item = RowRef<'r>>,
) {
    fn store(dst: &mut [C64], o: usize, src: &[C64], scale: f64) {
        for (d, s) in dst[o..o + src.len()].iter_mut().zip(src) {
            *d = s.scale(scale);
        }
    }
    for ((k, e), row_l, row_g) in sigma {
        let o = out.sigma_l.offset(k, e, 0);
        store(out.sigma_l.as_mut_slice(), o, row_l, scale_sigma);
        store(out.sigma_g.as_mut_slice(), o, row_g, scale_sigma);
    }
    for ((q, m), row_l, row_g) in pi {
        let o = out.pi_l.offset(q, m, 0);
        store(out.pi_l.as_mut_slice(), o, row_l, scale_pi);
        store(out.pi_g.as_mut_slice(), o, row_g, scale_pi);
    }
}

/// A rank's owned rows keyed by their grid points: `rows` holds one row
/// of `len` elements per point of `points`, in that order, lesser then
/// greater.
pub fn owned_rows<'r>(
    points: &'r [(usize, usize)],
    rows: &'r [Vec<C64>; 2],
    len: usize,
) -> impl Iterator<Item = RowRef<'r>> {
    let [l, g] = rows;
    let rows = l.chunks_exact(len).zip(g.chunks_exact(len));
    points.iter().zip(rows).map(|(&at, (l, g))| (at, l, g))
}

/// A rank's view of `G^≷` in one round: the rows the GF phase left on it
/// (read in place from the phase's output) plus the rows received this
/// round. A row that is neither is not resident, and reading it panics.
pub struct CombinedG<'a, F: Fn(usize, usize) -> bool> {
    /// `true` for the `(k, e)` rows this rank owns.
    pub owns: F,
    /// The GF phase's tensor; only owned rows may be read.
    pub own: &'a GTensor,
    /// Received-this-round store.
    pub extra: &'a LocalG,
}

impl<F: Fn(usize, usize) -> bool> GBlocks for CombinedG<'_, F> {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        if (self.owns)(k, e) {
            self.own.block(k, e, a)
        } else {
            self.extra.get_block(k, e, a)
        }
    }
}
