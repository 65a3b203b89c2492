//! Shared scaffolding of the distributed SSE plans: rank outputs, result
//! assembly, and the OMEN plan's per-round view of `G^≷`.

use crate::sse_state::LocalG;
use omen_linalg::C64;
use omen_sse::{DLayout, GBlocks, GLayout, GTensor, SseOutput, SseProblem};

/// Per-point lesser/greater row pair keyed by its grid point: one rank's
/// share of a tensor, as `((i, j), row_l, row_g)` triples.
pub type RankRows = Vec<((usize, usize), Vec<C64>, Vec<C64>)>;

/// Per-rank SSE results handed back by a plan's rank closure.
pub struct RankSse {
    /// Owned `Σ^≷(k, e)` rows (full `na · bsz`, unscaled).
    pub sigma: RankRows,
    /// Owned `Π^≷(q, m)` rows (full `nentries · 9`, unscaled).
    pub pi: RankRows,
    /// Flops the rank's stages performed.
    pub flops: u64,
}

/// Assembled plan output (scaled; comparable to
/// [`omen_sse::reference::sse_reference`]): `Σ^≷` in `PairMajor`, `Π^≷` in
/// `PointMajor` layout, `flops` summed over the ranks in rank order.
pub type PlanResult = SseOutput;

/// One owned row pair as `((i, j), row_l, row_g)`, borrowed from a rank.
pub type RowRef<'r> = ((usize, usize), &'r [C64], &'r [C64]);

/// Shapes `out` as a zeroed plan output: `Σ^≷` `PairMajor`, `Π^≷`
/// `PointMajor`, no flops. Allocation-free once `out` is warm.
pub fn reset_output(prob: &SseProblem, out: &mut SseOutput) {
    let (na, norb) = (prob.na(), prob.norb());
    for sigma in [&mut out.sigma_l, &mut out.sigma_g] {
        sigma.reset(prob.nk, prob.ne, na, norb, GLayout::PairMajor);
    }
    for pi in [&mut out.pi_l, &mut out.pi_g] {
        pi.reset(prob.nq, prob.nw, prob.npairs(), na, DLayout::PointMajor);
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

fn row_refs(rows: &RankRows) -> impl Iterator<Item = RowRef<'_>> {
    rows.iter().map(|(at, l, g)| (*at, &l[..], &g[..]))
}

/// Assembles rank outputs into full tensors, applying the problem scales.
pub fn assemble(prob: &SseProblem, rank_outputs: Vec<RankSse>) -> PlanResult {
    let mut out = SseOutput::empty();
    reset_output(prob, &mut out);
    for rank in &rank_outputs {
        let scales = (prob.scale_sigma, prob.scale_pi);
        deposit_rows(&mut out, scales, row_refs(&rank.sigma), row_refs(&rank.pi));
        out.flops += rank.flops;
    }
    out
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
