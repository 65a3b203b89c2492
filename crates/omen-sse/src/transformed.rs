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
//!
//! One application is a set of per-atom tasks (`run_atom_tasks`) on
//! [`SseProblem::workers`] workers of `omen_sched::TaskDag`, the engine of
//! the GF sweeps: stages A–C for an atom's directed pairs into its own
//! `Σ^≷` chunk, then stage D for the same pairs into the `Π^≷` entries
//! only that atom owns. Ownership fixes the order of every addition, so
//! the output is bit-identical at every worker count; one worker runs the
//! tasks inline on the calling thread.

use crate::point_kernels::d_combination;
use crate::problem::SseProblem;
use crate::reference::SseOutput;
use crate::stages::{d_grad, grad_g, pi_pair, sigma_pair, EnergyWindow};
use crate::tensors::{DLayout, DTensor, GLayout, GTensor};
use omen_linalg::{BatchDims, PlaneScratch, C64};
use omen_sched::TaskDag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The kernel's reusable storage: the transient arrays produced by map
/// fission (step ❶), as [`build_transients_into`] leaves them, and one
/// pair-stage scratch per worker.
#[derive(Default)]
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
    /// Plane packs, accumulators and `∇H·D` packs of stages C and D, one
    /// per worker, warm after the first application.
    scratch: Vec<PlaneScratch>,
}

impl Transients {
    /// Empty storage, the reusable slot of the `_into` entry points.
    /// Performs no allocation.
    pub fn empty() -> Self {
        Transients::default()
    }

    /// Sizes the four tensors for `prob` — no zeroing: stages A and B
    /// overwrite every block — and records the flops of those stages.
    fn size_for(&mut self, prob: &SseProblem) {
        let dims = BatchDims::square(prob.norb());
        let (npairs, nk, ne, nq, nw) = (prob.npairs(), prob.nk, prob.ne, prob.nq, prob.nw);
        let (hg_chunk, hd_chunk, _) = chunk_lens(prob);
        for hg in [&mut self.hg_l, &mut self.hg_g] {
            hg.resize(npairs * hg_chunk, C64::ZERO);
        }
        for hd in [&mut self.hd_l, &mut self.hd_g] {
            hd.resize(npairs * hd_chunk, C64::ZERO);
        }
        let flops_a = 2 * (npairs * 3 * nk * ne) as u64 * dims.flops();
        let flops_b = 2 * (npairs * nq * nw * 3 * 3) as u64 * 8 * (dims.m * dims.n) as u64;
        self.flops = flops_a + flops_b;
    }
}

/// Elements of one directed pair's `hg` and `hd` streams and of one
/// atom's `Σ` block rows.
pub(crate) fn chunk_lens(prob: &SseProblem) -> (usize, usize, usize) {
    let bsz = prob.norb() * prob.norb();
    let run = prob.nk * prob.ne * bsz;
    (3 * run, 3 * prob.nq * prob.nw * bsz, run)
}

/// Atom `a`'s share of the transients: the streams of its directed pairs,
/// `[pair − first pair of a][i][…]`, lesser and greater.
pub(crate) struct AtomChunks<'a> {
    hg: [&'a mut [C64]; 2],
    pub(crate) hd: [&'a mut [C64]; 2],
}

/// `buf` cut at atom boundaries, `per_pair` elements for each of an atom's
/// directed pairs (the pair list is grouped by source atom).
fn by_atom<'a>(
    mut buf: &'a mut [C64],
    offsets: &'a [usize],
    per_pair: usize,
) -> impl Iterator<Item = &'a mut [C64]> {
    offsets.windows(2).map(move |w| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut((w[1] - w[0]) * per_pair);
        buf = tail;
        head
    })
}

/// Every atom's share of the (sized) transients, in atom order.
fn atom_chunks<'a>(
    prob: &'a SseProblem,
    hg: [&'a mut [C64]; 2],
    hd: [&'a mut [C64]; 2],
) -> impl Iterator<Item = AtomChunks<'a>> {
    let (hg_chunk, hd_chunk, _) = chunk_lens(prob);
    let offsets = &prob.device.neighbors.offsets;
    let [hg_l, hg_g] = hg.map(|hg| by_atom(hg, offsets, hg_chunk));
    let [hd_l, hd_g] = hd.map(|hd| by_atom(hd, offsets, hd_chunk));
    (hg_l.zip(hg_g))
        .zip(hd_l.zip(hd_g))
        .map(|((hg_l, hg_g), (hd_l, hd_g))| AtomChunks {
            hg: [hg_l, hg_g],
            hd: [hd_l, hd_g],
        })
}

/// Stages A and B for the directed pairs `p = a → b` of atom `a`:
/// `hg[p][i][k][e] = ∇H^i_p · G_b(k, e)` and
/// `hd[p][i][q][m] = Σ_j Dc^{ij}(q, m, p) · ∇H^j_ba`.
fn build_atom(
    prob: &SseProblem,
    g: [&GTensor; 2],
    d: [&DTensor; 2],
    a: usize,
    chunks: &mut AtomChunks,
) {
    let dims = BatchDims::square(prob.norb());
    let bsz = dims.m * dims.n;
    let (nq, nw) = (prob.nq, prob.nw);
    let (hg_chunk, hd_chunk, g_run) = chunk_lens(prob);
    let grads = &prob.device.gradients.grads;
    for g in g {
        assert_eq!(
            g.layout,
            GLayout::AtomMajor,
            "transformed kernel expects AtomMajor G"
        );
    }
    for (n, (p, b)) in prob.pairs_of(a).enumerate() {
        for (hg, g) in chunks.hg.iter_mut().zip(g) {
            // AtomMajor: atom b's blocks are one contiguous [kz][E] run.
            let g0 = g.offset(0, 0, b);
            grad_g(
                dims,
                &grads[p],
                &g.as_slice()[g0..g0 + g_run],
                &mut hg[n * hg_chunk..(n + 1) * hg_chunk],
            );
        }
        let rev = prob.rev_pair[p];
        for (hd, d) in chunks.hd.iter_mut().zip(d) {
            let out = &mut hd[n * hd_chunk..(n + 1) * hd_chunk];
            for q in 0..nq {
                for m in 0..nw {
                    let dc = d_combination(d, q, m, p, rev, a, b, prob.npairs());
                    for i in 0..3 {
                        let o = ((i * nq + q) * nw + m) * bsz;
                        d_grad(&dc, i, &grads[rev], &mut out[o..o + bsz]);
                    }
                }
            }
        }
    }
}

/// Stage A + B into reusable storage, on the calling thread: a warm
/// `Transients` makes the rebuild allocation-free.
///
/// `g_l`/`g_g` must be `AtomMajor` (the data-layout transformation);
/// `d_l`/`d_g` may be in either layout.
pub fn build_transients_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
) {
    tr.size_for(prob);
    let (hg, hd) = (
        [&mut tr.hg_l[..], &mut tr.hg_g[..]],
        [&mut tr.hd_l[..], &mut tr.hd_g[..]],
    );
    for (a, mut chunks) in atom_chunks(prob, hg, hd).enumerate() {
        build_atom(prob, [g_l, g_g], [d_l, d_g], a, &mut chunks);
    }
}

/// Evaluates `Σ^≷` (AtomMajor) and `Π^≷` (PointMajor) with the
/// transformed schedule.
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

/// [`sse_transformed`] with reusable transient, scratch and output
/// storage: a warm `(tr, out)` pair re-runs stages A–D on one worker
/// without touching the heap. An atom's task builds the transients of its
/// own pairs (stages A and B) right before stage C consumes them.
pub fn sse_transformed_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
    out: &mut SseOutput,
) {
    let (g, d) = ([g_l, g_g], [d_l, d_g]);
    run_atom_tasks(prob, tr, out, |a, chunks, out, scratch| {
        build_atom(prob, g, d, a, chunks);
        let ([hg_l, hg_g], [hd_l, hd_g]) = (&chunks.hg, &chunks.hd);
        sigma_atom(prob, [hg_l, hg_g], [hd_l, hd_g], scratch, out)
    });
}

/// Stage C for one atom: its directed pairs, in order, into its own
/// `Σ^≷` chunk, from the atom's `∇H·G` (`hg`) and `∇H·D` (`hd`) streams.
/// Returns the flops performed.
pub(crate) fn sigma_atom(
    prob: &SseProblem,
    [hg_l, hg_g]: [&[C64]; 2],
    [hd_l, hd_g]: [&[C64]; 2],
    scratch: &mut PlaneScratch,
    [out_l, out_g]: [&mut [C64]; 2],
) -> u64 {
    let (hg_chunk, hd_chunk, _) = chunk_lens(prob);
    let win = EnergyWindow::full(prob.ne);
    (hg_l.chunks(hg_chunk).zip(hg_g.chunks(hg_chunk)))
        .zip(hd_l.chunks(hd_chunk).zip(hd_g.chunks(hd_chunk)))
        .map(|((hg_l, hg_g), (hd_l, hd_g))| {
            sigma_pair(prob, &win, hg_l, hg_g, hd_l, hd_g, scratch, out_l, out_g)
        })
        .sum()
}

/// One application of a transformed-schedule kernel as tasks that follow
/// ownership, so every output element receives the same additions in the
/// same order at any worker count:
///
/// * task `a < Na` — `sigma(a, chunks, Σ^≷_aa, scratch)`: whatever the
///   kernel does with atom `a`'s transients and its own `[kz][E]` chunk of
///   `Σ^≷` (stage C, preceded by stages A and B where they are fused in);
/// * task `Na + a` — stage D for the pairs of atom `a`, once the tasks of
///   `a` and of its neighbours have finished with the `∇H·G` it reads.
///
/// With one worker (`prob.workers`, capped by the atom count) the tasks
/// run in this order on the calling thread and a warm `(tr, out)` sees no
/// heap traffic; with more they are one `omen_sched::TaskDag` run. `sigma`
/// returns the flops it performed.
pub(crate) fn run_atom_tasks(
    prob: &SseProblem,
    tr: &mut Transients,
    out: &mut SseOutput,
    sigma: impl Fn(usize, &mut AtomChunks, [&mut [C64]; 2], &mut PlaneScratch) -> u64 + Sync,
) {
    let (na, npairs) = (prob.na(), prob.npairs());
    let (nk, ne, nq, nw) = (prob.nk, prob.ne, prob.nq, prob.nw);
    let SseOutput {
        sigma_l,
        sigma_g,
        pi_l,
        pi_g,
        flops,
    } = out;
    sigma_l.reset(nk, ne, na, prob.norb(), GLayout::AtomMajor);
    sigma_g.reset(nk, ne, na, prob.norb(), GLayout::AtomMajor);
    pi_l.reset(nq, nw, npairs, na, DLayout::PointMajor);
    pi_g.reset(nq, nw, npairs, na, DLayout::PointMajor);
    let pi = Mutex::new([pi_l, pi_g]);

    let workers = prob.workers.clamp(1, na.max(1));
    tr.size_for(prob);
    let Transients {
        hg_l,
        hg_g,
        hd_l,
        hd_g,
        flops: flops_ab,
        scratch,
    } = tr;
    if scratch.len() < workers {
        scratch.resize_with(workers, PlaneScratch::default);
    }
    let (hg_chunk, _, atom_chunk) = chunk_lens(prob);
    let sigma_chunks = (sigma_l.as_mut_slice().chunks_mut(atom_chunk))
        .zip(sigma_g.as_mut_slice().chunks_mut(atom_chunk));
    let (hg, hd) = (
        [&mut hg_l[..], &mut hg_g[..]],
        [&mut hd_l[..], &mut hd_g[..]],
    );
    let atoms = atom_chunks(prob, hg, hd).zip(sigma_chunks);

    let flops_cd: u64 = if workers == 1 {
        let scratch = &mut scratch[0];
        let flops_c: u64 = atoms
            .enumerate()
            .map(|(a, (mut chunks, (out_l, out_g)))| sigma(a, &mut chunks, [out_l, out_g], scratch))
            .sum();
        let hg = |p: usize| {
            let run = p * hg_chunk..(p + 1) * hg_chunk;
            [&hg_l[run.clone()], &hg_g[run]]
        };
        let flops_d: u64 = (0..na).map(|a| pi_atom(prob, a, hg, scratch, &pi)).sum();
        flops_c + flops_d
    } else {
        let pairs = &prob.device.neighbors.pairs;
        let offsets = &prob.device.neighbors.offsets;
        let mut dag = TaskDag::new();
        for _ in 0..na {
            dag.add_task("sse_sigma", &[]);
        }
        let mut deps = Vec::new();
        for a in 0..na {
            deps.clear();
            deps.push(a);
            deps.extend(prob.pairs_of(a).map(|(_, b)| b));
            dag.add_task("sse_pi", &deps);
        }
        // A finished stage-C task publishes its atom's `∇H·G` for the
        // stage-D tasks the DAG releases after it.
        let cells: Vec<_> = atoms.map(|atom| Mutex::new(Some(atom))).collect();
        let built: Vec<OnceLock<[&[C64]; 2]>> = (0..na).map(|_| OnceLock::new()).collect();
        let hg = |p: usize| {
            let from = pairs[p].from;
            let [l, g] = *built[from]
                .get()
                .expect("stage D runs after its ∇H·G tasks");
            let run = (p - offsets[from]) * hg_chunk..(p + 1 - offsets[from]) * hg_chunk;
            [&l[run.clone()], &g[run]]
        };
        let idle = Mutex::new(scratch[..workers].iter_mut().collect::<Vec<_>>());
        let flops_cd = AtomicU64::new(0);
        dag.run(workers, |t| {
            let lease = idle.lock().expect("scratch pool").pop();
            let scratch = lease.expect("one scratch per worker");
            let flops = if t < na {
                let atom = cells[t].lock().expect("task cell").take();
                let (mut chunks, (out_l, out_g)) = atom.expect("a task runs once");
                let flops = sigma(t, &mut chunks, [out_l, out_g], scratch);
                let hg = chunks.hg.map(|hg| &*hg);
                built[t].set(hg).expect("a task runs once");
                flops
            } else {
                pi_atom(prob, t - na, hg, scratch, &pi)
            };
            flops_cd.fetch_add(flops, Ordering::Relaxed);
            idle.lock().expect("scratch pool").push(scratch);
        })
        .unwrap_or_else(|err| panic!("SSE task panicked: {err}"));
        flops_cd.into_inner()
    };
    *flops = *flops_ab + flops_cd;
}

/// Stage D for the directed pairs `p = a → b` of atom `a`, in double
/// precision: `Π^≷_ab` and their sum `Π^≷_aa` from the transient traces.
/// `hg(p)` is pair `p`'s `∇H·G^≷` stream. No other atom's task adds to
/// these entries and the pairs run in index order, so an element's terms
/// arrive in global pair order whatever the interleaving; the lock only
/// makes the tensors' shared borrow exclusive for one `(qz, ω)` point.
/// Returns the flops performed.
fn pi_atom<'h>(
    prob: &SseProblem,
    a: usize,
    hg: impl Fn(usize) -> [&'h [C64]; 2],
    scratch: &mut PlaneScratch,
    pi: &Mutex<[&mut DTensor; 2]>,
) -> u64 {
    let win = EnergyWindow::full(prob.ne);
    let mut flops = 0;
    for (p, _) in prob.pairs_of(a) {
        let [x_l, x_g] = hg(prob.rev_pair[p]);
        let [y_l, y_g] = hg(p);
        flops += pi_pair(prob, &win, x_l, x_g, y_l, y_g, scratch, |q, m, c_l, c_g| {
            let mut pi = pi.lock().expect("Π lock");
            for (pi, c) in pi.iter_mut().zip([c_l, c_g]) {
                for en in [pi.pair_entry(p), pi.diag_entry(a)] {
                    for (v, c) in pi.block_mut(q, m, en).iter_mut().zip(c) {
                        *v += c.scale(prob.scale_pi);
                    }
                }
            }
        });
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};
    use omen_linalg::small_gemm;

    /// `∇H^i_pair · G_to(pair)(k, e)` by a single direct product.
    fn direct_transient_block(
        prob: &SseProblem,
        g: &GTensor,
        pair: usize,
        i: usize,
        k: usize,
        e: usize,
    ) -> Vec<C64> {
        let norb = prob.norb();
        let b = prob.device.neighbors.pairs[pair].to;
        let mut out = vec![C64::ZERO; norb * norb];
        small_gemm(
            BatchDims::square(norb),
            C64::ONE,
            prob.device.gradients.grads[pair][i].as_slice(),
            g.block(k, e, b),
            C64::ZERO,
            &mut out,
        );
        out
    }

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
        let mut tr = Transients::empty();
        build_transients_into(&prob, &gl_am, &gg_am, &dl, &dg, &mut tr);
        let bsz = prob.norb() * prob.norb();
        for &(p, i, k, e) in &[(0usize, 0usize, 0usize, 0usize), (3, 2, 1, 4), (7, 1, 1, 2)] {
            let want = direct_transient_block(&prob, &gl_am, p, i, k, e);
            let at = (((p * 3 + i) * prob.nk + k) * prob.ne + e) * bsz;
            let got = &tr.hg_l[at..at + bsz];
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
