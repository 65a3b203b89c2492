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
//!    become batched products over contiguous energy runs. For blocks that
//!    fill a register tile that is the packed micro-kernel: stage A one
//!    product per `(pair, i)` over the pair's `[kz][E]` blocks (`A`-stride
//!    `0`), stage C one per `(pair, i, kz, qz, ω)` tuple (`A`-stride
//!    `Norb²`, `B`-stride `0`). Tinier blocks make the energy run itself
//!    the SIMD axis: stage A packs `G_b` into element planes once and
//!    writes `∇H·G` as the planes stages C and D read
//!    ([`crate::stages::grad_g`]), stage C sweeps them with one fused call
//!    per output run ([`crate::stages::sigma_pair`]).
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
//!
//! # A stream's live range
//!
//! Atom `a`'s `∇H·G` streams (one per directed pair `a → b`, `[i][kz][E]`,
//! element planes for tiny blocks: see [`crate::stages`]) are written by
//! stage A in its task `C(a)`, read there by stage C, and read by stage D
//! twice over: by `D(a)` as the `y` side of its pairs, and through
//! `rev_pair` as the `x` side by the stage D of every atom with a pair
//! into `a`. They are dead once those have run, and `D(a′)` can run as
//! soon as stage C has run on `a′` and on its highest-index neighbour. So the transformed kernel holds no
//! whole `∇H·G` tensor (the data-movement argument of arXiv:1912.08810:
//! size a transient to its live range). Its window holds one slot per
//! live atom with a count of the reads still due: `C(a)` takes a slot,
//! and the stage D that drops the count to zero returns it. In atom order
//! a slot lives from `C(a)` to the last `D` of a neighbour, so on a slab
//! device the window spans about two slabs of atoms — 17 of 96 atoms on
//! the `gf_heavy` benchmark device. A slot holds unpadded streams, the
//! same bytes as blocks; stage C pads a pair's planes in its own scratch.
//! Several workers share the counts, and slots return in whatever order
//! the DAG runs; ownership still fixes every addition, so `Σ^≷`/`Π^≷` do
//! not depend on the window.
//!
//! [`crate::MixedKernel`] keeps the whole-tensor build
//! ([`build_transients_into`]), because its `PerTensor` normalisation
//! reads the maximum over the whole tensor before stage C may start.

use crate::point_kernels::d_combination;
use crate::problem::SseProblem;
use crate::reference::SseOutput;
use crate::stages::{d_grad, grad_g, pi_pair, sigma_pair, EnergyWindow};
use crate::tensors::{DTensor, GLayout, GTensor};
use omen_linalg::{BatchDims, PlaneScratch, C64};
use omen_sched::TaskDag;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// The kernel's reusable storage: the transient arrays produced by map
/// fission (step ❶) — whole as [`build_transients_into`] leaves them, or
/// for `∇H·G` a window of live slots in the transformed kernel — and one
/// pair-stage scratch per worker. The `∇H·G` transients are the streams
/// stage A writes and stages C and D read: element planes for blocks up
/// to [`omen_linalg::PLANES_MAX_DIM`], blocks above (see
/// [`crate::stages`]).
#[derive(Default)]
pub struct Transients {
    /// `∇H·G^<` streams, `[pair][stream]` (a stream is `[i][kz][E]`,
    /// element planes or blocks as [`crate::stages`] lays it out). Only
    /// [`build_transients_into`] fills it; the transformed kernel keeps
    /// these streams in its window instead.
    pub hg_l: Vec<f64>,
    /// `∇H·G^>` streams.
    pub hg_g: Vec<f64>,
    /// `Σ_j Dc^<_{ij}·∇H^j_ba` blocks: layout `[pair][i][qz][ω][Norb²]`.
    pub hd_l: Vec<C64>,
    /// Greater-component `∇H·D` blocks.
    pub hd_g: Vec<C64>,
    /// Flops spent building the transients (stages A and B).
    pub flops: u64,
    /// Plane packs, accumulators and `∇H·D` packs of stages C and D, one
    /// per worker, warm after the first application.
    scratch: Vec<PlaneScratch>,
    /// The transformed kernel's `∇H·G` streams over their live range.
    window: Window,
}

impl Transients {
    /// Empty storage, the reusable slot of the `_into` entry points.
    /// Performs no allocation.
    pub fn empty() -> Self {
        Transients::default()
    }

    /// Sizes the `∇H·D` tensors for `prob` — no zeroing: stage B
    /// overwrites every block — and records the flops of stages A and B.
    fn size_for(&mut self, prob: &SseProblem) {
        let dims = BatchDims::square(prob.norb());
        let (npairs, nk, ne, nq, nw) = (prob.npairs(), prob.nk, prob.ne, prob.nq, prob.nw);
        let (_, hd_chunk, _) = chunk_lens(prob);
        for hd in [&mut self.hd_l, &mut self.hd_g] {
            hd.resize(npairs * hd_chunk, C64::ZERO);
        }
        let flops_a = 2 * (npairs * 3 * nk * ne) as u64 * dims.flops();
        let flops_b = 2 * (npairs * nq * nw * 3 * 3) as u64 * 8 * (dims.m * dims.n) as u64;
        self.flops = flops_a + flops_b;
    }

    /// Window slots this storage owns: after a one-worker application,
    /// the peak number of atoms whose `∇H·G` was live at once.
    #[cfg(test)]
    fn window_slots(&self) -> usize {
        self.window.created.load(Ordering::Relaxed)
    }
}

/// One atom's `∇H·G^<` and `∇H·G^>` streams, `[pair − first pair][…]`,
/// sized for the atom with the most pairs.
type Slot = [Vec<f64>; 2];

/// The `∇H·G` window of the transformed kernel (see the module docs) and
/// the one-worker schedule it follows. Sized on first use.
#[derive(Default)]
struct Window {
    /// Returned slots.
    free: Mutex<Vec<Slot>>,
    /// Slots ever created.
    created: AtomicUsize,
    /// Atom `a`'s slot, from its stage C until its last read.
    live: Vec<RwLock<Option<Slot>>>,
    /// Stage-D reads still due on atom `a`'s slot: 1 for `D(a)`, plus 1
    /// for every pair `p` with `rev_pair[p]` in `a`.
    readers: Vec<AtomicUsize>,
    /// The stage C `D(a)` waits for last: `a`'s highest-index neighbour,
    /// or `a`.
    ready: Vec<usize>,
    /// Atoms by `(ready, index)`: the order stage D runs in on one worker.
    order: Vec<usize>,
    /// Elements of one slot stream.
    slot_len: usize,
}

impl Window {
    /// Resets the counts and the schedule for one application of `prob`;
    /// a slot a panicked application left live goes back to the pool.
    fn prepare(&mut self, prob: &SseProblem, hg_chunk: usize) {
        let (na, nb) = (prob.na(), &prob.device.neighbors);
        let free = self.free.get_mut().expect("window pool");
        free.extend(
            self.live
                .iter_mut()
                .filter_map(|s| s.get_mut().ok()?.take()),
        );
        self.live.resize_with(na, Default::default);
        self.readers.resize_with(na, Default::default);
        for r in &mut self.readers[..na] {
            *r.get_mut() = 1;
        }
        for &rev in prob.rev_pair.iter() {
            *self.readers[nb.pairs[rev].from].get_mut() += 1;
        }
        self.ready.clear();
        self.ready
            .extend((0..na).map(|a| prob.pairs_of(a).fold(a, |m, (_, b)| m.max(b))));
        self.order.clear();
        self.order.extend(0..na);
        let ready = &self.ready;
        self.order.sort_unstable_by_key(|&a| (ready[a], a));
        let max_pairs = nb.offsets.windows(2).map(|w| w[1] - w[0]).max();
        self.slot_len = max_pairs.unwrap_or(0) * hg_chunk;
    }

    /// A slot for one atom's streams.
    fn take(&self) -> Slot {
        let slot = self.free.lock().expect("window pool").pop();
        let mut slot = slot.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            Default::default()
        });
        for s in &mut slot {
            s.resize(self.slot_len, 0.0);
        }
        slot
    }

    /// One read of atom `a`'s slot done; the last returns the slot. The
    /// slot's lock orders every read before the take; `AcqRel` makes the
    /// count's last decrement see the others.
    fn release(&self, a: usize) {
        if self.readers[a].fetch_sub(1, Ordering::AcqRel) == 1 {
            let slot = self.live[a].write().expect("window slot").take();
            let slot = slot.expect("a slot is released once");
            self.free.lock().expect("window pool").push(slot);
        }
    }
}

/// Where stage D finds the `∇H·G` streams of a pair.
#[derive(Clone, Copy)]
pub(crate) enum HgStore {
    /// [`Transients::hg_l`]/[`Transients::hg_g`], built whole beforehand
    /// (the mixed kernel): stage C writes no stream.
    Whole,
    /// The window: stage C builds an atom's streams into a slot.
    Window,
}

/// Stage D's read access to the `∇H·G` streams.
enum HgReads<'a> {
    Whole([&'a [f64]; 2]),
    Window(&'a Window),
}

impl HgReads<'_> {
    /// `f` on pair `p`'s `∇H·G^<` and `∇H·G^>` streams.
    fn with<R>(&self, prob: &SseProblem, p: usize, f: impl FnOnce([&[f64]; 2]) -> R) -> R {
        let (hg_chunk, _, _) = chunk_lens(prob);
        match self {
            HgReads::Whole([l, g]) => {
                let run = p * hg_chunk..(p + 1) * hg_chunk;
                f([&l[run.clone()], &g[run]])
            }
            HgReads::Window(w) => {
                let nb = &prob.device.neighbors;
                let a = nb.pairs[p].from;
                let slot = w.live[a].read().expect("window slot");
                let [l, g] = slot.as_ref().expect("stage D reads a live slot");
                let run = (p - nb.offsets[a]) * hg_chunk..(p + 1 - nb.offsets[a]) * hg_chunk;
                f([&l[run.clone()], &g[run]])
            }
        }
    }
}

/// Lengths of one directed pair's `hg` stream (`f64`s) and `hd` stream
/// (`C64`s), and of one atom's `Σ` block rows (`C64`s).
pub(crate) fn chunk_lens(prob: &SseProblem) -> (usize, usize, usize) {
    let bsz = prob.norb() * prob.norb();
    let run = prob.nk * prob.ne * bsz;
    (3 * 2 * run, 3 * prob.nq * prob.nw * bsz, run)
}

/// `buf` cut at atom boundaries, `per_pair` elements for each of an atom's
/// directed pairs (the pair list is grouped by source atom).
fn by_atom<'a, T>(
    mut buf: &'a mut [T],
    offsets: &'a [usize],
    per_pair: usize,
) -> impl Iterator<Item = &'a mut [T]> {
    offsets.windows(2).map(move |w| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut((w[1] - w[0]) * per_pair);
        buf = tail;
        head
    })
}

/// Stages A and B for the directed pairs `p = a → b` of atom `a`, into
/// its streams `[p − first pair of a][…]`:
/// `hg[p][i][k][e] = ∇H^i_p · G_b(k, e)` and
/// `hd[p][i][q][m] = Σ_j Dc^{ij}(q, m, p) · ∇H^j_ba`.
fn build_atom(
    prob: &SseProblem,
    g: [&GTensor; 2],
    d: [&DTensor; 2],
    a: usize,
    mut hg: [&mut [f64]; 2],
    mut hd: [&mut [C64]; 2],
    scratch: &mut PlaneScratch,
) {
    let norb = prob.norb();
    let bsz = norb * norb;
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
        for (hg, g) in hg.iter_mut().zip(g) {
            // AtomMajor: atom b's blocks are one contiguous [kz][E] run.
            let g0 = g.offset(0, 0, b);
            grad_g(
                norb,
                prob.ne,
                &grads[p],
                &g.as_slice()[g0..g0 + g_run],
                scratch,
                &mut hg[n * hg_chunk..(n + 1) * hg_chunk],
            );
        }
        let rev = prob.rev_pair[p];
        for (hd, d) in hd.iter_mut().zip(d) {
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

/// Stage A + B into whole tensors, on the calling thread: a warm
/// `Transients` makes the rebuild allocation-free.
///
/// `g_l`/`g_g` must be `AtomMajor` (the data-layout transformation), the
/// layout the GF phase writes them in.
pub fn build_transients_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    tr: &mut Transients,
) {
    tr.size_for(prob);
    let (hg_chunk, hd_chunk, _) = chunk_lens(prob);
    for hg in [&mut tr.hg_l, &mut tr.hg_g] {
        hg.resize(prob.npairs() * hg_chunk, 0.0);
    }
    if tr.scratch.is_empty() {
        tr.scratch.push(PlaneScratch::default());
    }
    let scratch = &mut tr.scratch[0];
    let offsets = &prob.device.neighbors.offsets;
    let [hg_l, hg_g] = [&mut tr.hg_l, &mut tr.hg_g].map(|t| by_atom(t, offsets, hg_chunk));
    let [hd_l, hd_g] = [&mut tr.hd_l, &mut tr.hd_g].map(|t| by_atom(t, offsets, hd_chunk));
    let atoms = (hg_l.zip(hg_g)).zip(hd_l.zip(hd_g)).enumerate();
    for (a, ((hg_l, hg_g), (hd_l, hd_g))) in atoms {
        let (hg, hd) = ([hg_l, hg_g], [hd_l, hd_g]);
        build_atom(prob, [g_l, g_g], [d_l, d_g], a, hg, hd, scratch);
    }
}

/// Evaluates `Σ^≷` (AtomMajor) and `Π^≷` (point-major) with the
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
/// own pairs (stages A and B) right before stage C consumes them, its
/// `∇H·G` streams into a window slot (see the module docs).
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
    run_atom_tasks(prob, tr, out, HgStore::Window, |a, hg, hd, out, scratch| {
        let [hg_l, hg_g] = hg;
        let [hd_l, hd_g] = hd;
        build_atom(prob, g, d, a, [hg_l, hg_g], [hd_l, hd_g], scratch);
        sigma_atom(prob, [hg_l, hg_g], [hd_l, hd_g], scratch, out)
    });
}

/// Stage C for one atom: its directed pairs, in order, into its own
/// `Σ^≷` chunk, from the atom's `∇H·G` (`hg`) and `∇H·D` (`hd`) streams.
/// Returns the flops performed.
pub(crate) fn sigma_atom(
    prob: &SseProblem,
    [hg_l, hg_g]: [&[f64]; 2],
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
/// * `C(a)` — `sigma(a, hg, hd, Σ^≷_aa, scratch)`: whatever the kernel
///   does with atom `a`'s `∇H·G` streams `hg` (a window slot under
///   [`HgStore::Window`], empty under [`HgStore::Whole`]), its `∇H·D`
///   streams `hd` and its own `[kz][E]` chunk of `Σ^≷` (stage C, preceded
///   by stages A and B where they are fused in);
/// * `D(a)` — stage D for the pairs of atom `a`, once `C(a)` and `C(b)`
///   of every neighbour `b` have run, releasing its reads of the window.
///
/// With one worker (`prob.workers`, capped by the atom count) the tasks
/// run on the calling thread in window order — `C(a)`, then every `D(a′)`
/// whose last stage C was `C(a)` — and a warm `(tr, out)` sees no heap
/// traffic; with more they are one `omen_sched::TaskDag` run whose task
/// indices follow the same order, so the DAG's lowest-index-first queue
/// keeps the window short too. `sigma` returns the flops it performed.
pub(crate) fn run_atom_tasks(
    prob: &SseProblem,
    tr: &mut Transients,
    out: &mut SseOutput,
    store: HgStore,
    sigma: impl Fn(usize, [&mut [f64]; 2], [&mut [C64]; 2], [&mut [C64]; 2], &mut PlaneScratch) -> u64
        + Sync,
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
    sigma_l.reset(nk, ne, na, prob.norb());
    sigma_g.reset(nk, ne, na, prob.norb());
    pi_l.reset(nq, nw, npairs, na);
    pi_g.reset(nq, nw, npairs, na);
    let pi = Mutex::new([pi_l, pi_g]);

    let workers = prob.workers.clamp(1, na.max(1));
    tr.size_for(prob);
    let (hg_chunk, hd_chunk, atom_chunk) = chunk_lens(prob);
    tr.window.prepare(prob, hg_chunk);
    let Transients {
        hg_l,
        hg_g,
        hd_l,
        hd_g,
        flops: flops_ab,
        scratch,
        window,
    } = tr;
    if scratch.len() < workers {
        scratch.resize_with(workers, PlaneScratch::default);
    }
    let window = &*window;
    let reads = match store {
        HgStore::Whole => HgReads::Whole([&hg_l[..], &hg_g[..]]),
        HgStore::Window => HgReads::Window(window),
    };
    let offsets = &prob.device.neighbors.offsets;
    let [hd_l, hd_g] = [hd_l, hd_g].map(|t| by_atom(t, offsets, hd_chunk));
    let sigma_chunks = (sigma_l.as_mut_slice().chunks_mut(atom_chunk))
        .zip(sigma_g.as_mut_slice().chunks_mut(atom_chunk));
    let atoms = (hd_l.zip(hd_g)).zip(sigma_chunks);
    let stage_c = |a: usize,
                   hd: [&mut [C64]; 2],
                   out: [&mut [C64]; 2],
                   scratch: &mut PlaneScratch| match store {
        HgStore::Whole => sigma(a, [&mut [], &mut []], hd, out, scratch),
        HgStore::Window => {
            let mut slot = window.take();
            let len = (offsets[a + 1] - offsets[a]) * hg_chunk;
            let [l, g] = &mut slot;
            let flops = sigma(a, [&mut l[..len], &mut g[..len]], hd, out, scratch);
            *window.live[a].write().expect("window slot") = Some(slot);
            flops
        }
    };
    let stage_d = |a: usize, scratch: &mut PlaneScratch| {
        let flops = pi_atom(prob, a, &reads, scratch, &pi);
        if let HgStore::Window = store {
            for (p, _) in prob.pairs_of(a) {
                window.release(prob.device.neighbors.pairs[prob.rev_pair[p]].from);
            }
            window.release(a);
        }
        flops
    };
    // `D(a′)` runs right after `C(ready[a′])`, in `order`.
    let (ready, order) = (&window.ready, &window.order);
    let ready_after = |a: usize, next: &mut usize| {
        let from = *next;
        while *next < na && ready[order[*next]] == a {
            *next += 1;
        }
        &order[from..*next]
    };

    let flops_cd: u64 = if workers == 1 {
        let scratch = &mut scratch[0];
        let mut next = 0;
        let mut flops = 0;
        for (a, ((hd_l, hd_g), (out_l, out_g))) in atoms.enumerate() {
            flops += stage_c(a, [hd_l, hd_g], [out_l, out_g], scratch);
            for &d in ready_after(a, &mut next) {
                flops += stage_d(d, scratch);
            }
        }
        flops
    } else {
        // Task `t` is `C(a)` for `(false, a)`, `D(a)` for `(true, a)`.
        let mut dag = TaskDag::new();
        let (mut tasks, mut c_task) = (Vec::new(), vec![0; na]);
        let (mut deps, mut next) = (Vec::new(), 0);
        for a in 0..na {
            c_task[a] = dag.add_task("sse_sigma", &[]);
            tasks.push((false, a));
            for &d in ready_after(a, &mut next) {
                deps.clear();
                deps.push(c_task[d]);
                deps.extend(prob.pairs_of(d).map(|(_, b)| c_task[b]));
                dag.add_task("sse_pi", &deps);
                tasks.push((true, d));
            }
        }
        let cells: Vec<_> = atoms.map(|atom| Mutex::new(Some(atom))).collect();
        let idle = Mutex::new(scratch[..workers].iter_mut().collect::<Vec<_>>());
        let flops_cd = AtomicU64::new(0);
        dag.run(workers, |t| {
            let lease = idle.lock().expect("scratch pool").pop();
            let scratch = lease.expect("one scratch per worker");
            let flops = match tasks[t] {
                (false, a) => {
                    let atom = cells[a].lock().expect("task cell").take();
                    let ((hd_l, hd_g), (out_l, out_g)) = atom.expect("a task runs once");
                    stage_c(a, [hd_l, hd_g], [out_l, out_g], scratch)
                }
                (true, a) => stage_d(a, scratch),
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
/// precision: `Π^≷_ab` and their sum `Π^≷_aa` from the transient traces,
/// reading pair `p`'s `∇H·G^≷` streams and those of `rev_pair[p]`. No
/// other atom's task adds to these entries and the pairs run in index
/// order, so an element's terms arrive in global pair order whatever the
/// interleaving; the lock only makes the tensors' shared borrow exclusive
/// for one `(qz, ω)` point. Returns the flops performed.
fn pi_atom(
    prob: &SseProblem,
    a: usize,
    hg: &HgReads,
    scratch: &mut PlaneScratch,
    pi: &Mutex<[&mut DTensor; 2]>,
) -> u64 {
    let win = EnergyWindow::full(prob.ne);
    let mut flops = 0;
    for (p, _) in prob.pairs_of(a) {
        flops += hg.with(prob, prob.rev_pair[p], |[x_l, x_g]| {
            hg.with(prob, p, |[y_l, y_g]| {
                pi_pair(prob, &win, x_l, x_g, y_l, y_g, scratch, |q, m, c_l, c_g| {
                    let mut pi = pi.lock().expect("Π lock");
                    for (pi, c) in pi.iter_mut().zip([c_l, c_g]) {
                        for en in [pi.pair_entry(p), pi.diag_entry(a)] {
                            for (v, c) in pi.block_mut(q, m, en).iter_mut().zip(c) {
                                *v += c.scale(prob.scale_pi);
                            }
                        }
                    }
                })
            })
        });
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sse_reference;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};
    use omen_device::{DeviceConfig, DeviceStructure};
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
        let transformed = sse_transformed(&prob, &gl, &gg, &dl, &dg);

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
        let transformed = sse_transformed(&prob, &gl, &gg, &dl, &dg);
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
        let (_, _, dl, dg) = random_inputs(&prob, 9);
        let mut tr = Transients::empty();
        build_transients_into(&prob, &gl, &gg, &dl, &dg, &mut tr);
        let norb = prob.norb();
        let bsz = norb * norb;
        for &(p, i, k, e) in &[(0usize, 0usize, 0usize, 0usize), (3, 2, 1, 4), (7, 1, 1, 2)] {
            let want = direct_transient_block(&prob, &gl, p, i, k, e);
            // Element planes `[pair][i][kz][element][re|im][E]`, elements
            // row-major.
            let at = ((p * 3 + i) * prob.nk + k) * 2 * bsz * prob.ne + e;
            let got: Vec<C64> = (0..bsz)
                .map(|x| {
                    let o = at + 2 * ((x % norb) * norb + x / norb) * prob.ne;
                    omen_linalg::c64(tr.hg_l[o], tr.hg_l[o + prob.ne])
                })
                .collect();
            let dev: f64 = want
                .iter()
                .zip(&got)
                .map(|(w, g)| (*w - *g).abs())
                .fold(0.0, f64::max);
            assert!(dev < 1e-13, "transient ({p},{i},{k},{e}) deviates by {dev}");
        }
    }

    /// A device of `nx` slabs, its problem on `workers` workers, and
    /// random inputs.
    fn slab_case(
        dev: &DeviceStructure,
        workers: usize,
    ) -> (SseProblem<'_>, GTensor, GTensor, DTensor, DTensor) {
        let mut prob = SseProblem::new(dev, 2, 5, 2, 2, 1.0, 1.0);
        prob.workers = workers;
        let (gl, gg, dl, dg) = random_inputs(&prob, 23);
        (prob, gl, gg, dl, dg)
    }

    #[test]
    fn windowed_sse_is_bitwise_at_every_worker_count_and_the_whole_build() {
        let dev = DeviceStructure::build(DeviceConfig {
            nx: 6,
            ..DeviceConfig::tiny()
        });
        let (prob, gl, gg, dl, dg) = slab_case(&dev, 1);
        let one = sse_transformed(&prob, &gl, &gg, &dl, &dg);
        for workers in [2, 4] {
            let (prob, ..) = slab_case(&dev, workers);
            let many = sse_transformed(&prob, &gl, &gg, &dl, &dg);
            assert!(same(&many, &one), "{workers} workers");
            assert_eq!(many.flops, one.flops, "{workers} workers");
        }
        // The reference holds whole ∇H·G tensors: stage C per atom through
        // `sigma_atom`, stage D reading the whole tensors.
        let mut tr = Transients::empty();
        build_transients_into(&prob, &gl, &gg, &dl, &dg, &mut tr);
        let (hg_l, hg_g) = (tr.hg_l.clone(), tr.hg_g.clone());
        let (hg_chunk, _, _) = chunk_lens(&prob);
        let offsets = &dev.neighbors.offsets;
        let mut whole = SseOutput::empty();
        run_atom_tasks(
            &prob,
            &mut tr,
            &mut whole,
            HgStore::Whole,
            |a, _, hd, out, sc| {
                let run = offsets[a] * hg_chunk..offsets[a + 1] * hg_chunk;
                let [hd_l, hd_g] = hd;
                let hg = [&hg_l[run.clone()], &hg_g[run]];
                sigma_atom(&prob, hg, [hd_l, hd_g], sc, out)
            },
        );
        assert!(same(&whole, &one), "whole-tensor reference");
    }

    /// `Σ^≷` and `Π^≷` equal element by element.
    fn same(a: &SseOutput, b: &SseOutput) -> bool {
        a.sigma_l.as_slice() == b.sigma_l.as_slice()
            && a.sigma_g.as_slice() == b.sigma_g.as_slice()
            && a.pi_l.as_slice() == b.pi_l.as_slice()
            && a.pi_g.as_slice() == b.pi_g.as_slice()
    }

    /// Atoms whose `∇H·G` is live while stage C runs on each atom of the
    /// one-worker order, from the neighbour lists alone: atom `x` is live
    /// from `C(x)` to the last stage D that reads it, and `D(y)` runs
    /// right after `C(max(y, neighbours of y))`.
    fn window_bound(dev: &DeviceStructure) -> usize {
        let nb = &dev.neighbors;
        let na = nb.offsets.len() - 1;
        let nbrs = |a: usize| {
            nb.pairs[nb.offsets[a]..nb.offsets[a + 1]]
                .iter()
                .map(|p| p.to)
        };
        let ready: Vec<usize> = (0..na).map(|a| nbrs(a).fold(a, usize::max)).collect();
        let last_read: Vec<usize> = (0..na)
            .map(|x| nbrs(x).map(|y| ready[y]).fold(ready[x], usize::max))
            .collect();
        (0..na)
            .map(|a| (0..=a).filter(|&x| last_read[x] >= a).count())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn one_worker_window_stays_within_the_neighbour_bound() {
        // The tiny device's slabs, and the `sse_heavy` and `gf_heavy`
        // benchmark devices.
        for cfg in [
            DeviceConfig {
                nx: 6,
                ..DeviceConfig::tiny()
            },
            DeviceConfig {
                nx: 8,
                ny: 4,
                norb: 3,
                ..DeviceConfig::demo()
            },
            DeviceConfig {
                nx: 12,
                ny: 8,
                norb: 4,
                ..DeviceConfig::demo()
            },
        ] {
            let dev = DeviceStructure::build(cfg);
            let prob = SseProblem::new(&dev, 1, 2, 1, 1, 1.0, 1.0);
            let (gl, gg, dl, dg) = random_inputs(&prob, 5);
            let mut tr = Transients::empty();
            let mut out = SseOutput::empty();
            sse_transformed_into(&prob, &gl, &gg, &dl, &dg, &mut tr, &mut out);
            sse_transformed_into(&prob, &gl, &gg, &dl, &dg, &mut tr, &mut out);
            let (peak, bound, na) = (tr.window_slots(), window_bound(&dev), prob.na());
            assert!(peak <= bound, "{na} atoms: peak {peak} > bound {bound}");
            assert!(2 * bound < na, "{na} atoms: the window holds {bound}");
            assert!(tr.hg_l.is_empty() && tr.hg_g.is_empty(), "no whole ∇H·G");
        }
    }

    #[test]
    fn layout_requirement_enforced() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (mut gl, gg, dl, dg) = random_inputs(&prob, 2);
        // A tensor tagged PairMajor must panic; the check reads the tag.
        gl.layout = GLayout::PairMajor;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sse_transformed(&prob, &gl, &gg, &dl, &dg)
        }));
        assert!(result.is_err(), "PairMajor input must be rejected");
    }
}
