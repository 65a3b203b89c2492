//! The data-centric (DaCe) SSE scheme (§5.2–5.3, Fig. 5 right): the
//! communication-avoiding tiling *and* the transformed dataflow.
//!
//! The SSE map is re-tiled by atom position × energy window. Exactly
//! **four** `Alltoallv` collectives move the data, once per tensor:
//!
//! 1. `G^≷` from the GF-phase `(kz, E)` owners to atom×energy tiles
//!    (each tile receives its atoms + neighbor halo, its energies ± `Nω`
//!    halo, all momenta);
//! 2. `D^≷` from phonon owners to tiles (local pairs, reverse pairs, and
//!    the touched diagonals);
//! 3. `Σ^≷` from tiles back to `(kz, E)` owners;
//! 4. `Π^≷` partials from tiles to phonon owners (summed at destination
//!    in source-rank order).
//!
//! No `G` row is ever replicated per `(qz, ω)` round — the asymptotic
//! volume reduction of Tables 4–5.
//!
//! Between collectives 2 and 3 every tile runs the transformed schedule
//! of Fig. 6 on its own data ([`DaceTile::compute`]): the received blocks
//! sit in dense `[halo atom][kz][E]` tensors, and the stage functions of
//! [`omen_sse::stages`] — the ones `TransformedKernel` runs on the whole
//! device — run on them with the tile's [`EnergyWindow`]. The `∇H·G`
//! transient is streamed one directed pair at a time, never materialised
//! per tile, at the momentum harmonics and in the element planes stages C
//! and D read. `Σ^≷` comes out bitwise equal to the single-address-space
//! kernel's; `Π^≷` differs only by the association of its energy-tile
//! partial sums (≤ 1e-12).
//!
//! Everything that is a pure function of the problem shape and the two
//! decompositions — halo and entry lists, ownership lists, every buffer —
//! lives in a [`DacePlan`], built once and reused across Born iterations;
//! [`run_dace_plan`] is the cold one-shot wrapper.

use crate::mpi_sim::{run_world_on, Comm};
use crate::plan_common::{deposit_rows, reset_output};
use crate::topology::{DaceTiling, OmenGrid};
use crate::volume::VolumeLedger;
use omen_linalg::{BatchDims, PlaneScratch, C64};
use omen_sse::stages::{grad_d, grad_g, pi_pair, sigma_pair, EnergyWindow};
use omen_sse::{DBlocks, DTensor, GTensor, SseOutput, SseProblem, D_BSZ};

fn sorted_unique(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Sorted atoms of tile `ia` plus the neighbor halo (the `c ≤ Nb` extra
/// atoms of §6.1.2).
fn tile_atoms_with_halo(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let halo = (lo..hi).flat_map(|a| prob.pairs_of(a).map(|(_, b)| b));
    sorted_unique((lo..hi).chain(halo).collect())
}

/// Sorted `D`-tensor entries tile `ia` needs: its atoms' pairs, their
/// reverse pairs, and the diagonals of local + halo atoms.
fn tile_d_entries(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let np = prob.npairs();
    let of_pairs = (lo..hi)
        .flat_map(|a| prob.pairs_of(a))
        .flat_map(|(p, b)| [p, prob.rev_pair[p], np + b]);
    sorted_unique((np + lo..np + hi).chain(of_pairs).collect())
}

/// Sorted entries tile `ia` *produces* for `Π^≷`: its atoms' pairs (one
/// contiguous index range) and diagonals.
fn tile_pi_entries(prob: &SseProblem, tiling: &DaceTiling, ia: usize) -> Vec<usize> {
    let (lo, hi) = tiling.atom_range(ia);
    let offsets = &prob.device.neighbors.offsets;
    let np = prob.npairs();
    (offsets[lo]..offsets[hi]).chain(np + lo..np + hi).collect()
}

/// The grid sizes a plan is built for.
fn dims_of(prob: &SseProblem) -> [usize; 6] {
    [prob.nk, prob.ne, prob.nq, prob.nw, prob.norb(), prob.na()]
}

/// The pair topology a plan is built for, as one index stream.
fn topology_of<'p>(prob: &'p SseProblem) -> impl Iterator<Item = usize> + 'p {
    let nb = &prob.device.neighbors;
    let targets = nb.pairs.iter().map(|p| p.to);
    nb.offsets
        .iter()
        .copied()
        .chain(targets)
        .chain(prob.rev_pair.iter().copied())
}

/// What every rank knows about every tile and owner: pure functions of
/// the problem shape, the source grid and the tiling.
struct PlanShape {
    grid: OmenGrid,
    tiling: DaceTiling,
    /// [`dims_of`] and [`topology_of`] the problem the lists were built for.
    dims: [usize; 6],
    topology: Vec<usize>,
    /// Per atom tile: [`tile_atoms_with_halo`], [`tile_d_entries`],
    /// [`tile_pi_entries`].
    halo: Vec<Vec<usize>>,
    d_entries: Vec<Vec<usize>>,
    pi_entries: Vec<Vec<usize>>,
    /// Per rank: the `(k, e)` pairs and `(q, m)` phonon points it owns.
    owned_pairs: Vec<Vec<(usize, usize)>>,
    phonon_points: Vec<Vec<(usize, usize)>>,
}

/// One rank's tile: its dense input tensors, the per-pair stream
/// buffers, its `Σ^≷`/`Π^≷` accumulators, and the rows it owns after the
/// return exchange. Sized once by [`DacePlan::new`]; a run overwrites
/// every element it later reads.
pub struct DaceTile {
    /// Own atoms `[lo, hi)`.
    atoms: (usize, usize),
    win: EnergyWindow,
    /// Atom → position in the tile's halo list.
    halo_index: Vec<usize>,
    /// `D` entry → position in the tile's entry list.
    d_index: Vec<usize>,
    nd: usize,
    npi: usize,
    /// `G^≷`, `[halo atom][kz][E − halo.lo]`.
    g: [Vec<C64>; 2],
    /// `D^≷`, `[qz][ω][tile entry]`.
    d: [Vec<C64>; 2],
    /// Stream of the current pair `a → b`: `∇H_ab·G^≷_b` and the reverse
    /// product `∇H_ba·G^≷_a`, `[i][κ][E − halo.lo]` at the momentum
    /// harmonics, as `omen_sse::stages` lays a stream out (element planes
    /// for tiny blocks); `∇H·D`, `[i][qz][ω]`.
    hg: [Vec<f64>; 2],
    hr: [Vec<f64>; 2],
    hd: [Vec<C64>; 2],
    /// Pack scratch of stages C and D, sized by the first compute.
    scratch: PlaneScratch,
    /// Scaled `Σ^≷`, `[own atom][kz][E − own.lo]`.
    sig: [Vec<C64>; 2],
    /// Unscaled `Π^≷` partials, `[qz][ω][tile Π entry]`.
    pi: [Vec<C64>; 2],
    /// Owned `Σ^≷` blocks, `[atom][owned (k, e) point]`, and `Π^≷(q, m)`
    /// rows (`nentries · 9` each) after collectives 3 and 4.
    sigma_rows: [Vec<C64>; 2],
    pi_rows: [Vec<C64>; 2],
}

/// The tile's `D^≷` tensor as a block source for the `Dc` combination.
struct TileD<'a> {
    data: &'a [C64],
    index: &'a [usize],
    nd: usize,
    nw: usize,
}

impl DBlocks for TileD<'_> {
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        let o = ((q * self.nw + w) * self.nd + self.index[entry]) * D_BSZ;
        &self.data[o..o + D_BSZ]
    }
}

/// `index[item] = position` over a sorted list (`usize::MAX` elsewhere).
fn index_of(list: &[usize], len: usize) -> Vec<usize> {
    let mut index = vec![usize::MAX; len];
    for (x, &item) in list.iter().enumerate() {
        index[item] = x;
    }
    index
}

fn pair_of(len: usize) -> [Vec<C64>; 2] {
    [vec![C64::ZERO; len], vec![C64::ZERO; len]]
}

impl DaceTile {
    fn new(prob: &SseProblem, shape: &PlanShape, rank: usize) -> Self {
        let (ia, ie) = shape.tiling.tile_of(rank);
        let win = EnergyWindow {
            ne: prob.ne,
            own: shape.tiling.energy_range(ie),
            halo: shape.tiling.energy_range_halo(ie, prob.nw),
        };
        let atoms = shape.tiling.atom_range(ia);
        let bsz = prob.norb() * prob.norb();
        let nentries = prob.npairs() + prob.na();
        let (nd, npi) = (shape.d_entries[ia].len(), shape.pi_entries[ia].len());
        let stream = 3 * prob.nk * win.halo_len() * bsz;
        let points = prob.nq * prob.nw;
        DaceTile {
            atoms,
            win,
            halo_index: index_of(&shape.halo[ia], prob.na()),
            d_index: index_of(&shape.d_entries[ia], nentries),
            nd,
            npi,
            g: pair_of(shape.halo[ia].len() * prob.nk * win.halo_len() * bsz),
            d: pair_of(points * nd * D_BSZ),
            hg: [vec![0.0; 2 * stream], vec![0.0; 2 * stream]],
            hr: [vec![0.0; 2 * stream], vec![0.0; 2 * stream]],
            hd: pair_of(3 * points * bsz),
            scratch: PlaneScratch::default(),
            sig: pair_of((atoms.1 - atoms.0) * prob.nk * win.own_len() * bsz),
            pi: pair_of(points * npi * D_BSZ),
            sigma_rows: pair_of(shape.owned_pairs[rank].len() * prob.na() * bsz),
            pi_rows: pair_of(shape.phonon_points[rank].len() * nentries * D_BSZ),
        }
    }

    /// The transformed SSE schedule on the tile's resident `G^≷`/`D^≷`:
    /// `Σ^≷` for own atoms × own energies and the `Π^≷` partials of own
    /// pairs over own energies, one directed pair at a time (stages A and
    /// B into the stream buffers, then C and D out of them). Allocates
    /// nothing. Returns the flops performed.
    pub fn compute(&mut self, prob: &SseProblem) -> u64 {
        let norb = prob.norb();
        let bsz = norb * norb;
        let dims = BatchDims::square(norb);
        let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
        let DaceTile {
            atoms,
            win,
            halo_index,
            d_index,
            nd,
            npi,
            g: [g_l, g_g],
            d: [d_l, d_g],
            hg: [hg_l, hg_g],
            hr: [hr_l, hr_g],
            hd: [hd_l, hd_g],
            scratch,
            sig: [sig_l, sig_g],
            pi,
            ..
        } = self;
        let tile_d = |data| TileD {
            data,
            index: d_index,
            nd: *nd,
            nw,
        };
        let (td_l, td_g) = (tile_d(d_l), tile_d(d_g));
        let grads = &prob.device.gradients.grads;
        let hw = win.halo_len();
        let run = nk * hw * bsz;
        let sig_chunk = nk * win.own_len() * bsz;
        let first_pair = prob.device.neighbors.offsets[atoms.0];
        let own_pairs = prob.device.neighbors.offsets[atoms.1] - first_pair;
        for acc in [&mut *sig_l, &mut *sig_g].into_iter().chain(pi.iter_mut()) {
            acc.fill(C64::ZERO);
        }

        // Stages A and B are the same work for every pair.
        let mut flops = own_pairs as u64
            * (4 * 3 * (run / bsz) as u64 * dims.flops() + 2 * (nq * nw * 9 * 8 * bsz) as u64);
        for (x, a) in (atoms.0..atoms.1).enumerate() {
            let ga = halo_index[a] * run;
            let out_l = &mut sig_l[x * sig_chunk..(x + 1) * sig_chunk];
            let out_g = &mut sig_g[x * sig_chunk..(x + 1) * sig_chunk];
            for (p, b) in prob.pairs_of(a) {
                let rev = prob.rev_pair[p];
                let gb = halo_index[b] * run;
                grad_g(norb, hw, &grads[p], &g_l[gb..gb + run], scratch, hg_l);
                grad_g(norb, hw, &grads[p], &g_g[gb..gb + run], scratch, hg_g);
                grad_g(norb, hw, &grads[rev], &g_l[ga..ga + run], scratch, hr_l);
                grad_g(norb, hw, &grads[rev], &g_g[ga..ga + run], scratch, hr_g);
                grad_d(prob, &td_l, p, hd_l);
                grad_d(prob, &td_g, p, hd_g);
                flops += sigma_pair(prob, win, hg_l, hg_g, hd_l, hd_g, scratch, out_l, out_g);
                // The pair entry Π_ab and the diagonal entry Π_aa.
                let entries = [p - first_pair, own_pairs + x];
                let add = |q, m, c_l: &[C64; D_BSZ], c_g: &[C64; D_BSZ]| {
                    let row = (q * nw + m) * *npi;
                    for (acc, c) in pi.iter_mut().zip([c_l, c_g]) {
                        for en in entries {
                            let o = (row + en) * D_BSZ;
                            for (v, c) in acc[o..o + D_BSZ].iter_mut().zip(c) {
                                *v += *c;
                            }
                        }
                    }
                };
                flops += pi_pair(prob, win, hr_l, hr_g, hg_l, hg_g, scratch, add);
            }
        }
        flops
    }

    /// One rank's Born-iteration share: the four collectives with the
    /// tile compute between the second and the third.
    fn exchange_and_compute(
        &mut self,
        shape: &PlanShape,
        prob: &SseProblem,
        g: [&GTensor; 2],
        d: [&DTensor; 2],
        comm: &Comm,
    ) -> u64 {
        let me = comm.rank();
        let tiling = &shape.tiling;
        let bsz = prob.norb() * prob.norb();
        let (nk, nw, na) = (prob.nk, prob.nw, prob.na());
        let nentries = prob.npairs() + na;
        let win = self.win;
        // The `(k, e)` points of a list whose energy lies in `[lo, hi)`.
        let within = |(lo, hi): (usize, usize)| move |&&(_, e): &&(usize, usize)| lo <= e && e < hi;

        // ---- Alltoall #1: G^≷ to tiles ----
        let sendbufs = (0..comm.size())
            .map(|t| {
                let (ta, te) = tiling.tile_of(t);
                let atoms = &shape.halo[ta];
                let points = shape.owned_pairs[me]
                    .iter()
                    .filter(within(tiling.energy_range_halo(te, nw)));
                let mut buf = Vec::with_capacity(points.clone().count() * 2 * atoms.len() * bsz);
                for &(k, e) in points {
                    for tensor in g {
                        for &a in atoms {
                            buf.extend_from_slice(tensor.block(k, e, a));
                        }
                    }
                }
                buf
            })
            .collect();
        let nhalo = shape.halo[tiling.tile_of(me).0].len();
        for (s, buf) in comm.alltoallv(1, sendbufs).iter().enumerate() {
            let mut blocks = buf.chunks_exact(bsz);
            for &(k, e) in shape.owned_pairs[s].iter().filter(within(win.halo)) {
                for tensor in &mut self.g {
                    for x in 0..nhalo {
                        let o = ((x * nk + k) * win.halo_len() + e - win.halo.0) * bsz;
                        let block = blocks.next().expect("G payload too short");
                        tensor[o..o + bsz].copy_from_slice(block);
                    }
                }
            }
            assert!(blocks.next().is_none(), "G unpack mismatch from rank {s}");
        }

        // ---- Alltoall #2: D^≷ to tiles ----
        let sendbufs = (0..comm.size())
            .map(|t| {
                let entries = &shape.d_entries[tiling.tile_of(t).0];
                let points = &shape.phonon_points[me];
                let mut buf = Vec::with_capacity(points.len() * 2 * entries.len() * D_BSZ);
                for &(q, m) in points {
                    for tensor in d {
                        for &en in entries {
                            buf.extend_from_slice(tensor.block(q, m, en));
                        }
                    }
                }
                buf
            })
            .collect();
        let row = self.nd * D_BSZ;
        for (s, buf) in comm.alltoallv(2, sendbufs).iter().enumerate() {
            let mut rows = buf.chunks_exact(row);
            for &(q, m) in &shape.phonon_points[s] {
                for tensor in &mut self.d {
                    let o = (q * nw + m) * row;
                    let src = rows.next().expect("D payload too short");
                    tensor[o..o + row].copy_from_slice(src);
                }
            }
            assert!(rows.next().is_none(), "D unpack mismatch from rank {s}");
        }

        let flops = self.compute(prob);

        // ---- Alltoall #3: Σ^≷ back to pair owners ----
        let nown = self.atoms.1 - self.atoms.0;
        let sendbufs = (0..comm.size())
            .map(|t| {
                let points = shape.owned_pairs[t].iter().filter(within(win.own));
                let mut buf = Vec::with_capacity(points.clone().count() * 2 * nown * bsz);
                for &(k, e) in points {
                    for tensor in &self.sig {
                        for x in 0..nown {
                            let o = ((x * nk + k) * win.own_len() + e - win.own.0) * bsz;
                            buf.extend_from_slice(&tensor[o..o + bsz]);
                        }
                    }
                }
                buf
            })
            .collect();
        let npoints = shape.owned_pairs[me].len();
        for (s, buf) in comm.alltoallv(3, sendbufs).iter().enumerate() {
            let (ta, te) = tiling.tile_of(s);
            let (alo, ahi) = tiling.atom_range(ta);
            let mut blocks = buf.chunks_exact(bsz);
            let from_s = within(tiling.energy_range(te));
            for (at, _) in (shape.owned_pairs[me].iter().enumerate()).filter(|(_, p)| from_s(p)) {
                for rows in &mut self.sigma_rows {
                    for a in alo..ahi {
                        let o = (a * npoints + at) * bsz;
                        let src = blocks.next().expect("Σ payload too short");
                        rows[o..o + bsz].copy_from_slice(src);
                    }
                }
            }
            assert!(blocks.next().is_none(), "Σ unpack mismatch from rank {s}");
        }

        // ---- Alltoall #4: Π^≷ partials to phonon owners ----
        let row = self.npi * D_BSZ;
        let sendbufs = (0..comm.size())
            .map(|t| {
                let points = &shape.phonon_points[t];
                let mut buf = Vec::with_capacity(points.len() * 2 * row);
                for &(q, m) in points {
                    for tensor in &self.pi {
                        let o = (q * nw + m) * row;
                        buf.extend_from_slice(&tensor[o..o + row]);
                    }
                }
                buf
            })
            .collect();
        for rows in &mut self.pi_rows {
            rows.fill(C64::ZERO);
        }
        // Summed in source-rank order: the reduction is deterministic.
        for (s, buf) in comm.alltoallv(4, sendbufs).iter().enumerate() {
            let entries = &shape.pi_entries[tiling.tile_of(s).0];
            let mut blocks = buf.chunks_exact(D_BSZ);
            for at in 0..shape.phonon_points[me].len() {
                for rows in &mut self.pi_rows {
                    for &en in entries {
                        let o = (at * nentries + en) * D_BSZ;
                        let src = blocks.next().expect("Π payload too short");
                        for (v, c) in rows[o..o + D_BSZ].iter_mut().zip(src) {
                            *v += *c;
                        }
                    }
                }
            }
            assert!(blocks.next().is_none(), "Π unpack mismatch from rank {s}");
        }
        flops
    }
}

/// The data-centric plan for one `(problem shape, grid, tiling)`: the
/// shared ownership lists plus one warm [`DaceTile`] per rank.
pub struct DacePlan {
    shape: PlanShape,
    tiles: Vec<DaceTile>,
}

impl DacePlan {
    /// Builds the plan state. `grid` describes where the GF phase left
    /// `G^≷`/`D^≷` (pair owners); it must have the same rank count as the
    /// tiling.
    pub fn new(prob: &SseProblem, grid: &OmenGrid, tiling: &DaceTiling) -> Self {
        assert_eq!(
            grid.nranks(),
            tiling.nranks(),
            "source and tile decompositions must share the world"
        );
        let per_tile = |f: fn(&SseProblem, &DaceTiling, usize) -> Vec<usize>| {
            (0..tiling.ta).map(|ia| f(prob, tiling, ia)).collect()
        };
        let nranks = grid.nranks();
        let phonon_points = |rank| {
            (0..prob.nq)
                .flat_map(|q| (0..prob.nw).map(move |m| (q, m)))
                .filter(|&(q, m)| grid.owner_phonon(q, m, prob.nw) == rank)
                .collect()
        };
        let shape = PlanShape {
            grid: *grid,
            tiling: *tiling,
            dims: dims_of(prob),
            topology: topology_of(prob).collect(),
            halo: per_tile(tile_atoms_with_halo),
            d_entries: per_tile(tile_d_entries),
            pi_entries: per_tile(tile_pi_entries),
            owned_pairs: (0..nranks).map(|r| grid.owned_pairs(r)).collect(),
            phonon_points: (0..nranks).map(phonon_points).collect(),
        };
        let tiles = (0..nranks)
            .map(|rank| DaceTile::new(prob, &shape, rank))
            .collect();
        DacePlan { shape, tiles }
    }

    /// `true` when the plan was built for exactly this problem shape (grid
    /// sizes and pair topology) and these decompositions.
    pub fn matches(&self, prob: &SseProblem, grid: &OmenGrid, tiling: &DaceTiling) -> bool {
        let shape = &self.shape;
        (shape.grid, shape.tiling, shape.dims) == (*grid, *tiling, dims_of(prob))
            && topology_of(prob).eq(shape.topology.iter().copied())
    }

    /// Rank `rank`'s tile (to drive [`DaceTile::compute`] on the data the
    /// last run left resident).
    pub fn tile_mut(&mut self, rank: usize) -> &mut DaceTile {
        &mut self.tiles[rank]
    }

    /// Executes the plan on one simulated rank per tile, assembling the
    /// scaled self-energies (and the ranks' flops, summed in rank order)
    /// into `out`. Warm, the only allocations are the world and the
    /// payloads of the four collectives.
    pub fn run(
        &mut self,
        prob: &SseProblem,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
        out: &mut SseOutput,
    ) -> VolumeLedger {
        let _phase = omen_trace::PhaseGuard::enter("comm_dace_plan");
        let DacePlan { shape, tiles } = self;
        let ledger = VolumeLedger::new(tiles.len());
        let flops = run_world_on(tiles, ledger.clone(), |comm, tile| {
            tile.exchange_and_compute(shape, prob, [g_l, g_g], [d_l, d_g], &comm)
        });
        reset_output(prob, out);
        for (rank, tile) in tiles.iter().enumerate() {
            let sigma = (&shape.owned_pairs[rank][..], &tile.sigma_rows);
            let pi = (&shape.phonon_points[rank][..], &tile.pi_rows);
            // Stage C scaled Σ on the way; Π partials are still raw.
            deposit_rows(out, (1.0, prob.scale_pi), sigma, pi);
        }
        out.flops = flops.iter().sum();
        ledger
    }
}

/// Executes the data-centric SSE on `tiling.nranks()` simulated ranks from
/// cold state: builds a [`DacePlan`], runs it once, drops it.
pub fn run_dace_plan(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    grid: &OmenGrid,
    tiling: &DaceTiling,
) -> (SseOutput, VolumeLedger) {
    let mut out = SseOutput::empty();
    let ledger = DacePlan::new(prob, grid, tiling).run(prob, g_l, g_g, d_l, d_g, &mut out);
    (out, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omen_plan::run_omen_plan;
    use crate::volume::OpKind;
    use omen_sse::sse_reference;
    use omen_sse::testutil::{random_inputs, tiny_device};

    #[test]
    fn dace_plan_matches_reference() {
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0);
        let (gl, gg, dl, dg) = random_inputs(&prob, 55);
        let reference = sse_reference(&prob, &gl, &gg, &dl, &dg);
        let grid = OmenGrid::new(2, 3, prob.nk, prob.ne);
        let tiling = DaceTiling::new(3, 2, prob.na(), prob.ne);
        let (result, ledger) = run_dace_plan(&prob, &gl, &gg, &dl, &dg, &grid, &tiling);

        let ds = result.sigma_l.max_deviation(&reference.sigma_l)
            / reference.sigma_l.max_abs().max(1e-300);
        assert!(ds < 1e-10, "Σ< deviation {ds}");
        let dsg = result.sigma_g.max_deviation(&reference.sigma_g)
            / reference.sigma_g.max_abs().max(1e-300);
        assert!(dsg < 1e-10, "Σ> deviation {dsg}");
        let dp = result.pi_l.max_deviation(&reference.pi_l) / reference.pi_l.max_abs().max(1e-300);
        assert!(dp < 1e-10, "Π< deviation {dp}");
        let dpg = result.pi_g.max_deviation(&reference.pi_g) / reference.pi_g.max_abs().max(1e-300);
        assert!(dpg < 1e-10, "Π> deviation {dpg}");

        // Exactly four Alltoallv collectives, nothing else.
        assert_eq!(ledger.calls(OpKind::Alltoall), 4);
        assert_eq!(ledger.calls(OpKind::Bcast), 0);
        assert_eq!(ledger.calls(OpKind::Reduce), 0);
        assert_eq!(ledger.calls(OpKind::PointToPoint), 0);
    }

    #[test]
    fn dace_volume_beats_omen() {
        // With enough (q, m) rounds the OMEN replication dwarfs the
        // one-time DaCe redistribution.
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 10, 2, 3, 1.0, 1.0);
        let (gl, gg, dl, dg) = random_inputs(&prob, 21);
        let grid = OmenGrid::new(2, 3, prob.nk, prob.ne);
        let tiling = DaceTiling::new(3, 2, prob.na(), prob.ne);
        let (res_o, ledger_o) = run_omen_plan(&prob, &gl, &gg, &dl, &dg, &grid);
        let (res_d, ledger_d) = run_dace_plan(&prob, &gl, &gg, &dl, &dg, &grid, &tiling);
        // Same answer…
        let dev_sig =
            res_d.sigma_l.max_deviation(&res_o.sigma_l) / res_o.sigma_l.max_abs().max(1e-300);
        assert!(dev_sig < 1e-10);
        // …at a fraction of the traffic.
        let vo = ledger_o.total_bytes();
        let vd = ledger_d.total_bytes();
        assert!(
            vd * 2 < vo,
            "DaCe volume {vd} should be well below OMEN volume {vo}"
        );
        // And with constant invocation count (4) vs O(Nq·Nω·…).
        assert!(ledger_o.total_calls() > ledger_d.total_calls() * 5);
    }

    #[test]
    fn entry_sets_are_consistent() {
        let dev = tiny_device();
        let prob = SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0);
        let tiling = DaceTiling::new(4, 1, prob.na(), prob.ne);
        for ia in 0..4 {
            let atoms = tile_atoms_with_halo(&prob, &tiling, ia);
            let (lo, hi) = tiling.atom_range(ia);
            // Halo includes the tile itself.
            for a in lo..hi {
                assert!(atoms.contains(&a));
            }
            // Sorted and unique.
            for w in atoms.windows(2) {
                assert!(w[0] < w[1]);
            }
            // D entries cover every pair of every tile atom and its rev.
            let entries = tile_d_entries(&prob, &tiling, ia);
            for a in lo..hi {
                for (p, b) in prob.pairs_of(a) {
                    assert!(entries.contains(&p));
                    assert!(entries.contains(&prob.rev_pair[p]));
                    assert!(entries.contains(&(prob.npairs() + b)));
                }
            }
            // Π entries are a subset of D entries (pairs + own diags).
            let pi_entries = tile_pi_entries(&prob, &tiling, ia);
            for en in &pi_entries {
                assert!(entries.contains(en));
            }
        }
    }
}
