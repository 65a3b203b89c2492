//! The GF solvers: assembly ("specialization"), boundary conditions, and
//! RGF for electron `(kz, E)` and phonon `(qz, ω)` points, with the three
//! caching modes of §7.1.2 — one body ([`PointSolver`]) generic over the
//! [`Carrier`] that supplies the operator and occupations, and one solve
//! path: a chunk of a momentum's energies on the lanes of one
//! [`rgf_row_into`] recursion, of which a single point is the one-lane
//! case.
//!
//! For each energy-momentum point the GF phase performs:
//! (a) **specialization** — assembling `H(kz)`, `S(kz)` (or `Φ(qz)`) from
//!     the material data;
//! (b) **boundary conditions** — lead surface-GF computation;
//! (c) **RGF** — the recursive solve.
//!
//! (a) depends on the momentum only and (b) on the point only — neither
//! depends on the self-consistent iteration, so both can be cached at a
//! steep memory cost (the paper: 3 GB + 1 GB per point for the "Large"
//! device). [`CacheMode`] selects the compute-memory tradeoff.

use crate::bccache::BoundaryCache;
use crate::boundary::{
    bose, boundary_self_energies_lanes, contact_sigma_lg_into, fermi, BoundaryMethod,
    BoundarySelfEnergies,
};
use crate::rgf::RgfSolution;
use crate::rows::{rgf_row_into, row_width, RgfRow, RowInputs};
use omen_device::DeviceStructure;
use omen_linalg::{c64, BlockTriDiag, CMatrix, Workspace, WorkspaceLease, WorkspacePool, C64};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compute/memory tradeoff of the GF phase (§7.1.2, Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Recompute specialization and boundary conditions every iteration.
    NoCache,
    /// Cache boundary conditions; re-specialize every iteration.
    CacheBc,
    /// Cache both specialization and boundary conditions.
    CacheBcSpec,
}

/// Wall-clock spent in each GF sub-phase (for the caching benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Time in operator assembly (specialization).
    pub specialization: Duration,
    /// Time in boundary-condition computation.
    pub boundary: Duration,
    /// Time in the RGF solver itself.
    pub rgf: Duration,
}

impl PhaseTimes {
    /// Total across sub-phases.
    pub fn total(&self) -> Duration {
        self.specialization + self.boundary + self.rgf
    }

    /// Accumulates another sample.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.specialization += other.specialization;
        self.boundary += other.boundary;
        self.rgf += other.rgf;
    }
}

/// Contact and numerical parameters of the electron GF solver.
#[derive(Clone, Copy, Debug)]
pub struct ElectronParams {
    /// Retarded broadening `η` (eV). Keep ≳ 1e-6 of the bandwidth.
    pub eta: f64,
    /// Source (left) chemical potential (eV).
    pub mu_source: f64,
    /// Drain (right) chemical potential (eV).
    pub mu_drain: f64,
    /// Contact electron temperature `k_B T` (eV).
    pub kt: f64,
    /// Surface-GF algorithm.
    pub method: BoundaryMethod,
    /// Decimation tolerance.
    pub bc_tol: f64,
    /// Decimation iteration cap.
    pub bc_max_iter: usize,
}

impl Default for ElectronParams {
    fn default() -> Self {
        ElectronParams {
            eta: 1e-5,
            mu_source: 0.0,
            mu_drain: 0.0,
            kt: 0.025,
            method: BoundaryMethod::SanchoRubio,
            bc_tol: 1e-13,
            bc_max_iter: 200,
        }
    }
}

/// Contact parameters of the phonon GF solver.
#[derive(Clone, Copy, Debug)]
pub struct PhononParams {
    /// Broadening added to `ω` before squaring (energy units).
    pub eta: f64,
    /// Contact lattice temperature `k_B T` (eV).
    pub kt: f64,
    /// Surface-GF algorithm.
    pub method: BoundaryMethod,
    /// Decimation tolerance.
    pub bc_tol: f64,
    /// Decimation iteration cap.
    pub bc_max_iter: usize,
}

impl Default for PhononParams {
    fn default() -> Self {
        PhononParams {
            eta: 2e-5,
            kt: 0.025,
            method: BoundaryMethod::SanchoRubio,
            bc_tol: 1e-13,
            bc_max_iter: 200,
        }
    }
}

/// One Green's-function solver over a 2-D grid of points — the common
/// interface of [`ElectronSolver`] (`(kz, E)` points) and
/// [`PhononSolver`] (`(qz, ω)` points).
///
/// The trait is what the driver's execution engine programs against. Its
/// unit is a **row**: a run of consecutive `j` of one `i` (energies of one
/// momentum), solved together by [`GfSolver::solve_row`] under the current
/// Born iteration's scattering self-energies and handed, block row by
/// block row, to a [`RowSink`]. [`GfSolver::solve_point`] solves one
/// point the same way and returns its whole solution. Construction stays
/// on the concrete types (their parameter sets differ); construction is
/// cheap — caches start empty — so parallel executors build one solver
/// per worker.
pub trait GfSolver {
    /// Solves grid point `(i, j)` given optional retarded/lesser/greater
    /// scattering self-energy blocks (`None` on the ballistic first
    /// iteration).
    fn solve_point(
        &mut self,
        i: usize,
        j: usize,
        sigma_r: Option<&[CMatrix]>,
        sigma_l: Option<&[CMatrix]>,
        sigma_g: Option<&[CMatrix]>,
    ) -> PointSolution;

    /// Solves points `(i, j)` for every `j` of `js`, feeding point `j`'s
    /// block rows to `sink` as lane `j − js.start`; returns the sub-phase
    /// timings of the whole row.
    fn solve_row(
        &mut self,
        i: usize,
        js: Range<usize>,
        scattering: Option<&dyn Scattering>,
        sink: &mut dyn RowSink,
    ) -> PhaseTimes;

    /// The carrier this solver models (diagnostics/logging).
    fn carrier(&self) -> &'static str;

    /// Approximate resident bytes of the solver's caches.
    fn cache_bytes(&self) -> usize;
}

/// The scattering self-energies of one Born iteration as the GF solvers
/// read them: one slab block at a time.
pub trait Scattering {
    /// Slab `b`'s `[Σ^R, Σ^<, Σ^>]` at grid point `(i, j)`, into `out`.
    fn block(&self, i: usize, j: usize, b: usize, out: [&mut CMatrix; 3]);
}

/// Where a row's solution goes: every block row of every lane, bottom-up
/// within a lane ([`RgfRow`]), with the point's contact `(Σ^<, Σ^>)`
/// blocks, left then right. The observables are built from exactly this.
pub trait RowSink {
    /// Block row `row.n` of lane `lane`.
    fn row(&mut self, lane: usize, row: &RgfRow<'_>, boundary_lg: [&(CMatrix, CMatrix); 2]);
}

/// Output of one GF point solve.
pub struct PointSolution {
    /// The RGF blocks.
    pub sol: RgfSolution,
    /// The folded `M` (for current operators: its `upper` blocks).
    pub m: BlockTriDiag,
    /// Left boundary `Σ^≷` blocks (for Meir-Wingreen currents).
    pub boundary_lg_left: (CMatrix, CMatrix),
    /// Right boundary `Σ^≷` blocks.
    pub boundary_lg_right: (CMatrix, CMatrix),
    /// Left/right broadenings `Γ`.
    pub gamma: (CMatrix, CMatrix),
    /// Sub-phase timings of this solve.
    pub times: PhaseTimes,
}

/// [`GfSolver::solve_point`]'s sink: its one lane's rows, collected whole.
struct Whole(RgfSolution);

impl RowSink for Whole {
    fn row(&mut self, _: usize, row: &RgfRow<'_>, _: [&(CMatrix, CMatrix); 2]) {
        self.0.put(row);
    }
}

/// [`GfSolver::solve_point`]'s scattering blocks: `[Σ^R, Σ^<, Σ^>]`, one
/// block per slab each, or zero where absent.
struct PointBlocks<'s> {
    blocks: [Option<&'s [CMatrix]>; 3],
    bs: usize,
}

impl Scattering for PointBlocks<'_> {
    fn block(&self, _: usize, _: usize, b: usize, out: [&mut CMatrix; 3]) {
        for (blocks, m) in self.blocks.iter().zip(out) {
            match blocks {
                Some(blocks) => m.copy_from(&blocks[b]),
                None => m.resize(self.bs, self.bs),
            }
        }
    }
}

/// One block of a block-tridiagonal operator: row `n`'s diagonal block,
/// or its coupling to row `n + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// `A[n][n]`.
    Diag,
    /// `A[n][n+1]`.
    Upper,
    /// `A[n+1][n]`.
    Lower,
}

impl Part {
    /// This part's block `n` of `m`.
    pub fn of(self, m: &BlockTriDiag, n: usize) -> &CMatrix {
        match self {
            Part::Diag => &m.diag[n],
            Part::Upper => &m.upper[n],
            Part::Lower => &m.lower[n],
        }
    }
}

/// What tells the two carriers of the GF phase apart: the operator `M`, the
/// payload a specialization caches, and the contact occupations.
/// Everything else of a point solve — cache policy, boundary resolution,
/// self-energy folding, RGF — is [`PointSolver`], written once.
pub trait Carrier {
    /// The cached specialization: `(H, S)` per `kz`, `Φ` per `qz`.
    type Spec;
    /// Name for diagnostics ([`GfSolver::carrier`]).
    const NAME: &'static str;
    /// Boson sign convention of the contact `Σ^≷` (`contact_sigma_lg`).
    const BOSON: bool;
    /// Block-tridiagonal operators held by one [`Carrier::Spec`].
    const SPEC_OPERATORS: usize;

    /// RGF block size of this carrier on `device`.
    fn block_size(device: &DeviceStructure) -> usize;
    /// Assembles the momentum-`k` operators from the material data.
    fn specialize(&self, device: &DeviceStructure, k: f64) -> Self::Spec;
    /// Block `part` of row `n` of the ballistic `M` at energy/frequency
    /// `x`, into `out`: a block row is assembled when a sweep reaches it.
    fn block(&self, spec: &Self::Spec, x: f64, part: Part, n: usize, out: &mut CMatrix);
    /// Left/right contact occupations at `x`.
    fn occupations(&self, x: f64) -> (f64, f64);
    /// Surface-GF algorithm, decimation tolerance and iteration cap.
    fn boundary(&self) -> (BoundaryMethod, f64, usize);
}

/// Electrons: `M = (E + iη)·S − H`, Fermi-occupied source and drain.
pub struct Electrons {
    potential: Vec<f64>,
    params: ElectronParams,
}

impl Carrier for Electrons {
    type Spec = (BlockTriDiag, BlockTriDiag);
    const NAME: &'static str = "electron";
    const BOSON: bool = false;
    const SPEC_OPERATORS: usize = 2;

    fn block_size(device: &DeviceStructure) -> usize {
        device.block_size_el()
    }

    fn specialize(&self, device: &DeviceStructure, kz: f64) -> Self::Spec {
        (
            device.hamiltonian_with_potential(kz, &self.potential),
            device.overlap(kz),
        )
    }

    fn block(&self, (h, s): &Self::Spec, e: f64, part: Part, n: usize, out: &mut CMatrix) {
        // `S·(E + iη) + H·(−1)` elementwise, as `BlockTriDiag::linear_comb`.
        let (alpha, beta) = (c64(e, self.params.eta), c64(-1.0, 0.0));
        let (s, h) = (part.of(s, n), part.of(h, n));
        out.resize_for_overwrite(s.rows(), s.cols());
        for ((o, s), h) in out
            .as_mut_slice()
            .iter_mut()
            .zip(s.as_slice())
            .zip(h.as_slice())
        {
            *o = *s * alpha + *h * beta;
        }
    }

    fn occupations(&self, e: f64) -> (f64, f64) {
        let p = &self.params;
        (fermi(e, p.mu_source, p.kt), fermi(e, p.mu_drain, p.kt))
    }

    fn boundary(&self) -> (BoundaryMethod, f64, usize) {
        (
            self.params.method,
            self.params.bc_tol,
            self.params.bc_max_iter,
        )
    }
}

/// Phonons: `M = (ω + iη)²·I − Φ`, both contacts Bose-occupied at the
/// same heat-sink temperature.
impl Carrier for PhononParams {
    type Spec = BlockTriDiag;
    const NAME: &'static str = "phonon";
    const BOSON: bool = true;
    const SPEC_OPERATORS: usize = 1;

    fn block_size(device: &DeviceStructure) -> usize {
        device.block_size_ph()
    }

    fn specialize(&self, device: &DeviceStructure, qz: f64) -> Self::Spec {
        device.dynamical(qz)
    }

    fn block(&self, phi: &Self::Spec, w: f64, part: Part, n: usize, out: &mut CMatrix) {
        let p = part.of(phi, n);
        out.copy_from(p);
        if part == Part::Diag {
            // (ω + iη)²·I − Φ[n][n]
            let z2 = c64(w, self.eta) * c64(w, self.eta);
            for j in 0..p.cols() {
                for i in 0..p.rows() {
                    out[(i, j)] = if i == j { z2 } else { C64::ZERO } - p[(i, j)];
                }
            }
        } else {
            out.scale_inplace(c64(-1.0, 0.0));
        }
    }

    fn occupations(&self, w: f64) -> (f64, f64) {
        let n = bose(w, self.kt);
        (n, n)
    }

    fn boundary(&self) -> (BoundaryMethod, f64, usize) {
        (self.method, self.bc_tol, self.bc_max_iter)
    }
}

/// GF solver of one [`Carrier`] bound to one device and cache policy. One
/// instance serves all points of its `k × x` grid (`(kz, E)` or
/// `(qz, ω)`) across the self-consistent iteration.
pub struct PointSolver<'a, C: Carrier> {
    device: &'a DeviceStructure,
    carrier: C,
    mode: CacheMode,
    k_values: Vec<f64>,
    x_values: Vec<f64>,
    spec_cache: Vec<Option<C::Spec>>, // per k
    /// Boundary self-energies per `(ik, ix)`: the solver's own unless
    /// caching is off, or one shared across workers and iterations.
    bc: Option<Arc<BoundaryCache>>,
    /// Scratch arena threaded through the boundary and RGF solves; a
    /// pool-backed lease when the solver was built with
    /// [`PointSolver::with_workspace_pool`].
    ws: WorkspaceLease<'a>,
    /// A row solve's lanes, kept for their capacity.
    lanes: Vec<LaneBoundary>,
}

/// Electron GF solver over `(kz, E)` points, bound to a potential profile.
pub type ElectronSolver<'a> = PointSolver<'a, Electrons>;

/// Phonon GF solver: solves `(ω² − Φ(qz) − Π^R)·D^R = I` per `(qz, ω)`
/// point.
pub type PhononSolver<'a> = PointSolver<'a, PhononParams>;

impl<'a> PointSolver<'a, Electrons> {
    /// Creates a solver for the grid `kz_values × energies`.
    pub fn new(
        device: &'a DeviceStructure,
        potential: Vec<f64>,
        params: ElectronParams,
        mode: CacheMode,
        kz_values: Vec<f64>,
        energies: Vec<f64>,
    ) -> Self {
        let carrier = Electrons { potential, params };
        PointSolver::over(device, carrier, mode, kz_values, energies)
    }
}

impl<'a> PointSolver<'a, PhononParams> {
    /// Creates a solver for the grid `qz_values × omegas` (ω > 0).
    pub fn new(
        device: &'a DeviceStructure,
        params: PhononParams,
        mode: CacheMode,
        qz_values: Vec<f64>,
        omegas: Vec<f64>,
    ) -> Self {
        assert!(
            omegas.iter().all(|&w| w > 0.0),
            "phonon frequencies must be positive"
        );
        PointSolver::over(device, params, mode, qz_values, omegas)
    }
}

impl<'a, C: Carrier> PointSolver<'a, C> {
    fn over(
        device: &'a DeviceStructure,
        carrier: C,
        mode: CacheMode,
        k_values: Vec<f64>,
        x_values: Vec<f64>,
    ) -> Self {
        let (nk, nx) = (k_values.len(), x_values.len());
        PointSolver {
            device,
            carrier,
            mode,
            k_values,
            x_values,
            spec_cache: (0..nk).map(|_| None).collect(),
            bc: (mode != CacheMode::NoCache).then(|| Arc::new(BoundaryCache::new(nk * nx))),
            ws: WorkspaceLease::detached(),
            lanes: Vec::new(),
        }
    }

    /// Swaps the solver's scratch arena for a lease on `pool`, so the
    /// buffers warmed by this solver's points survive the solver and warm
    /// the next sweep (and the next Born iteration).
    pub fn with_workspace_pool(mut self, pool: &'a WorkspacePool) -> Self {
        self.ws = pool.lease();
        self
    }

    /// Routes boundary-condition lookups through a cache shared across
    /// workers and Born iterations (and, via [`BoundaryCache::fresh_clone`],
    /// across sweep points); replaces the solver's own.
    pub fn with_shared_boundary(mut self, cache: Arc<BoundaryCache>) -> Self {
        assert_eq!(
            cache.len(),
            self.k_values.len() * self.x_values.len(),
            "shared boundary cache sized for a different grid"
        );
        self.bc = Some(cache);
        self
    }
}

/// The momentum's specialization: built into the cache slot under
/// [`CacheMode::CacheBcSpec`] (once), else into `local` (every call).
fn specialization<'s, C: Carrier>(
    carrier: &C,
    device: &DeviceStructure,
    mode: CacheMode,
    slot: &'s mut Option<C::Spec>,
    local: &'s mut Option<C::Spec>,
    k: f64,
) -> &'s C::Spec {
    let slot = if mode == CacheMode::CacheBcSpec {
        slot
    } else {
        local
    };
    slot.get_or_insert_with(|| carrier.specialize(device, k))
}

/// Resolves the boundary self-energies of points `keys` (one row of the
/// grid), handing point `keys.start + e` to `put(e, ·)`: through `cache`
/// when caching — hits first, then every miss by one `solve` call — else
/// every point by `solve`.
fn resolve_boundaries(
    cache: Option<&BoundaryCache>,
    keys: Range<usize>,
    solve: impl FnOnce(&[usize]) -> Vec<BoundarySelfEnergies>,
    mut put: impl FnMut(usize, Arc<BoundarySelfEnergies>),
) {
    match cache {
        Some(cache) => cache.resolve_row(keys, solve, put),
        None => {
            let all: Vec<usize> = (0..keys.len()).collect();
            for (e, bse) in solve(&all).into_iter().enumerate() {
                put(e, Arc::new(bse));
            }
        }
    }
}

/// The blocks of the ballistic `M` at `x` that the boundary reads,
/// `[M[0][0], M[0][1], M[1][0], M[N][N], M[N−1][N], M[N][N−1]]`, in
/// workspace blocks.
fn lead_blocks<C: Carrier>(
    carrier: &C,
    spec: &C::Spec,
    x: f64,
    (nb, bs): (usize, usize),
    ws: &mut Workspace,
) -> [CMatrix; 6] {
    let mut ends: [CMatrix; 6] = std::array::from_fn(|_| ws.take(bs, bs));
    for (m, (part, n)) in ends.iter_mut().zip([
        (Part::Diag, 0),
        (Part::Upper, 0),
        (Part::Lower, 0),
        (Part::Diag, nb - 1),
        (Part::Upper, nb - 2),
        (Part::Lower, nb - 2),
    ]) {
        carrier.block(spec, x, part, n, m);
    }
    ends
}

/// What a row solve keeps of one lane's boundary: its energy, its
/// self-energies as resolved (shared with the cache, not copied), and the
/// contact `(Σ^<, Σ^>)`, left then right, in workspace blocks.
struct LaneBoundary {
    x: f64,
    bse: Option<Arc<BoundarySelfEnergies>>,
    lg: [(CMatrix, CMatrix); 2],
}

impl LaneBoundary {
    fn bse(&self) -> &BoundarySelfEnergies {
        self.bse.as_deref().expect("boundary resolved")
    }
}

/// One chunk's [`RowInputs`]: `M`'s blocks from the cached
/// specialization, boundary and scattering `Σ^R` folded into the diagonal
/// and `Σ^≷` assembled as each block row is reached.
struct ChunkInputs<'s, C: Carrier> {
    carrier: &'s C,
    spec: &'s C::Spec,
    lanes: &'s [LaneBoundary],
    scattering: Option<&'s dyn Scattering>,
    nb: usize,
    bs: usize,
    /// Grid point of lane 0.
    i: usize,
    j0: usize,
    /// Scratch for a scattering `Σ^R` block.
    sr: CMatrix,
    /// Where lane 0's folded `M` is recorded, if anywhere.
    record: Option<&'s mut BlockTriDiag>,
}

impl<C: Carrier> RowInputs for ChunkInputs<'_, C> {
    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn num_blocks(&self) -> usize {
        self.nb
    }

    fn block_size(&self) -> usize {
        self.bs
    }

    fn row(&mut self, e: usize, n: usize, diag: &mut CMatrix, sl: &mut CMatrix, sg: &mut CMatrix) {
        let lane = &self.lanes[e];
        let last = self.nb - 1;
        self.carrier.block(self.spec, lane.x, Part::Diag, n, diag);
        if n == 0 {
            *diag -= &lane.bse().left;
        }
        if n == last {
            *diag -= &lane.bse().right;
        }
        match self.scattering {
            Some(blocks) => {
                blocks.block(self.i, self.j0 + e, n, [&mut self.sr, sl, sg]);
                self.sr.scale_inplace(c64(-1.0, 0.0));
                *diag += &self.sr;
            }
            None => {
                sl.resize(self.bs, self.bs);
                sg.resize(self.bs, self.bs);
            }
        }
        for (end, (l, g)) in [(0, &lane.lg[0]), (last, &lane.lg[1])] {
            if n == end {
                *sl += l;
                *sg += g;
            }
        }
        if let Some(m) = self.record.as_deref_mut().filter(|_| e == 0) {
            m.diag[n].copy_from(diag);
        }
    }

    fn coupling(&mut self, e: usize, n: usize, upper: &mut CMatrix, lower: &mut CMatrix) {
        let x = self.lanes[e].x;
        self.carrier.block(self.spec, x, Part::Upper, n, upper);
        self.carrier.block(self.spec, x, Part::Lower, n, lower);
        if let Some(m) = self.record.as_deref_mut().filter(|_| e == 0) {
            m.upper[n].copy_from(upper);
            m.lower[n].copy_from(lower);
        }
    }
}

impl<C: Carrier> PointSolver<'_, C> {
    /// Solves points `(ik, ix)`, `ix ∈ xs`, as the lanes of one
    /// [`rgf_row_into`] recursion, `xs` at most [`row_width`] wide — the
    /// body of both [`GfSolver`] entries. The momentum is specialized once,
    /// the chunk's uncached boundaries are decimated together (one
    /// [`crate::sancho_rubio_lanes`] call per lead), and lane `e`'s block
    /// rows go to `sink` as lane `lane0 + e`. `record`, if given, receives
    /// lane 0's folded `M` as the recursion reads it. The lanes stay in
    /// `self.lanes` until [`PointSolver::release_lanes`]. Returns the
    /// sub-phase timings and the flops of one lane.
    fn solve_chunk(
        &mut self,
        ik: usize,
        xs: Range<usize>,
        scattering: Option<&dyn Scattering>,
        lane0: usize,
        sink: &mut dyn RowSink,
        record: Option<&mut BlockTriDiag>,
    ) -> (PhaseTimes, u64) {
        let (nb, bs) = (self.device.bnum(), C::block_size(self.device));
        let PointSolver {
            device,
            carrier,
            mode,
            k_values,
            x_values,
            spec_cache,
            bc,
            ws,
            lanes,
        } = self;
        let mut times = PhaseTimes::default();

        let t0 = Instant::now();
        let mut local = None;
        let k = k_values[ik];
        let spec = specialization(&*carrier, device, *mode, &mut spec_cache[ik], &mut local, k);
        times.specialization = t0.elapsed();

        let t1 = Instant::now();
        lanes.extend(xs.clone().map(|ix| LaneBoundary {
            x: x_values[ix],
            bse: None,
            lg: std::array::from_fn(|_| (ws.take(bs, bs), ws.take(bs, bs))),
        }));
        let (method, tol, max_iter) = carrier.boundary();
        let row = ik * x_values.len();
        let solve = |misses: &[usize]| {
            let ends: Vec<[CMatrix; 6]> = misses
                .iter()
                .map(|&e| lead_blocks(&*carrier, spec, x_values[xs.start + e], (nb, bs), ws))
                .collect();
            let refs: Vec<[&CMatrix; 6]> = ends.iter().map(|e| e.each_ref()).collect();
            let solved = boundary_self_energies_lanes(method, &refs, tol, max_iter, ws);
            ends.into_iter().flatten().for_each(|m| ws.give(m));
            solved
        };
        let keys = row + xs.start..row + xs.end;
        resolve_boundaries(bc.as_deref(), keys, solve, |e, bse| {
            lanes[e].bse = Some(bse)
        });
        for lane in lanes.iter_mut() {
            let (occ_l, occ_r) = carrier.occupations(lane.x);
            let bse = lane.bse.as_deref().expect("boundary resolved");
            let [left, right] = &mut lane.lg;
            contact_sigma_lg_into(&bse.left, occ_l, C::BOSON, left);
            contact_sigma_lg_into(&bse.right, occ_r, C::BOSON, right);
        }
        times.boundary = t1.elapsed();

        let t2 = Instant::now();
        let mut inputs = ChunkInputs {
            carrier: &*carrier,
            spec,
            lanes,
            scattering,
            nb,
            bs,
            i: ik,
            j0: xs.start,
            sr: ws.take(bs, bs),
            record,
        };
        let flops = rgf_row_into(&mut inputs, ws, |e, row| {
            let lg = &lanes[e].lg;
            sink.row(lane0 + e, row, [&lg[0], &lg[1]]);
        });
        ws.give(inputs.sr);
        times.rgf = t2.elapsed();
        (times, flops)
    }

    /// Drops the lanes of the last chunk, their contact blocks back to the
    /// workspace.
    fn release_lanes(&mut self) {
        for [(ll, lr), (gl, gr)] in self.lanes.drain(..).map(|lane| lane.lg) {
            [ll, lr, gl, gr].into_iter().for_each(|m| self.ws.give(m));
        }
    }
}

impl<C: Carrier> GfSolver for PointSolver<'_, C> {
    /// One lane of the row solve, its rows, folded `M`, contact blocks and
    /// broadenings kept whole.
    fn solve_point(
        &mut self,
        ik: usize,
        ix: usize,
        sigma_r: Option<&[CMatrix]>,
        sigma_l: Option<&[CMatrix]>,
        sigma_g: Option<&[CMatrix]>,
    ) -> PointSolution {
        let (nb, bs) = (self.device.bnum(), C::block_size(self.device));
        let blocks = [sigma_r, sigma_l, sigma_g];
        for (b, what) in blocks.iter().zip(["sigma_r", "sigma_l", "sigma_g"]) {
            if let Some(b) = b {
                assert_eq!(b.len(), nb, "{what} blocks");
            }
        }
        let scattering = blocks
            .iter()
            .any(Option::is_some)
            .then_some(PointBlocks { blocks, bs });
        let scattering = scattering.as_ref().map(|s| s as &dyn Scattering);
        let (mut sol, mut m) = (Whole(RgfSolution::empty()), BlockTriDiag::zeros(nb, bs));
        sol.0.shape(nb, bs);
        let (times, flops) =
            self.solve_chunk(ik, ix..ix + 1, scattering, 0, &mut sol, Some(&mut m));
        let sol = RgfSolution { flops, ..sol.0 };
        let lane = self.lanes.pop().expect("one lane");
        let bse = lane.bse.expect("boundary resolved");
        let [left, right] = lane.lg;
        PointSolution {
            sol,
            m,
            boundary_lg_left: left,
            boundary_lg_right: right,
            gamma: (bse.gamma_left.clone(), bse.gamma_right.clone()),
            times,
        }
    }

    /// The row in chunks of [`row_width`]: one SIMD vector of energy lanes
    /// on blocks up to `LANE_MAX_DIM`, one point on larger ones.
    fn solve_row(
        &mut self,
        ik: usize,
        xs: Range<usize>,
        scattering: Option<&dyn Scattering>,
        sink: &mut dyn RowSink,
    ) -> PhaseTimes {
        let width = row_width(C::block_size(self.device));
        let mut times = PhaseTimes::default();
        for from in xs.clone().step_by(width) {
            let chunk = from..xs.end.min(from + width);
            let lane0 = from - xs.start;
            let (chunk_times, _) = self.solve_chunk(ik, chunk, scattering, lane0, sink, None);
            self.release_lanes();
            times.accumulate(&chunk_times);
        }
        times
    }

    fn carrier(&self) -> &'static str {
        C::NAME
    }

    fn cache_bytes(&self) -> usize {
        let bs = C::block_size(self.device);
        let bnum = self.device.bnum();
        let spec = self.spec_cache.iter().flatten().count()
            * C::SPEC_OPERATORS
            * (bnum * 3) // diag + upper + lower (over-estimate by 2 blocks)
            * bs * bs * 16;
        spec + self.bc.as_ref().map_or(0, |bc| bc.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_ref::{dense_solve, DenseSolution};
    use omen_device::DeviceConfig;

    fn device() -> DeviceStructure {
        DeviceStructure::build(DeviceConfig::tiny())
    }

    /// One solver per carrier over a 2 × 3 grid, with its block size.
    fn both_carriers(
        dev: &DeviceStructure,
        mode: CacheMode,
    ) -> [(Box<dyn GfSolver + '_>, usize); 2] {
        let (ks, es, ws) = (
            vec![0.0, 1.0],
            vec![-0.5, 0.0, 0.5],
            vec![0.005, 0.01, 0.02],
        );
        let pot = dev.linear_potential(0.2, 0.25, 0.75);
        let el = ElectronSolver::new(dev, pot, ElectronParams::default(), mode, ks.clone(), es);
        let ph = PhononSolver::new(dev, PhononParams::default(), mode, ks, ws);
        [
            (Box::new(el), dev.block_size_el()),
            (Box::new(ph), dev.block_size_ph()),
        ]
    }

    #[test]
    fn electron_point_solves_and_is_physical() {
        let dev = device();
        let [(mut solver, _), _] = both_carriers(&dev, CacheMode::NoCache);
        let out = solver.solve_point(0, 1, None, None, None);
        assert_eq!(out.sol.gr_diag.len(), dev.bnum());
        for n in 0..dev.bnum() {
            assert!(out.sol.gl_diag[n].is_anti_hermitian(1e-8), "G<[{n}]");
            assert!(out.sol.gg_diag[n].is_anti_hermitian(1e-8), "G>[{n}]");
        }
        assert!(out.gamma.0.is_hermitian(1e-8));
    }

    #[test]
    fn phonon_point_solves() {
        let dev = device();
        let [_, (mut solver, _)] = both_carriers(&dev, CacheMode::NoCache);
        let out = solver.solve_point(0, 0, None, None, None);
        for n in 0..dev.bnum() {
            assert!(out.sol.gl_diag[n].is_anti_hermitian(1e-8), "D<[{n}]");
        }
    }

    #[test]
    fn cache_modes_agree_bitwise() {
        let dev = device();
        let [none, bc, full] = [
            CacheMode::NoCache,
            CacheMode::CacheBc,
            CacheMode::CacheBcSpec,
        ]
        .map(|mode| both_carriers(&dev, mode));
        for (((mut s_none, _), (mut s_bc, _)), (mut s_full, _)) in
            none.into_iter().zip(bc).zip(full)
        {
            let who = s_none.carrier();
            for round in 0..2 {
                for ik in 0..2 {
                    for ix in 0..3 {
                        let [a, b, c] = [&mut s_none, &mut s_bc, &mut s_full]
                            .map(|s| s.solve_point(ik, ix, None, None, None));
                        let dev_ab = (&a.sol.gr_diag[0] - &b.sol.gr_diag[0]).max_abs();
                        let dev_ac = (&a.sol.gr_diag[0] - &c.sol.gr_diag[0]).max_abs();
                        assert!(dev_ab < 1e-13, "{who} round {round} ({ik},{ix}): {dev_ab}");
                        assert!(dev_ac < 1e-13, "{who} round {round} ({ik},{ix}): {dev_ac}");
                    }
                }
            }
            // Cache sizes reflect the policy.
            assert_eq!(s_none.cache_bytes(), 0);
            assert!(s_bc.cache_bytes() > 0);
            assert!(s_full.cache_bytes() > s_bc.cache_bytes());
        }
    }

    #[test]
    fn scattering_sigma_changes_solution() {
        let dev = device();
        for (mut solver, bs) in both_carriers(&dev, CacheMode::NoCache) {
            let ballistic = solver.solve_point(0, 1, None, None, None);
            // A small anti-Hermitian Σ^R (lifetime broadening).
            let sr: Vec<CMatrix> = (0..dev.bnum())
                .map(|_| CMatrix::from_diag(&vec![c64(0.0, -0.01); bs]))
                .collect();
            let scattered = solver.solve_point(0, 1, Some(&sr), None, None);
            let diff = (&ballistic.sol.gr_diag[2] - &scattered.sol.gr_diag[2]).max_abs();
            assert!(diff > 1e-6, "Σ^R must affect G^R (diff {diff})");
        }
    }

    #[test]
    #[should_panic(expected = "sigma_r blocks")]
    fn short_scattering_blocks_are_rejected_for_phonons_too() {
        let dev = device();
        let [_, (mut phonons, bs)] = both_carriers(&dev, CacheMode::NoCache);
        let short = vec![CMatrix::zeros(bs, bs); dev.bnum() - 1];
        phonons.solve_point(0, 0, Some(&short), None, None);
    }

    /// Every block a sink receives, per lane and block row: the row's
    /// blocks in [`RgfRow`] order, then the contact `Σ≷` pairs.
    #[derive(Default)]
    struct Collect(Vec<Vec<Vec<CMatrix>>>);

    impl RowSink for Collect {
        fn row(&mut self, lane: usize, row: &RgfRow<'_>, lg: [&(CMatrix, CMatrix); 2]) {
            if self.0.len() <= lane {
                self.0.resize_with(lane + 1, Vec::new);
            }
            let rows = &mut self.0[lane];
            if rows.len() <= row.n {
                rows.resize_with(row.n + 1, Vec::new);
            }
            let mut blocks = vec![row.gr_diag, row.gl_diag, row.gg_diag];
            if let Some(c) = &row.coupling {
                blocks.extend([c.upper, c.gr_upper, c.gl_lower, c.gg_lower]);
            }
            blocks.extend([&lg[0].0, &lg[0].1, &lg[1].0, &lg[1].1]);
            rows[row.n] = blocks.into_iter().cloned().collect();
        }
    }

    /// A fixed scattering self-energy: `Σ^R = −iγ`, `Σ^< = iγ/2`,
    /// `Σ^> = −iγ/2` with a slab-dependent `γ`.
    struct Broadening(usize);

    impl Scattering for Broadening {
        fn block(&self, i: usize, j: usize, b: usize, [r, l, g]: [&mut CMatrix; 3]) {
            let gamma = 0.01 * (1.0 + b as f64 + 0.1 * (i + j) as f64);
            let diag = |z: C64| {
                CMatrix::from_fn(self.0, self.0, |p, q| if p == q { z } else { C64::ZERO })
            };
            *r = diag(c64(0.0, -gamma));
            *l = diag(c64(0.0, 0.5 * gamma));
            *g = diag(c64(0.0, -0.5 * gamma));
        }
    }

    /// Electron and phonon solvers over a 2 × 7 grid (a vector step and
    /// a tail of lanes), with their block sizes.
    fn row_carriers(dev: &DeviceStructure) -> [(Box<dyn GfSolver + '_>, usize); 2] {
        let ks = vec![0.0, 1.0];
        let es: Vec<f64> = (0..7).map(|j| -0.6 + 0.2 * j as f64).collect();
        let ws: Vec<f64> = (1..=7).map(|j| 0.004 * j as f64).collect();
        let pot = dev.linear_potential(0.2, 0.25, 0.75);
        let mode = CacheMode::CacheBcSpec;
        let el = ElectronSolver::new(dev, pot, ElectronParams::default(), mode, ks.clone(), es);
        let ph = PhononSolver::new(dev, PhononParams::default(), mode, ks, ws);
        [
            (Box::new(el), dev.block_size_el()),
            (Box::new(ph), dev.block_size_ph()),
        ]
    }

    #[test]
    fn row_solve_matches_dense_on_both_carriers() {
        // The lane kernel (the tiny device's 4 × 4 and 6 × 6 blocks, seven
        // energies in chunks of four) and the packed GEMM (32 × 32 and
        // 24 × 24, `gf_heavy`'s blocks), ballistic and with scattering:
        // every block a row sink receives, and every block of
        // `solve_point`, against the dense inverse of the point's folded M.
        let big = DeviceConfig {
            ny: 8,
            norb: 4,
            ..DeviceConfig::tiny()
        };
        for (config, points) in [(DeviceConfig::tiny(), 0..7), (big, 0..1)] {
            let dev = DeviceStructure::build(config);
            let nb = dev.bnum();
            for (mut solver, bs) in row_carriers(&dev) {
                let who = format!("{} {bs}x{bs}", solver.carrier());
                let scatt = Broadening(bs);
                for scattering in [None, Some(&scatt as &dyn Scattering)] {
                    let mut rows = Collect::default();
                    solver.solve_row(1, points.clone(), scattering, &mut rows);
                    for (j, got) in points.clone().zip(&rows.0) {
                        let mut blocks = [0; 3].map(|_| vec![CMatrix::zeros(bs, bs); nb]);
                        let out = match scattering {
                            Some(s) => {
                                let [r, l, g] = &mut blocks;
                                for (b, ((r, l), g)) in r.iter_mut().zip(l).zip(g).enumerate() {
                                    s.block(1, j, b, [r, l, g]);
                                }
                                let [r, l, g] = &blocks;
                                solver.solve_point(1, j, Some(r), Some(l), Some(g))
                            }
                            None => solver.solve_point(1, j, None, None, None),
                        };
                        let [_, sl, sg] = &mut blocks;
                        sl[0] += &out.boundary_lg_left.0;
                        sg[0] += &out.boundary_lg_left.1;
                        sl[nb - 1] += &out.boundary_lg_right.0;
                        sg[nb - 1] += &out.boundary_lg_right.1;
                        let dense = dense_solve(&out.m, sl, sg);
                        let dev = out.sol.max_deviation_from_dense(&dense, bs);
                        assert!(dev < 1e-9, "{who} point {j}: solve_point vs dense {dev:e}");
                        for (n, blocks) in got.iter().enumerate() {
                            // (dense matrix, block (r, c), index in the row)
                            let mut want = vec![
                                (&dense.gr, (n, n), 0),
                                (&dense.gl, (n, n), 1),
                                (&dense.gg, (n, n), 2),
                            ];
                            if n + 1 < nb {
                                want.extend([
                                    (&dense.gr, (n, n + 1), 4),
                                    (&dense.gl, (n + 1, n), 5),
                                    (&dense.gg, (n + 1, n), 6),
                                ]);
                            }
                            for (full, (r, c), at) in want {
                                let want = DenseSolution::block(full, bs, r, c);
                                let dev = (&blocks[at] - &want).max_abs();
                                assert!(dev < 1e-9, "{who} point {j} row {n}: dense {dev:e}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_solve_is_bitwise_under_every_chunking_on_both_carriers() {
        let dev = device();
        for (carrier, (mut solver, bs)) in row_carriers(&dev).into_iter().enumerate() {
            let scatt = Broadening(bs);
            let mut whole = Collect::default();
            solver.solve_row(0, 0..7, Some(&scatt), &mut whole);
            for cuts in [&[1, 2, 3, 4, 5, 6][..], &[3], &[4], &[2, 6]] {
                // A fresh solver, so the boundaries are decimated under
                // this chunking too.
                let (mut solver, _) = row_carriers(&dev)
                    .into_iter()
                    .nth(carrier)
                    .expect("carrier");
                let mut at = 0;
                for &cut in cuts.iter().chain([&7]) {
                    let mut part = Collect::default();
                    solver.solve_row(0, at..cut, Some(&scatt), &mut part);
                    for (lane, rows) in part.0.iter().enumerate() {
                        assert!(
                            rows == &whole.0[at + lane],
                            "{} cuts {cuts:?}",
                            solver.carrier()
                        );
                    }
                    at = cut;
                }
            }
        }
    }

    #[test]
    fn timings_populated() {
        let dev = device();
        for (mut solver, _) in both_carriers(&dev, CacheMode::CacheBcSpec) {
            let first = solver.solve_point(1, 0, None, None, None);
            assert!(first.times.total() > Duration::ZERO);
            // Second call hits both caches: boundary time collapses.
            let second = solver.solve_point(1, 0, None, None, None);
            assert!(second.times.boundary <= first.times.boundary);
        }
    }
}
