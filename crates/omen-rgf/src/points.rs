//! The per-point GF solver: assembly ("specialization"), boundary
//! conditions, and RGF for electron `(kz, E)` and phonon `(qz, ω)` points,
//! with the three caching modes of §7.1.2 — one body ([`PointSolver`])
//! generic over the [`Carrier`] that supplies the operator and occupations.
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
    bose, boundary_self_energies_ws, contact_sigma_lg, fermi, BoundaryMethod, BoundarySelfEnergies,
};
use crate::rgf::{rgf_solve_into, RgfInputs, RgfSolution};
use omen_device::DeviceStructure;
use omen_linalg::{c64, BlockTriDiag, CMatrix, Workspace, WorkspaceLease, WorkspacePool};
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
/// The trait is what the driver's execution engine programs against: a
/// point sweep is `solve_point` over every `(i, j)` of the grid, with the
/// optional scattering self-energy blocks of the current Born iteration.
/// Construction stays on the concrete types (their parameter sets differ);
/// construction is cheap — caches start empty — so parallel executors
/// build one solver per worker.
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

    /// The carrier this solver models (diagnostics/logging).
    fn carrier(&self) -> &'static str;

    /// Approximate resident bytes of the solver's caches.
    fn cache_bytes(&self) -> usize;
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
    /// The ballistic `M` at energy/frequency `x`.
    fn assemble(&self, spec: &Self::Spec, x: f64) -> BlockTriDiag;
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

    fn assemble(&self, (h, s): &Self::Spec, e: f64) -> BlockTriDiag {
        s.linear_comb(c64(e, self.params.eta), h, c64(-1.0, 0.0))
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

    fn assemble(&self, phi: &Self::Spec, w: f64) -> BlockTriDiag {
        let (bnum, bs) = (phi.num_blocks(), phi.block_size());
        let z2 = c64(w, self.eta) * c64(w, self.eta);
        let mut m = BlockTriDiag::zeros(bnum, bs);
        for b in 0..bnum {
            m.diag[b] = CMatrix::from_diag(&vec![z2; bs]);
            m.diag[b] -= &phi.diag[b];
        }
        for b in 0..bnum - 1 {
            m.upper[b] = phi.upper[b].scaled(c64(-1.0, 0.0));
            m.lower[b] = phi.lower[b].scaled(c64(-1.0, 0.0));
        }
        m
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
    spec_cache: Vec<Option<C::Spec>>,            // per k
    bc_cache: Vec<Option<BoundarySelfEnergies>>, // per (ik, ix)
    shared_bc: Option<Arc<BoundaryCache>>,
    /// Scratch arena threaded through the boundary and RGF solves; a
    /// pool-backed lease when the solver was built with
    /// [`PointSolver::with_workspace_pool`].
    ws: WorkspaceLease<'a>,
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
            bc_cache: vec![None; nk * nx],
            shared_bc: None,
            ws: WorkspaceLease::detached(),
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
    /// workers and Born iterations (and, via seeding, across sweep
    /// points); takes precedence over the solver-local cache.
    pub fn with_shared_boundary(mut self, cache: Arc<BoundaryCache>) -> Self {
        assert_eq!(
            cache.len(),
            self.k_values.len() * self.x_values.len(),
            "shared boundary cache sized for a different grid"
        );
        self.shared_bc = Some(cache);
        self
    }
}

impl<C: Carrier> GfSolver for PointSolver<'_, C> {
    fn solve_point(
        &mut self,
        ik: usize,
        ix: usize,
        sigma_r_scatt: Option<&[CMatrix]>,
        sigma_l_scatt: Option<&[CMatrix]>,
        sigma_g_scatt: Option<&[CMatrix]>,
    ) -> PointSolution {
        let k = self.k_values[ik];
        let x = self.x_values[ix];
        let bnum = self.device.bnum();
        let bs = C::block_size(self.device);
        let mut times = PhaseTimes::default();

        // --- (a) specialization ---
        let t0 = Instant::now();
        // Fill the cache on a miss, then borrow from it — the operators
        // are large (up to 2·bnum·3 blocks), so no per-point clones.
        let local_spec;
        let spec = if self.mode == CacheMode::CacheBcSpec {
            let slot = &mut self.spec_cache[ik];
            if slot.is_none() {
                *slot = Some(self.carrier.specialize(self.device, k));
            }
            slot.as_ref().unwrap()
        } else {
            local_spec = self.carrier.specialize(self.device, k);
            &local_spec
        };
        times.specialization = t0.elapsed();

        let mut m = self.carrier.assemble(spec, x);

        // --- (b) boundary conditions (ballistic lead blocks) ---
        let t1 = Instant::now();
        let bc_key = ik * self.x_values.len() + ix;
        let (method, bc_tol, bc_max_iter) = self.carrier.boundary();
        // Same cache-or-local discipline as the specialization: reads go
        // through a borrow; only the two Γ blocks handed to the caller
        // are cloned (on both paths — the cache must keep its copy).
        // A shared cache (cross-worker, cross-iteration) takes precedence
        // over the solver-local one.
        let local_bse;
        let bse = if let Some(shared) = &self.shared_bc {
            local_bse = shared.resolve(
                bc_key,
                method,
                &m.diag[0],
                &m.upper[0],
                &m.lower[0],
                &m.diag[bnum - 1],
                &m.upper[bnum - 2],
                &m.lower[bnum - 2],
                bc_tol,
                bc_max_iter,
                &mut self.ws,
            );
            &local_bse
        } else {
            let compute = |ws: &mut Workspace| {
                boundary_self_energies_ws(
                    method,
                    &m.diag[0],
                    &m.upper[0],
                    &m.lower[0],
                    &m.diag[bnum - 1],
                    &m.upper[bnum - 2],
                    &m.lower[bnum - 2],
                    bc_tol,
                    bc_max_iter,
                    ws,
                )
            };
            if self.mode != CacheMode::NoCache {
                let slot = &mut self.bc_cache[bc_key];
                if slot.is_none() {
                    *slot = Some(compute(&mut self.ws));
                }
                slot.as_ref().unwrap()
            } else {
                local_bse = compute(&mut self.ws);
                &local_bse
            }
        };
        times.boundary = t1.elapsed();

        // Fold boundary and scattering Σ^R into M.
        m.diag[0] -= &bse.left;
        m.diag[bnum - 1] -= &bse.right;
        if let Some(sr) = sigma_r_scatt {
            assert_eq!(sr.len(), bnum, "sigma_r blocks");
            for (b, blk) in sr.iter().enumerate() {
                let neg = blk.scaled(c64(-1.0, 0.0));
                m.diag[b] += &neg;
            }
        }

        // Boundary Σ^≷ with the contact occupation factors.
        let (occ_l, occ_r) = self.carrier.occupations(x);
        let (sl_l, sg_l) = contact_sigma_lg(&bse.left, occ_l, C::BOSON);
        let (sl_r, sg_r) = contact_sigma_lg(&bse.right, occ_r, C::BOSON);

        let blocks_or_zero = |scatt: Option<&[CMatrix]>| match scatt {
            Some(s) => s.to_vec(),
            None => vec![CMatrix::zeros(bs, bs); bnum],
        };
        let mut sigma_l = blocks_or_zero(sigma_l_scatt);
        let mut sigma_g = blocks_or_zero(sigma_g_scatt);
        sigma_l[0] += &sl_l;
        sigma_g[0] += &sg_l;
        sigma_l[bnum - 1] += &sl_r;
        sigma_g[bnum - 1] += &sg_r;

        // --- (c) RGF ---
        let t2 = Instant::now();
        let mut sol = RgfSolution::empty();
        rgf_solve_into(
            &RgfInputs {
                m: &m,
                sigma_l: &sigma_l,
                sigma_g: &sigma_g,
            },
            &mut self.ws,
            &mut sol,
        );
        times.rgf = t2.elapsed();

        PointSolution {
            sol,
            m,
            boundary_lg_left: (sl_l, sg_l),
            boundary_lg_right: (sl_r, sg_r),
            gamma: (bse.gamma_left.clone(), bse.gamma_right.clone()),
            times,
        }
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
        let bc = self.bc_cache.iter().flatten().count() * 4 * bs * bs * 16;
        spec + bc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
