//! The self-consistent GF ↔ SSE driver (Fig. 2 / Fig. 4 of the paper).
//!
//! Each Born iteration solves every electron `(kz, E)` and phonon
//! `(qz, ω)` point with RGF under the current scattering self-energies,
//! evaluates the coupled self-energies with the configured [`SseKernel`],
//! mixes, and repeats until the electrical current converges (the paper:
//! 20–100 Born iterations).
//!
//! The driver is an execution engine, not a loop nest: a sweep is row
//! solves — the energies of one momentum in chunks of
//! [`omen_rgf::row_width`] — each writing its points' `G≷`/`D≷` blocks
//! and raw scalars into its own slices of the phase's outputs, run by a
//! pluggable [`PointExecutor`] (see [`crate::executor`] for the engine);
//! the integration weights are applied after the sweep, in point order.
//! When the loop ends is decided in one place, `BornLoop`, which
//! [`Simulation::run_with`] drives (an overlapped sweep,
//! [`crate::stream`], calls each point's own `run`).

use crate::builder::{ConfigError, SimulationConfig};
use crate::executor::{grid_points, ExecutorKind, GridPoint, PointExecutor};
use crate::grids::{EnergyGrid, FrequencyGrid, MomentumGrid};
use crate::observables::{ElectronObservables, PhononObservables, Rows};
use crate::state::{zero_tensors, PiScattering, SigmaScattering};
use omen_device::DeviceStructure;
use omen_linalg::WorkspacePool;
use omen_rgf::{
    row_width, BoundaryCache, BoundaryCacheStats, CacheMode, Carrier, ElectronParams,
    ElectronSolver, GfSolver, PhaseTimes, PhononParams, PhononSolver, PointSolver, RowSink,
    Scattering,
};
use omen_sse::{DTensor, GLayout, GTensor, SseKernel, SseProblem};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation handle for a running Born loop.
///
/// Clones share one flag. The driver checks the token between Born
/// iterations, so [`CancelToken::cancel`] interrupts a *running*
/// [`Simulation::run`] at the next iteration boundary — the caller gets
/// [`DriverError::Cancelled`] instead of waiting out the iteration cap.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once any clone called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a [`Simulation::run`] ended without a usable result.
///
/// Every variant is a *recoverable* verdict for a supervisor: retry the
/// point (possibly cold), quarantine its warm-start donor, or drop it —
/// nothing here aborts the process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DriverError {
    /// The current observable became NaN/Inf — the solve is poisoned and
    /// its state must not be deposited into any warm-start cache.
    NonFinite {
        /// Born iteration that produced the non-finite observable.
        iteration: usize,
    },
    /// The iteration cap was reached before the tolerance was met.
    /// Only raised when [`SimulationConfig::require_convergence`] is set.
    Unconverged {
        /// Total Born iterations performed.
        iterations: usize,
        /// Final relative current change.
        rel_change: f64,
    },
    /// A warm-started run was still changing by more than the configured
    /// bound after the watchdog window — the donor state is pulling the
    /// fixed-point iteration away instead of toward convergence. Restart
    /// cold and quarantine the donor.
    WarmDiverged {
        /// Born iteration at which the watchdog fired.
        iteration: usize,
        /// Observed relative current change.
        rel_change: f64,
    },
    /// A [`CancelToken`] was triggered between Born iterations.
    Cancelled {
        /// Born iteration at which cancellation was observed.
        iteration: usize,
    },
    /// The per-run deadline passed between Born iterations.
    DeadlineExceeded {
        /// Born iteration at which the deadline was observed.
        iteration: usize,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NonFinite { iteration } => {
                write!(f, "non-finite observable at Born iteration {iteration}")
            }
            DriverError::Unconverged {
                iterations,
                rel_change,
            } => write!(
                f,
                "not converged after {iterations} Born iterations (rel change {rel_change:.3e})"
            ),
            DriverError::WarmDiverged {
                iteration,
                rel_change,
            } => write!(
                f,
                "warm-started run diverging at Born iteration {iteration} \
                 (rel change {rel_change:.3e})"
            ),
            DriverError::Cancelled { iteration } => {
                write!(f, "cancelled at Born iteration {iteration}")
            }
            DriverError::DeadlineExceeded { iteration } => {
                write!(f, "deadline exceeded at Born iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Accumulated per-iteration observables.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Iteration index (0 = ballistic).
    pub iteration: usize,
    /// Electrical current at the mid-device interface (e/ℏ·eV units).
    pub current: f64,
    /// Current per interface (conservation diagnostic).
    pub current_profile: Vec<f64>,
    /// Relative change of the current w.r.t. the previous iteration.
    pub rel_change: f64,
    /// GF-phase wall-clock breakdown.
    pub gf_times: PhaseTimes,
    /// SSE wall-clock (s).
    pub sse_seconds: f64,
    /// SSE flops this iteration.
    pub sse_flops: u64,
    /// Relative `Σ^<` change against the previous iteration's kernel
    /// output (`None` on the first application) — a convergence
    /// diagnostic read off the kernel's double buffer for free.
    pub sigma_rel_change: Option<f64>,
}

/// Energy/space-resolved outputs of the GF phase of the last iteration.
#[derive(Clone, Debug)]
pub struct SpectralData {
    /// Electron current spectrum `j(E, interface)` (momentum-averaged).
    pub el_current_spectrum: Vec<Vec<f64>>,
    /// Electron charge current per interface.
    pub el_current: Vec<f64>,
    /// Electron *energy* current per interface (weighted by `E`).
    pub el_energy_current: Vec<f64>,
    /// Phonon energy current per interface (weighted by `ω`).
    pub ph_energy_current: Vec<f64>,
    /// Per-atom phonon energy density (for the temperature map).
    pub ph_energy_density: Vec<f64>,
    /// Per-atom phonon density of states, resolved per frequency:
    /// `dos[m][a]`.
    pub ph_dos: Vec<Vec<f64>>,
    /// Per-atom electron occupation.
    pub el_density: Vec<f64>,
    /// Meir-Wingreen contact currents (left, right).
    pub contact_currents: (f64, f64),
}

/// Everything one GF phase produces: the four SSE input tensors, the
/// spectral observables, and the accumulated per-stage solver times.
/// Named replacement for the positional 6-tuple `gf_phase` used to
/// return; the same quantities also flow into the trace registry as a
/// `gf_phase` phase record when tracing is armed.
pub struct GfPhaseOutput {
    /// Electron lesser Green's function `G^<` (AtomMajor).
    pub g_l: GTensor,
    /// Electron greater Green's function `G^>`.
    pub g_g: GTensor,
    /// Phonon lesser Green's function `D^<`.
    pub d_l: DTensor,
    /// Phonon greater Green's function `D^>`.
    pub d_g: DTensor,
    /// Spectral observables accumulated across all points.
    pub spectral: SpectralData,
    /// Specialization/boundary/RGF wall time summed over every point
    /// solve (CPU time, not wall time, under a parallel executor).
    pub times: PhaseTimes,
}

/// The simulation driver.
pub struct Simulation {
    /// Configuration (private: the builder validated it, and keeping it
    /// immutable is what makes that validation a guarantee).
    config: SimulationConfig,
    /// The synthetic device.
    pub device: DeviceStructure,
    /// Energy grid.
    pub egrid: EnergyGrid,
    /// Momentum grid.
    pub kgrid: MomentumGrid,
    /// Frequency grid.
    pub fgrid: FrequencyGrid,
    /// Per-atom electrostatic potential.
    pub potential: Vec<f64>,
    kernel: Box<dyn SseKernel>,
    /// Warm per-worker scratch arenas. Each GF worker leases one for its
    /// sweep and returns it on drop, so every later sweep — including the
    /// next Born iteration — reuses the buffers: the self-consistent loop
    /// allocates hot-path scratch only during warmup.
    ws_pool: WorkspacePool,
    /// The mixed Σ^≷/Π^≷ state, Σ^≷ atom-major like the `G≷` the GF
    /// phase writes. Empty until the first mixing step or
    /// warm-start import sizes it: construction writes no tensor-sized
    /// memory, so its cost does not depend on what the allocator has to
    /// hand (docs/benchmarks.md, "what `setup_s` measures").
    sigma_l: GTensor,
    sigma_g: GTensor,
    pi_l: DTensor,
    pi_g: DTensor,
    /// Boundary-condition caches shared across workers and Born
    /// iterations (`None` under [`CacheMode::NoCache`]). The boundary
    /// self-energies never depend on the scattering self-energies, so
    /// these stay valid for the whole run — and they are the carrier of
    /// cross-sweep-point warm starts (see [`Simulation::warm_start_from`]).
    el_bc: Option<Arc<BoundaryCache>>,
    ph_bc: Option<Arc<BoundaryCache>>,
    /// True when state tensors were seeded from a neighboring sweep
    /// point: the first GF phase then folds the seeded Σ/Π in instead of
    /// starting ballistic.
    seeded: bool,
    /// Reverse-pair table of the device, computed once so per-iteration
    /// [`SseProblem`] construction is allocation-free.
    rev_pair: Vec<usize>,
    iteration: usize,
    last_current: Option<f64>,
    last_spectral: Option<SpectralData>,
    /// Cooperative cancellation, checked between Born iterations.
    cancel: Option<CancelToken>,
    /// Wall-clock deadline, checked between Born iterations.
    deadline: Option<Instant>,
    /// Supervised fault-injection key (set by the sweep service per
    /// point attempt). `None` — the default — keeps every injection
    /// site in this driver inert, so chaos runs never poison
    /// simulations whose callers are not prepared to catch failures.
    fault_key: Option<u64>,
}

/// Σ/Π state and boundary caches exported from a (converged) simulation,
/// ready to seed a neighboring sweep point (see
/// [`Simulation::warm_start_from`]).
#[derive(Clone)]
pub struct WarmStartData {
    /// Converged electron scattering self-energies (atom-major, the
    /// layout the driver holds them in).
    pub sigma_l: GTensor,
    /// Greater component.
    pub sigma_g: GTensor,
    /// Converged phonon scattering self-energies.
    pub pi_l: DTensor,
    /// Greater component.
    pub pi_g: DTensor,
    /// Electron boundary cache (shared handle; cloned on import).
    pub el_bc: Option<Arc<BoundaryCache>>,
    /// Phonon boundary cache.
    pub ph_bc: Option<Arc<BoundaryCache>>,
}

impl WarmStartData {
    /// Approximate resident bytes (sweep-cache memory accounting).
    pub fn bytes(&self) -> usize {
        self.sigma_l.bytes()
            + self.sigma_g.bytes()
            + self.pi_l.bytes()
            + self.pi_g.bytes()
            + self.el_bc.as_ref().map_or(0, |c| c.bytes())
            + self.ph_bc.as_ref().map_or(0, |c| c.bytes())
    }
}

/// Why a [`Simulation::warm_start_from`] import was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmStartError {
    /// The donor's tensors were sized for different grids or a different
    /// device.
    ShapeMismatch(&'static str),
    /// The simulation already ran iterations; seeding would silently
    /// discard its own state.
    AlreadyRunning,
}

impl std::fmt::Display for WarmStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmStartError::ShapeMismatch(what) => {
                write!(
                    f,
                    "warm-start data incompatible with this simulation: {what}"
                )
            }
            WarmStartError::AlreadyRunning => {
                write!(f, "cannot warm-start a simulation that already iterated")
            }
        }
    }
}

impl std::error::Error for WarmStartError {}

impl Simulation {
    /// Builds the simulation (device assembly included), validating the
    /// configuration first — the only way to construct a driver, so no
    /// invalid configuration reaches solver code.
    pub fn new(config: SimulationConfig) -> Result<Simulation, ConfigError> {
        config.validate()?;
        let device = DeviceStructure::build(config.device.clone());
        let egrid = EnergyGrid::new(config.e_min, config.e_max, config.ne);
        let kgrid = MomentumGrid::new(config.nk);
        let fgrid = FrequencyGrid::new(egrid.de, config.nw);
        let vds = config.mu_source - config.mu_drain;
        let potential = device.linear_potential(vds, config.ramp.0, config.ramp.1);
        // The distributed executor pairs with the plan kernel: the SSE
        // phase *is* the inter-rank exchange, so the configured kernel
        // variant is superseded by the configured communication plan.
        let kernel: Box<dyn SseKernel> = match config.executor {
            ExecutorKind::Distributed { ranks } => {
                Box::new(omen_comm::PlanKernel::new(config.comm_plan, ranks))
            }
            _ => config.kernel.to_kernel(),
        };
        let caching = config.cache_mode != CacheMode::NoCache;
        let el_bc = caching.then(|| Arc::new(BoundaryCache::new(config.nk * config.ne)));
        let ph_bc = caching.then(|| Arc::new(BoundaryCache::new(config.nk * config.nw)));
        let rev_pair = omen_sse::compute_rev_pair(&device);
        Ok(Simulation {
            config,
            device,
            egrid,
            kgrid,
            fgrid,
            potential,
            kernel,
            ws_pool: WorkspacePool::new(),
            sigma_l: GTensor::default(),
            sigma_g: GTensor::default(),
            pi_l: DTensor::default(),
            pi_g: DTensor::default(),
            el_bc,
            ph_bc,
            seeded: false,
            rev_pair,
            iteration: 0,
            last_current: None,
            last_spectral: None,
            cancel: None,
            deadline: None,
            fault_key: None,
        })
    }

    /// Attaches a cooperative [`CancelToken`]: [`Simulation::run`]
    /// checks it between Born iterations and returns
    /// [`DriverError::Cancelled`] once it fires.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Sets a wall-clock deadline: [`Simulation::run`] returns
    /// [`DriverError::DeadlineExceeded`] at the first iteration boundary
    /// past it.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Arms the supervised NaN-poisoning fault site for this run with a
    /// caller-chosen key (see `omen-fault`). Only supervisors that
    /// handle [`DriverError::NonFinite`] — i.e. the sweep service's
    /// retry loop — should set this.
    pub fn set_fault_key(&mut self, key: u64) {
        self.fault_key = Some(key);
    }

    /// The validated configuration (read-only: mutating grid sizes or
    /// executor settings after construction would desynchronize the
    /// grids and tensors sized from them).
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Replaces the SSE kernel with a custom [`SseKernel`] implementation
    /// (the enum on the config covers the built-in three).
    pub fn set_kernel(&mut self, kernel: Box<dyn SseKernel>) {
        self.kernel = kernel;
    }

    /// The active SSE kernel.
    pub fn kernel(&self) -> &dyn SseKernel {
        &*self.kernel
    }

    /// Zeroed Σ^≷/Π^≷ tensors of this simulation's shape.
    fn zero_state(&self) -> (GTensor, GTensor, DTensor, DTensor) {
        let cfg = &self.config;
        zero_tensors(&self.device, cfg.nk, cfg.ne, cfg.nk, cfg.nw)
    }

    /// Born iterations completed so far (the driver owns the counter).
    pub fn iterations_done(&self) -> usize {
        self.iteration
    }

    /// Usage counters of the shared boundary caches `(electron, phonon)`,
    /// both leads together, or `None` under [`CacheMode::NoCache`].
    pub fn boundary_stats(&self) -> Option<(BoundaryCacheStats, BoundaryCacheStats)> {
        let both = |cache: &BoundaryCache| {
            let [l, r] = cache.stats();
            BoundaryCacheStats {
                hits: l.hits + r.hits,
                misses: l.misses + r.misses,
                iterations: l.iterations + r.iterations,
            }
        };
        match (&self.el_bc, &self.ph_bc) {
            (Some(e), Some(p)) => Some((both(e), both(p))),
            _ => None,
        }
    }

    /// Exports this simulation's converged Σ/Π state and boundary caches
    /// as a warm start for a neighboring sweep point.
    pub fn warm_start_data(&self) -> WarmStartData {
        let (sigma_l, sigma_g, pi_l, pi_g) = if self.sigma_l.as_slice().is_empty() {
            self.zero_state()
        } else {
            (
                self.sigma_l.clone(),
                self.sigma_g.clone(),
                self.pi_l.clone(),
                self.pi_g.clone(),
            )
        };
        WarmStartData {
            sigma_l,
            sigma_g,
            pi_l,
            pi_g,
            el_bc: self.el_bc.clone(),
            ph_bc: self.ph_bc.clone(),
        }
    }

    /// Seeds this (fresh) simulation from a neighboring sweep point's
    /// converged state:
    ///
    /// * the donor's Σ^≷/Π^≷ become the initial scattering self-energies,
    ///   so the first GF phase starts dressed instead of ballistic and the
    ///   Born loop converges in fewer iterations;
    /// * the donor's boundary caches carry over, each entry taken only
    ///   where this simulation's own blocks of that lead at that point
    ///   have the digest it was decimated from (see [`BoundaryCache`]).
    ///   A bias step keeps the source lead's blocks bitwise, so those
    ///   entries are reused and the drain lead is decimated afresh;
    ///   phonon leads never see bias, temperature or coupling.
    ///
    /// Convergence is still judged by this simulation's own tolerance
    /// against its own current history: seeding changes the starting
    /// point, not the fixed point.
    pub fn warm_start_from(&mut self, data: &WarmStartData) -> Result<(), WarmStartError> {
        if self.iteration > 0 {
            return Err(WarmStartError::AlreadyRunning);
        }
        let (cfg, dev) = (&self.config, &self.device);
        let (na, npairs) = (dev.num_atoms(), dev.neighbors.num_pairs());
        let sigma = (cfg.nk, cfg.ne, na, dev.material.norb, GLayout::AtomMajor);
        if [&data.sigma_l, &data.sigma_g]
            .iter()
            .any(|d| (d.nk, d.ne, d.na, d.norb, d.layout) != sigma)
        {
            return Err(WarmStartError::ShapeMismatch("electron Σ tensors"));
        }
        let pi = (cfg.nk, cfg.nw, npairs, na);
        if [&data.pi_l, &data.pi_g]
            .iter()
            .any(|q| (q.nq, q.nw, q.npairs, q.na) != pi)
        {
            return Err(WarmStartError::ShapeMismatch("phonon Π tensors"));
        }
        for (own, donor, what) in [
            (&self.el_bc, &data.el_bc, "electron boundary cache"),
            (&self.ph_bc, &data.ph_bc, "phonon boundary cache"),
        ] {
            if let (Some(own), Some(donor)) = (own, donor) {
                if own.len() != donor.len() {
                    return Err(WarmStartError::ShapeMismatch(what));
                }
            }
        }
        self.sigma_l.clone_from(&data.sigma_l);
        self.sigma_g.clone_from(&data.sigma_g);
        self.pi_l.clone_from(&data.pi_l);
        self.pi_g.clone_from(&data.pi_g);
        for (own, donor) in [
            (&mut self.el_bc, &data.el_bc),
            (&mut self.ph_bc, &data.ph_bc),
        ] {
            if let (Some(own), Some(donor)) = (own, donor) {
                *own = Arc::new(donor.fresh_clone());
            }
        }
        self.seeded = true;
        Ok(())
    }

    /// True when this simulation was seeded via
    /// [`Simulation::warm_start_from`].
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// The SSE problem bound to this simulation's grids and couplings.
    pub fn sse_problem(&self) -> SseProblem<'_> {
        sse_problem_of(
            &self.config,
            &self.device,
            &self.egrid,
            &self.kgrid,
            &self.fgrid,
            &self.rev_pair,
        )
    }

    fn electron_params(&self) -> ElectronParams {
        ElectronParams {
            eta: self.config.eta,
            mu_source: self.config.mu_source,
            mu_drain: self.config.mu_drain,
            kt: self.config.kt,
        }
    }

    fn phonon_params(&self) -> PhononParams {
        PhononParams {
            eta: self.config.eta_ph,
            kt: self.config.kt,
        }
    }

    /// Runs the GF phase with the configured executor: every `(kz, E)` and
    /// `(qz, ω)` point, returning the SSE input tensors plus the spectral
    /// observables.
    pub fn gf_phase(&self) -> GfPhaseOutput {
        self.gf_phase_with(&self.config.executor.engine())
    }

    /// Runs the GF phase through an explicit [`PointExecutor`].
    pub fn gf_phase_with<E: PointExecutor>(&self, exec: &E) -> GfPhaseOutput {
        let _phase = omen_trace::PhaseGuard::enter("gf_phase");
        let dev = &self.device;
        let cfg = &self.config;
        // Borrow the fields the worker factories need as locals: the
        // closures must not capture `self` (the kernel field is only
        // `Send`, and the factories have to be `Sync`).
        let potential = &self.potential;
        let kvals = self.kgrid.values();
        let evals = self.egrid.values();
        let fvals = self.fgrid.values();
        let ws_pool = &self.ws_pool;
        // Seeded simulations start dressed: the imported Σ/Π enter the
        // very first GF phase instead of a ballistic pass.
        let have_sigma = self.iteration > 0 || self.seeded;
        let w_e = self.egrid.weight() * self.kgrid.weight();
        let w_ph = self.fgrid.weight() * self.kgrid.weight();

        // --- electrons: row solves writing their units' slices in place ---
        let mut eobs = ElectronObservables::new(dev, cfg.nk, cfg.ne);
        let eparams = self.electron_params();
        let (sigma_l, sigma_g) = (&self.sigma_l, &self.sigma_g);
        let etimes = {
            let _span = omen_trace::span!("gf_electrons");
            let new_solver = || {
                ElectronSolver::new(
                    dev,
                    potential.clone(),
                    eparams,
                    cfg.cache_mode,
                    kvals.clone(),
                    evals.clone(),
                )
                .with_workspace_pool(ws_pool)
            };
            let scattering = have_sigma.then_some(SigmaScattering {
                dev,
                sigma_l,
                sigma_g,
            });
            let width = row_width(dev.block_size_el());
            sweep(
                exec,
                (cfg.nk, cfg.ne, width),
                new_solver,
                &self.el_bc,
                scattering.as_ref(),
                eobs.rows(dev, width),
            )
        };
        eobs.finish(dev, &evals, self.kgrid.weight(), w_e);

        // --- phonons ---
        let mut pobs = PhononObservables::new(dev, cfg.nk, cfg.nw);
        let pparams = self.phonon_params();
        let (pi_l, pi_g) = (&self.pi_l, &self.pi_g);
        let ptimes = {
            let _span = omen_trace::span!("gf_phonons");
            let new_solver = || {
                PhononSolver::new(dev, pparams, cfg.cache_mode, kvals.clone(), fvals.clone())
                    .with_workspace_pool(ws_pool)
            };
            let scattering = have_sigma.then_some(PiScattering { dev, pi_l, pi_g });
            let width = row_width(dev.block_size_ph());
            sweep(
                exec,
                (cfg.nk, cfg.nw, width),
                new_solver,
                &self.ph_bc,
                scattering.as_ref(),
                pobs.rows(dev, width),
            )
        };
        pobs.finish(dev, &fvals, self.kgrid.weight(), w_ph);

        let mut times = etimes;
        times.accumulate(&ptimes);
        let spectral = SpectralData {
            el_current_spectrum: eobs.el_current_spectrum,
            el_current: eobs.el_current,
            el_energy_current: eobs.el_energy_current,
            ph_energy_current: pobs.ph_energy_current,
            ph_energy_density: pobs.ph_energy_density,
            ph_dos: pobs.ph_dos,
            el_density: eobs.el_density,
            contact_currents: eobs.contacts,
        };
        GfPhaseOutput {
            g_l: eobs.g_l,
            g_g: eobs.g_g,
            d_l: pobs.d_l,
            d_g: pobs.d_g,
            spectral,
            times,
        }
    }

    /// Runs the configured SSE kernel on GF outputs. The output lives in
    /// the kernel's double buffer; it stays valid until the next call.
    pub fn sse_phase(
        &mut self,
        g_l: &GTensor,
        g_g: &GTensor,
        d_l: &DTensor,
        d_g: &DTensor,
    ) -> &omen_sse::SseOutput {
        let prob = sse_problem_of(
            &self.config,
            &self.device,
            &self.egrid,
            &self.kgrid,
            &self.fgrid,
            &self.rev_pair,
        );
        self.kernel.run(&prob, g_l, g_g, d_l, d_g)
    }

    /// One Born iteration with the configured executor; returns the record
    /// and the spectral data. The driver owns the iteration counter and
    /// the convergence baseline.
    pub fn iterate(&mut self) -> (IterationRecord, SpectralData) {
        self.iterate_with(&self.config.executor.engine())
    }

    /// One Born iteration through an explicit executor.
    pub fn iterate_with<E: PointExecutor>(&mut self, exec: &E) -> (IterationRecord, SpectralData) {
        let _span = omen_trace::span!("born_iteration");
        let gf = self.gf_phase_with(exec);
        self.finish_iteration(gf)
    }

    /// Completes a Born iteration whose GF phase already ran: the SSE
    /// kernel, self-energy mixing, and the convergence bookkeeping.
    ///
    /// This is [`Simulation::iterate_with`] split at the phase boundary,
    /// so a caller can hold, time or trace the GF phase's output before
    /// the SSE phase consumes it.
    pub fn finish_iteration(&mut self, gf: GfPhaseOutput) -> (IterationRecord, SpectralData) {
        let GfPhaseOutput {
            g_l,
            g_g,
            d_l,
            d_g,
            spectral,
            times: gf_times,
        } = gf;

        // The mixing step below is the state's first writer.
        if self.sigma_l.as_slice().is_empty() {
            (self.sigma_l, self.sigma_g, self.pi_l, self.pi_g) = self.zero_state();
        }
        let sse_trace = omen_trace::PhaseGuard::enter("sse_phase");
        let t0 = Instant::now();
        let sse_flops = self.sse_phase(&g_l, &g_g, &d_l, &d_g).flops;
        let sse_seconds = t0.elapsed().as_secs_f64();
        drop(sse_trace);
        // Re-borrowed through the field alone: the output stays in the
        // kernel's double buffer until the next run, and mixing below
        // needs the sibling fields mutably at the same time.
        let sse = self.kernel.state().output();

        // Mix the self-energies into the state.
        let mix = self.config.mixing;
        mix_g(&mut self.sigma_l, &sse.sigma_l, mix);
        mix_g(&mut self.sigma_g, &sse.sigma_g, mix);
        mix_d(&mut self.pi_l, &sse.pi_l, mix);
        mix_d(&mut self.pi_g, &sse.pi_g, mix);
        // Relative Σ^< change between consecutive kernel outputs — free
        // thanks to the kernel's double buffer.
        let sigma_rel_change = self.kernel.output_delta();

        let mid = spectral.el_current.len() / 2;
        let current = spectral.el_current[mid];
        let rel_change = match self.last_current {
            Some(prev) if prev.abs() > 1e-300 => ((current - prev) / prev).abs(),
            _ => f64::INFINITY,
        };
        omen_trace::add(omen_trace::Counter::BornIterations, 1);
        omen_trace::event2("convergence", self.iteration as f64, rel_change);
        let record = IterationRecord {
            iteration: self.iteration,
            current,
            current_profile: spectral.el_current.clone(),
            rel_change,
            gf_times,
            sse_seconds,
            sse_flops,
            sigma_rel_change,
        };
        self.iteration += 1;
        self.last_current = Some(current);
        // Cached so an exhausted `run` stays total from every entry point
        // (run, iterate, or iterate_with). The clone is microseconds
        // against the RGF sweep that produced it.
        self.last_spectral = Some(spectral.clone());
        (record, spectral)
    }

    /// Runs the full self-consistent loop with the configured executor.
    pub fn run(&mut self) -> Result<SimulationResult, DriverError> {
        self.run_with(&self.config.executor.engine())
    }

    /// Runs the full self-consistent loop through an explicit executor.
    ///
    /// The driver owns the iteration counter, so `run` continues where a
    /// previous `run`/[`Simulation::iterate`] left off. Once the cap is
    /// reached, further calls perform no work and return the last
    /// iteration's spectral data with an empty record list.
    ///
    /// Failure paths, all typed (no panics on the run path):
    /// [`DriverError::NonFinite`] when the current observable leaves the
    /// reals, [`DriverError::Cancelled`] / [`DriverError::DeadlineExceeded`]
    /// at iteration boundaries, [`DriverError::WarmDiverged`] when the
    /// seeded-run watchdog fires, and [`DriverError::Unconverged`] when
    /// the cap is hit under `require_convergence`.
    pub fn run_with<E: PointExecutor>(
        &mut self,
        exec: &E,
    ) -> Result<SimulationResult, DriverError> {
        let mut born = BornLoop::new(self);
        while born.admits(self) {
            let step = self.iterate_with(exec);
            born.judge(self, step);
        }
        born.finish(self)
    }
}

/// The Born loop's termination rule, kept apart from what runs an
/// iteration: [`Simulation::run_with`] drives it around whole iterations
/// of whichever executor it is handed.
pub(crate) struct BornLoop {
    records: Vec<IterationRecord>,
    spectral: Option<SpectralData>,
    /// Supervised NaN-poisoning fault site: one deterministic decision
    /// per (point, attempt) key, armed only by `set_fault_key`.
    inject_nan: bool,
    converged: bool,
    failure: Option<DriverError>,
}

impl BornLoop {
    /// Loop state for one `run` of `sim`.
    pub(crate) fn new(sim: &Simulation) -> BornLoop {
        let inject_nan = sim
            .fault_key
            .map(|k| omen_fault::should_inject(omen_fault::FaultSite::NanPoison, k))
            .unwrap_or(false);
        BornLoop {
            records: Vec::new(),
            spectral: None,
            inject_nan,
            converged: false,
            failure: None,
        }
    }

    /// Pre-iteration checks: `true` when another iteration may start —
    /// no verdict yet, the cap not reached, and neither the cancel token
    /// nor the deadline fired at this iteration boundary.
    pub(crate) fn admits(&mut self, sim: &Simulation) -> bool {
        if self.converged || self.failure.is_some() || sim.iteration >= sim.config.max_iterations {
            return false;
        }
        let iteration = sim.iteration;
        if sim.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.failure = Some(DriverError::Cancelled { iteration });
        } else if sim.deadline.is_some_and(|d| Instant::now() >= d) {
            self.failure = Some(DriverError::DeadlineExceeded { iteration });
        }
        self.failure.is_none()
    }

    /// Post-iteration verdict on the iteration `sim` just finished;
    /// `true` when the loop goes on.
    pub(crate) fn judge(
        &mut self,
        sim: &mut Simulation,
        (mut rec, spec): (IterationRecord, SpectralData),
    ) -> bool {
        if self.inject_nan && self.records.is_empty() {
            rec.current = f64::NAN;
            sim.last_current = Some(f64::NAN);
        }
        if !rec.current.is_finite() {
            self.failure = Some(DriverError::NonFinite {
                iteration: rec.iteration,
            });
            return false;
        }
        let cfg = &sim.config;
        let (iteration, rel_change) = (rec.iteration, rec.rel_change);
        self.converged = rel_change < cfg.tolerance && iteration > 0;
        self.records.push(rec);
        self.spectral = Some(spec);
        if sim.seeded
            && cfg.warm_divergence_after > 0
            && self.records.len() >= cfg.warm_divergence_after
            && rel_change.is_finite()
            && rel_change > cfg.warm_divergence_threshold
        {
            self.failure = Some(DriverError::WarmDiverged {
                iteration,
                rel_change,
            });
            return false;
        }
        !self.converged && sim.iteration < cfg.max_iterations
    }

    /// Resolves the loop into what `run` returns.
    pub(crate) fn finish(self, sim: &Simulation) -> Result<SimulationResult, DriverError> {
        if let Some(err) = self.failure {
            return Err(err);
        }
        if sim.config.require_convergence && !self.converged {
            if let Some(last) = self.records.last() {
                return Err(DriverError::Unconverged {
                    iterations: sim.iteration,
                    rel_change: last.rel_change,
                });
            }
        }
        // `max_iterations >= 1` is validated, so either this call or a
        // previous one has iterated; both leave `last_spectral` set. The
        // guard stays typed regardless — the run path does not panic.
        let spectral = self.spectral.or_else(|| sim.last_spectral.clone()).ok_or(
            DriverError::Unconverged {
                iterations: 0,
                rel_change: f64::INFINITY,
            },
        )?;
        Ok(SimulationResult {
            records: self.records,
            spectral,
        })
    }
}

/// [`Simulation::sse_problem`] over borrowed fields, for
/// [`Simulation::sse_phase`], which holds `&mut self.kernel` next to it.
fn sse_problem_of<'a>(
    cfg: &SimulationConfig,
    device: &'a DeviceStructure,
    egrid: &EnergyGrid,
    kgrid: &MomentumGrid,
    fgrid: &FrequencyGrid,
    rev_pair: &'a [usize],
) -> SseProblem<'a> {
    let scale_sigma = cfg.coupling * cfg.coupling * fgrid.weight() * kgrid.weight();
    let scale_pi = cfg.coupling * cfg.coupling * egrid.weight() * kgrid.weight();
    SseProblem {
        // The SSE tasks run on the sweep engine's worker count.
        workers: cfg.executor.engine().effective_threads(),
        ..SseProblem::with_rev_pair(
            device,
            cfg.nk,
            cfg.ne,
            cfg.nk,
            cfg.nw,
            scale_sigma,
            scale_pi,
            rev_pair,
        )
    }
}

/// One GF sweep of either carrier over its `nk × nx` grid. The unit of
/// work is `(k, chunk)`: `width` consecutive energies of one momentum
/// (the last chunk of a row may be shorter), whose view of the phase's
/// outputs is `rows[k · chunks + chunk]`. Every worker builds a solver on
/// the shared boundary cache and solves its units under this iteration's
/// scattering self-energies (`None` while ballistic) into their views;
/// returns the units' sub-phase timings summed in unit order.
fn sweep<'a, 'r, E, C, S>(
    exec: &E,
    (nk, nx, width): (usize, usize, usize),
    new_solver: impl Fn() -> PointSolver<'a, C> + Sync,
    boundary: &Option<Arc<BoundaryCache>>,
    scattering: Option<&S>,
    rows: Vec<Rows<'r, C>>,
) -> PhaseTimes
where
    E: PointExecutor,
    C: Carrier + Send,
    C::Spec: Send,
    S: Scattering + Sync,
    Rows<'r, C>: RowSink,
{
    let points = grid_points(nk, nx.div_ceil(width));
    let mut units: Vec<_> = points
        .into_iter()
        .zip(rows)
        .map(|(p, rows)| (p, rows, PhaseTimes::default()))
        .collect();
    let make_worker = || {
        let mut solver = new_solver();
        if let Some(cache) = boundary {
            solver = solver.with_shared_boundary(Arc::clone(cache));
        }
        move |((i, chunk), rows, times): &mut (GridPoint, Rows<'r, C>, PhaseTimes)| {
            let xs = *chunk * width..nx.min((*chunk + 1) * width);
            let scattering = scattering.map(|s| s as &dyn Scattering);
            *times = solver.solve_row(*i, xs, scattering, rows);
        }
    };
    exec.run(&mut units, make_worker);
    units
        .iter()
        .fold(PhaseTimes::default(), |mut sum, (_, _, t)| {
            sum.accumulate(t);
            sum
        })
}

/// `state ← (1 − mix)·state + mix·new`, elementwise: every kernel emits
/// `Σ^≷` in the state's atom-major layout.
fn mix_g(state: &mut GTensor, new: &GTensor, mix: f64) {
    let shape = |t: &GTensor| (t.nk, t.ne, t.na, t.norb, t.layout);
    assert_eq!(shape(state), shape(new), "Σ of another shape");
    for (s, n) in state.as_mut_slice().iter_mut().zip(new.as_slice()) {
        *s = s.scale(1.0 - mix) + n.scale(mix);
    }
}

fn mix_d(state: &mut DTensor, new: &DTensor, mix: f64) {
    for (s, n) in state.as_mut_slice().iter_mut().zip(new.as_slice()) {
        *s = s.scale(1.0 - mix) + n.scale(mix);
    }
}

/// Final output of [`Simulation::run`].
#[derive(Clone, Debug)]
pub struct SimulationResult {
    /// One record per Born iteration.
    pub records: Vec<IterationRecord>,
    /// Spectral data of the final iteration.
    pub spectral: SpectralData,
}

impl SimulationResult {
    /// The converged electrical current. When this run performed no
    /// iterations (a `run` after the cap), the value is read from the
    /// carried-over spectral data so it stays consistent with
    /// [`SimulationResult::spectral`].
    pub fn current(&self) -> f64 {
        self.records.last().map(|r| r.current).unwrap_or_else(|| {
            let prof = &self.spectral.el_current;
            if prof.is_empty() {
                0.0
            } else {
                prof[prof.len() / 2]
            }
        })
    }

    /// Convergence history of the current (Fig. 7b's x-axis).
    pub fn current_history(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.current).collect()
    }

    /// `true` if the final relative change *of this run* met the
    /// tolerance (`false` when the run performed no iterations).
    pub fn converged(&self, tolerance: f64) -> bool {
        self.records
            .last()
            .map(|r| r.rel_change < tolerance)
            .unwrap_or(false)
    }

    /// Max relative spread of the current profile (conservation check).
    /// Zero when no iterations ran (e.g. a `run` after the cap).
    pub fn current_nonuniformity(&self) -> f64 {
        let Some(last) = self.records.last() else {
            return 0.0;
        };
        let prof = &last.current_profile;
        let mean = prof.iter().sum::<f64>() / prof.len() as f64;
        if mean.abs() < 1e-300 {
            return 0.0;
        }
        prof.iter().map(|j| (j - mean).abs()).fold(0.0, f64::max) / mean.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelVariant;
    use omen_linalg::Normalization;
    use omen_rgf::LeadSelfEnergy;

    fn sim(cfg: SimulationConfig) -> Simulation {
        Simulation::new(cfg).expect("valid test config")
    }

    #[test]
    fn ballistic_iteration_conserves_current() {
        let mut cfg = SimulationConfig::tiny();
        cfg.coupling = 0.0; // ballistic: Σ stays zero
        cfg.max_iterations = 1;
        let result = sim(cfg).run().expect("run succeeds");
        assert!(result.current() > 0.0, "forward bias must drive current");
        assert!(
            result.current_nonuniformity() < 1e-3,
            "ballistic current must be conserved: {}",
            result.current_nonuniformity()
        );
        // Contact currents: left injects what right absorbs.
        let (il, ir) = result.spectral.contact_currents;
        assert!(il > 0.0);
        assert!(
            (il + ir).abs() < 1e-3 * il.abs(),
            "i_L = −i_R: {il} vs {ir}"
        );
    }

    #[test]
    fn scattering_changes_current_and_converges() {
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 14;
        let result = sim(cfg.clone()).run().expect("run succeeds");
        assert!(result.records.len() >= 2);
        // The self-consistent loop converges geometrically.
        let last = result.records.last().unwrap();
        assert!(
            last.rel_change < 1e-3,
            "Born loop drifting: rel change {}",
            last.rel_change
        );
        // Scattering current differs from ballistic.
        let mut cfg_b = cfg;
        cfg_b.coupling = 0.0;
        cfg_b.max_iterations = 1;
        let ballistic = sim(cfg_b).run().expect("run succeeds");
        // Scattering suppresses the ballistic current measurably.
        assert!(
            ballistic.current() - result.current() > 1e-3 * ballistic.current(),
            "SSE must suppress the current: {} vs ballistic {}",
            result.current(),
            ballistic.current()
        );
        // Current stays conserved within SCBA tolerance.
        assert!(
            result.current_nonuniformity() < 5e-3,
            "current profile spread {}",
            result.current_nonuniformity()
        );
    }

    #[test]
    fn kernel_variants_agree() {
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 2;
        let run = |kernel, executor, comm_plan| {
            let mut c = cfg.clone();
            (c.kernel, c.executor, c.comm_plan) = (kernel, executor, comm_plan);
            let mut s = sim(c);
            let current = s.run().expect("run succeeds").current();
            // Every kernel emits Σ^≷ in the layout the driver mixes.
            let (name, out) = (s.kernel().name(), s.kernel().state().output());
            for sigma in [&out.sigma_l, &out.sigma_g] {
                assert_eq!(sigma.layout, GLayout::AtomMajor, "{name} Σ layout");
            }
            current
        };
        let local = |kernel| run(kernel, ExecutorKind::Serial, cfg.comm_plan);
        let reference = local(KernelVariant::Reference);
        let transformed = local(KernelVariant::Transformed);
        let mixed = local(KernelVariant::Mixed(Normalization::PerTensor));
        assert!(
            ((transformed - reference) / reference).abs() < 1e-10,
            "transformed {transformed} vs reference {reference}"
        );
        for plan in [omen_comm::CommPlan::Omen, omen_comm::CommPlan::Dace] {
            let ranks = ExecutorKind::Distributed { ranks: 2 };
            let planned = run(KernelVariant::Transformed, ranks, plan);
            assert!(
                ((planned - reference) / reference).abs() < 1e-10,
                "{} plan {planned} vs reference {reference}",
                plan.name()
            );
        }
        assert!(
            ((mixed - reference) / reference).abs() < 1e-3,
            "mixed {mixed} vs reference {reference}"
        );
    }

    #[test]
    fn zero_bias_zero_current() {
        let mut cfg = SimulationConfig::tiny();
        cfg.mu_drain = cfg.mu_source;
        cfg.max_iterations = 2;
        let result = sim(cfg).run().expect("run succeeds");
        let scale = result
            .spectral
            .el_current_spectrum
            .iter()
            .flat_map(|v| v.iter())
            .map(|j| j.abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        assert!(
            result.current().abs() < 1e-6 * scale.max(1.0),
            "zero bias current {}",
            result.current()
        );
    }

    #[test]
    fn phonon_energy_density_positive() {
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 2;
        let result = sim(cfg).run().expect("run succeeds");
        // Thermal occupation of phonon modes is non-negative everywhere.
        for (a, &u) in result.spectral.ph_energy_density.iter().enumerate() {
            assert!(u >= -1e-9, "atom {a}: phonon energy density {u}");
        }
        // DOS rows populated.
        assert!(result
            .spectral
            .ph_dos
            .iter()
            .all(|row| row.iter().any(|&d| d > 0.0)));
    }

    #[test]
    fn driver_owns_iteration_counter() {
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 3;
        let mut s = sim(cfg);
        assert_eq!(s.iterations_done(), 0);
        let (r0, _) = s.iterate();
        assert_eq!(r0.iteration, 0);
        assert!(r0.rel_change.is_infinite(), "no baseline on iteration 0");
        let (r1, _) = s.iterate();
        assert_eq!(r1.iteration, 1);
        assert!(r1.rel_change.is_finite());
        assert_eq!(s.iterations_done(), 2);
        // `run` continues from the counter — records pick up at 2.
        let result = s.run().expect("run succeeds");
        assert_eq!(result.records.first().unwrap().iteration, 2);
    }

    #[test]
    fn custom_kernel_plugs_in() {
        // A pass-through wrapper renaming the inner kernel.
        struct Tagged(omen_sse::TransformedKernel);
        impl omen_sse::SseKernel for Tagged {
            fn name(&self) -> &'static str {
                "tagged"
            }
            fn run(
                &mut self,
                prob: &omen_sse::SseProblem,
                g_l: &GTensor,
                g_g: &GTensor,
                d_l: &DTensor,
                d_g: &DTensor,
            ) -> &omen_sse::SseOutput {
                self.0.run(prob, g_l, g_g, d_l, d_g)
            }
            fn state(&self) -> &omen_sse::KernelState {
                self.0.state()
            }
            fn state_mut(&mut self) -> &mut omen_sse::KernelState {
                self.0.state_mut()
            }
        }
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 2;
        let baseline = sim(cfg.clone()).run().expect("run succeeds").current();
        let mut s = sim(cfg);
        s.set_kernel(Box::new(Tagged(omen_sse::TransformedKernel::new())));
        assert_eq!(s.kernel().name(), "tagged");
        let current = s.run().expect("run succeeds").current();
        assert_eq!(current, baseline, "pass-through kernel is transparent");
    }

    #[test]
    fn warm_start_matches_cold_with_fewer_iterations() {
        let cfg = SimulationConfig::tiny();
        let mut cold = sim(cfg.clone());
        let cold_result = cold.run().expect("run succeeds");
        let cold_iters = cold_result.records.len();
        assert!(cold_iters >= 3, "cold run must do real work");
        let data = cold.warm_start_data();
        assert!(data.bytes() > 0);

        let mut warm = sim(cfg);
        assert!(!warm.is_seeded());
        warm.warm_start_from(&data).expect("shapes match");
        assert!(warm.is_seeded());
        let warm_result = warm.run().expect("run succeeds");
        let warm_iters = warm_result.records.len();
        assert!(
            warm_iters < cold_iters,
            "warm start must save Born iterations: {warm_iters} vs {cold_iters}"
        );
        let rel = ((warm_result.current() - cold_result.current()) / cold_result.current()).abs();
        assert!(
            rel < 5.0 * cfg_tolerance(),
            "warm current must match cold: rel diff {rel}"
        );
        // The kernel double buffer reports Σ^< deltas from the second
        // kernel invocation on.
        if warm_result.records.len() >= 2 {
            assert!(warm_result.records[1].sigma_rel_change.is_some());
        }
    }

    fn cfg_tolerance() -> f64 {
        SimulationConfig::tiny().tolerance
    }

    #[test]
    fn cancelled_token_interrupts_run_before_work() {
        let mut s = sim(SimulationConfig::tiny());
        let token = CancelToken::new();
        s.set_cancel_token(token.clone());
        assert!(!token.is_cancelled());
        token.cancel();
        assert_eq!(s.run().err(), Some(DriverError::Cancelled { iteration: 0 }));
        assert_eq!(s.iterations_done(), 0, "no iteration may start");
    }

    #[test]
    fn expired_deadline_interrupts_run() {
        let mut s = sim(SimulationConfig::tiny());
        s.set_deadline(Instant::now());
        assert_eq!(
            s.run().err(),
            Some(DriverError::DeadlineExceeded { iteration: 0 })
        );
    }

    #[test]
    fn require_convergence_turns_cap_into_typed_error() {
        let mut cfg = SimulationConfig::tiny();
        cfg.max_iterations = 2;
        cfg.tolerance = 1e-14; // unreachable in 2 iterations
        cfg.require_convergence = true;
        match sim(cfg).run() {
            Err(DriverError::Unconverged {
                iterations,
                rel_change,
            }) => {
                assert_eq!(iterations, 2);
                assert!(rel_change > 1e-14);
            }
            other => panic!("expected Unconverged, got {other:?}"),
        }
    }

    #[test]
    fn nan_donor_yields_nonfinite_error_not_panic() {
        let mut donor = sim(SimulationConfig::tiny());
        donor.run().expect("run succeeds");
        let mut data = donor.warm_start_data();
        // Corrupt the donor the way a bad deposit would: poison Σ^<.
        data.sigma_l.as_mut_slice()[0] = omen_linalg::c64(f64::NAN, 0.0);
        let mut warm = sim(SimulationConfig::tiny());
        warm.warm_start_from(&data).expect("shapes match");
        match warm.run() {
            Err(DriverError::NonFinite { .. }) => {}
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn warm_divergence_watchdog_fires_on_seeded_runs_only() {
        let mut donor = sim(SimulationConfig::tiny());
        donor.run().expect("run succeeds");
        let data = donor.warm_start_data();

        // An absurdly tight bound makes any still-converging seeded run
        // trip the watchdog — the mechanism under test, not the donor.
        let mut cfg = SimulationConfig::tiny();
        cfg.mu_drain += 0.05; // move the fixed point so iteration continues
        cfg.warm_divergence_after = 2;
        cfg.warm_divergence_threshold = 1e-12;
        let mut warm = sim(cfg.clone());
        warm.warm_start_from(&data).expect("shapes match");
        match warm.run() {
            Err(DriverError::WarmDiverged { iteration, .. }) => {
                assert!(iteration >= 1);
            }
            other => panic!("expected WarmDiverged, got {other:?}"),
        }

        // The same config unseeded never raises WarmDiverged.
        let mut cold = sim(cfg);
        assert!(cold.run().is_ok());
    }

    #[test]
    fn warm_start_rejects_mismatched_shapes_and_running_sims() {
        let mut donor = sim(SimulationConfig::tiny());
        donor.run().expect("run succeeds");
        let data = donor.warm_start_data();

        // A different energy grid cannot absorb the donor's tensors.
        let mut other_cfg = SimulationConfig::tiny();
        other_cfg.ne += 2;
        let mut other = sim(other_cfg);
        assert!(matches!(
            other.warm_start_from(&data),
            Err(WarmStartError::ShapeMismatch(_))
        ));

        // Every tensor is checked, the electron layout included: a donor
        // whose Σ^> or Π^> has other dimensions, or whose Σ^< is
        // tagged pair-major, is refused and leaves the simulation unseeded.
        let s = &data.sigma_l;
        let (nk, ne, na, norb) = (s.nk, s.ne, s.na, s.norb);
        let p = &data.pi_g;
        let mut pair_major = data.clone();
        pair_major.sigma_l.layout = GLayout::PairMajor;
        let donors = [
            WarmStartData {
                sigma_g: GTensor::zeros(nk, ne + 1, na, norb),
                ..data.clone()
            },
            WarmStartData {
                pi_g: DTensor::zeros(p.nq, p.nw + 1, p.npairs, p.na),
                ..data.clone()
            },
            pair_major,
        ];
        for donor in &donors {
            let mut fresh = sim(SimulationConfig::tiny());
            assert!(matches!(
                fresh.warm_start_from(donor),
                Err(WarmStartError::ShapeMismatch(_))
            ));
            assert!(!fresh.is_seeded());
        }

        // A simulation that already iterated refuses the seed.
        let mut running = sim(SimulationConfig::tiny());
        running.iterate();
        assert!(matches!(
            running.warm_start_from(&data),
            Err(WarmStartError::AlreadyRunning)
        ));
    }

    #[test]
    fn shared_boundary_cache_hits_after_first_iteration() {
        let cfg = SimulationConfig::tiny();
        let nbc_el = (cfg.nk * cfg.ne) as u64;
        let nbc_ph = (cfg.nk * cfg.nw) as u64;
        let mut s = sim(cfg);
        s.iterate();
        // One entry per point per lead, each decimated once …
        let (el0, ph0) = s.boundary_stats().expect("caching config");
        assert_eq!((el0.hits, el0.misses), (0, 2 * nbc_el));
        assert_eq!((ph0.hits, ph0.misses), (0, 2 * nbc_ph));
        s.iterate();
        // … and the second Born iteration re-reads every one of them.
        for (cache, n) in [(&s.el_bc, nbc_el), (&s.ph_bc, nbc_ph)] {
            for lead in lead_stats(cache) {
                assert_eq!((lead.hits, lead.misses), (n, n), "no recomputation");
            }
        }
    }

    /// Per-lead counters of one of `sim`'s boundary caches.
    fn lead_stats(cache: &Option<Arc<BoundaryCache>>) -> [BoundaryCacheStats; 2] {
        cache.as_ref().expect("caching config").stats()
    }

    /// Every electron entry of `sim`'s cache, left and right per point.
    /// The reads count as hits, so take a simulation's counters first.
    fn electron_boundaries(sim: &Simulation) -> Vec<[Arc<LeadSelfEnergy>; 2]> {
        let cache = sim.el_bc.as_ref().expect("caching config");
        let entry = |lead, key| {
            let checked = || panic!("a resolved entry is this simulation's own");
            cache
                .get(lead, key, checked)
                .expect("every point was solved")
        };
        (0..cache.len())
            .map(|key| [entry(0, key), entry(1, key)])
            .collect()
    }

    /// Asserts that two simulations hold the same electron entries, bit
    /// for bit.
    fn assert_same_electron_boundaries(a: &Simulation, b: &Simulation) {
        let (a, b) = (electron_boundaries(a), electron_boundaries(b));
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(a.sigma.as_slice(), b.sigma.as_slice());
            assert_eq!((a.iterations, a.digest), (b.iterations, b.digest));
        }
    }

    /// A simulation of `cfg` warm-started from `data`, after its first
    /// GF phase.
    fn warm_gf_phase(cfg: SimulationConfig, data: &WarmStartData) -> (Simulation, GfPhaseOutput) {
        let mut warm = sim(cfg);
        warm.warm_start_from(data).expect("shapes match");
        let gf = warm.gf_phase();
        (warm, gf)
    }

    #[test]
    fn bias_step_warm_start_decimates_only_the_drain_lead() {
        let mut donor = sim(SimulationConfig::tiny());
        donor.run().expect("run succeeds");
        let data = donor.warm_start_data();

        // A bias step as the sweep service takes one: the source potential
        // moves, and with it the drain side of the linear potential. The
        // source lead's blocks stay bitwise unchanged.
        let mut cfg = SimulationConfig::tiny();
        cfg.mu_source += 0.01;
        let (warm, _) = warm_gf_phase(cfg.clone(), &data);
        let cold = sim(cfg);
        cold.gf_phase();
        let (el, ph) = (lead_stats(&warm.el_bc), lead_stats(&warm.ph_bc));
        let npoints = (warm.config.nk * warm.config.ne) as u64;
        let [source, drain] = el;
        assert_eq!((source.hits, source.misses), (npoints, 0), "source lead");
        assert_eq!((drain.hits, drain.misses), (0, npoints), "drain lead");
        // Every electron entry is the one a cold run at this bias holds …
        assert_same_electron_boundaries(&warm, &cold);
        // … while phonon leads carry over exactly (pure hits).
        let nph = (warm.config.nk * warm.config.nw) as u64;
        for lead in ph {
            assert_eq!((lead.hits, lead.misses), (nph, 0), "phonon lead");
        }
    }

    #[test]
    fn warm_start_refuses_a_donor_for_exactly_the_leads_it_differs_in() {
        // (donor change, electron leads reused, phonon leads reused). A
        // wider window has another energy step, so other frequencies too,
        // and no energy in common with this one (a shared one would
        // rightly be reused); a drain-side shift of the potential moves
        // only the drain lead's blocks.
        let base = SimulationConfig::tiny();
        let mut temperature = base.clone();
        temperature.kt += 0.005;
        let mut window = base.clone();
        (window.e_min, window.e_max) = (base.e_min - 0.1, base.e_max + 0.1);
        let mut eta = base.clone();
        eta.eta *= 2.0;
        let mut drain = base.clone();
        drain.mu_drain -= 0.01;
        let cases = [
            (temperature, [true, true], true),
            (window, [false, false], false),
            (eta, [false, false], true),
            (drain, [true, false], true),
        ];
        let cold = sim(base.clone());
        let cold_gf = cold.gf_phase();
        let (nel, nph) = ((base.nk * base.ne) as u64, (base.nk * base.nw) as u64);
        for (donor_cfg, el_reused, ph_reused) in cases {
            let mut donor = sim(donor_cfg.clone());
            donor.run().expect("run succeeds");
            let data = donor.warm_start_data();
            let (warm, gf) = warm_gf_phase(base.clone(), &data);
            let why = format!("donor {donor_cfg:?}");
            let expect = |reused: bool, n: u64| if reused { (n, 0) } else { (0, n) };
            for (lead, reused) in lead_stats(&warm.el_bc).iter().zip(el_reused) {
                let got = (lead.hits, lead.misses);
                assert_eq!(got, expect(reused, nel), "{why}: electrons");
            }
            for lead in lead_stats(&warm.ph_bc) {
                let got = (lead.hits, lead.misses);
                assert_eq!(got, expect(ph_reused, nph), "{why}: phonons");
            }
            // Every entry is a cold run's, so the donor's caches change no
            // bit of the phase: it is the phase of the same seed without
            // them.
            assert_same_electron_boundaries(&warm, &cold);
            let seed_only = WarmStartData {
                el_bc: None,
                ph_bc: None,
                ..data.clone()
            };
            let (_, want) = warm_gf_phase(base.clone(), &seed_only);
            assert_eq!(gf.g_l.as_slice(), want.g_l.as_slice(), "{why}");
            assert_eq!(gf.d_g.as_slice(), want.d_g.as_slice(), "{why}");
            let bits = |j: &[f64]| j.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let current = bits(&gf.spectral.el_current);
            assert_eq!(current, bits(&want.spectral.el_current), "{why}");
            assert_ne!(current, bits(&cold_gf.spectral.el_current), "{why}: seeded");
        }
    }
}
