//! Validated simulation construction: [`SimulationConfig`],
//! [`SimulationBuilder`], and [`ConfigError`].
//!
//! Bare struct literals made it possible to hand the driver configurations
//! that panic deep inside grid or solver code (`ne = 0`, inverted energy
//! windows, mixing factors outside `(0, 1]`, …). Construction now goes
//! through [`SimulationBuilder::build`] (or [`Simulation::new`], which
//! validates the same way) and every invalid input surfaces as a typed
//! [`ConfigError`] instead of a panic.
//!
//! [`Simulation::new`]: crate::driver::Simulation::new

use crate::executor::ExecutorKind;
use omen_comm::{grid_for_ranks, tiling_for_ranks, CommPlan};
use omen_device::DeviceConfig;
use omen_linalg::Normalization;
use omen_rgf::CacheMode;
use omen_sse::{MixedConfig, MixedKernel, ReferenceKernel, SseKernel, TransformedKernel};

/// Which SSE kernel the simulation runs (§5.3–5.4 / Table 10 / Fig. 7).
///
/// This is the enum-shaped convenience selector kept on the config; the
/// driver dispatches through the [`SseKernel`] trait, and custom kernels
/// plug in via [`crate::driver::Simulation::set_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelVariant {
    /// OMEN-style reference loops.
    Reference,
    /// DaCe-transformed kernel.
    Transformed,
    /// Mixed-precision (binary16) kernel with the given normalization.
    Mixed(Normalization),
}

impl KernelVariant {
    /// Constructs the trait-object kernel this variant names.
    pub fn to_kernel(self) -> Box<dyn SseKernel> {
        match self {
            KernelVariant::Reference => Box::new(ReferenceKernel::new()),
            KernelVariant::Transformed => Box::new(TransformedKernel::new()),
            KernelVariant::Mixed(normalization) => {
                Box::new(MixedKernel::new(MixedConfig { normalization }))
            }
        }
    }
}

/// Full configuration of a simulation.
#[derive(Clone, Debug)]
pub struct SimulationConfig {
    /// Device geometry/material.
    pub device: DeviceConfig,
    /// Momentum points (`Nkz = Nqz`).
    pub nk: usize,
    /// Energy points (`NE`).
    pub ne: usize,
    /// Phonon frequency points (`Nω`).
    pub nw: usize,
    /// Energy window (eV).
    pub e_min: f64,
    /// Upper edge of the energy window (eV).
    pub e_max: f64,
    /// Source chemical potential (eV).
    pub mu_source: f64,
    /// Drain chemical potential (eV); `Vds = mu_source − mu_drain`.
    pub mu_drain: f64,
    /// Contact temperature `k_B·T` (eV).
    pub kt: f64,
    /// Electron-phonon coupling strength (dimensionless prefactor).
    pub coupling: f64,
    /// Born iteration cap.
    pub max_iterations: usize,
    /// Relative current-change convergence threshold.
    pub tolerance: f64,
    /// Linear mixing factor on the self-energies (1 = no damping).
    pub mixing: f64,
    /// SSE kernel.
    pub kernel: KernelVariant,
    /// GF-phase point executor.
    pub executor: ExecutorKind,
    /// SSE communication scheme used by [`ExecutorKind::Distributed`]
    /// (ignored by every other executor): OMEN's round-based replication
    /// or the data-centric `Alltoallv` redistribution.
    pub comm_plan: CommPlan,
    /// GF-phase caching policy (§7.1.2).
    pub cache_mode: CacheMode,
    /// Electron broadening (eV).
    pub eta: f64,
    /// Phonon broadening (energy units).
    pub eta_ph: f64,
    /// Potential ramp `(x_on, x_off)` as fractions of the device length.
    pub ramp: (f64, f64),
    /// When `true`, [`Simulation::run`] returns
    /// [`DriverError::Unconverged`] if the iteration cap is reached
    /// before the tolerance is met (the default `false` keeps the
    /// legacy best-effort behavior: the cap is a budget, not a promise).
    ///
    /// [`Simulation::run`]: crate::driver::Simulation::run
    /// [`DriverError::Unconverged`]: crate::driver::DriverError::Unconverged
    pub require_convergence: bool,
    /// Warm-start divergence watchdog: after this many Born iterations a
    /// *seeded* run whose relative current change still exceeds
    /// [`SimulationConfig::warm_divergence_threshold`] fails with
    /// [`DriverError::WarmDiverged`], so the caller can quarantine the
    /// donor and restart cold. `0` disables the check (the default).
    ///
    /// [`DriverError::WarmDiverged`]: crate::driver::DriverError::WarmDiverged
    pub warm_divergence_after: usize,
    /// Relative-change bound the watchdog compares against. A healthy
    /// warm start contracts geometrically from the first iteration; a
    /// poisoned donor keeps the current swinging by O(1) factors.
    pub warm_divergence_threshold: f64,
}

impl SimulationConfig {
    /// A stable laptop-scale configuration on the `tiny` device.
    pub fn tiny() -> SimulationConfig {
        SimulationConfig {
            device: DeviceConfig::tiny(),
            nk: 2,
            ne: 24,
            nw: 2,
            e_min: -1.2,
            e_max: 1.2,
            mu_source: 0.3,
            mu_drain: 0.0,
            kt: 0.025,
            coupling: 0.005,
            max_iterations: 12,
            tolerance: 1e-4,
            mixing: 0.6,
            kernel: KernelVariant::Transformed,
            executor: ExecutorKind::default(),
            comm_plan: CommPlan::Omen,
            cache_mode: CacheMode::CacheBcSpec,
            eta: 1e-5,
            eta_ph: 2e-5,
            ramp: (0.3, 0.7),
            require_convergence: false,
            warm_divergence_after: 0,
            warm_divergence_threshold: 10.0,
        }
    }

    /// The electro-thermal demonstrator (Fig. 11 scale-down).
    pub fn demo() -> SimulationConfig {
        SimulationConfig {
            device: DeviceConfig::demo(),
            nk: 3,
            ne: 48,
            nw: 3,
            ..SimulationConfig::tiny()
        }
    }

    /// A builder seeded with this configuration.
    pub fn into_builder(self) -> SimulationBuilder {
        SimulationBuilder { config: self }
    }

    /// A builder seeded with [`SimulationConfig::tiny`].
    pub fn builder() -> SimulationBuilder {
        SimulationConfig::tiny().into_builder()
    }

    /// Checks every invariant the driver relies on.
    ///
    /// Comparisons are written in negated form (`!(x > 0.0)`) on purpose:
    /// NaN fails every ordering, so the negation rejects NaN inputs too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), ConfigError> {
        let dev = &self.device;
        if dev.nx == 0 || dev.ny == 0 || dev.norb == 0 {
            return Err(ConfigError::EmptyDevice {
                nx: dev.nx,
                ny: dev.ny,
                norb: dev.norb,
            });
        }
        if dev.cols_per_slab == 0 || dev.nx / dev.cols_per_slab < 2 {
            return Err(ConfigError::TooFewSlabs {
                nx: dev.nx,
                cols_per_slab: dev.cols_per_slab,
            });
        }
        if self.nk == 0 {
            return Err(ConfigError::EmptyGrid { grid: "nk" });
        }
        if self.ne < 2 {
            return Err(ConfigError::EmptyGrid { grid: "ne" });
        }
        if self.nw == 0 {
            return Err(ConfigError::EmptyGrid { grid: "nw" });
        }
        if self.ne <= self.nw {
            return Err(ConfigError::StencilTooWide {
                ne: self.ne,
                nw: self.nw,
            });
        }
        if !(self.e_min < self.e_max) {
            return Err(ConfigError::EmptyEnergyWindow {
                e_min: self.e_min,
                e_max: self.e_max,
            });
        }
        if !(self.mixing > 0.0 && self.mixing <= 1.0) {
            return Err(ConfigError::InvalidMixing {
                mixing: self.mixing,
            });
        }
        if self.max_iterations == 0 {
            return Err(ConfigError::NoIterations);
        }
        if !(self.tolerance > 0.0) || !self.tolerance.is_finite() {
            return Err(ConfigError::InvalidTolerance {
                tolerance: self.tolerance,
            });
        }
        if !(self.kt > 0.0) {
            return Err(ConfigError::InvalidTemperature { kt: self.kt });
        }
        if !(self.coupling >= 0.0) {
            return Err(ConfigError::InvalidCoupling {
                coupling: self.coupling,
            });
        }
        if !(self.eta > 0.0) || !(self.eta_ph > 0.0) {
            return Err(ConfigError::InvalidBroadening {
                eta: self.eta,
                eta_ph: self.eta_ph,
            });
        }
        let (on, off) = self.ramp;
        if !(0.0 <= on && on < off && off <= 1.0) {
            return Err(ConfigError::InvalidRamp { on, off });
        }
        if let ExecutorKind::Distributed { ranks } = self.executor {
            if ranks == 0 {
                return Err(ConfigError::NoRanks);
            }
            if grid_for_ranks(self.nk, self.ne, ranks).is_none() {
                return Err(ConfigError::RanksDontFit {
                    ranks,
                    nk: self.nk,
                    ne: self.ne,
                });
            }
            let na = dev.num_atoms();
            if self.comm_plan == CommPlan::Dace && tiling_for_ranks(na, self.ne, ranks).is_none() {
                return Err(ConfigError::TilesDontFit {
                    ranks,
                    na,
                    ne: self.ne,
                });
            }
        }
        if !(self.warm_divergence_threshold > 0.0) || !self.warm_divergence_threshold.is_finite() {
            return Err(ConfigError::InvalidDivergenceBound {
                threshold: self.warm_divergence_threshold,
            });
        }
        Ok(())
    }
}

/// Rejected configurations, by invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Device has a zero dimension.
    EmptyDevice {
        /// Columns along transport.
        nx: usize,
        /// Rows across the fin.
        ny: usize,
        /// Orbitals per atom.
        norb: usize,
    },
    /// Fewer than two RGF slabs (boundary blocks need two).
    TooFewSlabs {
        /// Columns along transport.
        nx: usize,
        /// Columns per slab.
        cols_per_slab: usize,
    },
    /// A point grid is empty (or, for `ne`, below the two-point minimum).
    EmptyGrid {
        /// Which grid (`"nk"`, `"ne"`, `"nw"`).
        grid: &'static str,
    },
    /// The `E ± ℏω` stencil radius `nw` does not fit in `ne` points.
    StencilTooWide {
        /// Energy points.
        ne: usize,
        /// Frequency points (stencil radius).
        nw: usize,
    },
    /// `e_min < e_max` violated.
    EmptyEnergyWindow {
        /// Lower edge (eV).
        e_min: f64,
        /// Upper edge (eV).
        e_max: f64,
    },
    /// Mixing factor outside `(0, 1]`.
    InvalidMixing {
        /// Offending value.
        mixing: f64,
    },
    /// `max_iterations == 0`.
    NoIterations,
    /// Convergence tolerance not a positive finite number.
    InvalidTolerance {
        /// Offending value.
        tolerance: f64,
    },
    /// Contact temperature not positive.
    InvalidTemperature {
        /// Offending value (eV).
        kt: f64,
    },
    /// Negative (or NaN) electron-phonon coupling.
    InvalidCoupling {
        /// Offending value.
        coupling: f64,
    },
    /// Non-positive broadening would put poles on the real axis.
    InvalidBroadening {
        /// Electron broadening (eV).
        eta: f64,
        /// Phonon broadening.
        eta_ph: f64,
    },
    /// Potential ramp not `0 ≤ on < off ≤ 1`.
    InvalidRamp {
        /// Ramp start (fraction).
        on: f64,
        /// Ramp end (fraction).
        off: f64,
    },
    /// Rank-decomposed executor with zero ranks.
    NoRanks,
    /// No `gk × ge` process grid with exactly `ranks` ranks fits the
    /// `nk × ne` point set (e.g. a prime rank count exceeding both).
    RanksDontFit {
        /// Requested rank count.
        ranks: usize,
        /// Momentum points.
        nk: usize,
        /// Energy points.
        ne: usize,
    },
    /// The DaCe plan needs a `ta × te` atom × energy tiling with exactly
    /// `ranks` tiles, and none fits the `na × ne` point set.
    TilesDontFit {
        /// Requested rank count.
        ranks: usize,
        /// Atoms.
        na: usize,
        /// Energy points.
        ne: usize,
    },
    /// Warm-divergence threshold not a positive finite number.
    InvalidDivergenceBound {
        /// Offending value.
        threshold: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyDevice { nx, ny, norb } => write!(
                f,
                "device has a zero dimension (nx = {nx}, ny = {ny}, norb = {norb})"
            ),
            ConfigError::TooFewSlabs { nx, cols_per_slab } => write!(
                f,
                "need at least 2 transport slabs: nx = {nx}, cols_per_slab = {cols_per_slab}"
            ),
            ConfigError::EmptyGrid { grid } => {
                write!(f, "point grid `{grid}` is empty (ne needs ≥ 2 points)")
            }
            ConfigError::StencilTooWide { ne, nw } => write!(
                f,
                "energy window must exceed the phonon stencil radius: ne = {ne} ≤ nw = {nw}"
            ),
            ConfigError::EmptyEnergyWindow { e_min, e_max } => {
                write!(f, "empty energy window: e_min = {e_min} ≥ e_max = {e_max}")
            }
            ConfigError::InvalidMixing { mixing } => {
                write!(f, "mixing factor must satisfy 0 < mixing ≤ 1, got {mixing}")
            }
            ConfigError::NoIterations => write!(f, "max_iterations must be ≥ 1"),
            ConfigError::InvalidTolerance { tolerance } => {
                write!(f, "tolerance must be positive and finite, got {tolerance}")
            }
            ConfigError::InvalidTemperature { kt } => {
                write!(f, "contact temperature must be positive, got kt = {kt} eV")
            }
            ConfigError::InvalidCoupling { coupling } => {
                write!(f, "electron-phonon coupling must be ≥ 0, got {coupling}")
            }
            ConfigError::InvalidBroadening { eta, eta_ph } => write!(
                f,
                "broadenings must be positive: eta = {eta}, eta_ph = {eta_ph}"
            ),
            ConfigError::InvalidRamp { on, off } => write!(
                f,
                "potential ramp must satisfy 0 ≤ on < off ≤ 1, got ({on}, {off})"
            ),
            ConfigError::NoRanks => write!(f, "rank-decomposed executor needs ≥ 1 rank"),
            ConfigError::RanksDontFit { ranks, nk, ne } => {
                write!(f, "no {ranks}-rank process grid fits nk = {nk}, ne = {ne}")
            }
            ConfigError::TilesDontFit { ranks, na, ne } => {
                write!(f, "no {ranks}-rank atom tiling fits na = {na}, ne = {ne}")
            }
            ConfigError::InvalidDivergenceBound { threshold } => write!(
                f,
                "warm-divergence threshold must be positive and finite, got {threshold}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validated construction of a [`crate::driver::Simulation`].
///
/// ```
/// use omen_core::{ExecutorKind, KernelVariant, SimulationConfig};
///
/// let sim = SimulationConfig::builder()
///     .nk(2)
///     .ne(24)
///     .bias(0.3, 0.0)
///     .kernel(KernelVariant::Transformed)
///     .executor(ExecutorKind::Rayon { threads: 0 })
///     .build()
///     .expect("valid configuration");
/// assert_eq!(sim.config().nk, 2);
/// ```
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    config: SimulationConfig,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationConfig::builder()
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        }
    };
}

impl SimulationBuilder {
    setter!(
        /// Sets the device geometry/material.
        device: DeviceConfig
    );
    setter!(
        /// Sets the momentum point count (`Nkz = Nqz`).
        nk: usize
    );
    setter!(
        /// Sets the energy point count (`NE`).
        ne: usize
    );
    setter!(
        /// Sets the phonon frequency point count (`Nω`).
        nw: usize
    );
    setter!(
        /// Sets the contact temperature `k_B·T` (eV).
        kt: f64
    );
    setter!(
        /// Sets the electron-phonon coupling prefactor.
        coupling: f64
    );
    setter!(
        /// Sets the Born iteration cap.
        max_iterations: usize
    );
    setter!(
        /// Sets the relative convergence threshold on the current.
        tolerance: f64
    );
    setter!(
        /// Sets the linear self-energy mixing factor (1 = no damping).
        mixing: f64
    );
    setter!(
        /// Selects the SSE kernel.
        kernel: KernelVariant
    );
    setter!(
        /// Selects the GF-phase point executor.
        executor: ExecutorKind
    );
    setter!(
        /// Selects the SSE communication scheme for
        /// [`ExecutorKind::Distributed`].
        comm_plan: CommPlan
    );
    setter!(
        /// Selects the GF-phase caching policy.
        cache_mode: CacheMode
    );
    setter!(
        /// Sets the electron broadening `η` (eV).
        eta: f64
    );
    setter!(
        /// Sets the phonon broadening (energy units).
        eta_ph: f64
    );
    setter!(
        /// Makes [`crate::driver::Simulation::run`] fail with a typed
        /// error when the iteration cap is hit before convergence.
        require_convergence: bool
    );

    /// Sets the energy window `[e_min, e_max]` (eV).
    pub fn energy_window(mut self, e_min: f64, e_max: f64) -> Self {
        self.config.e_min = e_min;
        self.config.e_max = e_max;
        self
    }

    /// Sets the contact chemical potentials (eV);
    /// `Vds = mu_source − mu_drain`.
    pub fn bias(mut self, mu_source: f64, mu_drain: f64) -> Self {
        self.config.mu_source = mu_source;
        self.config.mu_drain = mu_drain;
        self
    }

    /// Sets the potential ramp window as fractions of the device length.
    pub fn ramp(mut self, on: f64, off: f64) -> Self {
        self.config.ramp = (on, off);
        self
    }

    /// The configuration as currently assembled (not yet validated).
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Validates without building.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()
    }

    /// Validates and builds the simulation (device assembly included).
    pub fn build(self) -> Result<crate::driver::Simulation, ConfigError> {
        crate::driver::Simulation::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        SimulationConfig::tiny().validate().expect("tiny valid");
        SimulationConfig::demo().validate().expect("demo valid");
    }

    #[test]
    fn builder_round_trips_fields() {
        let b = SimulationConfig::builder()
            .nk(3)
            .ne(30)
            .nw(2)
            .energy_window(-0.9, 0.9)
            .bias(0.25, -0.05)
            .mixing(0.5)
            .executor(ExecutorKind::Serial);
        let cfg = b.config();
        assert_eq!(cfg.nk, 3);
        assert_eq!(cfg.ne, 30);
        assert_eq!((cfg.e_min, cfg.e_max), (-0.9, 0.9));
        assert_eq!((cfg.mu_source, cfg.mu_drain), (0.25, -0.05));
        assert_eq!(cfg.executor, ExecutorKind::Serial);
        b.validate().expect("assembled config valid");
    }

    /// Every invalid-config class maps to its own descriptive error.
    #[test]
    fn each_invalid_class_rejected() {
        let check = |mutate: &dyn Fn(&mut SimulationConfig), want: fn(&ConfigError) -> bool| {
            let mut cfg = SimulationConfig::tiny();
            mutate(&mut cfg);
            let err = cfg.validate().expect_err("must be rejected");
            assert!(want(&err), "wrong error class: {err:?}");
            // Display is populated (descriptive, non-empty).
            assert!(!err.to_string().is_empty());
        };
        check(&|c| c.device.nx = 0, |e| {
            matches!(e, ConfigError::EmptyDevice { .. })
        });
        check(&|c| c.device.cols_per_slab = c.device.nx, |e| {
            matches!(e, ConfigError::TooFewSlabs { .. })
        });
        check(&|c| c.nk = 0, |e| {
            matches!(e, ConfigError::EmptyGrid { grid: "nk" })
        });
        check(&|c| c.ne = 1, |e| {
            matches!(e, ConfigError::EmptyGrid { grid: "ne" })
        });
        check(&|c| c.nw = 0, |e| {
            matches!(e, ConfigError::EmptyGrid { grid: "nw" })
        });
        check(&|c| c.nw = c.ne, |e| {
            matches!(e, ConfigError::StencilTooWide { .. })
        });
        check(&|c| c.e_max = c.e_min, |e| {
            matches!(e, ConfigError::EmptyEnergyWindow { .. })
        });
        check(&|c| c.mixing = 0.0, |e| {
            matches!(e, ConfigError::InvalidMixing { .. })
        });
        check(&|c| c.mixing = 1.5, |e| {
            matches!(e, ConfigError::InvalidMixing { .. })
        });
        check(&|c| c.max_iterations = 0, |e| {
            matches!(e, ConfigError::NoIterations)
        });
        check(&|c| c.tolerance = -1e-4, |e| {
            matches!(e, ConfigError::InvalidTolerance { .. })
        });
        check(&|c| c.tolerance = f64::NAN, |e| {
            matches!(e, ConfigError::InvalidTolerance { .. })
        });
        check(&|c| c.kt = 0.0, |e| {
            matches!(e, ConfigError::InvalidTemperature { .. })
        });
        check(&|c| c.coupling = -0.1, |e| {
            matches!(e, ConfigError::InvalidCoupling { .. })
        });
        check(&|c| c.eta = 0.0, |e| {
            matches!(e, ConfigError::InvalidBroadening { .. })
        });
        check(&|c| c.ramp = (0.7, 0.3), |e| {
            matches!(e, ConfigError::InvalidRamp { .. })
        });
        check(
            &|c| c.executor = ExecutorKind::Distributed { ranks: 0 },
            |e| matches!(e, ConfigError::NoRanks),
        );
        // tiny() has nk = 2, ne = 24: 49 ranks admits no grid (49 = 7²,
        // gk ∈ {1}, ge = 49 > 24).
        check(
            &|c| c.executor = ExecutorKind::Distributed { ranks: 49 },
            |e| matches!(e, ConfigError::RanksDontFit { .. }),
        );
        // 4 atoms × 3 energies: 16 ranks fit an 8 × 2 process grid but no
        // atom × energy tiling (ta ≤ 4 leaves te ≥ 4 > ne).
        check(
            &|c| {
                (c.device.nx, c.device.ny, c.device.cols_per_slab) = (4, 1, 1);
                (c.nk, c.ne, c.nw) = (8, 3, 1);
                c.executor = ExecutorKind::Distributed { ranks: 16 };
                c.comm_plan = CommPlan::Dace;
            },
            |e| matches!(e, ConfigError::TilesDontFit { .. }),
        );
        check(&|c| c.warm_divergence_threshold = f64::NAN, |e| {
            matches!(e, ConfigError::InvalidDivergenceBound { .. })
        });
        check(&|c| c.warm_divergence_threshold = 0.0, |e| {
            matches!(e, ConfigError::InvalidDivergenceBound { .. })
        });
    }

    #[test]
    fn build_surfaces_errors_without_panicking() {
        match SimulationConfig::builder().ne(0).build() {
            Err(err) => assert!(matches!(err, ConfigError::EmptyGrid { grid: "ne" })),
            Ok(_) => panic!("ne = 0 must be rejected"),
        }
    }

    #[test]
    fn kernel_variant_constructs_matching_trait_objects() {
        assert_eq!(KernelVariant::Reference.to_kernel().name(), "reference");
        assert_eq!(KernelVariant::Transformed.to_kernel().name(), "transformed");
        assert_eq!(
            KernelVariant::Mixed(Normalization::PerTensor)
                .to_kernel()
                .name(),
            "mixed-f16"
        );
    }
}
