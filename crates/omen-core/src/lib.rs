//! # omen-core
//!
//! The application layer of the reproduction: grids, the self-consistent
//! Born loop coupling the GF and SSE phases, and the electro-thermal
//! observables of Figs. 1(d) and 11.
//!
//! The driver is organized as an execution engine:
//!
//! * [`builder`] — validated configuration ([`SimulationBuilder`],
//!   [`ConfigError`]) with the [`SimulationConfig::tiny`] /
//!   [`SimulationConfig::demo`] presets;
//! * [`executor`] — the [`PointExecutor`] seam and its one engine for the
//!   embarrassingly-parallel point sweeps ([`DagExecutor`]; serial is the
//!   same engine with one worker);
//! * `observables` — the GF phase's output tensors and raw per-point
//!   scalars, which each sweep unit's row solve writes in place through
//!   a view of its own slices, weighted in point order after the sweep;
//! * [`driver`] — the [`Simulation`] Born loop dispatching through the
//!   [`omen_sse::SseKernel`] trait;
//! * [`stream`] — the overlapped sweep ([`run_overlapped`]): whole
//!   sweep points as tasks of the same `omen-sched` engine, at most
//!   `window` of them live at once.

pub mod builder;
pub mod driver;
pub mod executor;
pub mod grids;
mod observables;
pub mod state;
pub mod stream;
pub mod thermal;

pub use omen_linalg::Normalization;
pub use omen_sse::{KernelState, MixedKernel, ReferenceKernel, SseKernel, TransformedKernel};

pub use builder::{ConfigError, KernelVariant, SimulationBuilder, SimulationConfig};
pub use driver::{
    CancelToken, DriverError, GfPhaseOutput, IterationRecord, Simulation, SimulationResult,
    SpectralData, WarmStartData, WarmStartError,
};
pub use executor::{
    grid_points, DagExecutor, DistributedExecutor, ExecutorKind, GridPoint, PointExecutor,
    RayonExecutor, SerialExecutor,
};
pub use grids::{EnergyGrid, FrequencyGrid, MomentumGrid};
pub use omen_comm::{CommPlan, PlanKernel};
pub use omen_rgf::BoundaryCacheStats;
pub use state::{pi_blocks_for_point, sigma_blocks_for_point, zero_tensors};
pub use stream::{run_overlapped, OverlapOutcome};
pub use thermal::{
    electro_thermal_report, equilibrium_energy, fit_temperature, ElectroThermalReport, KB_EV_PER_K,
};
