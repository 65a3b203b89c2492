//! # dace-omen
//!
//! A Rust reproduction of *"A Data-Centric Approach to Extreme-Scale Ab
//! initio Dissipative Quantum Transport Simulations"* (Ziogas et al.,
//! SC '19 — Gordon Bell Prize).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`linalg`] — complex dense/sparse linear algebra, SBSMM, binary16;
//! * [`device`] — synthetic nano-device generator (CP2K substitute);
//! * [`rgf`] — recursive Green's function solvers and boundary methods;
//! * [`sse`] — scattering self-energy kernels (reference / transformed /
//!   mixed precision);
//! * [`dataflow`] — SDFG-lite IR with movement analysis and lowering;
//! * [`sched`] — executable task-DAG runtime: forward dependency
//!   edges, a panic-isolating worker pool, the iteration lowering;
//! * [`comm`] — simulated MPI, the two SSE communication plans, staging;
//! * [`perf`] — analytic performance/communication/scaling models;
//! * [`core`] — the self-consistent simulation and electro-thermal
//!   observables;
//! * [`serve`] — async sweep job service with cross-point warm-start
//!   caching;
//! * [`trace`] — zero-dependency structured tracing: spans, typed
//!   counters, chrome-trace/metrics exporters.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use omen_comm as comm;
pub use omen_core as core;
pub use omen_dataflow as dataflow;
pub use omen_device as device;
pub use omen_linalg as linalg;
pub use omen_perf as perf;
pub use omen_rgf as rgf;
pub use omen_sched as sched;
pub use omen_serve as serve;
pub use omen_sse as sse;
pub use omen_trace as trace;
