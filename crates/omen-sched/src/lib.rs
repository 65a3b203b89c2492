//! # omen-sched
//!
//! The executable half of the data-centric thesis: where
//! `omen-dataflow` *analyzes* the SDFG (symbolic memlet volumes → the
//! paper's communication argument), this crate *runs* task graphs.
//!
//! * [`dag`] — [`TaskDag`]: tasks in schedule order with forward
//!   dependency edges, executed by [`TaskDag::run`] on a panic-isolating
//!   worker pool. It is the one thing in the workspace that schedules
//!   work: the GF point sweeps, the SSE kernels' stages and the points
//!   of an overlapped sweep are all `TaskDag` runs their callers build
//!   directly.
//! * [`lower`] — [`lower_iteration`]: the simulation SDFG lowered,
//!   expanded over concrete grids and bound to typed per-point work
//!   items ([`BoundTask`]) — the graph the Fig. 5 reproduction bins
//!   print and the repository benchmark measures.
//!
//! Runs are instrumented through `omen-trace`
//! (`Counter::SchedTasks`/`Counter::SchedPanics`).

pub mod dag;
pub mod lower;

pub use dag::{DagRunError, DelayPlan, TaskDag};
pub use lower::{lower_iteration, BoundTask, IterationPlan, PlanError};
