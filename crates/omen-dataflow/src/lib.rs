//! # omen-dataflow
//!
//! An SDFG-lite data-centric intermediate representation (the DaCe
//! substitute of the reproduction): states, access nodes, tasklets,
//! parametric maps, and memlets with *symbolic* volumes; graph
//! transformations (tiling, fission, fusion); and movement analysis that
//! derives the communication-volume expressions of Fig. 5 directly from
//! the memlets — the paper's mechanism for discovering the
//! communication-avoiding variant. The [`lower`] module turns the same
//! graphs into executable task schedules: tasklets become tasks and
//! memlets become dependency edges, which `omen-sched` expands over the
//! concrete point grids.

pub mod graph;
pub mod lower;
pub mod omen_graphs;
pub mod symbolic;

pub use graph::{map_fission, map_fusion, map_tiling, GraphError, Memlet, Node, Sdfg, State};
pub use lower::{lower_sdfg, lower_state, EnclosingMap, LoweredDag, TaskSpec};
pub use omen_graphs::{
    apply_dace_decomposition, apply_omen_decomposition, dace_volume_expr, omen_volume_expr,
    simulation_sdfg, sse_state,
};
pub use symbolic::{bindings, c, p, Expr};
