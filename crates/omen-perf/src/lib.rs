//! # omen-perf
//!
//! Analytic performance, communication, and scalability models of the
//! paper's evaluation section: parameter sets (§6), machine descriptions
//! (§6.2) and the data-ingestion model that runs on them (§7.1.1), the
//! flop model (§6.1.1, Table 3), the communication-volume
//! model (§6.1.2, Tables 4–5), the roofline (Fig. 10), the calibrated
//! time-to-solution model behind Figs. 8–9 and Tables 11–12, and the
//! model-vs-measured attribution joining these predictions against live
//! `omen-trace` counters.

pub mod attribution;
pub mod commvolume;
pub mod flops;
pub mod machines;
pub mod params;
pub mod roofline;
pub mod scaling;
pub mod streams;

pub use attribution::{
    attribute, AttributionModel, AttributionReport, StageRow, StreamAttribution,
};
pub use commvolume::{
    dace_best_tiling, dace_volume, dace_volume_with, omen_invocations, omen_volume, table4, table5,
    VolumeRow, TIB,
};
pub use flops::{
    bc_flops_total, large_iteration_flops, rgf_flops_total, sse_flops_dace, sse_flops_omen, table3,
    Table3Row,
};
pub use machines::{Gpu, MachineSpec, StagingModel, P100, V100};
pub use params::{table2_requirements, Requirement, SimParams};
pub use roofline::{attainable, gemm_intensity, is_compute_bound, paper_kernels, RooflineKernel};
pub use streams::{measured_overlap_fraction, StreamModel};

pub use scaling::{
    comm_time, fig8_strong, fig8_weak, fig9, iteration_flops, iteration_time, rates, table11,
    table12, Caching, Fig8Point, Fig9Point, IterationModel, Rates, Table11Model, Table12Model,
    Variant, EFF_ALLTOALL, EFF_P2P, SPEC_BC_FRACTION,
};
