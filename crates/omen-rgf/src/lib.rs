//! # omen-rgf
//!
//! Recursive Green's Function solvers — the paper's GF phase (§4 Eq. 1).

pub mod bccache;
pub mod boundary;
pub mod dense_ref;
pub mod observables;
pub mod points;
pub mod rgf;
pub mod rows;
pub mod testutil;

pub use bccache::{BoundaryCache, BoundaryCacheStats, LeadSelfEnergy};
pub use boundary::{bose, contact_sigma_lg, fermi, sancho_rubio_lanes};
pub use dense_ref::{dense_solve, DenseSolution};
pub use observables::{
    block_ldos, block_occupation, caroli_transmission, contact_current, current_profile,
    interface_current, orbital_occupation,
};
pub use points::{
    CacheMode, Carrier, ElectronParams, ElectronSolver, Electrons, GfSolver, Part, PhaseTimes,
    PhononParams, PhononSolver, PointSolution, PointSolver, RowSink, Scattering,
};
pub use rgf::{rgf_flops_model, rgf_solve, rgf_solve_into, RgfInputs, RgfSolution};
pub use rows::{rgf_row_into, row_width, RgfCoupling, RgfRow, RowInputs};
