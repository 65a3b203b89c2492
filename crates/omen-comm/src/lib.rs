//! # omen-comm
//!
//! The distribution layer of the reproduction: a simulated MPI runtime
//! (rank threads + channels) with byte-exact volume accounting, the two
//! SSE communication schemes of the paper (OMEN's round-based replication
//! vs the data-centric four-Alltoallv redistribution), and the
//! data-ingestion staging path. The analytic models (network bounds,
//! ingestion time) live in `omen-perf`.
//!
//! ## Layering
//!
//! The crate is three layers, paper section in parentheses:
//!
//! | layer | modules | role |
//! |---|---|---|
//! | mechanics | [`transport`] | raw [`Envelope`] delivery between ranks — the deployment seam |
//! | semantics | [`mpi_sim`], [`volume`] | MPI-shaped collectives with tag matching and byte-exact ledgers (§6.1) |
//! | schemes | [`omen_plan`] (Fig. 5 left), [`dace_plan`] (§5.2, Fig. 5 right), [`plan_kernel`], [`topology`] | the two SSE exchange schedules, executable inside the Born loop |
//!
//! Beside them sits [`staging`] (§7.1.1 chunked-broadcast ingestion, plus
//! a checksummed retransmitting frame protocol). Both plans keep a
//! rank's data dense: the OMEN plan reads each round's received rows in
//! place in the messages that carried them, the DaCe plan in tile
//! tensors, and one private module assembles either plan's rows into an
//! [`omen_sse::SseOutput`].
//!
//! The measured side of Tables 4/5 comes out of the [`VolumeLedger`]
//! every operation records into; the analytic side lives in `omen-perf`,
//! and `bench/table45_comm --execute` joins the two on a live Born loop.
//!
//! ## A two-rank world by hand
//!
//! [`run_world`] spawns rank threads over a [`channel_world`] and is what
//! the plans use; the pieces compose individually too — any
//! [`Transport`] endpoint wraps into a [`Comm`]:
//!
//! ```
//! use omen_comm::{channel_world, Comm, OpKind, VolumeLedger};
//! use omen_linalg::c64;
//!
//! let ledger = VolumeLedger::new(2);
//! let mut world = channel_world(2); // one ChannelTransport per rank
//! let c1 = Comm::from_transport(Box::new(world.pop().unwrap()), ledger.clone());
//! let c0 = Comm::from_transport(Box::new(world.pop().unwrap()), ledger.clone());
//! std::thread::scope(|s| {
//!     s.spawn(move || c0.send(1, /*tag*/ 7, vec![c64(1.0, -1.0); 4]));
//!     s.spawn(move || assert_eq!(c1.recv(0, 7), vec![c64(1.0, -1.0); 4]));
//! });
//! // 4 complex numbers × 16 bytes, accounted byte-exactly.
//! assert_eq!(ledger.bytes(OpKind::PointToPoint), 64);
//! ```
//!
//! Swapping [`ChannelTransport`] for a socket- or shared-memory-backed
//! implementation changes nothing above the [`Transport`] trait: the
//! plans, the driver's `ExecutorKind::Distributed`, and the ledgers are
//! deployment-agnostic.

pub mod dace_plan;
pub mod mpi_sim;
pub mod omen_plan;
mod plan_common;
pub mod plan_kernel;
pub mod staging;
pub mod topology;
pub mod transport;
pub mod volume;

pub use dace_plan::{run_dace_plan, DacePlan, DaceTile};
pub use mpi_sim::{run_world, Comm};
pub use omen_plan::run_omen_plan;
pub use plan_kernel::{CommPlan, PlanKernel};
pub use staging::{
    decode_frame, encode_frame, recv_framed, send_framed, stage_material, FrameError,
};
pub use topology::{grid_for_ranks, tiling_for_ranks, DaceTiling, OmenGrid};
pub use transport::{channel_world, ChannelTransport, Envelope, Transport};
pub use volume::{OpKind, VolumeLedger};
