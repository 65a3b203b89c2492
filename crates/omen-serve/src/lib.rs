//! # omen-serve
//!
//! An async NEGF sweep service with cross-point warm-start caching.
//!
//! Device characterization rarely runs one bias point: it runs I–V
//! curves, temperature ladders, and coupling scans — dozens of
//! self-consistent Born solves over configurations that differ in a
//! single scalar. This crate turns the workspace's [`omen_core`] driver
//! into a job server that exploits exactly that structure:
//!
//! * **jobs** — a [`SweepSpec`] names a base scenario, a [`SweepAxis`]
//!   (bias / temperature / coupling) and an ordered value list;
//!   [`SweepClient::submit`] validates it and returns a [`JobHandle`]
//!   with polling ([`JobHandle::state`]), cancellation
//!   ([`JobHandle::cancel`]) and blocking await
//!   ([`JobHandle::await_observables`]);
//! * **runtime** — a hand-rolled thread pool over a `std::sync::mpsc`
//!   channel and the vendored `parking_lot` mutex/condvar shim; a worker
//!   owns a job end-to-end so points run sequentially *within* a job
//!   (each warm-starts from its neighbor) while distinct jobs run
//!   concurrently;
//! * **warm starts** — every completed point deposits its converged
//!   Σ^≷/Π^≷ and boundary caches ([`omen_core::WarmStartData`]) into a
//!   shared LRU [`SweepCache`] under a byte budget; the next point seeds
//!   from the nearest completed neighbor, cutting Born iterations while
//!   converging to the same fixed point (same per-point tolerance);
//! * **wire** — job requests and results serialize to `C64` frames
//!   ([`wire`]) reusing the staged-broadcast packing of [`omen_comm`];
//! * **fault tolerance** — each point attempt is panic-isolated and
//!   retried with capped exponential backoff; a failed warm start
//!   quarantines its cache donor and restarts cold; completed points are
//!   journaled to disk ([`CheckpointJournal`]) so an interrupted job
//!   resumes instead of recomputing (see the [`server`] module docs for
//!   the failure model and [`omen_fault`] for deterministic chaos
//!   injection).
//!
//! ## Example
//!
//! ```
//! use omen_serve::{ServerConfig, SweepServer, SweepSpec};
//!
//! let server = SweepServer::start(ServerConfig::default());
//! let job = server
//!     .submit(SweepSpec::finfet_bias_quick())
//!     .expect("valid sweep");
//! let points = job.await_observables().expect("sweep completes");
//! assert_eq!(points.len(), 4);
//! // Fault-free, every later point warm-starts from its neighbor; under
//! // an armed chaos plan a retried point may legitimately run cold.
//! assert!(points[1].warm || omen_fault::active());
//! ```
//!
//! ## Cache tuning
//!
//! [`CacheConfig::max_bytes`] bounds resident warm-start state (each
//! entry's cost is [`omen_core::WarmStartData::bytes`]); eviction is
//! least-recently-used, and the newest entry always survives so a sweep
//! can chain through its own deposits even under a tiny budget.
//! [`CacheConfig::max_entries`] caps entry count independently.

pub mod cache;
pub mod checkpoint;
pub mod job;
pub mod server;
pub mod sweep;
pub mod wire;

pub use cache::{CacheConfig, CacheStats, SweepCache};
pub use checkpoint::CheckpointJournal;
pub use job::{JobMetrics, JobResult, JobState, PointObservables};
pub use server::{JobError, JobHandle, ServerConfig, SubmitError, SweepClient, SweepServer};
pub use sweep::{linspace, SweepAxis, SweepSpec};
pub use wire::{
    decode_job, decode_point, decode_result, encode_job, encode_point, encode_result, JobRequest,
};
