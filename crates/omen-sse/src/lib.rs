//! # omen-sse
//!
//! Scattering self-energy kernels — Eqs. (2)–(3) of the paper, in three
//! variants:
//!
//! * [`reference::sse_reference`] — the OMEN-style loop nest (baseline);
//! * [`transformed::sse_transformed`] — the DaCe-transformed kernel
//!   (map fission, data relayout, strided-batched GEMM, fusion; Fig. 6);
//! * [`mixed::sse_mixed`] — the Tensor-Core-emulating binary16 variant
//!   with per-tensor normalization (§5.4): the transformed schedule with
//!   its stage-C operands quantised to binary16.
//!
//! All variants compute the same physics; the test suite asserts
//! elementwise agreement: the transformed kernel within 1e-12 relative of
//! the reference (its stages reassociate the sums), the binary16 one
//! within 5e-3 relative of the transformed.
//!
//! The transformed schedule is built from the per-pair leaf stages of
//! [`stages`], generalised over an energy window; `omen-comm`'s
//! data-centric plan runs the same leaves on its atom×energy tiles, and the
//! mixed kernel runs them on quantised operands. In one
//! address space the transformed and mixed kernels run them as per-atom
//! tasks of `omen_sched::TaskDag` — the GF sweeps' engine — on
//! [`SseProblem::workers`] workers, bit-identical at every count and
//! inline on the calling thread with one. The
//! reference kernel and `omen-comm`'s OMEN plan run one untransformed
//! loop nest, [`point_kernels::omen_round`], one `(qz, ω)` round at a time.

pub mod flops;
pub mod kernel;
pub mod mixed;
pub mod point_kernels;
pub mod problem;
pub mod reference;
pub mod stages;
pub mod tensors;
pub mod transformed;

#[doc(hidden)]
pub mod testutil;

pub use flops::{sse_flops_dace, sse_flops_omen, SseFlopParams};
pub use kernel::{KernelState, MixedKernel, ReferenceKernel, SseKernel, TransformedKernel};
pub use mixed::{sse_mixed, MixedConfig};
pub use point_kernels::{d_combination, omen_round, trace_product, DBlocks, GBlocks};
pub use problem::{compute_rev_pair, SseProblem};
pub use reference::{sse_reference, sse_reference_into, SseOutput};
pub use tensors::{DTensor, GLayout, GTensor, D_BSZ};
pub use transformed::{build_transients_into, sse_transformed, sse_transformed_into, Transients};
