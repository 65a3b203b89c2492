//! # omen-linalg
//!
//! Numerical substrate for the `dace-omen` quantum-transport reproduction:
//! complex scalars, software binary16, dense column-major matrices with
//! BLAS-style GEMM (all transpose variants), LU solves, CSR/CSC sparse
//! products (cuSPARSE `csrmm2` / cuBLAS `gemmi` analogues), block-tridiagonal
//! containers, the specialized strided-batched small-matrix multiply (SBSMM)
//! of the paper's §5.3, and the binary16 operand quantization of §5.4
//! ([`quantize_f16`]).
//!
//! Both the dense GEMM ([`gemm()`]) and the batched SBSMM ([`sbsmm`]) run the
//! same split-complex register-tiled FMA micro-kernel over packed
//! micro-panels, and there is one copy of each piece around it: one
//! op-aware panel packer per operand, one register-tile sweep and one
//! thread-local pack arena, all in [`mod@gemm`] (see [`batched`] for the
//! batch-level pack design); `OMEN_FORCE_SCALAR=1` pins the runtime
//! dispatch to the portable instantiation. One LU type holds a
//! factorization; [`invert`], [`solve`] and [`Workspace::invert_into`] run
//! on it.
//!
//! The public surface is what other crates call: the modules whose items
//! are only re-exported here are private, and items only this crate
//! reads are crate-private.
//!
//! Everything is implemented from scratch over `std` so the repository
//! carries no linear-algebra dependencies, mirroring the paper's "one external HPC library (BLAS)"
//! portability claim — here, zero.

pub mod batched;
mod blocktridiag;
mod complex;
mod dense;
pub mod gemm;
pub mod half;
pub mod lu;
mod mixed;
pub mod norms;
mod planes;
mod sparse;
mod workspace;

pub use batched::{
    sbsmm, sbsmm_padded, sbsmm_pb, sbsmm_scalar, small_gemm, small_gemm_pb, use_packed_kernel,
    BatchDims, PackedB, Strides,
};
pub use blocktridiag::BlockTriDiag;
pub use complex::{c64, C64};
pub use dense::{trace_product, CMatrix};
pub use gemm::{gemm, gemm_flops, gemm_naive, matmul, matmul3, Op};
pub use half::F16;
pub use lu::{invert, solve};
pub use mixed::{quantize_f16, Normalization};
pub use norms::{magnitude_distribution, max_abs, MagnitudeDistribution};
pub use planes::{
    add_planes, as_c64, as_c64_mut, count_fused_run, dft_blocks, dft_planes, lane_gemm,
    pack_planes, pack_split, pad_planes, planes_dots, planes_gemm, planes_invert, planes_lmul,
    planes_mac, split_planes, DotTile, PlaneScratch, SplitRun, LANES, LANE_MAX_DIM, PLANES_MAX_DIM,
};
pub use sparse::{csrmm, gemmi, CscMatrix, CsrMatrix};
pub use workspace::{Workspace, WorkspaceLease, WorkspacePool};
