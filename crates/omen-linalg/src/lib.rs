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
//! micro-panels (see [`batched`] for the batch-level pack design);
//! `OMEN_FORCE_SCALAR=1` pins the runtime dispatch to the portable
//! instantiation.
//!
//! Everything is implemented from scratch over `std` so the repository
//! carries no linear-algebra dependencies, mirroring the paper's "one external HPC library (BLAS)"
//! portability claim — here, zero.

pub mod batched;
pub mod blocktridiag;
pub mod complex;
pub mod dense;
pub mod gemm;
pub mod half;
pub mod lu;
pub mod mixed;
pub mod norms;
pub mod planes;
pub mod sparse;
pub mod workspace;

pub use batched::{
    sbsmm, sbsmm_padded, sbsmm_pb, sbsmm_scalar, small_gemm, small_gemm_pb, use_packed_kernel,
    BatchArena, BatchDims, PackedB, Strides,
};
pub use blocktridiag::BlockTriDiag;
pub use complex::{c64, C64};
pub use dense::CMatrix;
pub use gemm::{
    gemm, gemm_flops, gemm_naive, matmul, matmul3, matmul3_into, matmul_into, matmul_op,
    matmul_op_into, Op,
};
pub use half::{F16, F16_MAX, F16_MIN_POSITIVE, F16_MIN_SUBNORMAL};
pub use lu::{invert, solve, Lu, LuFactors, SingularMatrix};
pub use mixed::{quantize_f16, Normalization, NORMALIZATION_TARGET};
pub use norms::{magnitude_distribution, max_abs, rel_err_fro, rel_err_max, MagnitudeDistribution};
pub use planes::{
    add_planes, as_c64, as_c64_mut, count_fused_run, lane_gemm, pack_planes, pack_split,
    pad_planes, planes_dots, planes_gemm, planes_invert, planes_lmul, planes_mac, split_planes,
    DotTile, PlaneScratch, SplitRun, LANES, LANE_MAX_DIM, PLANES_MAX_DIM,
};
pub use sparse::{csrmm, gemmi, CscMatrix, CsrMatrix};
pub use workspace::{Workspace, WorkspaceLease, WorkspacePool};
