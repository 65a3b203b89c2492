//! General complex matrix-matrix multiplication (the cuBLAS `Zgemm`
//! analogue) with all transpose combinations, and the packed
//! split-complex machinery it shares with [`crate::sbsmm`].
//!
//! Table 7 of the paper times GEMM in NN/NT/TN/TT variants; the RGF and SSE
//! kernels use `N` and `C` (conjugate-transpose) operations. Two kernels
//! live here:
//!
//! * [`gemm`] — the production path: a packed, cache-blocked kernel in the
//!   BLIS style. Panels of `op(A)` and `op(B)` are packed into the
//!   thread-local pack arena (transposition and conjugation are resolved
//!   during packing, so every `Op` combination runs the same inner loop),
//!   and an `MR × NR` register-tiled micro-kernel accumulates over the
//!   packed `K` dimension. Steady-state calls perform **zero heap
//!   allocations**: the arena is allocated once per thread.
//! * [`gemm_naive`] — the seed's column-major AXPY/dot formulation,
//!   retained as the correctness reference for property tests and as the
//!   baseline the `table7_matmul` bench measures speedups against.
//!
//! Matrices with every dimension ≤ [`SMALL_DIM`] skip packing entirely
//! (RGF test blocks and `Norb`-sized SSE blocks are too small to amortize
//! it) and run an allocation-free direct loop.
//!
//! There is one copy of each packed piece, and [`crate::batched`] runs
//! the same ones on whole batch items: one panel packer per operand
//! (`pack_a`, `pack_b`: op-aware, with the panel pitch as an argument),
//! one register-tile sweep (`sweep_tiles`) and one thread-local pack
//! arena. The sweep skips the multiply by a unit `alpha` in its
//! writeback.

// Kernel helpers mirror BLAS gemm parameter lists.
#![allow(clippy::too_many_arguments)]

use crate::batched::{small_gemm, BatchDims};
use crate::complex::{c64, C64};
use crate::dense::CMatrix;
use std::cell::RefCell;

/// Transpose operation applied to a GEMM operand, mirroring the BLAS
/// `N`/`T`/`C` convention.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Use the matrix as stored.
    N,
    /// Use the transpose.
    T,
    /// Use the conjugate transpose.
    C,
}

impl Op {
    /// Logical number of rows of `op(A)` for an `r × c` stored matrix.
    #[inline]
    pub(crate) fn rows(self, r: usize, c: usize) -> usize {
        match self {
            Op::N => r,
            Op::T | Op::C => c,
        }
    }

    /// Logical number of columns of `op(A)`.
    #[inline]
    pub(crate) fn cols(self, r: usize, c: usize) -> usize {
        match self {
            Op::N => c,
            Op::T | Op::C => r,
        }
    }
}

/// Micro-kernel tile rows (C update granularity down a column).
pub(crate) const MR: usize = 4;
/// Micro-kernel tile columns.
pub(crate) const NR: usize = 4;
/// Cache-block rows of `op(A)` packed at once (`MC × KC` panel).
const MC: usize = 64;
/// Cache-block depth shared by both packed panels.
const KC: usize = 128;
/// Cache-block columns of `op(B)` packed at once (`KC × NC` panel).
const NC: usize = 256;

/// Largest dimension for which the direct (non-packing) path runs. Below
/// this, pack/writeback overhead dominates the `O(n³)` work.
pub const SMALL_DIM: usize = 16;

/// The pack arena: real and imaginary planes of one `A` and one `B`
/// operand's micro-panels. Splitting the planes lets the micro-kernel run
/// pure-`f64` lanes (no interleave shuffles), which is what makes it
/// vectorizable.
#[derive(Default)]
pub(crate) struct PackBufs {
    pub(crate) a_re: Vec<f64>,
    pub(crate) a_im: Vec<f64>,
    pub(crate) b_re: Vec<f64>,
    pub(crate) b_im: Vec<f64>,
}

thread_local! {
    /// This thread's pack arena, shared by [`gemm`] and the batched
    /// kernels. Its planes only grow, so once a thread has run its
    /// largest shapes every later call is allocation-free.
    static PACK_BUFS: RefCell<PackBufs> = RefCell::new(PackBufs::default());
}

/// Runs `f` with this thread's pack arena, its `A` planes at least
/// `a_len` and its `B` planes at least `b_len` long.
pub(crate) fn with_pack_bufs<R>(
    a_len: usize,
    b_len: usize,
    f: impl FnOnce(&mut PackBufs) -> R,
) -> R {
    PACK_BUFS.with(|bufs| {
        let bufs = &mut *bufs.borrow_mut();
        for (v, len) in [
            (&mut bufs.a_re, a_len),
            (&mut bufs.a_im, a_len),
            (&mut bufs.b_re, b_len),
            (&mut bufs.b_im, b_len),
        ] {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        }
        f(bufs)
    })
}

/// A column-major matrix's storage as the kernels read it: a
/// [`CMatrix`], a batch item, or a one-lane lane block of
/// [`crate::planes_gemm`] read as the `C64`s it holds. Only the row
/// count is kept; the caller has checked the shape.
#[derive(Clone, Copy)]
pub(crate) struct Cols<'a> {
    data: &'a [C64],
    rows: usize,
}

impl<'a> Cols<'a> {
    /// The `rows`-row column-major matrix stored in `data`.
    pub(crate) fn new(data: &'a [C64], rows: usize) -> Self {
        Cols { data, rows }
    }

    #[inline(always)]
    fn col(self, j: usize) -> &'a [C64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Element `(i, j)` of `op(M)`.
    #[inline(always)]
    fn fetch(self, op: Op, i: usize, j: usize) -> C64 {
        match op {
            Op::N => self.data[j * self.rows + i],
            Op::T => self.data[i * self.rows + j],
            Op::C => self.data[i * self.rows + j].conj(),
        }
    }
}

impl<'a> From<&'a CMatrix> for Cols<'a> {
    fn from(m: &'a CMatrix) -> Self {
        Cols::new(m.as_slice(), m.rows())
    }
}

/// The output of [`gemm_cols`] and [`sweep_tiles`]: a mutable [`Cols`].
pub(crate) struct ColsMut<'a> {
    data: &'a mut [C64],
    rows: usize,
}

impl<'a> ColsMut<'a> {
    /// The `rows`-row column-major matrix stored in `data`.
    pub(crate) fn new(data: &'a mut [C64], rows: usize) -> Self {
        ColsMut { data, rows }
    }

    #[inline(always)]
    fn col_mut(&mut self, j: usize) -> &mut [C64] {
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }
}

/// `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Shapes: `op_a(A)` is `m × k`, `op_b(B)` is `k × n`, `C` is `m × n`.
///
/// # Panics
/// Panics if the operand shapes are inconsistent.
pub fn gemm(alpha: C64, a: &CMatrix, op_a: Op, b: &CMatrix, op_b: Op, beta: C64, c: &mut CMatrix) {
    let mnk = check_shapes(a, op_a, b, op_b, c);
    let rows = c.rows();
    let c = ColsMut::new(c.as_mut_slice(), rows);
    gemm_cols(alpha, a.into(), op_a, b.into(), op_b, beta, c, mnk);
}

/// [`gemm`] on borrowed column-major storage of checked shapes
/// `(m, n, k)`: the direct path when every dimension is at most
/// [`SMALL_DIM`], else the packed one. Counts one `GemmCalls` and its
/// `GemmFlops`.
pub(crate) fn gemm_cols(
    alpha: C64,
    a: Cols<'_>,
    op_a: Op,
    b: Cols<'_>,
    op_b: Op,
    beta: C64,
    c: ColsMut<'_>,
    (m, n, k): (usize, usize, usize),
) {
    // Scale C by beta first.
    if beta == C64::ZERO {
        c.data.fill(C64::ZERO);
    } else if beta != C64::ONE {
        c.data.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == C64::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    omen_trace::add2(
        omen_trace::Counter::GemmCalls,
        1,
        omen_trace::Counter::GemmFlops,
        gemm_flops(m, n, k),
    );

    if m <= SMALL_DIM && n <= SMALL_DIM && k <= SMALL_DIM {
        gemm_small(alpha, a, op_a, b, op_b, c, m, n, k);
    } else {
        gemm_packed(alpha, a, op_a, b, op_b, c, m, n, k);
    }
}

/// Shared shape validation; returns `(m, n, k)`.
fn check_shapes(
    a: &CMatrix,
    op_a: Op,
    b: &CMatrix,
    op_b: Op,
    c: &CMatrix,
) -> (usize, usize, usize) {
    let m = op_a.rows(a.rows(), a.cols());
    let k = op_a.cols(a.rows(), a.cols());
    let kb = op_b.rows(b.rows(), b.cols());
    let n = op_b.cols(b.rows(), b.cols());
    assert_eq!(k, kb, "gemm inner dimension mismatch: {k} vs {kb}");
    assert_eq!(
        (c.rows(), c.cols()),
        (m, n),
        "gemm output shape mismatch: C is {}x{}, expected {m}x{n}",
        c.rows(),
        c.cols()
    );
    (m, n, k)
}

// ---------------------------------------------------------------------------
// Small direct path (no packing, no allocation).
// ---------------------------------------------------------------------------

/// Direct loops for tiny operands (`C` already scaled by `beta`).
/// `N × N` is [`small_gemm`]'s AXPY loop; otherwise the `B` column is
/// staged on the stack (`k ≤ SMALL_DIM`), keeping the accumulation loop
/// contiguous in `A`.
fn gemm_small(
    alpha: C64,
    a: Cols<'_>,
    op_a: Op,
    b: Cols<'_>,
    op_b: Op,
    mut c: ColsMut<'_>,
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert!(k <= SMALL_DIM);
    if (op_a, op_b) == (Op::N, Op::N) {
        let dims = BatchDims { m, n, k };
        return small_gemm(dims, alpha, a.data, b.data, C64::ONE, c.data);
    }
    let mut bcol = [C64::ZERO; SMALL_DIM];
    for j in 0..n {
        for (l, slot) in bcol.iter_mut().enumerate().take(k) {
            *slot = b.fetch(op_b, l, j);
        }
        let cj = c.col_mut(j);
        match op_a {
            // AXPY form: stream down contiguous columns of A and C.
            Op::N => {
                for (l, &bv) in bcol.iter().enumerate().take(k) {
                    let w = alpha * bv;
                    if w == C64::ZERO {
                        continue;
                    }
                    for (ci, &ail) in cj.iter_mut().zip(a.col(l).iter()) {
                        *ci = ci.mul_add(ail, w);
                    }
                }
            }
            // Dot form: row i of op(A) is contiguous column i of A.
            Op::T | Op::C => {
                let conj_a = op_a == Op::C;
                for (i, ci) in cj.iter_mut().enumerate().take(m) {
                    let ai = a.col(i);
                    let mut acc = C64::ZERO;
                    if conj_a {
                        for (&av, &bv) in ai.iter().zip(bcol.iter()) {
                            acc = acc.mul_add(av.conj(), bv);
                        }
                    } else {
                        for (&av, &bv) in ai.iter().zip(bcol.iter()) {
                            acc = acc.mul_add(av, bv);
                        }
                    }
                    *ci = ci.mul_add(alpha, acc);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed cache-blocked path.
// ---------------------------------------------------------------------------

/// `true` when the environment forces the portable (non-AVX2) micro-kernel
/// instantiation. CI runs a dedicated job leg with `OMEN_FORCE_SCALAR=1`
/// so the fallback path cannot rot on AVX2-only runners.
fn scalar_forced() -> bool {
    std::env::var_os("OMEN_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty())
}

/// `true` when the FMA/AVX2 micro-kernel can run (checked once; the
/// `OMEN_FORCE_SCALAR` environment override pins it to `false`).
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    static FMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FMA.get_or_init(|| {
        !scalar_forced()
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fma_available() -> bool {
    // Evaluated for the side effect of keeping the override linked on
    // non-x86 targets too (the portable kernel is already the only path).
    let _ = scalar_forced();
    false
}

/// Dispatches one register-tile accumulation to the AVX2+FMA or portable
/// micro-kernel instantiation. `fma` must come from [`fma_available`].
#[inline]
fn run_micro_kernel(
    fma: bool,
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [f64; MR * NR],
    acc_im: &mut [f64; MR * NR],
) {
    if fma {
        // SAFETY: `fma` is true only when the CPU reports AVX2 + FMA.
        unsafe { micro_kernel_fma(a_re, a_im, b_re, b_im, acc_re, acc_im) }
    } else {
        micro_kernel_portable(a_re, a_im, b_re, b_im, acc_re, acc_im);
    }
}

/// Blocked loop nest: for each `KC × NC` panel of `op(B)` and `MC × KC`
/// panel of `op(A)`, split-complex packed copies feed the register-tiled
/// micro-kernel.
fn gemm_packed(
    alpha: C64,
    a: Cols<'_>,
    op_a: Op,
    b: Cols<'_>,
    op_b: Op,
    mut c: ColsMut<'_>,
    m: usize,
    n: usize,
    k: usize,
) {
    let fma = fma_available();
    with_pack_bufs(MC * KC, KC * NC, |p| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(b, op_b, (pc, jc), (kc, nc), KC, &mut p.b_re, &mut p.b_im);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a(a, op_a, (ic, pc), (mc, kc), KC, &mut p.a_re, &mut p.a_im);
                    let (pa, pb) = ((&p.a_re[..], &p.a_im[..]), (&p.b_re[..], &p.b_im[..]));
                    sweep_tiles(fma, alpha, (mc, nc, kc), KC, pa, pb, &mut c, (ic, jc));
                }
            }
        }
    });
}

/// Sweeps the register-tiled micro-kernel over packed panels:
/// `C[ic.., jc..] += alpha · op(A) · op(B)` for one `mc × kc` block of
/// `op(A)` (`ceil(mc/MR)` panels, as [`pack_a`] writes them) and one
/// `kc × nc` block of `op(B)` (`ceil(nc/NR)` panels, as [`pack_b`]
/// writes them), both packed at panel pitch `depth`. Padded lanes hold
/// zeros and are not written back. A unit `alpha` is not multiplied,
/// which gives the product's bits for every finite accumulator: an
/// accumulator summed from `+0` is never `−0`, and `(1 + 0i)·z` is `z`.
pub(crate) fn sweep_tiles(
    fma: bool,
    alpha: C64,
    (mc, nc, kc): (usize, usize, usize),
    depth: usize,
    (a_re, a_im): (&[f64], &[f64]),
    (b_re, b_im): (&[f64], &[f64]),
    c: &mut ColsMut<'_>,
    (ic, jc): (usize, usize),
) {
    let plain = alpha == C64::ONE;
    for jp in 0..nc.div_ceil(NR) {
        let jr = jp * NR;
        let nr_eff = NR.min(nc - jr);
        let bo = jp * depth * NR;
        let (br, bi) = (&b_re[bo..bo + kc * NR], &b_im[bo..bo + kc * NR]);
        for ip in 0..mc.div_ceil(MR) {
            let ir = ip * MR;
            let mr_eff = MR.min(mc - ir);
            let ao = ip * depth * MR;
            let (ar, ai) = (&a_re[ao..ao + kc * MR], &a_im[ao..ao + kc * MR]);
            let mut acc_re = [0.0f64; MR * NR];
            let mut acc_im = [0.0f64; MR * NR];
            run_micro_kernel(fma, ar, ai, br, bi, &mut acc_re, &mut acc_im);
            for j in 0..nr_eff {
                let cj = c.col_mut(jc + jr + j);
                for i in 0..mr_eff {
                    let t = j * MR + i;
                    let z = c64(acc_re[t], acc_im[t]);
                    cj[ic + ir + i] += if plain { z } else { alpha * z };
                }
            }
        }
    }
}

/// The register tile over split-complex panels:
/// `acc[j*MR + i] += Σ_p a[p*MR + i] · b[p*NR + j]` with
/// `re += ar·br − ai·bi`, `im += ar·bi + ai·br`. `chunks_exact` pins the
/// panel shapes so the compiler drops all bounds checks and keeps the tile
/// in registers; `FMA` selects fused `mul_add` (hardware FMA only — on
/// targets without it, `mul_add` falls back to a libm call, so the
/// portable instantiation uses plain multiply-add expressions).
#[inline(always)]
fn micro_kernel_body<const FMA: bool>(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [f64; MR * NR],
    acc_im: &mut [f64; MR * NR],
) {
    let panels = a_re
        .chunks_exact(MR)
        .zip(a_im.chunks_exact(MR))
        .zip(b_re.chunks_exact(NR).zip(b_im.chunks_exact(NR)));
    for ((ar, ai), (br, bi)) in panels {
        for j in 0..NR {
            let brj = br[j];
            let bij = bi[j];
            for i in 0..MR {
                let t = j * MR + i;
                if FMA {
                    acc_re[t] = ar[i].mul_add(brj, ai[i].mul_add(-bij, acc_re[t]));
                    acc_im[t] = ar[i].mul_add(bij, ai[i].mul_add(brj, acc_im[t]));
                } else {
                    acc_re[t] += ar[i] * brj - ai[i] * bij;
                    acc_im[t] += ar[i] * bij + ai[i] * brj;
                }
            }
        }
    }
}

/// AVX2/FMA instantiation of the micro-kernel. The `target_feature`
/// attribute lets LLVM emit 4-wide `vfmadd` over the `MR` lanes.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_fma(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [f64; MR * NR],
    acc_im: &mut [f64; MR * NR],
) {
    micro_kernel_body::<true>(a_re, a_im, b_re, b_im, acc_re, acc_im);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn micro_kernel_fma(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [f64; MR * NR],
    acc_im: &mut [f64; MR * NR],
) {
    micro_kernel_body::<false>(a_re, a_im, b_re, b_im, acc_re, acc_im);
}

/// Baseline-ISA instantiation (no fused multiply-add).
fn micro_kernel_portable(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [f64; MR * NR],
    acc_im: &mut [f64; MR * NR],
) {
    micro_kernel_body::<false>(a_re, a_im, b_re, b_im, acc_re, acc_im);
}

/// Packs the `mc × kc` block of `op(A)` at `(ic, pc)` into split-complex
/// row micro-panels of `MR` (k-major within a panel, panel `ip` at
/// `ip · depth · MR`), zero-padding the tail rows so the micro-kernel
/// never branches on the edge.
pub(crate) fn pack_a(
    a: Cols<'_>,
    op_a: Op,
    (ic, pc): (usize, usize),
    (mc, kc): (usize, usize),
    depth: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    debug_assert!(kc <= depth);
    let conj = op_a == Op::C;
    for ip in 0..mc.div_ceil(MR) {
        let ir = ip * MR;
        let rows = MR.min(mc - ir);
        let base = ip * depth * MR;
        let (pre, pim) = (
            &mut out_re[base..base + kc * MR],
            &mut out_im[base..base + kc * MR],
        );
        match op_a {
            // op(A)[ic+ir+i, pc+p] = A[ic+ir+i, pc+p]: contiguous down
            // stored columns.
            Op::N => {
                for p in 0..kc {
                    let col = a.col(pc + p);
                    for i in 0..rows {
                        let z = col[ic + ir + i];
                        pre[p * MR + i] = z.re;
                        pim[p * MR + i] = z.im;
                    }
                    for i in rows..MR {
                        pre[p * MR + i] = 0.0;
                        pim[p * MR + i] = 0.0;
                    }
                }
            }
            // op(A)[i, p] = A[p, i] (conjugated for C): a packed row comes
            // from a stored column, so walk columns of A.
            Op::T | Op::C => {
                for i in 0..rows {
                    let col = a.col(ic + ir + i);
                    for p in 0..kc {
                        let z = col[pc + p];
                        pre[p * MR + i] = z.re;
                        pim[p * MR + i] = if conj { -z.im } else { z.im };
                    }
                }
                for i in rows..MR {
                    for p in 0..kc {
                        pre[p * MR + i] = 0.0;
                        pim[p * MR + i] = 0.0;
                    }
                }
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` at `(pc, jc)` into split-complex
/// column micro-panels of `NR` (k-major within a panel, panel `jp` at
/// `jp · depth · NR`), zero-padded like [`pack_a`].
pub(crate) fn pack_b(
    b: Cols<'_>,
    op_b: Op,
    (pc, jc): (usize, usize),
    (kc, nc): (usize, usize),
    depth: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    debug_assert!(kc <= depth);
    let conj = op_b == Op::C;
    for jp in 0..nc.div_ceil(NR) {
        let jr = jp * NR;
        let cols = NR.min(nc - jr);
        let base = jp * depth * NR;
        let (pre, pim) = (
            &mut out_re[base..base + kc * NR],
            &mut out_im[base..base + kc * NR],
        );
        match op_b {
            // op(B)[pc+p, jc+jr+j] = B[pc+p, jc+jr+j]: a packed column is a
            // stored column.
            Op::N => {
                for j in 0..cols {
                    let col = b.col(jc + jr + j);
                    for p in 0..kc {
                        let z = col[pc + p];
                        pre[p * NR + j] = z.re;
                        pim[p * NR + j] = z.im;
                    }
                }
                for j in cols..NR {
                    for p in 0..kc {
                        pre[p * NR + j] = 0.0;
                        pim[p * NR + j] = 0.0;
                    }
                }
            }
            // op(B)[p, j] = B[j, p]: a packed column is a stored row, so a
            // packed k-slab is contiguous in the stored column `pc+p`.
            Op::T | Op::C => {
                for p in 0..kc {
                    let col = b.col(pc + p);
                    for j in 0..cols {
                        let z = col[jc + jr + j];
                        pre[p * NR + j] = z.re;
                        pim[p * NR + j] = if conj { -z.im } else { z.im };
                    }
                    for j in cols..NR {
                        pre[p * NR + j] = 0.0;
                        pim[p * NR + j] = 0.0;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Naive reference (the seed kernel, retained).
// ---------------------------------------------------------------------------

/// The seed's unblocked kernel: column-major AXPY (`op_a == N`) / dot
/// (`op_a ∈ {T, C}`) loops. Retained as the property-test oracle and the
/// baseline for the Table 7 speedup measurements — not used on hot paths.
pub fn gemm_naive(
    alpha: C64,
    a: &CMatrix,
    op_a: Op,
    b: &CMatrix,
    op_b: Op,
    beta: C64,
    c: &mut CMatrix,
) {
    let (m, n, k) = check_shapes(a, op_a, b, op_b, c);
    if beta == C64::ZERO {
        c.fill_zero();
    } else if beta != C64::ONE {
        c.scale_inplace(beta);
    }
    if alpha == C64::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let b = Cols::from(b);
    match op_a {
        Op::N => {
            for j in 0..n {
                let cj = c.col_mut(j);
                for l in 0..k {
                    let w = alpha * b.fetch(op_b, l, j);
                    if w == C64::ZERO {
                        continue;
                    }
                    for (ci, &ail) in cj.iter_mut().zip(a.col(l).iter()) {
                        *ci = ci.mul_add(ail, w);
                    }
                }
            }
        }
        Op::T | Op::C => {
            let conj_a = op_a == Op::C;
            // Stage op(B) column j into a contiguous scratch, reused across i.
            let mut bcol = vec![C64::ZERO; k];
            for j in 0..n {
                for (l, slot) in bcol.iter_mut().enumerate() {
                    *slot = b.fetch(op_b, l, j);
                }
                let cj = c.col_mut(j);
                for (i, ci) in cj.iter_mut().enumerate().take(m) {
                    let ai = a.col(i); // column i of A == row i of op(A)
                    let mut acc = C64::ZERO;
                    if conj_a {
                        for (&av, &bv) in ai.iter().zip(bcol.iter()) {
                            acc = acc.mul_add(av.conj(), bv);
                        }
                    } else {
                        for (&av, &bv) in ai.iter().zip(bcol.iter()) {
                            acc = acc.mul_add(av, bv);
                        }
                    }
                    *ci = ci.mul_add(alpha, acc);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Convenience wrappers.
// ---------------------------------------------------------------------------

/// Allocating convenience wrapper: returns `A * B`.
pub fn matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut c = CMatrix::zeros(a.rows(), b.cols());
    gemm(C64::ONE, a, Op::N, b, Op::N, C64::ZERO, &mut c);
    c
}

/// Triple product `A * B * C`, associating left-to-right.
pub fn matmul3(a: &CMatrix, b: &CMatrix, c: &CMatrix) -> CMatrix {
    matmul(&matmul(a, b), c)
}

/// Flop count of one complex GEMM with the paper's convention: a complex
/// multiply-add costs 8 real flops, so `m × n × k` MACs cost `8 m n k`.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    8 * (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn naive(a: &CMatrix, op_a: Op, b: &CMatrix, op_b: Op) -> CMatrix {
        let m = op_a.rows(a.rows(), a.cols());
        let k = op_a.cols(a.rows(), a.cols());
        let n = op_b.cols(b.rows(), b.cols());
        let fa = |i: usize, l: usize| match op_a {
            Op::N => a[(i, l)],
            Op::T => a[(l, i)],
            Op::C => a[(l, i)].conj(),
        };
        let fb = |l: usize, j: usize| match op_b {
            Op::N => b[(l, j)],
            Op::T => b[(j, l)],
            Op::C => b[(j, l)].conj(),
        };
        CMatrix::from_fn(m, n, |i, j| (0..k).map(|l| fa(i, l) * fb(l, j)).sum())
    }

    /// `op_a(A) · op_b(B)` through [`gemm`] into a fresh matrix.
    fn matmul_op(a: &CMatrix, op_a: Op, b: &CMatrix, op_b: Op) -> CMatrix {
        let (m, n) = (op_a.rows(a.rows(), a.cols()), op_b.cols(b.rows(), b.cols()));
        let mut c = CMatrix::zeros(m, n);
        gemm(C64::ONE, a, op_a, b, op_b, C64::ZERO, &mut c);
        c
    }

    fn test_mat(r: usize, c: usize, seed: f64) -> CMatrix {
        CMatrix::from_fn(r, c, |i, j| {
            c64(
                ((i * 31 + j * 7) as f64 * 0.173 + seed).sin(),
                ((i * 13 + j * 17) as f64 * 0.311 - seed).cos(),
            )
        })
    }

    #[test]
    fn all_op_combinations_match_naive() {
        // op(A) must be 4x3, op(B) 3x5.
        for &op_a in &[Op::N, Op::T, Op::C] {
            for &op_b in &[Op::N, Op::T, Op::C] {
                let a = match op_a {
                    Op::N => test_mat(4, 3, 0.1),
                    _ => test_mat(3, 4, 0.1),
                };
                let b = match op_b {
                    Op::N => test_mat(3, 5, 0.7),
                    _ => test_mat(5, 3, 0.7),
                };
                let got = matmul_op(&a, op_a, &b, op_b);
                let want = naive(&a, op_a, &b, op_b);
                assert!(
                    got.approx_eq(&want, 1e-12),
                    "mismatch for ({op_a:?},{op_b:?})"
                );
            }
        }
    }

    #[test]
    fn packed_path_matches_naive_all_ops() {
        // Sizes above SMALL_DIM with non-multiples of every block size so
        // all edge-tile paths run.
        let (m, n, k) = (37, 29, 23);
        for &op_a in &[Op::N, Op::T, Op::C] {
            for &op_b in &[Op::N, Op::T, Op::C] {
                let a = match op_a {
                    Op::N => test_mat(m, k, 0.3),
                    _ => test_mat(k, m, 0.3),
                };
                let b = match op_b {
                    Op::N => test_mat(k, n, 0.8),
                    _ => test_mat(n, k, 0.8),
                };
                let c0 = test_mat(m, n, 1.9);
                let alpha = c64(0.7, -0.4);
                let beta = c64(-1.1, 0.2);
                let mut got = c0.clone();
                gemm(alpha, &a, op_a, &b, op_b, beta, &mut got);
                let mut want = c0.clone();
                gemm_naive(alpha, &a, op_a, &b, op_b, beta, &mut want);
                assert!(
                    got.approx_eq(&want, 1e-11),
                    "packed/naive mismatch for ({op_a:?},{op_b:?})"
                );
            }
        }
    }

    #[test]
    fn packed_path_spans_multiple_cache_blocks() {
        // k > KC and n > NC exercise the outer blocked loops.
        let (m, n, k) = (70, NC + 5, KC + 9);
        let a = test_mat(m, k, 0.2);
        let b = test_mat(k, n, 0.6);
        let got = matmul(&a, &b);
        let mut want = CMatrix::zeros(m, n);
        gemm_naive(C64::ONE, &a, Op::N, &b, Op::N, C64::ZERO, &mut want);
        // Tile reassociation changes rounding; tolerance scaled to k.
        assert!(got.approx_eq(&want, 1e-10));
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = test_mat(3, 3, 0.3);
        let b = test_mat(3, 3, 0.9);
        let c0 = test_mat(3, 3, 1.5);
        let mut c = c0.clone();
        let alpha = c64(0.5, -1.0);
        let beta = c64(2.0, 0.25);
        gemm(alpha, &a, Op::N, &b, Op::N, beta, &mut c);
        let want = {
            let mut w2 = c0.scaled(beta);
            w2 += &naive(&a, Op::N, &b, Op::N).scaled(alpha);
            w2
        };
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_mat(5, 5, 0.2);
        let id = CMatrix::identity(5);
        assert!(matmul(&a, &id).approx_eq(&a, 1e-14));
        assert!(matmul(&id, &a).approx_eq(&a, 1e-14));
    }

    #[test]
    fn adjoint_product_identity() {
        // (A B)† == B† A† and (A B)^T == B^T A^T, on the direct path and
        // the packed one.
        for (m, k, n) in [(4, 3, 6), (37, 23, 29)] {
            let a = test_mat(m, k, 0.5);
            let b = test_mat(k, n, 1.1);
            let ab = matmul(&a, &b);
            let mut rhs = CMatrix::zeros(n, m);
            gemm(C64::ONE, &b, Op::C, &a, Op::C, C64::ZERO, &mut rhs);
            assert!(ab.adjoint().approx_eq(&rhs, 1e-12));
            gemm(C64::ONE, &b, Op::T, &a, Op::T, C64::ZERO, &mut rhs);
            assert!(ab.transpose().approx_eq(&rhs, 1e-12));
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = test_mat(7, 2, 0.0);
        let b = test_mat(2, 9, 0.4);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (7, 9));
        assert!(c.approx_eq(&naive(&a, Op::N, &b, Op::N), 1e-12));
    }

    #[test]
    fn zero_alpha_only_scales_c() {
        let a = test_mat(3, 3, 0.0);
        let b = test_mat(3, 3, 0.1);
        let c0 = test_mat(3, 3, 0.2);
        let mut c = c0.clone();
        gemm(C64::ZERO, &a, Op::N, &b, Op::N, c64(3.0, 0.0), &mut c);
        assert!(c.approx_eq(&c0.scaled(c64(3.0, 0.0)), 1e-14));
    }

    #[test]
    fn matmul3_associativity() {
        let a = test_mat(3, 4, 0.1);
        let b = test_mat(4, 2, 0.2);
        let c = test_mat(2, 5, 0.3);
        let lhs = matmul3(&a, &b, &c);
        let rhs = matmul(&a, &matmul(&b, &c));
        assert!(lhs.approx_eq(&rhs, 1e-11));
    }

    #[test]
    fn into_variants_match_allocating() {
        // `gemm` with `beta = 0` into a buffer holding stale values gives
        // the allocating wrappers' bits, on the direct and packed paths.
        let a = test_mat(21, 17, 0.4);
        let b = test_mat(17, 33, 0.9);
        let c = test_mat(33, 12, 1.3);
        let mut out = test_mat(21, 33, 2.0);
        gemm(C64::ONE, &a, Op::N, &b, Op::N, C64::ZERO, &mut out);
        assert!(out.approx_eq(&matmul(&a, &b), 0.0));
        let mut out = test_mat(33, 21, 2.1);
        gemm(C64::ONE, &b, Op::C, &a, Op::C, C64::ZERO, &mut out);
        assert!(out.approx_eq(&matmul_op(&b, Op::C, &a, Op::C), 0.0));
        let mut scratch = test_mat(21, 33, 2.2);
        let mut out = test_mat(21, 12, 2.3);
        gemm(C64::ONE, &a, Op::N, &b, Op::N, C64::ZERO, &mut scratch);
        gemm(C64::ONE, &scratch, Op::N, &c, Op::N, C64::ZERO, &mut out);
        assert!(out.approx_eq(&matmul3(&a, &b, &c), 0.0));
    }

    #[test]
    fn flop_count_convention() {
        assert_eq!(gemm_flops(12, 12, 12), 8 * 12 * 12 * 12);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }
}
