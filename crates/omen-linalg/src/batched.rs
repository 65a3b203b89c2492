//! Strided-batched small matrix multiplication (SBSMM).
//!
//! Step ❸ of the paper's SSE transformation (Fig. 6) aggregates thousands of
//! `Norb × Norb` multiplications into one strided-batched GEMM. cuBLAS'
//! `ZgemmStridedBatched` pads small problems heavily (85.7% of peak but only
//! ~6% *useful* flops, Table 9); the paper's custom DaCe tasklet (SBSMM)
//! avoids padding and is 5.76× faster. We reproduce both strategies:
//!
//! * [`sbsmm`] — the specialized no-padding kernel (DaCe
//!   analogue), routed through the **packed split-complex micro-kernel**;
//! * [`sbsmm_padded`] — a vendor-library stand-in that rounds every operand
//!   up to a tuning size (default 16) and performs the full padded product,
//!   wasting the same ratio of flops cuBLAS does on 12×12 inputs.
//!
//! # Batch-level packing
//!
//! The production batched path reuses the register-tiled `MR × NR` FMA
//! micro-kernel built for the dense [`mod@crate::gemm`] (runtime AVX2+FMA
//! dispatch, portable fallback, `OMEN_FORCE_SCALAR` override). Operands are
//! packed once into *split-complex* micro-panels — separate real and
//! imaginary `f64` planes, `MR`-row panels for `A` and `NR`-column panels
//! for `B`, k-major within a panel — and the kernel sweeps the panels over
//! all batch items. Packing is amortized at the batch level:
//!
//! * a **stride-0 operand** (the transformed SSE kernel's shapes: the
//!   gradient `∇H` shared as `A` in stage A, the `∇H·D` block shared as
//!   `B` in stage C) is packed exactly once per call;
//! * a caller can go further and pack a shared `B` once into a [`PackedB`]
//!   and sweep it across *many* calls via [`sbsmm_pb`] / [`small_gemm_pb`]
//!   (stage C packs each `∇H·D` block once per `(pair, i, qz, ω)` tuple
//!   and reuses it across the whole `kz` loop);
//! * per-call packs go to the thread's pack arena, the one [`crate::gemm()`]
//!   packs into, so the warm batched path performs **zero heap
//!   allocations** (asserted by the `integration_alloc` regression test).
//!
//! The packers, the tile sweep and the arena are [`mod@crate::gemm`]'s:
//! a batch item is an `Op::N` block packed at panel pitch `k`.
//!
//! Items too small to amortize packing (see [`use_packed_kernel`]) run the
//! retained scalar loop [`sbsmm_scalar`] / [`small_gemm`], which also
//! serves as the correctness oracle for the property tests. Callers with
//! long runs of such items — the SSE pair stages — vectorise across the
//! batch instead, through the energy-plane kernels ([`crate::planes_lmul`],
//! [`crate::planes_mac`], [`crate::planes_dots`]).

// The batched entry points mirror BLAS `gemmStridedBatched` signatures.
#![allow(clippy::too_many_arguments)]

use crate::complex::C64;
use crate::dense::CMatrix;
use crate::gemm::{
    fma_available, gemm, pack_a, pack_b, sweep_tiles, with_pack_bufs, Cols, ColsMut, Op, MR, NR,
};

/// Dimensions of one batch item: `C (m×n) = A (m×k) · B (k×n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchDims {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl BatchDims {
    /// Square `n × n` batch item.
    pub fn square(n: usize) -> Self {
        BatchDims { m: n, n, k: n }
    }

    /// Useful flops per batch item (8 real flops per complex MAC).
    pub fn flops(&self) -> u64 {
        8 * (self.m as u64) * (self.n as u64) * (self.k as u64)
    }
}

/// Strided-batched layout descriptor for one operand: element `b` of the
/// batch starts at `offset + b * stride` in the backing slice, stored
/// column-major with the leading dimension equal to the row count.
#[derive(Clone, Copy, Debug)]
pub struct Strides {
    /// Distance in elements between consecutive batch items.
    pub a: usize,
    /// Distance for the `B` operand.
    pub b: usize,
    /// Distance for the `C` operand.
    pub c: usize,
}

impl Strides {
    /// Dense packing: every operand stride equals its matrix size.
    pub fn packed(dims: BatchDims) -> Self {
        Strides {
            a: dims.m * dims.k,
            b: dims.k * dims.n,
            c: dims.m * dims.n,
        }
    }
}

// ---------------------------------------------------------------------------
// Split-complex micro-panel packing.
// ---------------------------------------------------------------------------

/// A `k × n` matrix packed once into split-complex `NR`-column micro-panels,
/// ready to be swept by the micro-kernel against many `A` operands
/// ([`sbsmm_pb`], [`small_gemm_pb`]). Reusing a `PackedB` across calls
/// amortizes the packing of a shared right-hand operand (the transformed
/// SSE kernel's stage C reuses each `∇H·D` block across the whole `kz`
/// loop and all four Σ updates).
#[derive(Default)]
pub struct PackedB {
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
    pub(crate) k: usize,
    pub(crate) n: usize,
}

impl PackedB {
    /// An empty pack; buffers materialize on first [`PackedB::pack`].
    pub fn empty() -> Self {
        PackedB::default()
    }

    /// Packs the column-major `k × n` matrix `b` into split-complex
    /// `NR`-panels, reusing this pack's buffers (allocation-free once they
    /// are large enough).
    pub fn pack(&mut self, k: usize, n: usize, b: &[C64]) {
        assert!(b.len() >= k * n, "PackedB::pack: operand too short");
        self.k = k;
        self.n = n;
        let len = n.div_ceil(NR) * NR * k;
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
        pack_item_b(b, k, n, &mut self.re, &mut self.im);
    }
}

/// Packs the column-major `m × k` item `a` as `A` panels of pitch `k`,
/// counting its bytes.
fn pack_item_a(a: &[C64], m: usize, k: usize, out_re: &mut [f64], out_im: &mut [f64]) {
    count_packed(m * k);
    pack_a(Cols::new(a, m), Op::N, (0, 0), (m, k), k, out_re, out_im);
}

/// Packs the column-major `k × n` item `b` as `B` panels of pitch `k`,
/// counting its bytes.
fn pack_item_b(b: &[C64], k: usize, n: usize, out_re: &mut [f64], out_im: &mut [f64]) {
    count_packed(k * n);
    pack_b(Cols::new(b, k), Op::N, (0, 0), (k, n), k, out_re, out_im);
}

/// Records `elems` complex elements packed by the batched path.
fn count_packed(elems: usize) {
    omen_trace::add(
        omen_trace::Counter::BytesPacked,
        (elems * std::mem::size_of::<C64>()) as u64,
    );
}

/// Sweeps one item's packed `A` and `B` panels (pitch `k`) into its
/// column-major `m × n` output `c`.
fn sweep_item(
    fma: bool,
    dims: BatchDims,
    alpha: C64,
    a: (&[f64], &[f64]),
    b: (&[f64], &[f64]),
    c: &mut [C64],
) {
    let BatchDims { m, n, k } = dims;
    sweep_tiles(
        fma,
        alpha,
        (m, n, k),
        k,
        a,
        b,
        &mut ColsMut::new(c, m),
        (0, 0),
    );
}

/// Applies the `beta` prescale of one output item (`fill` / scale / no-op).
#[inline]
fn scale_c(beta: C64, c: &mut [C64]) {
    if beta == C64::ZERO {
        c.fill(C64::ZERO);
    } else if beta != C64::ONE {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
}

/// `true` when the packed micro-kernel path pays off for this item shape:
/// the item must be large enough to amortize packing, and the `MR × NR`
/// zero-padding must not inflate the tile work beyond 2× the useful flops
/// (a `12 × 1` sliver would spend 4× the flops on padded lanes).
pub fn use_packed_kernel(dims: BatchDims) -> bool {
    let BatchDims { m, n, k } = dims;
    if m == 0 || n == 0 || k == 0 {
        return false;
    }
    let useful = m * n * k;
    let padded = m.div_ceil(MR) * MR * n.div_ceil(NR) * NR * k;
    useful >= 192 && padded <= 2 * useful
}

// ---------------------------------------------------------------------------
// Batched entry points.
// ---------------------------------------------------------------------------

/// The specialized strided-batched small-matrix multiply:
/// `C[b] = alpha · A[b] · B[b] + beta · C[b]` for `b < batch`.
///
/// Runs the packed split-complex micro-kernel when the item shape
/// amortizes packing ([`use_packed_kernel`]); stride-0 operands are packed
/// once for the whole batch. Tiny items fall back to the scalar loop.
/// Packs go to this thread's pack arena.
pub fn sbsmm(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    b: &[C64],
    beta: C64,
    c: &mut [C64],
    strides: Strides,
) {
    check_bounds(dims, batch, a.len(), b.len(), c.len(), strides);
    if batch == 0 {
        return;
    }
    if alpha != C64::ZERO {
        count_sbsmm(dims, batch);
    }
    if alpha == C64::ZERO || !use_packed_kernel(dims) {
        sbsmm_scalar_unchecked(dims, batch, alpha, a, b, beta, c, strides);
        return;
    }
    sbsmm_packed(dims, batch, alpha, a, b, beta, c, strides);
}

/// Records one batched-multiply invocation and its `8·m·n·k·batch`
/// complex FLOPs against the trace registry (no-op while disarmed).
fn count_sbsmm(dims: BatchDims, batch: usize) {
    crate::planes::count_fused_run(dims.flops() * batch as u64);
}

/// The packed batch engine (bounds already checked, shape known
/// worthwhile): packs stride-0 operands once, per-item operands per item,
/// and sweeps the micro-kernel.
fn sbsmm_packed(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    b: &[C64],
    beta: C64,
    c: &mut [C64],
    strides: Strides,
) {
    let BatchDims { m, n, k } = dims;
    let fma = fma_available();
    let (a_len, b_len) = (m.div_ceil(MR) * MR * k, n.div_ceil(NR) * NR * k);
    with_pack_bufs(a_len, b_len, |p| {
        for idx in 0..batch {
            let cv = &mut c[idx * strides.c..idx * strides.c + m * n];
            scale_c(beta, cv);
            if strides.a != 0 || idx == 0 {
                let av = &a[idx * strides.a..idx * strides.a + m * k];
                pack_item_a(av, m, k, &mut p.a_re, &mut p.a_im);
            }
            if strides.b != 0 || idx == 0 {
                let bv = &b[idx * strides.b..idx * strides.b + k * n];
                pack_item_b(bv, k, n, &mut p.b_re, &mut p.b_im);
            }
            sweep_item(fma, dims, alpha, (&p.a_re, &p.a_im), (&p.b_re, &p.b_im), cv);
        }
    });
}

/// Strided-batched multiply against a pre-packed `B`:
/// `C[i] = alpha · A[i] · B + beta · C[i]`. The caller amortizes
/// [`PackedB::pack`] across as many calls as it likes (the transformed SSE
/// stage C packs each `∇H·D` block once and sweeps it over the whole `kz`
/// loop and all four Σ^≷ updates). A-stride `0` packs `A` once too.
/// Always runs the packed micro-kernel (callers opt in per shape with
/// [`use_packed_kernel`]).
pub fn sbsmm_pb(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    stride_a: usize,
    pb: &PackedB,
    beta: C64,
    c: &mut [C64],
    stride_c: usize,
) {
    let BatchDims { m, n, k } = dims;
    assert_eq!((pb.k, pb.n), (k, n), "sbsmm_pb: PackedB shape mismatch");
    if batch == 0 {
        return;
    }
    assert!(
        (batch - 1) * stride_a + m * k <= a.len(),
        "A slice too short for batch"
    );
    assert!(
        (batch - 1) * stride_c + m * n <= c.len(),
        "C slice too short for batch"
    );
    if alpha == C64::ZERO {
        for idx in 0..batch {
            scale_c(beta, &mut c[idx * stride_c..idx * stride_c + m * n]);
        }
        return;
    }
    count_sbsmm(dims, batch);
    let fma = fma_available();
    with_pack_bufs(m.div_ceil(MR) * MR * k, 0, |p| {
        for idx in 0..batch {
            let cv = &mut c[idx * stride_c..idx * stride_c + m * n];
            scale_c(beta, cv);
            if stride_a != 0 || idx == 0 {
                let av = &a[idx * stride_a..idx * stride_a + m * k];
                pack_item_a(av, m, k, &mut p.a_re, &mut p.a_im);
            }
            sweep_item(fma, dims, alpha, (&p.a_re, &p.a_im), (&pb.re, &pb.im), cv);
        }
    });
}

/// Single-item convenience over [`sbsmm_pb`]: one small GEMM against a
/// pre-packed `B` (the per-point SSE kernels pack each `G` block once and
/// reuse it across the three gradient directions).
pub fn small_gemm_pb(
    dims: BatchDims,
    alpha: C64,
    a: &[C64],
    pb: &PackedB,
    beta: C64,
    c: &mut [C64],
) {
    sbsmm_pb(
        dims,
        1,
        alpha,
        a,
        dims.m * dims.k,
        pb,
        beta,
        c,
        dims.m * dims.n,
    );
}

/// The retained scalar batched loop (the seed's formulation): the
/// correctness oracle the property tests pin the packed path against, and
/// the baseline `table9_sbsmm` measures speedups from.
pub fn sbsmm_scalar(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    b: &[C64],
    beta: C64,
    c: &mut [C64],
    strides: Strides,
) {
    check_bounds(dims, batch, a.len(), b.len(), c.len(), strides);
    sbsmm_scalar_unchecked(dims, batch, alpha, a, b, beta, c, strides);
}

fn sbsmm_scalar_unchecked(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    b: &[C64],
    beta: C64,
    c: &mut [C64],
    strides: Strides,
) {
    for idx in 0..batch {
        let av = &a[idx * strides.a..idx * strides.a + dims.m * dims.k];
        let bv = &b[idx * strides.b..idx * strides.b + dims.k * dims.n];
        let cv = &mut c[idx * strides.c..idx * strides.c + dims.m * dims.n];
        small_gemm(dims, alpha, av, bv, beta, cv);
    }
}

/// One small column-major GEMM on raw slices (no `CMatrix` wrapper, no
/// allocation): the scalar interleaved-complex reference kernel. Kept
/// `#[inline]` so the batch loop fuses.
#[inline]
pub fn small_gemm(dims: BatchDims, alpha: C64, a: &[C64], b: &[C64], beta: C64, c: &mut [C64]) {
    let BatchDims { m, n, k } = dims;
    if beta == C64::ZERO {
        c.fill(C64::ZERO);
    } else if beta != C64::ONE {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    for j in 0..n {
        let cj = &mut c[j * m..(j + 1) * m];
        for l in 0..k {
            let w = alpha * b[j * k + l];
            if w == C64::ZERO {
                continue;
            }
            let al = &a[l * m..(l + 1) * m];
            for (ci, &ail) in cj.iter_mut().zip(al.iter()) {
                *ci = ci.mul_add(ail, w);
            }
        }
    }
}

/// Vendor-library stand-in: pads every operand to `pad × pad` (cuBLAS'
/// internal tile size for the small-problem path) and runs the full padded
/// multiplication. Numerically identical to [`sbsmm`] but performs
/// `(pad/m)·(pad/n)·(pad/k)` times more work — reproducing the
/// useful-vs-peak gap in Table 9.
pub fn sbsmm_padded(
    dims: BatchDims,
    batch: usize,
    alpha: C64,
    a: &[C64],
    b: &[C64],
    beta: C64,
    c: &mut [C64],
    strides: Strides,
    pad: usize,
) {
    assert!(
        pad >= dims.m && pad >= dims.n && pad >= dims.k,
        "pad too small"
    );
    check_bounds(dims, batch, a.len(), b.len(), c.len(), strides);
    let mut pa = CMatrix::zeros(pad, pad);
    let mut pb = CMatrix::zeros(pad, pad);
    let mut pc = CMatrix::zeros(pad, pad);
    for idx in 0..batch {
        pa.fill_zero();
        pb.fill_zero();
        pc.fill_zero();
        let av = &a[idx * strides.a..];
        let bv = &b[idx * strides.b..];
        for j in 0..dims.k {
            for i in 0..dims.m {
                pa[(i, j)] = av[j * dims.m + i];
            }
        }
        for j in 0..dims.n {
            for i in 0..dims.k {
                pb[(i, j)] = bv[j * dims.k + i];
            }
        }
        gemm(C64::ONE, &pa, Op::N, &pb, Op::N, C64::ZERO, &mut pc);
        // C = beta*C + alpha*P, matching sbsmm's semantics exactly.
        let cv = &mut c[idx * strides.c..idx * strides.c + dims.m * dims.n];
        for j in 0..dims.n {
            for i in 0..dims.m {
                let out = &mut cv[j * dims.m + i];
                *out = *out * beta + alpha * pc[(i, j)];
            }
        }
    }
}

/// Total *performed* flops of the padded strategy.
pub fn padded_flops(pad: usize, batch: usize) -> u64 {
    8 * (pad as u64).pow(3) * batch as u64
}

fn check_bounds(
    dims: BatchDims,
    batch: usize,
    alen: usize,
    blen: usize,
    clen: usize,
    strides: Strides,
) {
    if batch == 0 {
        return;
    }
    let last = batch - 1;
    assert!(
        last * strides.a + dims.m * dims.k <= alen,
        "A slice too short for batch"
    );
    assert!(
        last * strides.b + dims.k * dims.n <= blen,
        "B slice too short for batch"
    );
    assert!(
        last * strides.c + dims.m * dims.n <= clen,
        "C slice too short for batch"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::matmul;

    fn fill(n: usize, seed: u64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let x = (i as f64 + seed as f64 * 0.37).sin();
                let y = (i as f64 * 1.7 - seed as f64).cos();
                c64(x, y)
            })
            .collect()
    }

    fn reference(dims: BatchDims, batch: usize, a: &[C64], b: &[C64], s: Strides) -> Vec<C64> {
        let mut out = vec![C64::ZERO; batch * s.c];
        for idx in 0..batch {
            let am = CMatrix::from_vec(
                dims.m,
                dims.k,
                a[idx * s.a..idx * s.a + dims.m * dims.k].to_vec(),
            );
            let bm = CMatrix::from_vec(
                dims.k,
                dims.n,
                b[idx * s.b..idx * s.b + dims.k * dims.n].to_vec(),
            );
            let cm = matmul(&am, &bm);
            out[idx * s.c..idx * s.c + dims.m * dims.n].copy_from_slice(cm.as_slice());
        }
        out
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn sbsmm_matches_reference() {
        let dims = BatchDims {
            m: 12,
            n: 12,
            k: 12,
        };
        let s = Strides::packed(dims);
        let batch = 17;
        let a = fill(batch * s.a, 1);
        let b = fill(batch * s.b, 2);
        let mut c = vec![C64::ZERO; batch * s.c];
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
        let want = reference(dims, batch, &a, &b, s);
        assert!(max_err(&c, &want) < 1e-12);
    }

    #[test]
    fn packed_matches_scalar_shared_b() {
        // The transformed-kernel stage-C shape: A strided, B shared
        // (stride 0), accumulating into C (beta = 1).
        let dims = BatchDims::square(12);
        let batch = 9;
        let s = Strides {
            a: dims.m * dims.k,
            b: 0,
            c: dims.m * dims.n,
        };
        let a = fill(batch * s.a, 5);
        let b = fill(dims.k * dims.n, 6);
        let c0 = fill(batch * s.c, 7);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c1, s);
        sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c2, s);
        assert!(max_err(&c1, &c2) < 1e-12);
    }

    #[test]
    fn packed_matches_scalar_shared_a() {
        // The stage-A shape: A shared (stride 0), B strided.
        let dims = BatchDims { m: 12, n: 8, k: 12 };
        let batch = 7;
        let s = Strides {
            a: 0,
            b: dims.k * dims.n,
            c: dims.m * dims.n,
        };
        let a = fill(dims.m * dims.k, 8);
        let b = fill(batch * s.b, 9);
        let mut c1 = vec![C64::ZERO; batch * s.c];
        let mut c2 = vec![C64::ZERO; batch * s.c];
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c1, s);
        sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c2, s);
        assert!(max_err(&c1, &c2) < 1e-12);
    }

    #[test]
    fn sbsmm_pb_matches_scalar() {
        let dims = BatchDims::square(12);
        let batch = 5;
        let s = Strides {
            a: dims.m * dims.k,
            b: 0,
            c: dims.m * dims.n,
        };
        let a = fill(batch * s.a, 11);
        let b = fill(dims.k * dims.n, 12);
        let c0 = fill(batch * s.c, 13);
        let mut pb = PackedB::empty();
        pb.pack(dims.k, dims.n, &b);
        assert_eq!((pb.k, pb.n), (12, 12));
        let mut c1 = c0.clone();
        sbsmm_pb(dims, batch, C64::ONE, &a, s.a, &pb, C64::ONE, &mut c1, s.c);
        let mut c2 = c0.clone();
        sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c2, s);
        assert!(max_err(&c1, &c2) < 1e-12);
        // Single-item wrapper agrees too.
        let mut c3 = c0[..s.c].to_vec();
        small_gemm_pb(dims, C64::ONE, &a[..s.a], &pb, C64::ONE, &mut c3);
        assert!(max_err(&c3, &c1[..s.c]) < 1e-12);
    }

    #[test]
    fn padded_matches_specialized() {
        let dims = BatchDims {
            m: 12,
            n: 12,
            k: 12,
        };
        let s = Strides::packed(dims);
        let batch = 5;
        let a = fill(batch * s.a, 7);
        let b = fill(batch * s.b, 8);
        let mut c1 = vec![C64::ZERO; batch * s.c];
        let mut c2 = vec![C64::ZERO; batch * s.c];
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c1, s);
        sbsmm_padded(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c2, s, 16);
        assert!(max_err(&c1, &c2) < 1e-12);
    }

    #[test]
    fn accumulation_beta_one() {
        let dims = BatchDims::square(6);
        let s = Strides::packed(dims);
        let batch = 3;
        let a = fill(batch * s.a, 10);
        let b = fill(batch * s.b, 11);
        let c0 = fill(batch * s.c, 12);
        let mut c = c0.clone();
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ONE, &mut c, s);
        let prod = reference(dims, batch, &a, &b, s);
        for i in 0..c.len() {
            assert!((c[i] - (c0[i] + prod[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn alpha_beta_away_from_unit() {
        let dims = BatchDims { m: 12, n: 9, k: 14 };
        let s = Strides::packed(dims);
        let batch = 4;
        let alpha = c64(0.7, -1.3);
        let beta = c64(-0.4, 2.1);
        let a = fill(batch * s.a, 21);
        let b = fill(batch * s.b, 22);
        let c0 = fill(batch * s.c, 23);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        sbsmm(dims, batch, alpha, &a, &b, beta, &mut c1, s);
        sbsmm_scalar(dims, batch, alpha, &a, &b, beta, &mut c2, s);
        assert!(max_err(&c1, &c2) < 1e-11);
    }

    #[test]
    fn interleaved_strides() {
        // Items spaced twice as far apart as their size: gaps are untouched.
        let dims = BatchDims::square(4);
        let base = Strides::packed(dims);
        let s = Strides {
            a: base.a * 2,
            b: base.b * 2,
            c: base.c * 2,
        };
        let batch = 4;
        let a = fill(batch * s.a, 20);
        let b = fill(batch * s.b, 21);
        let mut c = vec![c64(9.0, 9.0); batch * s.c];
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
        // Gap elements untouched:
        assert_eq!(c[base.c], c64(9.0, 9.0));
        // First item correct:
        let want = reference(dims, 1, &a[..base.a], &b[..base.b], base);
        assert!(max_err(&c[..base.c], &want[..base.c]) < 1e-12);
    }

    #[test]
    fn packed_dispatch_heuristic() {
        // 12×12×12 routes through the packed kernel; slivers and tiny
        // items stay scalar.
        assert!(use_packed_kernel(BatchDims::square(12)));
        assert!(use_packed_kernel(BatchDims::square(8)));
        assert!(!use_packed_kernel(BatchDims::square(4)));
        assert!(!use_packed_kernel(BatchDims { m: 12, n: 1, k: 12 }));
        assert!(!use_packed_kernel(BatchDims { m: 0, n: 4, k: 4 }));
    }

    #[test]
    fn flop_accounting() {
        let dims = BatchDims::square(12);
        assert_eq!(dims.flops(), 8 * 1728);
        assert_eq!(padded_flops(16, 10), 8 * 4096 * 10);
        // Useful fraction for 12^3 padded to 16^3 is (12/16)^3 ≈ 42%:
        let useful = dims.flops() as f64 * 10.0 / padded_flops(16, 10) as f64;
        assert!((useful - 0.421875).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "A slice too short")]
    fn bounds_checked() {
        let dims = BatchDims::square(4);
        let s = Strides::packed(dims);
        let a = vec![C64::ZERO; 10];
        let b = vec![C64::ZERO; 64];
        let mut c = vec![C64::ZERO; 64];
        sbsmm(dims, 4, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
    }
}
