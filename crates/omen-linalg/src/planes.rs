//! Energy-plane kernels: the tiny-block branch of the batched path.
//!
//! [`crate::batched`] vectorises *inside* one block, which needs a block
//! big enough to fill a register tile ([`crate::use_packed_kernel`]). The SSE
//! stages of a `Norb = 3` device multiply 3×3 blocks — 27 complex MACs
//! each, thousands of them in a row along the energy axis — so here the
//! *batch* is the SIMD axis instead (§5.4 / Table 9 of the paper: tiny
//! products must be executed across the batch, and the enabling step is a
//! data-layout change). A run of blocks is packed once into split-complex
//! **planes**, one contiguous `f64` run per matrix element and part, and
//! the kernels sweep whole planes:
//!
//! * [`planes_mac`] — `C[e] += A[e] · W` for every `e` of a run, as
//!   complex-scalar × energy-vector FMAs (SSE stage C);
//! * [`planes_dots`] — a 3 × 3 tile of complex dot products over one
//!   contiguous split-complex run (SSE stage D);
//! * [`planes_gemm`] — `C[e] = α·A[e]·op(B[e]) + β·C[e]` over a chunk of
//!   energy lanes whose operands all differ, every block product of the
//!   RGF recursion and the boundary decimation (`omen-rgf`): the lane
//!   kernel on blocks up to `SMALL_DIM`, larger blocks one lane at a time
//!   through [`crate::gemm()`]'s packed path.
//!
//! Each is one generic body instantiated twice, AVX2+FMA and portable,
//! behind the same runtime dispatch as the micro-kernel
//! (`OMEN_FORCE_SCALAR=1` pins the portable one). Within an instantiation
//! the arithmetic of one output element never depends on where in a run
//! it sits (vector step or scalar tail), so [`planes_mac`] and
//! [`planes_gemm`] are bitwise reproducible under any split of the energy
//! axis.
//!
//! The kernels do no accounting of their own: a caller fuses many sweeps
//! over one pack into a run and reports it once through
//! [`count_fused_run`].

use crate::batched::{BatchDims, PackedB};
use crate::complex::{c64, C64};
use crate::gemm::{fma_available, gemm_cols, Cols, ColsMut, Op, SMALL_DIM};

/// `f64` lanes of one vector step (one AVX2 register).
pub const LANES: usize = 4;

/// Largest block dimension [`planes_mac`] is instantiated for. Every
/// larger square block takes the packed micro-kernel
/// ([`crate::use_packed_kernel`]; pinned by a unit test).
pub const PLANES_MAX_DIM: usize = 5;

/// Caller-owned scratch of the SSE pair stages: the plane packs and
/// accumulators of the tiny-block kernels, and the shared-operand packs
/// of the packed branch. Empty until first used; a warm scratch makes
/// both branches allocation-free.
#[derive(Default)]
pub struct PlaneScratch {
    /// Packed operand streams, lesser and greater: the `∇H·G` sources of
    /// stage C, the `x` run of stage D.
    pub a: [Vec<f64>; 2],
    /// The block-transposed `y` run of stage D.
    pub b: [Vec<f64>; 2],
    /// Accumulator planes of stage C.
    pub c: [Vec<f64>; 2],
    /// The current `∇H·D` block pair, scaled.
    pub w: [Vec<C64>; 2],
    /// Shared-`B` packs of the packed branch.
    pub pb: [PackedB; 2],
}

/// Records one fused run of plane-kernel sweeps and the flops it
/// performed (no-op while tracing is disarmed).
pub fn count_fused_run(flops: u64) {
    omen_trace::add2(
        omen_trace::Counter::SbsmmCalls,
        1,
        omen_trace::Counter::SbsmmFlops,
        flops,
    );
}

fn count_packed(complex_elems: usize) {
    omen_trace::add(
        omen_trace::Counter::BytesPacked,
        (complex_elems * std::mem::size_of::<C64>()) as u64,
    );
}

// ---------------------------------------------------------------------------
// Packing.
// ---------------------------------------------------------------------------

/// Plane index of column-major element `x` of a `dim × dim` block: the
/// planes are in row-major order, so a block row is consecutive planes.
#[inline]
fn plane_of(dim: usize, x: usize) -> usize {
    (x % dim) * dim + x / dim
}

/// Packs `src` — runs of `len` column-major `dim × dim` blocks,
/// `[run][len][dim²]` — into element planes `[run][element][re|im][len]`,
/// elements in row-major order: the operand and accumulator layout of
/// [`planes_mac`]. `dst` keeps its buffer across calls.
pub fn pack_planes(dim: usize, len: usize, src: &[C64], dst: &mut Vec<f64>) {
    let bsz = dim * dim;
    let run = len * bsz;
    assert!(
        run > 0 && src.len().is_multiple_of(run),
        "pack_planes: ragged source"
    );
    count_packed(src.len());
    dst.resize(2 * src.len(), 0.0);
    for (s, d) in src.chunks_exact(run).zip(dst.chunks_exact_mut(2 * run)) {
        for (e, block) in s.chunks_exact(bsz).enumerate() {
            for (x, z) in block.iter().enumerate() {
                let o = 2 * plane_of(dim, x) * len + e;
                (d[o], d[o + len]) = (z.re, z.im);
            }
        }
    }
}

/// `out += planes`, the inverse walk of [`pack_planes`]: adds
/// accumulator planes `[run][element][re|im][len]` into blocks
/// `[run][len][dim²]`.
pub fn add_planes(dim: usize, len: usize, planes: &[f64], out: &mut [C64]) {
    let bsz = dim * dim;
    let run = len * bsz;
    assert_eq!(planes.len(), 2 * out.len(), "add_planes: shape mismatch");
    for (s, d) in planes.chunks_exact(2 * run).zip(out.chunks_exact_mut(run)) {
        for (e, block) in d.chunks_exact_mut(bsz).enumerate() {
            for (x, z) in block.iter_mut().enumerate() {
                let o = 2 * plane_of(dim, x) * len + e;
                *z += c64(s[o], s[o + len]);
            }
        }
    }
}

/// Splits `src` — runs of `len` complex numbers — into `[run][re|im][len]`,
/// the operand layout of [`planes_dots`]. With `transpose = Some(n)` every
/// consecutive `n × n` block is transposed on the way, so that
/// `tr(X·Y) = Σ_t x[t] · yᵀ[t]` becomes a plain dot product.
pub fn pack_split(len: usize, transpose: Option<usize>, src: &[C64], dst: &mut Vec<f64>) {
    assert!(
        len > 0 && src.len().is_multiple_of(len),
        "pack_split: ragged source"
    );
    count_packed(src.len());
    dst.resize(2 * src.len(), 0.0);
    for (s, d) in src.chunks_exact(len).zip(dst.chunks_exact_mut(2 * len)) {
        let (re, im) = d.split_at_mut(len);
        match transpose {
            None => {
                for ((z, re), im) in s.iter().zip(re).zip(im) {
                    (*re, *im) = (z.re, z.im);
                }
            }
            Some(n) => {
                assert_eq!(len % (n * n), 0, "pack_split: ragged blocks");
                let blocks = s.chunks_exact(n * n).zip(re.chunks_exact_mut(n * n));
                for ((s, re), im) in blocks.zip(im.chunks_exact_mut(n * n)) {
                    for r in 0..n {
                        for c in 0..n {
                            let z = s[r * n + c];
                            (re[c * n + r], im[c * n + r]) = (z.re, z.im);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stage C: block product with the run as the SIMD axis.
// ---------------------------------------------------------------------------

/// `C[(r, c)][e] += Σ_l A[(r, l)][e] · w[(l, c)]` for `e < n`: a run of
/// `n` tiny `dim × dim` products against one shared right operand `w`
/// (column-major), with the run as the SIMD axis.
///
/// `a` and `c` are element planes as [`pack_planes`] lays them out, each
/// sliced to start at the first block of the run: plane `2·x` of `a`
/// (`re` of element `x`, elements in row-major order) starts at `2·x·la`,
/// its `im` plane one plane length further; likewise `c` with `lc`. Each
/// output element sums its terms in one fixed order whatever `n` is and
/// wherever the run starts.
///
/// # Panics
/// If `dim` exceeds [`PLANES_MAX_DIM`] or a plane is too short for the run.
pub fn planes_mac(dim: usize, n: usize, a: &[f64], la: usize, w: &[C64], c: &mut [f64], lc: usize) {
    if n == 0 || dim == 0 {
        return;
    }
    let fma = fma_available();
    match dim {
        1 => mac_block::<1>(fma, n, a, la, w, c, lc),
        2 => mac_block::<2>(fma, n, a, la, w, c, lc),
        3 => mac_block::<3>(fma, n, a, la, w, c, lc),
        4 => mac_block::<4>(fma, n, a, la, w, c, lc),
        5 => mac_block::<5>(fma, n, a, la, w, c, lc),
        _ => panic!("planes_mac: block dimension {dim} > {PLANES_MAX_DIM}"),
    }
}

/// One instantiation per block dimension; `fma` from [`fma_available`].
fn mac_block<const N: usize>(
    fma: bool,
    n: usize,
    a: &[f64],
    la: usize,
    w: &[C64],
    c: &mut [f64],
    lc: usize,
) {
    // The last of the `2·N²` planes still holds `n` elements.
    let holds = |len: usize, stride: usize| {
        let end = (2 * N * N - 1)
            .checked_mul(stride)
            .and_then(|o| o.checked_add(n));
        n <= stride && end.is_some_and(|end| end <= len)
    };
    assert!(w.len() >= N * N, "planes_mac: W too short");
    assert!(holds(a.len(), la), "planes_mac: A planes too short");
    assert!(holds(c.len(), lc), "planes_mac: C planes too short");
    #[cfg(target_arch = "x86_64")]
    if fma {
        // SAFETY: `fma` is true only when the CPU reports AVX2 + FMA, and
        // the asserts above say every plane holds `n` elements.
        unsafe { mac_block_avx2::<N>(n, a, la, w, c, lc) };
        return;
    }
    let _ = fma;
    mac_scalar::<N, false>(n, a, la, w, c, lc);
}

/// [`mac_block`] one run position at a time: the portable instantiation,
/// and (`FMA`, inlined into the AVX2 one) the same fused operations as a
/// vector lane for runs shorter than a vector.
#[inline(always)]
fn mac_scalar<const N: usize, const FMA: bool>(
    n: usize,
    a: &[f64],
    la: usize,
    w: &[C64],
    c: &mut [f64],
    lc: usize,
) {
    for r in 0..N {
        for col in 0..N {
            let o = 2 * (r * N + col) * lc;
            for e in 0..n {
                let (mut re, mut im) = (c[o + e], c[o + lc + e]);
                for l in 0..N {
                    let x = 2 * (r * N + l) * la + e;
                    let (xr, xi, z) = (a[x], a[x + la], w[col * N + l]);
                    if FMA {
                        re = (-xi).mul_add(z.im, xr.mul_add(z.re, re));
                        im = xi.mul_add(z.re, xr.mul_add(z.im, im));
                    } else {
                        re = re + xr * z.re - xi * z.im;
                        im = im + xr * z.im + xi * z.re;
                    }
                }
                (c[o + e], c[o + lc + e]) = (re, im);
            }
        }
    }
}

/// AVX2/FMA instantiation of [`mac_block`]: a block row at a time, four
/// run positions per step, the `(r, l)` operands loaded once and held
/// across the output row. A ragged end is one more full step over the
/// last four positions that leaves the lanes already done untouched, so
/// every position sees the same fused operations in the same order.
///
/// # Safety
/// The CPU must support AVX2 and FMA; plane `p < 2·N²` of `a` (`c`) must
/// hold `n` elements from `p·la` (`p·lc`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mac_block_avx2<const N: usize>(
    n: usize,
    a: &[f64],
    la: usize,
    w: &[C64],
    c: &mut [f64],
    lc: usize,
) {
    use std::arch::x86_64::*;
    if n < LANES {
        return mac_scalar::<N, true>(n, a, la, w, c, lc);
    }
    let full = n / LANES * LANES;
    // Lanes of the overlapping last step that earlier steps completed.
    let done = _mm256_set1_pd((full + LANES - n) as f64);
    let done = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_set_pd(3.0, 2.0, 1.0, 0.0), done);
    for r in 0..N {
        let a = a.as_ptr().add(2 * r * N * la);
        let c = c.as_mut_ptr().add(2 * r * N * lc);
        let step = |e: usize, keep: Option<__m256d>| {
            let mut x = [[_mm256_setzero_pd(); 2]; N];
            for (l, x) in x.iter_mut().enumerate() {
                *x = [
                    _mm256_loadu_pd(a.add(2 * l * la + e)),
                    _mm256_loadu_pd(a.add((2 * l + 1) * la + e)),
                ];
            }
            for col in 0..N {
                let (pr, pi) = (c.add(2 * col * lc + e), c.add((2 * col + 1) * lc + e));
                let old = [_mm256_loadu_pd(pr), _mm256_loadu_pd(pi)];
                let [mut re, mut im] = old;
                for (l, x) in x.iter().enumerate() {
                    let z = w[col * N + l];
                    let (wr, wi) = (_mm256_set1_pd(z.re), _mm256_set1_pd(z.im));
                    re = _mm256_fnmadd_pd(x[1], wi, _mm256_fmadd_pd(x[0], wr, re));
                    im = _mm256_fmadd_pd(x[1], wr, _mm256_fmadd_pd(x[0], wi, im));
                }
                if let Some(keep) = keep {
                    re = _mm256_blendv_pd(re, old[0], keep);
                    im = _mm256_blendv_pd(im, old[1], keep);
                }
                _mm256_storeu_pd(pr, re);
                _mm256_storeu_pd(pi, im);
            }
        };
        for e in (0..full).step_by(LANES) {
            step(e, None);
        }
        if full < n {
            step(n - LANES, Some(done));
        }
    }
}

// ---------------------------------------------------------------------------
// RGF: block products with the energy lanes as the SIMD axis.
// ---------------------------------------------------------------------------

/// One SIMD step over energy lanes: the arithmetic of [`planes_gemm`],
/// written once and instantiated for an AVX2 register (four lanes), a
/// fused scalar lane (the same operations one lane at a time, for the
/// tail of a run) and a plain scalar lane (the portable instantiation).
///
/// # Safety
/// Every method may run only on a CPU with the instruction set the
/// instantiation uses (AVX2 + FMA for [`Avx`]; the scalar lanes run
/// anywhere); `load` and `store` also need `p` valid for `WIDTH` `f64`s.
trait Lane: Copy {
    /// Lanes per step.
    const WIDTH: usize;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn splat(x: f64) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    /// `c + self·b`, fused where the instantiation fuses.
    unsafe fn madd(self, b: Self, c: Self) -> Self;
    /// `c − self·b`, fused where the instantiation fuses.
    unsafe fn nmadd(self, b: Self, c: Self) -> Self;
}

/// A scalar lane with hardware FMA: the operations of an AVX2 lane.
#[derive(Clone, Copy)]
struct Fused(f64);

impl Lane for Fused {
    const WIDTH: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Fused(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self.0;
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Fused(x)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Fused(self.0 * b.0)
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        Fused(self.0.mul_add(b.0, c.0))
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        Fused((-self.0).mul_add(b.0, c.0))
    }
}

/// A scalar lane without FMA: the portable instantiation.
#[derive(Clone, Copy)]
struct Plain(f64);

impl Lane for Plain {
    const WIDTH: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Plain(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self.0;
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Plain(x)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Plain(self.0 * b.0)
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        Plain(c.0 + self.0 * b.0)
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        Plain(c.0 - self.0 * b.0)
    }
}

/// Four lanes in one AVX2 register. Only ever inlined into
/// [`gemm_avx2`], whose `target_feature` lets the intrinsics inline.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx {
    const WIDTH: usize = LANES;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx(std::arch::x86_64::_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        std::arch::x86_64::_mm256_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx(std::arch::x86_64::_mm256_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_mul_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_fnmadd_pd(self.0, b.0, c.0))
    }
}

/// Shape and scalars of one [`planes_gemm`] call, in `f64` offsets: an
/// element is `2·lanes` values, its `im` plane `lanes` after its `re`.
#[derive(Clone, Copy)]
struct LaneGemm {
    dims: BatchDims,
    lanes: usize,
    alpha: C64,
    beta: C64,
    conj_b: bool,
}

impl LaneGemm {
    /// Offset of element `(i, j)` of a column-major block with `rows` rows.
    #[inline(always)]
    fn at(&self, rows: usize, i: usize, j: usize) -> usize {
        2 * (j * rows + i) * self.lanes
    }

    /// Offset of element `(l, j)` of `op(B)`: `B[l, j]`, or `B[j, l]` to be
    /// conjugated.
    #[inline(always)]
    fn at_b(&self, l: usize, j: usize) -> usize {
        if self.conj_b {
            self.at(self.dims.n, j, l)
        } else {
            self.at(self.dims.k, l, j)
        }
    }

    /// The `MR × NR` output tile at `(i0, j0)`, lanes `e..e + V::WIDTH`:
    /// `acc = Σ_l A[i, l]·op(B)[l, j]` from zero in `l` order, four fused
    /// operations per complex MAC, then `C = α·acc + β·C`.
    ///
    /// # Safety
    /// The three planes must hold the whole block at every lane read, and
    /// the CPU must run `V` (see [`Lane`]).
    #[inline(always)]
    unsafe fn tile<V: Lane, const MR: usize, const NR: usize, const CONJ: bool>(
        &self,
        i0: usize,
        j0: usize,
        e: usize,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let (ls, m) = (self.lanes, self.dims.m);
        // Element strides: down a column of A, along `l` in A and op(B),
        // and across the tile's columns of op(B).
        let (a_row, a_l) = (2 * ls, 2 * m * ls);
        let (b_l, b_col) = (self.at_b(1, 0), self.at_b(0, 1));
        let (mut pa, mut pb) = (a.add(self.at(m, i0, 0) + e), b.add(self.at_b(0, j0) + e));
        let zero = V::splat(0.0);
        let mut re = [[zero; NR]; MR];
        let mut im = [[zero; NR]; MR];
        for _ in 0..self.dims.k {
            let mut ar = [zero; MR];
            let mut ai = [zero; MR];
            for r in 0..MR {
                let p = pa.add(r * a_row);
                (ar[r], ai[r]) = (V::load(p), V::load(p.add(ls)));
            }
            pa = pa.add(a_l);
            for q in 0..NR {
                let p = pb.add(q * b_col);
                let (br, bi) = (V::load(p), V::load(p.add(ls)));
                for r in 0..MR {
                    let (x, y) = (&mut re[r][q], &mut im[r][q]);
                    *x = ar[r].madd(br, *x);
                    if CONJ {
                        *x = ai[r].madd(bi, *x);
                        *y = ar[r].nmadd(bi, *y);
                    } else {
                        *x = ai[r].nmadd(bi, *x);
                        *y = ar[r].madd(bi, *y);
                    }
                    *y = ai[r].madd(br, *y);
                }
            }
            pb = pb.add(b_l);
        }
        let (alpha, beta) = (self.alpha, self.beta);
        let (ar, ai) = (V::splat(alpha.re), V::splat(alpha.im));
        let (br, bi) = (V::splat(beta.re), V::splat(beta.im));
        for r in 0..MR {
            for q in 0..NR {
                let p = c.add(self.at(m, i0 + r, j0 + q) + e);
                let (mut x, mut y) = (re[r][q], im[r][q]);
                if alpha != C64::ONE {
                    (x, y) = (ai.nmadd(y, ar.mul(x)), ai.madd(x, ar.mul(y)));
                }
                if beta != C64::ZERO {
                    let (cr, ci) = (V::load(p), V::load(p.add(ls)));
                    x = bi.nmadd(ci, br.madd(cr, x));
                    y = bi.madd(cr, br.madd(ci, y));
                }
                x.store(p);
                y.store(p.add(ls));
            }
        }
    }

    /// Every output tile, lanes `from..to` in steps of `V::WIDTH`.
    ///
    /// # Safety
    /// As for [`LaneGemm::tile`], and `V::WIDTH` must divide `to − from`.
    #[inline(always)]
    unsafe fn run<V: Lane>(&self, from: usize, to: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        if self.conj_b {
            self.tiles::<V, true>(from, to, a, b, c);
        } else {
            self.tiles::<V, false>(from, to, a, b, c);
        }
    }

    /// [`LaneGemm::run`] for one `op(B)`.
    ///
    /// # Safety
    /// As for [`LaneGemm::run`].
    #[inline(always)]
    unsafe fn tiles<V: Lane, const CONJ: bool>(
        &self,
        from: usize,
        to: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        let (m, n) = (self.dims.m, self.dims.n);
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        for j0 in (0..n).step_by(2) {
            for i0 in (0..m).step_by(2) {
                for e in (from..to).step_by(V::WIDTH) {
                    match (m - i0 > 1, n - j0 > 1) {
                        (true, true) => self.tile::<V, 2, 2, CONJ>(i0, j0, e, a, b, c),
                        (true, false) => self.tile::<V, 2, 1, CONJ>(i0, j0, e, a, b, c),
                        (false, true) => self.tile::<V, 1, 2, CONJ>(i0, j0, e, a, b, c),
                        (false, false) => self.tile::<V, 1, 1, CONJ>(i0, j0, e, a, b, c),
                    }
                }
            }
        }
    }
}

/// `C[e] = α·A[e]·op(B)[e] + β·C[e]` for every lane `e < lanes`, with
/// `op ∈ {N, C}`: a chunk of equally shaped block products — one per
/// energy of an RGF row solve — with the energies as the SIMD axis.
///
/// Operands are **lane blocks**: split-complex `[element][re|im][lane]`,
/// elements column-major as in [`crate::CMatrix`] (`A` is `m × k`, `B` is
/// `k × n` for [`Op::N`] and `n × k` for [`Op::C`], `C` is `m × n`), so
/// element `x` holds its `lanes` real parts from `2·x·lanes` and its
/// imaginary parts right after.
///
/// The block size picks the kernel. Blocks whose every dimension is at
/// most [`SMALL_DIM`] run the lane kernel (2 × 2 register tiles, no
/// packing). Same contract as [`planes_mac`]: within one dispatch
/// instantiation an output element receives the same fused operations in
/// the same order whether its lane sits in a vector step or the scalar
/// tail, so a lane's result does not depend on which other lanes share
/// the call. That kernel does no accounting of its own (see
/// [`count_fused_run`]). Larger blocks take one lane, whose lane block is
/// `CMatrix`'s column-major `C64` layout, and run [`crate::gemm()`] on it
/// — its packed path, bit for bit, counted as one `GemmCalls`. `C` is not
/// read when `β = 0`.
///
/// # Panics
/// If `op_b` is [`Op::T`], a lane block is too short for its shape, or
/// blocks larger than [`SMALL_DIM`] come with more than one lane.
#[allow(clippy::too_many_arguments)] // BLAS-style parameter list
pub fn planes_gemm(
    dims: BatchDims,
    lanes: usize,
    alpha: C64,
    a: &[f64],
    b: &[f64],
    op_b: Op,
    beta: C64,
    c: &mut [f64],
) {
    assert!(op_b != Op::T, "planes_gemm: op(B) is N or C");
    let BatchDims { m, n, k } = dims;
    assert!(a.len() >= 2 * m * k * lanes, "planes_gemm: A too short");
    assert!(b.len() >= 2 * k * n * lanes, "planes_gemm: B too short");
    assert!(c.len() >= 2 * m * n * lanes, "planes_gemm: C too short");
    if lanes == 0 {
        return;
    }
    if m.max(n).max(k) > SMALL_DIM {
        assert_eq!(lanes, 1, "planes_gemm: blocks over SMALL_DIM take one lane");
        let b_rows = if op_b == Op::C { n } else { k };
        let (a, b) = (as_c64(&a[..2 * m * k]), as_c64(&b[..2 * k * n]));
        let c = ColsMut::new(as_c64_mut(&mut c[..2 * m * n]), m);
        let (a, b) = (Cols::new(a, m), Cols::new(b, b_rows));
        gemm_cols(alpha, a, Op::N, b, op_b, beta, c, (m, n, k));
        return;
    }
    let g = LaneGemm {
        dims,
        lanes,
        alpha,
        beta,
        conj_b: op_b == Op::C,
    };
    if m == 0 || n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` says the CPU has AVX2 + FMA; the asserts
        // above say every lane of every element is in bounds.
        unsafe { gemm_avx2(&g, a, b, c) };
        return;
    }
    // SAFETY: as above; a one-lane step divides any lane count.
    unsafe { g.run::<Plain>(0, lanes, a, b, c) };
}

// `as_c64` relies on this layout.
const _: () = assert!(
    std::mem::size_of::<C64>() == 2 * std::mem::size_of::<f64>()
        && std::mem::align_of::<C64>() == std::mem::align_of::<f64>()
);

/// A one-lane lane block as the `C64`s it holds.
fn as_c64(x: &[f64]) -> &[C64] {
    // SAFETY: `C64` is `repr(C)` over two `f64`s (size 16, alignment 8),
    // so each consecutive pair of `f64`s is one `C64`; the length rounds
    // down and the borrow carries over.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), x.len() / 2) }
}

/// [`as_c64`], mutably.
fn as_c64_mut(x: &mut [f64]) -> &mut [C64] {
    // SAFETY: as for `as_c64`; the exclusive borrow carries over.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), x.len() / 2) }
}

/// AVX2/FMA instantiation of [`planes_gemm`]: four lanes per step, the
/// lanes past the last full step one at a time with the same fused
/// operations.
///
/// # Safety
/// The CPU must support AVX2 and FMA; the planes must hold every lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(g: &LaneGemm, a: &[f64], b: &[f64], c: &mut [f64]) {
    let full = g.lanes / LANES * LANES;
    g.run::<Avx>(0, full, a, b, c);
    g.run::<Fused>(full, g.lanes, a, b, c);
}

// ---------------------------------------------------------------------------
// Stage D: a 3 × 3 tile of complex dot products.
// ---------------------------------------------------------------------------

/// Lane accumulators of a 3 × 3 tile of complex dot products, carried
/// across [`planes_dots`] calls and reduced once by [`DotTile::sum`].
#[derive(Clone, Copy, Default)]
pub struct DotTile {
    re: [[f64; LANES]; 9],
    im: [[f64; LANES]; 9],
}

impl DotTile {
    /// The nine sums, entry `j·3 + i` pairing `x[i]` with `y[j]`.
    pub fn sum(&self) -> [C64; 9] {
        let lanes = |v: &[f64; LANES]| (v[0] + v[1]) + (v[2] + v[3]);
        std::array::from_fn(|t| c64(lanes(&self.re[t]), lanes(&self.im[t])))
    }
}

/// One split-complex operand run of [`planes_dots`]: `[re, im]`.
pub type SplitRun<'a> = [&'a [f64]; 2];

/// `tile[j·3 + i] += Σ_t x[i][t] · y[j][t]` (complex, unconjugated) over
/// equally long split-complex runs: three loads of `x` and three of `y`
/// per nine complex FMAs. Position `t` adds into lane `t mod 4` of the
/// tile.
///
/// # Panics
/// If the runs differ in length.
pub fn planes_dots(x: [SplitRun<'_>; 3], y: [SplitRun<'_>; 3], tile: &mut DotTile) {
    dots(fma_available(), &x, &y, tile);
}

/// [`planes_dots`] with `fma` from [`fma_available`].
fn dots(fma: bool, x: &[SplitRun<'_>; 3], y: &[SplitRun<'_>; 3], tile: &mut DotTile) {
    let n = x[0][0].len();
    for run in x.iter().chain(y) {
        assert!(
            run[0].len() == n && run[1].len() == n,
            "planes_dots: ragged runs"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if fma {
        // SAFETY: `fma` is true only when the CPU reports AVX2 + FMA; the
        // asserts above say all six runs hold `n` elements.
        unsafe { dots_avx2(n, x, y, tile) };
        return;
    }
    let _ = fma;
    dots_scalar::<false>(0, n, x, y, tile);
}

/// Positions `from..n` of [`dots`] one at a time: the portable
/// instantiation, and (`FMA`, inlined into the AVX2 one) its ragged end.
#[inline(always)]
fn dots_scalar<const FMA: bool>(
    from: usize,
    n: usize,
    x: &[SplitRun<'_>; 3],
    y: &[SplitRun<'_>; 3],
    tile: &mut DotTile,
) {
    for t in from..n {
        let lane = t % LANES;
        for (j, y) in y.iter().enumerate() {
            for (i, x) in x.iter().enumerate() {
                let (xr, xi, yr, yi) = (x[0][t], x[1][t], y[0][t], y[1][t]);
                let (re, im) = (&mut tile.re[j * 3 + i][lane], &mut tile.im[j * 3 + i][lane]);
                if FMA {
                    *re = (-xi).mul_add(yi, xr.mul_add(yr, *re));
                    *im = xi.mul_add(yr, xr.mul_add(yi, *im));
                } else {
                    *re = *re + xr * yr - xi * yi;
                    *im = *im + xr * yi + xi * yr;
                }
            }
        }
    }
}

/// AVX2/FMA instantiation of [`planes_dots`]: the eighteen lane
/// accumulators stay in registers across the run.
///
/// # Safety
/// The CPU must support AVX2 and FMA; every run must hold `n` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dots_avx2(n: usize, x: &[SplitRun<'_>; 3], y: &[SplitRun<'_>; 3], tile: &mut DotTile) {
    use std::arch::x86_64::*;
    let full = n / LANES * LANES;
    let mut re = tile.re.map(|v| _mm256_loadu_pd(v.as_ptr()));
    let mut im = tile.im.map(|v| _mm256_loadu_pd(v.as_ptr()));
    for t in (0..full).step_by(LANES) {
        let at = |run: &SplitRun<'_>| {
            [
                _mm256_loadu_pd(run[0].as_ptr().add(t)),
                _mm256_loadu_pd(run[1].as_ptr().add(t)),
            ]
        };
        let (xv, yv) = (x.each_ref().map(at), y.each_ref().map(at));
        for (j, y) in yv.iter().enumerate() {
            for (i, x) in xv.iter().enumerate() {
                let o = j * 3 + i;
                re[o] = _mm256_fnmadd_pd(x[1], y[1], _mm256_fmadd_pd(x[0], y[0], re[o]));
                im[o] = _mm256_fmadd_pd(x[1], y[0], _mm256_fmadd_pd(x[0], y[1], im[o]));
            }
        }
    }
    for o in 0..9 {
        _mm256_storeu_pd(tile.re[o].as_mut_ptr(), re[o]);
        _mm256_storeu_pd(tile.im[o].as_mut_ptr(), im[o]);
    }
    dots_scalar::<true>(full, n, x, y, tile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{use_packed_kernel, BatchDims};

    #[test]
    fn every_unpacked_square_block_has_a_plane_instantiation() {
        for dim in 1..=64 {
            assert!(
                use_packed_kernel(BatchDims::square(dim)) || dim <= PLANES_MAX_DIM,
                "{dim}×{dim} blocks are neither packed nor plane-instantiated"
            );
        }
    }

    fn noise(n: usize, seed: u64) -> Vec<C64> {
        let f = |i: usize, k: f64| ((i as f64 + seed as f64) * k).sin();
        (0..n).map(|i| c64(f(i, 0.37), f(i, 1.13))).collect()
    }

    /// `C += A·w` over `n` blocks from block `at` of a `len`-block run,
    /// through the planes and through the scalar batched loop.
    fn mac_both_ways(dim: usize, len: usize, at: usize, n: usize) -> (Vec<C64>, Vec<C64>) {
        let bsz = dim * dim;
        let (a, w) = (noise(len * bsz, 1), noise(bsz, 2));
        let mut want = noise(len * bsz, 3);
        let mut got = want.clone();
        let s = crate::Strides {
            a: bsz,
            b: 0,
            c: bsz,
        };
        let dims = BatchDims::square(dim);
        let (lo, hi) = (at * bsz, (at + n) * bsz);
        crate::sbsmm_scalar(
            dims,
            n,
            C64::ONE,
            &a[lo..],
            &w,
            C64::ONE,
            &mut want[lo..hi],
            s,
        );
        let (mut pa, mut pc) = (Vec::new(), vec![0.0; 2 * len * bsz]);
        pack_planes(dim, len, &a, &mut pa);
        planes_mac(dim, n, &pa[at..], len, &w, &mut pc[at..], len);
        add_planes(dim, len, &pc, &mut got);
        (got, want)
    }

    #[test]
    fn mac_matches_the_scalar_batched_loop() {
        for dim in 1..=PLANES_MAX_DIM {
            // Below, at and above one vector, ragged and not, from both
            // ends of the planes.
            for (len, at, n) in [
                (9, 0, 9),
                (9, 2, 7),
                (9, 3, 1),
                (5, 1, 3),
                (24, 1, 23),
                (8, 0, 8),
            ] {
                let (got, want) = mac_both_ways(dim, len, at, n);
                for (g, w) in got.iter().zip(&want) {
                    assert!((*g - *w).abs() < 1e-13, "dim {dim}, run {at}+{n} of {len}");
                }
            }
            let (got, want) = mac_both_ways(dim, 6, 4, 0);
            assert_eq!(got, want, "an empty run touches nothing");
        }
    }

    #[test]
    fn mac_does_not_depend_on_where_a_run_is_cut() {
        let (dim, bsz, len) = (3, 9, 23);
        let (a, w) = (noise(len * bsz, 4), noise(bsz, 5));
        let mut pa = Vec::new();
        pack_planes(dim, len, &a, &mut pa);
        let mut whole = vec![0.0; 2 * len * bsz];
        planes_mac(dim, len, &pa, len, &w, &mut whole, len);
        for cut in 1..len {
            let mut parts = vec![0.0; 2 * len * bsz];
            planes_mac(dim, cut, &pa, len, &w, &mut parts, len);
            planes_mac(dim, len - cut, &pa[cut..], len, &w, &mut parts[cut..], len);
            assert_eq!(parts, whole, "cut at {cut}");
        }
    }

    #[test]
    fn dots_match_per_element_sums() {
        for n in [0, 1, 3, 4, 7, 9, 162] {
            let runs: Vec<Vec<f64>> = (0..12)
                .map(|r| noise(n, 10 + r).iter().map(|z| z.re).collect())
                .collect();
            let run = |r: usize| -> SplitRun<'_> { [&runs[2 * r], &runs[2 * r + 1]] };
            let (x, y) = ([run(0), run(1), run(2)], [run(3), run(4), run(5)]);
            let mut tile = DotTile::default();
            planes_dots(x, y, &mut tile);
            // A second call adds on top of the first.
            planes_dots(x, y, &mut tile);
            for (o, got) in tile.sum().iter().enumerate() {
                let (i, j) = (o % 3, o / 3);
                let want = (0..n).fold(C64::ZERO, |s, t| {
                    s + c64(x[i][0][t], x[i][1][t]) * c64(y[j][0][t], y[j][1][t])
                });
                assert!((*got - want.scale(2.0)).abs() < 1e-12, "n {n}, entry {o}");
            }
        }
    }

    #[test]
    fn instantiations_agree_to_rounding() {
        if !fma_available() {
            return; // one instantiation only on this host (or forced)
        }
        let (len, bsz) = (23, 9);
        let (a, w) = (noise(len * bsz, 6), noise(bsz, 7));
        let mut pa = Vec::new();
        pack_planes(3, len, &a, &mut pa);
        let (mut fused, mut plain) = (vec![0.0; 2 * len * bsz], vec![0.0; 2 * len * bsz]);
        mac_block::<3>(true, len, &pa, len, &w, &mut fused, len);
        mac_block::<3>(false, len, &pa, len, &w, &mut plain, len);
        for (f, p) in fused.iter().zip(&plain) {
            assert!((f - p).abs() < 1e-14);
        }
        let run = |r: usize| -> SplitRun<'_> {
            [&pa[2 * r * len..][..len], &pa[(2 * r + 1) * len..][..len]]
        };
        let (x, y) = ([run(0), run(1), run(2)], [run(3), run(4), run(5)]);
        let (mut fused, mut plain) = (DotTile::default(), DotTile::default());
        dots(true, &x, &y, &mut fused);
        dots(false, &x, &y, &mut plain);
        for (f, p) in fused.sum().iter().zip(&plain.sum()) {
            assert!((*f - *p).abs() < 1e-13);
        }
    }

    /// Lane `e` of a `lanes`-wide lane block as its own one-lane block.
    fn lane_of(block: &[f64], lanes: usize, e: usize) -> Vec<f64> {
        let elems = block.len() / (2 * lanes);
        (0..2 * elems).map(|p| block[p * lanes + e]).collect()
    }

    #[test]
    fn lane_gemm_does_not_depend_on_the_chunk() {
        // Each lane of a 9-lane call (two vector steps and a tail) equals
        // the same lane computed alone, bit for bit, for both ops and
        // with β = 1 reading C.
        let (dims, lanes) = (BatchDims { m: 5, n: 4, k: 3 }, 9);
        let f = |len: usize, seed: u64| -> Vec<f64> {
            noise(len, seed).iter().flat_map(|z| [z.re, z.im]).collect()
        };
        for op_b in [Op::N, Op::C] {
            let (a, b) = (f(15 * lanes, 8), f(12 * lanes, 9));
            let mut whole = f(20 * lanes, 10);
            let c0 = whole.clone();
            planes_gemm(dims, lanes, C64::ONE, &a, &b, op_b, C64::ONE, &mut whole);
            for e in 0..lanes {
                let mut alone = lane_of(&c0, lanes, e);
                let (ae, be) = (lane_of(&a, lanes, e), lane_of(&b, lanes, e));
                planes_gemm(dims, 1, C64::ONE, &ae, &be, op_b, C64::ONE, &mut alone);
                assert_eq!(alone, lane_of(&whole, lanes, e), "{op_b:?} lane {e}");
            }
        }
    }

    #[test]
    fn lane_gemm_instantiations_agree_to_rounding() {
        if !fma_available() {
            return; // one instantiation only on this host (or forced)
        }
        let lanes = 6;
        let g = LaneGemm {
            dims: BatchDims::square(12),
            lanes,
            alpha: c64(0.5, -0.25),
            beta: c64(1.0, 0.5),
            conj_b: true,
        };
        let f = |seed: u64| -> Vec<f64> {
            noise(144 * lanes, seed)
                .iter()
                .flat_map(|z| [z.re, z.im])
                .collect()
        };
        let (a, b) = (f(11), f(12));
        let (mut fused, mut plain) = (f(13), f(13));
        // SAFETY: this host has AVX2 + FMA; every plane holds all lanes.
        unsafe { gemm_avx2(&g, &a, &b, &mut fused) };
        // SAFETY: as above.
        unsafe { g.run::<Plain>(0, lanes, &a, &b, &mut plain) };
        for (x, y) in fused.iter().zip(&plain) {
            assert!((x - y).abs() < 1e-13, "{x} vs {y}");
        }
    }

    #[test]
    fn pack_and_add_planes_are_inverse_walks() {
        let (dim, bsz, len, runs) = (2, 4, 5, 3);
        let src: Vec<C64> = (0..runs * len * bsz)
            .map(|i| c64(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut planes = Vec::new();
        pack_planes(dim, len, &src, &mut planes);
        // Element (r 0, c 1) of block 3 of run 1: column-major index 2,
        // row-major plane 1, position 3.
        let z = src[(len + 3) * bsz + 2];
        assert_eq!(planes[2 * len * bsz + 2 * len + 3], z.re);
        assert_eq!(planes[2 * len * bsz + 3 * len + 3], z.im);
        let mut out = vec![c64(1.0, 1.0); src.len()];
        add_planes(dim, len, &planes, &mut out);
        for (o, s) in out.iter().zip(&src) {
            assert_eq!(*o, *s + c64(1.0, 1.0));
        }
    }

    #[test]
    fn pack_split_transposes_blocks() {
        let n = 3;
        let src: Vec<C64> = (0..2 * n * n)
            .map(|i| c64(i as f64, 100.0 + i as f64))
            .collect();
        let (mut plain, mut tr) = (Vec::new(), Vec::new());
        pack_split(2 * n * n, None, &src, &mut plain);
        pack_split(2 * n * n, Some(n), &src, &mut tr);
        assert_eq!(plain[n * n + 1], src[n * n + 1].re);
        assert_eq!(plain[2 * n * n + n * n + 1], src[n * n + 1].im);
        // Second block, element (r=1, c=2) lands at (r=2, c=1).
        let z = src[n * n + 2 * n + 1];
        assert_eq!(tr[n * n + n + 2], z.re);
        assert_eq!(tr[2 * n * n + n * n + n + 2], z.im);
    }
}
