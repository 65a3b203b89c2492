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
//! * [`planes_lmul`] — `C[e] = H · G[e]` for every `e` of a run, one shared
//!   left block times the run's blocks (SSE stage A: `∇H·G`, written as
//!   the planes stages C and D read; [`pad_planes`] and [`split_planes`]
//!   turn them into those stages' operands by copies, which
//!   [`dft_planes`] takes to momentum harmonics in place);
//! * [`planes_mac`] — `C[e] += Σ_t A[o_t + e] · W_t` for every `e` of a
//!   run over a list of terms, as complex-scalar × energy-vector FMAs
//!   with the accumulators held in registers across the terms (SSE
//!   stage C: one call per output run);
//! * [`planes_dots`] — a 3 × 3 tile of complex dot products over one
//!   contiguous split-complex run (SSE stage D);
//! * [`planes_gemm`] — `C[e] = α·A[e]·op(B[e]) + β·C[e]` over a chunk of
//!   energy lanes whose operands all differ, every block product of the
//!   RGF recursion and the boundary decimation (`omen-rgf`): the lane
//!   kernel ([`lane_gemm`]) on blocks up to [`LANE_MAX_DIM`], larger
//!   blocks one lane at a time through [`crate::gemm()`]'s packed path;
//! * [`planes_invert`] — `out[e] = A[e]⁻¹` over the same lane blocks,
//!   every block inverse of that recursion and decimation: a pivoted LU
//!   per lane (pivots searched and rows swapped per lane) whose every
//!   lane is bitwise [`crate::Workspace::invert_into`].
//!
//! All five are one body each, written over one SIMD vocabulary (the
//! `Lane` trait) and run through one dispatch (`dispatch`). The AVX2+FMA
//! instantiation (`on_avx2`) steps four lanes at a time and takes the
//! tail of a run as a scalar lane with the vector lane's fused
//! operations. Where the CPU reports `avx512f`, four kernels go to the
//! AVX-512 instantiation (`on_avx512`, the same fused scalar tail): the
//! three whose SIMD axis is one contiguous run ([`planes_lmul`],
//! [`planes_mac`], [`planes_dots`]) step eight lanes of it, and the lane
//! GEMM ([`lane_gemm`]) steps four lanes of two neighbouring block rows,
//! so its [`LANES`] blocks keep their width. The lane inverse
//! ([`planes_invert`]) keeps four-lane AVX2 steps. The portable
//! instantiation (the only one without AVX2 + FMA, pinned by
//! `OMEN_FORCE_SCALAR=1`, as for the micro-kernel) is the plain scalar
//! lane throughout.
//!
//! A vector step performs, lane by lane (and row by row), the fused
//! scalar lane's operations, so the arithmetic of one output element
//! never depends on where in a run it sits (vector step or scalar tail)
//! nor on the vector width: [`planes_lmul`], [`planes_mac`],
//! [`planes_gemm`] and [`planes_invert`] are bitwise reproducible under
//! any split of the energy axis, and [`planes_mac`], [`planes_dots`]
//! (whose tile has eight lanes in every instantiation) and [`lane_gemm`]
//! give the same bits on AVX-512, AVX2 and the fused scalar lane. [`planes_lmul`] and
//! [`planes_invert`] fuse nothing, so their portable instantiations agree
//! bit for bit too.
//!
//! The kernels do no accounting of their own: a caller fuses many sweeps
//! over one pack into a run and reports it once through
//! [`count_fused_run`].

use crate::batched::{BatchDims, PackedB};
use crate::complex::{c64, C64};
use crate::gemm::{fma_available, gemm_cols, Cols, ColsMut, Op, SMALL_DIM};
use crate::lu::SingularMatrix;
use crate::workspace::Workspace;

/// Energy lanes of one vector step of the lane-block kernels: one AVX2
/// register, or half an AVX-512 register whose other half holds the next
/// block row.
pub const LANES: usize = 4;

/// Lanes of a [`DotTile`]: one AVX-512 register, two AVX2 steps, eight
/// scalar ones.
const DOT_LANES: usize = 8;

/// Largest block dimension [`planes_gemm`] runs on energy lanes, and
/// the one threshold every lane/one-lane choice reads (`omen-rgf`'s
/// `row_width` too). Set from the `planes_gemm_{lanes,point}_bs*`
/// records of `rgf_point` (`BENCH_kernels.json`): the largest measured
/// block size at which one 4-lane [`lane_gemm`] call beats four packed
/// [`crate::gemm()`] calls in every run of the AVX2 step, which hosts
/// without AVX-512 take. On a 2-vCPU AVX-512 Xeon, six runs of that step
/// read 1.6–2.2× at 24, 1.4–1.7× at 32, 1.1–1.5× at 48 and 0.93–1.38×
/// at 64; eight runs of the AVX-512 row-pair step read 2.9–4.0×,
/// 2.8–3.3×, 2.0–2.8× and 2.0–2.5×. Larger blocks take one lane through
/// the packed GEMM.
pub const LANE_MAX_DIM: usize = 48;

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
    /// Packed operand streams, lesser and greater: stage C's padded
    /// `∇H·G` planes, stage D's split `x` runs.
    pub a: [Vec<f64>; 2],
    /// Stage D's split, block-transposed `y` runs; before them, `b[0]`
    /// holds stage A's `G` run packed into planes and taken to its
    /// momentum harmonics. (A buffer of its own left a
    /// solve's heap different enough to raise the benchmark's `setup_s`
    /// by about 10 %; see "What `setup_s` measures" in
    /// `docs/benchmarks.md`.)
    pub b: [Vec<f64>; 2],
    /// Stage C's accumulators, planes or blocks, at the harmonics.
    pub c: [Vec<f64>; 2],
    /// The pair's scaled `∇H·D` harmonics, lesser then greater (stage C);
    /// the `(ω, κ)` trace tiles (stage D).
    pub w: Vec<C64>,
    /// The term list of one [`planes_mac`] call.
    pub terms: Vec<(usize, usize)>,
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
/// `[run][len][dim²]` — into element planes `[run][element][re|im][plane]`
/// of `plane` positions each, elements in row-major order: the operand
/// and accumulator layout of [`planes_mac`]. Block `e` of a run lands at
/// position `at + e`; every other position is zero. `dst` keeps its
/// buffer across calls.
///
/// # Panics
/// If `src` is not whole runs or a run does not fit its planes.
pub fn pack_planes(
    dim: usize,
    len: usize,
    src: &[C64],
    plane: usize,
    at: usize,
    dst: &mut Vec<f64>,
) {
    let bsz = dim * dim;
    let run = len * bsz;
    assert!(
        run > 0 && src.len().is_multiple_of(run),
        "pack_planes: ragged source"
    );
    assert!(
        at + len <= plane,
        "pack_planes: the run overruns its planes"
    );
    count_packed(src.len());
    dst.resize(2 * plane * bsz * (src.len() / run), 0.0);
    for (s, d) in src
        .chunks_exact(run)
        .zip(dst.chunks_exact_mut(2 * plane * bsz))
    {
        for p in d.chunks_exact_mut(plane) {
            p[..at].fill(0.0);
            p[at + len..].fill(0.0);
        }
        for (e, block) in s.chunks_exact(bsz).enumerate() {
            for (x, z) in block.iter().enumerate() {
                let o = 2 * plane_of(dim, x) * plane + at + e;
                (d[o], d[o + plane]) = (z.re, z.im);
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
        // Element `x` of every block from its plane pair.
        for x in 0..bsz {
            let o = 2 * plane_of(dim, x) * len;
            let (re, im) = s[o..o + 2 * len].split_at(len);
            let blocks = d[x..].iter_mut().step_by(bsz);
            for (z, (re, im)) in blocks.zip(re.iter().zip(im)) {
                *z += c64(*re, *im);
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

/// Copies planes of `len` positions, `[plane][len]`, into planes of
/// `plane` positions, each at offset `at` with every other position zero:
/// [`pack_planes`]'s output for the blocks the planes hold, built by
/// contiguous copies. `dst` keeps its buffer across calls.
///
/// # Panics
/// If `src` is not whole planes or a plane does not fit.
pub fn pad_planes(len: usize, src: &[f64], plane: usize, at: usize, dst: &mut Vec<f64>) {
    assert!(
        len > 0 && src.len().is_multiple_of(len),
        "pad_planes: ragged source"
    );
    assert!(at + len <= plane, "pad_planes: a plane overruns");
    count_packed(src.len() / 2);
    dst.resize(plane * (src.len() / len), 0.0);
    for (s, d) in src.chunks_exact(len).zip(dst.chunks_exact_mut(plane)) {
        d[..at].fill(0.0);
        d[at..at + len].copy_from_slice(s);
        d[at + len..].fill(0.0);
    }
}

/// Splits element planes `[run][element][re|im][len]` of `dim × dim`
/// blocks into `[run][re|im][len·dim²]`: [`pack_split`]'s output for the
/// blocks the planes hold, block `e` at `e·dim²` column-major, or with
/// `transpose` each block transposed (then the planes' row-major element
/// order is the run's order).
///
/// # Panics
/// If `src` is not whole runs.
pub fn split_planes(dim: usize, len: usize, transpose: bool, src: &[f64], dst: &mut Vec<f64>) {
    let bsz = dim * dim;
    let run = 2 * bsz * len;
    assert!(
        run > 0 && src.len().is_multiple_of(run),
        "split_planes: ragged source"
    );
    count_packed(src.len() / 2);
    dst.resize(src.len(), 0.0);
    for (s, d) in src.chunks_exact(run).zip(dst.chunks_exact_mut(run)) {
        let (re, im) = d.split_at_mut(run / 2);
        for x in 0..bsz {
            let p = 2 * if transpose { x } else { plane_of(dim, x) } * len;
            let (s_re, s_im) = (&s[p..p + len], &s[p + len..p + 2 * len]);
            for e in 0..len {
                (re[e * bsz + x], im[e * bsz + x]) = (s_re[e], s_im[e]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Momentum harmonics: a length-`n` DFT across runs, in place.
// ---------------------------------------------------------------------------

/// `ω^{−j} = e^{−2πi·j/n}`, twiddle `j` of the forward length-`n` DFT
/// (the inverse takes its conjugate). Multiples of a quarter turn are
/// exact — `1`, `−i`, `−1`, `i` — not `cos(π/2) ≈ 6e-17`.
fn twiddle(n: usize, j: usize) -> C64 {
    let j = j % n;
    if (4 * j).is_multiple_of(n) {
        return [c64(1.0, 0.0), c64(0.0, -1.0), c64(-1.0, 0.0), c64(0.0, 1.0)][4 * j / n];
    }
    let (sin, cos) = (std::f64::consts::TAU * j as f64 / n as f64).sin_cos();
    c64(cos, -sin)
}

/// The butterflies of `n = 2` and `4` on one position's values, one per
/// momentum: forward `y[κ] = Σ_k ω^{−κk} x[k]`, inverse `y[k] = (1/n)
/// Σ_κ ω^{κk} x[κ]`. Every twiddle is a quarter turn and `1/n` a power
/// of two, so they round only in their additions.
///
/// [`dft_positions`] would give these counts exactly too, but at `n = 4`
/// it spends 16 complex multiply-adds per position where the butterfly
/// spends 8 additions. Routing `n = 2` and `4` through it made one
/// `sigma_pair` + `pi_pair` at `sse_heavy`'s pair shape 3.7× slower
/// (99 → 371 µs), slower than the k-space stages, and the benchmark's
/// `solve_s` 93 % slower on `sse_heavy` and 68 % on `dist_dace` (2-vCPU
/// AVX-512 Xeon).
#[inline(always)]
fn butterfly<const N: usize>(inverse: bool, x: [C64; N]) -> [C64; N] {
    let mut y = x;
    if N == 2 {
        (y[0], y[1]) = (x[0] + x[1], x[0] - x[1]);
    } else {
        // `±i·(x1 − x3)`: `+` on the inverse.
        let d = x[1] - x[3];
        let d = if inverse {
            c64(-d.im, d.re)
        } else {
            c64(d.im, -d.re)
        };
        let (a, b, c) = (x[0] + x[2], x[0] - x[2], x[1] + x[3]);
        (y[0], y[1], y[2], y[3]) = (a + c, b + d, a - c, b - d);
    }
    if inverse {
        for y in &mut y {
            *y = y.scale(1.0 / N as f64);
        }
    }
    y
}

/// Momentum counts whose twiddles and values [`dft_positions`] keeps on
/// the stack.
const DFT_STACK: usize = 16;

/// The transform of [`butterfly`] for any other count `n`, in place over
/// `len` positions held one run per momentum: `at(k, j)` indexes the real
/// part of run `k`'s position `j`, its imaginary part `im` further. A
/// position sums its twiddled terms in order, on its own, so a run's
/// split never changes a value's bits.
fn dft_positions(
    n: usize,
    inverse: bool,
    len: usize,
    data: &mut [f64],
    at: impl Fn(usize, usize) -> usize,
    im: usize,
) {
    let (mut stack, mut heap) = ([C64::ZERO; 3 * DFT_STACK], Vec::new());
    let values = if n <= DFT_STACK {
        &mut stack[..3 * n]
    } else {
        heap.resize(3 * n, C64::ZERO);
        &mut heap[..]
    };
    let (tw, rest) = values.split_at_mut(n);
    let (x, y) = rest.split_at_mut(n);
    for (j, t) in tw.iter_mut().enumerate() {
        *t = if inverse {
            twiddle(n, j).conj()
        } else {
            twiddle(n, j)
        };
    }
    let s = if inverse { 1.0 / n as f64 } else { 1.0 };
    for j in 0..len {
        for (k, x) in x.iter_mut().enumerate() {
            let o = at(k, j);
            *x = c64(data[o], data[o + im]);
        }
        for (kappa, y) in y.iter_mut().enumerate() {
            let terms = x.iter().enumerate();
            *y = terms.fold(C64::ZERO, |v, (k, x)| v + tw[kappa * k % n] * *x);
        }
        for (k, y) in y.iter().enumerate() {
            let o = at(k, j);
            (data[o], data[o + im]) = (y.re * s, y.im * s);
        }
    }
}

/// `N` split runs of `len` positions — real parts from `at`, imaginary
/// parts `len` further — of consecutive rows of `data`, `row` apart: one
/// run per momentum.
fn split_runs_mut<const N: usize>(
    data: &mut [f64],
    row: usize,
    at: usize,
    len: usize,
) -> [(&mut [f64], &mut [f64]); N] {
    let mut rows = data.chunks_exact_mut(row);
    std::array::from_fn(|_| {
        let (re, rest) = rows.next().expect("a row per momentum")[at..].split_at_mut(len);
        (re, &mut rest[..len])
    })
}

/// [`butterfly`] over `N` split runs `(re, im)` of equal length, in
/// place, position by position.
#[inline(always)]
fn butterfly_runs<const N: usize>(inverse: bool, runs: [(&mut [f64], &mut [f64]); N]) {
    let len = runs[0].0.len();
    assert!(runs
        .iter()
        .all(|(re, im)| re.len() == len && im.len() == len));
    for j in 0..len {
        let x = std::array::from_fn(|k| c64(runs[k].0[j], runs[k].1[j]));
        let y: [C64; N] = butterfly(inverse, x);
        for (k, y) in y.into_iter().enumerate() {
            (runs[k].0[j], runs[k].1[j]) = (y.re, y.im);
        }
    }
}

/// The length-`n` DFT along the momentum axis of split-complex planes,
/// in place: `data` is `[group][k][pair][re|im][plane]`, `n` runs of
/// `pairs` plane pairs per group, every position transformed — forward,
/// run `κ` becomes `Σ_k ω^{−κk} · run k` (`ω = e^{2πi/n}`); `inverse`,
/// run `k` becomes `(1/n) Σ_κ ω^{κk} · run κ`. `n = 1` is a no-op.
///
/// # Panics
/// If `data` is not whole groups.
pub fn dft_planes(n: usize, inverse: bool, pairs: usize, plane: usize, data: &mut [f64]) {
    let row = 2 * pairs * plane;
    assert!(
        row > 0 && n > 0 && data.len().is_multiple_of(n * row),
        "dft_planes: ragged data"
    );
    for group in data.chunks_exact_mut(n * row) {
        for x in 0..pairs {
            let o = 2 * x * plane;
            match n {
                1 => {}
                2 => butterfly_runs::<2>(inverse, split_runs_mut(group, row, o, plane)),
                4 => butterfly_runs::<4>(inverse, split_runs_mut(group, row, o, plane)),
                _ => dft_positions(n, inverse, plane, group, |k, j| k * row + o + j, plane),
            }
        }
    }
}

/// [`dft_planes`] on blocks: `data` is `[group][k][row]` complex numbers,
/// `n` runs of `row` per group, every number transformed along `k`.
///
/// # Panics
/// If `data` is not whole groups.
pub fn dft_blocks(n: usize, inverse: bool, row: usize, data: &mut [C64]) {
    assert!(
        row > 0 && n > 0 && data.len().is_multiple_of(n * row),
        "dft_blocks: ragged data"
    );
    for group in data.chunks_exact_mut(n * row) {
        match n {
            1 => {}
            2 | 4 => {
                // One butterfly per position, across the group's rows.
                let mut rows = group.chunks_exact_mut(row);
                let (r0, r1) = (rows.next().expect("row"), rows.next().expect("row"));
                if n == 2 {
                    for (a, b) in r0.iter_mut().zip(r1.iter_mut()) {
                        [*a, *b] = butterfly(inverse, [*a, *b]);
                    }
                } else {
                    let (r2, r3) = (rows.next().expect("row"), rows.next().expect("row"));
                    let quads = r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut().zip(r3));
                    for ((a, b), (c, d)) in quads {
                        [*a, *b, *c, *d] = butterfly(inverse, [*a, *b, *c, *d]);
                    }
                }
            }
            _ => {
                let at = |k: usize, j: usize| 2 * (k * row + j);
                dft_positions(n, inverse, row, as_f64_mut(group), at, 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The SIMD vocabulary: lanes, one kernel trait, one dispatch.
// ---------------------------------------------------------------------------

/// One SIMD step over a run: the arithmetic every plane kernel is written
/// in, instantiated for an AVX-512 register ([`Avx512`], eight lanes, or
/// [`RowPair`], four lanes of two block rows), an AVX2 register ([`Avx`],
/// four lanes) and one scalar lane ([`Scalar`]), fused (the operations of
/// one vector lane, for the tail of a run) or plain (the portable
/// instantiation).
///
/// A step over a lane block (an instantiation's [`Lane::Block`]) covers
/// `WIDTH` lanes of `ROWS` neighbouring block rows: one row everywhere
/// but on [`RowPair`]. Its row loads and stores take the distance to the
/// next row's lanes, and its broadcast gives every row the same lanes;
/// with one row they are plain loads and stores.
///
/// # Safety
/// Every method may run only on a CPU with the instruction set the
/// instantiation uses (AVX-512F for [`Avx512`] and [`RowPair`], AVX2 +
/// FMA for [`Avx`]; the scalar lanes run anywhere); `load`, `store` and
/// `broadcast` also need `p` valid for `WIDTH` `f64`s, and the row loads
/// and stores `p` and `p + next` too.
trait Lane: Copy {
    /// Lanes per step.
    const WIDTH: usize;
    /// Block rows per step.
    const ROWS: usize = 1;
    /// This instantiation's step over lane blocks.
    type Block: Lane;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn splat(x: f64) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    /// `c + self·b`, fused where the instantiation fuses.
    unsafe fn madd(self, b: Self, c: Self) -> Self;
    /// `c − self·b`, fused where the instantiation fuses.
    unsafe fn nmadd(self, b: Self, c: Self) -> Self;
    /// `self + b`.
    unsafe fn add(self, b: Self) -> Self;
    /// `self − b`.
    unsafe fn sub(self, b: Self) -> Self;
    /// `old` on the lanes where `re + i·im` is zero (`==`, so `−0.0`
    /// too), `self` on the others.
    unsafe fn unless_zero(self, old: Self, re: Self, im: Self) -> Self;
    /// The first row's lanes from `p`, each further row's from `next`
    /// `f64`s on; a `next` of 0 takes one row (into every row).
    #[inline(always)]
    unsafe fn load_rows(p: *const f64, _next: usize) -> Self {
        Self::load(p)
    }
    /// Stores what [`Lane::load_rows`] loads: a `next` of 0 stores the
    /// first row only.
    #[inline(always)]
    unsafe fn store_rows(self, p: *mut f64, _next: usize) {
        self.store(p)
    }
    /// The lanes from `p` in every row.
    #[inline(always)]
    unsafe fn broadcast(p: *const f64) -> Self {
        Self::load(p)
    }
}

/// One scalar lane: with `FMA` the fused operations of a vector lane
/// (hardware FMA once inlined into [`on_avx2`] or [`on_avx512`]), without
/// it the portable instantiation.
#[derive(Clone, Copy)]
struct Scalar<const FMA: bool>(f64);

impl<const FMA: bool> Lane for Scalar<FMA> {
    const WIDTH: usize = 1;
    type Block = Self;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Scalar(*p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self.0;
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Scalar(x)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Scalar(self.0 * b.0)
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        Scalar(if FMA {
            self.0.mul_add(b.0, c.0)
        } else {
            c.0 + self.0 * b.0
        })
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        Scalar(if FMA {
            (-self.0).mul_add(b.0, c.0)
        } else {
            c.0 - self.0 * b.0
        })
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Scalar(self.0 + b.0)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Scalar(self.0 - b.0)
    }
    #[inline(always)]
    unsafe fn unless_zero(self, old: Self, re: Self, im: Self) -> Self {
        if re.0 == 0.0 && im.0 == 0.0 {
            old
        } else {
            self
        }
    }
}

/// Four lanes in one AVX2 register. Only ever inlined into [`on_avx2`],
/// whose `target_feature` lets the intrinsics inline.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx {
    const WIDTH: usize = LANES;
    type Block = Self;
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
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_add_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_sub_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn unless_zero(self, old: Self, re: Self, im: Self) -> Self {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_pd();
        let re = _mm256_cmp_pd::<_CMP_EQ_OQ>(re.0, zero);
        let im = _mm256_cmp_pd::<_CMP_EQ_OQ>(im.0, zero);
        Avx(_mm256_blendv_pd(self.0, old.0, _mm256_and_pd(re, im)))
    }
}

/// Eight lanes in one AVX-512 register. Only ever inlined into
/// [`on_avx512`], whose `target_feature` lets the intrinsics inline.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512(std::arch::x86_64::__m512d);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx512 {
    const WIDTH: usize = 8;
    type Block = RowPair;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx512(std::arch::x86_64::_mm512_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        std::arch::x86_64::_mm512_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx512(std::arch::x86_64::_mm512_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_mul_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_fnmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_add_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_sub_pd(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn unless_zero(self, old: Self, re: Self, im: Self) -> Self {
        use std::arch::x86_64::*;
        let zero = _mm512_setzero_pd();
        let re = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(re.0, zero);
        let im = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(im.0, zero);
        Avx512(_mm512_mask_blend_pd(re & im, self.0, old.0))
    }
}

/// Four lanes of two neighbouring block rows in one AVX-512 register,
/// `[row i | row i + 1]`: the AVX-512 step over lane blocks, with
/// [`Avx512`]'s arithmetic. A row pair loads as two 256-bit runs and one
/// insert, stores through the inverse extract, and a broadcast puts one
/// run in both halves. `load` and `store` take one row.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct RowPair(Avx512);

#[cfg(target_arch = "x86_64")]
impl Lane for RowPair {
    const WIDTH: usize = LANES;
    const ROWS: usize = 2;
    type Block = Self;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Self::load_rows(p, 0)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        self.store_rows(p, 0)
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        RowPair(Avx512::splat(x))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        RowPair(self.0.mul(b.0))
    }
    #[inline(always)]
    unsafe fn madd(self, b: Self, c: Self) -> Self {
        RowPair(self.0.madd(b.0, c.0))
    }
    #[inline(always)]
    unsafe fn nmadd(self, b: Self, c: Self) -> Self {
        RowPair(self.0.nmadd(b.0, c.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        RowPair(self.0.add(b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        RowPair(self.0.sub(b.0))
    }
    #[inline(always)]
    unsafe fn unless_zero(self, old: Self, re: Self, im: Self) -> Self {
        RowPair(self.0.unless_zero(old.0, re.0, im.0))
    }
    #[inline(always)]
    unsafe fn load_rows(p: *const f64, next: usize) -> Self {
        use std::arch::x86_64::*;
        let first = _mm512_castpd256_pd512(_mm256_loadu_pd(p));
        let second = _mm256_loadu_pd(p.add(next));
        RowPair(Avx512(_mm512_insertf64x4::<1>(first, second)))
    }
    #[inline(always)]
    unsafe fn store_rows(self, p: *mut f64, next: usize) {
        use std::arch::x86_64::*;
        let x = self.0 .0;
        _mm256_storeu_pd(p, _mm512_castpd512_pd256(x));
        if next != 0 {
            _mm256_storeu_pd(p.add(next), _mm512_extractf64x4_pd::<1>(x));
        }
    }
    #[inline(always)]
    unsafe fn broadcast(p: *const f64) -> Self {
        use std::arch::x86_64::*;
        RowPair(Avx512(_mm512_broadcast_f64x4(_mm256_loadu_pd(p))))
    }
}

/// One plane-kernel call: the body is written once over its lanes, `V`
/// stepping over the bulk of the run and `T` (one lane wide) over the
/// rest. Each implementor is built only after its public entry point has
/// asserted that the operands hold the whole run, so the CPU is the one
/// condition left to the caller of `run`.
trait LaneKernel {
    /// The kernel has an AVX-512 step, so the dispatch may take the
    /// AVX-512 instantiation: the run-axis kernels step eight lanes of a
    /// run ([`Avx512`]), the lane GEMM four lanes of two block rows
    /// ([`RowPair`]). The lane inverse keeps four-lane AVX2 steps.
    const AVX512: bool = false;
    type Output;
    /// # Safety
    /// The CPU must run `V` and `T` (see [`Lane`]).
    unsafe fn run<V: Lane, T: Lane>(self) -> Self::Output;
}

/// Runs `k` on the instantiation the CPU runs: [`on_avx512`] for a
/// [`LaneKernel::AVX512`] kernel where the CPU also reports AVX-512F,
/// [`on_avx2`] where it reports AVX2 + FMA, else the plain scalar lane
/// throughout (`OMEN_FORCE_SCALAR=1` pins the latter).
fn dispatch<K: LaneKernel>(k: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        if K::AVX512 && avx512_available() {
            // SAFETY: `avx512_available` says the CPU has AVX-512F, AVX2
            // and FMA.
            return unsafe { on_avx512(k) };
        }
        // SAFETY: `fma_available` says the CPU has AVX2 + FMA.
        return unsafe { on_avx2(k) };
    }
    // SAFETY: the scalar lanes run anywhere.
    unsafe { k.run::<Scalar<false>, Scalar<false>>() }
}

/// `true` when [`on_avx512`] can run: AVX2 + FMA ([`fma_available`],
/// which `OMEN_FORCE_SCALAR` pins to `false`) and AVX-512F (checked once).
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX512.get_or_init(|| fma_available() && std::arch::is_x86_feature_detected!("avx512f"))
}

/// The AVX-512 instantiation of the [`LaneKernel::AVX512`] kernels: eight
/// lanes of a run or four lanes of two block rows per step, the rest one
/// fused scalar lane at a time.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn on_avx512<K: LaneKernel>(k: K) -> K::Output {
    k.run::<Avx512, Scalar<true>>()
}

/// The AVX2/FMA instantiation of every plane kernel: four lanes per step,
/// the rest of a run one fused scalar lane at a time.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn on_avx2<K: LaneKernel>(k: K) -> K::Output {
    k.run::<Avx, Scalar<true>>()
}

/// A complex number of lanes, `(re, im)`.
type Cx<V> = (V, V);

// ---------------------------------------------------------------------------
// Stage C: block product with the run as the SIMD axis.
// ---------------------------------------------------------------------------

/// `C[(r, c)][e] += Σ_t Σ_l A[o_t + (r, l)][e] · W[w_t + (l, c)]` for
/// `e < n`: runs of `n` tiny `dim × dim` products, one per term `(o_t,
/// w_t)` of `terms`, against a shared right operand per term, with the
/// run as the SIMD axis.
///
/// `a` and `c` are element planes as [`pack_planes`] lays them out. A
/// term's left operand starts at `a[o_t..]`: plane `2·x` (`re` of element
/// `x`, elements in row-major order) from `o_t + 2·x·la`, its `im` plane
/// one plane length further. Its right operand is the column-major block
/// at `w[w_t..]`. `c` starts at the first output position, with plane
/// length `lc`. Each accumulator is loaded once per step, held across
/// every term and stored once; each output element receives its terms in
/// list order, `l` ascending within a term, whatever `n` is and wherever
/// the run starts. So one call is bitwise the same terms issued one at a
/// time, and a single product is a one-term call.
///
/// # Panics
/// If `dim` exceeds [`PLANES_MAX_DIM`], or a term's planes or block, or
/// the accumulator planes, are too short for the run.
#[allow(clippy::too_many_arguments)] // BLAS-style parameter list
pub fn planes_mac(
    dim: usize,
    n: usize,
    a: &[f64],
    la: usize,
    w: &[C64],
    terms: &[(usize, usize)],
    c: &mut [f64],
    lc: usize,
) {
    if n == 0 || dim == 0 || terms.is_empty() {
        return;
    }
    assert!(
        dim <= PLANES_MAX_DIM,
        "planes_mac: block dimension {dim} > {PLANES_MAX_DIM}"
    );
    // The last of the `2·dim²` planes from `at` still holds `n` elements.
    let holds = |len: usize, at: usize, stride: usize| {
        let end = (2 * dim * dim - 1)
            .checked_mul(stride)
            .and_then(|o| o.checked_add(at))
            .and_then(|o| o.checked_add(n));
        n <= stride && end.is_some_and(|end| end <= len)
    };
    for &(o, wo) in terms {
        assert!(
            wo.checked_add(dim * dim).is_some_and(|end| end <= w.len()),
            "planes_mac: W too short"
        );
        assert!(holds(a.len(), o, la), "planes_mac: A planes too short");
    }
    assert!(holds(c.len(), 0, lc), "planes_mac: C planes too short");
    dispatch(Mac {
        dim,
        n,
        a,
        la,
        w,
        terms,
        c,
        lc,
    });
}

/// One [`planes_mac`] call.
struct Mac<'a> {
    dim: usize,
    n: usize,
    a: &'a [f64],
    la: usize,
    w: &'a [C64],
    terms: &'a [(usize, usize)],
    c: &'a mut [f64],
    lc: usize,
}

impl LaneKernel for Mac<'_> {
    const AVX512: bool = true;
    type Output = ();

    #[inline(always)]
    unsafe fn run<V: Lane, T: Lane>(mut self) {
        match self.dim {
            1 => self.block::<V, T, 1>(),
            2 => self.block::<V, T, 2>(),
            3 => self.block::<V, T, 3>(),
            4 => self.block::<V, T, 4>(),
            5 => self.block::<V, T, 5>(),
            _ => unreachable!("planes_mac checks the dimension"),
        }
    }
}

impl Mac<'_> {
    /// One instantiation per block dimension.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`].
    #[inline(always)]
    unsafe fn block<V: Lane, T: Lane, const N: usize>(&mut self) {
        let full = self.n / V::WIDTH * V::WIDTH;
        self.steps::<V, N>(0, full);
        self.steps::<T, N>(full, self.n);
    }

    /// Run positions `from..to`, `V::WIDTH` per step, a block row at a
    /// time: the row's `N` accumulators are loaded once, every term's
    /// `(r, l)` operands are loaded once and held across the output row,
    /// and the accumulators are stored once.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`], and `V::WIDTH` must divide `to − from`.
    #[inline(always)]
    unsafe fn steps<V: Lane, const N: usize>(&mut self, from: usize, to: usize) {
        let (la, lc) = (self.la, self.lc);
        let (a, w) = (self.a.as_ptr(), self.w.as_ptr());
        for r in 0..N {
            let c = self.c.as_mut_ptr().add(2 * r * N * lc);
            for e in (from..to).step_by(V::WIDTH) {
                let mut acc: [Cx<V>; N] = std::array::from_fn(|col| {
                    let p = c.add(2 * col * lc + e);
                    (V::load(p), V::load(p.add(lc)))
                });
                for &(o, wo) in self.terms {
                    let a = a.add(o + 2 * r * N * la + e);
                    let x: [Cx<V>; N] = std::array::from_fn(|l| {
                        let p = a.add(2 * l * la);
                        (V::load(p), V::load(p.add(la)))
                    });
                    let w = w.add(wo);
                    for (col, (re, im)) in acc.iter_mut().enumerate() {
                        for (l, &(xr, xi)) in x.iter().enumerate() {
                            let z = *w.add(col * N + l);
                            let (wr, wi) = (V::splat(z.re), V::splat(z.im));
                            *re = xi.nmadd(wi, xr.madd(wr, *re));
                            *im = xi.madd(wr, xr.madd(wi, *im));
                        }
                    }
                }
                for (col, (re, im)) in acc.into_iter().enumerate() {
                    let p = c.add(2 * col * lc + e);
                    re.store(p);
                    im.store(p.add(lc));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stage A: a shared left block times element planes.
// ---------------------------------------------------------------------------

/// `C(r, c)[e] = Σ_l H(r, l) · G(l, c)[e]` for every position `e` of every
/// run: one shared `dim × dim` block `h` (column-major) times runs of tiny
/// blocks held as element planes, with the run as the SIMD axis.
///
/// `g` and `c` are element planes as [`pack_planes`] lays them out,
/// `[run][element][re|im][n]`, as many runs in `c` as in `g`; `c` is
/// overwritten. An output element sums its terms from `+0` in `l` order,
/// each in [`crate::small_gemm`]'s unfused order, `(c.re + h.re·g.re) −
/// h.im·g.im` and `(c.im + h.re·g.im) + h.im·g.re`, so every instantiation
/// gives the same bits, and for finite `h` they are `small_gemm`'s (its
/// skip of zero `G` entries adds nothing but signed zeros, which leave an
/// accumulator that is never `−0` as it is).
///
/// # Panics
/// If `dim` exceeds [`PLANES_MAX_DIM`], `h` is not one block, or `g` and
/// `c` are not the same whole runs.
pub fn planes_lmul(dim: usize, n: usize, h: &[C64], g: &[f64], c: &mut [f64]) {
    if n == 0 || dim == 0 {
        return;
    }
    assert!(
        dim <= PLANES_MAX_DIM,
        "planes_lmul: block dimension {dim} > {PLANES_MAX_DIM}"
    );
    assert_eq!(h.len(), dim * dim, "planes_lmul: H is one block");
    assert!(
        g.len() == c.len() && g.len().is_multiple_of(2 * dim * dim * n),
        "planes_lmul: G and C are not the same whole runs"
    );
    dispatch(LMul { dim, n, h, g, c });
}

/// One [`planes_lmul`] call.
struct LMul<'a> {
    dim: usize,
    n: usize,
    h: &'a [C64],
    g: &'a [f64],
    c: &'a mut [f64],
}

impl LaneKernel for LMul<'_> {
    const AVX512: bool = true;
    type Output = ();

    #[inline(always)]
    unsafe fn run<V: Lane, T: Lane>(mut self) {
        match self.dim {
            1 => self.block::<V, T, 1>(),
            2 => self.block::<V, T, 2>(),
            3 => self.block::<V, T, 3>(),
            4 => self.block::<V, T, 4>(),
            5 => self.block::<V, T, 5>(),
            _ => unreachable!("planes_lmul checks the dimension"),
        }
    }
}

impl LMul<'_> {
    /// One instantiation per block dimension, run by run.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`].
    #[inline(always)]
    unsafe fn block<V: Lane, T: Lane, const N: usize>(&mut self) {
        let n = self.n;
        let full = n / V::WIDTH * V::WIDTH;
        for at in (0..self.g.len()).step_by(2 * N * N * n) {
            self.steps::<V, N>(at, 0, full);
            self.steps::<T, N>(at, full, n);
        }
    }

    /// Positions `from..to` of the run at `at`, `V::WIDTH` per step, a
    /// block row at a time: the row's `N` splatted `H` entries are held
    /// across the steps, its `N` accumulators in registers across the
    /// `l` terms, and stored once.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`], and `V::WIDTH` must divide `to − from`.
    #[inline(always)]
    unsafe fn steps<V: Lane, const N: usize>(&mut self, at: usize, from: usize, to: usize) {
        let n = self.n;
        let (g, c) = (self.g.as_ptr().add(at), self.c.as_mut_ptr().add(at));
        for r in 0..N {
            let h: [Cx<V>; N] = std::array::from_fn(|l| {
                let z = self.h[l * N + r];
                (V::splat(z.re), V::splat(z.im))
            });
            for e in (from..to).step_by(V::WIDTH) {
                let mut acc: [Cx<V>; N] = [(V::splat(0.0), V::splat(0.0)); N];
                for (l, &(hr, hi)) in h.iter().enumerate() {
                    for (col, (re, im)) in acc.iter_mut().enumerate() {
                        let p = g.add(2 * (l * N + col) * n + e);
                        let (gr, gi) = (V::load(p), V::load(p.add(n)));
                        *re = re.add(hr.mul(gr)).sub(hi.mul(gi));
                        *im = im.add(hr.mul(gi)).add(hi.mul(gr));
                    }
                }
                for (col, (re, im)) in acc.into_iter().enumerate() {
                    let p = c.add(2 * (r * N + col) * n + e);
                    re.store(p);
                    im.store(p.add(n));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RGF: block products with the energy lanes as the SIMD axis.
// ---------------------------------------------------------------------------

/// One [`lane_gemm`] call: shape and scalars in `f64` offsets (an element
/// is `2·lanes` values, its `im` plane `lanes` after its `re`) and the
/// three lane blocks.
struct LaneGemm<'a> {
    dims: BatchDims,
    lanes: usize,
    alpha: C64,
    beta: C64,
    conj_b: bool,
    a: &'a [f64],
    b: &'a [f64],
    c: &'a mut [f64],
}

impl LaneGemm<'_> {
    /// Index of element `(i, j)` of a column-major block with `rows` rows.
    #[inline(always)]
    fn at(rows: usize, i: usize, j: usize) -> usize {
        j * rows + i
    }

    /// Index of element `(l, j)` of `op(B)`: `B[l, j]`, or `B[j, l]` to be
    /// conjugated.
    #[inline(always)]
    fn at_b(&self, l: usize, j: usize) -> usize {
        if self.conj_b {
            Self::at(self.dims.n, j, l)
        } else {
            Self::at(self.dims.k, l, j)
        }
    }

    /// The output tile at `(i0, j0)` of `MR` steps of `V::ROWS` rows down
    /// and `NR` columns across, lanes `e..e + V::WIDTH`: `acc = Σ_l A[i,
    /// l]·op(B)[l, j]` from zero in `l` order, four fused operations per
    /// complex MAC, then `C = α·acc + β·C`. With `GEMM` each MAC adds its
    /// two terms in the packed micro-kernel's order (see [`lane_gemm`]).
    /// A step whose second row lies past the block takes its first row
    /// only. `LS` is the lane count when the caller knows it (see
    /// [`LaneGemm::both`]), else 0.
    ///
    /// # Safety
    /// The three planes must hold the whole block at every lane read, and
    /// the CPU must run `V` (see [`Lane`]).
    #[inline(always)]
    unsafe fn tile<
        V: Lane,
        const MR: usize,
        const NR: usize,
        const CONJ: bool,
        const GEMM: bool,
        const LS: usize,
    >(
        &self,
        i0: usize,
        j0: usize,
        e: usize,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let ls = if LS == 0 { self.lanes } else { LS };
        let m = self.dims.m;
        let off = |x: usize| 2 * x * ls;
        // Element strides: down a column of A (and C), along `l` in A and
        // op(B), and across the tile's columns of op(B).
        let (a_row, a_l) = (off(1), off(m));
        let (b_l, b_col) = (off(self.at_b(1, 0)), off(self.at_b(0, 1)));
        // Each step's first row, and the distance to its next row.
        let row = |r: usize| i0 + r * V::ROWS;
        let next: [usize; MR] =
            std::array::from_fn(|r| if row(r) + V::ROWS <= m { a_row } else { 0 });
        let (mut pa, mut pb) = (a.add(off(i0) + e), b.add(off(self.at_b(0, j0)) + e));
        let zero = V::splat(0.0);
        let mut re = [[zero; NR]; MR];
        let mut im = [[zero; NR]; MR];
        for _ in 0..self.dims.k {
            let mut ar = [zero; MR];
            let mut ai = [zero; MR];
            for r in 0..MR {
                let p = pa.add(r * V::ROWS * a_row);
                ar[r] = V::load_rows(p, next[r]);
                ai[r] = V::load_rows(p.add(ls), next[r]);
            }
            pa = pa.add(a_l);
            for q in 0..NR {
                let p = pb.add(q * b_col);
                let (br, bi) = (V::broadcast(p), V::broadcast(p.add(ls)));
                for r in 0..MR {
                    let (x, y) = (&mut re[r][q], &mut im[r][q]);
                    let (ar, ai) = (ar[r], ai[r]);
                    match (GEMM, CONJ) {
                        // The packed GEMM's order: the `ai` terms first.
                        (true, false) => {
                            *x = ar.madd(br, ai.nmadd(bi, *x));
                            *y = ar.madd(bi, ai.madd(br, *y));
                        }
                        (true, true) => {
                            *x = ar.madd(br, ai.madd(bi, *x));
                            *y = ar.nmadd(bi, ai.madd(br, *y));
                        }
                        (false, false) => {
                            *x = ai.nmadd(bi, ar.madd(br, *x));
                            *y = ai.madd(br, ar.madd(bi, *y));
                        }
                        (false, true) => {
                            *x = ai.madd(bi, ar.madd(br, *x));
                            *y = ai.madd(br, ar.nmadd(bi, *y));
                        }
                    }
                }
            }
            pb = pb.add(b_l);
        }
        let (alpha, beta) = (self.alpha, self.beta);
        let (ar, ai) = (V::splat(alpha.re), V::splat(alpha.im));
        let (br, bi) = (V::splat(beta.re), V::splat(beta.im));
        for r in 0..MR {
            for q in 0..NR {
                let p = c.add(off(Self::at(m, row(r), j0 + q)) + e);
                let (mut x, mut y) = (re[r][q], im[r][q]);
                if alpha != C64::ONE {
                    (x, y) = (ai.nmadd(y, ar.mul(x)), ai.madd(x, ar.mul(y)));
                }
                if beta != C64::ZERO {
                    let (cr, ci) = (V::load_rows(p, next[r]), V::load_rows(p.add(ls), next[r]));
                    x = bi.nmadd(ci, br.madd(cr, x));
                    y = bi.madd(cr, br.madd(ci, y));
                }
                x.store_rows(p, next[r]);
                y.store_rows(p.add(ls), next[r]);
            }
        }
    }

    /// Every output tile, lanes `from..to` in steps of `V::WIDTH`, for one
    /// `op(B)` and one MAC order. A full tile is two steps down and
    /// `2·V::ROWS` columns across (2 × 2 elements on one row a step, 4 × 4
    /// on a row pair: sixteen accumulator registers); the block's edges
    /// take one step down and one column at a time.
    ///
    /// # Safety
    /// As for [`LaneGemm::tile`], and `V::WIDTH` must divide `to − from`.
    #[inline(always)]
    unsafe fn tiles<V: Lane, const CONJ: bool, const GEMM: bool, const LS: usize>(
        &self,
        from: usize,
        to: usize,
        (a, b, c): (*const f64, *const f64, *mut f64),
    ) {
        let (m, n) = (self.dims.m, self.dims.n);
        let wide = 2 * V::ROWS;
        let mut j0 = 0;
        while j0 < n {
            let nr = if n - j0 >= wide { wide } else { 1 };
            for i0 in (0..m).step_by(2 * V::ROWS) {
                let two = m - i0 > V::ROWS;
                for e in (from..to).step_by(V::WIDTH) {
                    match (two, nr) {
                        (true, 1) => self.tile::<V, 2, 1, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                        (false, 1) => self.tile::<V, 1, 1, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                        (true, 2) => self.tile::<V, 2, 2, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                        (false, 2) => self.tile::<V, 1, 2, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                        (true, _) => self.tile::<V, 2, 4, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                        (false, _) => self.tile::<V, 1, 4, CONJ, GEMM, LS>(i0, j0, e, a, b, c),
                    }
                }
            }
            j0 += nr;
        }
    }

    /// [`LaneGemm::tiles`] over both lane types. A call of exactly
    /// [`LANES`] lanes (every full chunk of a row solve) takes them as a
    /// constant, so a tile's loads are constant offsets from one pointer
    /// per operand rather than one register per address stream.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`].
    #[inline(always)]
    unsafe fn both<V: Lane, T: Lane, const CONJ: bool, const GEMM: bool>(self) {
        let ops = (self.a.as_ptr(), self.b.as_ptr(), self.c.as_mut_ptr());
        if V::WIDTH == LANES && self.lanes == LANES {
            return self.tiles::<V, CONJ, GEMM, LANES>(0, LANES, ops);
        }
        let full = self.lanes / V::WIDTH * V::WIDTH;
        self.tiles::<V, CONJ, GEMM, 0>(0, full, ops);
        self.tiles::<T, CONJ, GEMM, 0>(full, self.lanes, ops);
    }
}

impl LaneKernel for LaneGemm<'_> {
    const AVX512: bool = true;
    type Output = ();

    #[inline(always)]
    unsafe fn run<V: Lane, T: Lane>(self) {
        let BatchDims { m, n, k } = self.dims;
        match (self.conj_b, m.max(n).max(k) > SMALL_DIM) {
            (false, false) => self.both::<V::Block, T, false, false>(),
            (false, true) => self.both::<V::Block, T, false, true>(),
            (true, false) => self.both::<V::Block, T, true, false>(),
            (true, true) => self.both::<V::Block, T, true, true>(),
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
/// most [`LANE_MAX_DIM`] run the lane kernel, [`lane_gemm`]. Larger
/// blocks take one lane, whose lane block is `CMatrix`'s column-major
/// `C64` layout, and run [`crate::gemm()`] on it — its packed path, bit
/// for bit, counted as one `GemmCalls`. `C` is not read when `β = 0`.
///
/// # Panics
/// If `op_b` is [`Op::T`], a lane block is too short for its shape, or
/// blocks larger than [`LANE_MAX_DIM`] come with more than one lane.
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
    let BatchDims { m, n, k } = dims;
    if m.max(n).max(k) <= LANE_MAX_DIM {
        return lane_gemm(dims, lanes, alpha, a, b, op_b, beta, c);
    }
    assert!(op_b != Op::T, "planes_gemm: op(B) is N or C");
    assert!(a.len() >= 2 * m * k * lanes, "planes_gemm: A too short");
    assert!(b.len() >= 2 * k * n * lanes, "planes_gemm: B too short");
    assert!(c.len() >= 2 * m * n * lanes, "planes_gemm: C too short");
    if lanes == 0 {
        return;
    }
    assert_eq!(
        lanes, 1,
        "planes_gemm: blocks over LANE_MAX_DIM take one lane"
    );
    let b_rows = if op_b == Op::C { n } else { k };
    let (a, b) = (as_c64(&a[..2 * m * k]), as_c64(&b[..2 * k * n]));
    let c = ColsMut::new(as_c64_mut(&mut c[..2 * m * n]), m);
    let (a, b) = (Cols::new(a, m), Cols::new(b, b_rows));
    gemm_cols(alpha, a, Op::N, b, op_b, beta, c, (m, n, k));
}

/// The lane kernel of [`planes_gemm`] at any block size (register tiles
/// of 2 × 2 elements on AVX2, 4 × 4 on AVX-512; no packing): what
/// `planes_gemm` runs up to [`LANE_MAX_DIM`],
/// and what the records that set that threshold time above it. Same
/// contract as [`planes_mac`]: within one dispatch instantiation an
/// output element receives the same fused operations in the same order
/// whether its lane sits in a vector step or the scalar tail, so a lane's
/// result does not depend on which other lanes share the call. It does no
/// accounting of its own (see [`count_fused_run`]).
///
/// The order of a MAC's four fused operations follows the block size.
/// Up to the GEMM's `SMALL_DIM` (16) it is the lane kernel's own. Above
/// it, where one block at a time would take the packed path, each MAC
/// adds its `ai` terms first as the packed micro-kernel does; with
/// `k ≤ KC` (128) every dimension up to [`LANE_MAX_DIM`] qualifies, so
/// in the AVX-512 and AVX2 instantiations a lane of an `α = 1`, `β = 0`
/// product — the only kind the RGF recursion and the decimation form —
/// is `==` [`crate::gemm()`]'s result (an exact zero may differ in sign).
///
/// # Panics
/// If `op_b` is [`Op::T`] or a lane block is too short for its shape.
#[allow(clippy::too_many_arguments)] // BLAS-style parameter list
pub fn lane_gemm(
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
    if lanes == 0 || m == 0 || n == 0 {
        return;
    }
    dispatch(LaneGemm {
        dims,
        lanes,
        alpha,
        beta,
        conj_b: op_b == Op::C,
        a,
        b,
        c,
    });
}

// `as_c64` relies on this layout.
const _: () = assert!(
    std::mem::size_of::<C64>() == 2 * std::mem::size_of::<f64>()
        && std::mem::align_of::<C64>() == std::mem::align_of::<f64>()
);

/// Interleaved `re, im` pairs — a one-lane lane block, or an SSE `∇H·G`
/// stream of blocks too big for planes — as the `C64`s they hold.
pub fn as_c64(x: &[f64]) -> &[C64] {
    // SAFETY: `C64` is `repr(C)` over two `f64`s (size 16, alignment 8),
    // so each consecutive pair of `f64`s is one `C64`; the length rounds
    // down and the borrow carries over.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), x.len() / 2) }
}

/// [`as_c64`], mutably.
pub fn as_c64_mut(x: &mut [f64]) -> &mut [C64] {
    // SAFETY: as for `as_c64`; the exclusive borrow carries over.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), x.len() / 2) }
}

/// The `re, im` pairs `C64`s are made of: the inverse view of
/// [`as_c64_mut`].
fn as_f64_mut(x: &mut [C64]) -> &mut [f64] {
    // SAFETY: as for `as_c64`, each `C64` is two consecutive `f64`s; the
    // exclusive borrow carries over.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), 2 * x.len()) }
}

// ---------------------------------------------------------------------------
// RGF: block inverses with the energy lanes as the SIMD axis.
// ---------------------------------------------------------------------------

/// `x·y` as [`C64`]'s `Mul`: four products, one subtraction, one
/// addition, nothing fused.
#[inline(always)]
unsafe fn cmul<V: Lane>((xr, xi): Cx<V>, (yr, yi): Cx<V>) -> Cx<V> {
    (xr.mul(yr).sub(xi.mul(yi)), xr.mul(yi).add(xi.mul(yr)))
}

/// `acc − x·y` as `C64`'s `acc -= x * y`.
#[inline(always)]
unsafe fn cmsub<V: Lane>((ar, ai): Cx<V>, x: Cx<V>, y: Cx<V>) -> Cx<V> {
    let (pr, pi) = cmul(x, y);
    (ar.sub(pr), ai.sub(pi))
}

/// One [`planes_invert`] call: the factors of every lane, **row-major**
/// (element `(i, j)` from `2·(i·n + j)·lanes`, so a row of `U` and of `L`
/// is contiguous), the pivot row of every step and lane, the reciprocal
/// of every lane's `U` diagonal, `[k][re|im][lane]`, and the inverse
/// (column-major lane blocks).
struct LaneLu<'a> {
    n: usize,
    lanes: usize,
    lu: &'a mut [f64],
    piv: &'a mut [usize],
    rinv: &'a mut [f64],
    out: &'a mut [f64],
}

impl LaneLu<'_> {
    /// Offset of element `(i, j)` of the factors.
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> usize {
        2 * (i * self.n + j) * self.lanes
    }

    /// Step `k` of `LuFactors::factorize` for lane `e`, up to the
    /// elimination: the pivot search, the row swap and the pivot's
    /// reciprocal.
    fn pivot(&mut self, k: usize, e: usize) -> Result<(), SingularMatrix> {
        let (n, l) = (self.n, self.lanes);
        let norm_sqr = |lu: &[f64], x: usize| c64(lu[x + e], lu[x + l + e]).norm_sqr();
        let mut p = k;
        let mut pmax = norm_sqr(self.lu, self.at(k, k));
        for i in (k + 1)..n {
            let v = norm_sqr(self.lu, self.at(i, k));
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 {
            return Err(SingularMatrix { step: k });
        }
        self.piv[k * l + e] = p;
        if p != k {
            for j in 0..n {
                let (x, y) = (self.at(k, j) + e, self.at(p, j) + e);
                self.lu.swap(x, y);
                self.lu.swap(x + l, y + l);
            }
        }
        let x = self.at(k, k) + e;
        let r = c64(self.lu[x], self.lu[x + l]).recip();
        (self.rinv[2 * k * l + e], self.rinv[(2 * k + 1) * l + e]) = (r.re, r.im);
        Ok(())
    }

    /// Lanes `from..to` of step `k`'s elimination: the multipliers below
    /// the pivot, then the trailing update, skipping (per lane) every
    /// column whose `u_kj` is zero.
    ///
    /// # Safety
    /// The CPU must run `V`, and `V::WIDTH` must divide `to − from`.
    #[inline(always)]
    unsafe fn eliminate<V: Lane>(&mut self, k: usize, from: usize, to: usize) {
        let (n, l) = (self.n, self.lanes);
        let lu = self.lu.as_mut_ptr();
        let ld = |x: usize| (V::load(lu.add(x)), V::load(lu.add(x + l)));
        let st = |x: usize, (re, im): Cx<V>| {
            re.store(lu.add(x));
            im.store(lu.add(x + l));
        };
        for e in (from..to).step_by(V::WIDTH) {
            let r = self.rinv.as_ptr();
            let pinv = (
                V::load(r.add(2 * k * l + e)),
                V::load(r.add((2 * k + 1) * l + e)),
            );
            for i in (k + 1)..n {
                let m = cmul(ld(self.at(i, k) + e), pinv);
                st(self.at(i, k) + e, m);
                for j in (k + 1)..n {
                    let (u, x) = (ld(self.at(k, j) + e), self.at(i, j) + e);
                    let v = ld(x);
                    let (re, im) = cmsub(v, m, u);
                    st(
                        x,
                        (re.unless_zero(v.0, u.0, u.1), im.unless_zero(v.1, u.0, u.1)),
                    );
                }
            }
        }
    }

    /// Lanes `from..to` of `LuFactors::solve_vec_inplace` on `b`, one
    /// column of lane blocks (`[row][re|im][lane]`) already permuted:
    /// `L y = b` forward, then `U x = y` backward.
    ///
    /// # Safety
    /// As for [`LaneLu::eliminate`]; `b` holds `n` elements.
    #[inline(always)]
    unsafe fn substitute<V: Lane>(&self, b: &mut [f64], from: usize, to: usize) {
        let (n, l) = (self.n, self.lanes);
        let (lu, b, r) = (self.lu.as_ptr(), b.as_mut_ptr(), self.rinv.as_ptr());
        let ld = |p: *const f64, x: usize| (V::load(p.add(x)), V::load(p.add(x + l)));
        for e in (from..to).step_by(V::WIDTH) {
            for i in 1..n {
                let mut acc = ld(b, 2 * i * l + e);
                for j in 0..i {
                    acc = cmsub(acc, ld(lu, self.at(i, j) + e), ld(b, 2 * j * l + e));
                }
                acc.0.store(b.add(2 * i * l + e));
                acc.1.store(b.add((2 * i + 1) * l + e));
            }
            for i in (0..n).rev() {
                let mut acc = ld(b, 2 * i * l + e);
                for j in (i + 1)..n {
                    acc = cmsub(acc, ld(lu, self.at(i, j) + e), ld(b, 2 * j * l + e));
                }
                let (re, im) = cmul(acc, ld(r, 2 * i * l + e));
                re.store(b.add(2 * i * l + e));
                im.store(b.add((2 * i + 1) * l + e));
            }
        }
    }
}

impl LaneKernel for LaneLu<'_> {
    type Output = Result<(), SingularMatrix>;

    /// The whole inverse into `out`.
    #[inline(always)]
    unsafe fn run<V: Lane, T: Lane>(mut self) -> Result<(), SingularMatrix> {
        let (n, l) = (self.n, self.lanes);
        let full = l / V::WIDTH * V::WIDTH;
        for k in 0..n {
            for e in 0..l {
                self.pivot(k, e)?;
            }
            self.eliminate::<V>(k, 0, full);
            self.eliminate::<T>(k, full, l);
        }
        // Column c of A⁻¹ solves A x = e_c.
        let out = std::mem::take(&mut self.out);
        for (c, b) in out.chunks_exact_mut(2 * n * l).take(n).enumerate() {
            b.fill(0.0);
            for e in 0..l {
                b[2 * c * l + e] = 1.0;
                for k in 0..n {
                    let p = self.piv[k * l + e];
                    if p != k {
                        b.swap(2 * k * l + e, 2 * p * l + e);
                        b.swap((2 * k + 1) * l + e, (2 * p + 1) * l + e);
                    }
                }
            }
            self.substitute::<V>(b, 0, full);
            self.substitute::<T>(b, full, l);
        }
        Ok(())
    }
}

/// `out[e] = a[e]⁻¹` for every lane `e < lanes` of `n × n` lane blocks
/// (the layout of [`planes_gemm`]): the block inverses of the RGF
/// recursion and the Sancho–Rubio decimation, with the energies as the
/// SIMD axis.
///
/// Every lane performs [`crate::Workspace::invert_into`]'s operations in
/// its order — `LuFactors::factorize` with the pivot searched and the
/// rows swapped per lane, the `u_kj = 0` skip a per-lane blend, each
/// pivot's `recip` per lane, then `invert_into`'s forward and backward
/// substitution — every complex product and difference unfused as
/// [`C64`] computes it. So each lane's inverse is bitwise
/// `invert_into`'s, in either dispatch instantiation and whatever lanes
/// share the call. The factors, pivots and reciprocals are scratch from
/// `ws`, so a warm workspace makes the call allocation-free.
///
/// # Panics
/// With `invert_into`'s message if a lane is singular, or if a lane
/// block is too short for its shape.
pub fn planes_invert(n: usize, lanes: usize, a: &[f64], out: &mut [f64], ws: &mut Workspace) {
    let len = 2 * n * n * lanes;
    assert!(a.len() >= len, "planes_invert: A too short");
    assert!(out.len() >= len, "planes_invert: out too short");
    if n == 0 || lanes == 0 {
        return;
    }
    let mut buf = ws.take_planes(len + 2 * n * lanes);
    let mut piv = std::mem::take(&mut ws.lane_pivots);
    piv.resize(n * lanes, 0);
    let (lu, rinv) = buf.split_at_mut(len);
    // The factors are row-major: a transposed copy of `a`.
    for (j, col) in a[..len].chunks_exact(2 * n * lanes).enumerate() {
        for (i, z) in col.chunks_exact(2 * lanes).enumerate() {
            let d = 2 * (i * n + j) * lanes;
            lu[d..d + 2 * lanes].copy_from_slice(z);
        }
    }
    let solved = dispatch(LaneLu {
        n,
        lanes,
        lu,
        piv: &mut piv,
        rinv,
        out,
    });
    ws.lane_pivots = piv;
    ws.give_planes(buf);
    if let Err(e) = solved {
        panic!("invert: {e} (matrix {n}x{n})");
    }
}

// ---------------------------------------------------------------------------
// Stage D: a 3 × 3 tile of complex dot products.
// ---------------------------------------------------------------------------

/// Lane accumulators of a 3 × 3 tile of complex dot products, carried
/// across [`planes_dots`] calls and reduced once by [`DotTile::sum`].
/// Eight lanes in every instantiation, so a tile's bits do not depend on
/// the vector width.
#[derive(Clone, Copy, Default)]
pub struct DotTile {
    re: [[f64; DOT_LANES]; 9],
    im: [[f64; DOT_LANES]; 9],
}

impl DotTile {
    /// The nine sums, entry `j·3 + i` pairing `x[i]` with `y[j]`.
    pub fn sum(&self) -> [C64; 9] {
        let lanes = |v: &[f64; DOT_LANES]| {
            ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
        };
        std::array::from_fn(|t| c64(lanes(&self.re[t]), lanes(&self.im[t])))
    }
}

/// One split-complex operand run of [`planes_dots`]: `[re, im]`.
pub type SplitRun<'a> = [&'a [f64]; 2];

/// `tile[j·3 + i] += Σ_t x[i][t] · y[j][t]` (complex, unconjugated) over
/// equally long split-complex runs: three loads of `x` and three of `y`
/// per nine complex FMAs. Position `t` adds into lane `t mod 8` of the
/// tile, in every instantiation.
///
/// # Panics
/// If the runs differ in length.
pub fn planes_dots(x: [SplitRun<'_>; 3], y: [SplitRun<'_>; 3], tile: &mut DotTile) {
    let n = x[0][0].len();
    for run in x.iter().chain(&y) {
        assert!(
            run[0].len() == n && run[1].len() == n,
            "planes_dots: ragged runs"
        );
    }
    dispatch(Dots { n, x, y, tile });
}

/// One [`planes_dots`] call.
struct Dots<'a> {
    n: usize,
    x: [SplitRun<'a>; 3],
    y: [SplitRun<'a>; 3],
    tile: &'a mut DotTile,
}

impl LaneKernel for Dots<'_> {
    const AVX512: bool = true;
    type Output = ();

    #[inline(always)]
    unsafe fn run<V: Lane, T: Lane>(mut self) {
        let full = self.n / DOT_LANES * DOT_LANES;
        self.steps::<V>(0, full);
        self.steps::<T>(full, self.n);
    }
}

impl Dots<'_> {
    /// Positions `from..to` (`from` a multiple of [`DOT_LANES`]): one pass
    /// per tile lane offset `s` of a `V` step, holding the eighteen
    /// accumulators across the positions `t ≡ s (mod DOT_LANES)`.
    ///
    /// # Safety
    /// As for [`LaneKernel::run`], and `V::WIDTH` must divide `to − from`
    /// and [`DOT_LANES`].
    #[inline(always)]
    unsafe fn steps<V: Lane>(&mut self, from: usize, to: usize) {
        let ptrs = |runs: [SplitRun<'_>; 3]| runs.map(|[re, im]| [re.as_ptr(), im.as_ptr()]);
        let (x, y) = (ptrs(self.x), ptrs(self.y));
        let tile = &mut *self.tile;
        for pass in 0..DOT_LANES / V::WIDTH {
            let s = pass * V::WIDTH;
            if from + s >= to {
                break; // no position at this offset, nor at the next
            }
            let mut re: [V; 9] = std::array::from_fn(|o| V::load(tile.re[o].as_ptr().add(s)));
            let mut im: [V; 9] = std::array::from_fn(|o| V::load(tile.im[o].as_ptr().add(s)));
            let mut t = from + s;
            while t < to {
                let at = |[re, im]: [*const f64; 2]| (V::load(re.add(t)), V::load(im.add(t)));
                let (xv, yv) = (x.map(at), y.map(at));
                for (j, &(yr, yi)) in yv.iter().enumerate() {
                    for (i, &(xr, xi)) in xv.iter().enumerate() {
                        let o = j * 3 + i;
                        re[o] = xi.nmadd(yi, xr.madd(yr, re[o]));
                        im[o] = xi.madd(yr, xr.madd(yi, im[o]));
                    }
                }
                t += DOT_LANES;
            }
            for o in 0..9 {
                re[o].store(tile.re[o].as_mut_ptr().add(s));
                im[o].store(tile.im[o].as_mut_ptr().add(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{small_gemm, use_packed_kernel, BatchDims};
    use crate::dense::CMatrix;

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
        pack_planes(dim, len, &a, len, 0, &mut pa);
        planes_mac(dim, n, &pa, len, &w, &[(at, 0)], &mut pc[at..], len);
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
        let (a, w) = (noise(len * bsz, 4), noise(2 * bsz, 5));
        let mut pa = Vec::new();
        pack_planes(dim, len, &a, len, 0, &mut pa);
        // Two terms from overlapping offsets, the second with its own block.
        let terms = [(0, 0), (1, bsz)];
        let n = len - 1;
        let mut whole = vec![0.0; 2 * len * bsz];
        planes_mac(dim, n, &pa, len, &w, &terms, &mut whole, len);
        for cut in 1..n {
            let mut parts = vec![0.0; 2 * len * bsz];
            planes_mac(dim, cut, &pa, len, &w, &terms, &mut parts, len);
            let rest = terms.map(|(o, w)| (o + cut, w));
            planes_mac(dim, n - cut, &pa, len, &w, &rest, &mut parts[cut..], len);
            assert_eq!(parts, whole, "cut at {cut}");
        }
    }

    #[test]
    fn mac_terms_are_the_sequential_one_term_calls() {
        // One multi-term call is bitwise the same terms issued one at a
        // time: the accumulators only stay in registers across them.
        for dim in 1..=PLANES_MAX_DIM {
            let bsz = dim * dim;
            for n in [1, 5, 23] {
                let la = n + 4;
                let mut pa = Vec::new();
                pack_planes(dim, n + 2, &noise((n + 2) * bsz, 80), la, 1, &mut pa);
                let w = noise(3 * bsz, 81);
                // Overlapping offsets, a repeated term, every block, and
                // the padding zeros at both ends of the planes.
                let terms = [
                    (2, 0),
                    (0, bsz),
                    (3, 2 * bsz),
                    (2, 0),
                    (4, bsz),
                    (1, 2 * bsz),
                ];
                let c0: Vec<f64> = noise(bsz * n, 82)
                    .iter()
                    .flat_map(|z| [z.re, z.im])
                    .collect();
                let mut fused = c0.clone();
                planes_mac(dim, n, &pa, la, &w, &terms, &mut fused, n);
                let mut one_by_one = c0;
                for t in terms {
                    planes_mac(dim, n, &pa, la, &w, &[t], &mut one_by_one, n);
                }
                assert_eq!(fused, one_by_one, "dim {dim}, n {n}");
            }
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

    /// How a test runs a plane kernel.
    #[derive(Clone, Copy, Debug)]
    enum Inst {
        /// The dispatch's AVX-512 instantiation (the run-axis kernels and
        /// the lane GEMM).
        Avx512,
        /// The dispatch's AVX2 instantiation.
        Avx2,
        /// One fused scalar lane at a time, as the AVX2 instantiation's tail.
        Fused,
        /// One plain scalar lane at a time: the portable instantiation.
        Plain,
    }

    fn run<K: LaneKernel>(inst: Inst, k: K) -> K::Output {
        // SAFETY: the vector instantiations run only where the CPU has
        // their instruction sets (asserted); the scalar lanes run anywhere.
        unsafe {
            match inst {
                Inst::Avx512 => {
                    assert!(
                        avx512_available(),
                        "the AVX-512 instantiation needs AVX-512F"
                    );
                    on_avx512(k)
                }
                Inst::Avx2 => {
                    assert!(fma_available(), "the AVX2 instantiation needs AVX2 + FMA");
                    on_avx2(k)
                }
                Inst::Fused => k.run::<Scalar<true>, Scalar<true>>(),
                Inst::Plain => k.run::<Scalar<false>, Scalar<false>>(),
            }
        }
    }

    /// The vector instantiations of the [`LaneKernel::AVX512`] kernels this
    /// host runs, widest first; says so when it lacks AVX-512F.
    fn run_axis_vectors() -> Vec<Inst> {
        if avx512_available() {
            vec![Inst::Avx512, Inst::Avx2]
        } else {
            println!("no avx512f on this host: the AVX-512 instantiation is skipped");
            vec![Inst::Avx2]
        }
    }

    /// [`planes_mac`]: `terms` over planes of `la` positions into whole
    /// accumulator planes of `n` positions.
    fn mac<'a>(
        dim: usize,
        n: usize,
        (a, la): (&'a [f64], usize),
        w: &'a [C64],
        terms: &'a [(usize, usize)],
        c: &'a mut [f64],
    ) -> Mac<'a> {
        let lc = n;
        Mac {
            dim,
            n,
            a,
            la,
            w,
            terms,
            c,
            lc,
        }
    }

    /// [`planes_dots`] over the runs' length.
    fn dots<'a>(x: [SplitRun<'a>; 3], y: [SplitRun<'a>; 3], tile: &'a mut DotTile) -> Dots<'a> {
        let n = x[0][0].len();
        Dots { n, x, y, tile }
    }

    /// [`lane_gemm`] on square blocks, `ab = (α, β)`.
    fn gemm<'a>(
        bs: usize,
        lanes: usize,
        (alpha, beta): (C64, C64),
        conj_b: bool,
        a: &'a [f64],
        b: &'a [f64],
        c: &'a mut [f64],
    ) -> LaneGemm<'a> {
        let dims = BatchDims::square(bs);
        LaneGemm {
            dims,
            lanes,
            alpha,
            beta,
            conj_b,
            a,
            b,
            c,
        }
    }

    #[test]
    fn instantiations_agree_to_rounding() {
        if !fma_available() {
            return; // one instantiation only on this host (or forced)
        }
        let (len, bsz) = (23, 9);
        let (a, w) = (noise(len * bsz, 6), noise(2 * bsz, 7));
        let mut pa = Vec::new();
        pack_planes(3, len, &a, len, 0, &mut pa);
        let terms = [(0, 0), (2, bsz), (1, 0)];
        let vectors = run_axis_vectors();
        let n = len - 2;
        let mac_by = |inst: Inst| {
            let mut c = vec![0.0; 2 * n * bsz];
            run(inst, mac(3, n, (&pa, len), &w, &terms, &mut c));
            c
        };
        let plain = mac_by(Inst::Plain);
        for &inst in &vectors {
            for (f, p) in mac_by(inst).iter().zip(&plain) {
                assert!((f - p).abs() < 1e-14, "planes_mac: {inst:?}");
            }
        }
        let run_of = |r: usize| -> SplitRun<'_> {
            [&pa[2 * r * len..][..len], &pa[(2 * r + 1) * len..][..len]]
        };
        let (x, y) = (
            [run_of(0), run_of(1), run_of(2)],
            [run_of(3), run_of(4), run_of(5)],
        );
        let dots_by = |inst: Inst| {
            let mut tile = DotTile::default();
            run(inst, dots(x, y, &mut tile));
            tile.sum()
        };
        let plain = dots_by(Inst::Plain);
        for &inst in &vectors {
            for (f, p) in dots_by(inst).iter().zip(&plain) {
                assert!((*f - *p).abs() < 1e-13, "planes_dots: {inst:?}");
            }
        }
    }

    #[test]
    fn every_lane_kernel_is_its_fused_scalar_lane() {
        // A vector step performs, lane by lane, the fused scalar lane's
        // operations: every kernel gives `==` outputs either way, on sizes
        // that leave a tail. The run-axis kernels give `==` outputs on
        // AVX-512 too (where the host has it).
        if !fma_available() {
            return; // no vector step on this host (or forced)
        }
        let re =
            |n: usize, seed: u64| -> Vec<f64> { noise(n, seed).iter().map(|z| z.re).collect() };
        let run_axis: Vec<Inst> = run_axis_vectors()
            .into_iter()
            .chain([Inst::Fused])
            .collect();
        for dim in 1..=PLANES_MAX_DIM {
            let bsz = dim * dim;
            for n in [1, 3, 5, 23] {
                // Three terms over planes of `n + 2`, overlapping.
                let la = n + 2;
                let terms = [(0, 0), (2, bsz), (1, 2 * bsz)];
                let (a, w, c0) = (
                    re(2 * bsz * la, 50),
                    noise(3 * bsz, 51),
                    re(2 * bsz * n, 52),
                );
                let outs: Vec<Vec<f64>> = run_axis
                    .iter()
                    .map(|&inst| {
                        let mut c = c0.clone();
                        run(inst, mac(dim, n, (&a, la), &w, &terms, &mut c));
                        c
                    })
                    .collect();
                for (inst, c) in run_axis.iter().zip(&outs) {
                    assert_eq!(
                        *c,
                        outs[outs.len() - 1],
                        "planes_mac: dim {dim}, n {n}, {inst:?}"
                    );
                }
            }
        }
        for n in [1, 5, 23, 217] {
            let runs: Vec<Vec<f64>> = (0..12).map(|r| re(n, 60 + r)).collect();
            let run_of = |r: usize| -> SplitRun<'_> { [&runs[2 * r], &runs[2 * r + 1]] };
            let (x, y) = (
                [run_of(0), run_of(1), run_of(2)],
                [run_of(3), run_of(4), run_of(5)],
            );
            let tiles: Vec<DotTile> = run_axis
                .iter()
                .map(|&inst| {
                    let mut tile = DotTile::default();
                    // Twice: the second call adds on top of the first.
                    run(inst, dots(x, y, &mut tile));
                    run(inst, dots(x, y, &mut tile));
                    tile
                })
                .collect();
            let fused = &tiles[tiles.len() - 1];
            for (inst, t) in run_axis.iter().zip(&tiles) {
                assert!(
                    t.re == fused.re && t.im == fused.im,
                    "planes_dots: n {n}, {inst:?}"
                );
            }
        }
        let both = [Inst::Avx2, Inst::Fused];
        for bs in [5, 12, 32] {
            for lanes in [1, 5, 9] {
                let len = 2 * bs * bs * lanes;
                let (a, b, c0) = (re(len, 70), re(len, 71), re(len, 72));
                for conj_b in [false, true] {
                    for ab in [(C64::ONE, C64::ZERO), (c64(0.5, -0.25), C64::ONE)] {
                        let [v, s] = both.map(|inst| {
                            let mut c = c0.clone();
                            run(inst, gemm(bs, lanes, ab, conj_b, &a, &b, &mut c));
                            c
                        });
                        let why = format!("bs {bs}, {lanes} lanes, conj {conj_b}, (α, β) {ab:?}");
                        assert_eq!(v, s, "planes_gemm: {why}");
                    }
                }
            }
        }
        for n in [12, 32] {
            let lanes = 5;
            // The factors are row-major.
            let mut lu0 = vec![0.0; 2 * n * n * lanes];
            for e in 0..lanes {
                let m = invert_case(n, e);
                for i in 0..n {
                    for j in 0..n {
                        let x = 2 * (i * n + j) * lanes + e;
                        (lu0[x], lu0[x + lanes]) = (m[(i, j)].re, m[(i, j)].im);
                    }
                }
            }
            let [v, s] = both.map(|inst| {
                let (mut lu, mut out) = (lu0.clone(), vec![f64::NAN; lu0.len()]);
                let (mut piv, mut rinv) = (vec![0; n * lanes], vec![0.0; 2 * n * lanes]);
                let f = LaneLu {
                    n,
                    lanes,
                    lu: &mut lu,
                    piv: &mut piv,
                    rinv: &mut rinv,
                    out: &mut out,
                };
                run(inst, f).expect("invertible");
                out
            });
            assert_eq!(v, s, "planes_invert: n {n}");
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
    fn lane_gemm_above_small_dim_is_the_packed_gemm() {
        if !fma_available() {
            return; // the portable instantiations sum in different orders
        }
        for (bs, lanes) in [(17, 1), (24, 4), (32, 5), (LANE_MAX_DIM, 4)] {
            let mats = |seed: u64| -> Vec<CMatrix> {
                (0..lanes)
                    .map(|e| CMatrix::from_vec(bs, bs, noise(bs * bs, seed + e as u64)))
                    .collect()
            };
            let (a, b) = (mats(20), mats(30));
            let pack = |m: &[CMatrix]| {
                let mut out = vec![0.0; 2 * bs * bs * lanes];
                for (e, m) in m.iter().enumerate() {
                    for (x, z) in m.as_slice().iter().enumerate() {
                        (out[2 * x * lanes + e], out[(2 * x + 1) * lanes + e]) = (z.re, z.im);
                    }
                }
                out
            };
            for op_b in [Op::N, Op::C] {
                let mut c = vec![f64::NAN; 2 * bs * bs * lanes];
                let dims = BatchDims::square(bs);
                lane_gemm(
                    dims,
                    lanes,
                    C64::ONE,
                    &pack(&a),
                    &pack(&b),
                    op_b,
                    C64::ZERO,
                    &mut c,
                );
                for e in 0..lanes {
                    let mut want = CMatrix::zeros(bs, bs);
                    crate::gemm(C64::ONE, &a[e], Op::N, &b[e], op_b, C64::ZERO, &mut want);
                    let want: Vec<f64> =
                        want.as_slice().iter().flat_map(|z| [z.re, z.im]).collect();
                    assert_eq!(lane_of(&c, lanes, e), want, "bs {bs} {op_b:?} lane {e}");
                }
            }
        }
    }

    #[test]
    fn lane_gemm_instantiations_agree_to_rounding() {
        if !fma_available() {
            return; // one instantiation only on this host (or forced)
        }
        let lanes = 6;
        let f = |seed: u64| -> Vec<f64> {
            noise(144 * lanes, seed)
                .iter()
                .flat_map(|z| [z.re, z.im])
                .collect()
        };
        let (a, b) = (f(11), f(12));
        let ab = (c64(0.5, -0.25), c64(1.0, 0.5));
        let [fused, plain] = [Inst::Avx2, Inst::Plain].map(|inst| {
            let mut c = f(13);
            run(inst, gemm(12, lanes, ab, true, &a, &b, &mut c));
            c
        });
        for (x, y) in fused.iter().zip(&plain) {
            assert!((x - y).abs() < 1e-13, "{x} vs {y}");
        }
    }

    #[test]
    fn lane_gemm_avx512_step_is_the_avx2_step() {
        // The row-pair step performs, lane by lane and row by row, the
        // AVX2 step's fused operations: `==` outputs from the AVX-512, AVX2
        // and fused-scalar instantiations, on edge tiles of every shape,
        // both MAC orders (below and above `SMALL_DIM`) and lane counts
        // that leave a tail.
        if !fma_available() {
            return; // no vector step on this host (or forced)
        }
        let insts: Vec<Inst> = run_axis_vectors()
            .into_iter()
            .chain([Inst::Fused])
            .collect();
        let f = |len: usize, seed: u64| -> Vec<f64> {
            noise(len, seed).iter().flat_map(|z| [z.re, z.im]).collect()
        };
        let square = [1, 3, 5, 12, 13, 32, 48].map(BatchDims::square);
        let shapes = square.into_iter().chain([
            BatchDims { m: 5, n: 4, k: 3 },
            BatchDims { m: 13, n: 12, k: 7 },
        ]);
        for dims in shapes {
            let BatchDims { m, n, k } = dims;
            for lanes in [1, 3, 4, 5, 8, 9] {
                let (a, b, c0) = (
                    f(m * k * lanes, 90),
                    f(k * n * lanes, 91),
                    f(m * n * lanes, 92),
                );
                for conj_b in [false, true] {
                    for (alpha, beta) in [(C64::ONE, C64::ZERO), (c64(0.5, -0.25), C64::ONE)] {
                        let outs: Vec<Vec<f64>> = insts
                            .iter()
                            .map(|&inst| {
                                let mut c = c0.clone();
                                let call = LaneGemm {
                                    dims,
                                    lanes,
                                    alpha,
                                    beta,
                                    conj_b,
                                    a: &a,
                                    b: &b,
                                    c: &mut c,
                                };
                                run(inst, call);
                                c
                            })
                            .collect();
                        let fused = &outs[outs.len() - 1];
                        let why = format!(
                            "{dims:?}, {lanes} lanes, conj {conj_b}, (α, β) ({alpha:?}, {beta:?})"
                        );
                        for (inst, c) in insts.iter().zip(&outs) {
                            assert!(c == fused, "{inst:?}: {why}");
                        }
                        // Above `SMALL_DIM` a lane is the packed GEMM's.
                        if m.max(n).max(k) <= SMALL_DIM || beta != C64::ZERO {
                            continue;
                        }
                        let (op_b, b_rows, b_cols) =
                            if conj_b { (Op::C, n, k) } else { (Op::N, k, n) };
                        for e in 0..lanes {
                            let mat = |x: &[f64], rows: usize, cols: usize| {
                                let z = lane_of(x, lanes, e);
                                CMatrix::from_vec(rows, cols, as_c64(&z).to_vec())
                            };
                            let (ae, be) = (mat(&a, m, k), mat(&b, b_rows, b_cols));
                            let mut want = CMatrix::zeros(m, n);
                            crate::gemm(C64::ONE, &ae, Op::N, &be, op_b, C64::ZERO, &mut want);
                            assert!(
                                as_c64(&lane_of(fused, lanes, e)) == want.as_slice(),
                                "lane {e} is not the packed GEMM's: {why}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Lane `e` of the `invert` test: a different matrix per lane. Most
    /// lanes have their rows rotated by a lane-dependent amount, so the
    /// lanes pick different pivot rows. Every third lane is lower
    /// triangular with a dominant diagonal and `−0.0` above it: no row
    /// swaps, and every `u_kj` above the diagonal is zero, so the skip's
    /// blend decides each of those elements.
    fn invert_case(n: usize, e: usize) -> CMatrix {
        let z = noise(n * n, 40 + e as u64);
        CMatrix::from_fn(n, n, |i, j| {
            let r = if e % 3 == 2 { i } else { (i + 3 * e + 1) % n };
            let v = z[r * n + j];
            if e % 3 == 2 && j > i {
                c64(-0.0, -0.0)
            } else if r == j {
                v + c64(2.5, 0.25)
            } else {
                v
            }
        })
    }

    #[test]
    fn planes_invert_is_bitwise_invert_into() {
        let mut ws = Workspace::new();
        let mut want = CMatrix::zeros(0, 0);
        let counts = [1, 3, 4, 5, 9];
        for n in 1..=LANE_MAX_DIM {
            let all = [17, 24, 32, LANE_MAX_DIM].contains(&n);
            let lane_counts = if all {
                &counts[..]
            } else {
                &counts[n % 5..][..1]
            };
            for &lanes in lane_counts {
                let mats: Vec<CMatrix> = (0..lanes).map(|e| invert_case(n, e)).collect();
                let mut a = vec![0.0; 2 * n * n * lanes];
                for (e, m) in mats.iter().enumerate() {
                    for (x, z) in m.as_slice().iter().enumerate() {
                        (a[2 * x * lanes + e], a[(2 * x + 1) * lanes + e]) = (z.re, z.im);
                    }
                }
                let mut out = vec![f64::NAN; a.len()];
                planes_invert(n, lanes, &a, &mut out, &mut ws);
                for (e, m) in mats.iter().enumerate() {
                    ws.invert_into(m, &mut want);
                    let want: Vec<u64> = want
                        .as_slice()
                        .iter()
                        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                        .collect();
                    let got: Vec<u64> = lane_of(&out, lanes, e)
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    assert_eq!(got, want, "n {n}, lane {e} of {lanes}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invert: matrix is singular at elimination step 2 (matrix 5x5)")]
    fn planes_invert_panics_on_a_singular_lane() {
        let (n, lanes) = (5, 4);
        let mut a: Vec<f64> = (0..2 * n * n * lanes)
            .map(|x| (x as f64 * 0.7).sin())
            .collect();
        // Lane 2's third column is zero.
        for p in 2 * 2 * n..2 * 3 * n {
            a[p * lanes + 2] = 0.0;
        }
        planes_invert(n, lanes, &a.clone(), &mut a, &mut Workspace::new());
    }

    #[test]
    fn planes_lmul_is_small_gemm_on_every_instantiation() {
        // Every instantiation, the portable one too, gives the bits of
        // `small_gemm` per block followed by `pack_planes`, on runs that
        // leave tails at every width and on zeros of both signs.
        let vectors = if fma_available() {
            run_axis_vectors()
        } else {
            println!("no AVX2 + FMA dispatch on this host: the vector instantiations are skipped");
            Vec::new()
        };
        let insts: Vec<Inst> = vectors
            .into_iter()
            .chain([Inst::Fused, Inst::Plain])
            .collect();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let signed_zeros = |x: f64, i: usize| [0.0, -0.0, x, x, x][i % 5];
        for dim in 1..=PLANES_MAX_DIM {
            let (dims, bsz) = (BatchDims::square(dim), dim * dim);
            let h = noise(bsz, 80 + dim as u64);
            for n in [1, 7, 8, 9, 23, 24, 96] {
                let runs = 2;
                let g: Vec<C64> = (noise(runs * n * bsz, 90).into_iter().enumerate())
                    .map(|(i, z)| c64(signed_zeros(z.re, i), signed_zeros(z.im, i / 5)))
                    .collect();
                let mut blocks = vec![C64::ZERO; g.len()];
                for (g, c) in g.chunks_exact(bsz).zip(blocks.chunks_exact_mut(bsz)) {
                    small_gemm(dims, C64::ONE, &h, g, C64::ZERO, c);
                }
                let (mut pg, mut want) = (Vec::new(), Vec::new());
                pack_planes(dim, n, &g, n, 0, &mut pg);
                pack_planes(dim, n, &blocks, n, 0, &mut want);
                for &inst in &insts {
                    let mut c = vec![f64::NAN; pg.len()];
                    let (g, c) = (&pg[..], &mut c[..]);
                    run(
                        inst,
                        LMul {
                            dim,
                            n,
                            h: &h,
                            g,
                            c,
                        },
                    );
                    assert!(bits(c) == bits(&want), "dim {dim}, n {n}, {inst:?}");
                }
            }
        }
    }

    #[test]
    fn pack_and_add_planes_are_inverse_walks() {
        let (dim, bsz, len, runs) = (2, 4, 5, 3);
        let src: Vec<C64> = (0..runs * len * bsz)
            .map(|i| c64(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut planes = Vec::new();
        pack_planes(dim, len, &src, len, 0, &mut planes);
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
        // Into longer planes, over a buffer that held other values: the
        // run from position 2, zeros around it.
        let (plane, at) = (len + 3, 2);
        planes.iter_mut().for_each(|x| *x = f64::NAN);
        pack_planes(dim, len, &src, plane, at, &mut planes);
        assert_eq!(planes.len(), 2 * plane * bsz * runs);
        for (p, values) in planes.chunks_exact(plane).enumerate() {
            let (r, x, part) = (p / (2 * bsz), p / 2 % bsz, p % 2);
            // Plane `x` is row-major element `(x / dim, x % dim)`.
            let src_x = (x % dim) * dim + x / dim;
            for (pos, v) in values.iter().enumerate() {
                let want = match pos.checked_sub(at).filter(|&e| e < len) {
                    Some(e) => {
                        let z = src[(r * len + e) * bsz + src_x];
                        [z.re, z.im][part]
                    }
                    None => 0.0,
                };
                assert_eq!(v.to_bits(), want.to_bits(), "plane {p}, position {pos}");
            }
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

    #[test]
    fn pad_and_split_planes_are_the_block_packs() {
        // From the planes of a run of blocks, the copies give the bits the
        // block packs give from the blocks, over buffers that held other
        // values.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for dim in 1..=PLANES_MAX_DIM {
            let bsz = dim * dim;
            for len in [1, 5, 24] {
                let mut src = noise(3 * len * bsz, 30);
                src[0] = c64(-0.0, 0.0);
                let mut planes = Vec::new();
                pack_planes(dim, len, &src, len, 0, &mut planes);
                let (plane, at) = (len + 7, 3);
                let (mut got, mut want) = (vec![f64::NAN; 9], Vec::new());
                pad_planes(len, &planes, plane, at, &mut got);
                pack_planes(dim, len, &src, plane, at, &mut want);
                assert!(bits(&got) == bits(&want), "pad: dim {dim}, len {len}");
                for transpose in [false, true] {
                    let (mut got, mut want) = (vec![f64::NAN; 9], Vec::new());
                    split_planes(dim, len, transpose, &planes, &mut got);
                    pack_split(len * bsz, transpose.then_some(dim), &src, &mut want);
                    let why = format!("split: dim {dim}, len {len}, transpose {transpose}");
                    assert!(bits(&got) == bits(&want), "{why}");
                }
            }
        }
    }

    #[test]
    fn twiddles_are_exact_at_quarter_turns() {
        let turns = [c64(1.0, 0.0), c64(0.0, -1.0), c64(-1.0, 0.0), c64(0.0, 1.0)];
        for n in [1, 2, 4, 8, 12] {
            for j in (0..3 * n).filter(|j| (4 * j) % n == 0) {
                let want = turns[(4 * j / n) % 4];
                let got = twiddle(n, j);
                assert!(got.re.to_bits() == want.re.to_bits(), "n {n}, j {j}");
                assert!(got.im.to_bits() == want.im.to_bits(), "n {n}, j {j}");
            }
        }
        for (n, j) in [(3, 1), (5, 2), (6, 1), (7, 3)] {
            let angle = -std::f64::consts::TAU * j as f64 / n as f64;
            let want = c64(angle.cos(), angle.sin());
            assert!((twiddle(n, j) - want).abs() < 1e-15, "n {n}, j {j}");
        }
    }

    /// `[group][k][re|im][len]` split runs of `values` — `groups · n`
    /// runs of `len` complex numbers.
    fn split_runs(values: &[C64], len: usize) -> Vec<f64> {
        let runs = values.chunks_exact(len);
        runs.flat_map(|r| r.iter().map(|z| z.re).chain(r.iter().map(|z| z.im)))
            .collect()
    }

    #[test]
    fn dft_planes_is_the_twiddled_sum_and_inverts() {
        // Every momentum count through 6: the butterflies of 2 and 4 and
        // the twiddled sums of the others, against `Σ_k ω^{−κk} x[k]`.
        let (groups, len) = (3, 7);
        for n in 1..=6 {
            let x = noise(groups * n * len, n as u64);
            let mut data = split_runs(&x, len);
            dft_planes(n, false, 1, len, &mut data);
            for g in 0..groups {
                for kappa in 0..n {
                    for j in 0..len {
                        let terms =
                            (0..n).map(|k| twiddle(n, kappa * k) * x[(g * n + k) * len + j]);
                        let want = terms.fold(C64::ZERO, |v, t| v + t);
                        let o = (g * n + kappa) * 2 * len + j;
                        let got = c64(data[o], data[o + len]);
                        assert!((got - want).abs() < 1e-14, "n {n}, κ {kappa}, j {j}");
                    }
                }
            }
            dft_planes(n, true, 1, len, &mut data);
            let back = split_runs(&x, len);
            let worst = data
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(worst < 1e-15 * n as f64, "n {n}: round trip off by {worst}");
        }
        // Small integers stay exact through the butterflies and `1/n`.
        for n in [2, 4] {
            let x: Vec<C64> = (0..n * len)
                .map(|i| c64(i as f64 - 9.0, 3.0 - (i % 5) as f64))
                .collect();
            let mut data = split_runs(&x, len);
            dft_planes(n, false, 1, len, &mut data);
            dft_planes(n, true, 1, len, &mut data);
            assert!(data == split_runs(&x, len), "n {n}");
        }
    }

    #[test]
    fn dft_blocks_is_dft_planes_on_blocks() {
        // The same numbers as blocks and as split runs take the same
        // transform, bit for bit, both ways.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let len = 5;
        for n in 1..=5 {
            let blocks = noise(3 * n * len, 40 + n as u64);
            for inverse in [false, true] {
                let mut runs = split_runs(&blocks, len);
                dft_planes(n, inverse, 1, len, &mut runs);
                let mut blocks = blocks.clone();
                dft_blocks(n, inverse, len, &mut blocks);
                assert!(bits(&runs) == bits(&split_runs(&blocks, len)), "n {n}");
            }
        }
    }
}
