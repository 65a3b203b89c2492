//! RGF on energy-lane blocks: the one copy of the recursion, for a chunk
//! of consecutive energies of one momentum or for a single point.
//!
//! Every energy of a `k` has the same block structure, so the chunk's
//! `bs × bs` block products are one batch whose operands all differ — the
//! paper's §5.4 point (Table 9) about thousands of identically shaped
//! tiny products, applied to the GF phase: change the layout so the batch
//! is the SIMD axis. Each block of the recursion is held as a **lane
//! block**, split-complex `[element][re|im][lane]` with the elements
//! column-major, and every product is one [`planes_gemm`] over the chunk.
//! A one-lane block is `CMatrix`'s column-major `C64` layout, and
//! `omen-linalg` picks the kernel from the block size alone: the lane
//! kernel up to `LANE_MAX_DIM` (48, measured: the largest block size at
//! which one 4-lane call beats four packed GEMMs), the packed GEMM on one
//! lane above it (hence [`row_width`]). [`crate::rgf::rgf_solve_into`] is
//! [`rgf_row_into`] on one lane, and so is every point the GF solvers
//! solve; up to `LANE_MAX_DIM` that lane runs the lane kernel's scalar
//! lane.
//!
//! Block inverses are lane operations too: [`planes_invert`], a pivoted
//! LU that searches pivots and swaps rows per lane and is bitwise
//! `Workspace::invert_into` on every lane. Nothing of the
//! operator is staged: [`RowInputs`] assembles a block row's `M`, `Σ^R`
//! folding and `Σ^≷` when the sweep reaches it, and the backward sweep
//! hands each finished block row to a caller's closure instead of writing
//! a whole solution, so only rows `n` and `n + 1` of the output are ever
//! live. What persists across the two sweeps is the three left-connected
//! lane blocks per row.
//!
//! Within one dispatch instantiation a lane's arithmetic does not depend
//! on which other energies share its chunk ([`planes_gemm`]'s and
//! [`planes_invert`]'s contract, and every other step is per lane or
//! elementwise), so a row solve is bitwise reproducible under any split
//! of the energy axis into chunks.
//!
//! # What one block row costs
//!
//! [`rgf_row_into`] counts `8·bs³` per `bs × bs` block product and
//! [`lu_flops`]`(bs, bs)` per block inverse, pinned by a test to
//! `8·(23·bnum − 19)·bs³ + bnum·lu_flops(bs, bs)` per lane: 23 products
//! per block row, 6 fewer on the first forward row and none backward on
//! the last. Each product, what it produces and who reads it (`g≷` is
//! the left-connected `g≷[n]`, `gL` is `gL[n]`):
//!
//! | sweep | products | produces | read by |
//! |---|---|---|---|
//! | forward, `n > 0` | 2: `L·gL[n−1]·U` | the Schur term folded into `M[n][n]` before `gL[n] = M⁻¹` | every later step |
//! | forward | 2 + 2 (`n > 0`), per `≷`: `L·g≷[n−1]·L†`, `gL·Σ≷·gL†` | `g≷[n]` | the backward `≷` steps |
//! | backward | 1: `gu = gL·U` | `gu` | `G^R[n][n+1]`; `Y` and `T1` of both `≷` steps |
//! | backward | 1: `−gu·G^R[n+1][n+1]` | `G^R[n][n+1]` | `t` |
//! | backward | 1: `t = G^R[n][n+1]·L` | `t` | `G^R[n][n]`; `T3` of both `≷` steps |
//! | backward | 1: `t·gL` | `G^R[n][n] = gL − t·gL` | the next row's steps; phonon spectral function |
//! | backward | 1: `grL = G^R[n+1][n+1]·L` | `grL` | `X` of both `≷` steps |
//! | backward | 1, per `≷`: `X = grL·g≷` | `X` | `G≷[n+1][n]` |
//! | backward | 1, per `≷`: `Y = G≷[n+1]·gu†` | `Y` | `G≷[n+1][n]`, `T1` |
//! | backward | 1, per `≷`: `T3 = −t·g≷` | `T3` | `G≷[n][n]` |
//! | backward | 1, per `≷`: `T1 = gu·Y` | `T1` | `G≷[n][n]` |
//!
//! Then `G≷[n][n] = g≷ + T1 + T3 − T3†` (the adjoint keeps it
//! anti-Hermitian) feeds the per-atom `G≷`/`D≷` blocks (SSE input),
//! densities and contact currents, and `G≷[n+1][n] = −(X + Y)` the
//! interface currents (`G^<` with `M[n][n+1]`) and the cross-slab phonon
//! pair blocks. `G^R[n+1][n]` is not formed: nothing reads it.
//!
//! So 10 forward and 13 backward per row. The paper's §6.1.1 model
//! ([`crate::rgf_flops_model`]) counts 26: the products alone are
//! `(23·bnum − 19)/(26·bnum − 25)` = 0.90–0.91 of it at `bnum` 6–12, and
//! 0.95–0.97 with the inverse term. Sharing `gu`, `t` and `grL` keeps the
//! `G^R` blocks' association, `(gL·U)·G^R[n+1][n+1]` and
//! `(G^R[n][n+1]·L)·gL`; the `≷` step reads `T1 = gu·(G≷[n+1]·gu†)`
//! instead of `((gu·G≷[n+1])·U†)·gL†`, which rounds differently (1e-13).

use crate::rgf::RgfInputs;
use omen_linalg::lu::lu_flops;
use omen_linalg::{c64, planes_invert, C64, LANES, LANE_MAX_DIM};
use omen_linalg::{count_fused_run, gemm_flops, planes_gemm, BatchDims, CMatrix, Op, Workspace};

/// Energies one row solve advances together for blocks of size `bs`: one
/// SIMD vector of lanes where the lane kernel runs (`bs ≤ LANE_MAX_DIM`),
/// else one — larger blocks run the packed GEMM, one lane at a time. Also
/// how the solvers tell the two apart: a lane-kernel run reports itself
/// as one fused run, a packed product as one GEMM call.
pub fn row_width(bs: usize) -> usize {
    if bs <= LANE_MAX_DIM {
        LANES
    } else {
        1
    }
}

/// What a row solve reads, block row by block row, for each lane (one
/// energy) of its chunk.
pub trait RowInputs {
    /// Energies in the chunk.
    fn lanes(&self) -> usize;
    /// Block rows (`bnum`).
    fn num_blocks(&self) -> usize;
    /// Block size.
    fn block_size(&self) -> usize;
    /// Block row `n` of lane `e`: `M[n][n]` with every retarded
    /// self-energy folded in, and `Σ^<[n]`, `Σ^>[n]` (boundary plus
    /// scattering).
    fn row(&mut self, e: usize, n: usize, diag: &mut CMatrix, sl: &mut CMatrix, sg: &mut CMatrix);
    /// `M[n][n+1]` and `M[n+1][n]` of lane `e`.
    fn coupling(&mut self, e: usize, n: usize, upper: &mut CMatrix, lower: &mut CMatrix);
}

/// One staged point per lane.
impl RowInputs for [RgfInputs<'_>] {
    fn lanes(&self) -> usize {
        self.len()
    }

    fn num_blocks(&self) -> usize {
        self[0].m.num_blocks()
    }

    fn block_size(&self) -> usize {
        self[0].m.block_size()
    }

    fn row(&mut self, e: usize, n: usize, diag: &mut CMatrix, sl: &mut CMatrix, sg: &mut CMatrix) {
        let inp = &self[e];
        diag.copy_from(&inp.m.diag[n]);
        sl.copy_from(&inp.sigma_l[n]);
        sg.copy_from(&inp.sigma_g[n]);
    }

    fn coupling(&mut self, e: usize, n: usize, upper: &mut CMatrix, lower: &mut CMatrix) {
        upper.copy_from(&self[e].m.upper[n]);
        lower.copy_from(&self[e].m.lower[n]);
    }
}

/// The blocks coupling a finished row `n` to row `n + 1`.
pub struct RgfCoupling<'a> {
    /// `M[n][n+1]` (the interface current reads it with `G^<[n+1][n]`).
    pub upper: &'a CMatrix,
    /// `G^R[n][n+1]`.
    pub gr_upper: &'a CMatrix,
    /// `G^<[n+1][n]`.
    pub gl_lower: &'a CMatrix,
    /// `G^>[n+1][n]`.
    pub gg_lower: &'a CMatrix,
}

/// Block row `n` of one point's solution as the backward sweep finishes
/// it: rows arrive from `bnum − 1` down to 0.
pub struct RgfRow<'a> {
    /// Block row index.
    pub n: usize,
    /// `G^R[n][n]`.
    pub gr_diag: &'a CMatrix,
    /// `G^<[n][n]`.
    pub gl_diag: &'a CMatrix,
    /// `G^>[n][n]`.
    pub gg_diag: &'a CMatrix,
    /// The coupling to row `n + 1`; `None` on the last row.
    pub coupling: Option<RgfCoupling<'a>>,
}

/// Shape of one chunk's lane blocks.
#[derive(Clone, Copy)]
pub(crate) struct Lanes {
    pub(crate) bs: usize,
    pub(crate) lanes: usize,
    /// `f64`s per lane block.
    pub(crate) len: usize,
}

impl Lanes {
    /// `lanes` lanes of `bs × bs` blocks.
    pub(crate) fn new(bs: usize, lanes: usize) -> Self {
        Lanes {
            bs,
            lanes,
            len: 2 * bs * bs * lanes,
        }
    }

    /// `c = a·op(b) + β·c` on every lane.
    fn mul(&self, a: &[f64], b: &[f64], op_b: Op, beta: C64, c: &mut [f64]) {
        let dims = BatchDims::square(self.bs);
        planes_gemm(dims, self.lanes, C64::ONE, a, b, op_b, beta, c);
    }

    /// `c = a·b` on every lane.
    pub(crate) fn mm(&self, a: &[f64], b: &[f64], c: &mut [f64]) {
        self.mul(a, b, Op::N, C64::ZERO, c);
    }

    /// `c = a·b†` on every lane.
    fn mm_c(&self, a: &[f64], b: &[f64], c: &mut [f64]) {
        self.mul(a, b, Op::C, C64::ZERO, c);
    }

    /// Writes `m` into lane `e` of `dst`.
    pub(crate) fn pack(&self, m: &CMatrix, e: usize, dst: &mut [f64]) {
        let l = self.lanes;
        for (x, z) in m.as_slice().iter().enumerate() {
            (dst[2 * x * l + e], dst[(2 * x + 1) * l + e]) = (z.re, z.im);
        }
    }

    /// Reads lane `e` of `src` into `m`.
    pub(crate) fn unpack(&self, src: &[f64], e: usize, m: &mut CMatrix) {
        let l = self.lanes;
        m.resize_for_overwrite(self.bs, self.bs);
        for (x, z) in m.as_mut_slice().iter_mut().enumerate() {
            (z.re, z.im) = (src[2 * x * l + e], src[(2 * x + 1) * l + e]);
        }
    }

    /// Whether lane `e` of `src` has [`CMatrix::max_abs`] `< tol` (for
    /// `tol > 0`), stopping at the first element that says no.
    pub(crate) fn below(&self, src: &[f64], e: usize, tol: f64) -> bool {
        let l = self.lanes;
        (0..self.bs * self.bs)
            .all(|x| below(c64(src[2 * x * l + e], src[(2 * x + 1) * l + e]), tol))
    }

    /// Keeps lanes `keep` (ascending) of `block`, a lane block of this
    /// shape, in place: its front becomes a `keep.len()`-lane block. Every
    /// value moves to a lower or equal offset, so a forward walk never
    /// overwrites one it has yet to read.
    pub(crate) fn retain(&self, keep: &[usize], block: &mut [f64]) {
        let (l, k) = (self.lanes, keep.len());
        for p in 0..2 * self.bs * self.bs {
            for (to, &from) in keep.iter().enumerate() {
                block[p * k + to] = block[p * l + from];
            }
        }
    }

    /// `dst = src†` on every lane.
    fn adjoint(&self, src: &[f64], dst: &mut [f64]) {
        let (bs, l) = (self.bs, self.lanes);
        for j in 0..bs {
            for i in 0..bs {
                let (s, d) = (2 * (j * bs + i) * l, 2 * (i * bs + j) * l);
                dst[d..d + l].copy_from_slice(&src[s..s + l]);
                for (d, s) in dst[d + l..d + 2 * l].iter_mut().zip(&src[s + l..s + 2 * l]) {
                    *d = -s;
                }
            }
        }
    }
}

fn add(dst: &mut [f64], src: &[f64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d += s);
}

/// `|z| < tol` as `max_abs` decides it: a NaN, which `f64::max` skips,
/// passes.
fn below(z: C64, tol: f64) -> bool {
    let r = z.abs();
    r < tol || r.is_nan()
}

pub(crate) fn sub(dst: &mut [f64], src: &[f64]) {
    dst.iter_mut().zip(src).for_each(|(d, s)| *d -= s);
}

fn neg(dst: &mut [f64]) {
    dst.iter_mut().for_each(|d| *d = -*d);
}

/// Lane block `n` of a run of blocks.
fn at(run: &[f64], n: usize, len: usize) -> &[f64] {
    &run[n * len..(n + 1) * len]
}

/// Left-connected lesser/greater lane block, `sigma` consumed:
/// `out = gL (Σ≷ + L g≷_prev L†) gL†` (the `prev` term only for `n > 0`).
fn left_connected_lg(
    s: &Lanes,
    sigma: &mut [f64],
    prev: Option<(&[f64], &[f64])>, // (L[n−1], g≷_left[n−1])
    g: &[f64],
    [t1, t2]: [&mut [f64]; 2],
    out: &mut [f64],
) -> u64 {
    let mut products = 2;
    if let Some((l, p)) = prev {
        s.mm(l, p, t1);
        s.mm_c(t1, l, t2);
        add(sigma, t2);
        products += 2;
    }
    s.mm(g, sigma, t1);
    s.mm_c(t1, g, out);
    products
}

/// Unpacks block row `n` of every lane and hands it to `emit`.
fn emit_row(
    s: &Lanes,
    mats: &mut [CMatrix; 7],
    n: usize,
    diag: [&[f64]; 3],
    coupling: Option<[&[f64]; 4]>,
    emit: &mut impl FnMut(usize, &RgfRow<'_>),
) {
    let [gr, gl, gg, upper, gr_upper, gl_lower, gg_lower] = mats;
    for e in 0..s.lanes {
        for (src, m) in diag.iter().zip([&mut *gr, &mut *gl, &mut *gg]) {
            s.unpack(src, e, m);
        }
        if let Some(c) = &coupling {
            let to = [&mut *upper, &mut *gr_upper, &mut *gl_lower, &mut *gg_lower];
            for (src, m) in c.iter().zip(to) {
                s.unpack(src, e, m);
            }
        }
        let coupling = coupling.is_some().then_some(RgfCoupling {
            upper,
            gr_upper,
            gl_lower,
            gg_lower,
        });
        let row = RgfRow {
            n,
            gr_diag: gr,
            gl_diag: gl,
            gg_diag: gg,
            coupling,
        };
        emit(e, &row);
    }
}

/// Solves every lane of `inp` with RGF on lane blocks, handing each
/// finished block row of lane `e` to `emit(e, row)` — rows `bnum − 1`
/// down to 0, lanes in order within a row. Returns the flops each lane
/// performed. Blocks over `LANE_MAX_DIM` take one lane ([`row_width`]).
///
/// Scratch — one plane buffer of `(3·bnum + 20)` lane blocks, the lane
/// inverse's factors and pivots, and a few `bs × bs` matrices — comes
/// from `ws`, so a warm workspace makes the solve allocation-free. On the lane kernel the block products report
/// to the trace as one fused run ([`count_fused_run`]); a packed product
/// counts itself as a GEMM call.
pub fn rgf_row_into<I: RowInputs + ?Sized>(
    inp: &mut I,
    ws: &mut Workspace,
    mut emit: impl FnMut(usize, &RgfRow<'_>),
) -> u64 {
    let (nb, bs, lanes) = (inp.num_blocks(), inp.block_size(), inp.lanes());
    let s = Lanes::new(bs, lanes);
    let len = s.len;
    let g3 = gemm_flops(bs, bs, bs);
    let (mut products, mut inverses) = (0u64, 0u64);

    let mut buf = ws.take_planes((3 * nb + 20) * len);
    let (left, scratch) = buf.split_at_mut(3 * nb * len);
    let (g_left, rest) = left.split_at_mut(nb * len);
    let (gl_left, gg_left) = rest.split_at_mut(nb * len);
    let mut blocks = scratch.chunks_exact_mut(len);
    let mut next = || blocks.next().expect("20 scratch lane blocks");
    let [t1, t2, eff, sl, sg, up, lo] = std::array::from_fn::<_, 7, _>(|_| next());
    let [gu, t, grl, y] = std::array::from_fn::<_, 4, _>(|_| next());
    let [mut grd, mut dl, mut dg, mut gr_next, mut gl_next, mut gg_next] =
        std::array::from_fn::<_, 6, _>(|_| next());
    let [gr_upper, gl_lower, gg_lower] = std::array::from_fn::<_, 3, _>(|_| next());
    let mut mats: [CMatrix; 7] = std::array::from_fn(|_| ws.take(bs, bs));

    // ---------- forward sweep: left-connected quantities ----------
    for n in 0..nb {
        for e in 0..lanes {
            let [a, b, c, ..] = &mut mats;
            inp.row(e, n, a, b, c);
            s.pack(a, e, eff);
            s.pack(b, e, sl);
            s.pack(c, e, sg);
            if n > 0 {
                inp.coupling(e, n - 1, a, b);
                s.pack(a, e, up);
                s.pack(b, e, lo);
            }
        }
        if n > 0 {
            // M[n][n] − L[n−1] · gL[n−1] · U[n−1]
            s.mm(lo, at(g_left, n - 1, len), t1);
            s.mm(t1, up, t2);
            products += 2;
            sub(eff, t2);
        }
        planes_invert(bs, lanes, eff, &mut g_left[n * len..(n + 1) * len], ws);
        inverses += 1;
        let g = at(g_left, n, len);
        for (sigma, run) in [(&mut *sl, &mut *gl_left), (&mut *sg, &mut *gg_left)] {
            let (before, from_n) = run.split_at_mut(n * len);
            let prev = (n > 0).then(|| (&*lo, at(before, n - 1, len)));
            let out = &mut from_n[..len];
            products += left_connected_lg(&s, sigma, prev, g, [&mut *t1, &mut *t2], out);
        }
    }

    // ---------- backward sweep: fully-connected blocks ----------
    gr_next.copy_from_slice(at(g_left, nb - 1, len));
    gl_next.copy_from_slice(at(gl_left, nb - 1, len));
    gg_next.copy_from_slice(at(gg_left, nb - 1, len));
    emit_row(
        &s,
        &mut mats,
        nb - 1,
        [gr_next, gl_next, gg_next],
        None,
        &mut emit,
    );

    for n in (0..nb.saturating_sub(1)).rev() {
        for e in 0..lanes {
            let [a, b, ..] = &mut mats;
            inp.coupling(e, n, a, b);
            s.pack(a, e, up);
            s.pack(b, e, lo);
        }
        let gl_n = at(g_left, n, len);

        // G^R[n][n+1] = −gu·G^R[n+1][n+1] with gu = gL[n]·U.
        s.mm(gl_n, up, gu);
        s.mm(gu, gr_next, gr_upper);
        neg(gr_upper);
        // G^R[n][n] = gL[n] − t·gL[n] with t = G^R[n][n+1]·L.
        s.mm(gr_upper, lo, t);
        grd.copy_from_slice(gl_n);
        s.mm(t, gl_n, t1);
        sub(grd, t1);
        s.mm(gr_next, lo, grl);
        products += 5;

        // Per ≷, with X = grL·g≷, Y = G≷[n+1]·gu†, T1 = gu·Y, T3 = −t·g≷:
        // G≷[n][n] = g≷ + T1 + T3 − T3† and G≷[n+1][n] = −(X + Y).
        for (g_less_next, g_less_left, diag, lower) in [
            (&*gl_next, at(gl_left, n, len), &mut *dl, &mut *gl_lower),
            (&*gg_next, at(gg_left, n, len), &mut *dg, &mut *gg_lower),
        ] {
            s.mm_c(g_less_next, gu, y);
            s.mm(grl, g_less_left, lower);
            add(lower, y);
            neg(lower);
            s.mm(gu, y, t1);
            diag.copy_from_slice(g_less_left);
            add(diag, t1);
            // y = −T3, then t1 = −T3†.
            s.mm(t, g_less_left, y);
            sub(diag, y);
            s.adjoint(y, t1);
            add(diag, t1);
            products += 4;
        }
        let coupling = [&*up, gr_upper, gl_lower, gg_lower];
        emit_row(&s, &mut mats, n, [grd, dl, dg], Some(coupling), &mut emit);
        // Row n is the next step's row n + 1.
        std::mem::swap(&mut grd, &mut gr_next);
        std::mem::swap(&mut dl, &mut gl_next);
        std::mem::swap(&mut dg, &mut gg_next);
    }

    for m in mats {
        ws.give(m);
    }
    ws.give_planes(buf);
    if row_width(bs) > 1 {
        count_fused_run(products * g3 * lanes as u64);
    }
    products * g3 + inverses * lu_flops(bs, bs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_ref::dense_solve;
    use crate::rgf::RgfSolution;
    use crate::testutil::test_lanes;
    use omen_linalg::BlockTriDiag;

    type System = (BlockTriDiag, Vec<CMatrix>, Vec<CMatrix>);

    /// Solves `systems` as consecutive chunks of the given widths and
    /// rebuilds each lane's rows into a whole solution (`flops` set).
    fn solve_chunked(systems: &[System], widths: &[usize]) -> Vec<RgfSolution> {
        let (nb, bs) = (systems[0].0.num_blocks(), systems[0].0.block_size());
        let mut sols: Vec<RgfSolution> = (0..systems.len())
            .map(|_| {
                let mut sol = RgfSolution::empty();
                sol.shape(nb, bs);
                sol
            })
            .collect();
        let mut ws = Workspace::new();
        let mut start = 0;
        for &w in widths {
            let mut inputs: Vec<RgfInputs> = systems[start..start + w]
                .iter()
                .map(|(m, sl, sg)| RgfInputs {
                    m,
                    sigma_l: sl,
                    sigma_g: sg,
                })
                .collect();
            let chunk = &mut sols[start..start + w];
            let mut next_row = vec![nb; w];
            let flops = rgf_row_into(&mut inputs[..], &mut ws, |e, row| {
                assert_eq!(row.n + 1, next_row[e], "rows arrive bottom-up");
                next_row[e] = row.n;
                assert_eq!(row.coupling.is_some(), row.n + 1 < nb);
                if let Some(c) = &row.coupling {
                    assert_eq!(c.upper, &systems[start + e].0.upper[row.n]);
                }
                chunk[e].put(row);
            });
            assert_eq!(next_row, vec![0; w], "every row of every lane");
            chunk.iter_mut().for_each(|s| s.flops = flops);
            start += w;
        }
        assert_eq!(start, systems.len());
        sols
    }

    fn blocks(s: &RgfSolution) -> impl Iterator<Item = &CMatrix> {
        s.gr_diag
            .iter()
            .chain(&s.gl_diag)
            .chain(&s.gg_diag)
            .chain(&s.gr_upper)
            .chain(&s.gl_lower)
            .chain(&s.gg_lower)
    }

    #[test]
    fn row_solve_matches_dense_on_every_lane() {
        // Vector steps and scalar tails, one block row and several, odd
        // and full-tile block sizes up to LANE_MAX_DIM (single lanes are
        // the scalar lane), one lane of blocks over it (the packed GEMM),
        // and the shapes of `gf_heavy` (nb 12, 32 × 32 on 4 lanes) and
        // `sse_heavy` (nb 8, 12 × 12 on 4 lanes).
        for (nb, bs, lanes) in [
            (1, 4, 3),
            (2, 3, 5),
            (5, 12, 4),
            (4, 16, 6),
            (3, 7, 9),
            (3, 17, 1),
            (2, 24, 1),
            (12, 32, 1),
            (8, 12, 4),
            (12, 32, 4),
            (6, 24, 5),
            (2, LANE_MAX_DIM + 1, 1),
        ] {
            let systems = test_lanes(nb, bs, 0.23, lanes);
            let rows = solve_chunked(&systems, &[lanes]);
            let (n, b3) = (nb as u64, (bs as u64).pow(3));
            let want_flops = 8 * (23 * n - 19) * b3 + n * lu_flops(bs, bs);
            for (e, ((m, sl, sg), got)) in systems.iter().zip(&rows).enumerate() {
                assert_eq!(got.flops, want_flops, "nb {nb} bs {bs}: flops per lane");
                let dense = dense_solve(m, sl, sg);
                let dev = got.max_deviation_from_dense(&dense, bs);
                assert!(
                    dev < 1e-9,
                    "nb {nb} bs {bs} lane {e}: dense deviation {dev:e}"
                );
            }
        }
    }

    #[test]
    fn row_solve_is_bitwise_under_every_chunking() {
        let systems = test_lanes(4, 6, 0.71, 7);
        let whole = solve_chunked(&systems, &[7]);
        for widths in [
            &[1, 1, 1, 1, 1, 1, 1][..],
            &[3, 4],
            &[4, 3],
            &[5, 2],
            &[2, 4, 1],
        ] {
            let split = solve_chunked(&systems, widths);
            for (e, (a, b)) in whole.iter().zip(&split).enumerate() {
                for (x, y) in blocks(a).zip(blocks(b)) {
                    assert_eq!(x.as_slice(), y.as_slice(), "chunks {widths:?}, lane {e}");
                }
            }
        }
    }

    #[test]
    fn row_width_is_one_vector_on_lane_kernel_blocks() {
        assert_eq!(row_width(12), LANES);
        assert_eq!(row_width(32), LANES);
        assert_eq!(row_width(LANE_MAX_DIM), LANES);
        assert_eq!(row_width(LANE_MAX_DIM + 1), 1);
    }
}
