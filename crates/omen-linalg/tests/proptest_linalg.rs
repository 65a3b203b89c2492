//! Property-based tests for the linear-algebra substrate.

use omen_linalg::*;
use proptest::prelude::*;

fn arb_c64() -> impl Strategy<Value = C64> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| c64(re, im))
}

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = CMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(arb_c64(), r * c)
            .prop_map(move |data| CMatrix::from_vec(r, c, data))
    })
}

fn arb_square(max_dim: usize) -> impl Strategy<Value = CMatrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(arb_c64(), n * n)
            .prop_map(move |data| CMatrix::from_vec(n, n, data))
    })
}

/// A well-conditioned square matrix: random + diagonal dominance.
fn arb_invertible(max_dim: usize) -> impl Strategy<Value = CMatrix> {
    arb_square(max_dim).prop_map(|m| {
        let n = m.rows();
        let mut out = m;
        for i in 0..n {
            // Diagonal dominance: row sums bounded by 10*n, so add margin.
            out[(i, i)] += c64(30.0 * n as f64, 5.0);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(a in arb_c64(), b in arb_c64(), z in arb_c64()) {
        // Commutativity and distributivity within fp tolerance.
        prop_assert!(((a + b) - (b + a)).abs() < 1e-12);
        prop_assert!(((a * b) - (b * a)).abs() < 1e-10);
        let lhs = z * (a + b);
        let rhs = z * a + z * b;
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn conj_is_ring_homomorphism(a in arb_c64(), b in arb_c64()) {
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-10);
        prop_assert!(((a + b).conj() - (a.conj() + b.conj())).abs() < 1e-12);
    }

    #[test]
    fn gemm_matches_naive(a in arb_matrix(6), b in arb_matrix(6)) {
        prop_assume!(a.cols() == b.rows());
        let got = matmul(&a, &b);
        let want = CMatrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a[(i, k)] * b[(k, j)]).sum()
        });
        prop_assert!(got.approx_eq(&want, 1e-9));
    }

    #[test]
    fn gemm_transpose_consistency(a in arb_matrix(5), b in arb_matrix(5)) {
        prop_assume!(a.cols() == b.rows());
        // (A B)^T == B^T A^T computed via the T paths.
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul_op(&b, Op::T, &a, Op::T);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
        // (A B)† == B† A† via the C paths.
        let lhs_h = matmul(&a, &b).adjoint();
        let rhs_h = matmul_op(&b, Op::C, &a, Op::C);
        prop_assert!(lhs_h.approx_eq(&rhs_h, 1e-9));
    }

    #[test]
    fn packed_gemm_matches_naive_all_ops(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        ops in (0usize..3, 0usize..3),
        coeffs in (arb_c64(), arb_c64()),
        seed in 0u64..1_000_000,
    ) {
        // The packed cache-blocked kernel must reproduce the retained naive
        // reference for every Op combination, non-square shapes, and
        // alpha/beta away from {0, 1}. Sizes straddle SMALL_DIM so both the
        // direct and the packed path are exercised.
        let to_op = |x: usize| [Op::N, Op::T, Op::C][x];
        let (op_a, op_b) = (to_op(ops.0), to_op(ops.1));
        let (alpha, beta) = coeffs;
        let fill = |r: usize, c: usize, s: u64| {
            CMatrix::from_fn(r, c, |i, j| {
                let t = (i * 31 + j * 17) as f64 + s as f64 * 1e-5;
                c64((t * 0.7).sin(), (t * 1.3).cos())
            })
        };
        let a = match op_a { Op::N => fill(m, k, seed), _ => fill(k, m, seed) };
        let b = match op_b { Op::N => fill(k, n, seed + 1), _ => fill(n, k, seed + 1) };
        let c0 = fill(m, n, seed + 2);
        let mut got = c0.clone();
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut got);
        let mut want = c0.clone();
        gemm_naive(alpha, &a, op_a, &b, op_b, beta, &mut want);
        // Tile reassociation vs. the naive order: bounded by a few ulps of
        // the accumulated magnitude (|alpha|·k·max|a|·max|b| + |beta·c|).
        let scale = alpha.abs() * k as f64 * a.max_abs() * b.max_abs()
            + beta.abs() * c0.max_abs();
        let tol = 4.0 * f64::EPSILON * scale.max(1.0);
        let dev = (&got - &want).max_abs();
        prop_assert!(dev <= tol, "({op_a:?},{op_b:?}) {m}x{n}x{k}: dev {dev:e} > tol {tol:e}");
    }

    #[test]
    fn into_variants_are_consistent(a in arb_matrix(20), b in arb_matrix(20), c in arb_matrix(20)) {
        prop_assume!(a.cols() == b.rows() && b.cols() == c.rows());
        let mut out = CMatrix::zeros(0, 0);
        matmul_into(&a, &b, &mut out);
        prop_assert!(out.approx_eq(&matmul(&a, &b), 0.0));
        let mut scratch = CMatrix::zeros(0, 0);
        matmul3_into(&a, &b, &c, &mut scratch, &mut out);
        prop_assert!(out.approx_eq(&matmul3(&a, &b, &c), 0.0));
        matmul_op_into(&b, Op::C, &a, Op::C, &mut out);
        prop_assert!(out.approx_eq(&matmul_op(&b, Op::C, &a, Op::C), 0.0));
    }

    #[test]
    fn workspace_invert_matches_lu(a in arb_invertible(10)) {
        let mut ws = Workspace::new();
        let mut inv = ws.take(a.rows(), a.rows());
        ws.invert_into(&a, &mut inv);
        prop_assert!(inv.approx_eq(&invert(&a), 1e-12));
        ws.give(inv);
    }

    #[test]
    fn lu_inverse_round_trip(a in arb_invertible(8)) {
        let inv = invert(&a);
        let eye = matmul(&a, &inv);
        prop_assert!(eye.approx_eq(&CMatrix::identity(a.rows()), 1e-7));
    }

    #[test]
    fn lu_solve_residual(a in arb_invertible(8)) {
        let n = a.rows();
        let b = CMatrix::from_fn(n, 3, |i, j| c64(i as f64 - j as f64, 1.0));
        let x = solve(&a, &b);
        let r = &matmul(&a, &x) - &b;
        prop_assert!(r.max_abs() < 1e-7, "residual {}", r.max_abs());
    }

    #[test]
    fn sparse_dense_round_trip(a in arb_matrix(8)) {
        let csr = CsrMatrix::from_dense(&a, 0.0);
        prop_assert!(csr.to_dense().approx_eq(&a, 0.0));
        let csc = csr.to_csc();
        prop_assert!(csc.to_dense().approx_eq(&a, 0.0));
    }

    #[test]
    fn csrmm_equals_gemm(a in arb_matrix(6), b in arb_matrix(6)) {
        prop_assume!(a.cols() == b.rows());
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let mut c = CMatrix::zeros(a.rows(), b.cols());
        csrmm(C64::ONE, &csr, Op::N, &b, C64::ZERO, &mut c);
        prop_assert!(c.approx_eq(&matmul(&a, &b), 1e-9));
    }

    #[test]
    fn gemmi_equals_gemm(a in arb_matrix(6), b in arb_matrix(6)) {
        prop_assume!(a.cols() == b.rows());
        let csc = CscMatrix::from_dense(&b, 0.0);
        let mut c = CMatrix::zeros(a.rows(), b.cols());
        gemmi(C64::ONE, &a, &csc, C64::ZERO, &mut c);
        prop_assert!(c.approx_eq(&matmul(&a, &b), 1e-9));
    }

    #[test]
    fn f16_round_trip_monotone(x in -60000.0f64..60000.0, y in -60000.0f64..60000.0) {
        // Rounding through f16 preserves (non-strict) order.
        let rx = half::round_through_f16(x);
        let ry = half::round_through_f16(y);
        if x <= y {
            prop_assert!(rx <= ry, "monotonicity violated: {x} -> {rx}, {y} -> {ry}");
        }
    }

    #[test]
    fn f16_relative_error_bound(x in 1e-4f64..6e4) {
        let r = half::round_through_f16(x);
        prop_assert!(((r - x) / x).abs() <= 2.0f64.powi(-11));
    }

    #[test]
    fn f16_clamp_always_finite(x in proptest::num::f64::NORMAL) {
        let h = F16::from_f64(half::clamp_to_f16_range(x));
        prop_assert!(!h.is_infinite());
        prop_assert!(!h.is_nan());
    }

    #[test]
    fn packed_sbsmm_matches_scalar(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        batch in 0usize..6,
        gaps in (0usize..3, 0usize..3, 0usize..3),
        shared in 0usize..3,
        coeffs in (arb_c64(), arb_c64()),
        seed in 0u64..1_000_000,
    ) {
        // The packed micro-kernel batch path must reproduce the retained
        // scalar loop for non-square dims, padded strides, any batch size,
        // and alpha/beta away from {0, 1}. `shared` optionally pins the A
        // or B stride to 0 (the transformed-kernel shapes).
        let dims = BatchDims { m, n, k };
        let (alpha, beta) = coeffs;
        let mut s = Strides {
            a: m * k + gaps.0,
            b: k * n + gaps.1,
            c: m * n + gaps.2,
        };
        if shared == 1 { s.a = 0; }
        if shared == 2 { s.b = 0; }
        let fill = |len: usize, tag: u64| -> Vec<C64> {
            (0..len)
                .map(|i| {
                    let t = i as f64 * 0.61 + (seed + tag) as f64 * 1e-4;
                    c64((t * 1.1).sin(), (t * 0.7).cos())
                })
                .collect()
        };
        let alen = if s.a == 0 { m * k } else { batch.max(1) * s.a };
        let blen = if s.b == 0 { k * n } else { batch.max(1) * s.b };
        let a = fill(alen, 1);
        let b = fill(blen, 2);
        let c0 = fill(batch.max(1) * s.c, 3);
        let mut got = c0.clone();
        let mut want = c0.clone();
        sbsmm(dims, batch, alpha, &a, &b, beta, &mut got, s);
        sbsmm_scalar(dims, batch, alpha, &a, &b, beta, &mut want, s);
        // Tile reassociation vs. the scalar order: a few ulps of the
        // accumulated magnitude.
        let amax = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let bmax = b.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let cmax = c0.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let scale = alpha.abs() * k as f64 * amax * bmax + beta.abs() * cmax;
        let tol = 8.0 * f64::EPSILON * scale.max(1.0);
        let dev = got
            .iter()
            .zip(&want)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        prop_assert!(dev <= tol, "{m}x{n}x{k} b{batch}: dev {dev:e} > tol {tol:e}");
    }

    #[test]
    fn planes_gemm_matches_gemm(
        m in 1usize..=16,
        n in 1usize..=16,
        k in 1usize..=16,
        lanes in 1usize..=9,
        conj in 0usize..2,
        pick in (0usize..2, 0usize..3),
        coeffs in (arb_c64(), arb_c64()),
        seed in 0u64..1_000_000,
        packed in (LANE_MAX_DIM + 1..=64, 17usize..=64, 17usize..=64),
        large in (17usize..=LANE_MAX_DIM, 17usize..=LANE_MAX_DIM, 17usize..=LANE_MAX_DIM, 1usize..=5),
    ) {
        // Every lane of the lane-block kernel against `gemm` on that lane's
        // blocks: vector steps and scalar tails (lanes 1–9), op(B) ∈ {N, C},
        // α ∈ {1, any} and β ∈ {0, 1, any}.
        let op_b = if conj == 1 { Op::C } else { Op::N };
        let alpha = if pick.0 == 0 { C64::ONE } else { coeffs.0 };
        let beta = [C64::ZERO, C64::ONE, coeffs.1][pick.1];
        let block = |r: usize, c: usize, lane: usize, tag: u64| {
            CMatrix::from_fn(r, c, |i, j| {
                let t = (i * 31 + j * 7 + lane * 101) as f64 * 0.37 + (seed + tag) as f64 * 1e-4;
                c64(t.sin(), (t * 0.7).cos())
            })
        };
        let b_shape = |k: usize, n: usize| if op_b == Op::C { (n, k) } else { (k, n) };

        // Blocks over LANE_MAX_DIM take one lane, whose lane block is the
        // `C64` layout: the packed `gemm`, bit for bit.
        let (pm, pn, pk) = packed;
        let (a1, c1) = (block(pm, pk, 0, 4), block(pm, pn, 0, 6));
        let (pbr, pbc) = b_shape(pk, pn);
        let b1 = block(pbr, pbc, 0, 5);
        let split = |x: &CMatrix| -> Vec<f64> {
            x.as_slice().iter().flat_map(|z| [z.re, z.im]).collect()
        };
        let mut got = split(&c1);
        planes_gemm(BatchDims { m: pm, n: pn, k: pk }, 1, alpha, &split(&a1), &split(&b1), op_b, beta, &mut got);
        let mut want = c1.clone();
        gemm(alpha, &a1, Op::N, &b1, op_b, beta, &mut want);
        let want: Vec<u64> = split(&want).iter().map(|x| x.to_bits()).collect();
        let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        prop_assert!(got == want, "{pm}x{pn}x{pk} {op_b:?}: one lane is not gemm's bits");

        // The lane kernel on every lane, against `gemm` on that lane's
        // blocks: to rounding on small blocks, and to 1e-12 of the scale
        // on blocks above the GEMM's SMALL_DIM.
        for ((m, n, k), lanes, rel) in [((m, n, k), lanes, 8.0 * f64::EPSILON), ((large.0, large.1, large.2), large.3, 1e-12)] {
        let (br, bc) = b_shape(k, n);
        let a: Vec<CMatrix> = (0..lanes).map(|e| block(m, k, e, 1)).collect();
        let b: Vec<CMatrix> = (0..lanes).map(|e| block(br, bc, e, 2)).collect();
        let c0: Vec<CMatrix> = (0..lanes).map(|e| block(m, n, e, 3)).collect();
        // Lane blocks: element x of lane e at re 2·x·lanes + e, im + lanes.
        let pack = |blocks: &[CMatrix]| -> Vec<f64> {
            let len = blocks[0].as_slice().len();
            let mut out = vec![0.0; 2 * len * lanes];
            for (e, blk) in blocks.iter().enumerate() {
                for (x, z) in blk.as_slice().iter().enumerate() {
                    out[2 * x * lanes + e] = z.re;
                    out[(2 * x + 1) * lanes + e] = z.im;
                }
            }
            out
        };
        let mut got = pack(&c0);
        planes_gemm(BatchDims { m, n, k }, lanes, alpha, &pack(&a), &pack(&b), op_b, beta, &mut got);
        let amax = a.iter().map(|x| x.max_abs()).fold(0.0, f64::max);
        let bmax = b.iter().map(|x| x.max_abs()).fold(0.0, f64::max);
        let cmax = c0.iter().map(|x| x.max_abs()).fold(0.0, f64::max);
        let scale = alpha.abs() * k as f64 * amax * bmax + beta.abs() * cmax;
        let tol = rel * scale.max(1.0);
        for e in 0..lanes {
            let mut want = c0[e].clone();
            gemm(alpha, &a[e], Op::N, &b[e], op_b, beta, &mut want);
            for (x, w) in want.as_slice().iter().enumerate() {
                let g = c64(got[2 * x * lanes + e], got[(2 * x + 1) * lanes + e]);
                prop_assert!(
                    (g - *w).abs() <= tol,
                    "{m}x{n}x{k} lane {e}/{lanes} {op_b:?}: {g} vs {w} (tol {tol:e})"
                );
            }
        }
        }
    }

    #[test]
    fn sbsmm_matches_gemm(batch in 1usize..5, n in 1usize..8) {
        let dims = BatchDims::square(n);
        let s = Strides::packed(dims);
        let mk = |seed: usize| -> Vec<C64> {
            (0..batch * n * n)
                .map(|i| c64(((i * 7 + seed) as f64).sin(), ((i * 3 + seed) as f64).cos()))
                .collect()
        };
        let a = mk(1);
        let b = mk(2);
        let mut c = vec![C64::ZERO; batch * s.c];
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s);
        for idx in 0..batch {
            let am = CMatrix::from_vec(n, n, a[idx * s.a..(idx + 1) * s.a].to_vec());
            let bm = CMatrix::from_vec(n, n, b[idx * s.b..(idx + 1) * s.b].to_vec());
            let cm = matmul(&am, &bm);
            let got = CMatrix::from_vec(n, n, c[idx * s.c..(idx + 1) * s.c].to_vec());
            prop_assert!(got.approx_eq(&cm, 1e-9));
        }
    }

    #[test]
    fn block_tridiag_dense_hermitian(nb in 1usize..5, bs in 1usize..4) {
        let mut m = BlockTriDiag::zeros(nb, bs);
        for b in 0..nb {
            m.diag[b] = CMatrix::from_fn(bs, bs, |i, j| c64((i + j + b) as f64, (i as f64) - (j as f64)));
            m.diag[b].hermitianize();
        }
        for b in 0..nb.saturating_sub(1) {
            m.upper[b] = CMatrix::from_fn(bs, bs, |i, j| c64(i as f64, j as f64 + b as f64));
            m.lower[b] = m.upper[b].adjoint();
        }
        prop_assert!(m.is_hermitian(1e-12));
        prop_assert!(m.to_dense().is_hermitian(1e-12));
    }
}
