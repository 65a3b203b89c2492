//! Microbenchmarks of the paper's kernel-level comparisons (Tables 6–10
//! counterparts), run with the harness-free timing utilities in
//! `omen_bench` (the build environment has no crates.io access, so the
//! criterion dependency is replaced by min-of-N wall-clock timing).
//!
//! Run with: `cargo bench --bench kernels`

use omen_bench::{header, rgf_like_blocks, row, timed_min};
use omen_linalg::{
    csrmm, gemm, gemmi, invert, sbsmm, sbsmm_padded, BatchDims, CMatrix, CscMatrix, CsrMatrix, Op,
    Strides, C64,
};
use omen_rgf::{rgf_solve, sancho_rubio_lanes, RgfInputs};
use omen_sse::testutil::{random_inputs, tiny_device, tiny_problem};
use omen_sse::{sse_reference, sse_transformed};
use std::hint::black_box;

const W: [usize; 2] = [28, 12];

fn report(group: &str, name: &str, reps: usize, mut f: impl FnMut()) {
    let secs = timed_min(reps, &mut f);
    row(&[format!("{group}/{name}"), format!("{:.3e}", secs)], &W);
}

/// Table 7: sparse-dense multiplication strategies.
fn bench_spmm() {
    let n = 192;
    let (sp, dn) = rgf_like_blocks(n, 0.06, 7);
    let csr = CsrMatrix::from_dense(&sp, 0.0);
    let csc = CscMatrix::from_dense(&sp, 0.0);
    let mut out = CMatrix::zeros(n, n);
    report("table7_spmm", "gemm_nn", 5, || {
        gemm(
            C64::ONE,
            black_box(&sp),
            Op::N,
            black_box(&dn),
            Op::N,
            C64::ZERO,
            &mut out,
        )
    });
    report("table7_spmm", "csrmm_nn", 5, || {
        csrmm(
            C64::ONE,
            black_box(&csr),
            Op::N,
            black_box(&dn),
            C64::ZERO,
            &mut out,
        )
    });
    report("table7_spmm", "csrmm_tn", 5, || {
        csrmm(
            C64::ONE,
            black_box(&csr),
            Op::T,
            black_box(&dn),
            C64::ZERO,
            &mut out,
        )
    });
    report("table7_spmm", "gemmi_nn", 5, || {
        gemmi(
            C64::ONE,
            black_box(&dn),
            black_box(&csc),
            C64::ZERO,
            &mut out,
        )
    });
}

/// Table 8: the three-matrix RGF product.
fn bench_threemat() {
    let n = 192;
    let (f_dense, gr) = rgf_like_blocks(n, 0.06, 11);
    let (e_dense, _) = rgf_like_blocks(n, 0.06, 23);
    let f_csr = CsrMatrix::from_dense(&f_dense, 0.0);
    let e_csr = CsrMatrix::from_dense(&e_dense, 0.0);
    let e_csc = CscMatrix::from_dense(&e_dense, 0.0);
    let mut t1 = CMatrix::zeros(n, n);
    let mut t2 = CMatrix::zeros(n, n);
    report("table8_threemat", "gemm_gemm", 5, || {
        gemm(C64::ONE, &f_dense, Op::N, &gr, Op::N, C64::ZERO, &mut t1);
        gemm(C64::ONE, &t1, Op::N, &e_dense, Op::N, C64::ZERO, &mut t2);
    });
    report("table8_threemat", "csrmm_gemmi", 5, || {
        csrmm(C64::ONE, &f_csr, Op::N, &gr, C64::ZERO, &mut t1);
        gemmi(C64::ONE, &t1, &e_csc, C64::ZERO, &mut t2);
    });
    report("table8_threemat", "csrmm_csrmm", 5, || {
        csrmm(C64::ONE, &f_csr, Op::N, &gr, C64::ZERO, &mut t1);
        csrmm(C64::ONE, &e_csr, Op::T, &t1, C64::ZERO, &mut t2);
    });
}

/// Table 9: specialized vs padded batched small-matrix multiply.
fn bench_sbsmm() {
    let dims = BatchDims::square(12);
    let s = Strides::packed(dims);
    let batch = 512;
    let a: Vec<C64> = (0..batch * s.a)
        .map(|i| omen_linalg::c64((i as f64).sin(), 0.3))
        .collect();
    let bm: Vec<C64> = (0..batch * s.b)
        .map(|i| omen_linalg::c64(0.1, (i as f64).cos()))
        .collect();
    let mut out = vec![C64::ZERO; batch * s.c];
    report("table9_sbsmm", "specialized", 5, || {
        sbsmm(
            dims,
            batch,
            C64::ONE,
            black_box(&a),
            black_box(&bm),
            C64::ZERO,
            &mut out,
            s,
        )
    });
    report("table9_sbsmm", "padded16", 5, || {
        sbsmm_padded(
            dims,
            batch,
            C64::ONE,
            black_box(&a),
            black_box(&bm),
            C64::ZERO,
            &mut out,
            s,
            16,
        )
    });
}

/// Table 10: the two SSE schedules.
fn bench_sse_phases() {
    let dev = tiny_device();
    let prob = tiny_problem(&dev);
    let (gl, gg, dl, dg) = random_inputs(&prob, 42);
    report("table10_sse", "reference", 3, || {
        black_box(sse_reference(&prob, black_box(&gl), &gg, &dl, &dg));
    });
    report("table10_sse", "transformed", 3, || {
        black_box(sse_transformed(&prob, black_box(&gl), &gg, &dl, &dg));
    });
}

/// Boundary solve: the Sancho–Rubio decimation of one lead.
fn bench_boundary() {
    let n = 48;
    let d = CMatrix::from_fn(n, n, |i, j| {
        if i == j {
            omen_linalg::c64(0.5, 1e-5)
        } else {
            omen_linalg::c64(-0.08, 0.0)
        }
    });
    let hop = CMatrix::from_fn(n, n, |i, j| {
        if i == j {
            omen_linalg::c64(-1.0, 0.0)
        } else {
            C64::ZERO
        }
    });
    let (mut gs, mut ws) = (vec![0.0; 2 * n * n], omen_linalg::Workspace::new());
    report("boundary", "sancho_rubio", 5, || {
        let lead = [black_box(&d), &hop, &hop];
        black_box(sancho_rubio_lanes(&[lead], 1e-12, 200, &mut gs, &mut ws));
    });
}

/// RGF vs dense inversion.
fn bench_rgf() {
    let nb = 10;
    let bs = 24;
    let mut m = omen_linalg::BlockTriDiag::zeros(nb, bs);
    for b in 0..nb {
        m.diag[b] = CMatrix::from_fn(bs, bs, |i, j| {
            if i == j {
                omen_linalg::c64(2.0, 0.01)
            } else {
                omen_linalg::c64(-0.3, 0.02)
            }
        });
    }
    for b in 0..nb - 1 {
        m.upper[b] = CMatrix::from_fn(bs, bs, |i, j| {
            if i == j {
                omen_linalg::c64(-0.8, 0.0)
            } else {
                C64::ZERO
            }
        });
        m.lower[b] = m.upper[b].adjoint();
    }
    let sl = vec![CMatrix::zeros(bs, bs); nb];
    let sg = vec![CMatrix::zeros(bs, bs); nb];
    report("rgf", "rgf_solve", 3, || {
        black_box(rgf_solve(&RgfInputs {
            m: black_box(&m),
            sigma_l: &sl,
            sigma_g: &sg,
        }));
    });
    report("rgf", "dense_invert", 3, || {
        black_box(invert(black_box(&m.to_dense())));
    });
}

fn main() {
    println!("kernel microbenchmarks (min-of-N wall clock)\n");
    header(&["benchmark", "min [s]"], &W);
    bench_spmm();
    bench_threemat();
    bench_sbsmm();
    bench_sse_phases();
    bench_boundary();
    bench_rgf();
}
