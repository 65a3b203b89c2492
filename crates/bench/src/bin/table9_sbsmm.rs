//! Table 9: strided-batched small-matrix multiplication — padded
//! vendor-style batched GEMM vs the specialized SBSMM (scalar loop vs the
//! packed split-complex micro-kernel). The paper's Tensor-Core row has no
//! counterpart here: binary16 is a quantisation of the operands, not an
//! arithmetic rate of its own.
//!
//! The batch uses the transformed SSE kernel's stage-C shape: `12 × 12`
//! items, `A` strided (`Norb²`), `B` shared (stride `0`), accumulating
//! `C`. At `Norb = 3` and `4` it also times SSE stages A, C and D as the
//! leaves run them against block-at-a-time scalar loops. `--json` merges
//! machine-readable records into
//! `BENCH_kernels.json`; `--quick` shrinks the batch and reps for the CI
//! smoke run (the perf-regression gate compares the `_quick` records
//! against the committed baseline).
use omen_bench::{
    header, json_flag, quick_flag, row, timed_median, write_bench_json, BenchRecord,
    BENCH_JSON_PATH,
};
use omen_device::{DeviceConfig, DeviceStructure};
use omen_linalg::{
    sbsmm, sbsmm_padded, sbsmm_pb, sbsmm_scalar, BatchDims, PackedB, PlaneScratch, Strides, C64,
};
use omen_sse::stages::{grad_g, pi_pair, sigma_pair, EnergyWindow};
use omen_sse::testutil::{grad_g_scalar, pi_pair_scalar, sigma_pair_scalar, stream_of};
use omen_sse::SseProblem;

/// `n` operand values of GF-like magnitude.
fn mk(n: usize, seed: usize) -> Vec<C64> {
    (0..n)
        .map(|i| {
            omen_linalg::c64(
                ((i * 7 + seed) as f64).sin() * 1e-3,
                ((i * 3 + seed) as f64).cos() * 1e-3,
            )
        })
        .collect()
}

/// The `Norb = 3` rows: stages C and D of one directed pair at the
/// `sse_heavy` shape (`nk 4, ne 24, nq 4, nw 6`), the block-at-a-time
/// scalar loops against the energy-plane kernels the leaves run. Pack and
/// write-back are inside the timed region, as they are inside a solve.
fn norb3_rows(quick: bool, suffix: &str) -> Vec<BenchRecord> {
    let dev = DeviceStructure::build(DeviceConfig {
        norb: 3,
        ..DeviceConfig::tiny()
    });
    let prob = SseProblem::new(&dev, 4, 24, 4, 6, 1.0, 1.0);
    let win = EnergyWindow::full(prob.ne);
    let (norb, bsz) = (3, 9);
    let stream = 3 * prob.nk * prob.ne * bsz;
    let (hg_l, hg_g) = (mk(stream, 1), mk(stream, 2));
    let (hr_l, hr_g) = (mk(stream, 3), mk(stream, 4));
    // The leaves read the streams as stage A writes them.
    let [sg_l, sg_g, sr_l, sr_g] =
        [&hg_l, &hg_g, &hr_l, &hr_g].map(|s| stream_of(norb, prob.ne, s));
    let points = prob.nq * prob.nw;
    let (hd_l, hd_g) = (mk(3 * points * bsz, 5), mk(3 * points * bsz, 6));
    let mut out_l = vec![C64::ZERO; prob.nk * prob.ne * bsz];
    let mut out_g = out_l.clone();
    let mut scratch = PlaneScratch::default();
    // A solve sweeps hundreds of pairs per call; one timed sample is a few.
    let (pairs, reps) = if quick { (4, 5) } else { (32, 9) };

    let mut flops_c = 0;
    let t_planes = timed_median(reps, || {
        for _ in 0..pairs {
            flops_c = sigma_pair(
                &prob,
                &win,
                &sg_l,
                &sg_g,
                &hd_l,
                &hd_g,
                &mut scratch,
                &mut out_l,
                &mut out_g,
            );
        }
    });
    let t_scalar = timed_median(reps, || {
        for _ in 0..pairs {
            sigma_pair_scalar(
                &prob, &win, &hg_l, &hg_g, &hd_l, &hd_g, &mut out_l, &mut out_g,
            );
        }
    });
    let mut flops_d = 0;
    let mut sum = C64::ZERO;
    let t_dots = timed_median(reps, || {
        for _ in 0..pairs {
            flops_d = pi_pair(
                &prob,
                &win,
                &sr_l,
                &sr_g,
                &sg_l,
                &sg_g,
                &mut scratch,
                |_, _, c_l, c_g| sum += c_l[0] + c_g[8],
            );
        }
    });
    let t_trace = timed_median(reps, || {
        for _ in 0..pairs {
            for q in 0..prob.nq {
                for m in 0..prob.nw {
                    let (c_l, c_g) = pi_pair_scalar(&prob, q, m, &win, &hr_l, &hr_g, &hg_l, &hg_g);
                    sum += c_l[0] + c_g[8];
                }
            }
        }
    });
    std::hint::black_box(sum);

    // Batch sizes: block products of stage C (8·Norb³ flops each), block
    // traces of stage D (8·Norb²).
    let unit_c = BatchDims::square(norb).flops();
    let unit_d = 8 * bsz as u64;
    println!(
        "\nNorb = {norb} (sse_heavy shape, {pairs} pairs): stages C and D, scalar loop vs energy planes\n"
    );
    let w = [34, 12, 16, 12];
    header(&["Kernel", "Time [ms]", "Useful Gflop/s", "vs scalar"], &w);
    let mut records = Vec::new();
    for (label, name, t, flops, unit, base) in [
        (
            "stage C, sbsmm_scalar per run",
            "sbsmm_scalar_sseC",
            t_scalar,
            flops_c,
            unit_c,
            t_scalar,
        ),
        (
            "stage C, planes_mac (sigma_pair)",
            "sse_stageC_planes",
            t_planes,
            flops_c,
            unit_c,
            t_scalar,
        ),
        (
            "stage D, trace_product per block",
            "sse_stageD_scalar",
            t_trace,
            flops_d,
            unit_d,
            t_trace,
        ),
        (
            "stage D, planes_dots (pi_pair)",
            "sse_stageD_dots",
            t_dots,
            flops_d,
            unit_d,
            t_trace,
        ),
    ] {
        let gflops = (flops * pairs) as f64 / t / 1e9;
        row(
            &[
                label.into(),
                format!("{:.3}", t * 1e3),
                format!("{gflops:.2}"),
                format!("{:.2}x", base / t),
            ],
            &w,
        );
        records.push(BenchRecord {
            name: format!("{name}_{norb}x{norb}_b{}{suffix}", flops * pairs / unit),
            n: norb,
            median_ns: t * 1e9,
            gflops,
        });
    }
    println!("shape target: planes >= 2x the scalar loop on both stages");
    records
}

/// Stage A of `pairs` directed pairs, both sides, at `Norb = norb` on a
/// `[kz][E]` run of `nk × 24` blocks (`sse_heavy`'s `nk 4` at `3 × 3`,
/// `gf_heavy`'s `nk 1` at `4 × 4`): the parent's block-at-a-time `sbsmm`
/// loop against [`grad_g`], which packs `G` into planes once and writes
/// the `∇H·G` planes stages C and D read. The pack is inside the timed
/// region, as it is inside a solve.
fn stage_a_rows(norb: usize, nk: usize, quick: bool, suffix: &str) -> Vec<BenchRecord> {
    let dev = DeviceStructure::build(DeviceConfig {
        norb,
        ..DeviceConfig::tiny()
    });
    let grads = &dev.gradients.grads[0];
    let (ne, bsz) = (24, norb * norb);
    let (g_l, g_g) = (mk(nk * ne * bsz, 7), mk(nk * ne * bsz, 8));
    let mut blocks = vec![C64::ZERO; 3 * g_l.len()];
    let mut planes = vec![0.0; 2 * blocks.len()];
    let mut scratch = PlaneScratch::default();
    let (pairs, reps) = if quick { (16, 5) } else { (128, 9) };
    let t_scalar = timed_median(reps, || {
        for _ in 0..pairs {
            for g in [&g_l, &g_g] {
                grad_g_scalar(norb, grads, g, &mut blocks);
            }
        }
    });
    let t_planes = timed_median(reps, || {
        for _ in 0..pairs {
            for g in [&g_l, &g_g] {
                grad_g(norb, ne, grads, g, &mut scratch, &mut planes);
            }
        }
    });
    std::hint::black_box((&blocks, &planes));
    let products = (pairs * 2 * 3 * nk * ne) as u64;
    let flops = products * BatchDims::square(norb).flops();
    println!(
        "\nNorb = {norb} ({pairs} pairs, nk {nk}, ne {ne}): stage A, scalar loop vs energy planes\n"
    );
    let w = [34, 12, 16, 12];
    header(&["Kernel", "Time [ms]", "Useful Gflop/s", "vs scalar"], &w);
    let mut records = Vec::new();
    for (label, name, t) in [
        (
            "stage A, sbsmm per direction",
            "sse_stageA_scalar",
            t_scalar,
        ),
        (
            "stage A, planes_lmul (grad_g)",
            "sse_stageA_planes",
            t_planes,
        ),
    ] {
        let gflops = flops as f64 / t / 1e9;
        row(
            &[
                label.into(),
                format!("{:.3}", t * 1e3),
                format!("{gflops:.2}"),
                format!("{:.2}x", t_scalar / t),
            ],
            &w,
        );
        records.push(BenchRecord {
            name: format!("{name}_{norb}x{norb}_b{products}{suffix}"),
            n: norb,
            median_ns: t * 1e9,
            gflops,
        });
    }
    println!("shape target: planes >= 2x the scalar loop");
    records
}

fn main() {
    let quick = quick_flag();
    let suffix = if quick { "_quick" } else { "" };
    let norb = 12;
    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let batch = if quick { 512 } else { 4096 };
    let reps = if quick { 5 } else { 9 };
    println!(
        "Table 9: Strided Matrix Multiplication Performance ({norb}x{norb}, batch {batch}, SSE stage-C shape)\n"
    );
    // Stage-C strides: A per-item, B shared, C per-item (accumulating).
    let s = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let a = mk(batch * bsz, 1);
    let b = mk(bsz, 2);
    let mut c = vec![C64::ZERO; batch * bsz];
    let useful = dims.flops() as f64 * batch as f64;

    // Padded vendor stand-in needs per-item B; reuse the shared block.
    let b_full = mk(batch * bsz, 2);
    let s_full = Strides::packed(dims);
    let t_pad = timed_median(reps, || {
        sbsmm_padded(
            dims,
            batch,
            C64::ONE,
            &a,
            &b_full,
            C64::ZERO,
            &mut c,
            s_full,
            16,
        )
    });

    let t_scalar = timed_median(reps, || {
        sbsmm_scalar(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s)
    });
    let t_packed = timed_median(reps, || {
        sbsmm(dims, batch, C64::ONE, &a, &b, C64::ZERO, &mut c, s)
    });
    let mut pb = PackedB::empty();
    pb.pack(norb, norb, &b);
    let t_pb = timed_median(reps, || {
        sbsmm_pb(dims, batch, C64::ONE, &a, s.a, &pb, C64::ZERO, &mut c, s.c)
    });

    let w = [28, 12, 16, 12];
    header(&["Kernel", "Time [ms]", "Useful Gflop/s", "vs scalar"], &w);
    let entries: &[(&str, f64)] = &[
        ("padded batched (cuBLAS-like)", t_pad),
        ("SBSMM scalar (seed loop)", t_scalar),
        ("SBSMM packed micro-kernel", t_packed),
        ("SBSMM packed, prepacked B", t_pb),
    ];
    for (name, t) in entries {
        row(
            &[
                (*name).into(),
                format!("{:.3}", t * 1e3),
                format!("{:.2}", useful / t / 1e9),
                format!("{:.2}x", t_scalar / t),
            ],
            &w,
        );
    }
    println!(
        "\nuseful fraction of the padded kernel: {:.1}% (paper: ~6-7% useful on cuBLAS)",
        useful / omen_linalg::batched::padded_flops(16, batch) as f64 * 100.0
    );
    println!(
        "paper (V100): cuBLAS 4.62 ms vs SBSMM 0.70 ms (5.76x); Tensor-Core f16 0.13 ms (31x)"
    );
    println!(
        "f16: on this CPU binary16 is a quantisation of the operands (quantize_f16) with no \
         arithmetic rate of its own; Table 11 / Fig. 9 use omen-perf::scaling's modelled \
         sse_mixed rate"
    );
    println!("shape target: packed sbsmm >= 2x the scalar small_gemm loop on stage-C batches");

    let norb3 = norb3_rows(quick, suffix);
    let stage_a = [(3, 4), (4, 1)].map(|(norb, nk)| stage_a_rows(norb, nk, quick, suffix));

    if json_flag() {
        let rec = |name: &str, t: f64| BenchRecord {
            name: format!("{name}_{norb}x{norb}_b{batch}{suffix}"),
            n: norb,
            median_ns: t * 1e9,
            gflops: useful / t / 1e9,
        };
        let mut records = vec![
            rec("sbsmm_scalar_sseC", t_scalar),
            rec("sbsmm_packed_sseC", t_packed),
            rec("sbsmm_packed_pb_sseC", t_pb),
        ];
        records.extend(norb3);
        records.extend(stage_a.into_iter().flatten());
        write_bench_json(BENCH_JSON_PATH, &records).expect("write BENCH_kernels.json");
        println!("\nwrote {} records to {BENCH_JSON_PATH}", records.len());
    }
}
