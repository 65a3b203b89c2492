//! One-point RGF solve throughput: the warm-workspace allocation-free
//! path (`rgf_solve_into`, the recursion on one lane) vs the cold
//! allocating wrapper (`rgf_solve`), and — on blocks the lane kernel
//! takes — the same recursion (`rgf_row_into`) on one SIMD vector of
//! energies. A last leg times the boundary decimation the same two ways:
//! one lead at a time (`surface_gf_ws`, a one-lead `sancho_rubio_lanes`)
//! against one SIMD vector of leads, on the first block row of the same
//! lanes. There is one copy of each algorithm, so the point/row records
//! measure 1 lane against 4 of the same code.
//!
//! This is the per-`(kz, E)` unit of work the GF phase repeats thousands
//! of times per Born iteration; the warm/cold gap is what the `Workspace`
//! arena buys, the row/warm gap what energy lanes buy. `--json` records
//! all of them into `BENCH_kernels.json` (`_quick` suffix under
//! `--quick`, which shrinks the systems for the CI smoke run). The row
//! leg solves `test_system` once per lane with the lane's energy shifted
//! (`testutil::test_lanes`); its record holds the time per point.
//!
//! Two kernel legs close the run, 4 lanes against 4 one-lane calls of the
//! same work, time per lane: the lane GEMM (`lane_gemm`, what
//! `planes_gemm` runs up to `LANE_MAX_DIM`) against `gemm`'s packed path
//! at 24–64 — the records that set `LANE_MAX_DIM` — and the lane inverse
//! (`planes_invert`) against `Workspace::invert_into` at 12 and 32.
use omen_bench::{
    header, json_flag, quick_flag, row, timed_median, write_bench_json, BenchRecord,
    BENCH_JSON_PATH,
};
use omen_linalg::lu::lu_flops;
use omen_linalg::{gemm, gemm_flops, lane_gemm, planes_invert, BatchDims, CMatrix, Op, Workspace};
use omen_linalg::{C64, LANES};
use omen_rgf::testutil::{test_lanes, test_system};
use omen_rgf::{
    rgf_row_into, rgf_solve, rgf_solve_into, row_width, sancho_rubio_lanes, surface_gf_ws,
    BoundaryMethod, RgfInputs, RgfSolution,
};

/// Products per decimation step (`omen_rgf::boundary`).
const SR_PRODUCTS: u64 = 6;

fn main() {
    let quick = quick_flag();
    let suffix = if quick { "_quick" } else { "" };
    // Two regimes: small blocks where per-solve allocation is a visible
    // fraction of the work, and GEMM-bound blocks at executable scale,
    // among them `gf_heavy`'s point (nb 12 of 32 × 32).
    let configs: &[(&str, usize, usize, usize)] = if quick {
        &[
            ("small", 24, 12, 5),
            ("large", 8, 24, 3),
            ("large", 12, 24, 3),
            ("large", 12, 32, 3),
            ("gf", 12, 32, 5),
        ]
    } else {
        &[
            ("small", 64, 12, 15),
            ("large", 24, 48, 7),
            ("large", 12, 24, 15),
            ("large", 12, 32, 15),
            ("gf", 12, 32, 15),
        ]
    };
    let mut records = Vec::new();
    for &(tag, nb, bs, reps) in configs {
        println!("RGF per-point solve [{tag}] (nb = {nb} blocks of {bs}x{bs})\n");

        let (m, sl, sg) = test_system(nb, bs, 0.11);
        let inputs = RgfInputs {
            m: &m,
            sigma_l: &sl,
            sigma_g: &sg,
        };

        // Warm path: workspace + output buffers reused across solves.
        let mut ws = Workspace::new();
        let mut sol = RgfSolution::empty();
        rgf_solve_into(&inputs, &mut ws, &mut sol); // warmup
        let flops = sol.flops as f64;
        let t_warm = timed_median(reps, || {
            rgf_solve_into(&inputs, &mut ws, &mut sol);
        });

        // Cold path: every solve allocates scratch and output from scratch.
        let t_cold = timed_median(reps, || {
            std::hint::black_box(rgf_solve(&inputs));
        });

        // Row path: one SIMD vector of energy lanes, warm workspace; time
        // per point.
        let lanes = row_width(bs);
        let t_row = (lanes > 1).then(|| {
            let systems = test_lanes(nb, bs, 0.11, lanes);
            let mut chunk: Vec<RgfInputs> = systems
                .iter()
                .map(|(m, sl, sg)| RgfInputs {
                    m,
                    sigma_l: sl,
                    sigma_g: sg,
                })
                .collect();
            let mut solve = || {
                let lane_flops = rgf_row_into(&mut chunk[..], &mut ws, |_, row| {
                    std::hint::black_box(row.n);
                });
                assert_eq!(
                    lane_flops as f64, flops,
                    "per-lane flops are per-point flops"
                );
            };
            solve(); // warmup
            timed_median(reps, solve) / lanes as f64
        });

        let w = [30, 14, 12, 10];
        header(&["Path", "Time/point [ms]", "GFLOP/s", "vs cold"], &w);
        let paths = [
            Some(("rgf_solve_into (warm)", t_warm)),
            Some(("rgf_solve (cold)", t_cold)),
            t_row.map(|t| ("rgf_row_into (warm, lanes)", t)),
        ];
        for (name, t) in paths.into_iter().flatten() {
            row(
                &[
                    name.into(),
                    format!("{:.3}", t * 1e3),
                    format!("{:.2}", flops / t / 1e9),
                    format!("{:.2}x", t_cold / t),
                ],
                &w,
            );
        }
        println!();
        let record = |path: &str, t: f64| BenchRecord {
            name: format!("{path}_{tag}_nb{nb}_bs{bs}{suffix}"),
            n: bs,
            median_ns: t * 1e9,
            gflops: flops / t / 1e9,
        };
        records.push(record("rgf_point_warm", t_warm));
        records.push(record("rgf_point_cold", t_cold));
        if let Some(t) = t_row {
            records.push(record("rgf_row_warm", t));
        }
    }
    println!("warm and row paths are allocation-free (see tests/integration_alloc.rs)");
    records.extend(decimation(suffix, if quick { 101 } else { 401 }));
    records.extend(lane_kernels(suffix, if quick { 21 } else { 101 }));

    if json_flag() {
        write_bench_json(BENCH_JSON_PATH, &records).expect("write BENCH_kernels.json");
        println!("wrote {} records to {BENCH_JSON_PATH}", records.len());
    }
}

/// The decimation leg: the left leads `[M[0][0], M[1][0], M[0][1]]` of one
/// SIMD vector of `test_lanes` energies on 12 × 12 blocks, solved lead by
/// lead and as lanes; time and flops per lead.
fn decimation(suffix: &str, reps: usize) -> Vec<BenchRecord> {
    let bs = 12;
    let (tol, max_iter) = (1e-13, 200);
    let systems = test_lanes(2, bs, 0.11, row_width(bs));
    let leads: Vec<[&CMatrix; 3]> = systems
        .iter()
        .map(|(m, _, _)| [&m.diag[0], &m.lower[0], &m.upper[0]])
        .collect();
    let per_lead = leads.len() as f64;
    let mut ws = Workspace::new();
    let mut point = || {
        leads
            .iter()
            .map(|[d, a, b]| {
                surface_gf_ws(BoundaryMethod::SanchoRubio, d, a, b, tol, max_iter, &mut ws)
                    .iterations
            })
            .collect::<Vec<_>>()
    };
    let iterations = point(); // warmup
    let t_point = timed_median(reps, || {
        std::hint::black_box(point());
    }) / per_lead;
    let lanes = sancho_rubio_lanes(&leads, tol, max_iter, &mut ws); // warmup
    let lane_iterations: Vec<usize> = lanes.iter().map(|s| s.iterations).collect();
    assert_eq!(
        lane_iterations, iterations,
        "each lane runs its per-point steps"
    );
    let t_lanes = timed_median(reps, || {
        std::hint::black_box(sancho_rubio_lanes(&leads, tol, max_iter, &mut ws));
    }) / per_lead;

    let steps: usize = iterations.iter().sum();
    let flops = (steps as u64 * SR_PRODUCTS * gemm_flops(bs, bs, bs)) as f64 / per_lead;
    println!(
        "Sancho-Rubio decimation ({bs}x{bs}, {} leads, steps {iterations:?})\n",
        leads.len()
    );
    let w = [30, 14, 12, 10];
    header(&["Path", "Time/lead [us]", "GFLOP/s", "vs point"], &w);
    let paths = [
        ("surface_gf_ws (per lead)", t_point),
        ("sancho_rubio_lanes (lanes)", t_lanes),
    ];
    for (name, t) in paths {
        row(
            &[
                name.into(),
                format!("{:.1}", t * 1e6),
                format!("{:.2}", flops / t / 1e9),
                format!("{:.2}x", t_point / t),
            ],
            &w,
        );
    }
    println!();
    let record = |path: &str, t: f64| BenchRecord {
        name: format!("{path}_warm_bs{bs}{suffix}"),
        n: bs,
        median_ns: t * 1e9,
        gflops: flops / t / 1e9,
    };
    vec![record("sr_point", t_point), record("sr_lanes", t_lanes)]
}

/// `LANES` lane blocks of `bs × bs` test matrices (`test_lanes`' first
/// diagonal block, one energy per lane) and the same blocks as matrices.
fn lane_operands(bs: usize, seed: f64) -> (Vec<CMatrix>, Vec<f64>) {
    let mats: Vec<CMatrix> = test_lanes(1, bs, seed, LANES)
        .into_iter()
        .map(|(m, _, _)| m.diag[0].clone())
        .collect();
    let mut planes = vec![0.0; 2 * bs * bs * LANES];
    for (e, m) in mats.iter().enumerate() {
        for (x, z) in m.as_slice().iter().enumerate() {
            (planes[2 * x * LANES + e], planes[(2 * x + 1) * LANES + e]) = (z.re, z.im);
        }
    }
    (mats, planes)
}

/// The lane kernels against their one-lane twins on the same `LANES`
/// blocks: `lane_gemm` vs one packed `gemm` per lane at 24–64 (the
/// records behind `LANE_MAX_DIM`), `planes_invert` vs one
/// `Workspace::invert_into` per lane at 12 and 32. Each sample repeats
/// the call enough times to last ~0.1 ms; records hold the time per lane.
fn lane_kernels(suffix: &str, reps: usize) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    let per_lane = |t: f64, calls: usize| t / (calls * LANES) as f64;
    println!("Lane kernels: {LANES} lanes in one call vs one call per lane\n");
    let w = [30, 14, 12, 10];
    header(&["Kernel", "Time/lane [us]", "GFLOP/s", "lanes/one"], &w);
    let mut report = |name: &str, bs: usize, flops: f64, t_lanes: f64, t_one: f64| {
        for (path, t) in [
            (format!("{name}_lanes"), t_lanes),
            (format!("{name}_point"), t_one),
        ] {
            row(
                &[
                    format!("{path} (bs {bs})"),
                    format!("{:.2}", t * 1e6),
                    format!("{:.2}", flops / t / 1e9),
                    format!("{:.2}x", t_one / t),
                ],
                &w,
            );
            records.push(BenchRecord {
                name: format!("{path}_bs{bs}{suffix}"),
                n: bs,
                median_ns: t * 1e9,
                gflops: flops / t / 1e9,
            });
        }
    };
    for bs in [24, 32, 48, 64] {
        let (a, a_planes) = lane_operands(bs, 0.3);
        let (b, b_planes) = lane_operands(bs, 0.8);
        let mut c = vec![CMatrix::zeros(bs, bs); LANES];
        let mut c_planes = vec![0.0; a_planes.len()];
        let flops = gemm_flops(bs, bs, bs) as f64;
        let calls = (3_000_000 / (bs * bs * bs)).max(1);
        let dims = BatchDims::square(bs);
        let t_lanes = timed_median(reps, || {
            for _ in 0..calls {
                lane_gemm(
                    dims,
                    LANES,
                    C64::ONE,
                    &a_planes,
                    &b_planes,
                    Op::N,
                    C64::ZERO,
                    &mut c_planes,
                );
            }
        });
        let t_one = timed_median(reps, || {
            for _ in 0..calls {
                for ((a, b), c) in a.iter().zip(&b).zip(&mut c) {
                    gemm(C64::ONE, a, Op::N, b, Op::N, C64::ZERO, c);
                }
            }
        });
        report(
            "planes_gemm",
            bs,
            flops,
            per_lane(t_lanes, calls),
            per_lane(t_one, calls),
        );
    }
    let mut ws = Workspace::new();
    for bs in [12, 32] {
        let (a, a_planes) = lane_operands(bs, 0.5);
        let mut out = CMatrix::zeros(bs, bs);
        let mut out_planes = vec![0.0; a_planes.len()];
        let flops = lu_flops(bs, bs) as f64;
        let calls = (1_000_000 / (bs * bs * bs)).max(1);
        planes_invert(bs, LANES, &a_planes, &mut out_planes, &mut ws); // warmup
        let t_lanes = timed_median(reps, || {
            for _ in 0..calls {
                planes_invert(bs, LANES, &a_planes, &mut out_planes, &mut ws);
            }
        });
        let t_one = timed_median(reps, || {
            for _ in 0..calls {
                for a in &a {
                    ws.invert_into(a, &mut out);
                }
            }
        });
        report(
            "lu",
            bs,
            flops,
            per_lane(t_lanes, calls),
            per_lane(t_one, calls),
        );
    }
    println!();
    records
}
