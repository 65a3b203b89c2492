//! Per-layer probes: timed calls into each crate's public functions, on
//! the converged state and at the sizes of the workload being measured.
//!
//! Tracing is disarmed while these run, and every number is wall clock.
//! Only the seams listed in the README are called — never a `*_naive`,
//! `*_scalar`, `dense_ref` or allocating twin — so the clean-ups the
//! ROADMAP plans do not break the benchmark.

use crate::executors;
use crate::golden::out_dir;
use crate::stats::median;
use crate::workloads::Workload;
use dace_omen::comm::{
    decode_frame, encode_frame, run_world, tiling_for_ranks, CommPlan, PlanKernel, VolumeLedger,
};
use dace_omen::core::{
    pi_blocks_for_point, run_overlapped, sigma_blocks_for_point, ExecutorKind, GfPhaseOutput,
    MixedKernel, ReferenceKernel, Simulation, SimulationConfig, SseKernel, TransformedKernel,
};
use dace_omen::dataflow::{lower_sdfg, simulation_sdfg};
use dace_omen::device::DeviceStructure;
use dace_omen::linalg::{
    c64, gemm, gemm_flops, sbsmm, BatchDims, CMatrix, Op, Strides, Workspace, C64,
};
use dace_omen::perf::{
    dace_volume_with, gemm_intensity, omen_volume, rgf_flops_total, sse_flops_dace, SimParams,
};
use dace_omen::rgf::{ElectronParams, ElectronSolver, GfSolver, PhononParams, PhononSolver};
use dace_omen::sched::lower_iteration;
use dace_omen::serve::{
    decode_result, encode_result, CacheConfig, CheckpointJournal, JobMetrics, JobResult,
    PointObservables, SweepAxis, SweepCache,
};
use dace_omen::sse::tensors::GLayout;
use dace_omen::sse::MixedConfig;
use std::time::Instant;

/// `(metric name, value)` pairs, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median seconds of `reps` calls, after one untimed call. A call that
/// takes over 0.3 s is timed once: the probes of one child must fit in
/// seconds, and a call that long is already a steady sample.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let reps = if secs(&mut f) > 0.3 { 1 } else { reps };
    median(&(0..reps).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Seconds per call of a short kernel: batches of calls, each batch long
/// enough for the clock, median over five batches.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = secs(|| (0..calls).for_each(|_| f()));
        if t >= 2e-3 || calls >= 1 << 20 {
            break;
        }
        calls *= 4;
    }
    median(
        &(0..5)
            .map(|_| secs(|| (0..calls).for_each(|_| f())) / calls as f64)
            .collect::<Vec<_>>(),
    )
}

/// The §6.1 model parameters of a live simulation.
pub fn sim_params(sim: &Simulation) -> SimParams {
    let cfg = sim.config();
    SimParams {
        na: sim.device.num_atoms(),
        nb: sim.device.max_neighbors(),
        norb: cfg.device.norb,
        n3d: 3,
        nk: cfg.nk,
        nq: cfg.nk,
        ne: cfg.ne,
        nw: cfg.nw,
        bnum: sim.device.bnum(),
        bc_block_ops: 1.0,
    }
}

/// §6.1.1 flops of one Born iteration: RGF plus the DaCe-schedule SSE.
pub fn model_flops_per_iter(p: &SimParams) -> f64 {
    rgf_flops_total(p) + sse_flops_dace(p)
}

fn test_matrix(n: usize, salt: usize) -> CMatrix {
    CMatrix::from_fn(n, n, |i, j| {
        let x = (i * 31 + j * 17 + salt) as f64;
        // Diagonally dominant, so it inverts without pivoting trouble.
        c64(
            x.sin() * 0.1 + if i == j { 2.0 } else { 0.0 },
            x.cos() * 0.1,
        )
    })
}

/// omen-linalg at the workload's own sizes: `gemm` and `invert_into` on
/// one RGF block, `sbsmm` on the SSE stage-C shape (`norb × norb` items,
/// `A` strided, `B` shared, accumulating, batch = `ne`).
fn linalg(sim: &Simulation, out: &mut Values) {
    let bs = sim.device.block_size_el();
    let norb = sim.config().device.norb;
    let batch = sim.config().ne;
    let (a, b) = (test_matrix(bs, 1), test_matrix(bs, 2));
    let mut c = CMatrix::zeros(bs, bs);
    let gemm_s = secs_per_call(|| gemm(C64::ONE, &a, Op::N, &b, Op::N, C64::ZERO, &mut c));
    std::hint::black_box(&c);
    let mut ws = Workspace::new();
    let invert_s = secs_per_call(|| ws.invert_into(&a, &mut c));
    std::hint::black_box(&c);

    let dims = BatchDims::square(norb);
    let bsz = norb * norb;
    let fill = |n: usize, salt: usize| -> Vec<C64> {
        (0..n)
            .map(|i| {
                c64(
                    ((i * 7 + salt) as f64).sin() * 1e-3,
                    ((i * 3) as f64).cos() * 1e-3,
                )
            })
            .collect()
    };
    let (sa, sb) = (fill(batch * bsz, 1), fill(bsz, 2));
    let mut sc = vec![C64::ZERO; batch * bsz];
    let strides = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let sbsmm_s =
        secs_per_call(|| sbsmm(dims, batch, C64::ONE, &sa, &sb, C64::ONE, &mut sc, strides));
    std::hint::black_box(&sc);

    out.push((
        "linalg.gemm_bs_gflops",
        gemm_flops(bs, bs, bs) as f64 / gemm_s / 1e9,
    ));
    out.push(("linalg.invert_bs_ms", invert_s * 1e3));
    let sbsmm_flops = dims.flops() as f64 * batch as f64;
    out.push(("linalg.sbsmm_norb_gflops", sbsmm_flops / sbsmm_s / 1e9));
}

/// omen-rgf: warm `GfSolver::solve_point` over the workload's grids with
/// the converged self-energies, solver caches filled by a first sweep.
fn rgf(sim: &Simulation, out: &mut Values) {
    let cfg = sim.config();
    let dev = &sim.device;
    let warm = sim.warm_start_data();
    let (kvals, evals, fvals) = (sim.kgrid.values(), sim.egrid.values(), sim.fgrid.values());
    let eparams = ElectronParams {
        eta: cfg.eta,
        mu_source: cfg.mu_source,
        mu_drain: cfg.mu_drain,
        kt: cfg.kt,
        ..ElectronParams::default()
    };
    let pparams = PhononParams {
        eta: cfg.eta_ph,
        kt: cfg.kt,
        ..PhononParams::default()
    };
    let mut es = ElectronSolver::new(
        dev,
        sim.potential.clone(),
        eparams,
        cfg.cache_mode,
        kvals.clone(),
        evals,
    );
    let (mut el_s, mut el_flops) = (0.0, 0u64);
    for timed in [false, true] {
        for ik in 0..cfg.nk {
            for ie in 0..cfg.ne {
                let (sr, sl, sg) =
                    sigma_blocks_for_point(dev, &warm.sigma_l, &warm.sigma_g, ik, ie);
                let t0 = Instant::now();
                let sol = es.solve_point(ik, ie, Some(&sr), Some(&sl), Some(&sg));
                if timed {
                    el_s += t0.elapsed().as_secs_f64();
                    el_flops += sol.sol.flops;
                }
            }
        }
    }
    let mut ps = PhononSolver::new(dev, pparams, cfg.cache_mode, kvals, fvals);
    let mut ph_s = 0.0;
    for timed in [false, true] {
        for iq in 0..cfg.nk {
            for iw in 0..cfg.nw {
                let (pr, pl, pg) = pi_blocks_for_point(dev, &warm.pi_l, &warm.pi_g, iq, iw);
                let t0 = Instant::now();
                std::hint::black_box(ps.solve_point(iq, iw, Some(&pr), Some(&pl), Some(&pg)));
                if timed {
                    ph_s += t0.elapsed().as_secs_f64();
                }
            }
        }
    }
    out.push(("rgf.el_point_ms", el_s * 1e3 / (cfg.nk * cfg.ne) as f64));
    out.push(("rgf.ph_point_ms", ph_s * 1e3 / (cfg.nk * cfg.nw) as f64));
    out.push(("rgf.point_gflops", el_flops as f64 / el_s / 1e9));
}

/// omen-sse: the three kernels warm on the converged tensors, then
/// omen-comm: both plan kernels on the same tensors over two ranks, with
/// their ledgers, and the raw collectives at the plan's payload size.
fn sse_and_comm(sim: &Simulation, gf: &GfPhaseOutput, out: &mut Values) {
    let prob = sim.sse_problem();
    let params = sim_params(sim);
    let run = |k: &mut dyn SseKernel| {
        median_secs(3, || {
            std::hint::black_box(k.run(&prob, &gf.g_l, &gf.g_g, &gf.d_l, &gf.d_g).flops);
        })
    };

    let mut transformed = TransformedKernel::new();
    let transformed_ms = run(&mut transformed) * 1e3;
    let reference_ms = run(&mut ReferenceKernel::new()) * 1e3;
    let mut mixed = MixedKernel::new(MixedConfig::default());
    let mixed_ms = run(&mut mixed) * 1e3;
    let exact = transformed.state().output();
    let flops = exact.flops as f64;
    let want = exact.sigma_l.to_layout(GLayout::PairMajor);
    let got = mixed.state().output().sigma_l.to_layout(GLayout::PairMajor);
    let mixed_err = got.max_deviation(&want) / want.max_abs().max(f64::MIN_POSITIVE);
    out.push(("sse.transformed_ms", transformed_ms));
    out.push(("sse.reference_ms", reference_ms));
    out.push(("sse.mixed_ms", mixed_ms));
    out.push(("sse.flops", flops));
    out.push(("sse.gflops", flops / transformed_ms / 1e6));
    out.push(("sse.flops_ratio", flops / sse_flops_dace(&params)));
    out.push(("sse.mixed_rel_err", mixed_err));

    const RANKS: usize = 2;
    let plan = |plan: CommPlan| {
        let mut kernel = PlanKernel::new(plan, RANKS);
        let ms = run(&mut kernel) * 1e3;
        let ledger = kernel.last_ledger().expect("the plan kernel ran");
        (ms, ledger.total_bytes(), ledger.total_calls())
    };
    let (dace_ms, dace_bytes, dace_calls) = plan(CommPlan::Dace);
    let (omen_ms, omen_bytes, omen_calls) = plan(CommPlan::Omen);
    let tiling = tiling_for_ranks(params.na, params.ne, RANKS).expect("two ranks tile any device");
    out.push(("comm.dace_plan_ms", dace_ms));
    out.push(("comm.omen_plan_ms", omen_ms));
    out.push(("comm.dace_bytes_iter", dace_bytes as f64));
    out.push(("comm.omen_bytes_iter", omen_bytes as f64));
    out.push(("comm.dace_calls_iter", dace_calls as f64));
    out.push(("comm.omen_calls_iter", omen_calls as f64));
    out.push((
        "comm.dace_model_ratio",
        dace_bytes as f64 / dace_volume_with(&params, tiling.ta, tiling.te),
    ));
    out.push((
        "comm.omen_model_ratio",
        omen_bytes as f64 / omen_volume(&params, RANKS),
    ));
    out.push(("comm.plan_vs_local", dace_ms / transformed_ms));

    // One rank's share of one of the plan's four alltoalls, in C64s.
    let payload = (dace_bytes as usize / 16 / 4 / RANKS).max(1);
    const ROUNDS: usize = 8;
    let exchange = |f: &(dyn Fn(&dace_omen::comm::Comm, u64) + Sync)| {
        secs(|| {
            run_world(RANKS, VolumeLedger::new(RANKS), |comm| {
                (0..ROUNDS as u64).for_each(|round| f(&comm, round));
            });
        }) / ROUNDS as f64
    };
    let alltoall_s = exchange(&|comm, round| {
        let bufs = (0..RANKS).map(|_| vec![C64::ONE; payload]).collect();
        std::hint::black_box(comm.alltoallv(round, bufs));
    });
    let bcast_s = exchange(&|comm, round| {
        let mut data = vec![C64::ONE; payload];
        comm.bcast(0, round, &mut data);
        std::hint::black_box(data);
    });
    let bytes = vec![0x5au8; payload * 16];
    let frame_s = secs_per_call(|| {
        let frame = encode_frame(7, &bytes);
        std::hint::black_box(decode_frame(&frame).expect("an intact frame decodes"));
    });
    // Each of the two ranks sends `payload` elements to the other.
    let moved = (RANKS * (RANKS - 1) * payload * 16) as f64;
    out.push(("comm.alltoallv_mbs", moved / alltoall_s / 1e6));
    out.push(("comm.bcast_us", bcast_s * 1e6));
    out.push(("comm.frame_mbs", (payload * 16) as f64 / frame_s / 1e6));
}

/// omen-sched and omen-dataflow: lowering the iteration SDFG, the DAG
/// runtime's cost per empty task, and the overlapped stream pipeline
/// against the same points run one after the other.
fn sched(w: Workload, cfg: &SimulationConfig, out: &mut Values) {
    let sdfg = simulation_sdfg();
    let plan = lower_iteration(&sdfg, cfg.nk, cfg.ne, cfg.nw).expect("the iteration SDFG lowers");
    let tasks = plan.dag.len();
    let sdfg_s = median_secs(5, || {
        std::hint::black_box(lower_sdfg(&sdfg).expect("the iteration SDFG lowers"));
    });
    let lower_s = median_secs(5, || {
        std::hint::black_box(lower_iteration(&sdfg, cfg.nk, cfg.ne, cfg.nw).is_ok());
    });
    let dag_s = median_secs(5, || {
        plan.dag
            .run(2, |t| {
                std::hint::black_box(t);
            })
            .expect("empty tasks do not panic");
    });
    out.push(("dataflow.sdfg_lower_ms", sdfg_s * 1e3));
    out.push(("sched.lower_ms", lower_s * 1e3));
    out.push(("sched.dag_tasks", tasks as f64));
    out.push(("sched.dag_overhead_us", dag_s * 1e6 / tasks as f64));

    // The first sweep points, a fixed number of iterations each: four of
    // four on the sweep workload, two of two where an iteration is dear.
    let (points, iters) = if w == Workload::SweepWarm {
        (4, 4)
    } else {
        (2, 2)
    };
    let sims = || -> Vec<Simulation> {
        (0..points)
            .map(|i| {
                let point = SimulationConfig {
                    mu_source: 0.20 + 0.2 / 7.0 * i as f64,
                    executor: ExecutorKind::Serial,
                    max_iterations: iters,
                    require_convergence: false,
                    ..cfg.clone()
                };
                Simulation::new(point).expect("a valid sweep point")
            })
            .collect()
    };
    let mut serial = sims();
    let serial_s = secs(|| {
        for sim in &mut serial {
            std::hint::black_box(sim.run().is_ok());
        }
    });
    let overlapped = sims();
    let overlapped_s = secs(|| {
        std::hint::black_box(run_overlapped(overlapped, 2).len());
    });
    out.push(("sched.overlap_speedup", serial_s / overlapped_s));
}

/// omen-serve: the warm-start cache with the workload's real
/// `WarmStartData`, the result wire format and the checkpoint journal.
fn serve(sim: &Simulation, out: &mut Values) {
    const ENTRIES: usize = 8;
    let data = sim.warm_start_data();
    let scenario = 0x5eed;
    let value = |i: usize| 0.2 + 0.025 * i as f64;
    let result = JobResult {
        points: (0..ENTRIES)
            .map(|i| PointObservables {
                value: value(i),
                current: 0.5 + 0.01 * i as f64,
                iterations: 9,
                warm: i > 0,
                donor: (i > 0).then(|| value(i - 1)),
            })
            .collect(),
        metrics: JobMetrics::default(),
    };
    let journal_path = out_dir().join(format!("probe-{}.journal", std::process::id()));
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    let journal = CheckpointJournal::at(&journal_path);

    let insert_runs: Vec<f64> = (0..5)
        .map(|_| {
            let mut cache = SweepCache::new(CacheConfig::default());
            // Clones made outside the clock: the server moves its data in.
            let copies: Vec<_> = (0..ENTRIES).map(|_| data.clone()).collect();
            secs(|| {
                for (i, copy) in copies.into_iter().enumerate() {
                    cache.insert(scenario, SweepAxis::Bias, value(i), copy);
                }
            })
        })
        .collect();
    let insert_s = median(&insert_runs) / ENTRIES as f64;
    let mut cache = SweepCache::new(CacheConfig::default());
    for i in 0..ENTRIES {
        cache.insert(scenario, SweepAxis::Bias, value(i), data.clone());
    }
    let nearest_s = secs_per_call(|| {
        std::hint::black_box(cache.nearest(scenario, SweepAxis::Bias, 0.31).is_some());
    });
    let wire_s = secs_per_call(|| {
        let frame = encode_result(&result);
        std::hint::black_box(decode_result(&frame).expect("an intact result decodes"));
    });
    let append_s = secs_per_call(|| {
        journal
            .append(scenario, &result.points[1])
            .expect("append to the journal");
    });
    let _ = std::fs::remove_file(&journal_path);
    out.push(("serve.cache_insert_us", insert_s * 1e6));
    out.push(("serve.cache_nearest_us", nearest_s * 1e6));
    out.push(("serve.wire_roundtrip_us", wire_s * 1e6));
    out.push(("serve.ckpt_append_us", append_s * 1e6));
}

/// omen-device and omen-core set-up and warm-start costs.
fn device_and_core(sim: &Simulation, out: &mut Values) {
    let cfg = sim.config().clone();
    let kz = sim.kgrid.values()[0];
    let build_s = median_secs(5, || {
        std::hint::black_box(DeviceStructure::build(cfg.device.clone()));
    });
    let ham_s = median_secs(5, || {
        std::hint::black_box(sim.device.hamiltonian_with_potential(kz, &sim.potential));
    });
    let new_s = median_secs(5, || {
        std::hint::black_box(Simulation::new(cfg.clone()).is_ok());
    });
    let export_s = median_secs(5, || {
        std::hint::black_box(sim.warm_start_data());
    });
    let data = sim.warm_start_data();
    let mut fresh: Vec<Simulation> = (0..6)
        .map(|_| Simulation::new(cfg.clone()).expect("a valid configuration"))
        .collect();
    let import_s = median_secs(5, || {
        let mut target = fresh.pop().expect("one fresh simulation per call");
        target
            .warm_start_from(&data)
            .expect("same-shape warm start");
        std::hint::black_box(target.is_seeded());
    });
    out.push(("device.build_ms", build_s * 1e3));
    out.push(("device.hamiltonian_ms", ham_s * 1e3));
    out.push(("core.new_ms", new_s * 1e3));
    out.push(("core.warm_export_ms", export_s * 1e3));
    out.push(("core.warm_import_ms", import_s * 1e3));
}

/// Every probe, on a converged simulation of the workload.
pub fn probe_all(w: Workload, sim: &Simulation) -> Values {
    let mut out = Values::new();
    let gf = sim.gf_phase();
    linalg(sim, &mut out);
    rgf(sim, &mut out);
    sse_and_comm(sim, &gf, &mut out);
    drop(gf);
    let times = executors::gf_phase_seconds(sim);
    let serial_s = times[0].1;
    for (name, s) in times {
        out.push((name, s * 1e3));
        if let Some(speedup) = executors::speedup_name(name) {
            out.push((speedup, serial_s / s));
        }
    }
    sched(w, sim.config(), &mut out);
    serve(sim, &mut out);
    device_and_core(sim, &mut out);
    out
}

/// Roofline bound of a square complex GEMM of size `n` on this host, in
/// GFLOP/s: the lower of the FMA peak and bandwidth × operations per byte.
pub fn gemm_roofline(n: usize, fma_gflops: f64, triad_gbs: f64) -> f64 {
    fma_gflops.min(triad_gbs * gemm_intensity(n, 16))
}
