//! Tables 4/5 executed: measured communication volumes of the live
//! Born loop against the §6.1.2 analytic models.
//!
//! The static `table4_comm_weak` / `table5_comm_strong` bins evaluate
//! the volume *models* at paper scale. This bin closes the loop: with
//! `--execute` it runs the full self-consistent Born iteration under
//! `ExecutorKind::Distributed { ranks }` for ranks × {OMEN, DaCe}
//! exchange schemes, captures one `VolumeLedger` per Born iteration
//! from the installed `PlanKernel`, and checks three things per leg:
//!
//! 1. **Structure** — the DaCe scheme is exactly 4 alltoalls per
//!    iteration and nothing else; the OMEN scheme is 2 broadcasts and
//!    2 reductions per `(q, ω)` round and no alltoalls.
//! 2. **Determinism** — every Born iteration moves byte-identical
//!    volume (the plans are data-independent).
//! 3. **Model agreement** — measured bytes per iteration against
//!    `omen_volume` / `dace_volume_with` evaluated at the live device's
//!    [`SimParams`], surfaced as the `comm(omen)` / `comm(dace)` rows
//!    of the attribution report printed per leg.
//!
//! With `--json` each leg merges a record into `BENCH_sweeps.json`:
//! `comm45_{omen|dace}_r{ranks}[_quick]` with `n` = ranks, `median_ns`
//! = measured bytes per Born iteration (deterministic, so exact), and
//! `gflops` = the measured/model volume ratio that `perf_check` bands
//! with `--min-comm-ratio`/`--max-comm-ratio`. Without `--execute` the
//! bin only prints the model volumes for the legs it would run.
//!
//! The last thing `--execute` does is the distributed rung of the
//! ladder: on one set of `G^≷`/`D^≷` tensors, in this process, it times a
//! warm `TransformedKernel` on one worker and both warm plan kernels on 2
//! ranks and records `comm45_plan_vs_local_{dace|omen}_r2[_quick]` with
//! `n` = the host's cores, `median_ns` = the plan's wall and `gflops` = plan wall ÷
//! local wall. The DaCe plan runs the local kernel's stages on half the
//! atoms per rank, so with two cores `perf_check` holds its ratio to 1.5.
use omen_bench::{
    header, json_flag, quick_flag, row, timed_median, write_bench_json, BenchRecord,
    BENCH_SWEEPS_JSON_PATH,
};
use omen_comm::{tiling_for_ranks, CommPlan, OpKind, PlanKernel};
use omen_core::{ExecutorKind, Simulation, SimulationConfig, SseKernel, TransformedKernel};
use omen_device::DeviceConfig;
use omen_perf::{attribute, dace_volume_with, omen_volume, AttributionModel, SimParams};
use omen_trace as trace;

/// The executed legs: both exchange schemes at 2 and 4 ranks — enough
/// to exercise a momentum-only and a momentum×energy process grid on
/// the tiny device (nk = 2).
const LEGS: [(CommPlan, usize); 4] = [
    (CommPlan::Omen, 2),
    (CommPlan::Omen, 4),
    (CommPlan::Dace, 2),
    (CommPlan::Dace, 4),
];

fn main() {
    let quick = quick_flag();
    let execute = std::env::args().any(|a| a == "--execute");
    println!("Tables 4/5 executed: Born-loop communication volume vs model\n");
    let params = tiny_params();
    model_table(&params);
    if execute {
        execute_legs(&params, quick);
    } else {
        println!("\n(--execute runs the Born loop under ExecutorKind::Distributed and");
        println!(" validates the measured VolumeLedger bytes against these models)");
    }
}

/// [`SimParams`] of the tiny FinFET slice every leg runs, taken from
/// the same live device the simulation will build — the models and the
/// measurement must agree on every dimension.
fn tiny_params() -> SimParams {
    let cfg = SimulationConfig::tiny();
    let sim = Simulation::new(cfg).expect("tiny config is valid");
    let prob = sim.sse_problem();
    SimParams {
        na: prob.na(),
        nb: prob.device.max_neighbors(),
        norb: prob.norb(),
        n3d: 3,
        nk: prob.nk,
        nq: prob.nq,
        ne: prob.ne,
        nw: prob.nw,
        bnum: prob.device.bnum(),
        bc_block_ops: 1.0,
    }
}

/// Model volume for one leg, in bytes per Born iteration.
fn model_bytes(params: &SimParams, plan: CommPlan, ranks: usize) -> f64 {
    match plan {
        CommPlan::Omen => omen_volume(params, ranks),
        CommPlan::Dace => {
            let tiling = tiling_for_ranks(params.na, params.ne, ranks)
                .expect("tiny device fits the bench tilings");
            dace_volume_with(params, tiling.ta, tiling.te)
        }
    }
}

fn model_table(params: &SimParams) {
    let w = [8, 8, 22];
    header(&["scheme", "ranks", "model [B/iteration]"], &w);
    for (plan, ranks) in LEGS {
        row(
            &[
                plan.name().into(),
                ranks.to_string(),
                format!("{:.0}", model_bytes(params, plan, ranks)),
            ],
            &w,
        );
    }
}

/// One executed leg: the tiny Born loop under the distributed executor
/// with the plan kernel's ledger sink kept, returning the (asserted
/// deterministic) measured bytes per iteration and the model ratio.
fn run_leg(params: &SimParams, plan: CommPlan, ranks: usize, iters: usize) -> (u64, f64) {
    let mut cfg = SimulationConfig::tiny();
    cfg.max_iterations = iters;
    cfg.executor = ExecutorKind::Distributed { ranks };
    cfg.comm_plan = plan;
    let mut sim = Simulation::new(cfg).expect("distributed tiny config is valid");
    // `Simulation::new` installed this kernel itself; rebuild it by hand
    // so the per-iteration ledger sink stays in reach.
    let kernel = PlanKernel::new(plan, ranks);
    let sink = kernel.ledger_sink();
    sim.set_kernel(Box::new(kernel));

    trace::reset();
    trace::arm();
    sim.run().expect("distributed Born loop succeeds");
    let snap = trace::snapshot();
    trace::disarm();

    let ledgers = sink.lock().expect("ledger sink lock").clone();
    assert_eq!(ledgers.len(), iters, "one ledger per Born iteration");
    let per_iter: Vec<u64> = ledgers.iter().map(|l| l.total_bytes()).collect();
    assert!(
        per_iter.windows(2).all(|w| w[0] == w[1]),
        "{} plan volume must be identical every iteration: {per_iter:?}",
        plan.name()
    );
    for ledger in &ledgers {
        match plan {
            CommPlan::Omen => {
                let rounds = (params.nq * params.nw) as u64;
                assert_eq!(ledger.calls(OpKind::Bcast), 2 * rounds, "2 bcasts/round");
                assert_eq!(ledger.calls(OpKind::Reduce), 2 * rounds, "2 reduces/round");
                assert_eq!(ledger.calls(OpKind::Alltoall), 0);
            }
            CommPlan::Dace => {
                assert_eq!(ledger.calls(OpKind::Alltoall), 4, "the 4 DaCe alltoalls");
                assert_eq!(ledger.calls(OpKind::Bcast), 0);
                assert_eq!(ledger.calls(OpKind::Reduce), 0);
            }
        }
    }
    let measured = per_iter[0];

    // The attribution report with the comm row for this scheme: the
    // trace-side view of the same measured-vs-model comparison.
    let model = AttributionModel {
        params: *params,
        iterations: iters as u64,
        omen_ranks: (plan == CommPlan::Omen).then_some(ranks),
        dace_tiling: (plan == CommPlan::Dace)
            .then(|| tiling_for_ranks(params.na, params.ne, ranks).expect("leg tiling fits"))
            .map(|t| (t.ta, t.te)),
        // The plan kernel runs its exchange once per Born iteration.
        comm_execs: iters as u64,
        stream: None,
    };
    println!(
        "\n{} plan, {ranks} ranks ({iters} Born iterations):\n{}",
        plan.name(),
        attribute(&snap, &model).render()
    );
    trace::reset();

    (measured, measured as f64 / model_bytes(params, plan, ranks))
}

/// The distributed ladder rung: both plan kernels on 2 ranks against the
/// single-address-space transformed kernel, all warm, on the tensors of
/// one GF phase of a 48-atom slice whose SSE takes tens of milliseconds
/// (rank threads and payloads are then a small part of the plan's wall).
fn plan_vs_local(suffix: &str, reps: usize) -> Vec<BenchRecord> {
    const RANKS: usize = 2;
    let cfg = SimulationConfig {
        device: DeviceConfig {
            nx: 12,
            ..DeviceConfig::demo()
        },
        nk: 2,
        ne: 24,
        nw: 2,
        // The rung's denominator is the local kernel on one worker.
        executor: ExecutorKind::Serial,
        ..SimulationConfig::demo()
    };
    let sim = Simulation::new(cfg).expect("ladder config is valid");
    let gf = sim.gf_phase();
    let prob = sim.sse_problem();
    let wall_s = |kernel: &mut dyn SseKernel| {
        let mut run = || {
            std::hint::black_box(kernel.run(&prob, &gf.g_l, &gf.g_g, &gf.d_l, &gf.d_g).flops);
        };
        run();
        timed_median(reps, run)
    };
    let local_s = wall_s(&mut TransformedKernel::new());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nplan vs local on {} atoms, {RANKS} ranks, {cores} cores: transformed kernel {:.1} ms",
        prob.na(),
        local_s * 1e3
    );
    [CommPlan::Dace, CommPlan::Omen]
        .into_iter()
        .map(|plan| {
            let plan_s = wall_s(&mut PlanKernel::new(plan, RANKS));
            println!(
                "  {} plan {:.1} ms = {:.2}x local",
                plan.name(),
                plan_s * 1e3,
                plan_s / local_s
            );
            BenchRecord {
                name: format!("comm45_plan_vs_local_{}_r{RANKS}{suffix}", plan.name()),
                n: cores,
                median_ns: plan_s * 1e9,
                gflops: plan_s / local_s,
            }
        })
        .collect()
}

fn execute_legs(params: &SimParams, quick: bool) {
    let suffix = if quick { "_quick" } else { "" };
    let iters = if quick { 3 } else { 4 };
    let mut records = Vec::new();
    let mut summary = Vec::new();
    for (plan, ranks) in LEGS {
        let (measured, ratio) = run_leg(params, plan, ranks, iters);
        summary.push((plan, ranks, measured, ratio));
        records.push(BenchRecord {
            name: format!("comm45_{}_r{ranks}{suffix}", plan.name()),
            n: ranks,
            median_ns: measured as f64,
            gflops: ratio,
        });
    }

    let w = [8, 8, 22, 22, 12];
    println!();
    header(
        &[
            "scheme",
            "ranks",
            "measured [B/iter]",
            "model [B/iter]",
            "ratio",
        ],
        &w,
    );
    for (plan, ranks, measured, ratio) in summary {
        row(
            &[
                plan.name().into(),
                ranks.to_string(),
                measured.to_string(),
                format!("{:.0}", model_bytes(params, plan, ranks)),
                format!("{ratio:.3}"),
            ],
            &w,
        );
    }
    println!("\nratio = measured/model; the model over-approximates halos (c = Nb), so");
    println!("ratios below 1 are expected at tiny scale — perf_check bands them.");
    records.extend(plan_vs_local(suffix, if quick { 3 } else { 7 }));

    if json_flag() {
        write_bench_json(BENCH_SWEEPS_JSON_PATH, &records).expect("write BENCH_sweeps.json");
        println!("wrote {BENCH_SWEEPS_JSON_PATH}");
    }
}
