//! Observability end to end: the FinFET demo with the `omen-trace`
//! registry armed, both SSE communication plans executed on the
//! simulated MPI, and the measured counters joined against the analytic
//! models of §6.1 — the model-vs-measured attribution report.
//!
//! With `--ranks N` the Born loop itself runs rank-decomposed
//! (`ExecutorKind::Distributed` + the DaCe plan): the SSE row is then
//! metered by the plan's tiles and the comm row covers one exchange per
//! iteration.
//!
//! Run with:
//! `cargo run --release --example trace_attribution [-- --ranks 2] [--trace-out trace.json]`

use dace_omen::comm::{run_dace_plan, run_omen_plan, tiling_for_ranks, DaceTiling, OmenGrid};
use dace_omen::core::{CommPlan, ExecutorKind, SimulationConfig};
use dace_omen::perf::{attribute, AttributionModel, SimParams};
use dace_omen::trace;

/// The value following `flag` on the command line.
fn arg_after(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

fn main() {
    trace::reset();
    trace::arm();

    let ranks: Option<usize> = arg_after("--ranks").map(|n| n.parse().expect("--ranks N"));
    let mut builder = SimulationConfig::demo().into_builder().max_iterations(8);
    if let Some(ranks) = ranks {
        builder = builder
            .executor(ExecutorKind::Distributed { ranks })
            .comm_plan(CommPlan::Dace);
    }
    let cfg = builder.config().clone();
    let (nk, ne, nw) = (cfg.nk, cfg.ne, cfg.nw);
    let mut sim = cfg.into_builder().build().expect("valid configuration");
    println!(
        "tracing armed: {}-atom FinFET demo, Nkz={nk} NE={ne} Nω={nw}",
        sim.device.num_atoms()
    );
    let result = sim.run().expect("run converges");
    let iterations = result.records.len() as u64;
    println!(
        "converged in {iterations} Born iterations; I = {:.4e}",
        result.current()
    );

    let prob = sim.sse_problem();
    let (omen_ranks, tiling, comm_execs) = if let Some(ranks) = ranks {
        // The plan kernel already ran the DaCe exchange every iteration.
        let tiling = tiling_for_ranks(prob.na(), ne, ranks).expect("a tiling for --ranks");
        (None, tiling, iterations)
    } else {
        // Materialize converged tensors for the communication leg with the
        // registry off, so the extra GF solve does not inflate the traced
        // per-iteration gf_phase records.
        trace::disarm();
        let gf = sim.gf_phase();
        trace::arm();

        let grid = OmenGrid::new(nk, 2, nk, ne);
        let tiling = DaceTiling::new(nk, 2, prob.na(), ne);
        let (_, ledger_omen) = run_omen_plan(&prob, &gf.g_l, &gf.g_g, &gf.d_l, &gf.d_g, &grid);
        let (_, ledger_dace) =
            run_dace_plan(&prob, &gf.g_l, &gf.g_g, &gf.d_l, &gf.d_g, &grid, &tiling);
        println!(
            "\ncomm leg on {} simulated ranks: OMEN plan {} B, DaCe plan {} B",
            grid.nranks(),
            ledger_omen.total_bytes(),
            ledger_dace.total_bytes()
        );
        // Each plan ran once on the converged tensors.
        (Some(grid.nranks()), tiling, 1)
    };

    let snap = trace::snapshot();
    trace::disarm();

    // The analytic models evaluated at this run's actual dimensions.
    let params = SimParams {
        na: prob.na(),
        nb: sim.device.max_neighbors(),
        norb: prob.norb(),
        n3d: 3,
        nk,
        nq: nk,
        ne,
        nw,
        bnum: sim.device.bnum(),
        bc_block_ops: 0.0,
    };
    let model = AttributionModel {
        params,
        iterations,
        omen_ranks,
        dace_tiling: Some((tiling.ta, tiling.te)),
        comm_execs,
        stream: None,
    };
    let report = attribute(&snap, &model);
    println!("\n=== model-vs-measured attribution ===");
    print!("{}", report.render());
    let sse = report.rows.iter().find(|row| row.stage == "sse");
    assert!(
        sse.is_some_and(|row| row.measured > 0.0),
        "every SSE kernel, the plan kernels included, meters its flops"
    );
    println!(
        "(trace recorded {} spans, {} events, {} phase windows)",
        snap.spans.len(),
        snap.events.len(),
        snap.phases.len()
    );

    if let Some(path) = arg_after("--trace-out") {
        std::fs::write(&path, trace::chrome_trace_json(&snap)).expect("write chrome trace");
        println!("wrote chrome trace: {path} (load in Perfetto / chrome://tracing)");
    }
}
