//! §5.1-5.2 / Fig. 5: deriving the communication-avoiding decomposition
//! from the data-centric IR — build the SSE SDFG, re-tile the map two
//! ways, and read the volumes off the memlets — then close the loop:
//! lower the transformed graph into a task DAG, run a bias sweep with
//! whole points as tasks of the same scheduler, and print the
//! model-vs-measured attribution table including the overlap row.
//!
//! Run with:
//! `cargo run --release --example dataflow_transforms [-- --trace-out dag_trace.json]`

use std::time::Instant;

use dace_omen::core::{run_overlapped, ExecutorKind, Simulation, SimulationConfig};
use dace_omen::dataflow::{
    apply_dace_decomposition, apply_omen_decomposition, bindings, simulation_sdfg, sse_state,
};
use dace_omen::perf::{
    attribute, measured_overlap_fraction, AttributionModel, SimParams, StreamAttribution,
    StreamModel,
};
use dace_omen::sched::lower_iteration;
use dace_omen::trace;

fn main() {
    let sdfg = simulation_sdfg();
    sdfg.validate().expect("valid SDFG");
    println!(
        "simulation SDFG '{}': {} states, {} nodes\n",
        sdfg.name,
        sdfg.states.len(),
        sdfg.node_count()
    );

    let mut omen = sse_state();
    let omen_vol = apply_omen_decomposition(&mut omen);
    println!("OMEN decomposition (tile by kz × E/tE):\n  remote volume = {omen_vol}\n");

    let mut dace = sse_state();
    let (residual, dace_vol) = apply_dace_decomposition(&mut dace);
    println!("DaCe decomposition (re-tile by atoms × energies):");
    println!("  per-point remote volume = {residual}  (everything became rank-local)");
    println!("  one-time alltoall volume = {dace_vol}\n");

    // Evaluate both at the paper's Small/Nkz=7/P=1792 configuration.
    let b = bindings(&[
        ("Nkz", 7.0),
        ("Nqz", 7.0),
        ("NE", 706.0),
        ("Nw", 70.0),
        ("Na", 4864.0),
        ("Nb", 34.0),
        ("Norb", 12.0),
        ("N3D", 3.0),
        ("tE", 706.0 / 256.0),
        ("Ta", 448.0),
        ("TE", 4.0),
    ]);
    let tib = (1u64 << 40) as f64;
    println!("evaluated at Small, Nkz = 7, P = 1,792:");
    println!(
        "  OMEN: {:.1} TiB   (paper Table 5: 174.80 TiB)",
        omen_vol.eval(&b) / tib
    );
    println!(
        "  DaCe: {:.2} TiB   (paper Table 5: 2.17 TiB)",
        dace_vol.eval(&b) / tib
    );

    // ── From IR to execution ────────────────────────────────────────
    // The transformed graph is not just an analysis artifact: lower one
    // Born iteration into a task DAG — the structure every
    // `ExecutorKind` schedules its point sweeps as — then run a small
    // bias sweep two points at a time on the same scheduler, with
    // tracing armed.
    let cfg = {
        let mut c = SimulationConfig::tiny();
        c.executor = ExecutorKind::Rayon { threads: 2 };
        c.max_iterations = 4;
        c
    };
    let plan =
        lower_iteration(&sdfg, cfg.nk, cfg.ne, cfg.nw).expect("simulation SDFG lowers to a DAG");
    let edges: usize = (0..plan.dag.len()).map(|t| plan.dag.deps_of(t).len()).sum();
    println!(
        "\nlowered one Born iteration: {} tasks ({} GF point solves + SSE), {} dependency edges",
        plan.dag.len(),
        plan.gf_tasks(),
        edges
    );

    let points = 4usize;
    let sweep = || -> Vec<Simulation> {
        (0..points)
            .map(|i| {
                let mut c = cfg.clone();
                c.mu_drain = 0.01 * i as f64;
                Simulation::new(c).expect("valid config")
            })
            .collect()
    };

    // Serial leg: per-stage busy time feeds the two-resource stream
    // model, the floor the overlapped schedule has to beat.
    trace::reset();
    trace::arm();
    let t0 = Instant::now();
    let mut serial_sims = sweep();
    let serial: Vec<_> = serial_sims
        .iter_mut()
        .map(|s| s.run().expect("serial point runs"))
        .collect();
    let serial_secs = t0.elapsed().as_secs_f64();
    let serial_snap = trace::snapshot();
    trace::disarm();

    let tasks: usize = serial.iter().map(|r| r.records.len()).sum();
    let model = StreamModel::from_trace(&serial_snap, tasks);

    // Overlapped leg: two whole points at a time.
    trace::reset();
    trace::arm();
    let t0 = Instant::now();
    let overlapped = run_overlapped(sweep(), 2);
    let overlap_secs = t0.elapsed().as_secs_f64();
    let snap = trace::snapshot();
    trace::disarm();

    for (s, o) in serial.iter().zip(&overlapped) {
        let o = o.finished().expect("overlapped point runs");
        assert_eq!(
            s.current().to_bits(),
            o.current().to_bits(),
            "overlapped sweep must be bit-identical to serial"
        );
    }
    let gf_busy = snap.phase_ns("gf_phase") as f64 * 1e-9;
    let sse_busy = snap.phase_ns("sse_phase") as f64 * 1e-9;
    println!(
        "ran {points} sweep points twice (bit-identical): serial {:.1} ms, overlapped {:.1} ms, \
         measured overlap {:.0}%",
        1e3 * serial_secs,
        1e3 * overlap_secs,
        100.0 * measured_overlap_fraction(gf_busy, sse_busy, overlap_secs)
    );

    // Attribution over the overlapped trace: RGF/SSE flop models plus
    // the overlap row (hidden seconds against the stream model's).
    let prob = serial_sims[0].sse_problem();
    let params = SimParams {
        na: prob.na(),
        nb: serial_sims[0].device.max_neighbors(),
        norb: prob.norb(),
        n3d: 3,
        nk: cfg.nk,
        nq: cfg.nk,
        ne: cfg.ne,
        nw: cfg.nw,
        bnum: serial_sims[0].device.bnum(),
        bc_block_ops: 0.0,
    };
    let attr = AttributionModel {
        params,
        iterations: tasks as u64,
        omen_ranks: None,
        dace_tiling: None,
        comm_execs: 1,
        stream: Some(StreamAttribution {
            model,
            wall_s: overlap_secs,
        }),
    };
    let report = attribute(&snap, &attr);
    println!("\n=== model-vs-measured attribution (overlapped sweep) ===");
    print!("{}", report.render());

    if let Some(path) = std::env::args().skip_while(|a| a != "--trace-out").nth(1) {
        std::fs::write(&path, trace::chrome_trace_json(&snap)).expect("write chrome trace");
        println!("wrote chrome trace: {path} (load in Perfetto / chrome://tracing)");
    }
}
