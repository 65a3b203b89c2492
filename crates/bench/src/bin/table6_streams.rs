//! Table 6: concurrent streams in the GF phase. CUDA streams are replaced
//! by worker-thread counts over independent energy-momentum points; the
//! shape to reproduce is diminishing-but-real gains up to high counts.
//!
//! `--execute` adds the real overlapped sweep: the same bias sweep run
//! serially and through `omen_core::run_overlapped` (whole points as
//! scheduler tasks, two at a time), with `omen-trace` armed so the
//! measured overlap fraction can be compared against the two-resource
//! `omen_perf::StreamModel` built from the serial run's phase timings —
//! a floor for the symmetric workers, not a prediction.
//!
//! With `--json` the execute leg merges three records into
//! `BENCH_sweeps.json`: `sweep_stream_serial*` (`n` = sweep points,
//! `median_ns` = wall per point), `sweep_stream_overlap*` (`n` = the
//! machine's available parallelism — `perf_check` exempts single-core
//! runs from the speedup floor — `gflops` = the *measured* overlap
//! fraction), `sweep_stream_model*` (`n` = pipelined tasks, `median_ns`
//! = modeled pipelined wall per point, `gflops` = modeled speedup).
//! `--quick` shrinks both legs; `--trace-out PATH` exports the
//! overlapped run as chrome-trace JSON.

use omen_bench::{
    arg_value, header, json_flag, quick_flag, row, timed_min, write_bench_json, BenchRecord,
    BENCH_SWEEPS_JSON_PATH,
};
use omen_core::{run_overlapped, ExecutorKind, Simulation, SimulationConfig, SimulationResult};
use omen_device::{DeviceConfig, DeviceStructure};
use omen_rgf::{CacheMode, ElectronParams, ElectronSolver, GfSolver};
use omen_sched::TaskDag;
use omen_trace as trace;
use std::time::Instant;

fn main() {
    let quick = quick_flag();
    scaling_table(quick);
    if std::env::args().any(|a| a == "--execute") {
        execute_leg(quick);
    }
}

/// The original Table 6 reproduction: stream counts → worker threads
/// over independent (kz, E) electron solves.
fn scaling_table(quick: bool) {
    println!("Table 6: Concurrency in Green's Functions (streams -> worker threads)\n");
    let dev = DeviceStructure::build(DeviceConfig::demo());
    let nk = 2usize;
    let ne = if quick { 8 } else { 24 };
    let kzs: Vec<f64> = (0..nk).map(|i| i as f64).collect();
    let es: Vec<f64> = (0..ne)
        .map(|i| -0.8 + 1.6 * i as f64 / (ne - 1) as f64)
        .collect();
    // The solver's own engine: one edge-free scheduler task per point.
    let mut points = TaskDag::new();
    for _ in 0..nk * ne {
        points.add_task("gf_point", &[]);
    }
    let run_with = |threads: usize| -> f64 {
        timed_min(2, || {
            let solves = points.run(threads, |idx| {
                let (ik, ie) = (idx / ne, idx % ne);
                let mut solver = ElectronSolver::new(
                    &dev,
                    vec![0.0; dev.num_atoms()],
                    ElectronParams::default(),
                    CacheMode::NoCache,
                    kzs.clone(),
                    es.clone(),
                );
                std::hint::black_box(solver.solve_point(ik, ie, None, None, None));
            });
            solves.expect("point solves do not panic");
        })
    };
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let w = [12, 12, 10];
    header(&["Streams", "Time [s]", "Speedup"], &w);
    let base = run_with(1);
    let counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 16] };
    for &t in counts
        .iter()
        .chain((!counts.contains(&auto)).then_some(&auto))
    {
        let time = if t == 1 { base } else { run_with(t) };
        row(
            &[
                if t == auto {
                    format!("auto ({t})")
                } else {
                    t.to_string()
                },
                format!("{time:.3}"),
                format!("{:.2}x", base / time),
            ],
            &w,
        );
    }
    println!("\npaper (Summit): 10.07 / 9.94 / 9.86 / 9.61 / 9.32 s for 1/2/4/16/auto(32)");
}

/// One sweep point: a tiny serial-per-point simulation, bias varied so
/// the points are distinct but every run of this function is identical.
fn sweep_sims(points: usize, iters: usize) -> Vec<Simulation> {
    (0..points)
        .map(|i| {
            let mut cfg = SimulationConfig::tiny();
            cfg.executor = ExecutorKind::Serial;
            cfg.max_iterations = iters;
            cfg.mu_drain = 0.01 * i as f64;
            Simulation::new(cfg).expect("valid sweep point")
        })
        .collect()
}

/// The `--execute` leg: serial vs overlapped wall, model vs measured
/// overlap.
fn execute_leg(quick: bool) {
    let suffix = if quick { "_quick" } else { "" };
    let (points, iters) = if quick { (4, 4) } else { (8, 6) };
    println!("\n--execute: {points}-point sweep, {iters} Born iterations/point, window 2\n");

    // Both legs run twice and keep the faster repetition (with its
    // matching trace snapshot): the sweep is deterministic, so the min
    // wall is the honest cost and first-run warmup cancels out.
    let reps = 2;

    // --- serial reference, traced: phase busy times feed the model ---
    let mut serial_secs = f64::INFINITY;
    let mut serial_snap = trace::TraceSnapshot::default();
    let mut serial = Vec::new();
    for _ in 0..reps {
        trace::reset();
        trace::arm();
        let t0 = Instant::now();
        let results: Vec<SimulationResult> = sweep_sims(points, iters)
            .into_iter()
            .map(|mut s| s.run().expect("serial sweep point"))
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        let snap = trace::snapshot();
        trace::disarm();
        if secs < serial_secs {
            (serial_secs, serial_snap, serial) = (secs, snap, results);
        }
    }
    let tasks: usize = serial.iter().map(|r| r.records.len()).sum();

    // The two-resource pipeline model, evaluated at the serial run's
    // measured per-iteration GF/SSE stage costs.
    let model = omen_perf::StreamModel::from_trace(&serial_snap, tasks);

    // --- the same sweep, whole points as scheduler tasks ---
    let mut overlap_secs = f64::INFINITY;
    let mut snap = trace::TraceSnapshot::default();
    let mut outcomes = Vec::new();
    for _ in 0..reps {
        trace::reset();
        trace::arm();
        let t0 = Instant::now();
        let out = run_overlapped(sweep_sims(points, iters), 2);
        let secs = t0.elapsed().as_secs_f64();
        let rep_snap = trace::snapshot();
        trace::disarm();
        if secs < overlap_secs {
            (overlap_secs, snap, outcomes) = (secs, rep_snap, out);
        }
    }

    // The schedule must not change the physics: bit-identical currents.
    for (s, o) in serial.iter().zip(&outcomes) {
        let o = o.finished().expect("overlapped sweep point");
        assert_eq!(
            s.current().to_bits(),
            o.current().to_bits(),
            "overlapped executor drifted from serial"
        );
    }

    let gf_busy = snap.phase_ns("gf_phase") as f64 * 1e-9;
    let sse_busy = snap.phase_ns("sse_phase") as f64 * 1e-9;
    let measured = omen_perf::measured_overlap_fraction(gf_busy, sse_busy, overlap_secs);

    let w = [14, 12, 12, 12];
    header(&["variant", "wall [s]", "points/s", "overlap"], &w);
    row(
        &[
            "serial".into(),
            format!("{serial_secs:.3}"),
            format!("{:.2}", points as f64 / serial_secs),
            "-".into(),
        ],
        &w,
    );
    row(
        &[
            "overlapped".into(),
            format!("{overlap_secs:.3}"),
            format!("{:.2}", points as f64 / overlap_secs),
            format!("{:.0}%", 100.0 * measured),
        ],
        &w,
    );
    row(
        &[
            "model".into(),
            format!("{:.3}", model.pipelined_wall()),
            format!("{:.2}", points as f64 / model.pipelined_wall()),
            format!("{:.0}%", 100.0 * model.overlap_fraction()),
        ],
        &w,
    );
    println!(
        "\nmeasured {:.2}x vs modeled {:.2}x (pipeline floor) speedup over {tasks} iterations \
         (gf {:.1} ms, sse {:.1} ms per iteration)",
        serial_secs / overlap_secs,
        model.speedup(),
        1e3 * model.gf_s,
        1e3 * model.sse_s
    );

    if let Some(path) = arg_value("--trace-out") {
        std::fs::write(&path, trace::chrome_trace_json(&snap)).expect("write chrome trace");
        println!("trace: wrote {path} ({} phase windows)", snap.phases.len());
    }
    trace::reset();

    if json_flag() {
        let per_point = |secs: f64| secs * 1e9 / points as f64;
        let records = [
            BenchRecord {
                name: format!("sweep_stream_serial{suffix}"),
                n: points,
                median_ns: per_point(serial_secs),
                gflops: points as f64 / serial_secs,
            },
            BenchRecord {
                name: format!("sweep_stream_overlap{suffix}"),
                n: std::thread::available_parallelism().map_or(1, |n| n.get()),
                median_ns: per_point(overlap_secs),
                gflops: measured,
            },
            BenchRecord {
                name: format!("sweep_stream_model{suffix}"),
                n: tasks,
                median_ns: per_point(model.pipelined_wall()),
                gflops: model.speedup(),
            },
        ];
        write_bench_json(BENCH_SWEEPS_JSON_PATH, &records).expect("write BENCH_sweeps.json");
        println!("wrote {BENCH_SWEEPS_JSON_PATH}");
    }
}
