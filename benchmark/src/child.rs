//! What one child process measures: a cold solve in a fresh address
//! space, as a user's run is. The parent spawns one child per repetition
//! and reads the single JSON line the child prints last.
//!
//! `sample` runs with tracing disarmed and feeds the end-to-end metrics.
//! `traced` arms `omen-trace`, drives the Born loop phase by phase inside
//! the benchmark's own spans, then runs the per-layer probes disarmed.

use crate::host;
use crate::json::Value;
use crate::layers::{self, Values};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{run_sweep, start_server, sweep_spec, Outcome, Workload};
use dace_omen::core::{DriverError, Simulation, SimulationResult};
use dace_omen::rgf::PhaseTimes;
use dace_omen::trace::{self, Counter, TraceSnapshot};
use std::path::Path;
use std::time::Instant;

const SETUP_REPS: usize = 21;

fn build(w: Workload, seed: u64, quick: bool) -> Simulation {
    w.config(seed, quick)
        .into_builder()
        .build()
        .expect("workload configurations are valid")
}

fn outcome_json(out: &Outcome) -> Vec<(&'static str, Value)> {
    let iters: Vec<f64> = out.iters.iter().map(|&i| f64::from(i)).collect();
    vec![
        ("currents", Value::nums(&out.currents)),
        ("iters", Value::nums(&iters)),
        ("nonuniformity", Value::nums(&out.nonuniformity)),
        (
            "errors",
            Value::Arr(out.errors.iter().map(|e| Value::str(e)).collect()),
        ),
    ]
}

/// Wall clock of the timed solve, and what the hypervisor took of it.
struct Clocked {
    wall_s: f64,
    /// Summed over CPUs and read in 10 ms ticks: a diagnostic.
    steal_s: f64,
}

fn clocked<R>(f: impl FnOnce() -> R) -> (R, Clocked) {
    let steal0 = host::steal_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let steal_s = (host::steal_seconds() - steal0).max(0.0);
    (out, Clocked { wall_s, steal_s })
}

/// The timed solve, as every child reports it, and the host probe, which
/// runs last so that it changes nothing the child timed.
fn clocked_json(c: &Clocked) -> Vec<(&'static str, Value)> {
    vec![
        ("solve_s", Value::Num(c.wall_s)),
        ("steal_s", Value::Num(c.steal_s)),
        ("fma_gflops", Value::Num(host::fma_gflops())),
    ]
}

/// Reads back what [`outcome_json`] wrote.
pub fn outcome_from_json(v: &Value) -> Option<Outcome> {
    Some(Outcome {
        currents: v.f64s("currents")?,
        iters: v.f64s("iters")?.into_iter().map(|x| x as u32).collect(),
        nonuniformity: v.f64s("nonuniformity")?,
        errors: v
            .get("errors")?
            .as_arr()?
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string))
            .collect(),
        ..Outcome::default()
    })
}

/// One cold, untraced solve, then the set-up repetitions.
pub fn sample(w: Workload, seed: u64, quick: bool) -> Value {
    let (out, solve) = if w.is_sweep() {
        let server = start_server();
        let spec = sweep_spec(w, seed, quick);
        clocked(|| run_sweep(&server, spec))
    } else {
        let mut sim = build(w, seed, quick);
        clocked(|| {
            let mut out = Outcome::default();
            out.push_run(sim.run());
            out
        })
    };

    // What a run pays before its first iteration: the simulation (device
    // assembly included) and, for the sweep, the server with its worker.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let sim = build(w, seed, quick);
            let server = w.is_sweep().then(start_server);
            let built = t0.elapsed().as_secs_f64();
            drop((sim, server));
            built
        })
        .collect();

    let mut pairs = vec![("kind", Value::str("sample"))];
    pairs.extend([
        ("setup_s", Value::Num(median(&setups))),
        ("peak_rss_mb", Value::Num(host::peak_rss_mb())),
    ]);
    pairs.extend(clocked_json(&solve));
    pairs.extend(outcome_json(&out));
    Value::obj(pairs)
}

/// Instrumentation calls an armed run made, counted from the registry:
/// every span, phase and event (enter and drop), one counter update per
/// `gemm`, three per `sbsmm`, one per comm call and per SSE kernel run.
fn trace_calls(snap: &TraceSnapshot) -> u64 {
    let sse_runs = snap.spans.iter().filter(|s| s.name == "sse_kernel").count() as u64;
    2 * (snap.spans.len() + snap.phases.len() + snap.events.len()) as u64
        + snap.counter(Counter::GemmCalls)
        + 3 * snap.counter(Counter::SbsmmCalls)
        + snap.counter(Counter::CommCalls)
        + sse_runs
}

fn phase_shares(times: &PhaseTimes, out: &mut Values) {
    let total = times.total().as_secs_f64().max(f64::MIN_POSITIVE);
    out.push(("rgf.spec_share", times.specialization.as_secs_f64() / total));
    out.push(("rgf.bc_share", times.boundary.as_secs_f64() / total));
    out.push(("rgf.rgf_share", times.rgf.as_secs_f64() / total));
}

/// What the armed part of a traced child hands to the probes.
struct TracedSolve {
    outcome: Outcome,
    /// A converged simulation of the workload, for the probes.
    sim: Simulation,
    values: Values,
    spans: Value,
    solve: Clocked,
    snapshot: TraceSnapshot,
}

/// Drives the Born loop from outside — `gf_phase()` then
/// `finish_iteration()` with `run_with`'s stopping rule — so each phase
/// of each iteration is a span of the benchmark's own.
fn traced_direct(w: Workload, seed: u64, quick: bool) -> TracedSolve {
    let mut sim = build(w, seed, quick);
    let cfg = sim.config().clone();
    let mut rec = Recorder::new(1);
    let mut records = Vec::new();
    let mut spectral = None;
    let mut converged = false;

    trace::reset();
    trace::arm();
    let (root, solve) = clocked(|| {
        let root = rec.enter("solve");
        while sim.iterations_done() < cfg.max_iterations && !converged {
            let it = rec.enter("born_iteration");
            let gf_span = rec.enter("core.gf_phase");
            let gf = sim.gf_phase();
            rec.exit(gf_span);
            let finish = rec.enter("core.finish_iteration");
            let (record, spec) = sim.finish_iteration(gf);
            rec.exit(finish);
            rec.reported_child(finish, "sse.kernel", record.sse_seconds);
            rec.exit(it);
            converged = record.iteration > 0 && record.rel_change < cfg.tolerance;
            let finite = record.current.is_finite();
            records.push(record);
            spectral = Some(spec);
            if !finite {
                break;
            }
        }
        rec.exit(root);
        root
    });
    let snapshot = trace::snapshot();
    trace::disarm();

    let iters = records.len();
    let mut times = PhaseTimes::default();
    records.iter().for_each(|r| times.accumulate(&r.gf_times));
    let sse_secs: f64 = records.iter().map(|r| r.sse_seconds).sum();
    // Judged as `Simulation::run` judges its own loop.
    let mut out = Outcome::default();
    out.push_run(match (records.last(), spectral) {
        (Some(last), _) if !last.current.is_finite() => Err(DriverError::NonFinite {
            iteration: last.iteration,
        }),
        (Some(_), Some(spectral)) if converged => Ok(SimulationResult { records, spectral }),
        (last, _) => Err(DriverError::Unconverged {
            iterations: iters,
            rel_change: last.map_or(f64::INFINITY, |r| r.rel_change),
        }),
    });

    let per_iter_ms = |ns: u64| ns as f64 / 1e6 / iters.max(1) as f64;
    let finish_ms = per_iter_ms(rec.total_ns("core.finish_iteration"));
    let sse_ms = sse_secs * 1e3 / iters.max(1) as f64;
    let other_ns = rec.self_ns(root)
        + rec
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "born_iteration")
            .map(|(id, _)| rec.self_ns(id))
            .sum::<u64>();
    let mut values: Values = vec![
        (
            "core.gf_phase_ms",
            per_iter_ms(rec.total_ns("core.gf_phase")),
        ),
        ("core.finish_ms", finish_ms),
        ("core.sse_ms", sse_ms),
        ("core.mix_ms", finish_ms - sse_ms),
        (
            "core.other_share",
            other_ns as f64 / rec.spans()[root].dur_ns().max(1) as f64,
        ),
    ];
    phase_shares(&times, &mut values);
    TracedSolve {
        outcome: out,
        sim,
        values,
        spans: rec.to_json(),
        solve,
        snapshot,
    }
}

/// The sweep cannot be driven phase by phase from outside, so this reads
/// what the program already records: `omen-trace` phase windows and
/// spans, and the job's own metrics. The probes then get a converged
/// simulation of the base scenario, solved cold with tracing disarmed.
fn traced_sweep(w: Workload, seed: u64, quick: bool) -> TracedSolve {
    let mut rec = Recorder::new(1);
    trace::reset();
    trace::arm();
    let server = start_server();
    let spec = sweep_spec(w, seed, quick);
    let (out, solve) = clocked(|| {
        let job = rec.enter("serve.job");
        let out = run_sweep(&server, spec);
        rec.exit(job);
        out
    });
    // Joins the worker, so every span guard has dropped.
    drop(server);
    let snapshot = trace::snapshot();
    trace::disarm();

    let iters = f64::from(out.born_iters().max(1));
    let span_ns = |name: &str| -> u64 {
        snapshot
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    };
    let per_iter_ms = |ns: u64| ns as f64 / 1e6 / iters;
    let born_ns = span_ns("born_iteration");
    let gf_ns = snapshot.phase_ns("gf_phase");
    let sse_ns = snapshot.phase_ns("sse_phase");
    let mut values: Values = vec![
        ("core.gf_phase_ms", per_iter_ms(gf_ns)),
        ("core.finish_ms", per_iter_ms(born_ns.saturating_sub(gf_ns))),
        ("core.sse_ms", per_iter_ms(sse_ns)),
        (
            "core.mix_ms",
            per_iter_ms(born_ns.saturating_sub(gf_ns + sse_ns)),
        ),
        (
            "core.other_share",
            1.0 - born_ns as f64 / (solve.wall_s * 1e9),
        ),
    ];

    let mut sim = build(w, seed, quick);
    let mut times = PhaseTimes::default();
    if let Ok(run) = sim.run() {
        run.records
            .iter()
            .for_each(|r| times.accumulate(&r.gf_times));
    }
    phase_shares(&times, &mut values);
    TracedSolve {
        outcome: out,
        sim,
        values,
        spans: rec.to_json(),
        solve,
        snapshot,
    }
}

/// One traced cold solve and every per-layer probe. Writes the
/// `omen-trace` snapshot as a chrome trace into `artifacts`, if given.
pub fn traced(w: Workload, seed: u64, quick: bool, artifacts: Option<&Path>) -> Value {
    let solve = if w.is_sweep() {
        traced_sweep(w, seed, quick)
    } else {
        traced_direct(w, seed, quick)
    };
    let TracedSolve {
        outcome,
        sim,
        mut values,
        spans,
        solve,
        snapshot,
    } = solve;

    let mut chrome_path = Value::Null;
    if let Some(dir) = artifacts {
        let path = dir.join(format!("{}.seed-{seed}.chrome.json", w.name()));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(&snapshot)))
        {
            Ok(()) => chrome_path = Value::Str(path.display().to_string()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    let iters = f64::from(outcome.born_iters().max(1));
    let params = layers::sim_params(&sim);
    let gf_flops = snapshot.phase_delta("gf_phase", Counter::GemmFlops)
        + snapshot.phase_delta("gf_phase", Counter::SbsmmFlops);
    values.push(("core.born_iters", f64::from(outcome.born_iters())));
    values.push((
        "rgf.flops_ratio",
        gf_flops as f64 / iters / dace_omen::perf::rgf_flops_total(&params),
    ));
    values.push((
        "linalg.gemm_calls",
        snapshot.counter(Counter::GemmCalls) as f64,
    ));
    values.push((
        "linalg.gemm_flops",
        snapshot.counter(Counter::GemmFlops) as f64,
    ));
    values.push((
        "linalg.sbsmm_calls",
        snapshot.counter(Counter::SbsmmCalls) as f64,
    ));
    values.push((
        "linalg.sbsmm_flops",
        snapshot.counter(Counter::SbsmmFlops) as f64,
    ));
    values.push((
        "linalg.bytes_packed",
        snapshot.counter(Counter::BytesPacked) as f64,
    ));
    values.push((
        "trace.calls_per_iter",
        trace_calls(&snapshot) as f64 / iters,
    ));
    let (hits, misses) = sim
        .boundary_stats()
        .map_or((0, 0), |(e, p)| (e.hits + p.hits, e.misses + p.misses));
    values.push((
        "rgf.bc_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    // The service's own accounting; zero where no service is involved.
    let job = outcome.job.unwrap_or_default();
    values.push(("serve.warm_points", f64::from(job.warm_points)));
    values.push(("serve.iters_saved", f64::from(job.iterations_saved)));
    values.push(("serve.cache_hit_rate", job.cache_hit_rate()));
    values.push(("serve.retries", f64::from(job.retries)));
    values.push(("serve.cache_bytes", outcome.cache_bytes as f64));

    values.extend(layers::probe_all(w, &sim));

    let mut pairs = vec![("kind", Value::str("traced"))];
    pairs.extend(clocked_json(&solve));
    pairs.extend([
        ("block_size", Value::Num(sim.device.block_size_el() as f64)),
        (
            "model_flops_per_iter",
            Value::Num(layers::model_flops_per_iter(&params)),
        ),
        ("chrome_trace", chrome_path),
        ("spans", spans),
        (
            "layers",
            Value::Obj(
                values
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    pairs.extend(outcome_json(&outcome));
    Value::obj(pairs)
}
