//! CI perf-regression gate over the committed bench trajectory files.
//!
//! Accepts repeated `--baseline <committed.json> --fresh <new.json>`
//! pairs (matched positionally) and runs two checks per pair; any failure
//! exits 1:
//!
//! 1. **Baseline comparison** — every gated `_quick` record in the fresh
//!    file is compared against the committed baseline copy and must not
//!    regress by more than the noise tolerance (default 2×, wide because
//!    hosted-runner generations differ). A baseline *file* that does not
//!    exist yet (a bench family added in the current PR) is reported
//!    per-file and its records count as new — it does not trip the
//!    vacuous-gate failure, which now only fires when *no pair at all*
//!    produced a comparison or a new record.
//! 2. **Within-run floors** — machine-independent backstops computed
//!    inside a single fresh file, applied only when that family's records
//!    are present: the packed batched kernel must beat the scalar loop by
//!    `--min-speedup` (default 1.2×) on the 12 × 12 stage-C shape, the
//!    energy-plane stages C and D must each beat their scalar loop by
//!    [`MIN_PLANES_SPEEDUP`] on the 3 × 3 one, stage A on energy planes
//!    must beat its block-at-a-time `sbsmm` loop by
//!    [`MIN_STAGE_A_SPEEDUP`] at 3 × 3 and 4 × 4, the RGF recursion on four
//!    energy lanes (`rgf_row_warm_small_*`) must beat the same code on one
//!    lane (`rgf_point_warm_small_*`, the warm point solve) by
//!    [`MIN_ROW_SPEEDUP`] (both from `rgf_point`; a file with
//!    `rgf_point_*` records but no row record fails), the Sancho-Rubio
//!    decimation on four lanes (`sr_lanes_warm_*`) must beat it on one
//!    lead (`sr_point_warm_*`) by [`MIN_SR_LANES_SPEEDUP`] (same bin, same
//!    rule), four block inverses as one lane LU (`lu_lanes_bs{12,32}_*`)
//!    must beat four `invert_into` calls (`lu_point_bs{12,32}_*`) by
//!    [`MIN_LU_LANES_SPEEDUP`] (same bin, same rule), one 4-lane lane GEMM
//!    at 32 × 32 (`planes_gemm_lanes_bs32_*`) must beat four packed
//!    `gemm` calls (`planes_gemm_point_bs32_*`) by
//!    [`MIN_GEMM_LANES_SPEEDUP`] (same bin, same rule) — the four floors
//!    measure 4 lanes ÷ 1 lane of one operation — and the
//!    warm-started sweep
//!    must save Born iterations (strict, deterministic)
//!    while keeping at least `--min-sweep-speedup` (default 0.9×) of the
//!    cold sweep's points/second. The iteration count is the real warm-
//!    start gate — it is exact on every machine; the quick sweep's wall
//!    clock is noise-dominated on small runners (only ~10 % of its
//!    iterations are saved), so its throughput floor is a gross-regression
//!    backstop, not a speedup assertion. The full-mode records committed
//!    in `BENCH_sweeps.json` carry the measured speedup.
//!
//! Gated records: names containing `packed`, or starting with
//! `sse_stage` (but not the `scalar` baselines) or `sweep_`, with the
//! `_quick` suffix — full-mode records are committed for the
//! README table but re-measured rarely.
//!
//! A third within-run floor bounds the fault-injection machinery: the
//! measured `should_inject` probe (`sweep_fault_probe_quick`) times a
//! generous 64-calls-per-point budget must stay under
//! `--max-fault-overhead` (default 2 %) of a warm point's wall time, and
//! a fault-free run must report zero retries/fallbacks/quarantines in
//! `sweep_fault_retries_quick`.
//!
//! A fourth floor bounds disarmed tracing the same way: the measured
//! per-call cost of one disarmed `omen-trace` instrumentation call
//! (`sweep_trace_probe_quick.median_ns`) times the instrumentation calls
//! an armed warm point actually made (`.n`) must stay under
//! `--max-trace-overhead` (default 2 %) of a warm point's wall time. The
//! `sweep_trace*` records are excluded from the cross-run ratio table
//! like the fault records.
//!
//! One floor gates the overlapped sweep (`table6_streams --execute`
//! records): it must not run slower than the serial one on a ≥2-point
//! sweep (`--min-overlap-speedup`, default 1.0).
//!
//! A communication-volume band gates the distributed Born loop
//! (`table45_comm --execute` records): every `comm45_*_quick` record
//! carries the measured/model volume ratio in `gflops`, and it must sit
//! inside `[--min-comm-ratio, --max-comm-ratio]` (defaults 0.15–1.5).
//! Both sides are deterministic — the ledger counts exact bytes and the
//! model is analytic — so the band is machine-independent; it catches a
//! plan that starts moving the wrong amount of data or a model that
//! drifts from the executed schedule. The `comm45_*` records also join
//! the cross-run table (`median_ns` = bytes per Born iteration, exact,
//! so any drift against the committed baseline is a real change).
//!
//! The same family carries the distributed rung of the ladder,
//! `comm45_plan_vs_local_{dace,omen}_r2_quick`: `gflops` = the warm plan
//! kernel's wall ÷ the warm `TransformedKernel`'s on the same tensors in
//! the same process, `n` = the host's cores. A `comm45` file without the
//! DaCe record fails; with two or more cores its ratio must not exceed
//! [`MAX_PLAN_VS_LOCAL`] (each rank runs the local kernel's stages on
//! half the atoms). These records stay out of the volume band and, being
//! a within-run ratio, out of the cross-run table.
//!
//! `--trace-out PATH` adds a trace-artifact check (and may run with zero
//! baseline/fresh pairs): `PATH` must be well-formed chrome://tracing
//! JSON containing at least one `gf_phase`, one `sse_phase`, and one
//! `comm_*` duration event. Adding `--require-overlap NAME1,NAME2`
//! switches the artifact check to the overlapped-sweep contract: both
//! names must appear and overlap in wall-clock time on different threads
//! (`gf_phase,gf_phase`: two points' GF phases ran at once).
//!
//! ```text
//! perf_check --baseline BENCH_kernels.json --fresh fresh_kernels.json \
//!            --baseline BENCH_sweeps.json  --fresh fresh_sweeps.json \
//!            [--tolerance 2.0] [--min-speedup 1.2] [--min-sweep-speedup 0.9] \
//!            [--max-fault-overhead 0.02] [--max-trace-overhead 0.02] \
//!            [--min-overlap-speedup 1.0] \
//!            [--min-comm-ratio 0.15] [--max-comm-ratio 1.5] \
//!            [--trace-out trace.json] [--require-overlap gf_phase,gf_phase]
//! ```

use omen_bench::{parse_bench_json, BenchRecord};
use std::process::ExitCode;

fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    arg_values(args, flag).pop()
}

/// `true` for records the gate covers: packed-kernel, energy-plane SSE
/// stage and sweep-service quick-mode entries (their scalar baselines
/// only feed the within-run floors). The `sweep_fault_*` and
/// `sweep_trace*` records are excluded from the cross-run ratio table —
/// they carry raw counters and nanosecond/microsecond-scale probes too
/// noisy for a 2x machine-to-machine gate — and are instead consumed by
/// the within-run overhead floors.
fn gated(name: &str) -> bool {
    (name.contains("packed")
        || name.starts_with("sse_stage")
        || name.starts_with("sweep_")
        || name.starts_with("comm45_"))
        && name.ends_with("_quick")
        && !name.contains("scalar")
        && !name.contains("fault")
        && !name.contains("trace")
        && !name.contains(PLAN_VS_LOCAL)
}

/// Floor on the energy-plane stages C and D over their block-at-a-time
/// scalar loops at `Norb = 3` (`table9_sbsmm`; committed full-mode ratios
/// 12.0 and 6.9 on an AVX-512 host, 5.4 and 5.1 on four lanes).
const MIN_PLANES_SPEEDUP: f64 = 1.5;

/// Floor on SSE stage A on energy planes (`stages::grad_g`: `G` packed
/// once, one `planes_lmul` per direction) over the same products one
/// block at a time through `sbsmm`'s scalar loop, at 3 × 3 and 4 × 4
/// (`table9_sbsmm`; a prototype of the plane kernel read 2.9–4.8× per
/// SSE application on the benchmark devices).
const MIN_STAGE_A_SPEEDUP: f64 = 2.0;

/// Floor on the RGF recursion on four energy lanes over the same code on
/// one lane, 12 × 12 blocks (`rgf_point`; 40 quick runs on a 2-vCPU
/// AVX-512 host: 1.72–3.04×, median 2.59×).
const MIN_ROW_SPEEDUP: f64 = 1.5;

/// Floor on the decimation of four 12 × 12 leads as lanes over one lead at
/// a time, the same code on one lane (`rgf_point`; 40 quick runs on a
/// 2-vCPU AVX-512 host: 1.55–2.34×, median 1.75×).
const MIN_SR_LANES_SPEEDUP: f64 = 1.4;

/// Floor on four block inverses as one lane LU (`planes_invert`) over
/// four `Workspace::invert_into` calls, at 12 × 12 and 32 × 32
/// (`rgf_point`; quick and full runs on a 2-vCPU AVX-512 host:
/// 2.7–3.8×).
const MIN_LU_LANES_SPEEDUP: f64 = 2.0;

/// Floor on one 4-lane `lane_gemm` over four packed `gemm` calls at
/// 32 × 32 (`rgf_point` on a 2-vCPU AVX-512 host: quick runs read
/// 1.6–1.7× on the four-lane AVX2 step, 2.8–3.3× on the AVX-512 row-pair
/// step), so a host without AVX-512 clears it too.
const MIN_GEMM_LANES_SPEEDUP: f64 = 1.4;

/// Name stem of the plan-wall ÷ local-wall ladder records.
const PLAN_VS_LOCAL: &str = "comm45_plan_vs_local_";

/// Ceiling on the 2-rank DaCe plan's wall over the single-address-space
/// transformed kernel's, on hosts with a core per rank.
const MAX_PLAN_VS_LOCAL: f64 = 1.5;

/// Outcome of one baseline/fresh pair.
struct PairOutcome {
    compared: usize,
    new_records: usize,
    regressed: usize,
    failed_floors: usize,
}

/// Every threshold the per-pair checks gate on, bundled so the gate's
/// growing flag surface stays one argument.
struct Floors {
    tolerance: f64,
    min_speedup: f64,
    min_sweep_speedup: f64,
    max_fault_overhead: f64,
    max_trace_overhead: f64,
    min_overlap_speedup: f64,
    min_comm_ratio: f64,
    max_comm_ratio: f64,
}

fn check_pair(baseline_path: &str, fresh_path: &str, floors: &Floors) -> PairOutcome {
    let &Floors {
        tolerance,
        min_speedup,
        min_sweep_speedup,
        max_fault_overhead,
        max_trace_overhead,
        min_overlap_speedup,
        min_comm_ratio,
        max_comm_ratio,
    } = floors;
    let mut out = PairOutcome {
        compared: 0,
        new_records: 0,
        regressed: 0,
        failed_floors: 0,
    };
    let fresh = match std::fs::read_to_string(fresh_path) {
        Ok(text) => parse_bench_json(&text),
        Err(e) => {
            // A missing *fresh* file means the smoke run did not happen —
            // that is a hard failure, not a skip.
            eprintln!("perf_check: cannot read fresh {fresh_path}: {e}");
            out.failed_floors += 1;
            return out;
        }
    };
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => Some(parse_bench_json(&text)),
        Err(_) => {
            // Per-file report: a bench family introduced in this PR has no
            // committed baseline yet. Its records are new, not vacuous.
            println!(
                "{baseline_path}: no committed baseline — reporting {fresh_path} records as new"
            );
            None
        }
    };

    println!(
        "\n{fresh_path} vs {baseline_path} (tolerance {tolerance:.2}x)\n{:<36} {:>14} {:>14} {:>8}",
        "name", "baseline [us]", "fresh [us]", "ratio"
    );
    for f in fresh.iter().filter(|r| gated(&r.name)) {
        let b = baseline
            .as_ref()
            .and_then(|b| b.iter().find(|r| r.name == f.name));
        let Some(b) = b else {
            out.new_records += 1;
            println!(
                "{:<36} {:>14} {:>14.1} {:>8}",
                f.name,
                "(new)",
                f.median_ns / 1e3,
                "-"
            );
            continue;
        };
        out.compared += 1;
        let ratio = f.median_ns / b.median_ns;
        let verdict = if ratio > tolerance {
            out.regressed += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{:<36} {:>14.1} {:>14.1} {:>7.2}x {verdict}",
            f.name,
            b.median_ns / 1e3,
            f.median_ns / 1e3,
            ratio
        );
    }

    // Within-run floors, applied per family present in this fresh file.
    // Both sides of a floor come from the same run on the same machine,
    // so the ratios are immune to runner-class variance.
    let find = |prefix: &str| {
        fresh
            .iter()
            .find(|r| r.name.starts_with(prefix) && r.name.ends_with("_quick"))
    };
    if fresh.iter().any(|r| r.name.starts_with("sbsmm_")) {
        // (fast kernel, scalar loop of the same shape, floor)
        for (fast, scalar, floor) in [
            (
                "sbsmm_packed_sseC_12x12",
                "sbsmm_scalar_sseC_12x12",
                min_speedup,
            ),
            (
                "sse_stageC_planes_3x3",
                "sbsmm_scalar_sseC_3x3",
                MIN_PLANES_SPEEDUP,
            ),
            (
                "sse_stageD_dots_3x3",
                "sse_stageD_scalar_3x3",
                MIN_PLANES_SPEEDUP,
            ),
            (
                "sse_stageA_planes_3x3",
                "sse_stageA_scalar_3x3",
                MIN_STAGE_A_SPEEDUP,
            ),
            (
                "sse_stageA_planes_4x4",
                "sse_stageA_scalar_4x4",
                MIN_STAGE_A_SPEEDUP,
            ),
        ] {
            let (Some(fast), Some(scalar)) = (find(fast), find(scalar)) else {
                eprintln!(
                    "perf_check: {fresh_path} has sbsmm records but lacks the {fast}/{scalar} \
                     quick pair — the floor would be vacuous; failing"
                );
                out.failed_floors += 1;
                continue;
            };
            let speedup = scalar.median_ns / fast.median_ns;
            println!(
                "within-run: {} vs {}: {speedup:.2}x (floor {floor:.2}x)",
                fast.name, scalar.name
            );
            if speedup < floor {
                eprintln!(
                    "perf_check: {} speedup {speedup:.2}x fell below the {floor:.2}x floor",
                    fast.name
                );
                out.failed_floors += 1;
            }
        }
    }
    if fresh.iter().any(|r| r.name.starts_with("rgf_point_")) {
        // (4 lanes, 1 lane of the same code on the same work, floor)
        for (lanes, point, floor) in [
            (
                "rgf_row_warm_small",
                "rgf_point_warm_small",
                MIN_ROW_SPEEDUP,
            ),
            ("sr_lanes_warm", "sr_point_warm", MIN_SR_LANES_SPEEDUP),
            ("lu_lanes_bs12", "lu_point_bs12", MIN_LU_LANES_SPEEDUP),
            ("lu_lanes_bs32", "lu_point_bs32", MIN_LU_LANES_SPEEDUP),
            (
                "planes_gemm_lanes_bs32",
                "planes_gemm_point_bs32",
                MIN_GEMM_LANES_SPEEDUP,
            ),
        ] {
            let (Some(lanes), Some(point)) = (find(lanes), find(point)) else {
                eprintln!(
                    "perf_check: {fresh_path} has rgf_point records but lacks the \
                     {lanes}/{point} quick pair — the floor would be vacuous; failing"
                );
                out.failed_floors += 1;
                continue;
            };
            let speedup = lanes.gflops / point.gflops;
            println!(
                "within-run: {} vs {}: {speedup:.2}x (floor {floor:.2}x)",
                lanes.name, point.name
            );
            if speedup.is_nan() || speedup < floor {
                eprintln!(
                    "perf_check: {} speedup {speedup:.2}x fell below the {floor:.2}x floor",
                    lanes.name
                );
                out.failed_floors += 1;
            }
        }
    }
    if fresh.iter().any(|r| r.name.starts_with("sweep_")) {
        match (find("sweep_warm"), find("sweep_cold")) {
            (Some(warm), Some(cold)) => {
                let speedup = warm.gflops / cold.gflops;
                println!(
                    "within-run: {} vs {}: {speedup:.2}x points/s (floor \
                     {min_sweep_speedup:.2}x), Born iterations {} vs {}",
                    warm.name, cold.name, warm.n, cold.n
                );
                if speedup < min_sweep_speedup {
                    eprintln!(
                        "perf_check: warm sweep throughput {speedup:.2}x fell below the \
                         {min_sweep_speedup:.2}x floor"
                    );
                    out.failed_floors += 1;
                }
                if warm.n >= cold.n {
                    eprintln!(
                        "perf_check: warm sweep saved no Born iterations ({} vs {})",
                        warm.n, cold.n
                    );
                    out.failed_floors += 1;
                }
            }
            _ => {
                eprintln!(
                    "perf_check: {fresh_path} has sweep records but lacks the warm/cold quick \
                     pair — the floor would be vacuous; failing"
                );
                out.failed_floors += 1;
            }
        }
        // Fault-machinery floor: the injection hooks on the worker hot
        // path must be invisible when no plan is armed. A point makes at
        // most a handful of `should_inject` calls per attempt (panic,
        // donor, NaN, journal sites) times the retry cap; 64 calls is a
        // generous bound. `probe.gflops` records whether a fault plan
        // was armed during the bench (1.0 = armed).
        if let (Some(probe), Some(warm)) = (find("sweep_fault_probe"), find("sweep_warm")) {
            let overhead = 64.0 * probe.median_ns / warm.median_ns;
            println!(
                "within-run: fault hooks {:.1} ns/call -> {:.4}% of a warm point (cap {:.1}%)",
                probe.median_ns,
                100.0 * overhead,
                100.0 * max_fault_overhead
            );
            // NaN (e.g. a zeroed warm record) must fail, not pass.
            if overhead.is_nan() || overhead > max_fault_overhead {
                eprintln!(
                    "perf_check: fault machinery costs {:.4}% of a warm point, above the \
                     {:.1}% cap",
                    100.0 * overhead,
                    100.0 * max_fault_overhead
                );
                out.failed_floors += 1;
            }
            if probe.gflops == 0.0 {
                // No plan armed: the sweep must not have retried at all.
                if let Some(counters) = find("sweep_fault_retries") {
                    if counters.n != 0 || counters.median_ns != 0.0 || counters.gflops != 0.0 {
                        eprintln!(
                            "perf_check: fault-free sweep reported recovery activity \
                             (retries {}, cold fallbacks {}, quarantined {})",
                            counters.n, counters.median_ns, counters.gflops
                        );
                        out.failed_floors += 1;
                    }
                }
            }
        }
        // Disarmed-tracing floor: `n` instrumentation calls per warm
        // point (counted from the armed run) times the measured disarmed
        // per-call cost must be invisible next to a warm point's wall
        // time. This is the cost every *untraced* run pays for the
        // instrumentation being compiled in.
        if let (Some(probe), Some(warm)) = (find("sweep_trace_probe"), find("sweep_warm")) {
            let overhead = probe.n as f64 * probe.median_ns / warm.median_ns;
            println!(
                "within-run: disarmed tracing {} calls/point x {:.2} ns -> {:.4}% of a warm \
                 point (cap {:.1}%)",
                probe.n,
                probe.median_ns,
                100.0 * overhead,
                100.0 * max_trace_overhead
            );
            if overhead.is_nan() || overhead > max_trace_overhead {
                eprintln!(
                    "perf_check: disarmed tracing costs {:.4}% of a warm point, above the \
                     {:.1}% cap",
                    100.0 * overhead,
                    100.0 * max_trace_overhead
                );
                out.failed_floors += 1;
            }
        }
        // Stream-overlap floor: on a ≥2-point sweep the overlapped
        // schedule must not be slower than the serial one. Both walls
        // come from the same run of `table6_streams --execute`, so the
        // ratio is machine-independent. Exempt: a 1-point sweep has
        // nothing to overlap, and a single-core machine (the overlap
        // record's `n` carries the bench host's available parallelism)
        // cannot run two points concurrently at all.
        if let (Some(serial), Some(overlap)) =
            (find("sweep_stream_serial"), find("sweep_stream_overlap"))
        {
            let speedup = serial.median_ns / overlap.median_ns;
            println!(
                "within-run: {} vs {}: {speedup:.2}x wall over {} points on {} core(s), \
                 {:.0}% measured overlap (floor {min_overlap_speedup:.2}x)",
                overlap.name,
                serial.name,
                serial.n,
                overlap.n,
                100.0 * overlap.gflops
            );
            if overlap.n < 2 {
                println!("within-run: single-core bench host — overlap speedup floor not applied");
            } else if serial.n >= 2 && (speedup.is_nan() || speedup < min_overlap_speedup) {
                eprintln!(
                    "perf_check: overlapped sweep ran {speedup:.2}x the serial wall on {} \
                     points, below the {min_overlap_speedup:.2}x floor",
                    serial.n
                );
                out.failed_floors += 1;
            }
        }
    }
    // Communication-volume band (`table45_comm --execute` family): the
    // measured/model volume ratio each `comm45_*` record carries in
    // `gflops` is a deterministic function of the device and the plan —
    // no timing anywhere — so a fixed band holds on every machine.
    if fresh.iter().any(|r| r.name.starts_with("comm45_")) {
        let legs: Vec<&BenchRecord> = fresh
            .iter()
            .filter(|r| r.name.starts_with("comm45_") && r.name.ends_with("_quick"))
            .filter(|r| !r.name.starts_with(PLAN_VS_LOCAL))
            .collect();
        if legs.is_empty() {
            eprintln!(
                "perf_check: {fresh_path} has comm45 records but no quick legs — the volume \
                 band would be vacuous; failing"
            );
            out.failed_floors += 1;
        }
        for leg in legs {
            let ratio = leg.gflops;
            println!(
                "within-run: {} moved {:.0} B/iteration on {} ranks, {ratio:.3}x the model \
                 (band {min_comm_ratio:.2}-{max_comm_ratio:.2})",
                leg.name, leg.median_ns, leg.n
            );
            if !(min_comm_ratio..=max_comm_ratio).contains(&ratio) {
                eprintln!(
                    "perf_check: {} measured/model volume ratio {ratio:.3} is outside the \
                     {min_comm_ratio:.2}-{max_comm_ratio:.2} band",
                    leg.name
                );
                out.failed_floors += 1;
            }
        }
        // The distributed ladder rung: both walls come from one process.
        for rung in fresh.iter().filter(|r| r.name.starts_with(PLAN_VS_LOCAL)) {
            println!(
                "within-run: {} took {:.2}x the local transformed kernel on {} cores",
                rung.name, rung.gflops, rung.n
            );
        }
        match find("comm45_plan_vs_local_dace_r2") {
            None => {
                eprintln!(
                    "perf_check: {fresh_path} has comm45 records but no DaCe plan-vs-local \
                     rung — the distributed leg of the ladder is missing; failing"
                );
                out.failed_floors += 1;
            }
            Some(rung) if rung.n < 2 => {
                println!("within-run: single-core bench host — plan-vs-local ceiling not applied")
            }
            Some(rung) if rung.gflops.is_nan() || rung.gflops > MAX_PLAN_VS_LOCAL => {
                eprintln!(
                    "perf_check: the DaCe plan ran {:.2}x the local transformed kernel, above \
                     the {MAX_PLAN_VS_LOCAL:.2}x ceiling",
                    rung.gflops
                );
                out.failed_floors += 1;
            }
            Some(_) => {}
        }
    }
    out
}

/// Validates an exported chrome://tracing artifact. Without
/// `require_overlap`, the artifact must carry duration events from each
/// instrumented subsystem — GF, SSE, and at least one communication
/// plan. With `require_overlap = Some((a, b))` — the overlapped-sweep
/// artifact, which runs no comm leg — the requirement is instead that
/// events named `a` and `b` exist and *overlap in wall-clock time on
/// different threads*: the sweep's concurrency, proven straight off the
/// exported file.
fn check_trace_artifact(path: &str, require_overlap: Option<(&str, &str)>) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perf_check: cannot read trace {path}: {e}");
            return false;
        }
    };
    let stats = match omen_trace::validate_chrome_trace(&text) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("perf_check: {path} is not a valid chrome trace: {e}");
            return false;
        }
    };
    if let Some((a, b)) = require_overlap {
        let overlap = stats.overlap_us(a, b);
        println!(
            "trace artifact {path}: {} events, {} {a} / {} {b} duration events, max \
             cross-thread overlap {overlap:.1} us",
            stats.events,
            stats.spans_named(a),
            stats.spans_named(b),
        );
        let mut ok = true;
        for name in [a, b] {
            if stats.spans_named(name) == 0 {
                eprintln!("perf_check: trace {path} has no {name} duration events");
                ok = false;
            }
        }
        if ok && overlap <= 0.0 {
            eprintln!(
                "perf_check: trace {path} shows no cross-thread overlap between {a} and {b} — \
                 the sweep ran serially"
            );
            ok = false;
        }
        return ok;
    }
    let comm_spans: usize = stats
        .span_names
        .iter()
        .filter(|(n, _)| n.starts_with("comm_"))
        .map(|&(_, c)| c)
        .sum();
    println!(
        "trace artifact {path}: {} events, {} gf_phase / {} sse_phase / {comm_spans} comm_* \
         duration events",
        stats.events,
        stats.spans_named("gf_phase"),
        stats.spans_named("sse_phase"),
    );
    let mut ok = true;
    for (what, count) in [
        ("gf_phase", stats.spans_named("gf_phase")),
        ("sse_phase", stats.spans_named("sse_phase")),
        ("comm_*", comm_spans),
    ] {
        if count == 0 {
            eprintln!("perf_check: trace {path} has no {what} duration events");
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baselines = arg_values(&args, "--baseline");
    let freshes = arg_values(&args, "--fresh");
    let trace_out = arg_value(&args, "--trace-out");
    // `--trace-out` alone is a valid invocation (the CI trace leg); the
    // pair requirement applies once any pair flag appears.
    if (baselines.is_empty() && trace_out.is_none()) || baselines.len() != freshes.len() {
        eprintln!(
            "perf_check: need matched --baseline/--fresh pairs (got {} baselines, {} fresh)",
            baselines.len(),
            freshes.len()
        );
        return ExitCode::from(2);
    }
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance must be a number"))
        .unwrap_or(2.0);
    let min_speedup: f64 = arg_value(&args, "--min-speedup")
        .map(|t| t.parse().expect("--min-speedup must be a number"))
        .unwrap_or(1.2);
    let min_sweep_speedup: f64 = arg_value(&args, "--min-sweep-speedup")
        .map(|t| t.parse().expect("--min-sweep-speedup must be a number"))
        .unwrap_or(0.9);
    let max_fault_overhead: f64 = arg_value(&args, "--max-fault-overhead")
        .map(|t| t.parse().expect("--max-fault-overhead must be a number"))
        .unwrap_or(0.02);
    let max_trace_overhead: f64 = arg_value(&args, "--max-trace-overhead")
        .map(|t| t.parse().expect("--max-trace-overhead must be a number"))
        .unwrap_or(0.02);
    let min_overlap_speedup: f64 = arg_value(&args, "--min-overlap-speedup")
        .map(|t| t.parse().expect("--min-overlap-speedup must be a number"))
        .unwrap_or(1.0);
    let min_comm_ratio: f64 = arg_value(&args, "--min-comm-ratio")
        .map(|t| t.parse().expect("--min-comm-ratio must be a number"))
        .unwrap_or(0.15);
    let max_comm_ratio: f64 = arg_value(&args, "--max-comm-ratio")
        .map(|t| t.parse().expect("--max-comm-ratio must be a number"))
        .unwrap_or(1.5);
    let require_overlap = arg_value(&args, "--require-overlap").map(|spec| {
        let (a, b) = spec
            .split_once(',')
            .expect("--require-overlap takes NAME1,NAME2");
        (a.to_string(), b.to_string())
    });
    if require_overlap.is_some() && trace_out.is_none() {
        eprintln!("perf_check: --require-overlap needs --trace-out");
        return ExitCode::from(2);
    }

    let mut compared = 0usize;
    let mut new_records = 0usize;
    let mut regressed = 0usize;
    let mut failed_floors = 0usize;
    let floors = Floors {
        tolerance,
        min_speedup,
        min_sweep_speedup,
        max_fault_overhead,
        max_trace_overhead,
        min_overlap_speedup,
        min_comm_ratio,
        max_comm_ratio,
    };
    for (baseline_path, fresh_path) in baselines.iter().zip(&freshes) {
        let outcome = check_pair(baseline_path, fresh_path, &floors);
        compared += outcome.compared;
        new_records += outcome.new_records;
        regressed += outcome.regressed;
        failed_floors += outcome.failed_floors;
    }

    if let Some(path) = &trace_out {
        let require = require_overlap
            .as_ref()
            .map(|(a, b)| (a.as_str(), b.as_str()));
        if !check_trace_artifact(path, require) {
            return ExitCode::FAILURE;
        }
    }

    if compared == 0 && new_records == 0 && baselines.is_empty() {
        // Trace-artifact-only invocation: the artifact check above is the
        // whole gate.
        println!("\nperf_check: trace artifact ok");
        return ExitCode::SUCCESS;
    }
    if compared == 0 && new_records == 0 {
        eprintln!(
            "\nperf_check: no gated quick records matched in any baseline/fresh pair — the gate \
             would be vacuous; failing"
        );
        return ExitCode::FAILURE;
    }
    if regressed > 0 {
        eprintln!("\nperf_check: {regressed}/{compared} records regressed beyond {tolerance:.2}x");
        return ExitCode::FAILURE;
    }
    if failed_floors > 0 {
        eprintln!("\nperf_check: {failed_floors} within-run floor check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("\nperf_check: {compared} compared ({new_records} new) — all within tolerance");
    ExitCode::SUCCESS
}

// `BenchRecord` is only named in type position above; keep a use so the
// import list stays honest if the gate grows.
#[allow(dead_code)]
fn _record_type_anchor(r: &BenchRecord) -> &str {
    &r.name
}
