//! The executor-variant probes, alone in this file.
//!
//! The ROADMAP plans to delete or merge some of these engines. When it
//! does, only this file and the four `*.exec.*` metric pairs change, in
//! a benchmark-only PR that lands first.

use dace_omen::core::{
    DagExecutor, DistributedExecutor, PointExecutor, RayonExecutor, SerialExecutor, Simulation,
};
use std::time::Instant;

fn median_gf_seconds<E: PointExecutor>(sim: &Simulation, exec: &E) -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(sim.gf_phase_with(exec).spectral.el_current.len());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Median wall seconds of three warm GF phases of `sim` under each point
/// executor, serial first.
pub fn gf_phase_seconds(sim: &Simulation) -> [(&'static str, f64); 4] {
    // Fills the shared boundary caches, so no engine pays for them.
    sim.gf_phase_with(&SerialExecutor);
    [
        (
            "core.exec.serial.gf_ms",
            median_gf_seconds(sim, &SerialExecutor),
        ),
        (
            "core.exec.rayon2.gf_ms",
            median_gf_seconds(sim, &RayonExecutor::new(2)),
        ),
        (
            "core.exec.dist2.gf_ms",
            median_gf_seconds(sim, &DistributedExecutor::new(2)),
        ),
        (
            "sched.exec.dag2.gf_ms",
            median_gf_seconds(sim, &DagExecutor::new(2)),
        ),
    ]
}

/// The speed-up metric that goes with a non-serial engine's `gf_ms`.
pub fn speedup_name(gf_ms: &str) -> Option<&'static str> {
    match gf_ms {
        "core.exec.rayon2.gf_ms" => Some("core.exec.rayon2.speedup"),
        "core.exec.dist2.gf_ms" => Some("core.exec.dist2.speedup"),
        "sched.exec.dag2.gf_ms" => Some("sched.exec.dag2.speedup"),
        _ => None,
    }
}
