//! Table 10: single-node GF / SSE phase runtimes for the three code
//! generations: eager "Python" baseline, OMEN-style reference, and the
//! DaCe-transformed kernel (plus mixed precision).
use omen_bench::{header, row, sse_eager, timed};
use omen_core::{Simulation, SimulationConfig};
use omen_linalg::Normalization;

fn main() {
    println!("Table 10: Single-Node Performance (GF and SSE phases)\n");
    let mut cfg = SimulationConfig::demo();
    cfg.max_iterations = 1;
    let sim = Simulation::new(cfg).expect("valid config");
    let (gf, gf_wall) = timed(|| sim.gf_phase());
    let (g_l, g_g, d_l, d_g, gf_times) = (gf.g_l, gf.g_g, gf.d_l, gf.d_g, gf.times);
    let prob = sim.sse_problem();
    let (_, t_eager) = timed(|| sse_eager(&prob, &g_l, &g_g, &d_l, &d_g));
    let (out_ref, t_ref) = timed(|| omen_sse::sse_reference(&prob, &g_l, &g_g, &d_l, &d_g));
    let (out_dace, t_dace) = timed(|| omen_sse::sse_transformed(&prob, &g_l, &g_g, &d_l, &d_g));
    let (_, t_mix) = timed(|| {
        omen_sse::sse_mixed(
            &prob,
            &g_l,
            &g_g,
            &d_l,
            &d_g,
            omen_sse::MixedConfig {
                normalization: Normalization::PerTensor,
            },
        )
    });

    let w = [26, 14, 14];
    header(&["Variant", "GF [s]", "SSE [s]"], &w);
    row(
        &[
            "Python (eager temporaries)".into(),
            "(same GF)".into(),
            format!("{t_eager:.3}"),
        ],
        &w,
    );
    row(
        &[
            "OMEN (reference)".into(),
            format!("{gf_wall:.3}"),
            format!("{t_ref:.3}"),
        ],
        &w,
    );
    row(
        &[
            "DaCe (transformed)".into(),
            format!("{gf_wall:.3}"),
            format!("{t_dace:.3}"),
        ],
        &w,
    );
    row(
        &[
            "DaCe (mixed precision)".into(),
            "".into(),
            format!("{t_mix:.3}"),
        ],
        &w,
    );
    println!();
    println!(
        "GF sub-phases: spec {:.3}s  BC {:.3}s  RGF {:.3}s",
        gf_times.specialization.as_secs_f64(),
        gf_times.boundary.as_secs_f64(),
        gf_times.rgf.as_secs_f64()
    );
    println!(
        "SSE speedup DaCe vs reference: {:.2}x (flops ratio {:.3})",
        t_ref / t_dace,
        out_dace.flops as f64 / out_ref.flops as f64
    );
    println!("SSE slowdown eager vs reference: {:.2}x", t_eager / t_ref);
    println!("\npaper (Piz Daint node): GF 1342.8/144.1/111.3 s; SSE 30560/965/29.9 s");
    println!(
        "shape target: eager >> reference > transformed; transformed ~flops/2 x efficiency gain"
    );
}
