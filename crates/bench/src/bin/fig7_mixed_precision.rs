//! Fig. 7: mixed-precision SSE — output value distribution (a) and the
//! convergence of the electronic current for f64 vs f16 with/without
//! normalization (b).
use omen_core::{KernelVariant, Simulation, SimulationConfig};
use omen_linalg::{magnitude_distribution, Normalization};
use std::process::ExitCode;

/// Ceiling on the normalized f16 run's converged current difference
/// (measured: 3.8e-6).
const MAX_NORMALIZED_REL_DIFF: f64 = 1e-5;

fn main() -> ExitCode {
    println!("Fig. 7: double- vs half-precision SSE\n");
    let mut cfg = SimulationConfig::tiny();
    cfg.coupling = 0.01;
    cfg.max_iterations = 10;
    cfg.tolerance = 1e-9;

    // (a) output value distribution of Σ< (real/imaginary planes).
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let gf = sim.gf_phase();
    let (gl, gg, dl, dg) = (gf.g_l, gf.g_g, gf.d_l, gf.d_g);
    let out = sim.sse_phase(&gl, &gg, &dl, &dg);
    for (plane, vals) in [
        (
            "Sigma< (real)",
            omen_linalg::norms::real_plane(out.sigma_l.as_slice()),
        ),
        (
            "Sigma< (imaginary)",
            omen_linalg::norms::imag_plane(out.sigma_l.as_slice()),
        ),
    ] {
        let d = magnitude_distribution(&vals);
        println!(
            "(a) {plane}: {} nonzero values spanning 1e{} .. 1e{} ({} decades)",
            d.nonzeros,
            d.decade_lo,
            d.decade_lo + d.counts.len() as i32 - 1,
            d.counts.len()
        );
    }
    println!("    paper: values span ~1e-21 .. 1e-1 — far beyond binary16's 12-decade range\n");

    // (b) convergence of the current per iteration.
    let run = |kernel: KernelVariant| -> Vec<f64> {
        let mut c = cfg.clone();
        c.kernel = kernel;
        Simulation::new(c)
            .expect("valid config")
            .run()
            .expect("reference run converges")
            .current_history()
    };
    let h64 = run(KernelVariant::Transformed);
    let h16 = run(KernelVariant::Mixed(Normalization::PerTensor));
    let h16raw = run(KernelVariant::Mixed(Normalization::None));
    println!("(b) iteration, I(64-bit), I(16-bit norm), I(16-bit raw), relerr(norm), relerr(raw)");
    for i in 0..h64.len().min(h16.len()).min(h16raw.len()) {
        println!(
            "  {:>2}  {:.8e}  {:.8e}  {:.8e}   {:.2e}   {:.2e}",
            i + 1,
            h64[i],
            h16[i],
            h16raw[i],
            ((h16[i] - h64[i]) / h64[i]).abs(),
            ((h16raw[i] - h64[i]) / h64[i]).abs()
        );
    }
    let last = h64.len() - 1;
    let rel_norm = ((h16[h16.len() - 1] - h64[last]) / h64[last]).abs();
    println!(
        "\nconverged relative difference: normalized {:.2e}, unnormalized {:.2e}",
        rel_norm,
        ((h16raw[h16raw.len() - 1] - h64[last]) / h64[last]).abs()
    );
    println!("paper: 1.2e-6 with normalization, 3e-3 without");
    // Self-check for CI: every current finite, normalization within 1e-5.
    let finite = [&h64, &h16, &h16raw]
        .iter()
        .all(|h| h.iter().all(|i| i.is_finite()));
    if !finite || rel_norm.is_nan() || rel_norm >= MAX_NORMALIZED_REL_DIFF {
        eprintln!(
            "fig7: finite currents {finite}, normalized difference {rel_norm:.2e} (limit \
             {MAX_NORMALIZED_REL_DIFF:.0e})"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
