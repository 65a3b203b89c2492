//! The GF phase's matrix products are the RGF recursion's lane GEMMs and
//! the boundary folds. Once the boundary cache is warm, a GF phase makes
//! no `gemm` call at all: the row sinks take their currents as traces
//! straight off the blocks.
//!
//! The registry's counters are process-global, so this check is the only
//! test in its binary: no concurrent test can add to them.

use dace_omen::core::{DagExecutor, PointExecutor, SerialExecutor, Simulation, SimulationConfig};
use dace_omen::trace::{self, Counter};

/// `(gemm_calls, gemm_flops)` of a second GF phase of `tiny` (electrons
/// and phonons) through `exec`, the first one having filled the boundary
/// cache.
fn warm_gf_phase_gemm<E: PointExecutor>(exec: &E) -> (u64, u64) {
    let mut sim = Simulation::new(SimulationConfig::tiny()).expect("valid config");
    sim.iterate_with(exec);
    trace::reset();
    let gf = sim.gf_phase_with(exec);
    assert!(gf.spectral.el_current.iter().all(|j| j.is_finite()));
    (
        trace::counter(Counter::GemmCalls),
        trace::counter(Counter::GemmFlops),
    )
}

#[test]
fn warm_gf_phase_makes_no_gemm_calls() {
    trace::arm();
    trace::reset();
    // The counters must see the GF phase's work at all: the first phase's
    // boundary folds are `gemm` calls.
    let cold = Simulation::new(SimulationConfig::tiny()).expect("valid config");
    cold.gf_phase_with(&SerialExecutor);
    let cold_calls = trace::counter(Counter::GemmCalls);
    let serial = warm_gf_phase_gemm(&SerialExecutor);
    let dag = warm_gf_phase_gemm(&DagExecutor::new(2));
    trace::reset();
    trace::rearm_from_env();
    assert!(cold_calls > 0, "a cold GF phase folds its boundaries");
    assert_eq!(serial, (0, 0), "serial: (gemm_calls, gemm_flops)");
    assert_eq!(dag, (0, 0), "2 workers: (gemm_calls, gemm_flops)");
}
