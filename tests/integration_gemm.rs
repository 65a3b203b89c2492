//! A solve makes no `gemm` call at all. The GF phase's matrix products are
//! the RGF recursion's and the boundary's lane products (each lead
//! decimated and folded on energy lanes), and the row sinks take their
//! currents as traces straight off the blocks; the SSE runs its own
//! plane kernels.
//!
//! The registry's counters are process-global, so this check is the only
//! test in its binary: no concurrent test can add to them.

use dace_omen::core::{DagExecutor, PointExecutor, SerialExecutor, Simulation, SimulationConfig};
use dace_omen::trace::{self, Counter};

/// `(gemm_calls, gemm_flops, fused runs)` of a whole cold solve of `tiny`
/// (every Born iteration, both carriers, boundaries decimated in the
/// first) through `exec`.
fn cold_solve_counts<E: PointExecutor>(exec: &E) -> (u64, u64, u64) {
    let mut sim = Simulation::new(SimulationConfig::tiny()).expect("valid config");
    trace::reset();
    let result = sim.run_with(exec).expect("run succeeds");
    assert!(result.current().is_finite());
    (
        trace::counter(Counter::GemmCalls),
        trace::counter(Counter::GemmFlops),
        trace::counter(Counter::SbsmmCalls),
    )
}

#[test]
fn cold_solve_makes_no_gemm_calls() {
    trace::arm();
    let serial = cold_solve_counts(&SerialExecutor);
    let dag = cold_solve_counts(&DagExecutor::new(2));
    trace::reset();
    trace::rearm_from_env();
    // The counters must see the solve's work at all: its lane products
    // count themselves as fused runs.
    for (who, (calls, flops, fused)) in [("serial", serial), ("2 workers", dag)] {
        assert!(fused > 0, "{who}: no fused run counted");
        assert_eq!((calls, flops), (0, 0), "{who}: (gemm_calls, gemm_flops)");
    }
}
