//! The data-centric plan's tile compute against the single-address-space
//! kernels, its warm state against cold state, and its wire format
//! against the bytes recorded before the tile compute was rewritten.

use omen_comm::{
    grid_for_ranks, run_dace_plan, CommPlan, DaceTiling, OpKind, PlanKernel, VolumeLedger,
};
use omen_device::{DeviceConfig, DeviceStructure};
use omen_sse::testutil::{random_inputs, tiny_device, tiny_problem};
use omen_sse::{sse_reference, sse_transformed, GTensor, SseKernel, SseOutput, SseProblem};

/// Atom tiles × energy tiles: one tile, atom tiles only, and energy tiles
/// whose halos and global window edges are both hit.
const TILINGS: [(usize, usize); 5] = [(1, 1), (2, 1), (3, 2), (2, 2), (4, 1)];

/// Largest deviation of `got` from `want` over the four tensors, each
/// relative to its own magnitude.
fn rel_dev(got: &SseOutput, want: &SseOutput) -> f64 {
    let g = |a: &GTensor, b: &GTensor| a.max_deviation(b) / b.max_abs();
    let d = |a: &omen_sse::DTensor, b: &omen_sse::DTensor| a.max_deviation(b) / b.max_abs();
    g(&got.sigma_l, &want.sigma_l)
        .max(g(&got.sigma_g, &want.sigma_g))
        .max(d(&got.pi_l, &want.pi_l))
        .max(d(&got.pi_g, &want.pi_g))
}

fn g_bits(t: &GTensor) -> Vec<u64> {
    let z = t.as_slice().iter();
    z.flat_map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
}

fn check_tilings(prob: &SseProblem, seed: u64) {
    let (gl, gg, dl, dg) = random_inputs(prob, seed);
    let reference = sse_reference(prob, &gl, &gg, &dl, &dg);
    let transformed = sse_transformed(prob, &gl, &gg, &dl, &dg);
    for (ta, te) in TILINGS {
        let tiling = DaceTiling::new(ta, te, prob.na(), prob.ne);
        let grid = grid_for_ranks(prob.nk, prob.ne, ta * te).expect("a grid per tiling");
        let (plan, _) = run_dace_plan(prob, &gl, &gg, &dl, &dg, &grid, &tiling);
        let vs_t = rel_dev(&plan, &transformed);
        assert!(vs_t <= 1e-12, "{ta}×{te} vs transformed: {vs_t}");
        let vs_r = rel_dev(&plan, &reference);
        assert!(vs_r <= 1e-10, "{ta}×{te} vs reference: {vs_r}");
        // Σ runs the transformed kernel's operations in its order.
        assert_eq!(g_bits(&plan.sigma_l), g_bits(&transformed.sigma_l));
        assert_eq!(g_bits(&plan.sigma_g), g_bits(&transformed.sigma_g));
        assert!(plan.flops > 0, "{ta}×{te} meters its stages");
    }
}

#[test]
fn every_tiling_matches_the_single_tile_kernels() {
    let dev = tiny_device();
    check_tilings(&tiny_problem(&dev), 41);
    // A wider stencil and non-unit prefactors.
    check_tilings(&SseProblem::new(&dev, 2, 8, 2, 3, 0.7, 1.3), 43);
}

#[test]
fn packed_block_shapes_match_too() {
    // 6×6 blocks take the packed `sbsmm_pb` path of stage C.
    let dev = DeviceStructure::build(DeviceConfig {
        nx: 4,
        norb: 6,
        ..DeviceConfig::tiny()
    });
    check_tilings(&SseProblem::new(&dev, 2, 6, 2, 2, 1.0, 1.0), 47);
}

fn bits(out: &SseOutput) -> Vec<u64> {
    let g = [&out.sigma_l, &out.sigma_g].map(|t| t.as_slice());
    let d = [&out.pi_l, &out.pi_g].map(|t| t.as_slice());
    g.into_iter()
        .chain(d)
        .flatten()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .chain([out.flops])
        .collect()
}

#[test]
fn warm_state_never_leaks_into_the_next_run() {
    let dev = tiny_device();
    let prob = tiny_problem(&dev);
    let a = random_inputs(&prob, 5);
    let b = random_inputs(&prob, 6);
    let wider = SseProblem::new(&dev, 2, 8, 2, 3, 1.0, 1.0);
    let c = random_inputs(&wider, 7);
    for ranks in [1, 2, 4] {
        let mut warm = PlanKernel::new(CommPlan::Dace, ranks);
        warm.run(&prob, &a.0, &a.1, &a.2, &a.3);
        let on_b = bits(warm.run(&prob, &b.0, &b.1, &b.2, &b.3));
        let mut fresh = PlanKernel::new(CommPlan::Dace, ranks);
        assert_eq!(on_b, bits(fresh.run(&prob, &b.0, &b.1, &b.2, &b.3)));
        // A new problem shape rebuilds the state; going back does too.
        let on_c = bits(warm.run(&wider, &c.0, &c.1, &c.2, &c.3));
        let mut fresh = PlanKernel::new(CommPlan::Dace, ranks);
        assert_eq!(on_c, bits(fresh.run(&wider, &c.0, &c.1, &c.2, &c.3)));
        assert_eq!(on_b, bits(warm.run(&prob, &b.0, &b.1, &b.2, &b.3)));
    }
}

/// `(bytes, calls)` per [`OpKind::ALL`] entry and bytes sent per rank.
fn ledger_counts(ledger: &VolumeLedger) -> ([(u64, u64); 4], Vec<u64>) {
    let kinds = OpKind::ALL.map(|kind| (ledger.bytes(kind), ledger.calls(kind)));
    (kinds, ledger.per_rank_sent())
}

/// The DaCe ledger of `tiny_problem`, recorded at the commit before the
/// tile compute moved to the transformed stages: that change is compute
/// only, the wire must not move by a byte.
#[test]
fn the_exchange_is_pinned() {
    let dev = tiny_device();
    let prob = tiny_problem(&dev);
    let (gl, gg, dl, dg) = random_inputs(&prob, 11);
    let alltoall_only = |bytes| [(0, 0), (0, 0), (0, 0), (bytes, 4)];
    for (ranks, bytes, per_rank) in [
        (2, 138_240, vec![69_120, 69_120]),
        (4, 230_400, vec![57_984, 57_216, 57_216, 57_984]),
    ] {
        let mut kernel = PlanKernel::new(CommPlan::Dace, ranks);
        for _ in 0..2 {
            kernel.run(&prob, &gl, &gg, &dl, &dg);
            let ledger = kernel.last_ledger().expect("the plan ran");
            assert_eq!(
                ledger_counts(&ledger),
                (alltoall_only(bytes), per_rank.clone())
            );
        }
    }
}
