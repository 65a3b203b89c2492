//! The OMEN plan against `ReferenceKernel`'s loop nest, bit for bit, and
//! its wire format against the bytes recorded before its round compute
//! moved onto that loop nest.

use omen_comm::{grid_for_ranks, run_omen_plan, OmenGrid, OpKind, VolumeLedger};
use omen_device::{DeviceConfig, DeviceStructure};
use omen_sse::testutil::{random_inputs, tiny_device, tiny_problem};
use omen_sse::{sse_reference, DTensor, GTensor, SseProblem};

fn bits(t: &[omen_linalg::C64]) -> Vec<u64> {
    t.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// `Σ≷` bitwise at every rank count; `Π≷` bitwise at one rank, where no
/// reduction runs, and within 1e-12 where `reduce_sum` reassociates the
/// ranks' partial sums. The grids are [`grid_for_ranks`]'s at 1, 2 and 4
/// ranks, then `uneven`: energy groups of unequal width, so a round
/// receives rows of unequal count from its sources.
fn check_bitwise(prob: &SseProblem, seed: u64, flops: u64, uneven: OmenGrid) {
    let (gl, gg, dl, dg) = random_inputs(prob, seed);
    let reference = sse_reference(prob, &gl, &gg, &dl, &dg);
    assert_eq!(reference.flops, flops, "the reference's flop count");
    let g = |t: &GTensor| bits(t.as_slice());
    let d = |t: &DTensor| bits(t.as_slice());
    let of = |ranks| grid_for_ranks(prob.nk, prob.ne, ranks).expect("a grid per rank count");
    for grid in [of(1), of(2), of(4), uneven] {
        let ranks = grid.nranks();
        let (plan, _) = run_omen_plan(prob, &gl, &gg, &dl, &dg, &grid);
        assert_eq!(g(&plan.sigma_l), g(&reference.sigma_l), "Σ< at {ranks}");
        assert_eq!(g(&plan.sigma_g), g(&reference.sigma_g), "Σ> at {ranks}");
        if ranks == 1 {
            assert_eq!(d(&plan.pi_l), d(&reference.pi_l), "Π<");
            assert_eq!(d(&plan.pi_g), d(&reference.pi_g), "Π>");
            assert_eq!(plan.flops, reference.flops, "flops");
        } else {
            for (got, want) in [(&plan.pi_l, &reference.pi_l), (&plan.pi_g, &reference.pi_g)] {
                let dev = got.max_deviation(want) / want.max_abs();
                assert!(dev <= 1e-12, "Π at {ranks} ranks: {dev}");
            }
        }
    }
}

#[test]
fn omen_plan_is_bitwise_the_reference() {
    let dev = tiny_device();
    // ne = 6 in four energy groups of 2, 2, 1 and 1 points.
    let prob = tiny_problem(&dev);
    check_bitwise(&prob, 17, 12_257_280, OmenGrid::new(1, 4, prob.nk, prob.ne));
    // A wider stencil and non-unit prefactors; energy groups of 3, 3 and 2.
    let prob = SseProblem::new(&dev, 2, 8, 2, 3, 0.7, 1.3);
    check_bitwise(&prob, 19, 24_427_008, OmenGrid::new(2, 3, prob.nk, prob.ne));
    // 6×6 blocks take the packed `PackedB` path.
    let dev6 = DeviceStructure::build(DeviceConfig {
        nx: 4,
        norb: 6,
        ..DeviceConfig::tiny()
    });
    let prob = SseProblem::new(&dev6, 2, 6, 2, 2, 1.0, 1.0);
    check_bitwise(
        &prob,
        23,
        141_834_240,
        OmenGrid::new(1, 4, prob.nk, prob.ne),
    );
}

/// `(bytes, calls)` per [`OpKind::ALL`] entry and bytes sent per rank.
fn ledger_counts(ledger: &VolumeLedger) -> ([(u64, u64); 4], Vec<u64>) {
    let kinds = OpKind::ALL.map(|kind| (ledger.bytes(kind), ledger.calls(kind)));
    (kinds, ledger.per_rank_sent())
}

/// The OMEN ledger of `tiny_problem`, recorded at the commit before the
/// round compute became the reference's loop nest: that change is compute
/// only, the wire must not move by a byte.
#[test]
fn the_omen_wire_is_pinned() {
    let dev = tiny_device();
    let prob = tiny_problem(&dev);
    let (gl, gg, dl, dg) = random_inputs(&prob, 11);
    for (ranks, kinds, per_rank) in [
        (
            2,
            [(105_984, 8), (105_984, 8), (49_152, 4), (0, 0)],
            vec![130_560; 2],
        ),
        (
            4,
            [(317_952, 8), (317_952, 8), (90_112, 24), (0, 0)],
            vec![181_504; 4],
        ),
    ] {
        let grid = grid_for_ranks(prob.nk, prob.ne, ranks).expect("a grid per rank count");
        let (_, ledger) = run_omen_plan(&prob, &gl, &gg, &dl, &dg, &grid);
        assert_eq!(ledger_counts(&ledger), (kinds, per_rank));
    }
}
