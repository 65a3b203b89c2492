//! Property-based sweep coverage: for *any* grid shape and worker count,
//! the sweep engine must reproduce the serial fold bitwise (slot-ordered
//! folding), however its workers happen to split the points.

use omen_core::{
    grid_points, DistributedExecutor, GridPoint, Observables, PointExecutor, SerialExecutor,
};
use proptest::prelude::*;

/// A toy observable with reassociation-sensitive arithmetic: an ordered
/// visit log plus a running sum of irrational-ish weights (so any change
/// in fold order shows up in the low mantissa bits).
struct Probe {
    visited: Vec<GridPoint>,
    sum: f64,
}

impl Probe {
    fn empty() -> Probe {
        Probe {
            visited: Vec::new(),
            sum: 0.0,
        }
    }
}

impl Observables for Probe {
    type Contribution = (GridPoint, f64);

    fn accumulate(&mut self, c: &Self::Contribution) {
        self.visited.push(c.0);
        self.sum += c.1;
    }
}

fn weight(p: GridPoint) -> f64 {
    ((p.0 * 131 + p.1 * 7 + 3) as f64).sqrt() * 0.037
}

fn run<E: PointExecutor>(exec: &E, points: &[GridPoint]) -> Probe {
    exec.run(points, || |p: GridPoint| (p, weight(p)), Probe::empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every split of every grid over any worker count folds bitwise like
    // serial.
    #[test]
    fn distributed_split_is_bitwise_serial(
        n0 in 1usize..6,
        n1 in 1usize..48,
        ranks in 1usize..16,
    ) {
        let points = grid_points(n0, n1);
        let serial = run(&SerialExecutor, &points);
        let dist = run(&DistributedExecutor::new(ranks), &points);
        prop_assert_eq!(&serial.visited, &dist.visited, "global point order preserved");
        prop_assert_eq!(serial.sum.to_bits(), dist.sum.to_bits());
    }
}
