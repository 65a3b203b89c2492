//! Property-based sweep coverage: for *any* grid shape and worker count,
//! the sweep engine must visit every unit exactly once and leave each
//! unit's result in its own item, bit for bit the serial run's, however
//! its workers happen to split the units.

use omen_core::{grid_points, DistributedExecutor, GridPoint, PointExecutor, SerialExecutor};
use proptest::prelude::*;

/// A toy unit: its point, how often a worker visited it, and its result
/// (irrational-ish, so a result landing in the wrong unit shows up).
type Probe = (GridPoint, u32, f64);

fn weight(p: GridPoint) -> f64 {
    ((p.0 * 131 + p.1 * 7 + 3) as f64).sqrt() * 0.037
}

fn run<E: PointExecutor>(exec: &E, points: &[GridPoint]) -> Vec<Probe> {
    let mut units: Vec<Probe> = points.iter().map(|&p| (p, 0, 0.0)).collect();
    exec.run(&mut units, || {
        |(p, visits, value): &mut Probe| {
            *visits += 1;
            *value = weight(*p);
        }
    });
    units
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every split of every grid over any worker count visits each unit
    // once and leaves the serial run's result in it.
    #[test]
    fn distributed_split_is_bitwise_serial(
        n0 in 1usize..6,
        n1 in 1usize..48,
        ranks in 1usize..16,
    ) {
        let points = grid_points(n0, n1);
        let serial = run(&SerialExecutor, &points);
        let dist = run(&DistributedExecutor::new(ranks), &points);
        for ((p, visits, value), (q, _, want)) in dist.iter().zip(&serial) {
            prop_assert_eq!(p, q);
            prop_assert_eq!(*visits, 1, "unit {:?} visited once", p);
            prop_assert_eq!(value.to_bits(), want.to_bits(), "unit {:?}", p);
        }
    }
}
