//! Shared cross-iteration (and cross-sweep-point) boundary-condition
//! cache.
//!
//! The boundary self-energies depend only on the ballistic operator `M`
//! of each `(kz, E)` / `(qz, ω)` point, never on the scattering
//! self-energies of the Born loop: computing them once per run is exact.
//! Parallel executors build one solver per worker per Born iteration, so a
//! solver's own cache would never survive an iteration; a
//! [`BoundaryCache`] shared by every worker of every iteration (the driver
//! holds it in an `Arc`) turns the per-iteration boundary cost into a
//! one-time cost. A solver without a shared cache keeps a private one.
//!
//! Results are held behind an `Arc`, so a hit hands out a reference and
//! copies nothing. The same structure carries warm starts *between* sweep
//! points in `omen-serve`: [`BoundaryCache::fresh_clone`] shares every
//! result with the neighbor when the sweep axis leaves the boundary
//! operators untouched (temperature or coupling sweeps: occupations and
//! scattering strength don't enter `M`). A bias step shifts the
//! electrostatic potential in the lead blocks, so its neighbor starts
//! from an empty cache and decimates afresh.

use crate::boundary::BoundarySelfEnergies;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how a [`BoundaryCache`] earned its keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundaryCacheStats {
    /// Lookups served from the cache (no boundary solve at all).
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
    /// Total surface-GF iterations actually spent through this cache.
    pub iterations: u64,
}

/// A thread-safe boundary-condition store over a flat point grid
/// (key = `ik * nx + ix`).
pub struct BoundaryCache {
    slots: Vec<Mutex<Option<Arc<BoundarySelfEnergies>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    iterations: AtomicU64,
}

impl BoundaryCache {
    /// An empty cache over `npoints` grid points.
    pub fn new(npoints: usize) -> Self {
        BoundaryCache {
            slots: (0..npoints).map(|_| Mutex::new(None)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
        }
    }

    /// Number of grid points covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the cache covers no points.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, key: usize) -> std::sync::MutexGuard<'_, Option<Arc<BoundarySelfEnergies>>> {
        self.slots[key].lock().expect("boundary cache poisoned")
    }

    /// Resolves the boundary self-energies of points `keys` — a row of
    /// consecutive points, or one — handing point `keys.start + e` to
    /// `put(e, ·)`. Cached points are hits and copy nothing; the misses
    /// are solved by one `solve(misses)` call, `misses` their ascending
    /// offsets `e`, whose results (one per miss, in order) are published
    /// for every later iteration.
    ///
    /// Values are deterministic regardless of which worker resolves a
    /// point first, as long as `solve`'s result for a point does not
    /// depend on which other points share the call — the row solvers'
    /// contract — preserving the executors' bitwise-equivalence
    /// invariant.
    pub fn resolve_row(
        &self,
        keys: Range<usize>,
        solve: impl FnOnce(&[usize]) -> Vec<BoundarySelfEnergies>,
        mut put: impl FnMut(usize, Arc<BoundarySelfEnergies>),
    ) {
        let mut misses = Vec::new();
        for (e, key) in keys.clone().enumerate() {
            let cached = self.slot(key).clone();
            match cached {
                Some(bse) => put(e, bse),
                None => misses.push(e),
            }
        }
        let hits = keys.len() - misses.len();
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        if misses.is_empty() {
            return;
        }
        self.misses
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        let solved = solve(&misses);
        assert_eq!(solved.len(), misses.len(), "one result per miss");
        for (e, bse) in misses.into_iter().zip(solved) {
            self.iterations
                .fetch_add(bse.iterations as u64, Ordering::Relaxed);
            let bse = Arc::new(bse);
            *self.slot(keys.start + e) = Some(Arc::clone(&bse));
            put(e, bse);
        }
    }

    /// A clone sharing every cached result. Correct only when the
    /// recipient's boundary operators are identical (temperature,
    /// coupling, or any sweep axis that never enters `M`).
    pub fn fresh_clone(&self) -> BoundaryCache {
        BoundaryCache {
            slots: (0..self.len())
                .map(|key| Mutex::new(self.slot(key).clone()))
                .collect(),
            ..BoundaryCache::new(0)
        }
    }

    /// Usage counters since construction.
    pub fn stats(&self) -> BoundaryCacheStats {
        BoundaryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
        }
    }

    /// Approximate resident bytes across all slots (a result shared with
    /// a [`BoundaryCache::fresh_clone`] counts in both).
    pub fn bytes(&self) -> usize {
        (0..self.len())
            .map(|key| {
                self.slot(key).as_ref().map_or(0, |bse| {
                    let n = bse.left.rows();
                    4 * n * n * 16
                })
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::boundary_self_energies_ws;
    use omen_linalg::{c64, CMatrix, Workspace, C64};

    fn chain(e: f64, n: usize) -> (CMatrix, CMatrix, CMatrix) {
        let d = CMatrix::from_fn(n, n, |i, j| if i == j { c64(e, 1e-4) } else { C64::ZERO });
        let hop = CMatrix::from_fn(n, n, |i, j| if i == j { c64(-1.0, 0.0) } else { C64::ZERO });
        (d, hop.clone(), hop)
    }

    /// Resolves point `key` of `cache` on the chain at energy 3.0,
    /// returning the result and whether `solve` ran.
    fn resolve(cache: &BoundaryCache, key: usize) -> (Arc<BoundarySelfEnergies>, bool) {
        let (d, a, b) = chain(3.0, 2);
        let mut ws = Workspace::new();
        let (mut out, mut solved) = (None, false);
        cache.resolve_row(
            key..key + 1,
            |misses| {
                solved = true;
                assert_eq!(misses, [0]);
                let bse = boundary_self_energies_ws(&d, &a, &b, &d, &a, &b, 1e-12, 300, &mut ws);
                vec![bse]
            },
            |e, bse| {
                assert_eq!(e, 0);
                out = Some(bse);
            },
        );
        (out.expect("resolved"), solved)
    }

    #[test]
    fn resolve_hits_after_first_compute() {
        let cache = BoundaryCache::new(2);
        let (first, solved) = resolve(&cache, 0);
        assert!(solved);
        let (again, solved) = resolve(&cache, 0);
        assert!(!solved);
        assert!(Arc::ptr_eq(&first, &again), "a hit copies nothing");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.iterations, first.iterations as u64);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn resolve_row_solves_only_the_misses_together() {
        let cache = BoundaryCache::new(5);
        let (cached, _) = resolve(&cache, 2);
        let mut got: Vec<Option<Arc<BoundarySelfEnergies>>> = vec![None; 4];
        cache.resolve_row(
            1..5,
            |misses| {
                assert_eq!(misses, [0, 2, 3], "hits first, the rest in one call");
                misses.iter().map(|_| (*cached).clone()).collect()
            },
            |e, bse| got[e] = Some(bse),
        );
        assert!(Arc::ptr_eq(got[1].as_ref().expect("hit"), &cached));
        assert!(got.iter().all(Option::is_some));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));
    }

    #[test]
    fn fresh_clone_carries_results_over() {
        let cache = BoundaryCache::new(1);
        let (first, _) = resolve(&cache, 0);
        let carried = cache.fresh_clone();
        let (again, solved) = resolve(&carried, 0);
        assert!(!solved);
        assert!(Arc::ptr_eq(&first, &again));
        let stats = carried.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "carried slot is cached");
    }
}
