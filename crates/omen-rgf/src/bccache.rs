//! Shared cross-iteration (and cross-simulation) boundary-condition
//! cache: one retarded self-energy per grid point per lead.
//!
//! A lead's `Σ^R` is a function of the lead's three blocks `[D, α, β]` of
//! the ballistic `M` at its point, and of nothing else: not of the Born
//! loop's scattering self-energies, and — the lane decimation being
//! bitwise under any chunking — not of which other points shared its
//! decimation. So an entry computed once has the bits every later request
//! with the same blocks would compute. Parallel executors build one
//! solver per worker per Born iteration, so a solver's own cache would
//! never survive an iteration; a [`BoundaryCache`] shared by every worker
//! of every iteration (the driver holds it in an `Arc`) makes the
//! boundary a one-time cost. A solver without a shared cache keeps a
//! private one. Entries are held behind an `Arc`, so a hit hands out a
//! reference and copies nothing.
//!
//! Every entry carries a 64-bit FNV-1a digest of the blocks it was
//! decimated from. Within one simulation a point's blocks never change,
//! so an entry it decimated is a hit for the rest of its run. Entries
//! carried over from another simulation ([`BoundaryCache::fresh_clone`],
//! a warm start) are candidates only: the first request for one builds
//! the recipient's own blocks at that point and takes the entry if they
//! digest to the same value, else decimates afresh. Whatever tells donor
//! and recipient apart — bias, energy grid, momenta, `η` — a lead whose
//! blocks are bitwise unchanged is reused and one whose blocks differ is
//! not. (Two different block sets sharing a 64-bit digest is the one way
//! a wrong entry could pass.)

use omen_linalg::CMatrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One lead's retarded boundary self-energy at one grid point.
#[derive(Clone, Debug)]
pub struct LeadSelfEnergy {
    /// `Σ^R_B`, folded into the lead's end block of `M`.
    pub sigma: CMatrix,
    /// Decimation steps it took.
    pub iterations: usize,
    /// 64-bit FNV-1a digest of the shape and bits of the `[D, α, β]` it
    /// was decimated from.
    pub digest: u64,
}

/// FNV-1a over the shape and bits of a lead's `[D, α, β]`.
pub(crate) fn lead_digest(blocks: [&CMatrix; 3]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in blocks {
        eat(m.rows() as u64);
        eat(m.cols() as u64);
        for z in m.as_slice() {
            eat(z.re.to_bits());
            eat(z.im.to_bits());
        }
    }
    h
}

/// Counters describing how one lead's entries of a [`BoundaryCache`]
/// earned their keep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundaryCacheStats {
    /// Lookups served from the cache (no boundary solve at all).
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
    /// Total surface-GF iterations actually spent through this cache.
    pub iterations: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    iterations: AtomicU64,
}

/// One cache slot.
enum Slot {
    Empty,
    /// Decimated by this cache's simulation.
    Own(Arc<LeadSelfEnergy>),
    /// Carried over from another simulation, not yet checked against this
    /// one's blocks.
    Carried(Arc<LeadSelfEnergy>),
}

/// A thread-safe boundary-condition store over a flat point grid
/// (key = `ik * nx + ix`) and the two leads, 0 the left (source) and 1 the
/// right (drain) one.
pub struct BoundaryCache {
    slots: Vec<Mutex<Slot>>,
    counters: [Counters; 2],
}

impl BoundaryCache {
    /// An empty cache over `npoints` grid points.
    pub fn new(npoints: usize) -> Self {
        BoundaryCache {
            slots: (0..2 * npoints).map(|_| Mutex::new(Slot::Empty)).collect(),
            counters: Default::default(),
        }
    }

    /// Number of grid points covered.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when the cache covers no points.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, lead: usize, key: usize) -> MutexGuard<'_, Slot> {
        assert!(lead < 2, "lead {lead}: 0 is the left lead, 1 the right");
        self.slots[2 * key + lead]
            .lock()
            .expect("boundary cache poisoned")
    }

    /// Lead `lead`'s entry at point `key`, if one stands for this
    /// simulation: an entry it decimated, or a carried one whose digest is
    /// `digest()` — the digest of this simulation's own blocks there,
    /// asked for only then, and the entry is this simulation's from then
    /// on. A hit is counted here; a `None` is a miss, counted by the
    /// [`BoundaryCache::insert`] of its solve.
    pub fn get(
        &self,
        lead: usize,
        key: usize,
        digest: impl FnOnce() -> u64,
    ) -> Option<Arc<LeadSelfEnergy>> {
        let mut slot = self.slot(lead, key);
        let hit = match &*slot {
            Slot::Empty => None,
            Slot::Own(entry) => Some(Arc::clone(entry)),
            Slot::Carried(entry) => {
                let entry = Arc::clone(entry);
                (entry.digest == digest()).then(|| {
                    *slot = Slot::Own(Arc::clone(&entry));
                    entry
                })
            }
        };
        if hit.is_some() {
            self.counters[lead].hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Publishes lead `lead`'s entry at point `key`, just decimated after
    /// [`BoundaryCache::get`] missed, for every later request.
    ///
    /// Values are deterministic regardless of which worker resolves a
    /// point first, as long as a decimation's result for a lead does not
    /// depend on which other leads share the call — the lane decimation's
    /// contract — preserving the executors' bitwise-equivalence invariant.
    pub fn insert(&self, lead: usize, key: usize, entry: Arc<LeadSelfEnergy>) {
        let counters = &self.counters[lead];
        counters.misses.fetch_add(1, Ordering::Relaxed);
        counters
            .iterations
            .fetch_add(entry.iterations as u64, Ordering::Relaxed);
        *self.slot(lead, key) = Slot::Own(entry);
    }

    /// A cache over the same grid carrying every entry over, to be taken
    /// only where the recipient's own blocks digest the same (see
    /// [`BoundaryCache::get`]); its counters start at zero.
    pub fn fresh_clone(&self) -> BoundaryCache {
        let carried = |slot: &Mutex<Slot>| {
            let slot = slot.lock().expect("boundary cache poisoned");
            Mutex::new(match &*slot {
                Slot::Own(entry) | Slot::Carried(entry) => Slot::Carried(Arc::clone(entry)),
                Slot::Empty => Slot::Empty,
            })
        };
        BoundaryCache {
            slots: self.slots.iter().map(carried).collect(),
            counters: Default::default(),
        }
    }

    /// Usage counters since construction, left lead then right.
    pub fn stats(&self) -> [BoundaryCacheStats; 2] {
        self.counters.each_ref().map(|c| BoundaryCacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            iterations: c.iterations.load(Ordering::Relaxed),
        })
    }

    /// Approximate resident bytes across all slots (an entry shared with
    /// a [`BoundaryCache::fresh_clone`] counts in both).
    pub fn bytes(&self) -> usize {
        let bytes = |slot: &Mutex<Slot>| match &*slot.lock().expect("boundary cache poisoned") {
            Slot::Own(entry) | Slot::Carried(entry) => entry.sigma.as_slice().len() * 16,
            Slot::Empty => 0,
        };
        self.slots.iter().map(bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::lead_self_energies;
    use omen_linalg::{c64, Workspace, C64};

    /// A chain lead at energy `e`.
    fn chain(e: f64, n: usize) -> [CMatrix; 3] {
        let d = CMatrix::from_fn(n, n, |i, j| if i == j { c64(e, 1e-4) } else { C64::ZERO });
        let hop = CMatrix::from_fn(n, n, |i, j| if i == j { c64(-1.0, 0.0) } else { C64::ZERO });
        [d, hop.clone(), hop]
    }

    /// Resolves lead `lead` of point `key` of `cache` on the chain at
    /// energy `e`, returning the entry and whether it had to be solved.
    fn resolve(
        cache: &BoundaryCache,
        lead: usize,
        key: usize,
        e: f64,
    ) -> (Arc<LeadSelfEnergy>, bool) {
        let blocks = chain(e, 2);
        let digest = lead_digest(blocks.each_ref());
        if let Some(hit) = cache.get(lead, key, || digest) {
            return (hit, false);
        }
        let mut ws = Workspace::new();
        let (sigma, iterations) = lead_self_energies(&[blocks.each_ref()], 1e-12, 300, &mut ws)
            .pop()
            .expect("one lead");
        let entry = Arc::new(LeadSelfEnergy {
            sigma,
            iterations,
            digest,
        });
        cache.insert(lead, key, Arc::clone(&entry));
        (entry, true)
    }

    #[test]
    fn resolve_hits_after_first_compute() {
        let cache = BoundaryCache::new(2);
        let (first, solved) = resolve(&cache, 0, 1, 3.0);
        assert!(solved);
        let (again, solved) = resolve(&cache, 0, 1, 3.0);
        assert!(!solved);
        assert!(Arc::ptr_eq(&first, &again), "a hit copies nothing");
        let [left, right] = cache.stats();
        assert_eq!((left.hits, left.misses), (1, 1));
        assert_eq!(left.iterations, first.iterations as u64);
        assert_eq!(right, BoundaryCacheStats::default(), "leads are apart");
        assert!(resolve(&cache, 1, 1, 3.0).1, "the other lead misses");
        assert!(resolve(&cache, 0, 0, 3.0).1, "the other point misses");
        assert_eq!(cache.bytes(), 3 * 4 * 16);
    }

    #[test]
    fn resolve_row_solves_only_the_misses_together() {
        // A row of points 1..5 with point 2 cached: the hit is handed out
        // without building its blocks (an own entry is never checked, as a
        // point's blocks never change within one simulation), and the
        // misses are decimated in one lane call with the bits each would
        // get alone.
        let cache = BoundaryCache::new(5);
        let (cached, _) = resolve(&cache, 1, 2, 3.0);
        let energies = [2.0, 3.0, 2.5, 3.5];
        let mut misses = Vec::new();
        for (key, e) in (1..5).zip(energies) {
            match cache.get(1, key, || panic!("an own entry is not checked")) {
                Some(hit) => assert!(key == 2 && Arc::ptr_eq(&hit, &cached)),
                None => misses.push((key, chain(e, 2))),
            }
        }
        assert_eq!(misses.iter().map(|m| m.0).collect::<Vec<_>>(), [1, 3, 4]);
        let leads: Vec<[&CMatrix; 3]> = misses.iter().map(|(_, b)| b.each_ref()).collect();
        let together = lead_self_energies(&leads, 1e-12, 300, &mut Workspace::new());
        for ((key, blocks), (sigma, iterations)) in misses.iter().zip(together) {
            let digest = lead_digest(blocks.each_ref());
            let entry = LeadSelfEnergy {
                sigma,
                iterations,
                digest,
            };
            cache.insert(1, *key, Arc::new(entry.clone()));
            let (alone, _) = resolve(&BoundaryCache::new(5), 1, *key, energies[key - 1]);
            assert_eq!(entry.sigma.as_slice(), alone.sigma.as_slice());
            assert_eq!(entry.iterations, alone.iterations);
        }
        let [_, right] = cache.stats();
        assert_eq!((right.hits, right.misses), (1, 4));
    }

    #[test]
    fn fresh_clone_carries_results_over() {
        let cache = BoundaryCache::new(2);
        let (first, _) = resolve(&cache, 0, 0, 3.0);
        let (other, _) = resolve(&cache, 1, 0, 3.0);
        // Same blocks: the carried entry is taken, and is this cache's own
        // from then on.
        let carried = cache.fresh_clone();
        let (again, solved) = resolve(&carried, 0, 0, 3.0);
        assert!(!solved);
        assert!(Arc::ptr_eq(&first, &again));
        let own = carried.get(0, 0, || panic!("checked once"));
        assert!(Arc::ptr_eq(own.as_ref().expect("hit"), &first));
        // Other blocks at the same point: a miss, solved afresh.
        let (fresh, solved) = resolve(&carried, 1, 0, 2.5);
        assert!(solved);
        assert!(!Arc::ptr_eq(&fresh, &other));
        assert_ne!(fresh.sigma.as_slice(), other.sigma.as_slice());
        let [left, right] = carried.stats();
        assert_eq!((left.hits, left.misses), (2, 0), "carried slot is cached");
        assert_eq!((right.hits, right.misses), (0, 1), "changed blocks miss");
    }
}
