//! Domain decompositions of the SSE phase (Fig. 5).
//!
//! * [`OmenGrid`] — the physics-natural decomposition: a
//!   `kz × E/tE` process grid owning energy-momentum pairs; phonon points
//!   round-robin across ranks.
//! * [`DaceTiling`] — the data-centric decomposition: `Ta` atom tiles ×
//!   `TE` energy tiles, obtained in the paper by re-tiling the SSE map by
//!   atom position.

/// The OMEN energy-momentum pair decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OmenGrid {
    /// Momentum groups (`Nkz` in the paper's full-scale runs).
    pub gk: usize,
    /// Energy tiles per momentum group (`NE / tE`).
    pub ge: usize,
    /// Electron momentum points.
    pub nk: usize,
    /// Electron energy points.
    pub ne: usize,
}

impl OmenGrid {
    /// Creates a `gk × ge` grid for an `nk × ne` point set.
    pub fn new(gk: usize, ge: usize, nk: usize, ne: usize) -> Self {
        assert!(gk >= 1 && ge >= 1);
        assert!(gk <= nk, "more momentum groups than momentum points");
        assert!(ge <= ne, "more energy tiles than energy points");
        OmenGrid { gk, ge, nk, ne }
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.gk * self.ge
    }

    /// Owner rank of electron pair `(k, e)`: energies split into `ge`
    /// groups as [`split_range`] splits them (widths differ by at most
    /// one, so no group is empty).
    pub(crate) fn owner_pair(&self, k: usize, e: usize) -> usize {
        let kg = k % self.gk;
        let (base, rem) = (self.ne / self.ge, self.ne % self.ge);
        let wide = rem * (base + 1);
        let et = if e < wide {
            e / (base + 1)
        } else {
            rem + (e - wide) / base
        };
        kg * self.ge + et
    }

    /// Owner rank of phonon point `(q, m)` (round-robin).
    pub(crate) fn owner_phonon(&self, q: usize, m: usize, nw: usize) -> usize {
        (q * nw + m) % self.nranks()
    }

    /// All electron pairs owned by `rank`, in deterministic order.
    pub(crate) fn owned_pairs(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for k in 0..self.nk {
            for e in 0..self.ne {
                if self.owner_pair(k, e) == rank {
                    out.push((k, e));
                }
            }
        }
        out
    }
}

/// The DaCe atom × energy tiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DaceTiling {
    /// Atom tiles.
    pub ta: usize,
    /// Energy tiles.
    pub te: usize,
    /// Atoms.
    pub na: usize,
    /// Energy points.
    pub ne: usize,
}

impl DaceTiling {
    /// Creates a `ta × te` tiling of `na` atoms × `ne` energies.
    pub fn new(ta: usize, te: usize, na: usize, ne: usize) -> Self {
        assert!(ta >= 1 && te >= 1);
        assert!(ta <= na, "more atom tiles than atoms");
        assert!(te <= ne, "more energy tiles than energies");
        DaceTiling { ta, te, na, ne }
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.ta * self.te
    }

    /// Tile coordinates of `rank`.
    pub(crate) fn tile_of(&self, rank: usize) -> (usize, usize) {
        (rank / self.te, rank % self.te)
    }

    /// Atom range `[lo, hi)` of atom-tile `ia` (balanced split).
    pub(crate) fn atom_range(&self, ia: usize) -> (usize, usize) {
        split_range(self.na, self.ta, ia)
    }

    /// Energy range `[lo, hi)` of energy-tile `ie`.
    pub(crate) fn energy_range(&self, ie: usize) -> (usize, usize) {
        split_range(self.ne, self.te, ie)
    }

    /// Energy range of tile `ie` extended by the stencil halo `nw` on both
    /// sides (clamped to the grid).
    pub(crate) fn energy_range_halo(&self, ie: usize, nw: usize) -> (usize, usize) {
        let (lo, hi) = self.energy_range(ie);
        (lo.saturating_sub(nw), (hi + nw).min(self.ne))
    }
}

/// Deterministically factors `ranks` into a `gk × ge` [`OmenGrid`] over
/// an `nk × ne` point set, preferring the most momentum groups (the
/// paper assigns whole `kz` points to process groups first and splits
/// energy within each group). `None` when no factorization fits — e.g.
/// a prime `ranks` larger than both `nk` and `ne`.
pub fn grid_for_ranks(nk: usize, ne: usize, ranks: usize) -> Option<OmenGrid> {
    if ranks == 0 {
        return None;
    }
    for gk in (1..=nk.min(ranks)).rev() {
        if ranks.is_multiple_of(gk) && ranks / gk <= ne {
            return Some(OmenGrid::new(gk, ranks / gk, nk, ne));
        }
    }
    None
}

/// Deterministically factors `ranks` into a `ta × te` [`DaceTiling`] of
/// `na` atoms × `ne` energies, preferring the most atom tiles (the
/// data-centric scheme tiles by atom position first; Fig. 5 right).
/// `None` when no factorization fits.
pub fn tiling_for_ranks(na: usize, ne: usize, ranks: usize) -> Option<DaceTiling> {
    if ranks == 0 {
        return None;
    }
    for ta in (1..=na.min(ranks)).rev() {
        if ranks.is_multiple_of(ta) && ranks / ta <= ne {
            return Some(DaceTiling::new(ta, ranks / ta, na, ne));
        }
    }
    None
}

/// Balanced split of `n` items into `parts`; part `i`'s `[lo, hi)`.
fn split_range(n: usize, parts: usize, i: usize) -> (usize, usize) {
    let base = n / parts;
    let rem = n % parts;
    let lo = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (lo, lo + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omen_grid_partitions_all_pairs() {
        let g = OmenGrid::new(3, 4, 3, 10);
        assert_eq!(g.nranks(), 12);
        let mut seen = [false; 3 * 10];
        for r in 0..g.nranks() {
            for (k, e) in g.owned_pairs(r) {
                assert!(!seen[k * 10 + e], "pair ({k},{e}) owned twice");
                seen[k * 10 + e] = true;
                assert_eq!(g.owner_pair(k, e), r);
            }
        }
        assert!(seen.iter().all(|&s| s), "every pair owned");
    }

    #[test]
    fn grid_for_ranks_leaves_no_energy_group_empty() {
        // `grid_for_ranks(2, 6, 8)` is 2 × 4: groups of 2, 2, 1 and 1
        // energies, each group an interval of `split_range`'s split.
        for (nk, ne) in [(2, 6), (2, 24), (3, 10), (4, 7), (1, 5)] {
            for ranks in 1..=16 {
                let Some(g) = grid_for_ranks(nk, ne, ranks) else {
                    continue;
                };
                for r in 0..ranks {
                    let (kg, et) = (r / g.ge, r % g.ge);
                    let (lo, hi) = split_range(ne, g.ge, et);
                    let want: Vec<_> = (0..nk)
                        .filter(|k| k % g.gk == kg)
                        .flat_map(|k| (lo..hi).map(move |e| (k, e)))
                        .collect();
                    assert!(!want.is_empty(), "nk {nk}, ne {ne}, {ranks} ranks");
                    assert_eq!(g.owned_pairs(r), want, "nk {nk}, ne {ne}, rank {r}/{ranks}");
                }
            }
        }
    }

    #[test]
    fn omen_phonon_round_robin_covers_ranks() {
        let g = OmenGrid::new(2, 2, 2, 8);
        let mut counts = vec![0usize; 4];
        for q in 0..2 {
            for m in 0..4 {
                counts[g.owner_phonon(q, m, 4)] += 1;
            }
        }
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn split_range_covers_without_overlap() {
        for (n, parts) in [(10, 3), (7, 7), (16, 4), (5, 2)] {
            let mut covered = 0;
            for i in 0..parts {
                let (lo, hi) = split_range(n, parts, i);
                assert_eq!(lo, covered, "contiguous");
                covered = hi;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn dace_tiling_maps() {
        let t = DaceTiling::new(3, 2, 16, 6);
        assert_eq!(t.nranks(), 6);
        // Every atom and every energy lies in exactly one tile's range.
        for a in 0..16 {
            let holders = (0..t.ta).filter(|&ia| {
                let (lo, hi) = t.atom_range(ia);
                a >= lo && a < hi
            });
            assert_eq!(holders.count(), 1, "atom {a}");
        }
        for e in 0..6 {
            let holders = (0..t.te).filter(|&ie| {
                let (lo, hi) = t.energy_range(ie);
                e >= lo && e < hi
            });
            assert_eq!(holders.count(), 1, "energy {e}");
        }
        // Ranks run atom-tile-major over the tiles.
        let tiles: Vec<_> = (0..t.nranks()).map(|r| t.tile_of(r)).collect();
        let want: Vec<_> = (0..3)
            .flat_map(|ia| (0..2).map(move |ie| (ia, ie)))
            .collect();
        assert_eq!(tiles, want);
    }

    #[test]
    fn grid_for_ranks_prefers_momentum_groups() {
        // tiny(): nk = 2, ne = 24.
        assert_eq!(grid_for_ranks(2, 24, 1), Some(OmenGrid::new(1, 1, 2, 24)));
        assert_eq!(grid_for_ranks(2, 24, 2), Some(OmenGrid::new(2, 1, 2, 24)));
        assert_eq!(grid_for_ranks(2, 24, 4), Some(OmenGrid::new(2, 2, 2, 24)));
        // More ranks than points in any factorization: no grid.
        assert_eq!(grid_for_ranks(2, 3, 7), None);
        assert_eq!(grid_for_ranks(2, 24, 0), None);
        // Every returned grid has exactly `ranks` ranks.
        for ranks in 1..=8 {
            if let Some(g) = grid_for_ranks(3, 10, ranks) {
                assert_eq!(g.nranks(), ranks);
            }
        }
    }

    #[test]
    fn tiling_for_ranks_prefers_atom_tiles() {
        assert_eq!(
            tiling_for_ranks(16, 24, 4),
            Some(DaceTiling::new(4, 1, 16, 24))
        );
        assert_eq!(
            tiling_for_ranks(3, 24, 4),
            Some(DaceTiling::new(2, 2, 3, 24))
        );
        assert_eq!(tiling_for_ranks(1, 2, 5), None);
        assert_eq!(tiling_for_ranks(16, 24, 0), None);
        for ranks in 1..=12 {
            if let Some(t) = tiling_for_ranks(6, 8, ranks) {
                assert_eq!(t.nranks(), ranks);
            }
        }
    }

    #[test]
    fn halo_clamps_at_edges() {
        let t = DaceTiling::new(1, 3, 4, 9);
        assert_eq!(t.energy_range(0), (0, 3));
        assert_eq!(t.energy_range_halo(0, 2), (0, 5));
        assert_eq!(t.energy_range_halo(2, 2), (4, 9));
    }
}
