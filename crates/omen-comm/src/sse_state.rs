//! Per-rank row stores of the OMEN plan.
//!
//! A rank never holds the full 5-D/6-D tensors; it holds the rows its
//! decomposition assigns it plus the rows each round delivers, keyed by
//! grid point. The stores implement the `omen-sse` access traits so the
//! point kernels run unchanged on distributed data. (The data-centric
//! plan keeps dense tile tensors instead; see [`crate::dace_plan`].)

use omen_linalg::C64;
use omen_sse::{DBlocks, GBlocks};
use std::collections::HashMap;

/// Per-rank storage of `G` atom blocks for a set of `(k, e)` points. Each
/// stored point carries the full `na · bsz` atom-block row.
pub struct LocalG {
    /// Atoms.
    pub na: usize,
    /// Elements per atom block (`Norb²`).
    pub bsz: usize,
    map: HashMap<(usize, usize), Vec<C64>>,
}

impl LocalG {
    /// Empty store.
    pub fn new(na: usize, bsz: usize) -> Self {
        LocalG {
            na,
            bsz,
            map: HashMap::new(),
        }
    }

    /// `true` if point `(k, e)` is resident.
    pub fn has(&self, k: usize, e: usize) -> bool {
        self.map.contains_key(&(k, e))
    }

    /// Inserts (or replaces) the full atom-block row of `(k, e)`.
    pub fn insert_row(&mut self, k: usize, e: usize, row: Vec<C64>) {
        assert_eq!(row.len(), self.na * self.bsz, "row length");
        self.map.insert((k, e), row);
    }

    /// The atom block `a` of point `(k, e)`.
    pub fn get_block(&self, k: usize, e: usize, a: usize) -> &[C64] {
        let row = self
            .map
            .get(&(k, e))
            .unwrap_or_else(|| panic!("G block ({k},{e}) not resident on this rank"));
        &row[a * self.bsz..(a + 1) * self.bsz]
    }
}

impl GBlocks for LocalG {
    fn gblock(&self, k: usize, e: usize, a: usize) -> &[C64] {
        self.get_block(k, e, a)
    }
}

/// Per-rank storage of `D` (or `Π`) entry blocks for a set of `(q, m)`
/// points; each point carries `nentries · 9` elements.
pub struct LocalD {
    /// Total entries (pairs + diagonals).
    pub nentries: usize,
    map: HashMap<(usize, usize), Vec<C64>>,
}

impl LocalD {
    /// Empty store.
    pub fn new(nentries: usize) -> Self {
        LocalD {
            nentries,
            map: HashMap::new(),
        }
    }

    /// `true` if point `(q, m)` is resident.
    pub fn has(&self, q: usize, m: usize) -> bool {
        self.map.contains_key(&(q, m))
    }

    /// Inserts (or replaces) the full entry row of `(q, m)`.
    pub fn insert_row(&mut self, q: usize, m: usize, row: Vec<C64>) {
        assert_eq!(row.len(), self.nentries * 9, "row length");
        self.map.insert((q, m), row);
    }

    /// The entry block of `(q, m)`.
    pub fn get_block(&self, q: usize, m: usize, entry: usize) -> &[C64] {
        let row = self
            .map
            .get(&(q, m))
            .unwrap_or_else(|| panic!("D block ({q},{m}) not resident on this rank"));
        &row[entry * 9..entry * 9 + 9]
    }
}

impl DBlocks for LocalD {
    fn dblock(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        self.get_block(q, w, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::c64;

    #[test]
    fn local_g_round_trip() {
        let mut g = LocalG::new(4, 4);
        assert!(!g.has(1, 2));
        let mut row = vec![C64::ZERO; 16];
        row[12..].fill(c64(1.0, 0.0));
        g.insert_row(1, 2, row);
        assert!(g.has(1, 2));
        assert_eq!(g.get_block(1, 2, 3)[0], c64(1.0, 0.0));
        assert_eq!(g.get_block(1, 2, 0)[0], C64::ZERO);
        assert_eq!(g.gblock(1, 2, 3)[1], c64(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn missing_g_point_panics() {
        let g = LocalG::new(2, 4);
        let _ = g.get_block(0, 0, 0);
    }

    #[test]
    fn local_d_round_trip() {
        let mut d = LocalD::new(5);
        assert!(!d.has(0, 1));
        let mut row = vec![C64::ZERO; 45];
        row[18..27].fill(c64(3.0, 0.0));
        d.insert_row(0, 1, row);
        assert!(d.has(0, 1));
        assert_eq!(d.get_block(0, 1, 2)[4], c64(3.0, 0.0));
        assert_eq!(d.dblock(0, 1, 2)[0], c64(3.0, 0.0));
    }
}
