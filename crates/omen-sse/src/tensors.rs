//! Multi-dimensional Green's-function and self-energy tensors.
//!
//! §4 of the paper: evaluating Eqs. (2)–(3) needs two 5-D electron tensors
//! of shape `[Nkz, NE, Na, Norb, Norb]` and two 6-D phonon tensors of shape
//! `[Nqz, Nω, Na, Nb+1, 3, 3]`. The data-layout transformation of Fig. 6
//! (step ❷) permutes the outer electron dimensions so that energy is
//! innermost per atom and the SSE reads constant-stride runs. Every
//! electron tensor is built atom-major: the GF phase writes `G≷` that way,
//! every SSE kernel reads it in place and writes `Σ≷` that way, and the
//! driver mixes `Σ≷` elementwise. Pair-major survives only as an export
//! format ([`GTensor::to_layout`]). The phonon tensors have one layout,
//! point-major.

use omen_linalg::C64;

/// Layout of the electron-side tensors (`G^≷`, `Σ^≷`): every tensor is
/// built `AtomMajor`; `PairMajor` is an export format only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GLayout {
    /// `[kz][E][a]` — the physics-natural OMEN order (pair-major).
    PairMajor,
    /// `[a][kz][E]` — the DaCe order: energy contiguous per atom, enabling
    /// constant-stride batched GEMM over `E`.
    AtomMajor,
}

/// A 5-D electron tensor: `Norb × Norb` complex blocks indexed by
/// `(kz, E, atom)`.
#[derive(Clone, Debug)]
pub struct GTensor {
    /// Momentum points.
    pub nk: usize,
    /// Energy points.
    pub ne: usize,
    /// Atoms.
    pub na: usize,
    /// Orbitals per atom.
    pub norb: usize,
    /// Current layout.
    pub layout: GLayout,
    data: Vec<C64>,
}

impl GTensor {
    /// Zero-initialized atom-major tensor.
    pub fn zeros(nk: usize, ne: usize, na: usize, norb: usize) -> Self {
        GTensor {
            nk,
            ne,
            na,
            norb,
            layout: GLayout::AtomMajor,
            data: vec![C64::ZERO; nk * ne * na * norb * norb],
        }
    }

    /// Reshapes to the given dimensions, atom-major, with zeroed contents,
    /// reusing the backing buffer (allocation-free once the buffer is
    /// large enough — the reusable-output path of the SSE kernels).
    pub fn reset(&mut self, nk: usize, ne: usize, na: usize, norb: usize) {
        self.nk = nk;
        self.ne = ne;
        self.na = na;
        self.norb = norb;
        self.layout = GLayout::AtomMajor;
        self.data.clear();
        self.data.resize(nk * ne * na * norb * norb, C64::ZERO);
    }

    /// Block size in elements (`Norb²`).
    #[inline]
    pub fn bsz(&self) -> usize {
        self.norb * self.norb
    }

    /// Linear element offset of block `(k, e, a)`.
    #[inline]
    pub fn offset(&self, k: usize, e: usize, a: usize) -> usize {
        debug_assert!(k < self.nk && e < self.ne && a < self.na);
        let blk = match self.layout {
            GLayout::PairMajor => (k * self.ne + e) * self.na + a,
            GLayout::AtomMajor => (a * self.nk + k) * self.ne + e,
        };
        blk * self.bsz()
    }

    /// Borrows block `(k, e, a)` (column-major `Norb × Norb`).
    #[inline]
    pub fn block(&self, k: usize, e: usize, a: usize) -> &[C64] {
        let o = self.offset(k, e, a);
        &self.data[o..o + self.bsz()]
    }

    /// Mutable block access.
    #[inline]
    pub fn block_mut(&mut self, k: usize, e: usize, a: usize) -> &mut [C64] {
        let o = self.offset(k, e, a);
        let b = self.bsz();
        &mut self.data[o..o + b]
    }

    /// Full data slice (layout-ordered).
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Full mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Returns a copy converted to `layout` (no-op copy if identical): the
    /// export of a tensor in pair-major order.
    pub fn to_layout(&self, layout: GLayout) -> GTensor {
        let mut out = self.clone();
        out.layout = layout;
        if layout != self.layout {
            for k in 0..self.nk {
                for e in 0..self.ne {
                    for a in 0..self.na {
                        out.block_mut(k, e, a).copy_from_slice(self.block(k, e, a));
                    }
                }
            }
        }
        out
    }

    /// Max elementwise deviation against another tensor (any layouts);
    /// NaN when any element's deviation is NaN.
    pub fn max_deviation(&self, other: &GTensor) -> f64 {
        assert_eq!(
            (self.nk, self.ne, self.na, self.norb),
            (other.nk, other.ne, other.na, other.norb),
            "tensor shape mismatch"
        );
        let mut worst = 0.0f64;
        for k in 0..self.nk {
            for e in 0..self.ne {
                for a in 0..self.na {
                    let x = self.block(k, e, a);
                    let y = other.block(k, e, a);
                    worst = x.iter().zip(y).fold(worst, nan_max);
                }
            }
        }
        worst
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Total bytes of the payload (communication-volume bookkeeping).
    pub fn bytes(&self) -> usize {
        self.data.len() * 16
    }
}

/// A 6-D phonon tensor: `3 × 3` complex blocks indexed by `(qz, ω, entry)`
/// and laid out `[qz][ω][entry]`, where entries `0..npairs` are the
/// directed neighbor pairs (`D_ab`) and entries `npairs..npairs+na` are the
/// atom diagonals (`D_aa`) — together the `Nb + 1` blocks per atom of the
/// paper. The default is a zero-size tensor; it performs no allocation.
#[derive(Clone, Debug, Default)]
pub struct DTensor {
    /// Momentum points.
    pub nq: usize,
    /// Frequency points.
    pub nw: usize,
    /// Directed neighbor pairs.
    pub npairs: usize,
    /// Atoms (diagonal entries).
    pub na: usize,
    data: Vec<C64>,
}

impl Default for GTensor {
    /// A zero-size atom-major tensor; performs no allocation.
    fn default() -> Self {
        GTensor::zeros(0, 0, 0, 0)
    }
}

/// `worst` raised to `|u − v|`, sticky on NaN (`f64::max` would drop it).
fn nan_max(worst: f64, (u, v): (&C64, &C64)) -> f64 {
    let d = (*u - *v).abs();
    if d.is_nan() || d > worst {
        d
    } else {
        worst
    }
}

/// Block size of phonon entries: `3 × 3`.
pub const D_BSZ: usize = 9;

impl DTensor {
    /// Zero-initialized tensor.
    pub fn zeros(nq: usize, nw: usize, npairs: usize, na: usize) -> Self {
        DTensor {
            nq,
            nw,
            npairs,
            na,
            data: vec![C64::ZERO; nq * nw * (npairs + na) * D_BSZ],
        }
    }

    /// Reshapes to the given dimensions with zeroed contents, reusing the
    /// backing buffer (see [`GTensor::reset`]).
    pub fn reset(&mut self, nq: usize, nw: usize, npairs: usize, na: usize) {
        self.nq = nq;
        self.nw = nw;
        self.npairs = npairs;
        self.na = na;
        self.data.clear();
        self.data.resize(nq * nw * (npairs + na) * D_BSZ, C64::ZERO);
    }

    /// Total entries per `(q, ω)` point.
    #[inline]
    pub fn nentries(&self) -> usize {
        self.npairs + self.na
    }

    /// Entry index of directed pair `p`.
    #[inline]
    pub fn pair_entry(&self, p: usize) -> usize {
        debug_assert!(p < self.npairs);
        p
    }

    /// Entry index of atom diagonal `a`.
    #[inline]
    pub fn diag_entry(&self, a: usize) -> usize {
        debug_assert!(a < self.na);
        self.npairs + a
    }

    /// Linear element offset of block `(q, w, entry)`.
    #[inline]
    pub fn offset(&self, q: usize, w: usize, entry: usize) -> usize {
        debug_assert!(q < self.nq && w < self.nw && entry < self.nentries());
        ((q * self.nw + w) * self.nentries() + entry) * D_BSZ
    }

    /// Borrows block `(q, w, entry)` (column-major `3 × 3`).
    #[inline]
    pub fn block(&self, q: usize, w: usize, entry: usize) -> &[C64] {
        let o = self.offset(q, w, entry);
        &self.data[o..o + D_BSZ]
    }

    /// Mutable block access.
    #[inline]
    pub fn block_mut(&mut self, q: usize, w: usize, entry: usize) -> &mut [C64] {
        let o = self.offset(q, w, entry);
        &mut self.data[o..o + D_BSZ]
    }

    /// Full data slice.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Full mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Max elementwise deviation against another tensor; NaN when any
    /// element's deviation is NaN.
    pub fn max_deviation(&self, other: &DTensor) -> f64 {
        assert_eq!(
            (self.nq, self.nw, self.npairs, self.na),
            (other.nq, other.nw, other.npairs, other.na),
            "tensor shape mismatch"
        );
        self.data.iter().zip(&other.data).fold(0.0, nan_max)
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Total bytes of the payload.
    pub fn bytes(&self) -> usize {
        self.data.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_linalg::c64;

    fn filled_g() -> GTensor {
        let mut t = GTensor::zeros(2, 3, 4, 2);
        for k in 0..2 {
            for e in 0..3 {
                for a in 0..4 {
                    for (x, v) in t.block_mut(k, e, a).iter_mut().enumerate() {
                        *v = c64((k * 100 + e * 10 + a) as f64, x as f64);
                    }
                }
            }
        }
        t
    }

    #[test]
    fn g_layout_round_trip() {
        let t = filled_g();
        let u = t.to_layout(GLayout::PairMajor);
        assert_eq!(u.layout, GLayout::PairMajor);
        assert_eq!(t.max_deviation(&u), 0.0);
        let back = u.to_layout(GLayout::AtomMajor);
        assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    fn g_atom_major_energy_contiguous() {
        let t = filled_g();
        assert_eq!(t.layout, GLayout::AtomMajor);
        // Blocks (k, e, a) and (k, e+1, a) must be bsz() apart.
        let d = t.offset(1, 2, 3) - t.offset(1, 1, 3);
        assert_eq!(d, t.bsz());
    }

    #[test]
    fn g_pair_major_atom_contiguous() {
        let t = filled_g().to_layout(GLayout::PairMajor);
        let d = t.offset(1, 2, 3) - t.offset(1, 2, 2);
        assert_eq!(d, t.bsz());
    }

    #[test]
    fn g_deviation_sees_nan() {
        let zero = GTensor::zeros(2, 3, 4, 2);
        let mut t = filled_g();
        t.block_mut(0, 1, 2)[1] = c64(f64::NAN, 0.0);
        assert!(t.max_deviation(&zero).is_nan());
        assert!(zero.max_deviation(&t).is_nan());
    }

    #[test]
    fn d_deviation_sees_nan() {
        let zero = DTensor::zeros(2, 2, 5, 3);
        let mut t = zero.clone();
        t.block_mut(0, 1, 2)[4] = c64(1.0, f64::NAN);
        t.block_mut(1, 1, 7)[0] = c64(2.0, 0.0);
        assert!(t.max_deviation(&zero).is_nan());
        assert!(zero.max_deviation(&t).is_nan());
    }

    #[test]
    fn d_tensor_entries() {
        let mut t = DTensor::zeros(2, 2, 5, 3);
        assert_eq!(t.nentries(), 8);
        t.block_mut(1, 0, t.diag_entry(2))[0] = c64(7.0, 0.0);
        assert_eq!(t.block(1, 0, 7)[0], c64(7.0, 0.0));
    }

    #[test]
    fn byte_accounting() {
        let g = GTensor::zeros(2, 3, 4, 5);
        assert_eq!(g.bytes(), 2 * 3 * 4 * 25 * 16);
        let d = DTensor::zeros(2, 3, 4, 5);
        assert_eq!(d.bytes(), 2 * 3 * 9 * 9 * 16);
    }

    #[test]
    fn max_abs_works() {
        let mut g = GTensor::zeros(1, 1, 1, 2);
        g.block_mut(0, 0, 0)[3] = c64(-3.0, 4.0);
        assert_eq!(g.max_abs(), 5.0);
    }
}
