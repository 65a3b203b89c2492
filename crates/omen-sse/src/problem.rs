//! Shared problem description for the SSE kernels: grids, couplings, and
//! the directed-pair topology extracted from the device.

use omen_device::DeviceStructure;
use std::borrow::Cow;

/// One SSE evaluation problem: the energy/momentum/frequency grids, the
/// physical prefactors, and the neighbor-pair topology.
///
/// Grid conventions (matching the paper's stencil, Fig. 5):
/// * electron momenta `kz` and phonon momenta `qz` discretize the same
///   Brillouin zone (`Nqz == Nkz` is asserted), wrapping periodically —
///   the identity that lets the transformed stages C and D run on
///   momentum harmonics (a length-`Nkz` DFT);
/// * phonon frequencies are commensurate with the energy grid:
///   `ℏω_m = (m + 1) · dE` for frequency index `m ∈ [0, Nω)`, so the
///   `E ± ℏω` stencil lands on grid points (radius `Nω`, as in Fig. 6);
/// * energies outside the grid window are dropped (standard windowing).
pub struct SseProblem<'a> {
    /// The device (neighbor pairs, `∇H` table, orbital count).
    pub device: &'a DeviceStructure,
    /// Electron momentum points (`Nkz`).
    pub nk: usize,
    /// Electron energy points (`NE`).
    pub ne: usize,
    /// Phonon momentum points (`Nqz`, equal to `nk`).
    pub nq: usize,
    /// Phonon frequency points (`Nω`).
    pub nw: usize,
    /// Prefactor applied to `Σ^≷` (coupling² × dω/2π bookkeeping).
    pub scale_sigma: f64,
    /// Prefactor applied to `Π^≷`.
    pub scale_pi: f64,
    /// Reverse-pair index: `rev_pair[p]` is the index of `(b → a, −m)` for
    /// pair `p = (a → b, m)`. Borrowed when the caller caches the table
    /// across problem constructions (the Born loop rebuilds the problem
    /// every iteration and must stay allocation-free).
    pub rev_pair: Cow<'a, [usize]>,
    /// Workers the transformed and mixed kernels run their per-atom tasks
    /// on. The constructors set 1 — everything inline on the calling
    /// thread; a driver copies its executor's worker count here.
    pub workers: usize,
}

/// The reverse-pair table of `device`: entry `p` is the index of the
/// opposite directed pair. Depends only on the neighbor list, so callers
/// that rebuild [`SseProblem`]s for a fixed device can compute it once
/// and pass it to [`SseProblem::with_rev_pair`].
pub fn compute_rev_pair(device: &DeviceStructure) -> Vec<usize> {
    let pairs = &device.neighbors.pairs;
    pairs
        .iter()
        .map(|p| {
            pairs
                .iter()
                .position(|q| {
                    q.from == p.to
                        && q.to == p.from
                        && q.z_image == -p.z_image
                        && (q.delta[0] + p.delta[0]).abs() < 1e-12
                        && (q.delta[1] + p.delta[1]).abs() < 1e-12
                        && (q.delta[2] + p.delta[2]).abs() < 1e-12
                })
                .expect("neighbor list must be symmetric")
        })
        .collect()
}

impl<'a> SseProblem<'a> {
    /// Builds the problem, precomputing the reverse-pair table.
    pub fn new(
        device: &'a DeviceStructure,
        nk: usize,
        ne: usize,
        nq: usize,
        nw: usize,
        scale_sigma: f64,
        scale_pi: f64,
    ) -> Self {
        let rev_pair = compute_rev_pair(device);
        Self::build(
            device,
            nk,
            ne,
            nq,
            nw,
            scale_sigma,
            scale_pi,
            Cow::Owned(rev_pair),
        )
    }

    /// [`SseProblem::new`] with a precomputed reverse-pair table (from
    /// [`compute_rev_pair`] on the same device): no allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn with_rev_pair(
        device: &'a DeviceStructure,
        nk: usize,
        ne: usize,
        nq: usize,
        nw: usize,
        scale_sigma: f64,
        scale_pi: f64,
        rev_pair: &'a [usize],
    ) -> Self {
        Self::build(
            device,
            nk,
            ne,
            nq,
            nw,
            scale_sigma,
            scale_pi,
            Cow::Borrowed(rev_pair),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        device: &'a DeviceStructure,
        nk: usize,
        ne: usize,
        nq: usize,
        nw: usize,
        scale_sigma: f64,
        scale_pi: f64,
        rev_pair: Cow<'a, [usize]>,
    ) -> Self {
        assert_eq!(
            nq, nk,
            "qz and kz must discretize the same Brillouin zone: stages C and D \
             take both momentum sums as circular convolutions on one grid, \
             exact only when Nqz = Nkz"
        );
        assert!(nw >= 1, "need at least one phonon frequency");
        assert!(ne > nw, "energy window must exceed the stencil radius");
        assert_eq!(
            rev_pair.len(),
            device.neighbors.num_pairs(),
            "reverse-pair table must cover every directed pair"
        );
        SseProblem {
            device,
            nk,
            ne,
            nq,
            nw,
            scale_sigma,
            scale_pi,
            rev_pair,
            workers: 1,
        }
    }

    /// Number of directed pairs.
    pub fn npairs(&self) -> usize {
        self.device.neighbors.num_pairs()
    }

    /// Number of atoms.
    pub fn na(&self) -> usize {
        self.device.num_atoms()
    }

    /// Orbitals per atom.
    pub fn norb(&self) -> usize {
        self.device.material.norb
    }

    /// Electron momentum after emitting phonon momentum `q`:
    /// `kz − qz` with periodic wrap.
    #[inline]
    pub fn k_minus_q(&self, k: usize, q: usize) -> usize {
        (k + self.nk - q) % self.nk
    }

    /// Electron momentum after absorbing phonon momentum `q`:
    /// `kz + qz` with periodic wrap.
    #[inline]
    pub fn k_plus_q(&self, k: usize, q: usize) -> usize {
        (k + q) % self.nk
    }

    /// The energy-grid offset of frequency index `m`: `ω_m = (m+1)` steps.
    #[inline]
    pub fn omega_steps(&self, m: usize) -> usize {
        m + 1
    }

    /// The directed pairs of atom `a` as `(pair_index, target_atom)`.
    pub fn pairs_of(&self, a: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.device.neighbors.offsets[a];
        let hi = self.device.neighbors.offsets[a + 1];
        (lo..hi).map(move |p| (p, self.device.neighbors.pairs[p].to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_device::{DeviceConfig, DeviceStructure};

    fn problem(dev: &DeviceStructure) -> SseProblem<'_> {
        SseProblem::new(dev, 3, 8, 3, 2, 1.0, 1.0)
    }

    #[test]
    fn reverse_pairs_are_involutive() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let prob = problem(&dev);
        for p in 0..prob.npairs() {
            let r = prob.rev_pair[p];
            assert_eq!(prob.rev_pair[r], p, "rev(rev(p)) == p");
            let pp = &dev.neighbors.pairs[p];
            let rr = &dev.neighbors.pairs[r];
            assert_eq!(pp.from, rr.to);
            assert_eq!(pp.to, rr.from);
        }
    }

    #[test]
    fn momentum_wrapping() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let prob = problem(&dev);
        assert_eq!(prob.k_minus_q(0, 1), 2);
        assert_eq!(prob.k_minus_q(2, 2), 0);
        assert_eq!(prob.k_plus_q(2, 2), 1);
        // Round trip: (k − q) + q == k.
        for k in 0..3 {
            for q in 0..3 {
                assert_eq!(prob.k_plus_q(prob.k_minus_q(k, q), q), k);
            }
        }
    }

    #[test]
    fn pairs_of_covers_all() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let prob = problem(&dev);
        let total: usize = (0..prob.na()).map(|a| prob.pairs_of(a).count()).sum();
        assert_eq!(total, prob.npairs());
        for a in 0..prob.na() {
            for (p, b) in prob.pairs_of(a) {
                assert_eq!(dev.neighbors.pairs[p].from, a);
                assert_eq!(dev.neighbors.pairs[p].to, b);
            }
        }
    }

    #[test]
    fn precomputed_rev_pair_matches_owned() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let table = compute_rev_pair(&dev);
        let owned = problem(&dev);
        let borrowed = SseProblem::with_rev_pair(&dev, 3, 8, 3, 2, 1.0, 1.0, &table);
        assert_eq!(&*owned.rev_pair, &*borrowed.rev_pair);
        assert!(matches!(borrowed.rev_pair, Cow::Borrowed(_)));
    }

    #[test]
    #[should_panic(expected = "cover every directed pair")]
    fn short_rev_pair_table_panics() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let _ = SseProblem::with_rev_pair(&dev, 3, 8, 3, 2, 1.0, 1.0, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "Brillouin zone")]
    fn mismatched_momentum_grids_panic() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let _ = SseProblem::new(&dev, 3, 8, 2, 2, 1.0, 1.0);
    }
}
