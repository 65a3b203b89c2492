//! The `∇H` coupling-derivative table consumed by the SSE kernels.
//!
//! Eq. (2)–(3) of the paper contract `∇_i H_ab` (the derivative of the
//! Hamiltonian coupling between neighbor atoms `a` and `b` with respect to
//! displacement direction `i ∈ {x,y,z}`) against electron and phonon
//! Green's functions. CP2K computes these with DFT; our synthetic material
//! differentiates the radial hopping law.

use crate::lattice::Lattice;
use crate::material::Material;
use crate::neighbors::NeighborList;
use omen_linalg::CMatrix;

/// `∇H` blocks for every directed neighbor pair, indexed like
/// [`NeighborList::pairs`].
#[derive(Clone, Debug)]
pub struct GradientTable {
    /// `grads[p][i]` is the `norb × norb` matrix `∂H/∂R_i` for pair `p`.
    pub grads: Vec<[CMatrix; 3]>,
    /// Orbitals per atom, for convenience.
    pub norb: usize,
}

impl GradientTable {
    /// Computes the table from the device description.
    pub fn build(_lattice: &Lattice, neighbors: &NeighborList, material: &Material) -> Self {
        let grads = neighbors
            .pairs
            .iter()
            .map(|p| material.gradient_blocks(p.delta))
            .collect();
        GradientTable {
            grads,
            norb: material.norb,
        }
    }

    /// Number of directed pairs covered.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Total storage in complex elements (for the data-ingestion model).
    pub fn num_elements(&self) -> usize {
        self.grads.len() * 3 * self.norb * self.norb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;
    use crate::neighbors::NeighborList;

    #[test]
    fn table_aligns_with_pairs() {
        let l = Lattice::rectangular(4, 2, 1, 0.25, 0.25, 0.25);
        let nl = NeighborList::build(&l, 0.26);
        let m = Material::silicon_like(3);
        let g = GradientTable::build(&l, &nl, &m);
        assert_eq!(g.len(), nl.num_pairs());
        assert!(!g.is_empty());
        assert_eq!(g.num_elements(), nl.num_pairs() * 3 * 9);
        for (p, n) in g.grads.iter().zip(nl.pairs.iter()) {
            for (pd, &nd) in p.iter().zip(n.delta.iter()) {
                assert_eq!(pd.shape(), (3, 3));
                // Gradient magnitude should scale with |delta_i|.
                if nd.abs() < 1e-12 {
                    assert!(
                        pd.max_abs() < 1e-10,
                        "zero-displacement direction must have zero gradient"
                    );
                }
            }
        }
    }

    #[test]
    fn reverse_pair_gradient_consistency() {
        // For the reverse pair (b -> a, -m): ∇H_ba = -(∇H_ab)^T.
        let l = Lattice::rectangular(4, 2, 1, 0.25, 0.25, 0.25);
        let nl = NeighborList::build(&l, 0.26);
        let m = Material::silicon_like(3);
        let g = GradientTable::build(&l, &nl, &m);
        for (pi, p) in nl.pairs.iter().enumerate() {
            // locate reverse pair
            let (qi, _) = nl
                .pairs
                .iter()
                .enumerate()
                .find(|(_, q)| {
                    q.from == p.to
                        && q.to == p.from
                        && q.z_image == -p.z_image
                        && (q.delta[0] + p.delta[0]).abs() < 1e-12
                        && (q.delta[1] + p.delta[1]).abs() < 1e-12
                        && (q.delta[2] + p.delta[2]).abs() < 1e-12
                })
                .expect("reverse pair exists");
            for d in 0..3 {
                let want = g.grads[pi][d]
                    .transpose()
                    .scaled(omen_linalg::c64(-1.0, 0.0));
                assert!(g.grads[qi][d].approx_eq(&want, 1e-13));
            }
        }
    }
}
