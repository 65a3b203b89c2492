//! Shared test-system construction for RGF tests and benches.
//!
//! Public (not `cfg(test)`) for the same reason as `omen_sse::testutil`:
//! the bench binaries and the workspace-level integration tests build the
//! same physically-shaped systems.

use omen_linalg::{c64, BlockTriDiag, CMatrix, C64};

/// Builds a physically-shaped random test system: Hermitian `H`-like part
/// plus `+iη` broadening on the diagonal, Hermitian-conjugate couplings,
/// and anti-Hermitian `Σ^≷` blocks. Deterministic in `(nb, bs, seed)`.
pub fn test_system(nb: usize, bs: usize, seed: f64) -> (BlockTriDiag, Vec<CMatrix>, Vec<CMatrix>) {
    let mut m = BlockTriDiag::zeros(nb, bs);
    for b in 0..nb {
        let mut h = CMatrix::from_fn(bs, bs, |i, j| {
            c64(
                ((i * 3 + j * 7 + b) as f64 + seed).sin() * 0.3,
                ((i + 2 * j) as f64 - seed).cos() * 0.2,
            )
        });
        h.hermitianize();
        // M = E − H + iη on the diagonal.
        m.diag[b] = CMatrix::from_fn(bs, bs, |i, j| {
            let e = if i == j { c64(1.5, 5e-2) } else { C64::ZERO };
            e - h[(i, j)]
        });
    }
    for b in 0..nb - 1 {
        m.upper[b] = CMatrix::from_fn(bs, bs, |i, j| {
            c64(
                -0.6 + 0.05 * ((i + 2 * j + b) as f64 + seed).sin(),
                0.04 * ((i * 2 + j) as f64).cos(),
            )
        });
        m.lower[b] = m.upper[b].adjoint();
    }
    let mk_sigma = |shift: f64| {
        (0..nb)
            .map(|b| {
                let mut x = CMatrix::from_fn(bs, bs, |i, j| {
                    c64(
                        ((i + 3 * j + 2 * b) as f64 + shift).sin() * 0.15,
                        ((3 * i + j + b) as f64 - shift).cos() * 0.15,
                    )
                });
                x.hermitianize();
                x.scaled(C64::I)
            })
            .collect::<Vec<_>>()
    };
    (m, mk_sigma(seed + 0.4), mk_sigma(seed + 2.9))
}

/// One [`test_system`] per energy lane of a row solve: the same system
/// with lane `e`'s energy shifted by `0.01·e` (its diagonal blocks by
/// `0.01·e·I`), as consecutive energies of one momentum differ.
pub fn test_lanes(
    nb: usize,
    bs: usize,
    seed: f64,
    lanes: usize,
) -> Vec<(BlockTriDiag, Vec<CMatrix>, Vec<CMatrix>)> {
    (0..lanes)
        .map(|e| {
            let (mut m, sl, sg) = test_system(nb, bs, seed);
            let shift = CMatrix::from_diag(&vec![c64(0.01 * e as f64, 0.0); bs]);
            m.diag.iter_mut().for_each(|d| *d += &shift);
            (m, sl, sg)
        })
        .collect()
}
