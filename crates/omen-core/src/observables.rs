//! Observable accumulators for the GF phase.
//!
//! The paper's GF phase is embarrassingly parallel over points; what makes
//! naive parallelization awkward is that every point solve feeds *many*
//! outputs (SSE input tensors, current spectra, densities, contact
//! currents). This module factors that into:
//!
//! * a per-point **contribution** — the pure output of one solve, with no
//!   integration weights applied — built by [`Rows`] from the block rows
//!   a solver hands over ([`omen_rgf::RowSink`]), the same way whether
//!   the row was solved on energy lanes or point by point;
//! * an [`Observables`] accumulator — owns the weighted sums and tensors
//!   and consumes one sweep unit's [`GfChunk`] of contributions at a time,
//!   in a deterministic order.
//!
//! Accumulation order is what fixes floating-point reproducibility:
//! executors feed chunks in unit order and a chunk holds its points in
//! energy order, so contributions fold in global point order and runs are
//! bit-identical at every worker count.

use omen_device::DeviceStructure;
use omen_linalg::{CMatrix, C64};
use omen_rgf::{contact_current, interface_current, PhaseTimes, RgfRow, RowSink};
use omen_sse::{DLayout, DTensor, GLayout, GTensor, D_BSZ};
use std::ops::Range;

/// An accumulator of per-point contributions.
///
/// Law (relied on by the executors): `accumulate` must be independent of
/// *when* it is called — only the order of contributions matters.
pub trait Observables: Sized + Send {
    /// The per-unit contribution type.
    type Contribution: Send;

    /// Folds one unit's contribution in.
    fn accumulate(&mut self, c: &Self::Contribution);
}

/// One sweep unit's output: its points' contributions in energy order and
/// the unit's sub-phase timings.
pub struct GfChunk<P> {
    /// One contribution per point of the unit.
    pub points: Vec<P>,
    /// Sub-phase timings of the unit's solve.
    pub times: PhaseTimes,
}

/// Pure output of one electron `(kz, E)` point solve — no integration
/// weights applied.
pub struct ElectronContribution {
    /// Momentum index.
    pub ik: usize,
    /// Energy index.
    pub ie: usize,
    /// Per-atom `G^<` blocks (atom-ordered, `Norb²` each).
    pub gl: Vec<C64>,
    /// Per-atom `G^>` blocks.
    pub gg: Vec<C64>,
    /// Raw interface currents `j_n` (length `bnum − 1`).
    pub interface_j: Vec<f64>,
    /// Raw per-atom occupations.
    pub density: Vec<f64>,
    /// Raw Meir-Wingreen contact currents (left, right).
    pub contact: (f64, f64),
}

/// Pure output of one phonon `(qz, ω)` point solve.
pub struct PhononContribution {
    /// Momentum index.
    pub iq: usize,
    /// Frequency index.
    pub iw: usize,
    /// `D^<` entry blocks (entry-ordered as [`DTensor`], `3×3` each).
    pub dl: Vec<C64>,
    /// `D^>` entry blocks.
    pub dg: Vec<C64>,
    /// Raw interface energy-current integrands `j_n`.
    pub interface_j: Vec<f64>,
    /// Raw per-atom mode occupations.
    pub occupation: Vec<f64>,
    /// Raw per-atom spectral weights (DOS integrand).
    pub spectral: Vec<f64>,
}

/// The row-fed builder of one sweep unit's contributions: lane `e` of a
/// row solve is point `points[e]`. Each block row fills what the
/// observables read of it — the per-atom blocks of the atoms in that slab
/// (and, for phonons, the pair blocks that cross to the next slab), the
/// interface current into the next slab, and the contact current at
/// either end — so no whole solution is ever held.
pub struct Rows<'d, P> {
    dev: &'d DeviceStructure,
    /// The unit's contributions, lane order.
    pub points: Vec<P>,
}

impl<'d> Rows<'d, ElectronContribution> {
    /// Empty contributions for the electron points `(ik, ie)`, `ie ∈ ies`.
    pub fn electrons(dev: &'d DeviceStructure, ik: usize, ies: Range<usize>) -> Self {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let bsz = dev.material.norb * dev.material.norb;
        let points = ies
            .map(|ie| ElectronContribution {
                ik,
                ie,
                gl: vec![C64::ZERO; na * bsz],
                gg: vec![C64::ZERO; na * bsz],
                interface_j: vec![0.0; nb - 1],
                density: vec![0.0; na],
                contact: (0.0, 0.0),
            })
            .collect();
        Rows { dev, points }
    }
}

impl<'d> Rows<'d, PhononContribution> {
    /// Empty contributions for the phonon points `(iq, iw)`, `iw ∈ iws`.
    pub fn phonons(dev: &'d DeviceStructure, iq: usize, iws: Range<usize>) -> Self {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let entries = dev.neighbors.num_pairs() + na;
        let points = iws
            .map(|iw| PhononContribution {
                iq,
                iw,
                dl: vec![C64::ZERO; entries * D_BSZ],
                dg: vec![C64::ZERO; entries * D_BSZ],
                interface_j: vec![0.0; nb - 1],
                occupation: vec![0.0; na],
                spectral: vec![0.0; na],
            })
            .collect();
        Rows { dev, points }
    }
}

impl RowSink for Rows<'_, ElectronContribution> {
    fn row(&mut self, lane: usize, row: &RgfRow<'_>, [left, right]: [&(CMatrix, CMatrix); 2]) {
        let (dev, c, n) = (self.dev, &mut self.points[lane], row.n);
        let norb = dev.material.norb;
        let bsz = norb * norb;
        for (a, atom) in dev.lattice.atoms.iter().enumerate() {
            if atom.slab != n {
                continue;
            }
            let r0 = atom.slab_offset * norb;
            let blk = a * bsz..(a + 1) * bsz;
            copy_subblock(row.gl_diag, r0, r0, norb, &mut c.gl[blk.clone()]);
            copy_subblock(row.gg_diag, r0, r0, norb, &mut c.gg[blk]);
            c.density[a] = (0..norb).map(|o| row.gl_diag[(r0 + o, r0 + o)].im).sum();
        }
        if let Some(cp) = &row.coupling {
            c.interface_j[n] = interface_current(cp.upper, cp.gl_lower);
        }
        if n == 0 {
            c.contact.0 = contact_current(&left.0, &left.1, row.gl_diag, row.gg_diag);
        }
        if n + 1 == dev.bnum() {
            c.contact.1 = contact_current(&right.0, &right.1, row.gl_diag, row.gg_diag);
        }
    }
}

impl RowSink for Rows<'_, PhononContribution> {
    /// Same-slab entries come from the slab's diagonal blocks, adjacent-
    /// slab pairs from `D≷[n+1][n]` (via `D[s][s+1] = −(D[s+1][s])†` for
    /// the upper one); pairs through a periodic z-image with `a == b`
    /// reuse the atom diagonal (the `qz` phase is already in `Φ(qz)`).
    fn row(&mut self, lane: usize, row: &RgfRow<'_>, _: [&(CMatrix, CMatrix); 2]) {
        const N3D: usize = 3;
        let (dev, c, n) = (self.dev, &mut self.points[lane], row.n);
        let npairs = dev.neighbors.num_pairs();
        let entry = |en: usize| en * D_BSZ..(en + 1) * D_BSZ;
        for (a, atom) in dev.lattice.atoms.iter().enumerate() {
            if atom.slab != n {
                continue;
            }
            let r0 = atom.slab_offset * N3D;
            copy_subblock(row.gl_diag, r0, r0, N3D, &mut c.dl[entry(npairs + a)]);
            copy_subblock(row.gg_diag, r0, r0, N3D, &mut c.dg[entry(npairs + a)]);
            // Boson convention D^< = n·(D^R − D^A): the occupation is
            // −Im diag(D^<) (opposite sign to electrons).
            let diag = |m: &CMatrix, x: usize| m[(r0 + x, r0 + x)].im;
            c.occupation[a] = (0..N3D).map(|x| -diag(row.gl_diag, x)).sum();
            c.spectral[a] = (0..N3D).map(|x| -2.0 * diag(row.gr_diag, x)).sum();
        }
        for (p, pair) in dev.neighbors.pairs.iter().enumerate() {
            let (fa, ta) = (dev.lattice.atoms[pair.from], dev.lattice.atoms[pair.to]);
            let (r0, c0) = (fa.slab_offset * N3D, ta.slab_offset * N3D);
            let (dl, dg) = (&mut c.dl[entry(p)], &mut c.dg[entry(p)]);
            match (ta.slab as i64 - fa.slab as i64, &row.coupling) {
                (0, _) if fa.slab == n => {
                    copy_subblock(row.gl_diag, r0, c0, N3D, dl);
                    copy_subblock(row.gg_diag, r0, c0, N3D, dg);
                }
                // D[s][s+1] = −(D[s+1][s])† for lesser/greater functions.
                (1, Some(cp)) if fa.slab == n => {
                    copy_subblock_adjoint_neg(cp.gl_lower, c0, r0, N3D, dl);
                    copy_subblock_adjoint_neg(cp.gg_lower, c0, r0, N3D, dg);
                }
                (-1, Some(cp)) if ta.slab == n => {
                    copy_subblock(cp.gl_lower, r0, c0, N3D, dl);
                    copy_subblock(cp.gg_lower, r0, c0, N3D, dg);
                }
                (-1..=1, _) => {}
                _ => unreachable!("neighbor list spans non-adjacent slabs"),
            }
        }
        if let Some(cp) = &row.coupling {
            c.interface_j[n] = interface_current(cp.upper, cp.gl_lower);
        }
    }
}

/// `dst = src[r0.., c0..]` (an `n × n` sub-block, column-major `dst`).
fn copy_subblock(src: &CMatrix, r0: usize, c0: usize, n: usize, dst: &mut [C64]) {
    for j in 0..n {
        for i in 0..n {
            dst[j * n + i] = src[(r0 + i, c0 + j)];
        }
    }
}

/// `dst = −(src[r0.., c0..])†`.
fn copy_subblock_adjoint_neg(src: &CMatrix, r0: usize, c0: usize, n: usize, dst: &mut [C64]) {
    for j in 0..n {
        for i in 0..n {
            dst[j * n + i] = -src[(r0 + j, c0 + i)].conj();
        }
    }
}

/// Accumulated electron-sweep outputs: the SSE input tensors plus every
/// electron observable of [`crate::driver::SpectralData`].
pub struct ElectronObservables {
    /// `G^<` SSE input tensor (PairMajor).
    pub g_l: GTensor,
    /// `G^>` SSE input tensor.
    pub g_g: GTensor,
    /// Momentum-averaged current spectrum `j(E, interface)`.
    pub el_current_spectrum: Vec<Vec<f64>>,
    /// Charge current per interface.
    pub el_current: Vec<f64>,
    /// Energy current per interface.
    pub el_energy_current: Vec<f64>,
    /// Per-atom occupation.
    pub el_density: Vec<f64>,
    /// Meir-Wingreen contact currents (left, right).
    pub contacts: (f64, f64),
    /// Accumulated sub-phase timings.
    pub times: PhaseTimes,
    /// Momentum weight (`kgrid.weight()`).
    w_k: f64,
    /// Full electron integration weight (`egrid × kgrid`).
    w_e: f64,
    /// Grid energies (for the energy current).
    energies: Vec<f64>,
}

impl ElectronObservables {
    /// A zeroed accumulator for `dev` and the given grids/weights.
    pub fn new(dev: &DeviceStructure, nk: usize, energies: Vec<f64>, w_k: f64, w_e: f64) -> Self {
        let nb = dev.bnum();
        let na = dev.num_atoms();
        let ne = energies.len();
        ElectronObservables {
            g_l: GTensor::zeros(nk, ne, na, dev.material.norb, GLayout::PairMajor),
            g_g: GTensor::zeros(nk, ne, na, dev.material.norb, GLayout::PairMajor),
            el_current_spectrum: vec![vec![0.0; nb - 1]; ne],
            el_current: vec![0.0; nb - 1],
            el_energy_current: vec![0.0; nb - 1],
            el_density: vec![0.0; na],
            contacts: (0.0, 0.0),
            times: PhaseTimes::default(),
            w_k,
            w_e,
            energies,
        }
    }
}

impl Observables for ElectronObservables {
    type Contribution = GfChunk<ElectronContribution>;

    fn accumulate(&mut self, chunk: &Self::Contribution) {
        chunk.points.iter().for_each(|c| self.add_point(c));
        self.times.accumulate(&chunk.times);
    }
}

impl ElectronObservables {
    fn add_point(&mut self, c: &ElectronContribution) {
        let bsz = self.g_l.bsz();
        for a in 0..self.g_l.na {
            self.g_l
                .block_mut(c.ik, c.ie, a)
                .copy_from_slice(&c.gl[a * bsz..(a + 1) * bsz]);
            self.g_g
                .block_mut(c.ik, c.ie, a)
                .copy_from_slice(&c.gg[a * bsz..(a + 1) * bsz]);
        }
        let e = self.energies[c.ie];
        for (n, &j) in c.interface_j.iter().enumerate() {
            self.el_current_spectrum[c.ie][n] += j * self.w_k;
            self.el_current[n] += j * self.w_e;
            self.el_energy_current[n] += e * j * self.w_e;
        }
        for (d, &occ) in self.el_density.iter_mut().zip(&c.density) {
            *d += occ * self.w_e;
        }
        self.contacts.0 += c.contact.0 * self.w_e;
        self.contacts.1 += c.contact.1 * self.w_e;
    }
}

/// Accumulated phonon-sweep outputs.
pub struct PhononObservables {
    /// `D^<` SSE input tensor (PointMajor).
    pub d_l: DTensor,
    /// `D^>` SSE input tensor.
    pub d_g: DTensor,
    /// Phonon energy current per interface.
    pub ph_energy_current: Vec<f64>,
    /// Per-atom phonon energy density.
    pub ph_energy_density: Vec<f64>,
    /// Per-atom, per-frequency phonon DOS (`dos[m][a]`).
    pub ph_dos: Vec<Vec<f64>>,
    /// Accumulated sub-phase timings.
    pub times: PhaseTimes,
    /// Momentum weight.
    w_k: f64,
    /// Full phonon integration weight (`fgrid × kgrid`).
    w_ph: f64,
    /// Grid frequencies.
    omegas: Vec<f64>,
}

impl PhononObservables {
    /// A zeroed accumulator for `dev` and the given grids/weights.
    pub fn new(dev: &DeviceStructure, nq: usize, omegas: Vec<f64>, w_k: f64, w_ph: f64) -> Self {
        let nb = dev.bnum();
        let na = dev.num_atoms();
        let nw = omegas.len();
        PhononObservables {
            d_l: DTensor::zeros(nq, nw, dev.neighbors.num_pairs(), na, DLayout::PointMajor),
            d_g: DTensor::zeros(nq, nw, dev.neighbors.num_pairs(), na, DLayout::PointMajor),
            ph_energy_current: vec![0.0; nb - 1],
            ph_energy_density: vec![0.0; na],
            ph_dos: vec![vec![0.0; na]; nw],
            times: PhaseTimes::default(),
            w_k,
            w_ph,
            omegas,
        }
    }
}

impl Observables for PhononObservables {
    type Contribution = GfChunk<PhononContribution>;

    fn accumulate(&mut self, chunk: &Self::Contribution) {
        chunk.points.iter().for_each(|c| self.add_point(c));
        self.times.accumulate(&chunk.times);
    }
}

impl PhononObservables {
    fn add_point(&mut self, c: &PhononContribution) {
        let nentries = self.d_l.nentries();
        for en in 0..nentries {
            self.d_l
                .block_mut(c.iq, c.iw, en)
                .copy_from_slice(&c.dl[en * D_BSZ..(en + 1) * D_BSZ]);
            self.d_g
                .block_mut(c.iq, c.iw, en)
                .copy_from_slice(&c.dg[en * D_BSZ..(en + 1) * D_BSZ]);
        }
        let w = self.omegas[c.iw];
        for (n, &j) in c.interface_j.iter().enumerate() {
            self.ph_energy_current[n] += w * j * self.w_ph;
        }
        for (a, (&occ, &spec)) in c.occupation.iter().zip(&c.spectral).enumerate() {
            self.ph_energy_density[a] += w * occ * self.w_ph;
            self.ph_dos[c.iw][a] += spec * self.w_k;
        }
    }
}
