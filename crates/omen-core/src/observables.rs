//! Observable accumulators for the GF phase.
//!
//! The paper's GF phase is embarrassingly parallel over points; what makes
//! naive parallelization awkward is that every point solve feeds *many*
//! outputs (SSE input tensors, current spectra, densities, contact
//! currents). This module factors that into:
//!
//! * a per-point **contribution** — the pure output of one solve, with no
//!   integration weights applied;
//! * an [`Observables`] accumulator — owns the weighted sums and tensors
//!   and consumes contributions in a deterministic order.
//!
//! Accumulation order is what fixes floating-point reproducibility:
//! executors feed contributions in global point order, so runs are
//! bit-identical at every worker count.

use omen_device::DeviceStructure;
use omen_linalg::C64;
use omen_rgf::{contact_current, interface_current, PhaseTimes, PointSolution};
use omen_sse::{DLayout, DTensor, GLayout, GTensor};

use crate::state::{extract_electron_blocks, extract_phonon_blocks};

/// An accumulator of per-point contributions.
///
/// Law (relied on by the executors): `accumulate` must be independent of
/// *when* it is called — only the order of contributions matters.
pub trait Observables: Sized + Send {
    /// The per-point contribution type.
    type Contribution: Send;

    /// Folds one point's contribution in.
    fn accumulate(&mut self, c: &Self::Contribution);
}

/// Pure output of one electron `(kz, E)` point solve — no integration
/// weights applied.
pub struct ElectronContribution {
    /// Momentum index.
    pub ik: usize,
    /// Energy index.
    pub ie: usize,
    /// Extracted per-atom `G^<` blocks (atom-ordered, `Norb²` each).
    pub gl: Vec<C64>,
    /// Extracted per-atom `G^>` blocks.
    pub gg: Vec<C64>,
    /// Raw interface currents `j_n` (length `bnum − 1`).
    pub interface_j: Vec<f64>,
    /// Raw per-atom occupations.
    pub density: Vec<f64>,
    /// Raw Meir-Wingreen contact currents (left, right).
    pub contact: (f64, f64),
    /// Sub-phase timings of the solve.
    pub times: PhaseTimes,
}

impl ElectronContribution {
    /// Extracts the contribution of a solved electron point.
    pub fn from_solution(dev: &DeviceStructure, ik: usize, ie: usize, out: &PointSolution) -> Self {
        let nb = dev.bnum();
        let norb = dev.material.norb;
        let na = dev.num_atoms();

        // Per-atom G^≷ blocks via a single-point scratch tensor (PairMajor
        // with nk = ne = 1 stores blocks contiguously in atom order).
        let mut gl_t = GTensor::zeros(1, 1, na, norb, GLayout::PairMajor);
        let mut gg_t = GTensor::zeros(1, 1, na, norb, GLayout::PairMajor);
        extract_electron_blocks(dev, &out.sol, 0, 0, &mut gl_t, &mut gg_t);

        let interface_j = (0..nb - 1)
            .map(|n| interface_current(&out.m.upper[n], &out.sol.gl_lower[n]))
            .collect();
        let density = dev
            .lattice
            .atoms
            .iter()
            .map(|atom| {
                let r0 = atom.slab_offset * norb;
                (0..norb)
                    .map(|o| out.sol.gl_diag[atom.slab][(r0 + o, r0 + o)].im)
                    .sum()
            })
            .collect();
        let contact = (
            contact_current(
                &out.boundary_lg_left.0,
                &out.boundary_lg_left.1,
                &out.sol.gl_diag[0],
                &out.sol.gg_diag[0],
            ),
            contact_current(
                &out.boundary_lg_right.0,
                &out.boundary_lg_right.1,
                &out.sol.gl_diag[nb - 1],
                &out.sol.gg_diag[nb - 1],
            ),
        );
        ElectronContribution {
            ik,
            ie,
            gl: gl_t.into_vec(),
            gg: gg_t.into_vec(),
            interface_j,
            density,
            contact,
            times: out.times,
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
    type Contribution = ElectronContribution;

    fn accumulate(&mut self, c: &Self::Contribution) {
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
        self.times.accumulate(&c.times);
    }
}

/// Pure output of one phonon `(qz, ω)` point solve.
pub struct PhononContribution {
    /// Momentum index.
    pub iq: usize,
    /// Frequency index.
    pub iw: usize,
    /// Extracted `D^<` entry blocks (entry-ordered, `3×3` each).
    pub dl: Vec<C64>,
    /// Extracted `D^>` entry blocks.
    pub dg: Vec<C64>,
    /// Raw interface energy-current integrands `j_n`.
    pub interface_j: Vec<f64>,
    /// Raw per-atom mode occupations.
    pub occupation: Vec<f64>,
    /// Raw per-atom spectral weights (DOS integrand).
    pub spectral: Vec<f64>,
    /// Sub-phase timings of the solve.
    pub times: PhaseTimes,
}

impl PhononContribution {
    /// Extracts the contribution of a solved phonon point.
    pub fn from_solution(dev: &DeviceStructure, iq: usize, iw: usize, out: &PointSolution) -> Self {
        let nb = dev.bnum();
        let na = dev.num_atoms();
        let npairs = dev.neighbors.num_pairs();

        let mut dl_t = DTensor::zeros(1, 1, npairs, na, DLayout::PointMajor);
        let mut dg_t = DTensor::zeros(1, 1, npairs, na, DLayout::PointMajor);
        extract_phonon_blocks(dev, &out.sol, 0, 0, &mut dl_t, &mut dg_t);

        let interface_j = (0..nb - 1)
            .map(|n| interface_current(&out.m.upper[n], &out.sol.gl_lower[n]))
            .collect();
        let mut occupation = Vec::with_capacity(na);
        let mut spectral = Vec::with_capacity(na);
        for atom in dev.lattice.atoms.iter() {
            let r0 = atom.slab_offset * 3;
            // Boson convention D^< = n·(D^R − D^A): the occupation is
            // −Im diag(D^<) (opposite sign to electrons).
            occupation.push(
                (0..3)
                    .map(|x| -out.sol.gl_diag[atom.slab][(r0 + x, r0 + x)].im)
                    .sum(),
            );
            spectral.push(
                (0..3)
                    .map(|x| -2.0 * out.sol.gr_diag[atom.slab][(r0 + x, r0 + x)].im)
                    .sum(),
            );
        }
        PhononContribution {
            iq,
            iw,
            dl: dl_t.into_vec(),
            dg: dg_t.into_vec(),
            interface_j,
            occupation,
            spectral,
            times: out.times,
        }
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
    type Contribution = PhononContribution;

    fn accumulate(&mut self, c: &Self::Contribution) {
        let nentries = self.d_l.nentries();
        for en in 0..nentries {
            self.d_l
                .block_mut(c.iq, c.iw, en)
                .copy_from_slice(&c.dl[en * omen_sse::D_BSZ..(en + 1) * omen_sse::D_BSZ]);
            self.d_g
                .block_mut(c.iq, c.iw, en)
                .copy_from_slice(&c.dg[en * omen_sse::D_BSZ..(en + 1) * omen_sse::D_BSZ]);
        }
        let w = self.omegas[c.iw];
        for (n, &j) in c.interface_j.iter().enumerate() {
            self.ph_energy_current[n] += w * j * self.w_ph;
        }
        for (a, (&occ, &spec)) in c.occupation.iter().zip(&c.spectral).enumerate() {
            self.ph_energy_density[a] += w * occ * self.w_ph;
            self.ph_dos[c.iw][a] += spec * self.w_k;
        }
        self.times.accumulate(&c.times);
    }
}
