//! The GF phase's outputs, written in place by the row solves.
//!
//! The paper's GF phase is embarrassingly parallel over points; what makes
//! naive parallelization awkward is that every point solve feeds *many*
//! outputs (SSE input tensors, current spectra, densities, contact
//! currents). Here each output has one home:
//!
//! * [`ElectronObservables`] / [`PhononObservables`] own the `G≷`/`D≷`
//!   tensors and one row of raw, unweighted scalars per point. `G≷` is
//!   atom-major, `[atom][k][E]`, the layout the SSE reads; `D≷` and the
//!   raw rows are `[k][x][…]`. A sweep unit `(k, chunk)` owns one run of
//!   its points per atom of `G≷`, and one contiguous slice of `D≷` and of
//!   the raw rows;
//! * [`Rows`] is a unit's view of its runs — the [`omen_rgf::RowSink`]
//!   a row solve writes each block row through, the same way whether the
//!   row was solved on energy lanes or point by point;
//! * `finish` applies the integration weights to the raw scalars after the
//!   sweep, in `(k, x)` order.
//!
//! Every value is written by exactly one unit and the weighted sums run in
//! global point order, so results are bit-identical at every worker count
//! and in any order of unit completion.

use omen_device::DeviceStructure;
use omen_linalg::{CMatrix, C64};
use omen_rgf::{contact_current, interface_current, Electrons, PhononParams, RgfRow, RowSink};
use omen_sse::{DTensor, GTensor, D_BSZ};
use std::marker::PhantomData;

/// Per-point sizes of an electron sweep's output: `G≷` elements in one
/// atom's run (one `Norb²` block) and raw scalars (`j_n` per interface,
/// the occupation per atom, the two contact currents).
fn electron_point(dev: &DeviceStructure) -> (usize, usize) {
    let (nb, na, norb) = (dev.bnum(), dev.num_atoms(), dev.material.norb);
    (norb * norb, nb - 1 + na + 2)
}

/// Per-point sizes of a phonon sweep's output: `D≷` elements (one `3×3`
/// block per entry, ordered as [`DTensor`]) and raw scalars (`j_n` per
/// interface, then the mode occupation and the spectral weight per atom).
fn phonon_point(dev: &DeviceStructure) -> (usize, usize) {
    let (nb, na) = (dev.bnum(), dev.num_atoms());
    ((dev.neighbors.num_pairs() + na) * D_BSZ, nb - 1 + 2 * na)
}

/// `data`, laid out `[r][x][per_point]` over `nx` points per row `r`, cut
/// into chunks of `width` points, in `(r, chunk)` order.
fn units<T>(
    data: &mut [T],
    nx: usize,
    width: usize,
    per_point: usize,
) -> impl Iterator<Item = &mut [T]> {
    data.chunks_mut(nx * per_point)
        .flat_map(move |row| row.chunks_mut(width * per_point))
}

/// One sweep unit's view of its runs of the phase's outputs: lane `e` of
/// a row solve is the unit's point `e` in every run. Each block row fills
/// what the observables read of it — the per-atom blocks of the atoms in
/// that slab (and, for phonons, the pair blocks that cross to the next
/// slab), the interface current into the next slab, and the contact
/// current at either end — so no whole solution is ever held.
pub(crate) struct Rows<'a, C> {
    dev: &'a DeviceStructure,
    /// The unit's `G^<`/`D^<` runs, lane-major: one per atom of `G^<`,
    /// one of `D^<`.
    lesser: Vec<&'a mut [C64]>,
    /// The unit's `G^>`/`D^>` runs.
    greater: Vec<&'a mut [C64]>,
    /// The unit's raw scalars, one row per lane.
    raw: &'a mut [f64],
    carrier: PhantomData<C>,
}

impl<'a, C> Rows<'a, C> {
    /// The views of every `(k, chunk)` unit of a sweep over `nx` points
    /// per momentum, in unit order. The tensors are rows of `nx` points —
    /// `(atom, k)` rows for `G≷`, `k` rows for `D≷` — so chunk `i` of them
    /// is a run of unit `i mod units`.
    fn split(
        dev: &'a DeviceStructure,
        [lesser, greater]: [&'a mut [C64]; 2],
        raw: &'a mut [f64],
        (nx, width): (usize, usize),
        (per_point, scalars): (usize, usize),
    ) -> Vec<Self> {
        // Runs per unit: one per atom of `G≷`, one of `D≷`.
        let per_unit = lesser.len() / (raw.len() / scalars * per_point).max(1);
        let mut rows: Vec<Self> = units(raw, nx, width, scalars)
            .map(|raw| Rows {
                dev,
                lesser: Vec::with_capacity(per_unit),
                greater: Vec::with_capacity(per_unit),
                raw,
                carrier: PhantomData,
            })
            .collect();
        let n = rows.len();
        let runs = units(lesser, nx, width, per_point).zip(units(greater, nx, width, per_point));
        for (i, (lesser, greater)) in runs.enumerate() {
            rows[i % n].lesser.push(lesser);
            rows[i % n].greater.push(greater);
        }
        rows
    }

    /// Lane `lane`'s `≷` elements in each run, and its raw scalars.
    fn lane(
        &mut self,
        lane: usize,
        (per_point, scalars): (usize, usize),
    ) -> (
        impl Iterator<Item = (&mut [C64], &mut [C64])> + use<'_, 'a, C>,
        &mut [f64],
    ) {
        let b = lane * per_point..(lane + 1) * per_point;
        let runs = (self.lesser.iter_mut().zip(&mut self.greater))
            .map(move |(l, g)| (&mut l[b.clone()], &mut g[b.clone()]));
        (runs, &mut self.raw[lane * scalars..(lane + 1) * scalars])
    }
}

impl RowSink for Rows<'_, Electrons> {
    fn row(&mut self, lane: usize, row: &RgfRow<'_>, [left, right]: [&(CMatrix, CMatrix); 2]) {
        let (dev, n) = (self.dev, row.n);
        let (nb, na, norb) = (dev.bnum(), dev.num_atoms(), dev.material.norb);
        let (runs, raw) = self.lane(lane, electron_point(dev));
        let (interface_j, rest) = raw.split_at_mut(nb - 1);
        let (density, contact) = rest.split_at_mut(na);
        for ((a, atom), (gl, gg)) in dev.lattice.atoms.iter().enumerate().zip(runs) {
            if atom.slab != n {
                continue;
            }
            let r0 = atom.slab_offset * norb;
            copy_subblock(row.gl_diag, r0, r0, norb, gl);
            copy_subblock(row.gg_diag, r0, r0, norb, gg);
            density[a] = (0..norb).map(|o| row.gl_diag[(r0 + o, r0 + o)].im).sum();
        }
        if let Some(cp) = &row.coupling {
            interface_j[n] = interface_current(cp.upper, cp.gl_lower);
        }
        if n == 0 {
            contact[0] = contact_current(&left.0, &left.1, row.gl_diag, row.gg_diag);
        }
        if n + 1 == nb {
            contact[1] = contact_current(&right.0, &right.1, row.gl_diag, row.gg_diag);
        }
    }
}

impl RowSink for Rows<'_, PhononParams> {
    /// Same-slab entries come from the slab's diagonal blocks, adjacent-
    /// slab pairs from `D≷[n+1][n]` (via `D[s][s+1] = −(D[s+1][s])†` for
    /// the upper one); pairs through a periodic z-image with `a == b`
    /// reuse the atom diagonal (the `qz` phase is already in `Φ(qz)`).
    fn row(&mut self, lane: usize, row: &RgfRow<'_>, _: [&(CMatrix, CMatrix); 2]) {
        const N3D: usize = 3;
        let (dev, n) = (self.dev, row.n);
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let npairs = dev.neighbors.num_pairs();
        let (mut runs, raw) = self.lane(lane, phonon_point(dev));
        let (gl, gg) = runs.next().expect("a unit holds one D≷ run");
        let (interface_j, rest) = raw.split_at_mut(nb - 1);
        let (occupation, spectral) = rest.split_at_mut(na);
        let entry = |en: usize| en * D_BSZ..(en + 1) * D_BSZ;
        for (a, atom) in dev.lattice.atoms.iter().enumerate() {
            if atom.slab != n {
                continue;
            }
            let r0 = atom.slab_offset * N3D;
            copy_subblock(row.gl_diag, r0, r0, N3D, &mut gl[entry(npairs + a)]);
            copy_subblock(row.gg_diag, r0, r0, N3D, &mut gg[entry(npairs + a)]);
            // Boson convention D^< = n·(D^R − D^A): the occupation is
            // −Im diag(D^<) (opposite sign to electrons).
            let diag = |m: &CMatrix, x: usize| m[(r0 + x, r0 + x)].im;
            occupation[a] = (0..N3D).map(|x| -diag(row.gl_diag, x)).sum();
            spectral[a] = (0..N3D).map(|x| -2.0 * diag(row.gr_diag, x)).sum();
        }
        for (p, pair) in dev.neighbors.pairs.iter().enumerate() {
            let (fa, ta) = (dev.lattice.atoms[pair.from], dev.lattice.atoms[pair.to]);
            let (r0, c0) = (fa.slab_offset * N3D, ta.slab_offset * N3D);
            let (dl, dg) = (&mut gl[entry(p)], &mut gg[entry(p)]);
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
            interface_j[n] = interface_current(cp.upper, cp.gl_lower);
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

/// An electron sweep's outputs: the SSE input tensors, the raw per-point
/// scalars, and — after [`ElectronObservables::finish`] — every electron
/// observable of [`crate::driver::SpectralData`].
pub(crate) struct ElectronObservables {
    /// `G^<` SSE input tensor (AtomMajor).
    pub(crate) g_l: GTensor,
    /// `G^>` SSE input tensor.
    pub(crate) g_g: GTensor,
    /// Raw scalars, `[k][E][electron_point().1]`.
    raw: Vec<f64>,
    /// Momentum-averaged current spectrum `j(E, interface)`.
    pub(crate) el_current_spectrum: Vec<Vec<f64>>,
    /// Charge current per interface.
    pub(crate) el_current: Vec<f64>,
    /// Energy current per interface.
    pub(crate) el_energy_current: Vec<f64>,
    /// Per-atom occupation.
    pub(crate) el_density: Vec<f64>,
    /// Meir-Wingreen contact currents (left, right).
    pub(crate) contacts: (f64, f64),
}

impl ElectronObservables {
    /// Zeroed outputs for `dev` on an `nk × ne` grid.
    pub(crate) fn new(dev: &DeviceStructure, nk: usize, ne: usize) -> Self {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let norb = dev.material.norb;
        ElectronObservables {
            g_l: GTensor::zeros(nk, ne, na, norb),
            g_g: GTensor::zeros(nk, ne, na, norb),
            raw: vec![0.0; nk * ne * electron_point(dev).1],
            el_current_spectrum: vec![vec![0.0; nb - 1]; ne],
            el_current: vec![0.0; nb - 1],
            el_energy_current: vec![0.0; nb - 1],
            el_density: vec![0.0; na],
            contacts: (0.0, 0.0),
        }
    }

    /// The `(k, chunk)` units' views, `width` energies each, unit order.
    pub(crate) fn rows<'a>(
        &'a mut self,
        dev: &'a DeviceStructure,
        width: usize,
    ) -> Vec<Rows<'a, Electrons>> {
        let grid = (self.g_l.ne, width);
        let tensors = [self.g_l.as_mut_slice(), self.g_g.as_mut_slice()];
        Rows::split(dev, tensors, &mut self.raw, grid, electron_point(dev))
    }

    /// Weights the raw scalars into the observables, point by point in
    /// `(k, E)` order: `w_k` (momentum) for the spectrum, `w_e` (energy ×
    /// momentum) for the integrated currents and densities.
    pub(crate) fn finish(&mut self, dev: &DeviceStructure, energies: &[f64], w_k: f64, w_e: f64) {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let points = self.raw.chunks_exact(electron_point(dev).1);
        for (raw, ie) in points.zip((0..energies.len()).cycle()) {
            let (interface_j, rest) = raw.split_at(nb - 1);
            let (density, contact) = rest.split_at(na);
            let e = energies[ie];
            for (n, &j) in interface_j.iter().enumerate() {
                self.el_current_spectrum[ie][n] += j * w_k;
                self.el_current[n] += j * w_e;
                self.el_energy_current[n] += e * j * w_e;
            }
            for (d, &occ) in self.el_density.iter_mut().zip(density) {
                *d += occ * w_e;
            }
            self.contacts.0 += contact[0] * w_e;
            self.contacts.1 += contact[1] * w_e;
        }
    }
}

/// A phonon sweep's outputs, as [`ElectronObservables`].
pub(crate) struct PhononObservables {
    /// `D^<` SSE input tensor.
    pub(crate) d_l: DTensor,
    /// `D^>` SSE input tensor.
    pub(crate) d_g: DTensor,
    /// Raw scalars, `[q][ω][phonon_point().1]`.
    raw: Vec<f64>,
    /// Phonon energy current per interface.
    pub(crate) ph_energy_current: Vec<f64>,
    /// Per-atom phonon energy density.
    pub(crate) ph_energy_density: Vec<f64>,
    /// Per-atom, per-frequency phonon DOS (`dos[m][a]`).
    pub(crate) ph_dos: Vec<Vec<f64>>,
}

impl PhononObservables {
    /// Zeroed outputs for `dev` on an `nq × nw` grid.
    pub(crate) fn new(dev: &DeviceStructure, nq: usize, nw: usize) -> Self {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let npairs = dev.neighbors.num_pairs();
        PhononObservables {
            d_l: DTensor::zeros(nq, nw, npairs, na),
            d_g: DTensor::zeros(nq, nw, npairs, na),
            raw: vec![0.0; nq * nw * phonon_point(dev).1],
            ph_energy_current: vec![0.0; nb - 1],
            ph_energy_density: vec![0.0; na],
            ph_dos: vec![vec![0.0; na]; nw],
        }
    }

    /// The `(q, chunk)` units' views, `width` frequencies each, unit order.
    pub(crate) fn rows<'a>(
        &'a mut self,
        dev: &'a DeviceStructure,
        width: usize,
    ) -> Vec<Rows<'a, PhononParams>> {
        let grid = (self.d_l.nw, width);
        let tensors = [self.d_l.as_mut_slice(), self.d_g.as_mut_slice()];
        Rows::split(dev, tensors, &mut self.raw, grid, phonon_point(dev))
    }

    /// Weights the raw scalars into the observables in `(q, ω)` order:
    /// `w_k` for the DOS, `w_ph` (frequency × momentum) for the rest.
    pub(crate) fn finish(&mut self, dev: &DeviceStructure, omegas: &[f64], w_k: f64, w_ph: f64) {
        let (nb, na) = (dev.bnum(), dev.num_atoms());
        let points = self.raw.chunks_exact(phonon_point(dev).1);
        for (raw, iw) in points.zip((0..omegas.len()).cycle()) {
            let (interface_j, rest) = raw.split_at(nb - 1);
            let (occupation, spectral) = rest.split_at(na);
            let w = omegas[iw];
            for (n, &j) in interface_j.iter().enumerate() {
                self.ph_energy_current[n] += w * j * w_ph;
            }
            for (a, (&occ, &spec)) in occupation.iter().zip(spectral).enumerate() {
                self.ph_energy_density[a] += w * occ * w_ph;
                self.ph_dos[iw][a] += spec * w_k;
            }
        }
    }
}
