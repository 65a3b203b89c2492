//! Shared test fixtures for the SSE kernels. The module is always
//! compiled (`#[doc(hidden)] pub mod testutil` in the crate root), so the
//! crate's unit tests, its integration tests and the `omen-bench` binaries
//! all use it; nothing in the library calls it.

use crate::point_kernels::trace_product;
use crate::problem::SseProblem;
use crate::stages::{EnergyWindow, Stencil};
use crate::tensors::{DTensor, GTensor, D_BSZ};
use omen_device::{DeviceConfig, DeviceStructure};
use omen_linalg::{
    add_planes, as_c64, c64, dft_blocks, pack_planes, sbsmm_scalar, use_packed_kernel, BatchDims,
    CMatrix, Strides, C64,
};

/// The standard tiny device for kernel tests.
pub fn tiny_device() -> DeviceStructure {
    DeviceStructure::build(DeviceConfig::tiny())
}

/// A small but non-degenerate SSE problem on the tiny device.
pub fn tiny_problem(device: &DeviceStructure) -> SseProblem<'_> {
    SseProblem::new(device, 2, 6, 2, 2, 1.0, 1.0)
}

/// Deterministic pseudo-random value in roughly `[-1, 1]`.
fn rnd(seed: u64, tag: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 29;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Generates physically-shaped random inputs:
/// * `G^≷` atom-diagonal blocks made anti-Hermitian with magnitude ~1e-3
///   (like real lesser/greater GFs);
/// * `D^≷` pair/diagonal blocks with magnitude ~1e-5.
pub fn random_inputs(prob: &SseProblem, seed: u64) -> (GTensor, GTensor, DTensor, DTensor) {
    let norb = prob.norb();
    let na = prob.na();
    let mk_g = |shift: u64| {
        let mut g = GTensor::zeros(prob.nk, prob.ne, na, norb);
        for k in 0..prob.nk {
            for e in 0..prob.ne {
                for a in 0..na {
                    let blk = g.block_mut(k, e, a);
                    // Anti-Hermitian: iX with X Hermitian.
                    for r in 0..norb {
                        for c in 0..=r {
                            let tag = ((((k * 131 + e) * 137 + a) * norb + r) * norb + c) as u64;
                            let re = rnd(seed + shift, tag) * 1e-3;
                            let im = rnd(seed + shift, tag ^ 0xABCD) * 1e-3;
                            if r == c {
                                blk[c * norb + r] = c64(0.0, re);
                            } else {
                                blk[c * norb + r] = c64(-im, re);
                                blk[r * norb + c] = c64(im, re);
                            }
                        }
                    }
                }
            }
        }
        g
    };
    let gl = mk_g(0);
    let gg = mk_g(1_000_000);

    let mk_d = |shift: u64| {
        let mut d = DTensor::zeros(prob.nq, prob.nw, prob.npairs(), na);
        for q in 0..prob.nq {
            for w in 0..prob.nw {
                for en in 0..d.nentries() {
                    let blk = d.block_mut(q, w, en);
                    for (x, v) in blk.iter_mut().enumerate() {
                        let tag = (((q * 31 + w) * 37 + en) * 9 + x) as u64;
                        *v = c64(
                            rnd(seed + shift + 7, tag) * 1e-5,
                            rnd(seed + shift + 13, tag ^ 0x5555) * 1e-5,
                        );
                    }
                }
            }
        }
        d
    };
    let dl = mk_d(2_000_000);
    let dg = mk_d(3_000_000);
    (gl, gg, dl, dg)
}

/// `runs` of `len` `norb × norb` blocks, `[run][len][Norb²]` in groups
/// of `nk` runs, one per momentum, as the `∇H·G` stream stage A writes
/// (see [`crate::stages`]): each group taken to its momentum harmonics.
pub fn stream_of(norb: usize, nk: usize, len: usize, blocks: &[C64]) -> Vec<f64> {
    let mut harmonics = blocks.to_vec();
    dft_blocks(nk, false, len * norb * norb, &mut harmonics);
    if use_packed_kernel(BatchDims::square(norb)) {
        return harmonics.iter().flat_map(|z| [z.re, z.im]).collect();
    }
    let mut planes = Vec::new();
    pack_planes(norb, len, &harmonics, len, 0, &mut planes);
    planes
}

/// The k-space blocks a `∇H·G` stream of runs of `len` holds: the inverse
/// of [`stream_of`], up to the transforms' rounding (a `−0.0` in the
/// planes comes back as `+0.0`).
pub fn stream_blocks(norb: usize, nk: usize, len: usize, stream: &[f64]) -> Vec<C64> {
    let mut blocks = if use_packed_kernel(BatchDims::square(norb)) {
        as_c64(stream).to_vec()
    } else {
        let mut blocks = vec![C64::ZERO; stream.len() / 2];
        add_planes(norb, len, stream, &mut blocks);
        blocks
    };
    dft_blocks(nk, true, len * norb * norb, &mut blocks);
    blocks
}

/// Stage A one block at a time through [`sbsmm_scalar`], into blocks
/// `[i][κ][len]` at the momentum harmonics ([`dft_blocks`] on each
/// direction's output), the values [`crate::stages::grad_g`] writes: the
/// baseline `table9_sbsmm` measures `grad_g` against.
pub fn grad_g_scalar(norb: usize, len: usize, grads: &[CMatrix; 3], g: &[C64], out: &mut [C64]) {
    let bsz = norb * norb;
    let nk = g.len() / (len * bsz);
    let strides = Strides {
        a: 0,
        b: bsz,
        c: bsz,
    };
    for (grad, o) in grads.iter().zip(out.chunks_exact_mut(g.len())) {
        let (dims, n) = (BatchDims::square(norb), g.len() / bsz);
        sbsmm_scalar(dims, n, C64::ONE, grad.as_slice(), g, C64::ZERO, o, strides);
        dft_blocks(nk, false, len * bsz, o);
    }
}

/// Stage C one block at a time through [`sbsmm_scalar`]: the oracle of
/// [`crate::stages::sigma_pair`] (the same arguments with the `∇H·G`
/// streams as k-space blocks, [`stream_blocks`]; the same scaled result
/// up to rounding) and the baseline `table9_sbsmm` measures it against.
#[allow(clippy::too_many_arguments)]
pub fn sigma_pair_scalar(
    prob: &SseProblem,
    win: &EnergyWindow,
    hg_l: &[C64],
    hg_g: &[C64],
    hd_l: &[C64],
    hd_g: &[C64],
    out_l: &mut [C64],
    out_g: &mut [C64],
) {
    let bsz = prob.norb() * prob.norb();
    let dims = BatchDims::square(prob.norb());
    let (nk, nq, nw) = (prob.nk, prob.nq, prob.nw);
    let (hw, ew) = (win.halo_len(), win.own_len());
    let strides = Strides {
        a: bsz,
        b: 0,
        c: bsz,
    };
    let mac = |n: usize, hg: &[C64], ax: usize, hd: &[C64], out: &mut [C64], cx: usize| {
        if n > 0 {
            let (a, c) = (&hg[ax * bsz..], &mut out[cx * bsz..]);
            sbsmm_scalar(dims, n, C64::ONE, a, hd, C64::ONE, c, strides);
        }
    };
    for i in 0..3 {
        for q in 0..nq {
            for m in 0..nw {
                let st = Stencil::new(win, prob.omega_steps(m));
                let hd0 = ((i * nq + q) * nw + m) * bsz;
                let scaled = |hd: &[C64]| -> Vec<C64> {
                    let block = hd[hd0..hd0 + bsz].iter();
                    block.map(|z| z.scale(prob.scale_sigma)).collect()
                };
                let (dl, dg) = (scaled(hd_l), scaled(hd_g));
                for k in 0..nk {
                    let src = (i * nk + prob.k_minus_q(k, q)) * hw;
                    let a_em = src + st.em_lo - st.steps - win.halo.0;
                    let a_ab = src + win.own.0 + st.steps - win.halo.0;
                    let c_em = k * ew + st.em_lo - win.own.0;
                    mac(st.n_em, hg_l, a_em, &dl, out_l, c_em);
                    mac(st.n_em, hg_g, a_em, &dg, out_g, c_em);
                    mac(st.n_ab, hg_l, a_ab, &dg, out_l, k * ew);
                    mac(st.n_ab, hg_g, a_ab, &dl, out_g, k * ew);
                }
            }
        }
    }
}

/// Stage D at one `(qz, ω_m)`, one [`trace_product`] per block pair: the
/// oracle of [`crate::stages::pi_pair`] (the streams as k-space blocks)
/// and its `table9_sbsmm` baseline. Returns `(C^<, C^>)`.
#[allow(clippy::too_many_arguments)]
pub fn pi_pair_scalar(
    prob: &SseProblem,
    q: usize,
    m: usize,
    win: &EnergyWindow,
    x_l: &[C64],
    x_g: &[C64],
    y_l: &[C64],
    y_g: &[C64],
) -> ([C64; D_BSZ], [C64; D_BSZ]) {
    let norb = prob.norb();
    let bsz = norb * norb;
    let steps = prob.omega_steps(m);
    let e_hi = win.own.1.min(win.ne.saturating_sub(steps));
    let blk = |dir: usize, k: usize, e: usize| {
        let o = ((dir * prob.nk + k) * win.halo_len() + e - win.halo.0) * bsz;
        o..o + bsz
    };
    let mut c_l = [C64::ZERO; D_BSZ];
    let mut c_g = [C64::ZERO; D_BSZ];
    for k in 0..prob.nk {
        let kq = prob.k_plus_q(k, q);
        for e in win.own.0..e_hi {
            for i in 0..3 {
                let xr = blk(i, kq, e + steps);
                for j in 0..3 {
                    let yr = blk(j, k, e);
                    c_l[j * 3 + i] += trace_product(&x_l[xr.clone()], &y_g[yr.clone()], norb);
                    c_g[j * 3 + i] += trace_product(&x_g[xr.clone()], &y_l[yr], norb);
                }
            }
        }
    }
    (c_l, c_g)
}
