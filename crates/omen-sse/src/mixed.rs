//! SSE-16: the mixed-precision SSE kernel of §5.4.
//!
//! The dominant stage-C multiplications of the transformed kernel run in
//! emulated Tensor-Core arithmetic: the transient tensors are converted to
//! split-complex binary16 with per-tensor normalization factors derived
//! from their magnitudes, out-of-range values are clamped, the `f16 × f16`
//! products accumulate in double precision, and the output is denormalized
//! by the inverse factors. Π^≷ stays in double precision (its cost is a
//! factor `Norb` smaller).
//!
//! The conversion is the **fused pack-and-convert** pass of
//! `omen_linalg::mixed`: each transient tensor is normalized, rounded to
//! binary16 and laid out as split-complex micro-panels in a single sweep
//! ([`omen_linalg::F16APanels`] / [`omen_linalg::F16BPanels`]), so the f16
//! batch and the micro-kernel pack buffers — previously two separate
//! materializations of the same data — are one array at half the bytes.
//! Stage C then runs the packed FMA micro-kernel with f64 accumulation
//! ([`omen_linalg::sbsmm_f16_packed`]) over the transformed kernel's loop
//! nest ([`crate::stages`]), as its per-atom tasks
//! ([`crate::transformed`]). A per-tensor factor needs the whole tensor,
//! so the transients are built and converted on the calling thread first.
//!
//! Disabling normalization reproduces the divergence of Fig. 7b: SSE
//! inputs span ~20 decades and the small magnitudes flush to zero in raw
//! binary16.

use crate::problem::SseProblem;
use crate::reference::SseOutput;
use crate::stages::{sigma_steps, EnergyWindow, SigmaStep};
use crate::tensors::{DTensor, GTensor};
use crate::transformed::{build_transients_into, run_atom_tasks, Transients};
use omen_linalg::{sbsmm_f16_packed, BatchDims, F16APanels, F16BPanels, Normalization};

/// Configuration of the mixed-precision kernel.
#[derive(Clone, Copy, Debug)]
pub struct MixedConfig {
    /// Normalization policy for the f16 conversion. `PerTensor` is the
    /// paper's scheme; `None` reproduces the unnormalized error curve.
    pub normalization: Normalization,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            normalization: Normalization::PerTensor,
        }
    }
}

/// Reusable storage of the mixed-precision kernel: the double-precision
/// transients plus their four fused f16 micro-panel conversions (the `hg`
/// tensors as left-operand panels, the `hd` tensors as right-operand
/// panels).
pub struct MixedScratch {
    /// Stage A/B transients (double precision).
    pub tr: Transients,
    hg_l16: F16APanels,
    hg_g16: F16APanels,
    hd_l16: F16BPanels,
    hd_g16: F16BPanels,
}

impl MixedScratch {
    /// Empty scratch; buffers materialize on first use.
    pub fn empty() -> Self {
        MixedScratch {
            tr: Transients::empty(),
            hg_l16: F16APanels::empty(),
            hg_g16: F16APanels::empty(),
            hd_l16: F16BPanels::empty(),
            hd_g16: F16BPanels::empty(),
        }
    }
}

impl Default for MixedScratch {
    fn default() -> Self {
        Self::empty()
    }
}

/// Evaluates `Σ^≷`/`Π^≷` with the stage-C multiplications in emulated
/// Tensor-Core binary16. Inputs as in
/// [`crate::transformed::sse_transformed`] (AtomMajor `G`).
pub fn sse_mixed(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    cfg: MixedConfig,
) -> SseOutput {
    let mut scratch = MixedScratch::empty();
    let mut out = SseOutput::empty();
    sse_mixed_into(prob, g_l, g_g, d_l, d_g, cfg, &mut scratch, &mut out);
    out
}

/// [`sse_mixed`] with reusable transient/conversion/output storage.
#[allow(clippy::too_many_arguments)]
pub fn sse_mixed_into(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    cfg: MixedConfig,
    scratch: &mut MixedScratch,
    out: &mut SseOutput,
) {
    let MixedScratch {
        tr,
        hg_l16,
        hg_g16,
        hd_l16,
        hd_g16,
    } = scratch;
    // One factor per tensor needs every transient before the first
    // conversion, so stages A and B and the conversion run here, on the
    // calling thread; stages C and D are the per-atom tasks.
    build_transients_into(prob, g_l, g_g, d_l, d_g, tr);

    let norb = prob.norb();
    let bsz = norb * norb;
    let dims = BatchDims::square(norb);

    // Fused pack-and-convert: normalize, clamp, round to binary16 and lay
    // out as split-complex micro-panels in one pass over each transient
    // (the paper's "split-complex format", here already in the shape the
    // packed micro-kernel sweeps).
    let n_hg = tr.hg_l.len() / bsz;
    let n_hd = tr.hd_l.len() / bsz;
    hg_l16.pack_from_c64(&tr.hg_l, norb, norb, n_hg, bsz, cfg.normalization);
    hg_g16.pack_from_c64(&tr.hg_g, norb, norb, n_hg, bsz, cfg.normalization);
    hd_l16.pack_from_c64(&tr.hd_l, norb, norb, n_hd, bsz, cfg.normalization);
    hd_g16.pack_from_c64(&tr.hd_g, norb, norb, n_hd, bsz, cfg.normalization);
    let (hg16, hd16) = ([&*hg_l16, &*hg_g16], [&*hd_l16, &*hd_g16]);
    // `denorm[side][d]` undoes the factors of `hg[side] · hd[d]`.
    let denorm = hg16.map(|hg| hd16.map(|hd| 1.0 / (hg.factor * hd.factor)));
    let win = EnergyWindow::full(prob.ne);
    // Panel items per directed pair (`hg` items are e-contiguous).
    let (hg_items, hd_items) = (3 * prob.nk * prob.ne, 3 * prob.nq * prob.nw);

    // Stage C in binary16 on the transformed kernel's loop nest; Π stays
    // double precision: its stage D.
    run_atom_tasks(prob, tr, out, |a, _, mut sigma, _| {
        let mut flops = 0;
        for (p, _) in prob.pairs_of(a) {
            let mut hd_item = 0;
            flops += sigma_steps(prob, &win, |step| match step {
                SigmaStep::Block(block) => hd_item = p * hd_items + block,
                SigmaStep::Mac { n, side, ax, d, cx } => sbsmm_f16_packed(
                    dims,
                    n,
                    hg16[side],
                    p * hg_items + ax,
                    hd16[d],
                    hd_item,
                    denorm[side][d],
                    &mut sigma[side][cx * bsz..(cx + n) * bsz],
                    bsz,
                ),
            });
        }
        if prob.scale_sigma != 1.0 {
            for v in sigma.iter_mut().flat_map(|s| s.iter_mut()) {
                *v = v.scale(prob.scale_sigma);
            }
        }
        flops
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensors::GLayout;
    use crate::testutil::{random_inputs, tiny_device, tiny_problem};
    use crate::transformed::sse_transformed;

    fn rel_dev_g(a: &GTensor, b: &GTensor) -> f64 {
        a.max_deviation(b) / b.max_abs().max(1e-300)
    }

    #[test]
    fn normalized_f16_close_to_f64() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, dl, dg) = random_inputs(&prob, 77);
        let gl = gl.to_layout(GLayout::AtomMajor);
        let gg = gg.to_layout(GLayout::AtomMajor);
        let exact = sse_transformed(&prob, &gl, &gg, &dl, &dg);
        let mixed = sse_mixed(&prob, &gl, &gg, &dl, &dg, MixedConfig::default());
        let err_l = rel_dev_g(&mixed.sigma_l, &exact.sigma_l);
        let err_g = rel_dev_g(&mixed.sigma_g, &exact.sigma_g);
        assert!(err_l < 5e-3, "Σ< f16 error {err_l}");
        assert!(err_g < 5e-3, "Σ> f16 error {err_g}");
        // Π is double precision: should agree tightly.
        let err_pi = mixed.pi_l.max_deviation(&exact.pi_l) / exact.pi_l.max_abs().max(1e-300);
        assert!(err_pi < 1e-12, "Π must stay f64-exact: {err_pi}");
    }

    #[test]
    fn unnormalized_f16_much_worse() {
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, mut dl, mut dg) = random_inputs(&prob, 99);
        // Push the ∇H·D transients into the binary16 subnormal range
        // (~1e-6), where raw storage quantizes coarsely but the normalized
        // path is unaffected — the regime of Fig. 7a's small values.
        for v in dl.as_mut_slice() {
            *v = v.scale(1e-2);
        }
        for v in dg.as_mut_slice() {
            *v = v.scale(1e-2);
        }
        let gl = gl.to_layout(GLayout::AtomMajor);
        let gg = gg.to_layout(GLayout::AtomMajor);
        let exact = sse_transformed(&prob, &gl, &gg, &dl, &dg);
        let norm = sse_mixed(&prob, &gl, &gg, &dl, &dg, MixedConfig::default());
        let raw = sse_mixed(
            &prob,
            &gl,
            &gg,
            &dl,
            &dg,
            MixedConfig {
                normalization: Normalization::None,
            },
        );
        let err_norm = rel_dev_g(&norm.sigma_l, &exact.sigma_l);
        let err_raw = rel_dev_g(&raw.sigma_l, &exact.sigma_l);
        assert!(
            err_raw > 10.0 * err_norm,
            "normalization must help: raw {err_raw} vs normalized {err_norm}"
        );
    }

    #[test]
    fn deep_underflow_without_normalization() {
        // D magnitudes ~1e-5 × ∇H give hd values below the f16 subnormal
        // floor after the 1e-3 G factors: raw conversion zeroes Σ entirely.
        let dev = tiny_device();
        let prob = tiny_problem(&dev);
        let (gl, gg, mut dl, mut dg) = random_inputs(&prob, 5);
        for v in dl.as_mut_slice() {
            *v = v.scale(1e-6);
        }
        for v in dg.as_mut_slice() {
            *v = v.scale(1e-6);
        }
        let gl = gl.to_layout(GLayout::AtomMajor);
        let gg = gg.to_layout(GLayout::AtomMajor);
        let raw = sse_mixed(
            &prob,
            &gl,
            &gg,
            &dl,
            &dg,
            MixedConfig {
                normalization: Normalization::None,
            },
        );
        assert_eq!(raw.sigma_l.max_abs(), 0.0, "raw f16 must underflow to zero");
        // With normalization the same inputs survive.
        let norm = sse_mixed(&prob, &gl, &gg, &dl, &dg, MixedConfig::default());
        assert!(norm.sigma_l.max_abs() > 0.0);
    }
}
