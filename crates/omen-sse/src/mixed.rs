//! SSE-16: the mixed-precision SSE kernel of §5.4, as the transformed
//! schedule on binary16 operands.
//!
//! Stages A and B build the double-precision transients on the calling
//! thread: a per-tensor normalization factor needs the whole tensor. Then
//! [`omen_linalg::quantize_f16`] rounds every `∇H·D` block in place, and a
//! copy of each `∇H·G` tensor, to the value its normalized, clamped
//! binary16 encodes. The `∇H·G` tensors are the streams stages C and D
//! read (element planes for tiny blocks, see [`crate::stages`]); the
//! factor is a maximum over components, so it reads the same from planes
//! as from blocks. Stage C is the transformed kernel's own
//! [`crate::stages::sigma_pair`] on those operands, as per-atom tasks
//! ([`crate::transformed`]): f16 operands, f64 products and accumulation,
//! the paper's Tensor-Core configuration. Stage D reads the unquantised
//! `∇H·G`, so `Π^≷` stays double precision (its cost is a factor `Norb`
//! smaller).
//!
//! Disabling normalization reproduces the divergence of Fig. 7b: SSE
//! inputs span ~20 decades and the small magnitudes flush to zero in raw
//! binary16.

use crate::kernel::{MixedKernel, SseKernel};
use crate::problem::SseProblem;
use crate::reference::SseOutput;
use crate::tensors::{DTensor, GTensor};
use crate::transformed::{
    build_transients_into, chunk_lens, run_atom_tasks, sigma_atom, HgStore, Transients,
};
use omen_linalg::{as_c64_mut, quantize_f16, Normalization};

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

/// Evaluates `Σ^≷`/`Π^≷` with the stage-C operands in binary16: one
/// application of a fresh [`MixedKernel`].
pub fn sse_mixed(
    prob: &SseProblem,
    g_l: &GTensor,
    g_g: &GTensor,
    d_l: &DTensor,
    d_g: &DTensor,
    cfg: MixedConfig,
) -> SseOutput {
    MixedKernel::new(cfg).run(prob, g_l, g_g, d_l, d_g).clone()
}

/// One [`MixedKernel`] application into the kernel's
/// storage: the transients `tr` and the quantised `∇H·G` copies `hg16`,
/// allocation-free once warm.
pub(crate) fn mixed_into(
    prob: &SseProblem,
    [g_l, g_g]: [&GTensor; 2],
    [d_l, d_g]: [&DTensor; 2],
    cfg: MixedConfig,
    tr: &mut Transients,
    hg16: &mut [Vec<f64>; 2],
    out: &mut SseOutput,
) {
    build_transients_into(prob, g_l, g_g, d_l, d_g, tr);
    for hd in [&mut tr.hd_l, &mut tr.hd_g] {
        quantize_f16(hd, cfg.normalization);
    }
    for (q, hg) in hg16.iter_mut().zip([&tr.hg_l, &tr.hg_g]) {
        q.clear();
        q.extend_from_slice(hg);
        quantize_f16(as_c64_mut(q), cfg.normalization);
    }
    let [q_l, q_g] = &*hg16;
    let offsets = &prob.device.neighbors.offsets;
    let (hg_chunk, _, _) = chunk_lens(prob);
    run_atom_tasks(prob, tr, out, HgStore::Whole, |a, _, hd, out, scratch| {
        let run = offsets[a] * hg_chunk..offsets[a + 1] * hg_chunk;
        let hg = [&q_l[run.clone()], &q_g[run]];
        let [hd_l, hd_g] = hd;
        sigma_atom(prob, hg, [hd_l, hd_g], scratch, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TransformedKernel;
    use crate::stages::EnergyWindow;
    use crate::testutil::{
        random_inputs, sigma_pair_scalar, stream_blocks, tiny_device, tiny_problem,
    };
    use crate::transformed::sse_transformed;
    use omen_device::{DeviceConfig, DeviceStructure};
    use omen_linalg::C64;

    fn rel_dev_g(a: &GTensor, b: &GTensor) -> f64 {
        a.max_deviation(b) / b.max_abs().max(1e-300)
    }

    /// `Σ^≷` (AtomMajor) from stage C one block at a time
    /// ([`sigma_pair_scalar`]) on the `quantize_f16`'d transients.
    fn sigma_scalar_f16(
        prob: &SseProblem,
        [g_l, g_g]: [&GTensor; 2],
        [d_l, d_g]: [&DTensor; 2],
    ) -> [Vec<C64>; 2] {
        let mut tr = Transients::empty();
        build_transients_into(prob, g_l, g_g, d_l, d_g, &mut tr);
        for t in [&mut tr.hg_l, &mut tr.hg_g] {
            quantize_f16(as_c64_mut(t), Normalization::PerTensor);
        }
        for t in [&mut tr.hd_l, &mut tr.hd_g] {
            quantize_f16(t, Normalization::PerTensor);
        }
        let (hg_chunk, hd_chunk, run) = chunk_lens(prob);
        let win = EnergyWindow::full(prob.ne);
        let mut s_l = vec![C64::ZERO; prob.na() * run];
        let mut s_g = s_l.clone();
        for a in 0..prob.na() {
            let (o_l, o_g) = (&mut s_l[a * run..][..run], &mut s_g[a * run..][..run]);
            for (p, _) in prob.pairs_of(a) {
                let hg = p * hg_chunk..(p + 1) * hg_chunk;
                let hd = p * hd_chunk..(p + 1) * hd_chunk;
                let blocks = |s: &[f64]| stream_blocks(prob.norb(), prob.ne, s);
                let (hg_l, hg_g) = (&blocks(&tr.hg_l[hg.clone()]), &blocks(&tr.hg_g[hg]));
                let (hd_l, hd_g) = (&tr.hd_l[hd.clone()], &tr.hd_g[hd]);
                sigma_pair_scalar(prob, &win, hg_l, hg_g, hd_l, hd_g, o_l, o_g);
            }
        }
        [s_l, s_g]
    }

    #[test]
    fn normalized_f16_close_to_f64() {
        let devices = [
            tiny_device(),
            DeviceStructure::build(DeviceConfig {
                norb: 3,
                ..DeviceConfig::tiny()
            }),
            // 6×6 blocks take stage C's packed `sbsmm_pb` path.
            DeviceStructure::build(DeviceConfig {
                nx: 4,
                norb: 6,
                ..DeviceConfig::tiny()
            }),
        ];
        let probs = [
            tiny_problem(&devices[0]),
            SseProblem::new(&devices[1], 2, 8, 2, 3, 0.7, 1.3),
            SseProblem::new(&devices[2], 2, 6, 2, 2, 1.0, 1.0),
        ];
        for prob in &probs {
            let norb = prob.norb();
            let (gl, gg, dl, dg) = random_inputs(prob, 77);
            let mut transformed = TransformedKernel::new();
            let exact = transformed.run(prob, &gl, &gg, &dl, &dg);
            let mut kernel = MixedKernel::default();
            let mixed = kernel.run(prob, &gl, &gg, &dl, &dg);
            let err_l = rel_dev_g(&mixed.sigma_l, &exact.sigma_l);
            let err_g = rel_dev_g(&mixed.sigma_g, &exact.sigma_g);
            assert!(err_l < 5e-3, "Norb {norb}: Σ< f16 error {err_l}");
            assert!(err_g < 5e-3, "Norb {norb}: Σ> f16 error {err_g}");
            // Σ is stage C on quantised operands, nothing else.
            let want = sigma_scalar_f16(prob, [&gl, &gg], [&dl, &dg]);
            for (got, want) in [&mixed.sigma_l, &mixed.sigma_g].into_iter().zip(want) {
                let scale = want.iter().map(|z| z.abs()).fold(1e-300, f64::max);
                let dev = (got.as_slice().iter().zip(&want))
                    .map(|(x, y)| (*x - *y).abs())
                    .fold(0.0, f64::max);
                assert!(dev / scale < 1e-13, "Norb {norb}: Σ vs oracle {dev:e}");
            }
            // Π is stage D on the unquantised `∇H·G`: the transformed
            // kernel's bits, and the same work.
            for (m, e) in [(&mixed.pi_l, &exact.pi_l), (&mixed.pi_g, &exact.pi_g)] {
                let bits = |t: &DTensor| {
                    let values = t.as_slice().iter();
                    values
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(m), bits(e), "Norb {norb}: Π must be f64-exact");
            }
            assert_eq!(mixed.flops, exact.flops);
        }
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
