//! Mixed-precision (binary16) operands with normalization — the
//! Tensor-Core SSE path of §5.4.
//!
//! The paper normalizes the SSE tensors by per-tensor scale factors
//! derived from their magnitudes, clamps out-of-range values, multiplies
//! in half precision and accumulates in double. Without the normalization
//! step, the tensor values (spanning ~1e-21..1e-1, Fig. 7a) underflow
//! binary16 and the converged current is wrong by ~3e-3 relative; with it,
//! the error drops to ~1e-6.
//!
//! A CPU has no binary16 arithmetic rate of its own, so here the precision
//! is a property of the operands alone: [`quantize_f16`] replaces every
//! element by the value its normalized, clamped binary16 encodes (divided
//! back by the factor), and the double-precision kernels multiply and
//! accumulate what is left — f16 operands, f64 accumulation, the paper's
//! Tensor-Core configuration.

use crate::complex::{c64, C64};
use crate::half::{clamp_to_f16_range, round_through_f16};

/// Normalization policy for the f16 conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalization {
    /// Scale by `target / max|x|` before rounding (the paper's scheme).
    PerTensor,
    /// Store raw values (reproduces the unnormalized divergence of Fig. 7b).
    None,
}

/// Mid-range target magnitude for normalized tensors. Chosen so products of
/// two normalized values (`~target²`) stay far from both the f16 overflow
/// threshold (65504) and the subnormal floor.
pub(crate) const NORMALIZATION_TARGET: f64 = 64.0;

/// The normalization factor for a `C64` slice: `target / max|x|` under
/// `PerTensor`, `1.0` otherwise (or for an all-zero tensor).
fn norm_factor(data: &[C64], normalization: Normalization) -> f64 {
    match normalization {
        Normalization::PerTensor => {
            let max = data
                .iter()
                .map(|z| z.re.abs().max(z.im.abs()))
                .fold(0.0, f64::max);
            if max > 0.0 {
                NORMALIZATION_TARGET / max
            } else {
                1.0
            }
        }
        Normalization::None => 1.0,
    }
}

/// Quantizes `data` in place to binary16 operands: each real and
/// imaginary part `x` becomes `round_f16(clamp(x · factor)) / factor`, the
/// value its stored binary16 stands for. The factor comes from the whole
/// slice (see [`Normalization`]); without normalization, magnitudes below
/// the binary16 subnormal floor flush to zero. Returns the factor.
pub fn quantize_f16(data: &mut [C64], normalization: Normalization) -> f64 {
    let factor = norm_factor(data, normalization);
    let q = |x: f64| round_through_f16(clamp_to_f16_range(x * factor)) / factor;
    for z in data.iter_mut() {
        *z = c64(q(z.re), q(z.im));
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{sbsmm, BatchDims, Strides};
    use crate::half::F16_MAX;

    fn fill(nel: usize, magnitude: f64) -> Vec<C64> {
        (0..nel)
            .map(|i| {
                let x = ((i * 37 + 11) as f64).sin();
                let y = ((i * 17 + 5) as f64).cos();
                c64(x * magnitude, y * magnitude)
            })
            .collect()
    }

    fn rel_err(a: &[C64], b: &[C64]) -> f64 {
        let scale = b.iter().map(|z| z.abs()).fold(1e-300, f64::max);
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
            / scale
    }

    fn quantized(data: &[C64], normalization: Normalization) -> Vec<C64> {
        let mut q = data.to_vec();
        quantize_f16(&mut q, normalization);
        q
    }

    /// `A[b] · B[b]` for every item of a packed batch, in f64.
    fn multiply(dims: BatchDims, batch: usize, a: &[C64], b: &[C64]) -> Vec<C64> {
        let s = Strides::packed(dims);
        let mut c = vec![C64::ZERO; batch * s.c];
        sbsmm(dims, batch, C64::ONE, a, b, C64::ZERO, &mut c, s);
        c
    }

    #[test]
    fn normalized_multiply_close_to_f64() {
        let dims = BatchDims::square(12);
        let s = Strides::packed(dims);
        let batch = 6;
        // Small magnitudes like real SSE inputs (G ~ 1e-6 .. 1e-3).
        let a = fill(batch * s.a, 1e-5);
        let b = fill(batch * s.b, 1e-4);
        let (a16, b16) = (
            quantized(&a, Normalization::PerTensor),
            quantized(&b, Normalization::PerTensor),
        );
        let err = rel_err(
            &multiply(dims, batch, &a16, &b16),
            &multiply(dims, batch, &a, &b),
        );
        assert!(err < 2e-3, "normalized f16 error too large: {err}");
    }

    #[test]
    fn unnormalized_underflows_for_tiny_values() {
        let dims = BatchDims::square(8);
        let s = Strides::packed(dims);
        // Magnitude below the f16 subnormal floor: raw conversion loses all.
        let a = fill(s.a, 1e-11);
        let b = fill(s.b, 1e-11);
        let a_raw = quantized(&a, Normalization::None);
        assert!(
            a_raw.iter().all(|z| z.abs() == 0.0),
            "raw f16 must flush to zero"
        );

        // Normalized conversion of the same data preserves the product.
        let a_n = quantized(&a, Normalization::PerTensor);
        let b_n = quantized(&b, Normalization::PerTensor);
        let err = rel_err(&multiply(dims, 1, &a_n, &b_n), &multiply(dims, 1, &a, &b));
        assert!(err < 2e-3);
    }

    #[test]
    fn clamping_prevents_infinities() {
        let raw = quantized(&[c64(1e9, -1e9); 4], Normalization::None);
        assert!(raw.iter().all(|z| z.re == F16_MAX && z.im == -F16_MAX));
    }

    #[test]
    fn representation_error_normalized_beats_raw() {
        // Wide dynamic range like Fig. 7a: values spanning many decades.
        let data: Vec<C64> = (0..256)
            .map(|i| {
                let mag = 10f64.powf(-1.0 - 10.0 * (i as f64) / 255.0); // 1e-1..1e-11
                c64(mag * ((i as f64).sin()), -mag * ((i as f64).cos()))
            })
            .collect();
        let e_norm = rel_err(&quantized(&data, Normalization::PerTensor), &data);
        let e_raw = rel_err(&quantized(&data, Normalization::None), &data);
        assert!(
            e_norm < e_raw || e_raw == 0.0,
            "normalization should reduce representation error ({e_norm} vs {e_raw})"
        );
        assert!(e_norm < 1e-3);
    }

    #[test]
    fn zero_tensor_factor_is_one() {
        let mut z = vec![C64::ZERO; 8];
        assert_eq!(quantize_f16(&mut z, Normalization::PerTensor), 1.0);
        assert!(z.iter().all(|v| v.abs() == 0.0));
    }
}
