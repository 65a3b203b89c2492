//! Software IEEE 754 binary16 (`f16`) emulation.
//!
//! The paper's mixed-precision SSE kernel (§5.4) stores the normalized
//! tensors in half precision and multiplies them on Tensor Cores, which
//! compute `f16 × f16` products with at-least-`f32` accumulation. We have no
//! tensor cores; what matters for reproducing Fig. 7 is the *storage*
//! precision: values are rounded to binary16 (round-to-nearest-even),
//! sub-`~6e-8` magnitudes flush toward zero, and `|x| > 65504` must be
//! clamped beforehand. This module provides the bit-exact conversions.

/// An IEEE 754 binary16 value stored as raw bits.
///
/// Arithmetic is not implemented on `F16`: values widen exactly to `f64`
/// ([`crate::quantize_f16`]), and the double-precision kernels multiply and
/// accumulate them — f16 operands, wide accumulation, as on Tensor Cores.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
#[repr(transparent)]
pub struct F16(pub u16);

/// Largest finite binary16 value (`65504.0`).
pub(crate) const F16_MAX: f64 = 65504.0;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);

    /// Converts from `f32` with round-to-nearest-even, the IEEE default
    /// (and what GPU conversion instructions implement).
    #[inline]
    pub(crate) fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Converts from `f64` (via `f64 -> f32 -> f16`; double rounding is
    /// acceptable here because the normalization step keeps magnitudes far
    /// from the `f32` rounding boundary cases that matter).
    #[inline]
    pub fn from_f64(value: f64) -> F16 {
        F16::from_f32(value as f32)
    }

    /// Widens to `f32` exactly (every binary16 value is representable).
    #[inline]
    pub(crate) fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widens to `f64` exactly.
    #[inline]
    pub(crate) fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` for positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

/// Bit-exact `f32 -> f16` conversion with round-to-nearest-even.
pub(crate) fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN; preserve NaN-ness with a quiet payload bit.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00
        };
    }

    // Unbiased exponent.
    let e = exp - 127;

    if e > 15 {
        // Overflows binary16 range -> infinity.
        return sign | 0x7C00;
    }

    if e >= -14 {
        // Normal range. 10 mantissa bits; round-to-nearest-even on the
        // remaining 13 bits.
        let half_exp = ((e + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        let round_bits = mant & 0x1FFF;
        let mut out = sign | half_exp | half_mant;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct behaviour
        }
        return out;
    }

    if e >= -25 {
        // Subnormal range: implicit leading 1 becomes explicit, shifted.
        let full_mant = mant | 0x0080_0000;
        let shift = (-14 - e) as u32 + 13;
        let half_mant = (full_mant >> shift) as u16;
        let rem = full_mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | half_mant;
        if rem > halfway || (rem == halfway && (half_mant & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }

    // Magnitude too small even for subnormals: flush to signed zero.
    sign
}

/// Bit-exact `f16 -> f32` conversion.
pub(crate) fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = mant · 2^-24. Normalize: with `s` shifts
            // until the implicit bit (bit 10) is set, the unbiased exponent
            // is −14 − s, so the f32 exponent field is 113 − s.
            let mut s = 0u32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                s += 1;
            }
            let frac = (m & 0x03FF) << 13;
            let expf = (113 - s) << 23;
            sign | expf | frac
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13) // Inf / NaN
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Rounds an `f64` value through binary16 storage precision and back.
///
/// This is the "store to half" operation [`crate::quantize_f16`] applies
/// to every tensor element after normalization.
#[inline]
pub fn round_through_f16(value: f64) -> f64 {
    F16::from_f64(value).to_f64()
}

/// Clamps a value into the finite binary16 range, preserving sign, as the
/// paper does to "avoid under/overflow" (§5.4). Values whose magnitude
/// exceeds `F16_MAX` are clamped; values that underflow remain (they round
/// to zero/subnormal on conversion — exactly the error source Fig. 7
/// attributes to the unnormalized variant).
#[inline]
pub fn clamp_to_f16_range(value: f64) -> f64 {
    value.clamp(-F16_MAX, F16_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048i32..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "integer {i} must be exact");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(1.0), F16(0x3C00));
        assert_eq!(F16::from_f32(-2.0), F16(0xC000));
        assert_eq!(F16::from_f32(65504.0), F16(0x7BFF));
        assert_eq!(F16::from_f32(6.1035156e-5).0, 0x0400); // min normal
        assert_eq!(F16::from_f32(5.9604645e-8).0, 0x0001); // min subnormal
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds up past max
        assert!(F16::from_f32(1e30).is_infinite());
        assert!(F16::from_f32(-1e30).is_infinite());
        // But the clamped value stays finite.
        assert!(!F16::from_f64(clamp_to_f16_range(1e30)).is_infinite());
    }

    #[test]
    fn underflow_flushes_to_zero() {
        let tiny = 1e-12f32;
        assert_eq!(F16::from_f32(tiny), F16::ZERO);
        let tiny_neg = -1e-12f32;
        assert_eq!(F16::from_f32(tiny_neg).0, 0x8000); // negative zero
        assert_eq!(F16::from_f32(tiny_neg).to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 value
        // 1 + 2^-10; ties-to-even keeps 1.0 (even mantissa).
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Just above halfway rounds up.
        let above = 1.0f32 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn infinity_round_trips() {
        assert_eq!(F16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn relative_error_within_half_ulp_for_normals() {
        // binary16 has 11 significand bits -> relative error <= 2^-11.
        let eps = 2.0f64.powi(-11);
        let mut x = 1.0e-4f64;
        while x < 6.0e4 {
            let r = round_through_f16(x);
            assert!(
                ((r - x) / x).abs() <= eps,
                "x={x}, r={r}, relerr={}",
                ((r - x) / x).abs()
            );
            x *= 1.7;
        }
    }

    #[test]
    fn subnormal_round_trip_exact() {
        // All 1024 subnormal bit patterns widen and re-narrow exactly.
        for bits in 1u16..0x0400 {
            let f = f16_bits_to_f32(bits);
            assert_eq!(f32_to_f16_bits(f), bits, "subnormal bits {bits:#06x}");
        }
    }

    #[test]
    fn all_finite_f16_round_trip_through_f32() {
        for bits in 0u16..=0xFFFF {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x}");
        }
    }
}
