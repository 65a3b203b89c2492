//! Double-precision complex scalar type used throughout the solver.
//!
//! The paper's kernels operate on `complex<double>` (cuBLAS `Z` routines).
//! We implement our own small complex type rather than pulling in an external
//! crate: the NEGF solver needs only ring arithmetic, conjugation, absolute
//! value, and the complex exponential for `e^{i k_z}` phase factors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor for [`C64`].
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = c64(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: C64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: C64 = c64(0.0, 1.0);

    /// Builds a complex number from a real value.
    #[inline(always)]
    pub const fn from_re(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2` (avoids the square root).
    #[inline(always)]
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid premature overflow/underflow.
    #[inline]
    pub(crate) fn recip(self) -> Self {
        let C64 { re: a, im: b } = self;
        if a.abs() >= b.abs() {
            let r = b / a;
            let d = a + b * r;
            c64(1.0 / d, -r / d)
        } else {
            let r = a / b;
            let d = a * r + b;
            c64(r / d, -1.0 / d)
        }
    }

    /// `e^{iθ} = cos θ + i sin θ` — unit phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64(c, s)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        let (s, c) = self.im.sin_cos();
        c64(r * c, r * s)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let m = self.abs();
        let re = ((m + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((m - self.re) * 0.5).max(0.0).sqrt();
        c64(re, if self.im < 0.0 { -im_mag } else { im_mag })
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Fused multiply-add style helper: `self + a * b`.
    #[inline(always)]
    pub fn mul_add(self, a: C64, b: C64) -> Self {
        c64(
            self.re + a.re * b.re - a.im * b.im,
            self.im + a.re * b.im + a.im * b.re,
        )
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+e}{:+e}i)", self.re, self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for C64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, o: C64) -> C64 {
        c64(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, o: C64) -> C64 {
        c64(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, o: C64) -> C64 {
        c64(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    fn div(self, o: C64) -> C64 {
        // Division by reciprocal multiplication (one recip, two muls).
        #[allow(clippy::suspicious_arithmetic_impl)]
        {
            self * o.recip()
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline(always)]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, o: f64) -> C64 {
        c64(self.re + o, self.im)
    }
}

impl Sub<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, o: f64) -> C64 {
        c64(self.re - o, self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, o: f64) -> C64 {
        c64(self.re * o, self.im * o)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn div(self, o: f64) -> C64 {
        c64(self.re / o, self.im / o)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, o: C64) -> C64 {
        c64(self * o.re, self * o.im)
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, o: C64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl DivAssign for C64 {
    #[inline(always)]
    fn div_assign(&mut self, o: C64) {
        *self = *self / o;
    }
}

impl MulAssign<f64> for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, o: f64) {
        self.re *= o;
        self.im *= o;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ring_arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert_eq!(a + b, c64(-2.0, 2.5));
        assert_eq!(a - b, c64(4.0, 1.5));
        assert_eq!(a * b, c64(-3.0 - 2.0 * 0.5, 0.5 + -6.0));
        assert_eq!(-a, c64(-1.0, -2.0));
    }

    #[test]
    fn division_and_recip() {
        let a = c64(3.0, -4.0);
        assert!(close(a * a.recip(), C64::ONE, 1e-15));
        let b = c64(0.5, 2.0);
        assert!(close(a / b * b, a, 1e-12));
    }

    #[test]
    fn recip_extreme_magnitudes() {
        // Smith's algorithm must not overflow for values near f64 limits.
        let a = c64(1e300, 1e300);
        let r = a.recip();
        assert!(r.is_finite());
        assert!(close(a * r, C64::ONE, 1e-12));
    }

    #[test]
    fn conj_and_norms() {
        let a = c64(1.5, -2.5);
        assert_eq!(a.conj(), c64(1.5, 2.5));
        assert_eq!(a.norm_sqr(), 1.5 * 1.5 + 2.5 * 2.5);
        assert!((a.abs() - a.norm_sqr().sqrt()).abs() < 1e-15);
        // |z|^2 == z * conj(z)
        assert!(close(a * a.conj(), C64::from_re(a.norm_sqr()), 1e-12));
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let th = k as f64 * 0.41;
            let z = C64::cis(th);
            assert!((z.abs() - 1.0).abs() < 1e-14);
            assert!(close(z, c64(th.cos(), th.sin()), 1e-15));
        }
    }

    #[test]
    fn exp_matches_real_exp() {
        let z = c64(0.3, 0.0).exp();
        assert!((z.re - 0.3f64.exp()).abs() < 1e-14);
        assert!(z.im.abs() < 1e-14);
        // e^{iπ} = -1
        assert!(close(
            c64(0.0, std::f64::consts::PI).exp(),
            c64(-1.0, 0.0),
            1e-14
        ));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            c64(2.0, 3.0),
            c64(-1.0, 0.5),
            c64(0.0, -4.0),
            c64(-2.0, -0.1),
        ] {
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-12), "sqrt({z:?})^2 = {:?}", r * r);
        }
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 1.0); 10];
        let s: C64 = v.iter().sum();
        assert_eq!(s, c64(10.0, 10.0));
    }

    #[test]
    fn mul_add_matches_expanded() {
        let acc = c64(0.25, -0.5);
        let a = c64(1.0, 2.0);
        let b = c64(-0.5, 3.0);
        assert!(close(acc.mul_add(a, b), acc + a * b, 1e-15));
    }
}
