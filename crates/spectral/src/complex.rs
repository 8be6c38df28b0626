use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Deliberately minimal — just what the FFT and the DCT repacking need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Complex {
    /// Real part.
    pub(crate) re: f64,
    /// Imaginary part.
    pub(crate) im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub(crate) const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub(crate) fn from_polar_unit(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub(crate) fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplication by the imaginary unit (`· i`), cheaper than a full
    /// complex multiply.
    #[inline]
    pub(crate) fn mul_i(self) -> Self {
        Complex::new(-self.im, self.re)
    }

    /// Scales both components by a real factor.
    #[inline]
    pub(crate) fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

/// The constants and magnitudes only the tests and the reference
/// transforms use.
#[cfg(test)]
impl Complex {
    /// The additive identity.
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Squared magnitude.
    pub(crate) fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub(crate) fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Complex::new(2.0, 4.0));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::ONE;
        z += Complex::new(0.0, 1.0);
        z *= z;
        assert_eq!(z, Complex::new(0.0, 2.0));
        z -= Complex::new(0.0, 2.0);
        assert_eq!(z, Complex::ZERO);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert_eq!(z.norm_sq(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!((z * z.conj()).re, 25.0);
    }

    #[test]
    fn mul_i_matches_full_multiply() {
        let z = Complex::new(2.0, -3.0);
        assert_eq!(z.mul_i(), z * Complex::new(0.0, 1.0));
    }

    #[test]
    fn polar_unit() {
        let z = Complex::from_polar_unit(std::f64::consts::FRAC_PI_2);
        assert!((z.re).abs() < 1e-15);
        assert!((z.im - 1.0).abs() < 1e-15);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
