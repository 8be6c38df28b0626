//! Naive `O(N²)` reference transforms.
//!
//! These are direct evaluations of the transform definitions. They exist so
//! the fast implementations can be validated against an independent oracle
//! in unit and property tests, and they double as executable documentation
//! of the conventions in use. Do not use them in the placer hot path.

use crate::Complex;
use std::f64::consts::PI;

/// Direct DFT: `X[k] = Σ_n x[n]·e^{-2πi·k·n/N}`.
pub(crate) fn naive_dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (idx, x) in input.iter().enumerate() {
                let w = Complex::from_polar_unit(-2.0 * PI * (k * idx) as f64 / n as f64);
                acc += *x * w;
            }
            acc
        })
        .collect()
}

/// Direct DCT-II: `X[u] = Σ_n x[n]·cos(π·u·(2n+1)/(2N))`.
pub(crate) fn naive_dct2(input: &[f64]) -> Vec<f64> {
    let n = input.len();
    (0..n)
        .map(|u| {
            input
                .iter()
                .enumerate()
                .map(|(idx, &x)| x * (PI * u as f64 * (2 * idx + 1) as f64 / (2 * n) as f64).cos())
                .sum()
        })
        .collect()
}

/// Direct DCT-III: `y[n] = X[0]/2 + Σ_{u≥1} X[u]·cos(π·u·(2n+1)/(2N))`.
pub(crate) fn naive_dct3(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    (0..n)
        .map(|idx| {
            let mut acc = 0.5 * coeffs[0];
            for (u, &c) in coeffs.iter().enumerate().skip(1) {
                acc += c * (PI * u as f64 * (2 * idx + 1) as f64 / (2 * n) as f64).cos();
            }
            acc
        })
        .collect()
}

/// Direct DST-III-style synthesis used for the field:
/// `y[n] = Σ_{u=1}^{N-1} b[u]·sin(π·u·(2n+1)/(2N))`. `b[0]` is ignored.
pub(crate) fn naive_dst3(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    (0..n)
        .map(|idx| {
            let mut acc = 0.0;
            for (u, &c) in coeffs.iter().enumerate().skip(1) {
                acc += c * (PI * u as f64 * (2 * idx + 1) as f64 / (2 * n) as f64).sin();
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 4];
        x[0] = Complex::ONE;
        for z in naive_dft(&x) {
            assert!((z.re - 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
        }
    }

    #[test]
    fn dct2_of_constant_hits_dc_only() {
        let x = vec![1.0; 8];
        let c = naive_dct2(&x);
        assert!((c[0] - 8.0).abs() < 1e-12);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dct3_dct2_is_scaled_identity() {
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let y = naive_dct3(&naive_dct2(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((b - 2.0 * a).abs() < 1e-12); // N/2 = 2
        }
    }

    #[test]
    fn dst3_ignores_zeroth_coefficient() {
        let a = naive_dst3(&[0.0, 1.0, 0.0, 0.0]);
        let b = naive_dst3(&[99.0, 1.0, 0.0, 0.0]);
        assert_eq!(a, b);
    }
}
