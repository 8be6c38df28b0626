//! Spectral transform substrate for the ePlace reproduction.
//!
//! The eDensity Poisson equation (paper Eq. 6) is solved by spectral methods:
//! the density is expanded in the Neumann-boundary cosine eigenbasis of the
//! Laplacian, coefficients are scaled by the inverse eigenvalues, and the
//! potential/field are synthesized by inverse cosine/sine transforms. Total
//! cost is `O(n log n)` per iteration via the fast Fourier transform.
//!
//! Everything here is written from scratch — no external FFT crate:
//!
//! * [`Complex`] — minimal complex arithmetic.
//! * [`FftPlan`] — iterative radix-2 complex FFT with precomputed twiddles.
//! * [`DctPlan`] — DCT-II analysis and DCT-III / DST-III synthesis, each one
//!   in-place kernel per engine (V1 via Makhoul's N-point-FFT repacking).
//!   Each kernel is generic over a lane count `L` and transforms `L` strided
//!   lines a fixed distance apart per call, every lane computing the
//!   one-line arithmetic bit for bit; the public per-line methods are its
//!   `L = 1` instance.
//! * [`SpectralPlan`] — process-wide per-size cache of shared [`DctPlan`]s,
//!   so twiddle/cosine tables are computed once per grid size.
//! * [`Transform2d`] — separable two-dimensional transforms in the exact
//!   basis mix the Poisson solver needs (cos·cos, sin·cos, cos·sin), run
//!   four rows or four adjacent columns per kernel call.
//! * [`mod@reference`] — naive `O(N²)` reference transforms used by the tests.
//!
//! # Engines
//!
//! Two transform engines coexist, selected by [`SpectralEngine`]:
//!
//! * [`SpectralEngine::V1`] (default) — the historical radix-2 path whose
//!   output is pinned bit for bit by the golden trace and the `to_bits`
//!   oracles. Every prior release's results are reproduced exactly.
//! * [`SpectralEngine::V2`] — folds each length-`N` real transform into a
//!   length-`N/2` complex FFT (half the butterfly work) and runs that FFT
//!   with mixed-radix (radix-4 plus one radix-2) self-sorting Stockham
//!   stages. Deterministic and bitwise thread-count invariant like V1, and
//!   validated against the same `O(N²)` oracles, but its rounding differs
//!   from V1 at the last ulps — restructured arithmetic cannot reproduce the
//!   historical bits, which is exactly why V1 remains the default.
//!
//! # Conventions
//!
//! For a length-`N` real sequence `x`,
//!
//! * `DCT-II`:  `X[u] = Σ_n x[n]·cos(π·u·(2n+1)/(2N))`
//! * `DCT-III`: `y[n] = X[0]/2 + Σ_{u≥1} X[u]·cos(π·u·(2n+1)/(2N))`
//! * `DST-III` (as used for the field synthesis):
//!   `y[n] = Σ_{u=1}^{N-1} b[u]·sin(π·u·(2n+1)/(2N))`
//!
//! `dct3(dct2(x)) == (N/2)·x`, so the DCT-III scaled by `2/N` inverts the
//! DCT-II.
//!
//! # Examples
//!
//! ```
//! use eplace_spectral::{DctPlan, DctScratch};
//!
//! let plan = DctPlan::new(8).unwrap();
//! let mut scratch = DctScratch::new(8);
//! let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
//! let mut line = x.clone();
//! plan.dct2_strided(&mut line, 0, 1, &mut scratch);
//! plan.dct3_strided(&mut line, 0, 1, 2.0 / 8.0, &mut scratch);
//! for (a, b) in x.iter().zip(&line) {
//!     assert!((a - b).abs() < 1e-12);
//! }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod complex;
mod dct;
mod fft;
mod lanes;
mod plan;
pub mod reference;
mod transform2d;

pub use complex::Complex;
pub use dct::{DctPlan, DctScratch};
pub use fft::FftPlan;
pub use plan::SpectralPlan;
pub use transform2d::Transform2d;

use eplace_errors::EplaceError;

/// Which transform engine a [`Transform2d`] (or a direct [`DctPlan`] caller)
/// runs — see the crate docs for the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectralEngine {
    /// Historical radix-2 path; bit-identical to every prior release and
    /// pinned by the golden trace. The default.
    #[default]
    V1,
    /// Folded-real half-size FFT with mixed-radix (radix-4 + radix-2)
    /// Stockham stages: ~half the butterfly work per transform.
    /// Deterministic and thread-count invariant, but rounds differently from
    /// V1 at the last ulps.
    V2,
}

/// A transform size proven to be a power of two at construction.
///
/// The checked-at-construction handle for callers that statically guarantee
/// valid sizes: validate once with [`Pow2::new`], then use the infallible
/// `for_pow2` plan constructors ([`FftPlan::for_pow2`],
/// [`DctPlan::for_pow2`], [`SpectralPlan::for_pow2`],
/// [`Transform2d::for_pow2`]) with no runtime assert or `Result` at the use
/// site.
///
/// # Examples
///
/// ```
/// use eplace_spectral::{DctPlan, Pow2};
///
/// let size = Pow2::new(64).unwrap();
/// let plan = DctPlan::for_pow2(size); // infallible
/// assert_eq!(plan.len(), 64);
/// assert!(Pow2::new(48).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pow2(usize);

impl Pow2 {
    /// Validates `n`, returning the proof-carrying handle.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self, EplaceError> {
        if is_power_of_two(n) {
            Ok(Pow2(n))
        } else {
            Err(EplaceError::invalid(
                "spectral",
                format!("transform size must be a power of two, got {n}"),
            ))
        }
    }

    /// The validated size.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}

/// Returns `true` when `n` is a power of two (and non-zero).
///
/// # Examples
///
/// ```
/// assert!(eplace_spectral::is_power_of_two(64));
/// assert!(!eplace_spectral::is_power_of_two(48));
/// ```
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n` (minimum 1).
///
/// # Examples
///
/// ```
/// assert_eq!(eplace_spectral::next_power_of_two(100), 128);
/// assert_eq!(eplace_spectral::next_power_of_two(0), 1);
/// ```
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_predicates() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1023));
    }

    #[test]
    fn next_pow2() {
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1025), 2048);
    }
}

#[cfg(test)]
mod proptests;
