//! Spectral transform substrate for the ePlace reproduction.
//!
//! The eDensity Poisson equation (paper Eq. 6) is solved by spectral methods:
//! the density is expanded in the Neumann-boundary cosine eigenbasis of the
//! Laplacian, coefficients are scaled by the inverse eigenvalues, and the
//! potential/field are synthesized by inverse cosine/sine transforms. Total
//! cost is `O(n log n)` per iteration via the fast Fourier transform.
//!
//! Everything here is written from scratch — no external FFT crate. The
//! public surface is two names:
//!
//! * [`Transform2d`] — separable two-dimensional transforms in the exact
//!   basis mix the Poisson solver needs (cos·cos, sin·cos, cos·sin), run
//!   four rows or four adjacent columns per kernel call. Its constructor is
//!   the crate's one size check.
//! * [`SpectralEngine`] — which of two engines those transforms run.
//!
//! Behind them, private to the crate:
//!
//! * `Complex` — minimal complex arithmetic.
//! * `FftPlan` — iterative radix-2 complex FFT with precomputed twiddles.
//! * `DctPlan` — DCT-II analysis and DCT-III / DST-III synthesis, each one
//!   in-place kernel per engine (V1 via Makhoul's N-point-FFT repacking).
//!   Each kernel is generic over a lane count `L` and transforms `L` strided
//!   lines a fixed distance apart per call, every lane computing the
//!   one-line arithmetic bit for bit; the tests pin the lane groups to the
//!   `L = 1` instance.
//! * `plan` — a process-wide per-size cache of shared `DctPlan`s, so
//!   twiddle/cosine tables are computed once per grid size.
//! * `reference` (tests only) — naive `O(N²)` reference transforms.
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
//! use eplace_spectral::{SpectralEngine, Transform2d};
//!
//! let mut t = Transform2d::new(8, 8).unwrap().with_engine(SpectralEngine::V2);
//! let x: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
//! let mut grid = x.clone();
//! t.dct2(&mut grid);
//! t.dct3_scaled(&mut grid, (2.0 / 8.0) * (2.0 / 8.0));
//! for (a, b) in x.iter().zip(&grid) {
//!     assert!((a - b).abs() < 1e-12);
//! }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod complex;
mod dct;
mod fft;
mod lanes;
mod plan;
#[cfg(test)]
mod reference;
mod transform2d;

pub use transform2d::Transform2d;

use complex::Complex;
use dct::DctPlan;
use eplace_errors::EplaceError;
use fft::FftPlan;

/// Which transform engine a [`Transform2d`] runs — see the crate docs for
/// the trade-off.
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

/// A transform size proven to be a power of two at construction, so the
/// plan constructors that take one need no runtime check or `Result`.
#[derive(Debug, Clone, Copy)]
struct Pow2(usize);

impl Pow2 {
    /// Validates `n`, returning the proof-carrying handle.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `n` is not a power of two.
    fn new(n: usize) -> Result<Self, EplaceError> {
        if n.is_power_of_two() {
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
    fn get(self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_predicates() {
        for n in [1, 2, 1024] {
            assert_eq!(Pow2::new(n).unwrap().get(), n);
        }
        for n in [0, 3, 48, 1023] {
            let err = Pow2::new(n).unwrap_err();
            assert!(
                matches!(err, EplaceError::Validation { .. }),
                "expected a Validation error"
            );
            assert!(err.to_string().contains("power of two"), "{err}");
        }
    }
}

#[cfg(test)]
mod proptests;
