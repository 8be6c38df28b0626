//! mLG — the annealing-based macro legalizer (paper §VI-A).
//!
//! Unlike classical SA floorplanners that perturb a floorplan *expression*,
//! mLG uses simulated annealing to control macro motion **directly**: the
//! mGP solution is already high quality, so only local shifts are needed and
//! the shrunk design space is well explored by SA.
//!
//! Two-level structure (paper Fig. 4):
//!
//! * **outer (mLG) iteration `j`** — refresh the cost
//!   `f = W + μ_D·D + μ_O·O_m` (Eq. 14): `W` total wirelength, `D` std-cell
//!   area covered by macros, `O_m` macro overlap. `μ_D = W/D` statically
//!   (their penalties both turn into wirelength downstream); `μ_O` is
//!   multiplied by `κ = 1.5` per iteration to become increasingly strict on
//!   overlap.
//! * **inner (SA) iteration `k`** — pick a random macro, move it within the
//!   radius, accept by the Metropolis rule with temperature
//!   `t_{j,k} = Δf_max(j,k)/ln 2`, where `Δf_max` runs linearly from
//!   `0.03·κ^j` down to `0.0001·κ^j` (relative cost increases accepted with
//!   >50 % probability at those magnitudes).
//!
//! The motion radius starts at `r_{j,0} = (R_x/√m)·0.05·κ^j` — each macro
//! confined to ~5 % of its share of the region — and scales with `κ` per
//! outer iteration.
//!
//! These schedule values and the RNG seed are fixed; [`MlgConfig`] sets
//! only the effort (outer iterations, SA moves per macro).
//!
//! A move shifts one macro, so only that macro's terms of Eq. 14 can
//! change, and only those are scored: its coverage of the new rectangle
//! against its cached coverage of the current one, its incident nets' HPWL
//! at both positions in one pass, and its overlap with the other macros
//! and the fixed obstacles at both positions in one pass. Each sum keeps
//! the order of a full recomputation, so every accepted move is the one
//! recomputing would accept.
//!
//! # Examples
//!
//! ```
//! use eplace_benchgen::BenchmarkConfig;
//! use eplace_mlg::{legalize_macros, MlgConfig};
//!
//! let mut design = BenchmarkConfig::mms_like("m", 5, 1.0, 6).scale(300).generate();
//! // (Normally mGP runs first; mLG still resolves the random overlaps.)
//! let report = legalize_macros(&mut design, &MlgConfig::default());
//! assert!(report.macro_overlap_after <= report.macro_overlap_before);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod engine;

pub use engine::{legalize_macros, MlgReport};

/// Outer-iteration scaling factor κ (paper: 1.5, "good tradeoff between
/// quality and efficiency").
const KAPPA: f64 = 1.5;

/// Relative cost increase accepted >50 % at the first SA iteration (paper:
/// 0.03).
const INITIAL_MAX_ACCEPT: f64 = 0.03;

/// …and at the last SA iteration (paper: 0.0001).
const FINAL_MAX_ACCEPT: f64 = 0.0001;

/// Initial motion radius as a fraction of `R_x/√m` (paper: 0.05).
const INITIAL_RADIUS_FACTOR: f64 = 0.05;

/// RNG seed. mLG is the only stochastic flow stage; a fixed seed makes the
/// whole placer deterministic.
const SEED: u64 = 0xE91ACE;

/// Effort knobs of the annealer. The schedule itself (κ, the acceptance
/// targets, the initial radius and the seed) is fixed at the paper's
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct MlgConfig {
    /// Maximum outer (mLG) iterations before giving up on `O_m = 0`.
    pub max_outer_iterations: usize,
    /// Inner SA iterations per macro (`k_max = this × m`).
    pub sa_iterations_per_macro: usize,
}

impl Default for MlgConfig {
    fn default() -> Self {
        MlgConfig {
            max_outer_iterations: 24,
            sa_iterations_per_macro: 600,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        assert_eq!(KAPPA, 1.5);
        assert_eq!(INITIAL_MAX_ACCEPT, 0.03);
        assert_eq!(FINAL_MAX_ACCEPT, 0.0001);
        assert_eq!(INITIAL_RADIUS_FACTOR, 0.05);
    }
}
