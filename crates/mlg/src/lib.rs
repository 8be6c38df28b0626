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

/// Tuning knobs of the annealer; the defaults are the paper's values.
#[derive(Debug, Clone, PartialEq)]
pub struct MlgConfig {
    /// Outer-iteration scaling factor κ (paper: 1.5, "good tradeoff
    /// between quality and efficiency").
    pub kappa: f64,
    /// Maximum outer (mLG) iterations before giving up on `O_m = 0`.
    pub max_outer_iterations: usize,
    /// Inner SA iterations per macro (`k_max = this × m`).
    pub sa_iterations_per_macro: usize,
    /// Relative cost increase accepted >50 % at the first SA iteration
    /// (paper: 0.03).
    pub initial_max_accept: f64,
    /// …and at the last SA iteration (paper: 0.0001).
    pub final_max_accept: f64,
    /// Initial motion radius as a fraction of `R_x/√m` (paper: 0.05).
    pub initial_radius_factor: f64,
    /// RNG seed (mLG is the only stochastic flow stage; fixing the seed
    /// makes the whole placer deterministic).
    pub seed: u64,
}

impl Default for MlgConfig {
    fn default() -> Self {
        MlgConfig {
            kappa: 1.5,
            max_outer_iterations: 24,
            sa_iterations_per_macro: 600,
            initial_max_accept: 0.03,
            final_max_accept: 0.0001,
            initial_radius_factor: 0.05,
            seed: 0xE91ACE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = MlgConfig::default();
        assert_eq!(c.kappa, 1.5);
        assert_eq!(c.initial_max_accept, 0.03);
        assert_eq!(c.final_max_accept, 0.0001);
        assert_eq!(c.initial_radius_factor, 0.05);
    }
}
