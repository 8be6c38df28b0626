//! The ePlace core — the paper's primary contribution.
//!
//! This crate combines the substrates ([`eplace_density`] for the
//! electrostatic cost, [`eplace_wirelength`] for the WA surrogate,
//! [`eplace_mlg`] and [`eplace_legalize`] for the discrete stages) into the
//! complete flow of the paper's Figure 1:
//!
//! ```text
//! mIP  — quadratic wirelength minimization (B2B + CG)           [mip]
//! mGP  — mixed-size global placement: Nesterov + eDensity        [gp]
//! mLG  — annealing macro legalization                    [eplace_mlg]
//! cGP  — std-cell global placement with λ rewind                 [gp]
//! cDP  — legalization + detail placement              [run_cdp]
//! ```
//!
//! The optimizer is Nesterov's method (Algorithm 1) with the steplength
//! predicted as the inverse Lipschitz constant (Eq. 10) and corrected by the
//! backtracking of Algorithm 2 ([`NesterovOptimizer`]); the gradient is
//! preconditioned by the approximated diagonal Hessian `|E_i| + λ·q_i`
//! (Eq. 11–13, [`EplaceCost`]).
//!
//! # Quickstart
//!
//! ```
//! use eplace_benchgen::BenchmarkConfig;
//! use eplace_core::{EplaceConfig, Placer};
//!
//! let design = BenchmarkConfig::ispd05_like("quick", 1).scale(200).generate();
//! let mut placer = Placer::new(design, EplaceConfig::fast());
//! let report = placer.run().unwrap();
//! assert!(report.final_hpwl > 0.0);
//! assert!(report.final_overflow <= 0.35); // fast preset, loose bound
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cancel;
mod ckpt;
mod cost;
mod fillers;
mod gp;
mod mip;
mod nesterov;
mod placer;
mod problem;
mod recover;
mod routability;
mod trace;

pub use cancel::CancelToken;
pub use ckpt::{checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint};
pub use cost::EplaceCost;
pub use fillers::insert_fillers;
pub use gp::{resume_global_placement, run_global_placement, GpOutcome};
pub use mip::{initial_placement, quadratic_solve, Anchor, MipReport};
pub use nesterov::{Gradient, NesterovCheckpoint, NesterovOptimizer, StepInfo};
pub use placer::{measure_overflow, run_cdp, scaled_hpwl, PlacementReport, Placer};
pub use problem::PlacementProblem;
pub use recover::{FaultKind, GpCheckpoint, GradientFault};
pub use routability::{RoutabilityConfig, RoutabilityOutcome, MAX_HPWL_COST};
pub use trace::{
    trace_to_csv_checked, IterationRecord, RuntimeProfile, Stage, StageTiming, StopReason,
};

pub use eplace_density::SpectralEngine;
pub use eplace_obs::Obs;
pub use eplace_route::{RoutabilityReport, RouteConfig};

use eplace_mlg::MlgConfig;

/// Configuration of the full placer. Defaults are the paper's settings;
/// [`EplaceConfig::fast`] trades quality for speed (tests, examples, CI).
#[derive(Debug, Clone, PartialEq)]
pub struct EplaceConfig {
    /// Global-placement stopping overflow τ (paper: 0.10).
    pub target_overflow: f64,
    /// Iteration cap per global-placement stage (paper: 3000).
    pub max_iterations: usize,
    /// Minimum iterations before the overflow stop can fire (lets λ ramp).
    pub min_iterations: usize,
    /// Backtracking scale factor ε (Algorithm 2; paper: 0.95).
    pub epsilon: f64,
    /// Cap on backtracks per iteration (paper reports 1.037 average).
    pub max_backtracks: usize,
    /// Ablation: disable Algorithm 2 entirely (§V-C reports +43.12 % HPWL).
    pub enable_backtracking: bool,
    /// Ablation: disable the `|E_i| + λq_i` preconditioner (§V-D reports
    /// failures and +24.63 % HPWL).
    pub enable_preconditioner: bool,
    /// Ablation: disable the 20-iteration filler-only placement before cGP
    /// (§VI-B reports +6.53 % HPWL).
    pub enable_filler_phase: bool,
    /// Iterations of the filler-only phase (paper: 20).
    pub filler_phase_iterations: usize,
    /// Density-grid dimension clamp (power-of-two, per [`eplace_density::grid_dimension`]).
    pub grid_min: usize,
    /// Upper clamp of the grid dimension.
    pub grid_max: usize,
    /// Macro-legalizer settings.
    pub mlg: MlgConfig,
    /// Detail-placement refinement passes in cDP.
    pub detail_passes: usize,
    /// Use the Abacus (cluster-optimal) legalizer for cDP instead of
    /// Tetris; NTUplace3's detail placer (the paper's cDP) is of the
    /// minimal-displacement family, which Abacus represents better.
    pub use_abacus: bool,
    /// Seed for filler scattering (and anything else stochastic outside mLG).
    pub seed: u64,
    /// λ multiplier upper bound per iteration (paper: 1.1); the μ rule's
    /// lower bound and ΔHPWL reference are constants of [`EplaceCost`].
    pub lambda_mu_max: f64,
    /// Worker threads for the density and wirelength kernels (the paper's
    /// §VIII "acceleration via parallel computation"). `1` (the default)
    /// runs the historical serial code paths and reproduces prior results
    /// bit for bit; `0` auto-detects the hardware parallelism. Any value
    /// ≥ 2 yields one deterministic result independent of the actual thread
    /// count — see [`eplace_exec`].
    pub threads: usize,
    /// Spectral engine for the density grid's Poisson solve.
    /// [`SpectralEngine::V1`] (the default) is the bit-exact historical
    /// radix-2 path — the golden trace contract; [`SpectralEngine::V2`]
    /// runs the symmetry-halved mixed-radix kernels, which compute the same
    /// transforms faster with a different last-ulps rounding order while
    /// staying bitwise invariant across thread counts within themselves.
    pub spectral_engine: SpectralEngine,
    /// Certified optimal HPWL of the input design, when one is known
    /// (PEKO-style benchmarks, `eplace_benchgen`'s
    /// `BenchmarkConfig::generate_known_optimum`). Purely observational:
    /// the optimizer never reads it; [`Placer::run`] divides the final
    /// legal HPWL by it to fill
    /// [`PlacementReport::suboptimality_ratio`].
    pub known_optimum_hpwl: Option<f64>,
    /// Deterministic gradient fault for the fault-injection tests; always
    /// `None` in production, where the sentinel is read-only and the
    /// trajectory is bit-identical to the unguarded loop.
    pub fault: Option<GradientFault>,
    /// Observability recorder threaded through every stage and kernel
    /// ([`eplace_obs`]). The disabled default costs one branch per
    /// instrumentation point and records nothing; an enabled recorder
    /// gathers spans and counters (and journal lines, if it carries a sink)
    /// without ever feeding back into the numerics — traces stay
    /// bit-identical either way.
    pub obs: Obs,
    /// Routability mode (the paper §VIII's "extension towards
    /// routability"): after global placement, route the design with the
    /// probabilistic global router, inflate cells in overflowed gcells, and
    /// run bounded refinement rounds until the routing overflow target or
    /// round budget is hit ([`crate::RoutabilityConfig`]). `None` (the
    /// default) skips the loop entirely, leaving the flow bit-identical to
    /// a build without the subsystem.
    pub routability: Option<RoutabilityConfig>,
    /// Cooperative cancellation flag, polled once per global-placement
    /// iteration. The inert default never cancels and adds nothing
    /// observable to the trajectory; the placement-service daemon installs
    /// an armed token ([`CancelToken::new`]) so a job can be stopped at the
    /// next iteration boundary with
    /// [`eplace_errors::EplaceError::Cancelled`] after the best-so-far
    /// positions are committed.
    pub cancel: CancelToken,
}

impl Default for EplaceConfig {
    fn default() -> Self {
        EplaceConfig {
            target_overflow: 0.10,
            max_iterations: 3000,
            min_iterations: 30,
            epsilon: 0.95,
            max_backtracks: 10,
            enable_backtracking: true,
            enable_preconditioner: true,
            enable_filler_phase: true,
            filler_phase_iterations: 20,
            grid_min: 16,
            grid_max: 1024,
            mlg: MlgConfig::default(),
            detail_passes: 2,
            use_abacus: true,
            seed: 0x5EED,
            lambda_mu_max: 1.1,
            threads: 1,
            spectral_engine: SpectralEngine::V1,
            known_optimum_hpwl: None,
            fault: None,
            obs: Obs::disabled(),
            routability: None,
            cancel: CancelToken::default(),
        }
    }
}

impl EplaceConfig {
    /// A reduced-effort preset for tests and examples: smaller grids, fewer
    /// iterations, lighter annealing.
    pub fn fast() -> Self {
        EplaceConfig {
            max_iterations: 500,
            min_iterations: 15,
            grid_max: 128,
            detail_passes: 1,
            mlg: MlgConfig {
                sa_iterations_per_macro: 150,
                max_outer_iterations: 16,
            },
            ..EplaceConfig::default()
        }
    }

    /// The kernel execution policy implied by [`EplaceConfig::threads`].
    pub fn exec(&self) -> eplace_exec::ExecConfig {
        eplace_exec::ExecConfig::with_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EplaceConfig::default();
        assert_eq!(c.target_overflow, 0.10);
        assert_eq!(c.max_iterations, 3000);
        assert_eq!(c.epsilon, 0.95);
        assert!(c.enable_backtracking && c.enable_preconditioner && c.enable_filler_phase);
        assert_eq!(c.filler_phase_iterations, 20);
        assert_eq!(c.lambda_mu_max, 1.1);
    }

    #[test]
    fn fast_is_lighter() {
        let f = EplaceConfig::fast();
        let d = EplaceConfig::default();
        assert!(f.max_iterations < d.max_iterations);
        assert!(f.grid_max < d.grid_max);
    }
}
