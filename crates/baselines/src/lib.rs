//! Baseline placers for the paper's evaluation (Tables I–III).
//!
//! The paper compares ePlace against twelve binary-only competitors spanning
//! three algorithm families (§I). This crate implements one faithful
//! representative per family, plus the paper's own predecessor:
//!
//! | baseline | family | stands in for |
//! |---|---|---|
//! | [`MincutPlacer`] | min-cut | Capo 10.5 |
//! | [`QuadraticPlacer`] | quadratic | FastPlace3.0 / ComPLx / POLAR |
//! | [`BellshapePlacer`] | nonlinear (bell-shape + CG line search) | APlace3 / NTUplace3 / mPL6 |
//! | [`CgPlacer`] | nonlinear (eDensity + CG line search) | FFTPL \[10\] |
//!
//! All implement [`GlobalPlacer`]: they take a design and produce a *global*
//! placement (overlap mostly resolved, nothing legalized); the benchmark
//! harness runs the identical downstream flow (mLG, then
//! [`eplace_core::run_cdp`]) on every placer so the tables compare the
//! global-placement algorithms, as the contest protocol does.
//!
//! # Examples
//!
//! ```
//! use eplace_baselines::{GlobalPlacer, QuadraticPlacer};
//! use eplace_benchgen::BenchmarkConfig;
//!
//! let mut design = BenchmarkConfig::ispd05_like("b", 3).scale(200).generate();
//! let result = QuadraticPlacer::default().global_place(&mut design);
//! assert!(result.hpwl > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bellshape;
mod cg;
mod mincut;
mod quadratic;

pub use bellshape::BellshapePlacer;
pub use cg::CgPlacer;
pub use mincut::MincutPlacer;
pub use quadratic::QuadraticPlacer;

use eplace_netlist::Design;

/// Outcome of one global placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpResult {
    /// HPWL of the produced (global, not legalized) placement.
    pub hpwl: f64,
    /// Density overflow τ measured by [`eplace_core::measure_overflow`].
    pub overflow: f64,
    /// Iterations (solver-specific notion).
    pub iterations: usize,
    /// Wall-clock seconds of the run.
    pub seconds: f64,
    /// Seconds spent inside line search (0 for solvers without one) —
    /// quantifies the §V-A claim that line search dominates CG runtime.
    pub line_search_seconds: f64,
}

/// A global-placement algorithm under comparison.
pub trait GlobalPlacer {
    /// Short name for table rows ("mincut", "quadratic", …).
    fn name(&self) -> &'static str;

    /// Produces a global placement of every movable cell of `design` in
    /// place.
    fn global_place(&self, design: &mut Design) -> GpResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_baselines_have_distinct_names() {
        let names = [
            MincutPlacer::default().name(),
            QuadraticPlacer::default().name(),
            BellshapePlacer::default().name(),
            CgPlacer::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
