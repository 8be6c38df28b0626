//! Smooth wirelength surrogates for the ePlace reproduction.
//!
//! The placement objective is total half-perimeter wirelength (HPWL, paper
//! Eq. 1), which [`eplace_netlist::Design::hpwl_with_positions`] computes.
//! HPWL is not differentiable, so analytic placers substitute a smooth
//! surrogate; ePlace uses the **weighted-average (WA)** model of
//! Hsu–Chang–Balabanov (paper Eq. 3), implemented here with analytic
//! gradients and max-shifted exponentials for numerical stability. The
//! log-sum-exp (LSE) model is provided as well — it is the surrogate used by
//! the APlace/NTUplace family and powers the `bellshape` baseline placer.
//!
//! All evaluators take the positions as an external slice (`&[Point]`,
//! indexed by cell), because the optimizer owns its own solution vectors
//! (`u` and `v` in Nesterov's method) and evaluates both.
//!
//! # Examples
//!
//! ```
//! use eplace_geometry::{Point, Rect};
//! use eplace_netlist::{CellKind, DesignBuilder};
//! use eplace_wirelength::{SmoothWirelength, WaModel};
//!
//! let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
//! let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
//! let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
//! b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
//! let design = b.build();
//! let pos = vec![Point::new(0.0, 0.0), Point::new(30.0, 40.0)];
//!
//! assert_eq!(design.hpwl_with_positions(&pos), 70.0);
//! let mut wa = WaModel::new(&design);
//! let mut grad = vec![Point::ORIGIN; 2];
//! let smooth = wa.gradient(&design, &pos, 1.0, &mut grad);
//! assert!(smooth <= 70.0 + 1e-9); // WA underestimates HPWL
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod lse;
mod schedule;
mod wa;

pub use lse::LseModel;
pub use schedule::GammaSchedule;
pub use wa::WaModel;

use eplace_geometry::Point;
use eplace_netlist::Design;

/// A smooth wirelength surrogate with an analytic gradient.
///
/// Implemented by [`WaModel`] (ePlace's choice) and [`LseModel`]
/// (APlace-family baseline). The trait lets the nonlinear optimizers be
/// generic over the surrogate.
pub trait SmoothWirelength {
    /// Evaluates the smooth wirelength at `pos` with smoothing parameter
    /// `gamma`.
    fn evaluate(&mut self, design: &Design, pos: &[Point], gamma: f64) -> f64;

    /// Evaluates the smooth wirelength and writes `∂W̃/∂(x_i, y_i)` for every
    /// cell into `grad` (fixed cells included — callers mask them).
    /// Returns the smooth wirelength.
    fn gradient(&mut self, design: &Design, pos: &[Point], gamma: f64, grad: &mut [Point]) -> f64;
}
