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
//! Both models read the netlist straight from the design's flat pin array
//! ([`Design::net_pins`]) through one net loop: gather a net's pin
//! coordinates, hand each axis to the model's per-axis function, scatter the
//! weighted per-pin derivatives. The loop serves [`WaModel`]'s serial and
//! chunked parallel paths and [`LseModel`] alike. Of a `k`-pin net's `2k`
//! shifted exponentials per axis, three have bits known without a call: the
//! pin at the axis max has `e⁺ = exp(0) = 1`, the pin at the min has
//! `e⁻ = 1`, and the min pin's `e⁺` and the max pin's `e⁻` are the same
//! `exp((lo − hi)/γ)`. Both models therefore call `exp` `2k − 3` times per
//! net axis (once for a two-pin net), and their results are bitwise those of
//! evaluating all `2k`: the skipped values are the exact bits the calls
//! return, and every sum keeps its pin order. Where `1/γ` or the net's span
//! is not finite, every exponential is evaluated, since `0·(1/γ)` or
//! `x − hi` can then be NaN.
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
mod net;
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
