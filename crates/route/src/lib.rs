//! Routability subsystem — the paper §VIII's "extension towards
//! routability", grown into a standalone deterministic global router.
//!
//! ePlace scores placements by HPWL, but a placement is only as good as its
//! routability: a wirelength-optimal layout that funnels thousands of nets
//! through one region is unusable. This crate answers "does this placement
//! route?" without an external router:
//!
//! 1. **Capacity grid** ([`CapacityGrid`]) — the region tiled into gcells,
//!    each with a horizontal and vertical track supply derived from a track
//!    pitch; demand is deposited per direction.
//! 2. **Net decomposition** ([`decompose`]) — hyperedges become two-pin
//!    segments via a deterministic rectilinear Prim MST (star fallback for
//!    very high degrees).
//! 3. **Probabilistic L/Z routing** ([`deposit_probabilistic`]) — each
//!    segment spreads its demand uniformly over its monotone single-jog
//!    candidate routes, the expected congestion of a shortest-path router.
//!    This bulk pass is parallelized with fixed chunk boundaries and
//!    chunk-order reduction ([`eplace_exec`]), so results are bitwise
//!    thread-count invariant.
//! 4. **A\* maze fallback** ([`maze_search`]) — segments crossing
//!    overflowed gcells are ripped up and rerouted around congestion with a
//!    deterministic congestion-aware A\* (total-order float comparison,
//!    index tie-breaking), committing real detours where the probabilistic
//!    estimate says the region cannot absorb the demand.
//!
//! The output is a [`RoutabilityReport`] — routed wirelength, total track
//! overflow, peak congestion — plus the demand-laden grid, which the
//! placer's congestion-driven inflation loop consumes (see
//! `eplace_core`'s routability mode).
//!
//! The model is fixed apart from two knobs: the grid is always
//! [`auto_grid_dim`] square, a gcell overflows above
//! [`OVERFLOW_THRESHOLD`], and the track pitch and maze congestion weight
//! are constants; [`RouteConfig`] scales the track supply and switches the
//! maze fallback.
//!
//! # Examples
//!
//! ```
//! use eplace_benchgen::BenchmarkConfig;
//! use eplace_exec::ExecConfig;
//! use eplace_route::{route_design, RouteConfig};
//!
//! let design = BenchmarkConfig::ispd05_like("r", 3).scale(200).generate();
//! let result = route_design(&design, &RouteConfig::default(), &ExecConfig::serial());
//! assert!(result.report.routed_wl > 0.0);
//! assert!(result.report.peak_congestion >= 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod decompose;
mod grid;
mod maze;
mod prob;
mod router;

pub use decompose::{decompose, Segment, STAR_THRESHOLD};
pub use grid::{CapacityGrid, DemandSink, RouteSink};
pub use maze::{deposit_path, maze_search, MazeScratch};
pub use prob::{deposit_probabilistic, MAX_CANDIDATES};
pub use router::{
    auto_grid_dim, route_design, RoutabilityReport, RouteConfig, RouteResult, OVERFLOW_THRESHOLD,
};
