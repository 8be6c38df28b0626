//! # ePlace reproduction — umbrella crate
//!
//! This crate re-exports the whole workspace under one roof so examples,
//! integration tests and downstream users can depend on a single package.
//!
//! The reproduction implements *ePlace: Electrostatics Based Placement Using
//! Nesterov's Method* (Lu et al., DAC 2014): the eDensity electrostatic
//! density function solved spectrally, Nesterov's optimizer with Lipschitz
//! steplength prediction and backtracking, the approximated diagonal
//! preconditioner, and the full mixed-size flow mIP → mGP → mLG → cGP → cDP,
//! together with the substrates (FFT/DCT, Bookshelf parsers, benchmark
//! generator, legalizers) and baseline placers the evaluation needs.
//!
//! # Quickstart
//!
//! ```
//! use eplace_repro::benchgen::{BenchmarkConfig, BenchmarkSuite};
//! use eplace_repro::core::{EplaceConfig, Placer};
//!
//! # fn main() {
//! let design = BenchmarkConfig::ispd05_like("demo", 0)
//!     .scale(200)
//!     .generate();
//! let mut placer = Placer::new(design, EplaceConfig::fast());
//! let report = placer.run().unwrap();
//! assert!(report.final_hpwl.is_finite());
//! # }
//! ```

/// Geometric primitives ([`Point`](eplace_geometry::Point),
/// [`Rect`](eplace_geometry::Rect), …).
pub use eplace_geometry as geometry;

/// Circuit data model ([`Design`](eplace_netlist::Design), cells, nets, rows).
pub use eplace_netlist as netlist;

/// Bookshelf (ISPD contest format) reader and writer.
pub use eplace_bookshelf as bookshelf;

/// Synthetic ISPD/MMS-like benchmark generator.
pub use eplace_benchgen as benchgen;

/// FFT / DCT / DST spectral transform substrate.
pub use eplace_spectral as spectral;

/// Smooth wirelength models (weighted-average, LSE); HPWL itself is
/// [`Design::hpwl_with_positions`](eplace_netlist::Design::hpwl_with_positions).
pub use eplace_wirelength as wirelength;

/// Electrostatic (eDensity) density system and Poisson solver.
pub use eplace_density as density;

/// The ePlace core: Nesterov optimizer, preconditioner, mGP/cGP flow.
pub use eplace_core as core;

/// Annealing-based macro legalizer (mLG).
pub use eplace_mlg as mlg;

/// Row legalization and detail placement (cDP substrate).
pub use eplace_legalize as legalize;

/// Baseline placers (min-cut, quadratic, bell-shape, CG).
pub use eplace_baselines as baselines;

/// Structured error taxonomy ([`EplaceError`](eplace_errors::EplaceError),
/// divergence reports, validation errors).
pub use eplace_errors as errors;

/// Observability: spans, counters, and the JSONL run journal
/// ([`Obs`](eplace_obs::Obs)).
pub use eplace_obs as obs;

/// Routability subsystem: capacity grid, probabilistic global router with
/// A* maze fallback, routed-wirelength scoring.
pub use eplace_route as route;
