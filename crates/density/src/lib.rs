//! The eDensity electrostatic density system (paper §IV).
//!
//! Every placement object is modeled as a positive charge whose electric
//! quantity equals its area. The density cost `N(v)` is the total potential
//! energy of the system; minimizing it drives the layout toward the
//! electrostatic equilibrium, i.e. an even density distribution.
//!
//! Potential and field come from a Poisson equation with Neumann boundary
//! conditions and zero-frequency removal (paper Eq. 6), solved spectrally in
//! `O(n log n)` on an `nx × ny` bin grid:
//!
//! 1. deposit charge (cell area, with ePlace's small-cell inflation) into
//!    bins — [`DensityGrid::deposit`], which keeps each object's stencil
//!    (its bin ranges, overlap widths and density scale);
//! 2. 2-D DCT of the density → cosine coefficients `a_{uv}`;
//! 3. scale by the inverse Laplacian eigenvalues `w_u² + w_v²` (the `(0,0)`
//!    term is dropped — that is the zero-frequency removal);
//! 4. mixed sine/cosine inverse transforms → field ξ = (∂ψ/∂x, ∂ψ/∂y) —
//!    [`DensityGrid::solve`]. The potential ψ itself (an inverse cosine
//!    transform) is synthesized only on demand, by
//!    [`DensityGrid::potential_map`], [`DensityGrid::energy`] or
//!    [`DensityGrid::total_energy`]: Nesterov's method needs ∇N, never N;
//! 5. per-object gradient `2·q_i·ξ` (paper Eq. 8) by sampling the field
//!    over each object's footprint through its deposited stencil —
//!    [`DensityGrid::deposited_gradient`]; [`DensityGrid::gradient`] and
//!    [`DensityGrid::energy`] (`q_i·ψ_i`, Eq. 7) sample any object at any
//!    position through a stencil built on the spot.
//!
//! The module also provides the **bell-shape** density model
//! ([`BellShapeDensity`]) used by the APlace-family baseline placer, so the
//! paper's nonlinear-placer comparison can run against the historically
//! accurate competitor formulation.
//!
//! # Examples
//!
//! ```
//! use eplace_density::{DensityGrid, DensityObject};
//! use eplace_geometry::{Point, Rect, Size};
//!
//! let region = Rect::new(0.0, 0.0, 64.0, 64.0);
//! let mut grid = DensityGrid::new(region, 8, 8, 1.0);
//! let objects = vec![DensityObject::movable(Size::new(8.0, 8.0)); 4];
//! // All four objects piled on one spot: the field pushes them apart.
//! let pos = vec![Point::new(16.0, 16.0); 4];
//! grid.deposit(&objects, &pos);
//! grid.solve();
//! let g = grid.gradient(&objects[0], pos[0]);
//! assert!(g.x < 0.0 && g.y < 0.0); // descent moves away from the pile
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bellshape;
mod congestion;
mod grid;

pub use bellshape::BellShapeDensity;
pub use congestion::CongestionMap;
pub use eplace_spectral::SpectralEngine;
pub use grid::{DensityGrid, DensityObject};

/// Fraction by which a cell dimension must exceed the bin dimension before
/// it is deposited without inflation: dimensions below `√2 × bin` are
/// inflated to `√2 × bin` with proportionally reduced density, preserving
/// total charge (ePlace's local density scaling).
pub const SMOOTH_FACTOR: f64 = std::f64::consts::SQRT_2;

/// Chooses the density grid dimension for `movable_count` objects:
/// the smallest power of two ≥ √count, clamped into `[min, max]`.
///
/// The paper (§II) decomposes the region into `n × n` bins with `n` matched
/// to the object count so the average bin holds O(1) cells.
///
/// # Examples
///
/// ```
/// assert_eq!(eplace_density::grid_dimension(10_000, 16, 1024), 128);
/// assert_eq!(eplace_density::grid_dimension(10, 16, 1024), 16);
/// ```
pub fn grid_dimension(movable_count: usize, min: usize, max: usize) -> usize {
    let target = (movable_count as f64).sqrt().ceil() as usize;
    target.next_power_of_two().clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimension_scales_with_sqrt() {
        assert_eq!(grid_dimension(1, 2, 1024), 2);
        assert_eq!(grid_dimension(100, 2, 1024), 16);
        assert_eq!(grid_dimension(1_000_000, 2, 1024), 1024);
        assert_eq!(grid_dimension(100_000_000, 2, 1024), 1024); // clamped
    }

    #[test]
    fn grid_dimension_respects_min() {
        assert_eq!(grid_dimension(1, 64, 1024), 64);
    }

    #[test]
    fn next_pow2() {
        // ⌈√count⌉ rounds up to the next power of two, and an empty
        // problem gets the 1-bin grid.
        for (count, dim) in [(0, 1), (1, 1), (2, 2), (4, 2), (5, 4), (1025 * 1025, 2048)] {
            assert_eq!(grid_dimension(count, 1, 4096), dim, "count {count}");
        }
    }
}

#[cfg(test)]
mod proptests;
