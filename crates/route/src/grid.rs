//! The routing capacity grid: per-gcell directional supply and demand.
//!
//! The design region is tiled into an `nx × ny` grid of *gcells*. Each gcell
//! carries a horizontal and a vertical track supply, and routing deposits
//! demand into the two directional layers. A wire crossing a gcell
//! completely in one direction consumes one unit of that gcell's directional
//! demand; a unit *move* between two adjacent gcells charges ½ to each
//! endpoint, so interior gcells of a straight run accumulate 1.0 and the
//! run's endpoints 0.5 — symmetric, and independent of traversal direction.

use eplace_geometry::{Point, Rect};

/// Per-gcell directional capacity/demand accounting.
#[derive(Debug, Clone)]
pub struct CapacityGrid {
    nx: usize,
    ny: usize,
    region: Rect,
    bin_w: f64,
    bin_h: f64,
    /// Horizontal track supply per gcell.
    h_cap: f64,
    /// Vertical track supply per gcell.
    v_cap: f64,
    /// Horizontal routing demand per gcell (row-major).
    h_demand: Vec<f64>,
    /// Vertical routing demand per gcell (row-major).
    v_demand: Vec<f64>,
}

impl CapacityGrid {
    /// An empty grid over `region` with the given per-gcell supplies.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid, a degenerate region, or non-positive
    /// capacities.
    pub fn new(region: Rect, nx: usize, ny: usize, h_cap: f64, v_cap: f64) -> Self {
        assert!(nx > 0 && ny > 0, "empty routing grid");
        assert!(region.is_valid(), "degenerate routing region");
        assert!(h_cap > 0.0 && v_cap > 0.0, "non-positive track capacity");
        CapacityGrid {
            nx,
            ny,
            region,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
            h_cap,
            v_cap,
            h_demand: vec![0.0; nx * ny],
            v_demand: vec![0.0; nx * ny],
        }
    }

    /// Grid width in gcells.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in gcells.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The routed region.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Gcell width.
    #[inline]
    pub fn bin_w(&self) -> f64 {
        self.bin_w
    }

    /// Gcell height.
    #[inline]
    pub fn bin_h(&self) -> f64 {
        self.bin_h
    }

    /// Horizontal track supply per gcell.
    #[inline]
    pub fn h_cap(&self) -> f64 {
        self.h_cap
    }

    /// Vertical track supply per gcell.
    #[inline]
    pub fn v_cap(&self) -> f64 {
        self.v_cap
    }

    /// Row-major index of gcell `(ix, iy)`.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// The gcell containing `p`, clamped into the grid.
    pub fn gcell_of(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.region.xl) / self.bin_w).floor();
        let iy = ((p.y - self.region.yl) / self.bin_h).floor();
        (
            (ix.max(0.0) as usize).min(self.nx - 1),
            (iy.max(0.0) as usize).min(self.ny - 1),
        )
    }

    /// Horizontal demand map (row-major).
    pub fn h_demand(&self) -> &[f64] {
        &self.h_demand
    }

    /// Vertical demand map (row-major).
    pub fn v_demand(&self) -> &[f64] {
        &self.v_demand
    }

    /// Adds the per-gcell demand of `sink` (chunk-order reduction: callers
    /// must fold partial sinks front-to-back for thread-count-invariant
    /// bits).
    pub fn absorb(&mut self, sink: &DemandSink) {
        debug_assert_eq!(sink.h.len(), self.h_demand.len());
        for (d, s) in self.h_demand.iter_mut().zip(&sink.h) {
            *d += s;
        }
        for (d, s) in self.v_demand.iter_mut().zip(&sink.v) {
            *d += s;
        }
    }

    /// Horizontal utilization (demand / supply) of a gcell.
    #[inline]
    pub fn h_util(&self, ix: usize, iy: usize) -> f64 {
        self.h_demand[self.idx(ix, iy)] / self.h_cap
    }

    /// Vertical utilization of a gcell.
    #[inline]
    pub fn v_util(&self, ix: usize, iy: usize) -> f64 {
        self.v_demand[self.idx(ix, iy)] / self.v_cap
    }

    /// The gcell's congestion: the worse of its two directional
    /// utilizations.
    #[inline]
    pub fn congestion(&self, ix: usize, iy: usize) -> f64 {
        self.h_util(ix, iy).max(self.v_util(ix, iy))
    }

    /// `true` when either directional demand exceeds `threshold ×` supply.
    #[inline]
    pub fn is_overflowed(&self, ix: usize, iy: usize, threshold: f64) -> bool {
        self.congestion(ix, iy) > threshold
    }

    /// Total overflow in track units: `Σ_bins Σ_dir max(0, demand − cap)`.
    pub fn total_overflow(&self) -> f64 {
        let mut total = 0.0;
        for &d in &self.h_demand {
            total += (d - self.h_cap).max(0.0);
        }
        for &d in &self.v_demand {
            total += (d - self.v_cap).max(0.0);
        }
        total
    }

    /// Peak directional utilization over all gcells (1.0 = exactly full).
    pub fn peak_congestion(&self) -> f64 {
        let h = self
            .h_demand
            .iter()
            .fold(0.0f64, |m, &d| m.max(d / self.h_cap));
        let v = self
            .v_demand
            .iter()
            .fold(0.0f64, |m, &d| m.max(d / self.v_cap));
        h.max(v)
    }

    /// Number of gcells with either direction above `threshold ×` supply.
    pub fn overflowed_bins(&self, threshold: f64) -> usize {
        (0..self.nx * self.ny)
            .filter(|&i| {
                self.h_demand[i] / self.h_cap > threshold
                    || self.v_demand[i] / self.v_cap > threshold
            })
            .count()
    }
}

/// Anything demand can be deposited into: the per-worker [`DemandSink`]s of
/// the parallel probabilistic pass, or the [`CapacityGrid`] itself during
/// the serial rip-up-and-reroute pass.
pub trait RouteSink {
    /// Deposits `w` demand along the horizontal run of gcells `x0..=x1` at
    /// row `y` (½ per move endpoint; no-op when `x0 == x1`).
    fn h_run(&mut self, x0: usize, x1: usize, y: usize, w: f64);
    /// Deposits `w` demand along the vertical run of gcells `y0..=y1` at
    /// column `x`.
    fn v_run(&mut self, y0: usize, y1: usize, x: usize, w: f64);
}

impl RouteSink for CapacityGrid {
    fn h_run(&mut self, x0: usize, x1: usize, y: usize, w: f64) {
        let (a, b) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        for x in a..b {
            self.h_demand[y * self.nx + x] += 0.5 * w;
            self.h_demand[y * self.nx + x + 1] += 0.5 * w;
        }
    }

    fn v_run(&mut self, y0: usize, y1: usize, x: usize, w: f64) {
        let (a, b) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        for y in a..b {
            self.v_demand[y * self.nx + x] += 0.5 * w;
            self.v_demand[(y + 1) * self.nx + x] += 0.5 * w;
        }
    }
}

/// A write-only demand accumulator: workers of the parallel probabilistic
/// pass each fill one sink, and the sinks are folded into the
/// [`CapacityGrid`] in chunk order.
#[derive(Debug, Clone)]
pub struct DemandSink {
    nx: usize,
    pub(crate) h: Vec<f64>,
    pub(crate) v: Vec<f64>,
}

impl DemandSink {
    /// An empty sink matching `grid`'s dimensions.
    pub fn for_grid(grid: &CapacityGrid) -> Self {
        DemandSink {
            nx: grid.nx,
            h: vec![0.0; grid.nx * grid.ny],
            v: vec![0.0; grid.nx * grid.ny],
        }
    }
}

impl RouteSink for DemandSink {
    fn h_run(&mut self, x0: usize, x1: usize, y: usize, w: f64) {
        let (a, b) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        for x in a..b {
            self.h[y * self.nx + x] += 0.5 * w;
            self.h[y * self.nx + x + 1] += 0.5 * w;
        }
    }

    fn v_run(&mut self, y0: usize, y1: usize, x: usize, w: f64) {
        let (a, b) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        for y in a..b {
            self.v[y * self.nx + x] += 0.5 * w;
            self.v[(y + 1) * self.nx + x] += 0.5 * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CapacityGrid {
        CapacityGrid::new(Rect::new(0.0, 0.0, 80.0, 40.0), 8, 4, 10.0, 10.0)
    }

    #[test]
    fn gcell_lookup_clamps() {
        let g = grid();
        assert_eq!(g.gcell_of(Point::new(5.0, 5.0)), (0, 0));
        assert_eq!(g.gcell_of(Point::new(-3.0, 100.0)), (0, 3));
        assert_eq!(g.gcell_of(Point::new(80.0, 40.0)), (7, 3));
        assert_eq!(g.bin_w(), 10.0);
        assert_eq!(g.bin_h(), 10.0);
    }

    #[test]
    fn run_deposit_charges_half_per_endpoint() {
        let g = grid();
        let mut s = DemandSink::for_grid(&g);
        s.h_run(1, 4, 2, 1.0);
        // Interior gcells 2,3 get 1.0; endpoints 1,4 get 0.5.
        assert_eq!(s.h[2 * 8 + 1], 0.5);
        assert_eq!(s.h[2 * 8 + 2], 1.0);
        assert_eq!(s.h[2 * 8 + 3], 1.0);
        assert_eq!(s.h[2 * 8 + 4], 0.5);
        // Total demand equals the number of moves.
        assert_eq!(s.h.iter().sum::<f64>(), 3.0);
        // Direction-independent.
        let mut r = DemandSink::for_grid(&g);
        r.h_run(4, 1, 2, 1.0);
        assert_eq!(s.h, r.h);
    }

    #[test]
    fn overflow_and_peak_account_both_directions() {
        let mut g = grid();
        let mut s = DemandSink::for_grid(&g);
        for _ in 0..12 {
            s.h_run(0, 7, 0, 1.0); // 7 moves per pass
            s.v_run(0, 3, 0, 1.0);
        }
        g.absorb(&s);
        // Interior gcells of the horizontal run hold 12.0 > 10.0.
        assert!(g.total_overflow() > 0.0);
        assert!(g.peak_congestion() > 1.0);
        assert!(g.overflowed_bins(1.0) > 0);
        assert!(g.is_overflowed(3, 0, 1.0));
        assert!(!g.is_overflowed(5, 2, 1.0));
    }

    #[test]
    fn negative_weight_lifts_a_deposit_exactly() {
        // The grid is itself a RouteSink; on an empty grid a −w run
        // cancels a +w run bitwise. Over other demand the sums round, so
        // the rip-up pass never relies on an exact cancel.
        let mut g = grid();
        g.h_run(0, 5, 1, 2.0);
        g.v_run(0, 2, 3, 1.5);
        g.h_run(0, 5, 1, -2.0);
        g.v_run(0, 2, 3, -1.5);
        assert!(g.h_demand().iter().all(|&d| d == 0.0));
        assert!(g.v_demand().iter().all(|&d| d == 0.0));
    }
}
