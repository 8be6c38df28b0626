//! The two-phase global router: parallel probabilistic bulk + serial
//! rip-up-and-reroute maze fallback.

use crate::decompose::{decompose, Segment};
use crate::grid::{CapacityGrid, DemandSink};
use crate::maze::{deposit_path, maze_search, MazeScratch};
use crate::prob::deposit_probabilistic;
use eplace_exec::{chunk_range, deterministic_chunks, for_each_chunk, ExecConfig};
use eplace_netlist::Design;

/// Distance between adjacent routing tracks, in placement units. A gcell's
/// horizontal supply is `bin_h / TRACK_PITCH` tracks (tracks stack
/// vertically), its vertical supply `bin_w / TRACK_PITCH`.
const TRACK_PITCH: f64 = 2.0;

/// Utilization above which a gcell counts as overflowed and its segments
/// are sent to the maze fallback.
pub const OVERFLOW_THRESHOLD: f64 = 1.0;

/// Congestion weight `w` of the maze cost (`len × (1 + w·u²)`).
const MAZE_CONGESTION_WEIGHT: f64 = 4.0;

/// Routing model parameters. The defaults route the synthetic suites at
/// realistic utilization; tests tighten `capacity_scale` to manufacture
/// congestion. The gcell grid is always [`auto_grid_dim`] square, and a
/// gcell counts as overflowed above [`OVERFLOW_THRESHOLD`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Multiplier on both directional track supplies — below 1.0 models a
    /// scarcer routing stack, above 1.0 a richer one.
    pub capacity_scale: f64,
    /// Enable the A* rip-up-and-reroute pass over overflowed gcells.
    pub maze_fallback: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            capacity_scale: 1.0,
            maze_fallback: true,
        }
    }
}

/// Gcell grid dimension for a design with `cells` objects: roughly one
/// gcell per 4×4 block of average cells, clamped to `[8, 64]`. A pure
/// function of the cell count, so the grid never shifts between runs.
pub fn auto_grid_dim(cells: usize) -> usize {
    (((cells as f64).sqrt() / 4.0).ceil() as usize).clamp(8, 64)
}

/// The compact routability scorecard threaded through placement reports and
/// benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutabilityReport {
    /// Gcell grid width.
    pub nx: usize,
    /// Gcell grid height.
    pub ny: usize,
    /// Two-pin segments routed.
    pub segments: usize,
    /// Segments committed by the maze fallback.
    pub rerouted: usize,
    /// Total routed wirelength (net-weighted, distance units). Probabilistic
    /// segments contribute their shortest-path length, maze segments their
    /// committed (possibly detoured) path length.
    pub routed_wl: f64,
    /// `Σ_gcells Σ_dir max(0, demand − supply)` in track units.
    pub total_overflow: f64,
    /// Peak directional utilization (1.0 = exactly full).
    pub peak_congestion: f64,
    /// Gcells above the overflow threshold.
    pub overflowed_bins: usize,
}

/// A routed design: the report plus the demand-laden grid (the inflation
/// loop reads per-gcell congestion from it).
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Compact scorecard.
    pub report: RoutabilityReport,
    /// The grid with final demand committed.
    pub grid: CapacityGrid,
}

/// Routes `design` at its current placement.
///
/// Phase 1 deposits every segment's expected demand over its L/Z candidate
/// set; the per-net pass is parallelized over `exec` with fixed chunk
/// boundaries and chunk-order reduction, so the resulting demand map is
/// bitwise identical for every thread count. Phase 2 (when
/// [`RouteConfig::maze_fallback`] is on) walks the segments in fixed order,
/// and for each whose bounding box touches an overflowed gcell lifts its
/// probabilistic deposit and commits a congestion-aware A* path instead —
/// serial by construction, so the full pipeline is deterministic.
pub fn route_design(design: &Design, cfg: &RouteConfig, exec: &ExecConfig) -> RouteResult {
    let nx = auto_grid_dim(design.cells.len());
    let ny = nx;
    let region = design.region;
    let bin_w = region.width() / nx as f64;
    let bin_h = region.height() / ny as f64;
    let h_cap = (bin_h / TRACK_PITCH) * cfg.capacity_scale;
    let v_cap = (bin_w / TRACK_PITCH) * cfg.capacity_scale;
    let mut grid = CapacityGrid::new(region, nx, ny, h_cap, v_cap);
    let segments = decompose(design, &grid);

    // --- Phase 1: probabilistic bulk, parallel over fixed chunks ---------
    let chunks = deterministic_chunks(segments.len(), 256, 16);
    let mut partials: Vec<(DemandSink, f64)> = (0..chunks)
        .map(|_| (DemandSink::for_grid(&grid), 0.0))
        .collect();
    for_each_chunk(exec, &mut partials, |i, (sink, wl)| {
        for seg in &segments[chunk_range(segments.len(), chunks, i)] {
            *wl += deposit_probabilistic(seg, sink, bin_w, bin_h, 1.0);
        }
    });
    let mut routed_wl = 0.0;
    for (sink, wl) in &partials {
        grid.absorb(sink);
        routed_wl += wl;
    }

    // --- Phase 2: rip-up-and-reroute across overflowed gcells ------------
    let mut rerouted = 0;
    if cfg.maze_fallback && grid.overflowed_bins(OVERFLOW_THRESHOLD) > 0 {
        let hot: Vec<bool> = (0..nx * ny)
            .map(|i| grid.is_overflowed(i % nx, i / nx, OVERFLOW_THRESHOLD))
            .collect();
        let crosses_hot = |seg: &Segment| {
            let (xa, xb) = (seg.from.0.min(seg.to.0), seg.from.0.max(seg.to.0));
            let (ya, yb) = (seg.from.1.min(seg.to.1), seg.from.1.max(seg.to.1));
            (ya..=yb).any(|y| (xa..=xb).any(|x| hot[y * nx + x]))
        };
        let mut scratch = MazeScratch::for_grid(&grid);
        let mut overflow_before = grid.total_overflow();
        for seg in &segments {
            if seg.gcell_dist() == 0 || !crosses_hot(seg) {
                continue;
            }
            // Rip up the probabilistic spread, commit a concrete detour, and
            // keep whichever side has less total overflow. The accept test
            // makes the pass monotone: committed integral paths concentrate
            // demand, which under *global* oversubscription can score worse
            // than the spread expectation — those reroutes are undone.
            let wl_lifted = deposit_probabilistic(seg, &mut grid, bin_w, bin_h, -1.0);
            let len = maze_search(seg, &grid, &mut scratch, MAZE_CONGESTION_WEIGHT);
            deposit_path(&scratch.path, nx, seg.weight, &mut grid);
            let overflow_after = grid.total_overflow();
            if overflow_after < overflow_before {
                routed_wl += wl_lifted + seg.weight * len;
                rerouted += 1;
                overflow_before = overflow_after;
            } else {
                deposit_path(&scratch.path, nx, -seg.weight, &mut grid);
                deposit_probabilistic(seg, &mut grid, bin_w, bin_h, 1.0);
                overflow_before = grid.total_overflow();
            }
        }
    }

    let report = RoutabilityReport {
        nx,
        ny,
        segments: segments.len(),
        rerouted,
        routed_wl,
        total_overflow: grid.total_overflow(),
        peak_congestion: grid.peak_congestion(),
        overflowed_bins: grid.overflowed_bins(OVERFLOW_THRESHOLD),
    };
    RouteResult { report, grid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;

    fn demo_design() -> Design {
        BenchmarkConfig::ispd05_like("route", 11)
            .scale(300)
            .generate()
    }

    #[test]
    fn auto_grid_is_clamped_and_monotone() {
        assert_eq!(auto_grid_dim(10), 8);
        assert_eq!(auto_grid_dim(0), 8);
        assert!(auto_grid_dim(100_000) <= 64);
        assert!(auto_grid_dim(10_000) >= auto_grid_dim(1_000));
    }

    #[test]
    fn routes_a_generated_design() {
        let d = demo_design();
        let r = route_design(&d, &RouteConfig::default(), &ExecConfig::serial());
        assert!(r.report.segments > 0);
        assert!(r.report.routed_wl > 0.0);
        assert!(r.report.routed_wl.is_finite());
        assert!(r.report.peak_congestion >= 0.0);
        // Routed WL is at least the gcell-quantized HPWL lower bound: each
        // 2-pin segment routes at least its bounding-box half-perimeter.
        assert!(r.report.total_overflow >= 0.0);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let d = demo_design();
        let run = || {
            let r = route_design(&d, &RouteConfig::default(), &ExecConfig::serial());
            (
                r.report.routed_wl.to_bits(),
                r.report.total_overflow.to_bits(),
                r.report.peak_congestion.to_bits(),
                r.grid
                    .h_demand()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_never_changes_the_bits() {
        let d = demo_design();
        let run = |threads: usize| {
            let r = route_design(
                &d,
                &RouteConfig::default(),
                &ExecConfig::with_threads(threads),
            );
            let mut bits: Vec<u64> = r.grid.h_demand().iter().map(|d| d.to_bits()).collect();
            bits.extend(r.grid.v_demand().iter().map(|d| d.to_bits()));
            bits.push(r.report.routed_wl.to_bits());
            bits.push(r.report.total_overflow.to_bits());
            bits
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads), "threads {threads}");
        }
    }

    #[test]
    fn maze_fallback_reduces_overflow_under_scarce_capacity() {
        let d = demo_design();
        let scarce = |maze: bool| {
            let cfg = RouteConfig {
                capacity_scale: 0.22,
                maze_fallback: maze,
            };
            route_design(&d, &cfg, &ExecConfig::serial()).report
        };
        let without = scarce(false);
        let with = scarce(true);
        assert!(without.total_overflow > 0.0, "scenario must be congested");
        assert!(with.rerouted > 0, "fallback must engage");
        assert!(
            with.total_overflow < without.total_overflow,
            "maze must relieve overflow: {} -> {}",
            without.total_overflow,
            with.total_overflow
        );
    }

    #[test]
    fn richer_capacity_lowers_congestion_figures() {
        let d = demo_design();
        let at = |scale: f64| {
            let cfg = RouteConfig {
                capacity_scale: scale,
                maze_fallback: false,
            };
            route_design(&d, &cfg, &ExecConfig::serial()).report
        };
        let scarce = at(0.5);
        let rich = at(2.0);
        assert!(rich.peak_congestion < scarce.peak_congestion);
        assert!(rich.total_overflow <= scarce.total_overflow);
        // Without the fallback the routed WL is capacity-independent.
        assert_eq!(rich.routed_wl.to_bits(), scarce.routed_wl.to_bits());
    }
}
