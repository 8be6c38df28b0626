use crate::{GlobalPlacer, GpResult};
use eplace_core::{measure_overflow, quadratic_solve, Anchor};
use eplace_geometry::{Point, Rect};
use eplace_netlist::Design;
use std::time::Instant;

/// A SimPL/ComPLx-style quadratic placer (the paper's "quadratic" family:
/// FastPlace3.0, ComPLx, POLAR, BonnPlace): look-ahead *rough legalization*
/// closes the gap between the wirelength-optimal lower bound and a nearly
/// overlap-free upper bound.
///
/// Per round:
///
/// 1. **lower bound** — a B2B quadratic solve with the current anchors
///    (pure wirelength on round 0);
/// 2. **upper bound** — look-ahead geometric spreading: the region is
///    recursively bisected, the cells of each node are split across the
///    halves in coordinate order so that cell area matches free capacity
///    (fixed blockages subtracted), and leaves grid their few cells. Order
///    preservation keeps displacement — and wirelength damage — small;
/// 3. each cell gets an anchor pseudo-net toward its look-ahead position,
///    with weight growing linearly in the round index (the primal–dual
///    penalty ramp of ComPLx).
///
/// The iteration converges when the two bounds meet — when the quadratic
/// solution is itself nearly legal (`τ ≤ target`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticPlacer {
    /// Round cap.
    pub max_rounds: usize,
    /// Stopping overflow τ.
    pub target_overflow: f64,
    /// Anchor weight on round `r` is `anchor_weight_step · (r + 1)`.
    pub anchor_weight_step: f64,
    /// Leaf size of the look-ahead spreading.
    pub leaf_size: usize,
}

impl Default for QuadraticPlacer {
    fn default() -> Self {
        QuadraticPlacer {
            max_rounds: 60,
            target_overflow: 0.10,
            anchor_weight_step: 0.01,
            leaf_size: 4,
        }
    }
}

impl GlobalPlacer for QuadraticPlacer {
    fn name(&self) -> &'static str {
        "quadratic"
    }

    fn global_place(&self, design: &mut Design) -> GpResult {
        let start = Instant::now();
        // Round 0: the wirelength-optimal lower bound.
        quadratic_solve(design, &[], 3);
        let fixed: Vec<Rect> = design
            .cells
            .iter()
            .filter(|c| c.fixed)
            .filter_map(|c| c.rect().intersection(&design.region))
            .collect();
        let mut iterations = 0;
        for round in 0..self.max_rounds {
            iterations = round + 1;
            if measure_overflow(design) <= self.target_overflow {
                break;
            }
            let targets = self.look_ahead_targets(design, &fixed);
            let weight = self.anchor_weight_step * (round + 1) as f64;
            let anchors: Vec<Anchor> = targets
                .into_iter()
                .map(|(cell, target)| Anchor {
                    cell,
                    target,
                    weight,
                })
                .collect();
            quadratic_solve(design, &anchors, 1);
        }
        GpResult {
            hpwl: design.hpwl(),
            overflow: measure_overflow(design),
            iterations,
            seconds: start.elapsed().as_secs_f64(),
            line_search_seconds: 0.0,
        }
    }
}

impl QuadraticPlacer {
    /// Computes the order-preserving spread position of every movable cell.
    fn look_ahead_targets(&self, design: &Design, fixed: &[Rect]) -> Vec<(usize, Point)> {
        let cells: Vec<usize> = design.movable_indices().collect();
        let mut out = Vec::with_capacity(cells.len());
        self.spread(design, fixed, design.region, cells, true, &mut out);
        out
    }

    /// Recursive capacity-balanced bisection (the SimPL look-ahead).
    fn spread(
        &self,
        design: &Design,
        fixed: &[Rect],
        region: Rect,
        mut cells: Vec<usize>,
        vertical: bool,
        out: &mut Vec<(usize, Point)>,
    ) {
        if cells.is_empty() {
            return;
        }
        if cells.len() <= self.leaf_size || region.width() < 1.0 || region.height() < 1.0 {
            let k = (cells.len() as f64).sqrt().ceil() as usize;
            // Leaf: order-preserving grid fill.
            cells.sort_by(|&a, &b| design.cells[a].pos.x.total_cmp(&design.cells[b].pos.x));
            for (i, &c) in cells.iter().enumerate() {
                let ix = i % k;
                let iy = i / k;
                let p = Point::new(
                    region.xl + (ix as f64 + 0.5) * region.width() / k as f64,
                    region.yl + (iy as f64 + 0.5) * region.height() / k as f64,
                );
                out.push((c, p));
            }
            return;
        }
        let (r1, r2) = if vertical {
            let mid = 0.5 * (region.xl + region.xh);
            (
                Rect::new(region.xl, region.yl, mid, region.yh),
                Rect::new(mid, region.yl, region.xh, region.yh),
            )
        } else {
            let mid = 0.5 * (region.yl + region.yh);
            (
                Rect::new(region.xl, region.yl, region.xh, mid),
                Rect::new(region.xl, mid, region.xh, region.yh),
            )
        };
        let free = |r: &Rect| -> f64 {
            let blocked: f64 = fixed.iter().map(|f| f.overlap_area(r)).sum();
            (r.area() - blocked).max(1e-9)
        };
        let c1 = free(&r1);
        let c2 = free(&r2);
        // Split the cells in coordinate order so area matches capacity.
        cells.sort_by(|&a, &b| {
            let ka = if vertical {
                design.cells[a].pos.x
            } else {
                design.cells[a].pos.y
            };
            let kb = if vertical {
                design.cells[b].pos.x
            } else {
                design.cells[b].pos.y
            };
            ka.total_cmp(&kb)
        });
        let total_area: f64 = cells.iter().map(|&c| design.cells[c].area()).sum();
        let want_left = total_area * c1 / (c1 + c2);
        let mut acc = 0.0;
        let mut split = cells.len();
        for (k, &c) in cells.iter().enumerate() {
            if acc >= want_left {
                split = k;
                break;
            }
            acc += design.cells[c].area();
        }
        let right = cells.split_off(split);
        self.spread(design, fixed, r1, cells, !vertical, out);
        self.spread(design, fixed, r2, right, !vertical, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;

    #[test]
    fn quadratic_placer_reduces_overflow() {
        let mut d = BenchmarkConfig::ispd05_like("qp", 95).scale(250).generate();
        let result = QuadraticPlacer::default().global_place(&mut d);
        assert!(result.overflow < 0.30, "overflow {}", result.overflow);
        assert!(result.hpwl > 0.0);
        assert_eq!(result.line_search_seconds, 0.0);
    }

    #[test]
    fn spreading_trades_wirelength() {
        // The quadratic optimum is the HPWL lower bound; spreading gives it
        // back.
        let mut d = BenchmarkConfig::ispd05_like("qp", 96).scale(200).generate();
        quadratic_solve(&mut d, &[], 3);
        let hpwl_opt = d.hpwl();
        let result = QuadraticPlacer::default().global_place(&mut d);
        assert!(result.hpwl >= hpwl_opt * 0.99);
    }

    #[test]
    fn makes_steady_overflow_progress() {
        // The primal-dual iteration may hit the round cap on hard seeds;
        // what must hold is substantial overflow reduction from the ~0.8 of
        // the quadratic optimum.
        let mut d = BenchmarkConfig::ispd05_like("qp", 97).scale(200).generate();
        let result = QuadraticPlacer::default().global_place(&mut d);
        assert!(
            result.overflow < 0.35,
            "overflow stuck at {} after {} rounds",
            result.overflow,
            result.iterations
        );
    }
}
