use crate::linesearch::{armijo_search, polak_ribiere, steepest_descent};
use crate::{GlobalPlacer, GpResult};
use eplace_core::{initial_placement, measure_overflow};
use eplace_density::{grid_dimension, BellShapeDensity};
use eplace_geometry::{Point, Size};
use eplace_netlist::Design;
use eplace_wirelength::{LseModel, SmoothWirelength};
use std::time::Instant;

/// Outer μ-continuation rounds.
const MAX_ROUNDS: usize = 24;

/// CG iterations per round.
const INNER_ITERATIONS: usize = 24;

/// Stopping overflow τ.
const TARGET_OVERFLOW: f64 = 0.10;

/// μ growth factor per round.
const MU_GROWTH: f64 = 2.0;

/// An APlace/NTUplace-family nonlinear placer: log-sum-exp wirelength plus
/// the bell-shaped quadratic density penalty, minimized by conjugate
/// gradients with a backtracking line search under μ-continuation
/// (the penalty weight doubles per outer round).
///
/// This is the historical formulation ePlace's eDensity replaces: the
/// penalty is local (empty regions exert no force), non-convex, and needs
/// a line search — the combination behind the quality/overflow gap the
/// paper's tables show for the nonlinear family. Its settings are
/// constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BellshapePlacer;

impl GlobalPlacer for BellshapePlacer {
    fn name(&self) -> &'static str {
        "bellshape"
    }

    fn global_place(&self, design: &mut Design) -> GpResult {
        let start = Instant::now();
        initial_placement(design);
        let movables: Vec<usize> = design.movable_indices().collect();
        let n = movables.len();
        let mut iterations = 0;
        let mut line_search = std::time::Duration::ZERO;
        if n > 0 {
            let dim = grid_dimension(n, 8, 128);
            let mut bell = BellShapeDensity::new(design.region, dim, dim, design.target_density);
            for c in design.cells.iter().filter(|c| c.fixed) {
                bell.add_fixed(c.rect());
            }
            let sizes: Vec<Size> = movables.iter().map(|&i| design.cells[i].size).collect();
            let mut lse = LseModel::new(design);
            let gamma = 2.0 * design.region.width() / dim as f64;

            let mut pos: Vec<Point> = movables.iter().map(|&i| design.cells[i].pos).collect();
            let mut full_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
            let mut full_grad = vec![Point::ORIGIN; design.cells.len()];

            // μ₀ balances initial gradient magnitudes.
            bell.accumulate(&sizes, &pos);
            lse.gradient(design, &full_pos, gamma, &mut full_grad);
            let wl_l1: f64 = movables
                .iter()
                .map(|&ci| full_grad[ci].x.abs() + full_grad[ci].y.abs())
                .sum();
            let bell_l1: f64 = (0..n)
                .map(|k| {
                    let g = bell.gradient(k, sizes[k], pos[k]);
                    g.x.abs() + g.y.abs()
                })
                .sum();
            let mut mu = if bell_l1 > 1e-30 {
                wl_l1 / bell_l1
            } else {
                1.0
            };

            let mut grad = vec![Point::ORIGIN; n];
            let mut grad_prev = vec![Point::ORIGIN; n];
            let mut dir = vec![Point::ORIGIN; n];
            let mut trial = vec![Point::ORIGIN; n];

            'outer: for _round in 0..MAX_ROUNDS {
                let eval_grad = |lse: &mut LseModel,
                                 bell: &mut BellShapeDensity,
                                 full_pos: &mut Vec<Point>,
                                 full_grad: &mut Vec<Point>,
                                 pos: &[Point],
                                 grad: &mut [Point],
                                 mu: f64|
                 -> f64 {
                    for (k, &ci) in movables.iter().enumerate() {
                        full_pos[ci] = pos[k];
                    }
                    bell.accumulate(&sizes, pos);
                    let wl = lse.gradient(design, full_pos, gamma, full_grad);
                    for (k, &ci) in movables.iter().enumerate() {
                        grad[k] = full_grad[ci] + bell.gradient(k, sizes[k], pos[k]) * mu;
                    }
                    wl + mu * bell.penalty()
                };

                let mut f_curr = eval_grad(
                    &mut lse,
                    &mut bell,
                    &mut full_pos,
                    &mut full_grad,
                    &pos,
                    &mut grad,
                    mu,
                );
                steepest_descent(&grad, &mut dir);
                let mut step = design.region.width() / dim as f64;

                for _ in 0..INNER_ITERATIONS {
                    iterations += 1;
                    let t0 = Instant::now();
                    let accepted =
                        armijo_search(&pos, &dir, &grad, f_curr, step, &mut trial, |trial| {
                            for (x, &ci) in trial.iter_mut().zip(&movables) {
                                let c = &design.cells[ci];
                                *x = design.region.clamp_center(
                                    *x,
                                    c.size.width.min(design.region.width()),
                                    c.size.height.min(design.region.height()),
                                );
                            }
                            for (k, &ci) in movables.iter().enumerate() {
                                full_pos[ci] = trial[k];
                            }
                            bell.accumulate(&sizes, trial);
                            lse.evaluate(design, &full_pos, gamma) + mu * bell.penalty()
                        });
                    line_search += t0.elapsed();
                    let Some((t, f_new)) = accepted else {
                        break;
                    };
                    f_curr = f_new;
                    std::mem::swap(&mut pos, &mut trial);
                    step = t * 2.0;
                    std::mem::swap(&mut grad, &mut grad_prev);
                    let _ = eval_grad(
                        &mut lse,
                        &mut bell,
                        &mut full_pos,
                        &mut full_grad,
                        &pos,
                        &mut grad,
                        mu,
                    );
                    polak_ribiere(&grad, &grad_prev, &mut dir);
                }

                // Commit this round and check the global overflow oracle.
                for (k, &ci) in movables.iter().enumerate() {
                    design.cells[ci].pos = pos[k];
                }
                if measure_overflow(design) <= TARGET_OVERFLOW {
                    break 'outer;
                }
                mu *= MU_GROWTH;
            }
        }
        GpResult {
            hpwl: design.hpwl(),
            overflow: measure_overflow(design),
            iterations,
            seconds: start.elapsed().as_secs_f64(),
            line_search_seconds: line_search.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;

    #[test]
    fn bellshape_spreads_cells() {
        let mut d = BenchmarkConfig::ispd05_like("bp", 97).scale(200).generate();
        let mut tmp = d.clone();
        initial_placement(&mut tmp);
        let overflow_at_optimum = measure_overflow(&tmp);
        let result = BellshapePlacer.global_place(&mut d);
        assert!(
            result.overflow < overflow_at_optimum,
            "overflow {} (start {})",
            result.overflow,
            overflow_at_optimum
        );
        assert!(result.iterations > 0);
    }

    #[test]
    fn uses_line_search_time() {
        let mut d = BenchmarkConfig::ispd05_like("bp", 98).scale(150).generate();
        let result = BellshapePlacer.global_place(&mut d);
        assert!(result.line_search_seconds > 0.0);
    }
}
