use crate::{GlobalPlacer, GpResult};
use eplace_core::{initial_placement, measure_overflow};
use eplace_density::{grid_dimension, BellShapeDensity};
use eplace_geometry::{Point, Size};
use eplace_netlist::Design;
use eplace_wirelength::{LseModel, SmoothWirelength};
use std::time::Instant;

/// An APlace/NTUplace-family nonlinear placer: log-sum-exp wirelength plus
/// the bell-shaped quadratic density penalty, minimized by conjugate
/// gradients with a backtracking line search under μ-continuation
/// (the penalty weight doubles per outer round).
///
/// This is the historical formulation ePlace's eDensity replaces: the
/// penalty is local (empty regions exert no force), non-convex, and needs
/// a line search — the combination behind the quality/overflow gap the
/// paper's tables show for the nonlinear family.
#[derive(Debug, Clone, PartialEq)]
pub struct BellshapePlacer {
    /// Outer μ-continuation rounds.
    pub max_rounds: usize,
    /// CG iterations per round.
    pub inner_iterations: usize,
    /// Stopping overflow τ.
    pub target_overflow: f64,
    /// μ growth factor per round.
    pub mu_growth: f64,
}

impl Default for BellshapePlacer {
    fn default() -> Self {
        BellshapePlacer {
            max_rounds: 24,
            inner_iterations: 24,
            target_overflow: 0.10,
            mu_growth: 2.0,
        }
    }
}

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
            let sync = |full: &mut Vec<Point>, pos: &[Point]| {
                for (k, &ci) in movables.iter().enumerate() {
                    full[ci] = pos[k];
                }
            };
            sync(&mut full_pos, &pos);
            bell.accumulate(&sizes, &pos);
            let wl0 = lse.gradient(design, &full_pos, gamma, &mut full_grad);
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
            let _ = wl0;

            let mut grad = vec![Point::ORIGIN; n];
            let mut grad_prev = vec![Point::ORIGIN; n];
            let mut dir = vec![Point::ORIGIN; n];
            let mut trial = vec![Point::ORIGIN; n];

            'outer: for _round in 0..self.max_rounds {
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
                for i in 0..n {
                    dir[i] = -grad[i];
                }
                let mut step = design.region.width() / dim as f64;

                for _ in 0..self.inner_iterations {
                    iterations += 1;
                    let slope: f64 = grad.iter().zip(&dir).map(|(a, b)| a.dot(*b)).sum();
                    let t0 = Instant::now();
                    let mut t = step;
                    let mut accepted = false;
                    for _ in 0..8 {
                        for i in 0..n {
                            trial[i] = pos[i] + dir[i] * t;
                            let c = &design.cells[movables[i]];
                            trial[i] = design.region.clamp_center(
                                trial[i],
                                c.size.width.min(design.region.width()),
                                c.size.height.min(design.region.height()),
                            );
                        }
                        for (k, &ci) in movables.iter().enumerate() {
                            full_pos[ci] = trial[k];
                        }
                        bell.accumulate(&sizes, &trial);
                        let f_new = lse.evaluate(design, &full_pos, gamma) + mu * bell.penalty();
                        if f_new <= f_curr + 1e-4 * t * slope || f_new < f_curr {
                            accepted = true;
                            f_curr = f_new;
                            break;
                        }
                        t *= 0.5;
                    }
                    line_search += t0.elapsed();
                    if !accepted {
                        break;
                    }
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
                    // Polak–Ribière.
                    let num: f64 = grad
                        .iter()
                        .zip(&grad_prev)
                        .map(|(gn, go)| gn.dot(*gn - *go))
                        .sum();
                    let den: f64 = grad_prev.iter().map(|v| v.norm_sq()).sum();
                    let beta = if den > 1e-30 {
                        (num / den).max(0.0)
                    } else {
                        0.0
                    };
                    for i in 0..n {
                        dir[i] = -grad[i] + dir[i] * beta;
                    }
                    let descent: f64 = grad.iter().zip(&dir).map(|(a, b)| a.dot(*b)).sum();
                    if descent >= 0.0 {
                        for i in 0..n {
                            dir[i] = -grad[i];
                        }
                    }
                }

                // Commit this round and check the global overflow oracle.
                for (k, &ci) in movables.iter().enumerate() {
                    design.cells[ci].pos = pos[k];
                }
                if measure_overflow(design) <= self.target_overflow {
                    break 'outer;
                }
                mu *= self.mu_growth;
            }
            for (k, &ci) in movables.iter().enumerate() {
                design.cells[ci].pos = pos[k];
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
        let result = BellshapePlacer::default().global_place(&mut d);
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
        let result = BellshapePlacer::default().global_place(&mut d);
        assert!(result.line_search_seconds > 0.0);
    }
}
