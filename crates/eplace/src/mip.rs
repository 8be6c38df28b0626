//! mIP — mixed-size initial placement (paper §III): quadratic total
//! wirelength minimization, giving a low-wirelength / high-overlap start
//! for mGP.
//!
//! The quadratic model is Bound2Bound (B2B): per net and axis, the two
//! boundary pins are connected to each other and to every internal pin with
//! weights `2/((p−1)·dist)`, which makes the quadratic cost equal HPWL at
//! the linearization point. The normal equations are solved by
//! Jacobi-preconditioned conjugate gradients, with the B2B weights rebuilt
//! a few times as positions converge.

use crate::PlacementProblem;
use eplace_geometry::Point;
use eplace_netlist::Design;

/// Outcome of [`initial_placement`].
#[derive(Debug, Clone, PartialEq)]
pub struct MipReport {
    /// HPWL before (the generator's random scatter).
    pub hpwl_before: f64,
    /// HPWL after quadratic minimization.
    pub hpwl_after: f64,
    /// B2B model rebuilds performed.
    pub rebuilds: usize,
    /// Total CG iterations across rebuilds and axes.
    pub cg_iterations: usize,
}

/// Sparse symmetric system `A·x = b` for one axis, movables only.
struct QuadSystem {
    diag: Vec<f64>,
    /// Strictly-lower triplets `(i, j, w)` with `i > j`.
    triplets: Vec<(u32, u32, f64)>,
    rhs: Vec<f64>,
}

impl QuadSystem {
    fn new(n: usize) -> Self {
        QuadSystem {
            diag: vec![0.0; n],
            triplets: Vec::new(),
            rhs: vec![0.0; n],
        }
    }

    #[allow(clippy::too_many_arguments)] // two endpoints × (index, offset, fixed) + weight
    fn add_edge(
        &mut self,
        a: Option<usize>,
        xa_off: f64,
        xa_fixed: f64,
        b: Option<usize>,
        xb_off: f64,
        xb_fixed: f64,
        w: f64,
    ) {
        match (a, b) {
            (Some(i), Some(j)) => {
                self.diag[i] += w;
                self.diag[j] += w;
                if i != j {
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    self.triplets.push((hi as u32, lo as u32, w));
                }
                self.rhs[i] += w * (xb_off - xa_off);
                self.rhs[j] += w * (xa_off - xb_off);
            }
            (Some(i), None) => {
                self.diag[i] += w;
                self.rhs[i] += w * (xb_fixed + xb_off - xa_off);
            }
            (None, Some(j)) => {
                self.diag[j] += w;
                self.rhs[j] += w * (xa_fixed + xa_off - xb_off);
            }
            (None, None) => {}
        }
    }

    fn matvec(&self, x: &[f64], out: &mut [f64]) {
        for (o, (&d, &xi)) in out.iter_mut().zip(self.diag.iter().zip(x)) {
            *o = d * xi;
        }
        for &(i, j, w) in &self.triplets {
            let (i, j) = (i as usize, j as usize);
            out[i] -= w * x[j];
            out[j] -= w * x[i];
        }
    }

    /// Jacobi-preconditioned CG. Returns iterations used.
    fn solve(&mut self, x: &mut [f64], tol: f64, max_iter: usize) -> usize {
        let n = x.len();
        // Anchor unconnected variables at their current value.
        for (i, xi) in x.iter().enumerate().take(n) {
            if self.diag[i] <= 0.0 {
                self.diag[i] = 1.0;
                self.rhs[i] = *xi;
            }
        }
        let mut r = vec![0.0; n];
        let mut ap = vec![0.0; n];
        self.matvec(x, &mut r);
        for (ri, rhs) in r.iter_mut().zip(&self.rhs) {
            *ri = rhs - *ri;
        }
        let mut z: Vec<f64> = (0..n).map(|i| r[i] / self.diag[i]).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let b_norm: f64 = self
            .rhs
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(1e-30);
        let mut iters = 0;
        for _ in 0..max_iter {
            let r_norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if r_norm <= tol * b_norm {
                break;
            }
            iters += 1;
            self.matvec(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap.abs() < 1e-300 {
                break;
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..n {
                z[i] = r[i] / self.diag[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        iters
    }
}

/// A spreading anchor: a pseudo-net pulling `cell` toward `target` with
/// spring constant `weight` — the mechanism quadratic placers
/// (FastPlace/RQL/ComPLx families) use to fold density into the quadratic
/// objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Cell index in `design.cells`.
    pub cell: usize,
    /// Anchor point.
    pub target: Point,
    /// Spring weight.
    pub weight: f64,
}

/// Solves the B2B quadratic wirelength system (plus optional anchor
/// springs) over every movable cell, rebuilding the B2B weights `rebuilds`
/// times. Returns total CG iterations. This is both mIP (no anchors) and
/// the inner solve of the quadratic baseline placer (with anchors).
pub fn quadratic_solve(design: &mut Design, anchors: &[Anchor], rebuilds: usize) -> usize {
    let problem = PlacementProblem::all_movables(design);
    let n = problem.len();
    // Cell index → variable index.
    let mut var_of = vec![usize::MAX; design.cells.len()];
    for (v, &ci) in problem.movable.iter().enumerate() {
        var_of[ci] = v;
    }

    let mut cg_iterations = 0;
    for _ in 0..rebuilds {
        for axis in 0..2 {
            let mut sys = QuadSystem::new(n);
            build_b2b(design, &var_of, axis, &mut sys);
            for a in anchors {
                let v = var_of[a.cell];
                if v != usize::MAX {
                    sys.diag[v] += a.weight;
                    sys.rhs[v] += a.weight * coord(a.target, axis);
                }
            }
            let mut x: Vec<f64> = problem
                .movable
                .iter()
                .map(|&ci| coord(design.cells[ci].pos, axis))
                .collect();
            cg_iterations += sys.solve(&mut x, 1e-6, 300);
            for (v, &ci) in problem.movable.iter().enumerate() {
                let cell = &mut design.cells[ci];
                let clamped = design.region.clamp_center(
                    if axis == 0 {
                        Point::new(x[v], cell.pos.y)
                    } else {
                        Point::new(cell.pos.x, x[v])
                    },
                    cell.size.width.min(design.region.width()),
                    cell.size.height.min(design.region.height()),
                );
                cell.pos = clamped;
            }
        }
    }
    cg_iterations
}

/// Does any net pin land on a fixed cell? Without one, the anchor-free
/// B2B system is translation-invariant: its exact minimizer places every
/// connected component at a single point (HPWL → 0), which is a useless —
/// and for the downstream λ calibration, degenerate — start.
fn has_fixed_pin(design: &Design) -> bool {
    design.nets.iter().any(|net| {
        net.pins
            .iter()
            .any(|pin| !design.cells[pin.cell.index()].is_movable())
    })
}

/// Runs quadratic initial placement on every movable cell of `design`,
/// updating positions in place.
///
/// Designs with no fixed pin on any net (e.g. the pad-free PEKO-style
/// known-optima benchmarks) are returned unchanged with `rebuilds = 0`:
/// the quadratic program is singular there and solving it would collapse
/// the placement to a point.
pub fn initial_placement(design: &mut Design) -> MipReport {
    let hpwl_before = design.hpwl();
    if !has_fixed_pin(design) {
        return MipReport {
            hpwl_before,
            hpwl_after: hpwl_before,
            rebuilds: 0,
            cg_iterations: 0,
        };
    }
    let rebuilds = 5;
    let cg_iterations = quadratic_solve(design, &[], rebuilds);
    MipReport {
        hpwl_before,
        hpwl_after: design.hpwl(),
        rebuilds,
        cg_iterations,
    }
}

#[inline]
fn coord(p: Point, axis: usize) -> f64 {
    if axis == 0 {
        p.x
    } else {
        p.y
    }
}

/// Assembles the B2B system for one axis at the current positions.
fn build_b2b(design: &Design, var_of: &[usize], axis: usize, sys: &mut QuadSystem) {
    const MIN_DIST: f64 = 1.0;
    for net in &design.nets {
        let p = net.pins.len();
        if p < 2 {
            continue;
        }
        // Boundary pins at the current placement.
        let pin_coord = |pin: &eplace_netlist::Pin| {
            coord(design.cells[pin.cell.index()].pos, axis) + coord(pin.offset, axis)
        };
        let (mut lo_i, mut hi_i) = (0, 0);
        let (mut lo_c, mut hi_c) = (f64::INFINITY, f64::NEG_INFINITY);
        for (k, pin) in net.pins.iter().enumerate() {
            let c = pin_coord(pin);
            if c < lo_c {
                lo_c = c;
                lo_i = k;
            }
            if c > hi_c {
                hi_c = c;
                hi_i = k;
            }
        }
        if lo_i == hi_i {
            continue; // all pins coincide on one cell — degenerate
        }
        let scale = net.weight * 2.0 / (p as f64 - 1.0);
        let mut connect = |ka: usize, kb: usize| {
            let pa = &net.pins[ka];
            let pb = &net.pins[kb];
            if pa.cell == pb.cell {
                return;
            }
            let dist = (pin_coord(pa) - pin_coord(pb)).abs().max(MIN_DIST);
            let w = scale / dist;
            let ca = pa.cell.index();
            let cb = pb.cell.index();
            let va = (var_of[ca] != usize::MAX).then(|| var_of[ca]);
            let vb = (var_of[cb] != usize::MAX).then(|| var_of[cb]);
            sys.add_edge(
                va,
                coord(pa.offset, axis),
                coord(design.cells[ca].pos, axis),
                vb,
                coord(pb.offset, axis),
                coord(design.cells[cb].pos, axis),
                w,
            );
        };
        connect(lo_i, hi_i);
        for k in 0..p {
            if k != lo_i && k != hi_i {
                connect(k, lo_i);
                connect(k, hi_i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};

    #[test]
    fn two_cells_between_fixed_pads() {
        // pad(0) — a — b — pad(90): quadratic optimum spreads them evenly
        // at the B2B fixed point.
        let mut b = DesignBuilder::new("q", Rect::new(0.0, 0.0, 90.0, 12.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        let p0 = b.add_cell("p0", 2.0, 2.0, CellKind::Terminal);
        let p1 = b.add_cell("p1", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n0", vec![(p0, Point::ORIGIN), (a, Point::ORIGIN)]);
        b.add_net("n1", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        b.add_net("n2", vec![(c, Point::ORIGIN), (p1, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[p0.index()].pos = Point::new(0.0, 6.0);
        d.cells[p1.index()].pos = Point::new(90.0, 6.0);
        d.cells[a.index()].pos = Point::new(10.0, 3.0);
        d.cells[c.index()].pos = Point::new(80.0, 9.0);
        let report = initial_placement(&mut d);
        // B2B converges to an HPWL optimum of the chain: the cells stay
        // ordered between the pads and total HPWL reaches the 90-unit
        // optimum (any ordered layout is optimal, so exact positions are
        // not unique).
        assert!(report.hpwl_after <= report.hpwl_before);
        let xa = d.cells[a.index()].pos.x;
        let xb = d.cells[c.index()].pos.x;
        assert!(xa <= xb, "cells crossed: {xa} vs {xb}");
        assert!((0.0..=90.0).contains(&xa) && (0.0..=90.0).contains(&xb));
        assert!(report.hpwl_after <= 91.0, "hpwl = {}", report.hpwl_after);
    }

    #[test]
    fn reduces_hpwl_on_generated_design() {
        let mut d = BenchmarkConfig::ispd05_like("q", 41).scale(400).generate();
        let report = initial_placement(&mut d);
        assert!(report.hpwl_after < 0.6 * report.hpwl_before, "{report:?}");
        assert!(report.cg_iterations > 0);
    }

    #[test]
    fn fixed_cells_do_not_move() {
        let mut d = BenchmarkConfig::ispd05_like("q", 42).scale(200).generate();
        let fixed_pos: Vec<(usize, Point)> = d
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.fixed)
            .map(|(i, c)| (i, c.pos))
            .collect();
        initial_placement(&mut d);
        for (i, p) in fixed_pos {
            assert_eq!(d.cells[i].pos, p);
        }
    }

    #[test]
    fn result_is_inside_region() {
        let mut d = BenchmarkConfig::mms_like("q", 43, 1.0, 6)
            .scale(300)
            .generate();
        initial_placement(&mut d);
        for c in d.cells.iter().filter(|c| c.is_movable()) {
            let r = c.rect();
            assert!(r.xl >= d.region.xl - 1e-6 && r.xh <= d.region.xh + 1e-6);
            assert!(r.yl >= d.region.yl - 1e-6 && r.yh <= d.region.yh + 1e-6);
        }
    }

    #[test]
    fn anchor_free_design_is_left_unchanged() {
        // No net touches a fixed cell, so the quadratic system is
        // translation-invariant and its minimizer is a collapsed point —
        // mIP must keep the seed placement instead.
        let (mut d, _) = BenchmarkConfig::peko_like("q", 44)
            .scale(120)
            .generate_known_optimum();
        let before: Vec<Point> = d.cells.iter().map(|c| c.pos).collect();
        let report = initial_placement(&mut d);
        assert_eq!(report.rebuilds, 0);
        assert_eq!(report.cg_iterations, 0);
        assert_eq!(report.hpwl_after, report.hpwl_before);
        for (cell, pos) in d.cells.iter().zip(before) {
            assert_eq!(cell.pos, pos);
        }
    }

    #[test]
    fn unconnected_cell_stays_put() {
        let mut b = DesignBuilder::new("q", Rect::new(0.0, 0.0, 50.0, 50.0));
        let lone = b.add_cell_with(
            "lone",
            2.0,
            2.0,
            CellKind::StdCell,
            false,
            Point::new(13.0, 17.0),
        );
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let p = b.add_cell("p", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n", vec![(a, Point::ORIGIN), (p, Point::ORIGIN)]);
        let mut d = b.build();
        initial_placement(&mut d);
        assert_eq!(d.cells[lone.index()].pos, Point::new(13.0, 17.0));
    }
}
