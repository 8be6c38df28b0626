use crate::SmoothWirelength;
use eplace_geometry::Point;
use eplace_netlist::{Design, Net};

/// The log-sum-exp (LSE) smooth wirelength model of Naylor et al.,
/// used by the APlace/NTUplace family of nonlinear placers (paper refs
/// \[6\], \[4\], \[14\]).
///
/// Per net and axis,
///
/// ```text
/// W̃ₑₓ = γ·( ln Σ e^{xᵢ/γ} + ln Σ e^{−xᵢ/γ} )
/// ```
///
/// LSE always *overestimates* HPWL (WA underestimates), with error up to
/// `2γ·ln k` per net of degree `k`. Included for the `bellshape` baseline
/// placer and for model-comparison tests; ePlace itself uses
/// [`crate::WaModel`].
#[derive(Debug, Clone)]
pub struct LseModel {
    exp_pos: Vec<f64>,
    exp_neg: Vec<f64>,
    coords: Vec<f64>,
}

impl LseModel {
    /// Creates a model with scratch space sized for `design`'s largest net.
    pub fn new(design: &Design) -> Self {
        let max_degree = design.nets.iter().map(Net::degree).max().unwrap_or(0);
        LseModel {
            exp_pos: vec![0.0; max_degree],
            exp_neg: vec![0.0; max_degree],
            coords: vec![0.0; max_degree],
        }
    }

    fn reserve(&mut self, degree: usize) {
        if self.exp_pos.len() < degree {
            self.exp_pos.resize(degree, 0.0);
            self.exp_neg.resize(degree, 0.0);
            self.coords.resize(degree, 0.0);
        }
    }

    /// LSE along one axis using `self.coords[..k]`; when `grad` is provided
    /// the per-pin softmax derivatives are written into it.
    fn axis_value(&mut self, k: usize, gamma: f64, grad: Option<&mut [f64]>) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &c in &self.coords[..k] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let inv_gamma = 1.0 / gamma;
        let mut d_pos = 0.0;
        let mut d_neg = 0.0;
        for j in 0..k {
            let c = self.coords[j];
            let ep = ((c - hi) * inv_gamma).exp();
            let en = ((lo - c) * inv_gamma).exp();
            self.exp_pos[j] = ep;
            self.exp_neg[j] = en;
            d_pos += ep;
            d_neg += en;
        }
        if let Some(g) = grad {
            // ∂W̃/∂xⱼ = softmax⁺ⱼ − softmax⁻ⱼ
            for (j, gj) in g.iter_mut().enumerate().take(k) {
                *gj = self.exp_pos[j] / d_pos - self.exp_neg[j] / d_neg;
            }
        }
        // ln Σ e^{x/γ} = ln d_pos + hi/γ, similarly for the negative side.
        gamma * (d_pos.ln() + hi * inv_gamma + d_neg.ln() - lo * inv_gamma)
    }

    fn run(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        if let Some(g) = grad.as_deref_mut() {
            for p in g.iter_mut() {
                *p = Point::ORIGIN;
            }
        }
        let want = grad.is_some();
        let mut gx = Vec::new();
        let mut gy = Vec::new();
        let mut total = 0.0;
        for net in &design.nets {
            let k = net.pins.len();
            if k < 2 {
                continue;
            }
            self.reserve(k);
            if want {
                gx.resize(k, 0.0);
                gy.resize(k, 0.0);
            }
            for (j, pin) in net.pins.iter().enumerate() {
                self.coords[j] = pos[pin.cell.index()].x + pin.offset.x;
            }
            let wx = self.axis_value(k, gamma, want.then_some(&mut gx[..]));
            for (j, pin) in net.pins.iter().enumerate() {
                self.coords[j] = pos[pin.cell.index()].y + pin.offset.y;
            }
            let wy = self.axis_value(k, gamma, want.then_some(&mut gy[..]));
            total += net.weight * (wx + wy);
            if let Some(g) = grad.as_deref_mut() {
                for (j, pin) in net.pins.iter().enumerate() {
                    let slot = &mut g[pin.cell.index()];
                    slot.x += net.weight * gx[j];
                    slot.y += net.weight * gy[j];
                }
            }
        }
        total
    }
}

impl SmoothWirelength for LseModel {
    fn evaluate(&mut self, design: &Design, pos: &[Point], gamma: f64) -> f64 {
        self.run(design, pos, gamma, None)
    }

    fn gradient(&mut self, design: &Design, pos: &[Point], gamma: f64, grad: &mut [Point]) -> f64 {
        assert!(
            grad.len() >= design.cells.len(),
            "gradient buffer too small"
        );
        self.run(design, pos, gamma, Some(grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WaModel;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};

    fn mesh_design() -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("mesh", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..6)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net(
            "a",
            vec![
                (ids[0], Point::ORIGIN),
                (ids[1], Point::ORIGIN),
                (ids[2], Point::ORIGIN),
            ],
        );
        b.add_net("b", vec![(ids[2], Point::ORIGIN), (ids[3], Point::ORIGIN)]);
        b.add_net(
            "c",
            vec![
                (ids[3], Point::ORIGIN),
                (ids[4], Point::ORIGIN),
                (ids[5], Point::ORIGIN),
            ],
        );
        let d = b.build();
        let pos: Vec<Point> = (0..6)
            .map(|i| Point::new((i * 13 % 29) as f64, (i * 7 % 23) as f64))
            .collect();
        (d, pos)
    }

    #[test]
    fn lse_overestimates_hpwl() {
        let (d, pos) = mesh_design();
        let mut lse = LseModel::new(&d);
        for &gamma in &[0.1, 1.0, 5.0] {
            assert!(lse.evaluate(&d, &pos, gamma) >= d.hpwl_with_positions(&pos) - 1e-9);
        }
    }

    #[test]
    fn wa_le_hpwl_le_lse_sandwich() {
        let (d, pos) = mesh_design();
        let mut lse = LseModel::new(&d);
        let mut wa = WaModel::new(&d);
        let gamma = 1.0;
        let exact = d.hpwl_with_positions(&pos);
        assert!(wa.evaluate(&d, &pos, gamma) <= exact + 1e-9);
        assert!(lse.evaluate(&d, &pos, gamma) >= exact - 1e-9);
    }

    #[test]
    fn lse_error_bound() {
        // LSE − HPWL ≤ 2γ·ln(k) per net per axis.
        let (d, pos) = mesh_design();
        let mut lse = LseModel::new(&d);
        let gamma = 2.0;
        let bound: f64 = d
            .nets
            .iter()
            .map(|n| 2.0 * gamma * (n.degree() as f64).ln() * 2.0)
            .sum();
        let gap = lse.evaluate(&d, &pos, gamma) - d.hpwl_with_positions(&pos);
        assert!(gap >= -1e-9 && gap <= bound + 1e-9);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (d, pos) = mesh_design();
        let mut lse = LseModel::new(&d);
        let gamma = 1.5;
        let mut grad = vec![Point::ORIGIN; pos.len()];
        lse.gradient(&d, &pos, gamma, &mut grad);
        let h = 1e-6;
        for i in 0..pos.len() {
            let mut plus = pos.clone();
            let mut minus = pos.clone();
            plus[i].x += h;
            minus[i].x -= h;
            let fd = (lse.evaluate(&d, &plus, gamma) - lse.evaluate(&d, &minus, gamma)) / (2.0 * h);
            assert!(
                (fd - grad[i].x).abs() < 1e-5 * (1.0 + fd.abs()),
                "cell {i}: fd {fd} vs analytic {}",
                grad[i].x
            );
        }
    }

    #[test]
    fn gradient_bounded_by_one_per_net() {
        // Softmax differences lie in (−1, 1): each net contributes at most
        // weight·1 per axis.
        let (d, pos) = mesh_design();
        let mut lse = LseModel::new(&d);
        let mut grad = vec![Point::ORIGIN; pos.len()];
        lse.gradient(&d, &pos, 0.5, &mut grad);
        for (i, g) in grad.iter().enumerate() {
            let degree = d.cell_nets[i].len() as f64;
            assert!(g.x.abs() <= degree + 1e-9);
            assert!(g.y.abs() <= degree + 1e-9);
        }
    }

    #[test]
    fn huge_coordinates_stay_finite() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 1e12, 1e12));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let d = b.build();
        let pos = vec![Point::new(-1e11, 0.0), Point::new(1e11, 3.0)];
        let mut lse = LseModel::new(&d);
        let w = lse.evaluate(&d, &pos, 1e-2);
        assert!(w.is_finite());
        assert!((w - (2e11 + 3.0)).abs() < 1.0);
    }
}
