use crate::net::{NetBuffers, Shift};
use crate::SmoothWirelength;
use eplace_geometry::Point;
use eplace_netlist::Design;

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
///
/// The model runs [`crate::WaModel`]'s serial net loop with its own
/// per-axis function, so it reads the design's flat pin array, shifts its
/// exponentials by each net axis's extremes and calls `exp` `2k − 3` times
/// per net axis, bitwise as if it evaluated all `2k`. Its scratch is sized
/// for the design's largest net when it is built, so evaluations allocate
/// nothing.
#[derive(Debug, Clone)]
pub struct LseModel {
    scratch: NetBuffers,
}

/// LSE along one axis from the pin coordinates `coords`:
/// `γ·(ln D⁺ + hi/γ + ln D⁻ − lo/γ)`, where `D±` sum the shifted
/// exponentials. Writes the per-pin softmax derivatives into `deriv` when
/// given; `exp_pos`/`exp_neg` are scratch of at least `coords.len()`.
fn axis_value(
    coords: &[f64],
    exp_pos: &mut [f64],
    exp_neg: &mut [f64],
    deriv: Option<&mut [f64]>,
    gamma: f64,
    inv_gamma: f64,
) -> f64 {
    let shift = Shift::new(coords, inv_gamma);
    let mut d_pos = 0.0;
    let mut d_neg = 0.0;
    for ((&c, ep_out), en_out) in coords
        .iter()
        .zip(exp_pos.iter_mut())
        .zip(exp_neg.iter_mut())
    {
        let (ep, en) = shift.exps(c);
        *ep_out = ep;
        *en_out = en;
        d_pos += ep;
        d_neg += en;
    }
    if let Some(deriv) = deriv {
        // ∂W̃/∂xⱼ = softmax⁺ⱼ − softmax⁻ⱼ
        for ((out, &ep), &en) in deriv.iter_mut().zip(&*exp_pos).zip(&*exp_neg) {
            *out = ep / d_pos - en / d_neg;
        }
    }
    // ln Σ e^{x/γ} = ln d_pos + hi/γ, similarly for the negative side.
    gamma * (d_pos.ln() + shift.hi * inv_gamma + d_neg.ln() - shift.lo * inv_gamma)
}

impl LseModel {
    /// Creates a model with scratch space sized for `design`'s largest net.
    pub fn new(design: &Design) -> Self {
        LseModel {
            scratch: NetBuffers::for_design(design),
        }
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
        let inv_gamma = 1.0 / gamma;
        let axis = |c: &[f64], ep: &mut [f64], en: &mut [f64], d: Option<&mut [f64]>| {
            axis_value(c, ep, en, d, gamma, inv_gamma)
        };
        self.scratch
            .sum_nets(design, 0..design.nets.len(), pos, &axis, grad)
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
    use crate::wa::tests::{
        crafted_design, exp_calls, positions, same, schedule_gammas, star_design, CRAFTED,
    };
    use crate::WaModel;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};

    /// The net loop LSE ran before it moved onto the shared one, kept as the
    /// oracle: one axis gathered at a time, every pin paying both
    /// exponentials, and two gradient vectors allocated per call.
    struct Reference {
        exp_pos: Vec<f64>,
        exp_neg: Vec<f64>,
        coords: Vec<f64>,
    }

    impl Reference {
        fn reserve(&mut self, degree: usize) {
            if self.exp_pos.len() < degree {
                self.exp_pos.resize(degree, 0.0);
                self.exp_neg.resize(degree, 0.0);
                self.coords.resize(degree, 0.0);
            }
        }

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
                for (j, gj) in g.iter_mut().enumerate().take(k) {
                    *gj = self.exp_pos[j] / d_pos - self.exp_neg[j] / d_neg;
                }
            }
            gamma * (d_pos.ln() + hi * inv_gamma + d_neg.ln() - lo * inv_gamma)
        }

        /// Value, and the gradient when `want_grad`, of the whole design.
        fn run(design: &Design, pos: &[Point], gamma: f64, want_grad: bool) -> (f64, Vec<Point>) {
            let mut this = Reference {
                exp_pos: Vec::new(),
                exp_neg: Vec::new(),
                coords: Vec::new(),
            };
            let mut grad = vec![Point::ORIGIN; pos.len()];
            let mut gx = Vec::new();
            let mut gy = Vec::new();
            let mut total = 0.0;
            for (n, net) in design.nets.iter().enumerate() {
                let pins = design.net_pins(n);
                let k = pins.len();
                if k < 2 {
                    continue;
                }
                this.reserve(k);
                if want_grad {
                    gx.resize(k, 0.0);
                    gy.resize(k, 0.0);
                }
                for (j, pin) in pins.iter().enumerate() {
                    this.coords[j] = pos[pin.cell.index()].x + pin.offset.x;
                }
                let wx = this.axis_value(k, gamma, want_grad.then_some(&mut gx[..]));
                for (j, pin) in pins.iter().enumerate() {
                    this.coords[j] = pos[pin.cell.index()].y + pin.offset.y;
                }
                let wy = this.axis_value(k, gamma, want_grad.then_some(&mut gy[..]));
                total += net.weight * (wx + wy);
                if want_grad {
                    for (j, pin) in pins.iter().enumerate() {
                        let slot = &mut grad[pin.cell.index()];
                        slot.x += net.weight * gx[j];
                        slot.y += net.weight * gy[j];
                    }
                }
            }
            (total, grad)
        }
    }

    /// Asserts that the model's value (plain and with gradient) and every
    /// gradient bit equal the reference loop's.
    fn assert_matches_reference(d: &Design, pos: &[Point], gamma: f64, what: &str) {
        let (want_w, want_g) = Reference::run(d, pos, gamma, true);
        let (plain_w, _) = Reference::run(d, pos, gamma, false);
        let at = format!("{what}, γ = {gamma:e}");
        assert!(
            same(plain_w, want_w),
            "{at}: reference {plain_w} vs {want_w}"
        );
        let mut lse = LseModel::new(d);
        let mut grad = vec![Point::new(7.0, -7.0); pos.len()];
        let w = lse.gradient(d, pos, gamma, &mut grad);
        assert!(same(w, want_w), "{at}: value {w} vs {want_w}");
        let v = lse.evaluate(d, pos, gamma);
        assert!(same(v, want_w), "{at}: evaluate {v} vs {want_w}");
        for (i, (a, b)) in grad.iter().zip(&want_g).enumerate() {
            assert!(
                same(a.x, b.x) && same(a.y, b.y),
                "{at}: cell {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn loop_is_bitwise_the_reference_on_benchmark_circuits() {
        for (family, cfg) in [
            ("ispd05_like", BenchmarkConfig::ispd05_like("lse", 7)),
            ("ispd06_like", BenchmarkConfig::ispd06_like("lse", 10, 0.8)),
            ("mms_like", BenchmarkConfig::mms_like("lse", 8, 0.8, 8)),
            ("peko_like", BenchmarkConfig::peko_like("lse", 9)),
        ] {
            let generated = cfg.scale(1500).generate();
            let mut mip = generated.clone();
            eplace_core::initial_placement(&mut mip);
            for (stage, d) in [("generated", &generated), ("mIP", &mip)] {
                let pos = positions(d);
                for gamma in schedule_gammas(d) {
                    assert_matches_reference(d, &pos, gamma, &format!("{family}, {stage}"));
                }
            }
        }
    }

    #[test]
    fn loop_is_bitwise_the_reference_on_crafted_nets() {
        let all: Vec<usize> = (0..CRAFTED.len()).collect();
        let (d, pos) = crafted_design(&all, 2);
        let mut gammas = schedule_gammas(&d);
        gammas.extend([
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -3.0,
            1e-300,
            1e300,
            f64::MIN_POSITIVE,
        ]);
        for &gamma in &gammas {
            assert_matches_reference(&d, &pos, gamma, "crafted nets");
            // Alone, so that no other net's NaN hides a net's value.
            for case in 0..CRAFTED.len() {
                let (d, pos) = crafted_design(&[case], 1);
                assert_matches_reference(&d, &pos, gamma, &format!("crafted net {case}"));
            }
        }
    }

    #[test]
    fn a_net_calls_exp_2k_minus_3_times_per_axis() {
        for k in 2..=7 {
            let (d, pos) = star_design(k);
            let mut lse = LseModel::new(&d);
            let mut grad = vec![Point::ORIGIN; k];
            let calls = exp_calls(|| {
                lse.gradient(&d, &pos, 2.0, &mut grad);
            });
            assert_eq!(calls, 2 * (2 * k as u64 - 3), "k = {k}");
            let calls = exp_calls(|| {
                lse.gradient(&d, &pos, 0.0, &mut grad);
            });
            assert_eq!(calls, 4 * k as u64, "k = {k}, γ = 0");
        }
    }

    #[test]
    fn a_larger_net_than_the_model_was_built_for_grows_the_scratch() {
        let (small, _) = star_design(2);
        let (d, pos) = star_design(6);
        let mut lse = LseModel::new(&small);
        let mut grad = vec![Point::ORIGIN; pos.len()];
        let w = lse.gradient(&d, &pos, 1.5, &mut grad);
        let (want_w, want_g) = Reference::run(&d, &pos, 1.5, true);
        assert_eq!(w.to_bits(), want_w.to_bits());
        for (a, b) in grad.iter().zip(&want_g) {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits())
            );
        }
    }

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
            let degree = d.nets_of(i).len() as f64;
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
