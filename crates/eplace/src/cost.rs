use crate::nesterov::Gradient;
use crate::recover::GradientFault;
use crate::PlacementProblem;
use eplace_density::DensityGrid;
use eplace_exec::ExecConfig;
use eplace_geometry::{clamp, Point, Rect};
use eplace_netlist::Design;
use eplace_obs::Obs;
use eplace_wirelength::{GammaSchedule, SmoothWirelength, WaModel};
use std::time::{Duration, Instant};

/// λ multiplier lower bound of the μ rule.
const LAMBDA_MU_MIN: f64 = 0.75;

/// ΔHPWL reference of the μ rule, as a fraction of the stage-initial HPWL.
/// The C implementation hardcodes 3.5e5 absolute; the reference must sit
/// well above the per-iteration HPWL noise so that μ stays near its 1.1
/// ceiling on quiet iterations and only dips on real degradations — 3 % of
/// the initial HPWL reproduces that regime on the reduced-scale benchmarks.
const DELTA_HPWL_REF_FRAC: f64 = 0.03;

/// The ePlace cost `f(v) = W̃(v) + λ·N(v)` (Eq. 4) with the preconditioned
/// gradient `∇f_pre = (|E_i| + λ·q_i)⁻¹·∇f` (Eq. 11–13).
///
/// Owns the WA wirelength model, the electrostatic grid and the λ/γ
/// schedule: the penalty factor λ with its μ rule, and the smoothing
/// parameter γ. Every global-placement stage and the CG baseline anchor the
/// schedule with [`EplaceCost::anchor_schedule`] and advance it with
/// [`EplaceCost::advance_schedule`]. Implements [`Gradient`] so the
/// [`crate::NesterovOptimizer`] can drive it. Also keeps the per-component
/// timers behind the paper's Figure 7 runtime breakdown.
pub struct EplaceCost<'a> {
    design: &'a Design,
    problem: &'a PlacementProblem,
    wa: WaModel,
    grid: DensityGrid,
    schedule: GammaSchedule,
    /// Penalty factor λ.
    pub lambda: f64,
    /// Current smoothing parameter γ.
    pub gamma: f64,
    /// HPWL of the previous iteration (input to the μ rule).
    pub(crate) prev_hpwl: f64,
    /// ΔHPWL normalization of the μ rule.
    pub(crate) delta_ref: f64,
    /// Density overflow τ at the last gradient evaluation.
    pub last_overflow: f64,
    precondition: bool,
    /// Whether any moved object has a net. Without one (the filler-only
    /// phase) the WA gradient would only write zeros into the rows this
    /// cost reads, so it is skipped and those rows keep their initial zeros.
    moves_pins: bool,
    /// Per movable object, the box its center must stay in for the object
    /// to stay inside the region (the bounds `Rect::clamp_center` takes;
    /// inverted on an axis where the object spans the whole region).
    center_boxes: Vec<Rect>,
    full_pos: Vec<Point>,
    full_grad: Vec<Point>,
    /// Time in density deposit/solve/sample.
    pub density_time: Duration,
    /// Time in WA gradients.
    pub wirelength_time: Duration,
    /// Gradient evaluations performed.
    pub evaluations: usize,
    /// Armed gradient fault (fault-injection harness; `None` in production).
    pub fault: Option<GradientFault>,
    grad_nonfinite: bool,
    obs: Obs,
}

impl<'a> EplaceCost<'a> {
    /// Builds the cost for `problem` over `design` with an `nx × ny`
    /// density grid. Fixed cells are registered as static charge.
    pub fn new(
        design: &'a Design,
        problem: &'a PlacementProblem,
        nx: usize,
        ny: usize,
        precondition: bool,
    ) -> Self {
        let mut grid = DensityGrid::new(design.region, nx, ny, design.target_density);
        for cell in design.cells.iter().filter(|c| c.fixed) {
            grid.add_fixed(cell.rect());
        }
        let schedule = GammaSchedule::new(grid.bin_width().max(grid.bin_height()));
        let region = design.region;
        let center_boxes = problem
            .movable
            .iter()
            .map(|&ci| {
                let size = design.cells[ci].size;
                let half_w = 0.5 * size.width.min(region.width());
                let half_h = 0.5 * size.height.min(region.height());
                Rect::new(
                    region.xl + half_w,
                    region.yl + half_h,
                    region.xh - half_w,
                    region.yh - half_h,
                )
            })
            .collect();
        let full_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let n = design.cells.len();
        EplaceCost {
            design,
            problem,
            wa: WaModel::new(design),
            grid,
            schedule,
            lambda: 0.0,
            gamma: schedule.gamma(1.0),
            prev_hpwl: 0.0,
            delta_ref: 0.0,
            last_overflow: 1.0,
            precondition,
            moves_pins: problem.degrees.iter().any(|&d| d > 0.0),
            center_boxes,
            full_pos,
            full_grad: vec![Point::ORIGIN; n],
            density_time: Duration::ZERO,
            wirelength_time: Duration::ZERO,
            evaluations: 0,
            fault: None,
            grad_nonfinite: false,
            obs: Obs::disabled(),
        }
    }

    /// Returns and clears the sticky non-finite-gradient flag.
    ///
    /// The gradient kernel never masks a non-finite component (masking hides
    /// real divergence); instead it records the event here, and the global
    /// placement loop reads the flag once per iteration to trip its
    /// divergence sentinel.
    pub fn take_grad_nonfinite(&mut self) -> bool {
        std::mem::replace(&mut self.grad_nonfinite, false)
    }

    /// Sets the execution policy for both runtime-dominant kernels — the
    /// electrostatic grid (deposit + spectral solve) and the WA wirelength
    /// model. Serial (the default) reproduces single-threaded results bit
    /// for bit; parallel policies are deterministic for any thread count.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.wa.set_exec(exec);
        self.grid.set_exec(exec);
    }

    /// Builder form of [`EplaceCost::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.set_exec(exec);
        self
    }

    /// Selects the spectral engine used by the density grid's Poisson solve.
    /// See [`eplace_density::SpectralEngine`] for the V1/V2 contract.
    pub fn set_spectral_engine(&mut self, engine: eplace_density::SpectralEngine) {
        self.grid.set_engine(engine);
    }

    /// Builder form of [`EplaceCost::set_spectral_engine`].
    pub fn with_spectral_engine(mut self, engine: eplace_density::SpectralEngine) -> Self {
        self.set_spectral_engine(engine);
        self
    }

    /// Sets the observability recorder for the cost and both kernels: the
    /// WA model gets `wa_gradient`/`wa_eval` spans and the `wa_gradients`
    /// counter, the density grid gets `density_deposit`/`density_solve`
    /// spans and the `density_solves` counter, and each combined gradient
    /// evaluation bumps `grad_evals_total` and records its field sampling
    /// and preconditioning as a `density_sample` span.
    pub fn set_obs(&mut self, obs: Obs) {
        self.wa.set_obs(obs.clone());
        self.grid.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Builder form of [`EplaceCost::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The density grid's bin width (anchors the γ schedule).
    pub fn bin_width(&self) -> f64 {
        self.grid.bin_width()
    }

    /// Calibrates λ₀ = Σ‖∇W̃‖₁ / Σ‖∇N‖₁ at `pos` (the standard eDensity
    /// initialization: wirelength and density forces start balanced) and
    /// sets γ from the initial overflow. Returns λ₀.
    pub fn init_lambda(&mut self, pos: &[Point]) -> f64 {
        // Evaluate both raw gradients once, reusing the owned full-design
        // gradient buffer (the WA model zeroes it before accumulating).
        if self.moves_pins {
            self.sync_full(pos);
            self.wa
                .gradient(self.design, &self.full_pos, self.gamma, &mut self.full_grad);
        }
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();
        self.gamma = self.schedule.gamma(self.last_overflow);
        let mut wl_l1 = 0.0;
        let mut den_l1 = 0.0;
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            let wg = self.full_grad[ci];
            wl_l1 += wg.x.abs() + wg.y.abs();
            let dg = self.grid.deposited_gradient(k);
            den_l1 += dg.x.abs() + dg.y.abs();
        }
        self.lambda = if den_l1 > 1e-30 && wl_l1 > 1e-30 {
            wl_l1 / den_l1
        } else {
            // Pure-density problems (the filler-only phase: no nets, so no
            // wirelength gradient) still need a positive λ to move at all.
            1.0
        };
        self.lambda
    }

    /// Anchors the μ rule at the stage-initial HPWL of `pos` (floored at 1)
    /// and returns that HPWL.
    pub fn anchor_schedule(&mut self, pos: &[Point]) -> f64 {
        let hpwl_init = self.hpwl(pos).max(1.0);
        self.delta_ref = DELTA_HPWL_REF_FRAC * hpwl_init;
        self.prev_hpwl = hpwl_init;
        hpwl_init
    }

    /// Advances the schedule after an iteration that reached HPWL `hpwl`.
    ///
    /// λ takes the μ update `μ = μ_max^(1 − ΔHPWL/Δref)` clamped into
    /// `[0.75, μ_max]` — aggressive (×1.1) while wirelength holds steady,
    /// backing off (×0.75) when HPWL degrades fast — with `ΔHPWL` measured
    /// against the previous iteration. γ then follows the last observed
    /// overflow.
    pub fn advance_schedule(&mut self, hpwl: f64, mu_max: f64) {
        let x = 1.0 - (hpwl - self.prev_hpwl) / self.delta_ref.max(1e-12);
        let mu = mu_max.powf(x).clamp(LAMBDA_MU_MIN, mu_max);
        self.lambda *= mu;
        // λ going non-finite means ΔHPWL already diverged; the gp sentinel
        // handles it in release builds, so a hard assert is debug-only.
        debug_assert!(
            self.lambda >= 0.0 || self.lambda.is_nan(),
            "lambda went negative: {}",
            self.lambda
        );
        self.gamma = self.schedule.gamma(self.last_overflow);
        debug_assert!(
            self.gamma > 0.0 || !self.last_overflow.is_finite(),
            "gamma collapsed: {} (overflow {})",
            self.gamma,
            self.last_overflow
        );
        self.prev_hpwl = hpwl;
    }

    /// The objective value `f(v) = W̃(v) + λ·N(v)` (Eq. 4) at `pos`.
    ///
    /// Costs one density solve plus one WA evaluation — the same price as a
    /// gradient. Exists for line-search solvers (the CG baseline); ePlace's
    /// own Nesterov loop never needs objective values, which is exactly the
    /// efficiency argument of §V-A.
    pub fn value(&mut self, pos: &[Point]) -> f64 {
        let t0 = Instant::now();
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();
        let energy = self.grid.total_energy();
        self.density_time += t0.elapsed();
        let t1 = Instant::now();
        self.sync_full(pos);
        let smooth_wl = self.wa.evaluate(self.design, &self.full_pos, self.gamma);
        self.wirelength_time += t1.elapsed();
        smooth_wl + self.lambda * energy
    }

    /// Exact HPWL at a movable-solution `pos` (fixed cells at their design
    /// positions).
    pub fn hpwl(&mut self, pos: &[Point]) -> f64 {
        self.sync_full(pos);
        self.design.hpwl_with_positions(&self.full_pos)
    }

    /// Bin-based object overlap `O` at the last evaluation: area that
    /// physically cannot fit in its bins (Fig. 2/3's overlap series).
    pub fn overlap_area(&self) -> f64 {
        self.grid.overfill_area()
    }

    fn sync_full(&mut self, pos: &[Point]) {
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            self.full_pos[ci] = pos[k];
        }
    }
}

impl Gradient for EplaceCost<'_> {
    fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
        self.evaluations += 1;
        self.obs.add("grad_evals_total", 1);
        // Density: deposit + spectral solve (57 % of mGP in the paper).
        // Only the field enters ∇N (Eq. 8): the energy N(v) is never
        // evaluated, so the potential ψ is never synthesized here.
        let t0 = Instant::now();
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();
        self.density_time += t0.elapsed();

        // Wirelength (29 %).
        if self.moves_pins {
            let t1 = Instant::now();
            self.sync_full(pos);
            self.wa
                .gradient(self.design, &self.full_pos, self.gamma, &mut self.full_grad);
            self.wirelength_time += t1.elapsed();
        }

        // Combine + precondition, sampling each object's field through
        // the stencil its deposit built.
        let t2 = Instant::now();
        {
            let _span = self.obs.span("density_sample");
            for (k, &ci) in self.problem.movable.iter().enumerate() {
                let wl = self.full_grad[ci];
                let dg = self.grid.deposited_gradient(k);
                let mut g = wl + dg * self.lambda;
                if self.precondition {
                    let h =
                        (self.problem.degrees[k] + self.lambda * self.problem.charges[k]).max(1.0);
                    g = g * (1.0 / h);
                }
                if !g.is_finite() {
                    // Do NOT sanitize: a non-finite force is a divergence
                    // signal the recovery sentinel must see, not noise to
                    // paper over.
                    self.grad_nonfinite = true;
                }
                grad[k] = g;
            }
        }
        // Deterministic fault injection: poison one component once the
        // evaluation counter reaches the trigger (testing only).
        if let Some(fault) = &self.fault {
            if fault.fires(self.evaluations) && !grad.is_empty() {
                let k = fault.component % grad.len();
                grad[k] = Point::new(fault.value(), fault.value());
                self.grad_nonfinite = true;
            }
        }
        // Field sampling above is physically part of the density component.
        self.density_time += t2.elapsed();
    }

    fn project(&self, pos: &mut [Point]) {
        for (p, b) in pos.iter_mut().zip(&self.center_boxes) {
            *p = Point::new(clamp(p.x, b.xl, b.xh), clamp(p.y, b.yl, b.yh));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_netlist::CellKind;

    fn setup() -> (Design, PlacementProblem) {
        let mut d = BenchmarkConfig::ispd05_like("c", 51).scale(200).generate();
        crate::initial_placement(&mut d);
        let p = PlacementProblem::all_movables(&d);
        (d, p)
    }

    #[test]
    fn lambda_balances_initial_forces() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let pos = p.positions(&d);
        let lambda = cost.init_lambda(&pos);
        assert!(lambda.is_finite() && lambda > 0.0);
        // At λ₀ the L1 norms match by construction; indirect check: the
        // combined gradient is finite and nonzero.
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&pos, &mut g);
        assert!(g.iter().any(|v| v.norm() > 0.0));
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn overflow_drops_as_cells_spread() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let piled = vec![d.region.center(); p.len()];
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&piled, &mut g);
        let tau_piled = cost.last_overflow;
        // Spread on a grid.
        let k = (p.len() as f64).sqrt().ceil() as usize;
        let spread: Vec<Point> = (0..p.len())
            .map(|i| {
                Point::new(
                    d.region.xl + (0.5 + (i % k) as f64) * d.region.width() / k as f64,
                    d.region.yl + (0.5 + (i / k) as f64) * d.region.height() / k as f64,
                )
            })
            .collect();
        cost.gradient(&spread, &mut g);
        assert!(cost.last_overflow < tau_piled);
    }

    #[test]
    fn preconditioner_shrinks_macro_gradients() {
        let mut d = BenchmarkConfig::mms_like("c", 52, 1.0, 4)
            .scale(200)
            .generate();
        crate::initial_placement(&mut d);
        let p = PlacementProblem::all_movables(&d);
        let pos = p.positions(&d);
        let mut g_raw = vec![Point::ORIGIN; p.len()];
        let mut g_pre = vec![Point::ORIGIN; p.len()];
        {
            let mut raw = EplaceCost::new(&d, &p, 32, 32, false);
            raw.init_lambda(&pos);
            raw.gradient(&pos, &mut g_raw);
        }
        {
            let mut pre = EplaceCost::new(&d, &p, 32, 32, true);
            pre.init_lambda(&pos);
            pre.gradient(&pos, &mut g_pre);
        }
        // Ratio max/median gradient magnitude must shrink with the
        // preconditioner (macros no longer dominate).
        let spread = |g: &[Point]| {
            let mut mags: Vec<f64> = g.iter().map(|p| p.norm()).collect();
            mags.sort_by(f64::total_cmp);
            mags[mags.len() - 1] / mags[mags.len() / 2].max(1e-30)
        };
        assert!(
            spread(&g_pre) < spread(&g_raw),
            "precond {} vs raw {}",
            spread(&g_pre),
            spread(&g_raw)
        );
    }

    #[test]
    fn lambda_update_direction() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let hpwl_init = cost.anchor_schedule(&p.positions(&d));
        cost.lambda = 1.0;
        // HPWL flat → aggressive ×1.1.
        cost.advance_schedule(hpwl_init, 1.1);
        assert!((cost.lambda - 1.1).abs() < 1e-12);
        // HPWL rising fast → back off to ×0.75.
        cost.lambda = 1.0;
        cost.advance_schedule(hpwl_init + 1e9, 1.1);
        assert!((cost.lambda - 0.75).abs() < 1e-12);
    }

    #[test]
    fn projection_keeps_objects_inside() {
        let (d, p) = setup();
        let cost = EplaceCost::new(&d, &p, 32, 32, true);
        let mut pos = vec![Point::new(-1e9, 1e9); p.len()];
        cost.project(&mut pos);
        for (k, &ci) in p.movable.iter().enumerate() {
            let r = eplace_geometry::Rect::from_center(
                pos[k],
                d.cells[ci].size.width,
                d.cells[ci].size.height,
            );
            assert!(d.region.contains_rect(&r) || d.cells[ci].size.width > d.region.width());
        }
    }

    #[test]
    fn projection_is_bitwise_clamp_center() {
        const INF: f64 = f64::INFINITY;
        const NEG_INF: f64 = f64::NEG_INFINITY;
        const NAN: f64 = f64::NAN;
        // On this region an object as wide (tall) as the region gets an
        // interval inverted by one rounding, whose midpoint `clamp` returns.
        let region = Rect::new(0.7, 0.1, 10.3, 100.3);
        assert!(region.xl + 0.5 * region.width() > region.xh - 0.5 * region.width());
        assert!(region.yl + 0.5 * region.height() > region.yh - 0.5 * region.height());
        let mut b = eplace_netlist::DesignBuilder::new("p", region);
        b.add_cell("cell", 1.0, 1.0, CellKind::StdCell);
        b.add_cell("wide", 20.0, 30.0, CellKind::Macro);
        b.add_cell("tall", 2.0, 200.0, CellKind::Macro);
        b.add_cell("pad", 1.0, 1.0, CellKind::Terminal);
        b.add_cell("both", 50.0, 500.0, CellKind::Macro);
        let small = b.build();
        let (bench, _) = setup();
        for d in [&small, &bench] {
            let p = PlacementProblem::all_movables(d);
            let cost = EplaceCost::new(d, &p, 8, 8, true);
            let r = d.region;
            let probes = [
                r.center(),
                Point::new(r.xl, r.yh),
                Point::new(-1e9, 1e9),
                Point::new(NAN, 3.0),
                Point::new(2.0, NAN),
                Point::new(INF, NEG_INF),
            ];
            for probe in probes {
                let mut pos = vec![probe; p.len()];
                cost.project(&mut pos);
                for (k, &ci) in p.movable.iter().enumerate() {
                    let size = d.cells[ci].size;
                    let want = r.clamp_center(
                        probe,
                        size.width.min(r.width()),
                        size.height.min(r.height()),
                    );
                    assert_eq!(
                        (pos[k].x.to_bits(), pos[k].y.to_bits()),
                        (want.x.to_bits(), want.y.to_bits()),
                        "{} at {probe}",
                        d.cells[ci].name
                    );
                }
            }
        }
    }

    #[test]
    fn timers_accumulate() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let pos = p.positions(&d);
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&pos, &mut g);
        assert!(cost.density_time > Duration::ZERO);
        assert!(cost.wirelength_time > Duration::ZERO);
        assert_eq!(cost.evaluations, 1);
    }

    #[test]
    fn filler_only_problem_skips_the_wirelength_model() {
        let mut d = BenchmarkConfig::mms_like("f", 53, 0.8, 4)
            .scale(200)
            .generate();
        crate::initial_placement(&mut d);
        crate::insert_fillers(&mut d, 1);
        let p = PlacementProblem::fillers_only(&d);
        assert!(!p.is_empty() && p.degrees.iter().all(|&k| k == 0.0));
        let pos = p.positions(&d);
        let obs = Obs::metrics();
        let mut skipped = EplaceCost::new(&d, &p, 32, 32, true).with_obs(obs.clone());
        assert!(!skipped.moves_pins);
        // The same cost forced through the WA pass the phase used to run.
        let mut full = EplaceCost::new(&d, &p, 32, 32, true);
        full.moves_pins = true;
        let lambda = skipped.init_lambda(&pos);
        assert_eq!(lambda, 1.0);
        assert_eq!(lambda.to_bits(), full.init_lambda(&pos).to_bits());
        let mut g_skipped = vec![Point::ORIGIN; p.len()];
        let mut g_full = vec![Point::ORIGIN; p.len()];
        for _ in 0..2 {
            skipped.gradient(&pos, &mut g_skipped);
            full.gradient(&pos, &mut g_full);
            for (a, b) in g_skipped.iter().zip(&g_full) {
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits())
                );
            }
        }
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("wa_gradients"), 0);
        assert!(snapshot.spans.iter().all(|s| !s.path.contains("wa_")));
        assert_eq!(snapshot.counter("grad_evals_total"), 2);
    }

    #[test]
    fn gamma_follows_overflow() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        cost.anchor_schedule(&p.positions(&d));
        cost.last_overflow = 1.0;
        cost.advance_schedule(cost.prev_hpwl, 1.1);
        let high = cost.gamma;
        cost.last_overflow = 0.1;
        cost.advance_schedule(cost.prev_hpwl, 1.1);
        assert!(cost.gamma < high);
    }
}
