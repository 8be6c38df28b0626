//! Nesterov's method with Lipschitz-constant steplength prediction
//! (Algorithm 1) and steplength backtracking (Algorithm 2).
//!
//! Two solution sequences are maintained: the *major* solution `u` (output)
//! and the *reference* solution `v` at which gradients are evaluated. The
//! steplength is the inverse of the predicted Lipschitz constant
//! `L̃ = ‖∇f(v_k) − ∇f(v_{k−1})‖ / ‖v_k − v_{k−1}‖` (Eq. 10); because the
//! cost's parameters (γ, λ) drift between iterations, the prediction is
//! verified at the *new* reference point and backtracked while it
//! overestimates (`α > ε·α_ref`, ε = 0.95). The gradient computed during
//! the last backtracking check is reused as the next iteration's gradient,
//! so a single-pass iteration costs exactly one gradient evaluation.

use crate::placer::in_span;
use eplace_geometry::Point;
use eplace_obs::Obs;

/// A (preconditioned) gradient oracle for [`NesterovOptimizer`].
pub trait Gradient {
    /// Writes `∇f_pre` at `pos` into `grad` (both sized to the problem).
    fn gradient(&mut self, pos: &[Point], grad: &mut [Point]);

    /// Projects a solution onto the feasible box (objects inside the
    /// placement region). Default: no projection.
    fn project(&self, _pos: &mut [Point]) {}
}

/// Metrics of a single optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// Accepted steplength α_k.
    pub alpha: f64,
    /// Backtracks performed (0 = the first prediction was safe).
    pub backtracks: usize,
}

/// A full snapshot of the optimizer's trajectory state — everything the next
/// [`NesterovOptimizer::step`] reads. Restoring one rewinds the optimizer
/// bit-for-bit (the divergence sentinel's rollback) and
/// [`NesterovOptimizer::from_checkpoint`] rebuilds an optimizer from one
/// without re-evaluating any gradients (the resumable-placement path).
#[derive(Debug, Clone, PartialEq)]
pub struct NesterovCheckpoint {
    /// Major solution u.
    pub u: Vec<Point>,
    /// Reference solution v.
    pub v: Vec<Point>,
    /// Previous reference solution.
    pub v_prev: Vec<Point>,
    /// Gradient at v.
    pub g: Vec<Point>,
    /// Gradient at v_prev.
    pub g_prev: Vec<Point>,
    /// Momentum parameter a_k.
    pub a: f64,
    /// Last accepted steplength (the Lipschitz-prediction fallback).
    pub last_alpha: f64,
    /// Steps taken at checkpoint time. Carried so a resumed optimizer
    /// ([`NesterovOptimizer::from_checkpoint`]) reports the same cumulative
    /// work statistics as an uninterrupted run; a rollback
    /// ([`NesterovOptimizer::restore`]) deliberately ignores it.
    pub steps: usize,
    /// Total backtracks at checkpoint time (same carry semantics as
    /// [`NesterovCheckpoint::steps`]).
    pub total_backtracks: usize,
}

/// State of Nesterov's method over a `Vec<Point>` solution.
#[derive(Debug, Clone)]
pub struct NesterovOptimizer {
    /// Major solution u (the output sequence).
    u: Vec<Point>,
    /// Reference solution v (where gradients are taken).
    v: Vec<Point>,
    v_prev: Vec<Point>,
    g: Vec<Point>,
    g_prev: Vec<Point>,
    a: f64,
    epsilon: f64,
    max_backtracks: usize,
    backtracking: bool,
    last_alpha: f64,
    /// `(‖v − v_prev‖, ‖g − g_prev‖)` — the next step's Lipschitz
    /// prediction input — when the last step's accepting backtrack check
    /// already computed it; `None` after construction, a restore, or a step
    /// whose trial no check accepted.
    lipschitz_norms: Option<(f64, f64)>,
    /// Total backtracks since construction (for the §V-C statistic).
    pub total_backtracks: usize,
    /// Steps taken.
    pub steps: usize,
    scratch_u: Vec<Point>,
    scratch_v: Vec<Point>,
    scratch_g: Vec<Point>,
    obs: Obs,
}

impl NesterovOptimizer {
    /// Initializes the optimizer at `init`. A small trial move along the
    /// initial gradient bootstraps the first Lipschitz prediction;
    /// `perturb` is its maximum per-object displacement (a fraction of the
    /// bin size works well).
    pub fn new(
        init: Vec<Point>,
        cost: &mut impl Gradient,
        epsilon: f64,
        max_backtracks: usize,
        backtracking: bool,
        perturb: f64,
    ) -> Self {
        let n = init.len();
        let mut g = vec![Point::ORIGIN; n];
        cost.gradient(&init, &mut g);
        // Trial point for the initial L̃: a bounded move against the
        // gradient.
        let gmax = g
            .iter()
            .map(|p| p.x.abs().max(p.y.abs()))
            .fold(0.0, f64::max);
        let mut v_prev: Vec<Point> = if gmax > 0.0 {
            let t = perturb / gmax;
            init.iter().zip(&g).map(|(p, gi)| *p - *gi * t).collect()
        } else {
            // Zero initial gradient (an already-converged or all-fixed
            // seed): the gradient-directed trial point would coincide with
            // `init` and the first Lipschitz prediction degenerates to 0/0,
            // leaving α pinned at the arbitrary default. Bootstrap from a
            // deterministic coordinate perturbation of magnitude `perturb`
            // instead, alternating the diagonal by index so the trial
            // displacement is nonzero for every object.
            init.iter()
                .enumerate()
                .map(|(i, p)| {
                    let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                    *p + Point::new(s * perturb, -s * perturb)
                })
                .collect()
        };
        cost.project(&mut v_prev);
        let mut g_prev = vec![Point::ORIGIN; n];
        cost.gradient(&v_prev, &mut g_prev);
        NesterovOptimizer {
            u: init.clone(),
            v: init,
            v_prev,
            g,
            g_prev,
            a: 1.0,
            epsilon,
            max_backtracks,
            backtracking,
            last_alpha: 1.0,
            lipschitz_norms: None,
            total_backtracks: 0,
            steps: 0,
            scratch_u: vec![Point::ORIGIN; n],
            scratch_v: vec![Point::ORIGIN; n],
            scratch_g: vec![Point::ORIGIN; n],
            obs: Obs::disabled(),
        }
    }

    /// Rebuilds an optimizer from a [`NesterovCheckpoint`] without any
    /// gradient evaluations; stepping it continues the checkpointed
    /// trajectory bit-for-bit.
    pub fn from_checkpoint(
        ck: NesterovCheckpoint,
        epsilon: f64,
        max_backtracks: usize,
        backtracking: bool,
    ) -> Self {
        let n = ck.u.len();
        NesterovOptimizer {
            u: ck.u,
            v: ck.v,
            v_prev: ck.v_prev,
            g: ck.g,
            g_prev: ck.g_prev,
            a: ck.a,
            epsilon,
            max_backtracks,
            backtracking,
            last_alpha: ck.last_alpha,
            lipschitz_norms: None,
            // Adopt the checkpointed work counters: a split run must report
            // the same cumulative steps/backtracks as an uninterrupted one.
            total_backtracks: ck.total_backtracks,
            steps: ck.steps,
            scratch_u: vec![Point::ORIGIN; n],
            scratch_v: vec![Point::ORIGIN; n],
            scratch_g: vec![Point::ORIGIN; n],
            obs: Obs::disabled(),
        }
    }

    /// Sets the observability recorder: each [`NesterovOptimizer::step`]
    /// records a `nesterov_step` span, with child spans for its own passes
    /// (`trial_update`, `project`, `norm_diff`) beside the cost's, and its
    /// backtracks go into the `backtracks_total` counter. Recording never
    /// changes the trajectory.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Snapshots the trajectory state (for rollback or resume).
    pub fn checkpoint(&self) -> NesterovCheckpoint {
        NesterovCheckpoint {
            u: self.u.clone(),
            v: self.v.clone(),
            v_prev: self.v_prev.clone(),
            g: self.g.clone(),
            g_prev: self.g_prev.clone(),
            a: self.a,
            last_alpha: self.last_alpha,
            steps: self.steps,
            total_backtracks: self.total_backtracks,
        }
    }

    /// Rewinds the trajectory to `ck`. The live work counters
    /// ([`NesterovOptimizer::total_backtracks`], [`NesterovOptimizer::steps`])
    /// keep accumulating — they measure effort spent, not trajectory
    /// position — so the checkpointed counter values are deliberately
    /// ignored here (only [`NesterovOptimizer::from_checkpoint`], the resume
    /// path, adopts them).
    pub fn restore(&mut self, ck: &NesterovCheckpoint) {
        self.u.copy_from_slice(&ck.u);
        self.v.copy_from_slice(&ck.v);
        self.v_prev.copy_from_slice(&ck.v_prev);
        self.g.copy_from_slice(&ck.g);
        self.g_prev.copy_from_slice(&ck.g_prev);
        self.a = ck.a;
        self.last_alpha = ck.last_alpha;
        self.lipschitz_norms = None;
    }

    /// Scales the remembered steplength by `factor` — the sentinel's α clamp
    /// after a rollback, so the retried trajectory moves more cautiously.
    pub fn scale_alpha(&mut self, factor: f64) {
        if self.last_alpha.is_finite() && self.last_alpha > 0.0 {
            self.last_alpha *= factor;
        } else {
            self.last_alpha = factor;
        }
    }

    /// The major solution `u` — what the paper outputs.
    pub fn solution(&self) -> &[Point] {
        &self.u
    }

    /// The reference solution `v`.
    pub fn reference(&self) -> &[Point] {
        &self.v
    }

    /// Average backtracks per step (paper: 1.037 over the MMS suite).
    pub fn backtracks_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_backtracks as f64 / self.steps as f64
        }
    }

    /// One iteration of Algorithm 1 (+ Algorithm 2 inside).
    pub fn step(&mut self, cost: &mut impl Gradient) -> StepInfo {
        let _span = self.obs.span("nesterov_step");
        let a_next = 0.5 * (1.0 + (4.0 * self.a * self.a + 1.0).sqrt());
        let coef = (self.a - 1.0) / a_next;

        // Lipschitz prediction (Eq. 10). If the gradient did not change
        // (converged / degenerate), keep the previous steplength.
        let obs = &self.obs;
        let (num, den) = match self.lipschitz_norms.take() {
            Some(norms) => norms,
            None => in_span(obs, "norm_diff", || {
                (
                    norm_diff(&self.v, &self.v_prev),
                    norm_diff(&self.g, &self.g_prev),
                )
            }),
        };
        let mut alpha = if den > 1e-30 {
            num / den
        } else {
            self.last_alpha
        };
        if !alpha.is_finite() || alpha <= 0.0 {
            alpha = self.last_alpha;
        }

        let mut backtracks = 0;
        let mut accepted_norms = None;
        loop {
            // Trial u_{k+1} and v_{k+1}. Zipped slices, not indices: an
            // indexed loop reloads every vector's bounds through `self`
            // on each element.
            in_span(obs, "trial_update", || {
                for ((u_next, &v), &g) in self.scratch_u.iter_mut().zip(&self.v).zip(&self.g) {
                    *u_next = v - g * alpha;
                }
            });
            in_span(obs, "project", || cost.project(&mut self.scratch_u));
            in_span(obs, "trial_update", || {
                for ((v_next, &u_next), &u) in
                    self.scratch_v.iter_mut().zip(&self.scratch_u).zip(&self.u)
                {
                    *v_next = u_next + (u_next - u) * coef;
                }
            });
            in_span(obs, "project", || cost.project(&mut self.scratch_v));
            cost.gradient(&self.scratch_v, &mut self.scratch_g);
            if !self.backtracking || backtracks >= self.max_backtracks {
                break;
            }
            let (ref_num, ref_den) = in_span(obs, "norm_diff", || {
                (
                    norm_diff(&self.scratch_v, &self.v),
                    norm_diff(&self.scratch_g, &self.g),
                )
            });
            // Once this trial is committed, (scratch_v, v) and
            // (scratch_g, g) are (v, v_prev) and (g, g_prev): the pair is
            // the next step's prediction input, bit for bit.
            accepted_norms = Some((ref_num, ref_den));
            let alpha_ref = if ref_den > 1e-30 {
                ref_num / ref_den
            } else {
                break; // gradient did not change — prediction is safe
            };
            // Algorithm 2 backtracks while the prediction overestimates the
            // reference. The comparison is taken with ε = 0.95 of *alpha*
            // rather than of the reference so the loop provably terminates
            // at a Lipschitz fixed point (where α = α_ref exactly): we
            // accept any α within 1/ε of the reference and re-predict
            // otherwise — same intent ("prevent steplength overestimation,
            // encourage early return"), guaranteed exit.
            if alpha * self.epsilon <= alpha_ref {
                break;
            }
            accepted_norms = None;
            alpha = alpha_ref;
            backtracks += 1;
        }

        // Commit.
        std::mem::swap(&mut self.u, &mut self.scratch_u);
        std::mem::swap(&mut self.v_prev, &mut self.v);
        std::mem::swap(&mut self.v, &mut self.scratch_v);
        std::mem::swap(&mut self.g_prev, &mut self.g);
        std::mem::swap(&mut self.g, &mut self.scratch_g);
        self.a = a_next;
        self.last_alpha = alpha;
        self.lipschitz_norms = accepted_norms;
        self.steps += 1;
        self.total_backtracks += backtracks;
        self.obs.add("backtracks_total", backtracks as u64);
        StepInfo { alpha, backtracks }
    }
}

fn norm_diff(a: &[Point], b: &[Point]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm_sq())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex quadratic f(p) = ½ Σ cᵢ‖pᵢ − tᵢ‖²; gradient cᵢ(pᵢ − tᵢ).
    struct Quadratic {
        targets: Vec<Point>,
        scale: Vec<f64>,
    }

    impl Gradient for Quadratic {
        fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
            for i in 0..pos.len() {
                grad[i] = (pos[i] - self.targets[i]) * self.scale[i];
            }
        }
    }

    /// Anisotropic gradient whose stiffness jumps 100× after 5
    /// evaluations — mimicking an abrupt λ/γ parameter change. The
    /// anisotropy keeps the iterate away from the optimum when the jump
    /// lands, so the steps around it backtrack.
    struct Shifting {
        calls: usize,
    }

    impl Gradient for Shifting {
        fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
            self.calls += 1;
            let c = if self.calls > 5 { 100.0 } else { 1.0 };
            for i in 0..pos.len() {
                grad[i] = Point::new(pos[i].x * c, pos[i].y * 0.13 * c);
            }
        }
    }

    fn setup() -> (Quadratic, Vec<Point>) {
        let targets = vec![
            Point::new(3.0, -1.0),
            Point::new(-2.0, 5.0),
            Point::new(0.5, 0.5),
        ];
        let scale = vec![1.0, 2.0, 0.5];
        let init = vec![Point::ORIGIN; 3];
        (Quadratic { targets, scale }, init)
    }

    fn error(opt: &NesterovOptimizer, q: &Quadratic) -> f64 {
        opt.solution()
            .iter()
            .zip(&q.targets)
            .map(|(p, t)| p.distance(*t))
            .sum()
    }

    #[test]
    fn converges_on_convex_quadratic() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        for _ in 0..100 {
            opt.step(&mut q);
        }
        assert!(error(&opt, &q) < 1e-6, "err = {}", error(&opt, &q));
    }

    #[test]
    fn faster_than_plain_gradient_descent() {
        // O(1/k²) vs O(1/k): after the same number of equal-cost
        // iterations Nesterov must be closer on an ill-conditioned bowl.
        let targets: Vec<Point> = (0..10).map(|i| Point::new(i as f64, -(i as f64))).collect();
        let scale: Vec<f64> = (0..10).map(|i| 1.0 / (1 << i.min(6)) as f64).collect();
        let mut q = Quadratic {
            targets: targets.clone(),
            scale: scale.clone(),
        };
        let init = vec![Point::ORIGIN; 10];
        let mut opt = NesterovOptimizer::new(init.clone(), &mut q, 0.95, 10, true, 0.1);
        for _ in 0..60 {
            opt.step(&mut q);
        }
        let nesterov_err = error(&opt, &q);

        // Plain GD with the safe fixed step 1/L (L = max scale = 1).
        let mut pos = init;
        let mut grad = vec![Point::ORIGIN; 10];
        for _ in 0..60 {
            q.gradient(&pos, &mut grad);
            for i in 0..10 {
                pos[i] -= grad[i] * 1.0;
            }
        }
        let gd_err: f64 = pos.iter().zip(&targets).map(|(p, t)| p.distance(*t)).sum();
        assert!(
            nesterov_err < 0.5 * gd_err,
            "nesterov {nesterov_err} vs gd {gd_err}"
        );
    }

    #[test]
    fn steplength_tracks_inverse_lipschitz() {
        // On c·‖p − t‖² the gradient's Lipschitz constant is c, so the
        // predicted α converges to 1/c.
        let mut q = Quadratic {
            targets: vec![Point::new(1.0, 1.0)],
            scale: vec![4.0],
        };
        let mut opt = NesterovOptimizer::new(vec![Point::ORIGIN], &mut q, 0.95, 10, true, 0.1);
        let mut last = 0.0;
        for _ in 0..20 {
            last = opt.step(&mut q).alpha;
        }
        assert!((last - 0.25).abs() < 0.02, "alpha = {last}");
    }

    #[test]
    fn backtracking_can_be_disabled() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, false, 0.1);
        for _ in 0..50 {
            let info = opt.step(&mut q);
            assert_eq!(info.backtracks, 0);
        }
        assert_eq!(opt.total_backtracks, 0);
        // Quadratic cost has a constant Hessian — even without backtracking
        // the prediction is exact and it converges.
        assert!(error(&opt, &q) < 1e-4);
    }

    #[test]
    fn backtracks_fire_on_sudden_curvature_increase() {
        let mut f = Shifting { calls: 0 };
        let mut opt =
            NesterovOptimizer::new(vec![Point::new(10.0, 10.0)], &mut f, 0.95, 10, true, 0.1);
        let mut total = 0;
        for _ in 0..10 {
            total += opt.step(&mut f).backtracks;
        }
        assert!(total > 0, "expected at least one backtrack");
        assert_eq!(total, opt.total_backtracks);
        assert!(opt.backtracks_per_step() > 0.0);
    }

    #[test]
    fn projection_is_applied() {
        struct Boxed;
        impl Gradient for Boxed {
            fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
                // Pull hard toward (−100, −100), outside the box.
                for i in 0..pos.len() {
                    grad[i] = pos[i] - Point::new(-100.0, -100.0);
                }
            }
            fn project(&self, pos: &mut [Point]) {
                for p in pos.iter_mut() {
                    p.x = p.x.max(0.0);
                    p.y = p.y.max(0.0);
                }
            }
        }
        let mut f = Boxed;
        let mut opt =
            NesterovOptimizer::new(vec![Point::new(5.0, 5.0)], &mut f, 0.95, 10, true, 0.1);
        for _ in 0..20 {
            opt.step(&mut f);
        }
        let p = opt.solution()[0];
        assert!(p.x >= 0.0 && p.y >= 0.0, "escaped the box: {p}");
    }

    #[test]
    fn checkpoint_restore_rewinds_trajectory_exactly() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        for _ in 0..5 {
            opt.step(&mut q);
        }
        let ck = opt.checkpoint();
        let mut straight = Vec::new();
        for _ in 0..5 {
            straight.push(opt.step(&mut q).alpha.to_bits());
        }
        let end = opt.solution().to_vec();
        opt.restore(&ck);
        let mut replayed = Vec::new();
        for _ in 0..5 {
            replayed.push(opt.step(&mut q).alpha.to_bits());
        }
        assert_eq!(straight, replayed);
        assert_eq!(end, opt.solution());
    }

    #[test]
    fn from_checkpoint_continues_bit_identically() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        for _ in 0..5 {
            opt.step(&mut q);
        }
        let ck = opt.checkpoint();
        let mut resumed = NesterovOptimizer::from_checkpoint(ck, 0.95, 10, true);
        for _ in 0..5 {
            let a = opt.step(&mut q).alpha;
            let b = resumed.step(&mut q).alpha;
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(opt.solution(), resumed.solution());
    }

    #[test]
    fn from_checkpoint_carries_work_counters() {
        // Stiffness jumps 100× mid-run so backtracks are guaranteed nonzero.
        let mut f = Shifting { calls: 0 };
        let mut opt =
            NesterovOptimizer::new(vec![Point::new(10.0, 10.0)], &mut f, 0.95, 10, true, 0.1);
        for _ in 0..10 {
            opt.step(&mut f);
        }
        assert!(opt.total_backtracks > 0, "test needs nonzero backtracks");
        let resumed = NesterovOptimizer::from_checkpoint(opt.checkpoint(), 0.95, 10, true);
        assert_eq!(resumed.steps, opt.steps);
        assert_eq!(resumed.total_backtracks, opt.total_backtracks);
        assert_eq!(
            resumed.backtracks_per_step().to_bits(),
            opt.backtracks_per_step().to_bits()
        );
    }

    #[test]
    fn restore_keeps_work_counters_accumulating() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        for _ in 0..3 {
            opt.step(&mut q);
        }
        let ck = opt.checkpoint();
        for _ in 0..4 {
            opt.step(&mut q);
        }
        opt.restore(&ck);
        // Rollback measures effort spent: 7 steps happened, not 3.
        assert_eq!(opt.steps, 7);
        opt.step(&mut q);
        assert_eq!(opt.steps, 8);
    }

    #[test]
    fn zero_gradient_seed_bootstraps_with_finite_steplength() {
        // A perfectly converged seed: init == targets, so the initial
        // gradient is exactly zero. The deterministic perturbation must
        // still produce a genuine Lipschitz estimate (α → 1/c on a
        // c-quadratic), not the arbitrary default of 1.0.
        let targets = vec![Point::new(2.0, -3.0), Point::new(-1.0, 4.0)];
        let mut q = Quadratic {
            targets: targets.clone(),
            scale: vec![4.0, 4.0],
        };
        let mut opt = NesterovOptimizer::new(targets.clone(), &mut q, 0.95, 10, true, 0.1);
        let info = opt.step(&mut q);
        assert!(info.alpha.is_finite() && info.alpha > 0.0);
        assert!(
            (info.alpha - 0.25).abs() < 1e-9,
            "expected the 1/c Lipschitz steplength, got {}",
            info.alpha
        );
        // The solution itself must not move off the optimum (the gradient
        // at the reference point is zero).
        for (p, t) in opt.solution().iter().zip(&targets) {
            assert!(p.distance(*t) < 1e-12);
        }
    }

    #[test]
    fn all_zero_gradient_oracle_does_not_produce_nan() {
        // Degenerate oracle (all objects fixed → force identically zero):
        // steps must stay finite no-ops instead of poisoning the state.
        struct Zero;
        impl Gradient for Zero {
            fn gradient(&mut self, _pos: &[Point], grad: &mut [Point]) {
                for g in grad.iter_mut() {
                    *g = Point::ORIGIN;
                }
            }
        }
        let mut f = Zero;
        let init = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let mut opt = NesterovOptimizer::new(init.clone(), &mut f, 0.95, 10, true, 0.1);
        for _ in 0..3 {
            let info = opt.step(&mut f);
            assert!(info.alpha.is_finite() && info.alpha > 0.0);
        }
        for (p, i) in opt.solution().iter().zip(&init) {
            assert!(p.is_finite());
            assert!(p.distance(*i) < 1e-12, "zero force must not move cells");
        }
    }

    #[test]
    fn nonzero_gradient_bootstrap_is_unchanged_by_the_fallback() {
        // The gmax > 0 path must be byte-identical to the historical
        // formula v_prev = init − g·(perturb/gmax).
        let (mut q, init) = setup();
        let mut g = vec![Point::ORIGIN; init.len()];
        q.gradient(&init, &mut g);
        let gmax = g
            .iter()
            .map(|p| p.x.abs().max(p.y.abs()))
            .fold(0.0, f64::max);
        assert!(gmax > 0.0);
        let t = 0.1 / gmax;
        let expect: Vec<Point> = init.iter().zip(&g).map(|(p, gi)| *p - *gi * t).collect();
        let opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        let ck = opt.checkpoint();
        for (a, b) in ck.v_prev.iter().zip(&expect) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn scale_alpha_clamps_step() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        opt.step(&mut q);
        let before = opt.last_alpha;
        opt.scale_alpha(0.1);
        assert!((opt.last_alpha - 0.1 * before).abs() <= 1e-18 * before.abs());
        // A poisoned steplength resets to the factor itself.
        opt.last_alpha = f64::NAN;
        opt.scale_alpha(0.25);
        assert_eq!(opt.last_alpha, 0.25);
    }

    /// The kept norm pair, when there is one, is the pair the next step
    /// would compute, bit for bit.
    fn assert_kept_norms_are_recomputed(opt: &NesterovOptimizer) {
        if let Some((num, den)) = opt.lipschitz_norms {
            assert_eq!(num.to_bits(), norm_diff(&opt.v, &opt.v_prev).to_bits());
            assert_eq!(den.to_bits(), norm_diff(&opt.g, &opt.g_prev).to_bits());
        }
    }

    #[test]
    fn kept_lipschitz_norms_are_the_recomputed_ones() {
        let init = vec![Point::new(10.0, 10.0), Point::new(-4.0, 7.0)];
        for (backtracking, max_backtracks) in [(true, 10), (true, 1), (true, 0), (false, 10)] {
            let mut f = Shifting { calls: 0 };
            let mut opt = NesterovOptimizer::new(
                init.clone(),
                &mut f,
                0.95,
                max_backtracks,
                backtracking,
                0.1,
            );
            assert_eq!(opt.lipschitz_norms, None);
            // Twin that recomputes both norms on every step.
            let mut g = Shifting { calls: 0 };
            let mut twin = NesterovOptimizer::new(
                init.clone(),
                &mut g,
                0.95,
                max_backtracks,
                backtracking,
                0.1,
            );
            let (mut kept, mut capped) = (0, 0);
            let mut ck = None;
            for i in 0..40 {
                twin.lipschitz_norms = None;
                let info = opt.step(&mut f);
                assert_eq!(info.alpha.to_bits(), twin.step(&mut g).alpha.to_bits());
                assert_eq!(opt.solution(), twin.solution());
                assert_kept_norms_are_recomputed(&opt);
                // No pair exactly when no check accepted the committed trial.
                let cap = !backtracking || info.backtracks == max_backtracks;
                assert_eq!(opt.lipschitz_norms.is_none(), cap, "step {i}");
                kept += usize::from(!cap);
                capped += usize::from(cap);
                match i {
                    10 => {
                        opt.scale_alpha(0.5);
                        twin.scale_alpha(0.5);
                        assert_kept_norms_are_recomputed(&opt);
                    }
                    15 => ck = Some(opt.checkpoint()),
                    20 => {
                        let ck = ck.take().expect("checkpoint taken at step 15");
                        opt.restore(&ck);
                        twin.restore(&ck);
                        assert_eq!(opt.lipschitz_norms, None);
                    }
                    25 => {
                        opt = NesterovOptimizer::from_checkpoint(
                            opt.checkpoint(),
                            0.95,
                            max_backtracks,
                            backtracking,
                        );
                        assert_eq!(opt.lipschitz_norms, None);
                    }
                    _ => {}
                }
            }
            assert_eq!(kept > 0, backtracking && max_backtracks > 0);
            if (backtracking, max_backtracks) == (true, 1) {
                assert!(capped > 0, "the cap of 1 backtrack was never reached");
            }
        }
    }

    #[test]
    fn momentum_parameter_follows_recurrence() {
        let (mut q, init) = setup();
        let mut opt = NesterovOptimizer::new(init, &mut q, 0.95, 10, true, 0.1);
        // a₀ = 1 → a₁ = (1+√5)/2.
        opt.step(&mut q);
        assert!((opt.a - (1.0 + 5f64.sqrt()) / 2.0).abs() < 1e-12);
    }
}
