//! Divergence detection and checkpoint/rollback recovery for the
//! Nesterov/eDensity loop.
//!
//! Nesterov's method is not a descent method: the steplength prediction of
//! Eq. (10) can overshoot, λ can ratchet a trajectory into a region where
//! the WA exponentials overflow, and a single non-finite gradient component
//! poisons every later iterate. The guarded loop in [`crate::gp`] snapshots
//! its state every [`CHECKPOINT_INTERVAL`] iterations as a
//! [`GpCheckpoint`]; a read-only sentinel inspects each iteration and, on a
//! trip, the loop rewinds to the last checkpoint, scales the steplength by
//! [`RECOVERY_ALPHA_SCALE`], restores λ/γ, and resumes — up to
//! [`RECOVERY_RETRIES`] times before giving up with a structured
//! [`eplace_errors::EplaceError::Diverged`]. The recovery settings are
//! constants: no caller has needed other values.
//!
//! [`GradientFault`] is the deterministic fault-injection hook the tests use
//! to exercise this machinery; in production it is always `None` and the
//! sentinel never fires on a healthy run, so the no-fault trajectory is
//! bit-identical to the unguarded loop.

use crate::nesterov::NesterovCheckpoint;
use eplace_errors::DivergenceReason;
use eplace_geometry::Point;

/// Kind of poison value a [`GradientFault`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Write `NaN` into the gradient.
    Nan,
    /// Write `+∞` into the gradient.
    Inf,
}

/// A deterministic gradient fault: at a chosen gradient evaluation, one
/// component of the combined force vector is overwritten with a non-finite
/// value. Plain data (`Clone + PartialEq`) so it can ride inside
/// [`crate::EplaceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientFault {
    /// Evaluation counter value that triggers the fault (1-based: the first
    /// gradient evaluation of a cost instance has counter 1).
    pub at_evaluation: usize,
    /// Movable index to poison (taken modulo the problem size).
    pub component: usize,
    /// What to write.
    pub kind: FaultKind,
    /// `false`: fire exactly once (the counter keeps rising across the
    /// rollback replay, so recovery succeeds). `true`: fire on every
    /// evaluation from `at_evaluation` on — an unrecoverable fault that
    /// exhausts the retry budget.
    pub repeat: bool,
}

impl GradientFault {
    /// One-shot NaN poison at evaluation `at_evaluation`.
    pub fn nan_at(at_evaluation: usize) -> Self {
        GradientFault {
            at_evaluation,
            component: 0,
            kind: FaultKind::Nan,
            repeat: false,
        }
    }

    /// Persistent (every-evaluation) variant of `self`.
    pub fn repeating(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Does the fault fire at this evaluation count?
    pub fn fires(&self, evaluation: usize) -> bool {
        if self.repeat {
            evaluation >= self.at_evaluation
        } else {
            evaluation == self.at_evaluation
        }
    }

    /// The poison value.
    pub fn value(&self) -> f64 {
        match self.kind {
            FaultKind::Nan => f64::NAN,
            FaultKind::Inf => f64::INFINITY,
        }
    }
}

/// Everything needed to restart the global-placement loop from a known-good
/// iteration: the optimizer trajectory, the [`crate::EplaceCost`] schedule
/// (λ, γ, the μ rule's previous HPWL and ΔHPWL reference) and the loop's
/// own state (next iteration, stage-initial HPWL, best-solution tracker).
///
/// Produced every 10 iterations by
/// [`crate::run_global_placement`] (the final one is returned in
/// [`crate::GpOutcome::checkpoint`]) and consumed either internally on
/// rollback or externally by [`crate::resume_global_placement`], which
/// continues the run bit-identically to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct GpCheckpoint {
    /// Next iteration index to execute.
    pub iteration: usize,
    /// Penalty factor λ at the checkpoint.
    pub lambda: f64,
    /// Smoothing parameter γ at the checkpoint.
    pub gamma: f64,
    /// HPWL of the previous iteration (input to the μ update of λ).
    pub prev_hpwl: f64,
    /// Stage-initial HPWL (anchors the divergence threshold).
    pub hpwl_init: f64,
    /// ΔHPWL normalization of the μ rule.
    pub delta_ref: f64,
    /// Lowest overflow seen so far.
    pub best_overflow: f64,
    /// Iteration that produced `best_overflow`.
    pub best_iter: usize,
    /// Positions of the lowest-overflow solution.
    pub best_pos: Vec<Point>,
    /// Optimizer trajectory state.
    pub optimizer: NesterovCheckpoint,
}

impl GpCheckpoint {
    /// The first of the six position vectors (best positions, then the
    /// optimizer's u, v, v_prev, g, g_prev) that does not hold `n` points,
    /// as `(name, length)`; `None` when all do. The checkpoint decoder and
    /// [`crate::resume_global_placement`] both reject a checkpoint on it,
    /// so an inconsistent one never reaches the optimizer's indexing.
    pub(crate) fn size_mismatch(&self, n: usize) -> Option<(&'static str, usize)> {
        let opt = &self.optimizer;
        [
            ("best_pos", self.best_pos.len()),
            ("optimizer.u", opt.u.len()),
            ("optimizer.v", opt.v.len()),
            ("optimizer.v_prev", opt.v_prev.len()),
            ("optimizer.g", opt.g.len()),
            ("optimizer.g_prev", opt.g_prev.len()),
        ]
        .into_iter()
        .find(|&(_, len)| len != n)
    }
}

/// Iterations between rollback checkpoints of the guarded loop (the
/// pre-loop state is always kept as well).
pub(crate) const CHECKPOINT_INTERVAL: usize = 10;

/// Sentinel trips tolerated (each one triggering a checkpoint rollback)
/// before a stage gives up with [`eplace_errors::EplaceError::Diverged`].
pub(crate) const RECOVERY_RETRIES: usize = 3;

/// Steplength clamp applied on each rollback: the restored optimizer's α is
/// multiplied by this factor so the replay re-enters the trust region more
/// conservatively.
pub(crate) const RECOVERY_ALPHA_SCALE: f64 = 0.1;

/// HPWL explosion threshold, as a multiple of the stage-initial HPWL
/// (legitimate spreading stays within ~20×; see the gp tests).
pub(crate) const DIVERGENCE_HPWL_FACTOR: f64 = 1e3;

/// Steplengths below this trip the sentinel as a collapse (a healthy
/// backtracked α sits many orders of magnitude above).
pub(crate) const DIVERGENCE_MIN_ALPHA: f64 = 1e-30;

/// Read-only divergence sentinel: examines one iteration's health and
/// returns the reason to trip, or `None` when the iteration is sound.
///
/// Checked conditions, in order of specificity:
/// 1. a non-finite gradient component was produced this iteration,
/// 2. a non-finite steplength or steplength collapse below
///    [`DIVERGENCE_MIN_ALPHA`],
/// 3. non-finite HPWL, overflow, or λ,
/// 4. HPWL explosion past `hpwl_limit`.
pub(crate) fn sentinel_check(
    grad_nonfinite: bool,
    alpha: f64,
    hpwl: f64,
    overflow: f64,
    lambda: f64,
    hpwl_limit: f64,
) -> Option<DivergenceReason> {
    if grad_nonfinite {
        return Some(DivergenceReason::NonFiniteGradient);
    }
    if !alpha.is_finite() || alpha < DIVERGENCE_MIN_ALPHA {
        return Some(DivergenceReason::SteplengthCollapse);
    }
    if !hpwl.is_finite() || !overflow.is_finite() || !lambda.is_finite() {
        return Some(DivergenceReason::NonFiniteMetric);
    }
    if hpwl > hpwl_limit {
        return Some(DivergenceReason::HpwlExplosion);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fault_fires_once() {
        let f = GradientFault::nan_at(5);
        assert!(!f.fires(4));
        assert!(f.fires(5));
        assert!(!f.fires(6));
        assert!(f.value().is_nan());
    }

    #[test]
    fn repeating_fault_fires_from_trigger_on() {
        let f = GradientFault::nan_at(5).repeating();
        assert!(!f.fires(4));
        assert!(f.fires(5));
        assert!(f.fires(500));
    }

    #[test]
    fn inf_fault_value() {
        let f = GradientFault {
            kind: FaultKind::Inf,
            ..GradientFault::nan_at(1)
        };
        assert_eq!(f.value(), f64::INFINITY);
    }

    #[test]
    fn sentinel_passes_healthy_iteration() {
        assert_eq!(sentinel_check(false, 1e-2, 1e6, 0.5, 1.0, 1e9), None);
    }

    #[test]
    fn sentinel_orders_reasons() {
        // Gradient poison wins even when everything else is broken too.
        assert_eq!(
            sentinel_check(true, f64::NAN, f64::NAN, 0.5, 1.0, 1e9),
            Some(DivergenceReason::NonFiniteGradient)
        );
        assert_eq!(
            sentinel_check(false, f64::NAN, 1e6, 0.5, 1.0, 1e9),
            Some(DivergenceReason::SteplengthCollapse)
        );
        assert_eq!(
            sentinel_check(false, 1e-2, f64::NAN, 0.5, 1.0, 1e9),
            Some(DivergenceReason::NonFiniteMetric)
        );
        assert_eq!(
            sentinel_check(false, 1e-2, 1e10, 0.5, 1.0, 1e9),
            Some(DivergenceReason::HpwlExplosion)
        );
    }

    #[test]
    fn sentinel_flags_steplength_collapse() {
        assert_eq!(
            sentinel_check(false, 1e-40, 1e6, 0.5, 1.0, 1e9),
            Some(DivergenceReason::SteplengthCollapse)
        );
    }
}
