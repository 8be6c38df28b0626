use crate::cost::EplaceCost;
use crate::recover::{sentinel_check, GpCheckpoint};
use crate::trace::{IterationRecord, RuntimeProfile, Stage};
use crate::{EplaceConfig, NesterovOptimizer, PlacementProblem};
use eplace_density::{grid_dimension, CongestionMap};
use eplace_errors::{DivergenceReport, EplaceError, Severity, ValidationIssue};
use eplace_netlist::Design;
use eplace_obs::{Obs, Record, BACKTRACK_EDGES};

/// Grid dimension of the per-iteration RUDY congestion gauges (observability
/// only — never fed back into the optimizer).
const RUDY_GAUGE_DIM: usize = 16;

/// Span / counter names need `&'static str`; formatting per iteration would
/// allocate in the hot loop.
fn iter_counter(stage: Stage) -> &'static str {
    match stage {
        Stage::Mgp => "iters_mgp",
        Stage::Cgp => "iters_cgp",
        Stage::FillerOnly => "iters_fillergp",
        Stage::RouteRefine => "iters_routegp",
        Stage::Mip | Stage::Mlg | Stage::Cdp => "iters_other",
    }
}

/// Journals why a GP stage stopped: `{"type":"stop","stage","iter","reason"}`
/// with `reason` one of `target`, `stagnation`, `iteration_cap`,
/// `cancelled` and `diverged`, and `iter` the index of the stage's last
/// iteration.
fn journal_stop(obs: &Obs, stage: Stage, iter: usize, reason: &str) {
    if obs.journal_active() {
        obs.journal(
            Record::new("stop")
                .str_field("stage", stage.key())
                .u64_field("iter", iter as u64)
                .str_field("reason", reason),
        );
    }
}

/// Outcome of one global-placement stage (mGP, filler-only, or cGP).
#[derive(Debug, Clone, PartialEq)]
pub struct GpOutcome {
    /// Iterations executed (including iterations later discarded by a
    /// divergence rollback — the work was still spent).
    pub iterations: usize,
    /// Final density overflow τ.
    pub final_overflow: f64,
    /// HPWL of the committed solution.
    pub final_hpwl: f64,
    /// λ at the last iteration (cGP seeds from mGP's — §VI-B).
    pub lambda_last: f64,
    /// Total backtracks (paper §V-C: ~1.037/iteration).
    pub total_backtracks: usize,
    /// Average backtracks per iteration.
    pub backtracks_per_iteration: f64,
    /// Runtime split for Figure 7.
    pub profile: RuntimeProfile,
    /// `true` when the τ target was reached before the iteration cap.
    pub converged: bool,
    /// Divergence-sentinel trips that were recovered by rollback (0 on a
    /// healthy run).
    pub recoveries: usize,
    /// State after the last completed iteration; feed it to
    /// [`resume_global_placement`] to continue the run bit-identically.
    /// `None` only for the empty-problem fast path.
    pub checkpoint: Option<GpCheckpoint>,
}

/// Runs the Nesterov/eDensity global placement loop over `problem`,
/// committing the solution into `design`. `lambda_init` overrides the
/// λ₀ calibration (used by cGP's rewind `λ_mGP·1.1^{−m}`); `max_iterations`
/// overrides the config cap (used by the 20-iteration filler-only phase).
/// Iteration records are appended to `trace`.
///
/// The loop is guarded: every iteration a read-only sentinel checks for
/// non-finite gradients/metrics, steplength collapse, and HPWL explosion
/// (see the `recover` module). On a trip the loop rewinds to the last
/// checkpoint, clamps the steplength by
/// [`EplaceConfig::recovery_alpha_scale`], re-anchors λ/γ, and retries.
///
/// # Errors
///
/// [`EplaceError::Diverged`] when the sentinel trips more than
/// [`EplaceConfig::recovery_retries`] times; the best placement seen is
/// committed to `design` before returning and the report carries its
/// HPWL/overflow. [`EplaceError::Cancelled`] when the config's
/// [`crate::CancelToken`] fires — also after committing the best placement
/// seen.
pub fn run_global_placement(
    design: &mut Design,
    problem: &PlacementProblem,
    cfg: &EplaceConfig,
    stage: Stage,
    lambda_init: Option<f64>,
    max_iterations: Option<usize>,
    trace: &mut Vec<IterationRecord>,
) -> Result<GpOutcome, EplaceError> {
    run_guarded(
        design,
        problem,
        cfg,
        stage,
        lambda_init,
        max_iterations,
        None,
        trace,
    )
}

/// Continues a global-placement run from a [`GpCheckpoint`] previously
/// returned in [`GpOutcome::checkpoint`].
///
/// The optimizer trajectory, λ/γ schedule, and best-solution tracker are
/// restored from the checkpoint, so a run split into
/// `run_global_placement(cap = k)` + `resume_global_placement` produces the
/// same trajectory as a single uninterrupted run (fault-injection counters
/// reset at the resume boundary). `max_iterations` bounds the iterations of
/// this call, not the combined run.
///
/// # Errors
///
/// [`EplaceError::Validation`] when the checkpoint does not match the
/// problem size; [`EplaceError::Diverged`] as for [`run_global_placement`].
pub fn resume_global_placement(
    design: &mut Design,
    problem: &PlacementProblem,
    cfg: &EplaceConfig,
    stage: Stage,
    checkpoint: &GpCheckpoint,
    max_iterations: Option<usize>,
    trace: &mut Vec<IterationRecord>,
) -> Result<GpOutcome, EplaceError> {
    if checkpoint.optimizer.u.len() != problem.len() || checkpoint.best_pos.len() != problem.len() {
        return Err(EplaceError::Validation {
            issues: vec![ValidationIssue {
                severity: Severity::Error,
                subject: "resume checkpoint".into(),
                message: format!(
                    "checkpoint holds {} movables but the problem has {}",
                    checkpoint.optimizer.u.len(),
                    problem.len()
                ),
                repaired: false,
            }],
        });
    }
    run_guarded(
        design,
        problem,
        cfg,
        stage,
        None,
        max_iterations,
        Some(checkpoint),
        trace,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_guarded(
    design: &mut Design,
    problem: &PlacementProblem,
    cfg: &EplaceConfig,
    stage: Stage,
    lambda_init: Option<f64>,
    max_iterations: Option<usize>,
    resume: Option<&GpCheckpoint>,
    trace: &mut Vec<IterationRecord>,
) -> Result<GpOutcome, EplaceError> {
    let start = std::time::Instant::now();
    let obs = cfg.obs.clone();
    let _stage_span = obs.span(stage.key());
    let mut profile = RuntimeProfile::default();
    if problem.is_empty() {
        return Ok(GpOutcome {
            iterations: 0,
            final_overflow: 0.0,
            final_hpwl: design.hpwl(),
            lambda_last: lambda_init.unwrap_or(0.0),
            total_backtracks: 0,
            backtracks_per_iteration: 0.0,
            profile,
            converged: true,
            recoveries: 0,
            checkpoint: None,
        });
    }
    let dim = grid_dimension(problem.len(), cfg.grid_min, cfg.grid_max);
    let max_iters = max_iterations.unwrap_or(cfg.max_iterations);

    let mut cost = EplaceCost::new(design, problem, dim, dim, cfg.enable_preconditioner)
        .with_exec(cfg.exec())
        .with_spectral_engine(cfg.spectral_engine)
        .with_obs(obs.clone());
    cost.fault = cfg.fault;

    let (
        mut optimizer,
        hpwl_init,
        delta_ref,
        mut prev_hpwl,
        mut iter,
        mut best_pos,
        mut best_overflow,
        mut best_iter,
    );
    match resume {
        None => {
            let pos0 = problem.positions(design);
            let lambda0 = cost.init_lambda(&pos0);
            if let Some(l) = lambda_init {
                cost.lambda = l.max(1e-3 * lambda0);
            }
            let perturb = 0.1 * cost.bin_width();
            optimizer = NesterovOptimizer::new(
                pos0,
                &mut cost,
                cfg.epsilon,
                cfg.max_backtracks,
                cfg.enable_backtracking,
                perturb,
            );
            hpwl_init = cost.hpwl(optimizer.solution()).max(1.0);
            delta_ref = cfg.delta_hpwl_ref_frac * hpwl_init;
            prev_hpwl = hpwl_init;
            iter = 0;
            best_pos = optimizer.solution().to_vec();
            best_overflow = f64::INFINITY;
            best_iter = 0;
        }
        Some(ck) => {
            optimizer = NesterovOptimizer::from_checkpoint(
                ck.optimizer.clone(),
                cfg.epsilon,
                cfg.max_backtracks,
                cfg.enable_backtracking,
            );
            cost.lambda = ck.lambda;
            cost.gamma = ck.gamma;
            hpwl_init = ck.hpwl_init;
            delta_ref = ck.delta_ref;
            prev_hpwl = ck.prev_hpwl;
            iter = ck.iteration;
            best_pos = ck.best_pos.clone();
            best_overflow = ck.best_overflow;
            best_iter = ck.best_iter;
        }
    }
    optimizer.set_obs(obs.clone());

    // Rollback anchor: the most recent known-good state. Starts at the
    // pre-loop state so even an iteration-0 fault has somewhere to land.
    let mut ck = snapshot(
        iter,
        &cost,
        &optimizer,
        prev_hpwl,
        hpwl_init,
        delta_ref,
        best_overflow,
        best_iter,
        &best_pos,
    );
    let mut ck_trace_len = trace.len();

    let hpwl_limit = cfg.divergence_hpwl_factor * hpwl_init;
    let stall_window = (cfg.min_iterations * 4).max(60);
    let mut iterations = 0;
    let mut converged = false;
    let mut recoveries = 0usize;
    let mut spent = 0usize;
    let mut stop = "iteration_cap";
    while spent < max_iters {
        // Cooperative cancellation, polled at the iteration boundary only:
        // a single relaxed load on the healthy path, so cancel-free runs
        // stay bit-identical whether or not a token is armed. On cancel the
        // best placement seen is committed before returning, like the
        // diverged exit.
        if cfg.cancel.is_cancelled() {
            if spent > 0 {
                journal_stop(&obs, stage, iter.saturating_sub(1), "cancelled");
            }
            drop(cost);
            problem.apply(design, &best_pos);
            return Err(EplaceError::Cancelled {
                stage: stage.to_string(),
                iteration: iter,
            });
        }
        spent += 1;
        iterations = spent;
        let _iter_span = obs.span("iter");
        let info = optimizer.step(&mut cost);
        let hpwl = cost.hpwl(optimizer.solution());
        let overflow = cost.last_overflow;
        // Divergence sentinel — read-only on a healthy iteration, so the
        // no-fault trajectory is bit-identical to the unguarded loop.
        if let Some(reason) = sentinel_check(
            cost.take_grad_nonfinite(),
            info.alpha,
            cfg.divergence_min_alpha,
            hpwl,
            overflow,
            cost.lambda,
            hpwl_limit,
        ) {
            recoveries += 1;
            obs.add("recoveries_total", 1);
            if obs.journal_active() {
                obs.journal(
                    Record::new("recovery")
                        .str_field("stage", stage.key())
                        .u64_field("iter", iter as u64)
                        .str_field("reason", &reason.to_string())
                        .u64_field("trip", recoveries as u64),
                );
            }
            if recoveries > cfg.recovery_retries {
                // Retry budget exhausted: commit the best placement seen and
                // surface a structured report instead of poisoned positions.
                journal_stop(&obs, stage, iter, "diverged");
                let best_hpwl = cost.hpwl(&best_pos);
                drop(cost);
                problem.apply(design, &best_pos);
                return Err(EplaceError::Diverged(DivergenceReport {
                    stage: stage.to_string(),
                    iteration: iter,
                    trips: recoveries,
                    retry_budget: cfg.recovery_retries,
                    reason,
                    best_hpwl,
                    best_overflow,
                }));
            }
            // Roll back to the last good checkpoint, clamp the steplength,
            // re-anchor λ/γ, and replay.
            optimizer.restore(&ck.optimizer);
            optimizer.scale_alpha(cfg.recovery_alpha_scale);
            cost.lambda = ck.lambda;
            cost.gamma = ck.gamma;
            prev_hpwl = ck.prev_hpwl;
            best_overflow = ck.best_overflow;
            best_iter = ck.best_iter;
            best_pos.copy_from_slice(&ck.best_pos);
            trace.truncate(ck_trace_len);
            iter = ck.iteration;
            continue;
        }
        trace.push(IterationRecord {
            stage,
            iteration: iter,
            hpwl,
            overflow,
            overlap: cost.overlap_area(),
            lambda: cost.lambda,
            gamma: cost.gamma,
            alpha: info.alpha,
            backtracks: info.backtracks,
        });
        if obs.is_enabled() {
            obs.add(iter_counter(stage), 1);
            obs.set_gauge("hpwl", hpwl);
            obs.set_gauge("overflow", overflow);
            obs.set_gauge("alpha", info.alpha);
            obs.set_gauge("lambda", cost.lambda);
            obs.set_gauge("gamma", cost.gamma);
            // RUDY congestion of the in-flight placement (read-only: the
            // map is built from the optimizer's solution and never feeds
            // back, so obs-on trajectories stay bit-identical to obs-off).
            let rudy = CongestionMap::rudy_with_positions(
                design,
                RUDY_GAUGE_DIM,
                RUDY_GAUGE_DIM,
                1.0,
                &problem.movable,
                optimizer.solution(),
            );
            let (rudy_peak, rudy_mean) = (rudy.peak(), rudy.mean());
            obs.set_gauge("congestion_peak", rudy_peak);
            obs.set_gauge("congestion_mean", rudy_mean);
            obs.observe(
                "backtracks_per_iter",
                BACKTRACK_EDGES,
                info.backtracks as f64,
            );
            if obs.journal_active() {
                obs.journal(
                    Record::new("iter")
                        .str_field("stage", stage.key())
                        .u64_field("iter", iter as u64)
                        .f64_field("hpwl", hpwl)
                        .f64_field("overflow", overflow)
                        .f64_field("alpha", info.alpha)
                        .f64_field("lambda", cost.lambda)
                        .f64_field("gamma", cost.gamma)
                        .f64_field("rudy_peak", rudy_peak)
                        .f64_field("rudy_mean", rudy_mean)
                        .u64_field("backtracks", info.backtracks as u64),
                );
            }
        }
        // Best-solution snapshot: when the overflow stops improving (the
        // grid's noise floor on small instances, or a diverging run), λ
        // keeps ratcheting and wirelength degrades without bound — keep the
        // lowest-overflow solution seen and stop after a stagnation window.
        if overflow < best_overflow - 1e-4 {
            best_overflow = overflow;
            best_iter = iter;
            best_pos.copy_from_slice(optimizer.solution());
        }
        cost.update_lambda(
            hpwl - prev_hpwl,
            delta_ref,
            cfg.lambda_mu_min,
            cfg.lambda_mu_max,
        );
        cost.update_gamma();
        prev_hpwl = hpwl;
        if overflow <= cfg.target_overflow && iter + 1 >= cfg.min_iterations {
            converged = true;
            best_pos.copy_from_slice(optimizer.solution());
            stop = "target";
            iter += 1;
            break;
        }
        if iter > best_iter + stall_window {
            // Stagnated above the target — keep the best snapshot.
            obs.add("stagnation_stops", 1);
            stop = "stagnation";
            iter += 1;
            break;
        }
        iter += 1;
        if cfg.checkpoint_interval > 0 && iter % cfg.checkpoint_interval == 0 {
            ck = snapshot(
                iter,
                &cost,
                &optimizer,
                prev_hpwl,
                hpwl_init,
                delta_ref,
                best_overflow,
                best_iter,
                &best_pos,
            );
            ck_trace_len = trace.len();
        }
    }

    if spent > 0 {
        journal_stop(&obs, stage, iter.saturating_sub(1), stop);
    }
    let final_ck = snapshot(
        iter,
        &cost,
        &optimizer,
        prev_hpwl,
        hpwl_init,
        delta_ref,
        best_overflow,
        best_iter,
        &best_pos,
    );
    let lambda_last = cost.lambda;
    let final_overflow = if converged {
        cost.last_overflow
    } else {
        best_overflow.min(cost.last_overflow)
    };
    let density = cost.density_time;
    let wirelength = cost.wirelength_time;
    drop(cost);
    problem.apply(design, &best_pos);
    profile.add(density, wirelength, start.elapsed());

    Ok(GpOutcome {
        iterations,
        final_overflow,
        final_hpwl: design.hpwl(),
        lambda_last,
        total_backtracks: optimizer.total_backtracks,
        backtracks_per_iteration: optimizer.backtracks_per_step(),
        profile,
        converged,
        recoveries,
        checkpoint: Some(final_ck),
    })
}

#[allow(clippy::too_many_arguments)]
fn snapshot(
    iteration: usize,
    cost: &EplaceCost,
    optimizer: &NesterovOptimizer,
    prev_hpwl: f64,
    hpwl_init: f64,
    delta_ref: f64,
    best_overflow: f64,
    best_iter: usize,
    best_pos: &[eplace_geometry::Point],
) -> GpCheckpoint {
    GpCheckpoint {
        iteration,
        lambda: cost.lambda,
        gamma: cost.gamma,
        prev_hpwl,
        hpwl_init,
        delta_ref,
        best_overflow,
        best_iter,
        best_pos: best_pos.to_vec(),
        optimizer: optimizer.checkpoint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::trace_endpoints;
    use crate::{initial_placement, insert_fillers};
    use eplace_benchgen::BenchmarkConfig;

    fn run(scale: usize, seed: u64) -> (Design, GpOutcome, Vec<IterationRecord>) {
        let mut d = BenchmarkConfig::ispd05_like("gp", seed)
            .scale(scale)
            .generate();
        initial_placement(&mut d);
        insert_fillers(&mut d, seed);
        let problem = PlacementProblem::all_movables(&d);
        let mut trace = Vec::new();
        let cfg = EplaceConfig::fast();
        let out = run_global_placement(&mut d, &problem, &cfg, Stage::Mgp, None, None, &mut trace)
            .unwrap();
        (d, out, trace)
    }

    #[test]
    fn overflow_reaches_target() {
        let (_, out, _) = run(300, 61);
        assert!(
            out.converged,
            "mGP did not converge: tau = {}",
            out.final_overflow
        );
        assert!(out.final_overflow <= 0.101);
        assert_eq!(out.recoveries, 0, "healthy run must not trip the sentinel");
    }

    #[test]
    fn overflow_decreases_over_iterations() {
        let (_, _, trace) = run(300, 62);
        let (first, last) = trace_endpoints(&trace).unwrap();
        assert!(
            last.overflow < first.overflow,
            "overflow {} -> {}",
            first.overflow,
            last.overflow
        );
        // Overlap also shrinks (Fig. 2).
        assert!(
            last.overlap < first.overlap,
            "overlap {} -> {}",
            first.overlap,
            last.overlap
        );
    }

    #[test]
    fn hpwl_grows_from_quadratic_optimum_but_stays_sane() {
        // mIP is the wirelength optimum with overlap; spreading must raise
        // HPWL, but not catastrophically.
        let (_, _, trace) = run(300, 63);
        let (first, last) = trace_endpoints(&trace).unwrap();
        assert!(last.hpwl > 0.8 * first.hpwl);
        assert!(
            last.hpwl < 20.0 * first.hpwl,
            "hpwl exploded: {} -> {}",
            first.hpwl,
            last.hpwl
        );
    }

    #[test]
    fn empty_problem_returns_immediately() {
        let mut d = BenchmarkConfig::ispd05_like("gp", 64).scale(100).generate();
        for c in d.cells.iter_mut() {
            c.fixed = true;
        }
        let problem = PlacementProblem::all_movables(&d);
        let mut trace = Vec::new();
        let out = run_global_placement(
            &mut d,
            &problem,
            &EplaceConfig::fast(),
            Stage::Mgp,
            None,
            None,
            &mut trace,
        )
        .unwrap();
        assert_eq!(out.iterations, 0);
        assert!(trace.is_empty());
        assert!(out.checkpoint.is_none());
        // An empty trace now yields a structured error, not a panic.
        assert!(matches!(
            trace_endpoints(&trace),
            Err(EplaceError::EmptyTrace { .. })
        ));
    }

    #[test]
    fn iteration_cap_respected() {
        let mut d = BenchmarkConfig::ispd05_like("gp", 65).scale(300).generate();
        initial_placement(&mut d);
        let problem = PlacementProblem::all_movables(&d);
        let mut trace = Vec::new();
        let out = run_global_placement(
            &mut d,
            &problem,
            &EplaceConfig::fast(),
            Stage::Mgp,
            None,
            Some(7),
            &mut trace,
        )
        .unwrap();
        assert_eq!(out.iterations, 7);
        assert_eq!(trace.len(), 7);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let mk = || {
            let mut d = BenchmarkConfig::ispd05_like("resume", 68)
                .scale(250)
                .generate();
            initial_placement(&mut d);
            insert_fillers(&mut d, 68);
            let problem = PlacementProblem::all_movables(&d);
            (d, problem)
        };
        let key = |trace: &[IterationRecord]| {
            trace
                .iter()
                .map(|r| (r.iteration, r.hpwl.to_bits(), r.alpha.to_bits()))
                .collect::<Vec<_>>()
        };
        let cfg = EplaceConfig::fast();

        // One uninterrupted 30-iteration run…
        let (mut d1, p1) = mk();
        let mut t1 = Vec::new();
        run_global_placement(&mut d1, &p1, &cfg, Stage::Mgp, None, Some(30), &mut t1).unwrap();

        // …vs 18 iterations, then resume for 12 more from the checkpoint.
        let (mut d2, p2) = mk();
        let mut t2 = Vec::new();
        let part =
            run_global_placement(&mut d2, &p2, &cfg, Stage::Mgp, None, Some(18), &mut t2).unwrap();
        let ck = part
            .checkpoint
            .expect("non-empty problem yields a checkpoint");
        assert_eq!(ck.iteration, 18);
        let resumed =
            resume_global_placement(&mut d2, &p2, &cfg, Stage::Mgp, &ck, Some(12), &mut t2)
                .unwrap();
        assert_eq!(resumed.iterations, 12);

        assert_eq!(key(&t1), key(&t2), "resume must be bit-identical");
        let h1: Vec<u64> = d1.cells.iter().map(|c| c.pos.x.to_bits()).collect();
        let h2: Vec<u64> = d2.cells.iter().map(|c| c.pos.x.to_bits()).collect();
        assert_eq!(h1, h2);
    }

    /// The split run must also report the *cumulative* work statistics of
    /// the uninterrupted run: the checkpoint carries the optimizer's
    /// steps/backtracks counters across the resume boundary.
    #[test]
    fn resumed_run_reports_cumulative_work_counters() {
        let mk = || {
            let mut d = BenchmarkConfig::ispd05_like("resume-counters", 71)
                .scale(250)
                .generate();
            initial_placement(&mut d);
            insert_fillers(&mut d, 71);
            let problem = PlacementProblem::all_movables(&d);
            (d, problem)
        };
        let cfg = EplaceConfig::fast();

        let (mut d1, p1) = mk();
        let mut t1 = Vec::new();
        let full =
            run_global_placement(&mut d1, &p1, &cfg, Stage::Mgp, None, Some(24), &mut t1).unwrap();

        let (mut d2, p2) = mk();
        let mut t2 = Vec::new();
        let part =
            run_global_placement(&mut d2, &p2, &cfg, Stage::Mgp, None, Some(15), &mut t2).unwrap();
        let ck = part.checkpoint.expect("checkpoint expected");
        assert_eq!(ck.optimizer.steps, part.iterations);
        let resumed =
            resume_global_placement(&mut d2, &p2, &cfg, Stage::Mgp, &ck, Some(9), &mut t2).unwrap();

        assert_eq!(resumed.total_backtracks, full.total_backtracks);
        assert_eq!(
            resumed.backtracks_per_iteration.to_bits(),
            full.backtracks_per_iteration.to_bits()
        );
        let full_ck = full.checkpoint.expect("checkpoint expected");
        let final_ck = resumed.checkpoint.expect("checkpoint expected");
        assert_eq!(final_ck.optimizer.steps, full_ck.optimizer.steps);
        assert_eq!(
            final_ck.optimizer.total_backtracks,
            full_ck.optimizer.total_backtracks
        );
    }

    #[test]
    fn resume_rejects_mismatched_checkpoint() {
        let mut d = BenchmarkConfig::ispd05_like("gp", 69).scale(200).generate();
        initial_placement(&mut d);
        let problem = PlacementProblem::all_movables(&d);
        let mut trace = Vec::new();
        let cfg = EplaceConfig::fast();
        let out = run_global_placement(
            &mut d,
            &problem,
            &cfg,
            Stage::Mgp,
            None,
            Some(5),
            &mut trace,
        )
        .unwrap();
        let mut ck = out.checkpoint.unwrap();
        ck.best_pos.pop();
        ck.optimizer.u.pop();
        let err =
            resume_global_placement(&mut d, &problem, &cfg, Stage::Mgp, &ck, None, &mut trace)
                .unwrap_err();
        assert!(matches!(err, EplaceError::Validation { .. }));
    }

    #[test]
    fn profile_records_runtime_split() {
        let (_, out, _) = run(200, 66);
        assert!(out.profile.density_seconds > 0.0);
        assert!(out.profile.wirelength_seconds > 0.0);
        let (d_pct, w_pct, o_pct) = out.profile.percentages();
        assert!((d_pct + w_pct + o_pct - 100.0).abs() < 1e-6);
    }

    /// Keeps journal lines and cancels `token` once `after` iteration
    /// records are written, so a run is cancelled at a known iteration.
    struct CancellingSink {
        lines: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
        token: crate::CancelToken,
        after: usize,
    }

    impl eplace_obs::JournalSink for CancellingSink {
        fn write_line(&mut self, line: &str) {
            let mut lines = self.lines.lock().unwrap();
            lines.push(line.to_string());
            let iters = lines.iter().filter(|l| l.contains(r#""type":"iter""#));
            if iters.count() == self.after {
                self.token.cancel();
            }
        }
    }

    /// Runs a 200-cell mGP capped at `cap` iterations, cancelled after
    /// `cancel_after` of them; returns whether it ended `Ok` and its stop
    /// records.
    fn stop_records(cap: usize, cancel_after: usize) -> (bool, Vec<String>) {
        let lines = std::sync::Arc::default();
        let token = crate::CancelToken::new();
        let sink = CancellingSink {
            lines: std::sync::Arc::clone(&lines),
            token: token.clone(),
            after: cancel_after,
        };
        let mut d = BenchmarkConfig::ispd05_like("stop", 5)
            .scale(200)
            .generate();
        initial_placement(&mut d);
        let problem = PlacementProblem::all_movables(&d);
        let cfg = EplaceConfig {
            obs: Obs::with_sink(Box::new(sink)),
            cancel: token,
            ..EplaceConfig::fast()
        };
        let out = run_global_placement(
            &mut d,
            &problem,
            &cfg,
            Stage::Mgp,
            None,
            Some(cap),
            &mut Vec::new(),
        );
        let stops = lines
            .lock()
            .unwrap()
            .iter()
            .filter(|l| l.contains(r#""type":"stop""#))
            .cloned()
            .collect();
        (out.is_ok(), stops)
    }

    #[test]
    fn capped_and_cancelled_stages_journal_their_stop() {
        let (ok, stops) = stop_records(5, usize::MAX);
        assert!(ok);
        assert_eq!(
            stops,
            [r#"{"type":"stop","stage":"mgp","iter":4,"reason":"iteration_cap"}"#]
        );
        let (ok, stops) = stop_records(50, 3);
        assert!(!ok, "the token cancels the run");
        assert_eq!(
            stops,
            [r#"{"type":"stop","stage":"mgp","iter":2,"reason":"cancelled"}"#]
        );
    }

    /// The `threads` knob must never make the placer nondeterministic:
    /// threads = 1 is bit-identical to the default serial config, and any
    /// parallel setting gives identical trajectories run after run (the
    /// chunked reductions fix the floating-point association independently
    /// of scheduling).
    #[test]
    fn threads_config_is_run_to_run_deterministic() {
        // Both designs place more objects (fillers included) than the
        // density deposit's 1 024-object parallel threshold, so threads ≥ 2
        // run the chunked deposit; the mms_like macros are wide enough to
        // take heap stencil slots.
        let designs = [
            BenchmarkConfig::ispd05_like("det", 67).scale(700),
            BenchmarkConfig::mms_like("det", 67, 0.8, 12).scale(600),
        ];
        for base in designs {
            let run_with = |threads: usize| {
                let mut d = base.generate();
                initial_placement(&mut d);
                insert_fillers(&mut d, 67);
                let problem = PlacementProblem::all_movables(&d);
                assert!(
                    problem.len() > 1024,
                    "{} objects do not reach the parallel deposit",
                    problem.len()
                );
                let mut trace = Vec::new();
                let cfg = EplaceConfig {
                    threads,
                    ..EplaceConfig::fast()
                };
                run_global_placement(
                    &mut d,
                    &problem,
                    &cfg,
                    Stage::Mgp,
                    None,
                    Some(25),
                    &mut trace,
                )
                .unwrap();
                trace
                    .iter()
                    .map(|r| (r.hpwl.to_bits(), r.overflow.to_bits(), r.lambda.to_bits()))
                    .collect::<Vec<_>>()
            };
            let serial = run_with(1);
            assert_eq!(serial, run_with(1), "serial run must be reproducible");
            let par = run_with(2);
            assert_eq!(par, run_with(2), "parallel run must be reproducible");
            for threads in [3, 4] {
                assert_eq!(
                    par,
                    run_with(threads),
                    "trajectory must not depend on thread count ({threads})"
                );
            }
        }
    }
}
