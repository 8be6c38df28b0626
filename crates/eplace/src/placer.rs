use crate::routability::{run_routability_loop, RoutabilityOutcome};
use crate::trace::{IterationRecord, RuntimeProfile, Stage, StageTiming};
use crate::{
    initial_placement, insert_fillers, run_global_placement, EplaceConfig, MipReport, Obs,
    PlacementProblem,
};
use eplace_density::{grid_dimension, DensityGrid, DensityObject};
use eplace_errors::EplaceError;
use eplace_legalize::{
    detail_place, global_swap, legalize, legalize_abacus, LegalizeError, LegalizeReport,
};
use eplace_mlg::{legalize_macros, MlgReport};
use eplace_netlist::{CellKind, Design};
use std::time::Instant;

/// Everything a run of the flow produced — the raw material for every
/// table and figure reproduction.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// HPWL after cDP (the tables' metric).
    pub final_hpwl: f64,
    /// Scaled HPWL ([`scaled_hpwl`]) at the final layout.
    pub scaled_hpwl: f64,
    /// Final density overflow τ (fraction), by [`measure_overflow`].
    pub final_overflow: f64,
    /// Absolute suboptimality ratio `final_hpwl / optimal_hpwl`, when the
    /// input carried a known-optimum certificate
    /// ([`EplaceConfig::known_optimum_hpwl`]); `None` for ordinary designs
    /// whose optimum nobody knows. ≥ 1 for any legal placement of a valid
    /// certificate.
    pub suboptimality_ratio: Option<f64>,
    /// mIP outcome.
    pub mip: MipReport,
    /// mGP iterations executed.
    pub mgp_iterations: usize,
    /// mGP backtracks per iteration (paper: 1.037 avg on MMS).
    pub mgp_backtracks_per_iteration: f64,
    /// Whether mGP reached the overflow target.
    pub mgp_converged: bool,
    /// Density overflow τ of mGP's committed placement.
    pub mgp_overflow: f64,
    /// Divergence-sentinel trips recovered by rollback, summed across all
    /// global-placement stages. 0 on a healthy run.
    pub recoveries: usize,
    /// mLG outcome (`None` for std-cell-only designs, where mLG/cGP are
    /// disabled per §VII).
    pub mlg: Option<MlgReport>,
    /// cGP iterations (0 for std-cell-only designs).
    pub cgp_iterations: usize,
    /// Legalization outcome (`None` if legalization failed).
    pub legalization: Option<LegalizeReport>,
    /// Error string when legalization failed.
    pub legalization_error: Option<String>,
    /// HPWL improvement from detail placement.
    pub detail_gain: f64,
    /// Wall-clock per stage (Figure 7 outer ring).
    pub stage_timings: Vec<StageTiming>,
    /// mGP-internal runtime split (Figure 7 inner ring).
    pub mgp_profile: RuntimeProfile,
    /// Per-iteration records across all stages (Figures 2/3/6).
    pub trace: Vec<IterationRecord>,
    /// Routability-mode outcome: routing scorecards before and after the
    /// congestion-driven inflation loop ([`crate::RoutabilityConfig`]).
    /// `None` when the mode is off (the default).
    pub routability: Option<RoutabilityOutcome>,
    /// Iterations recorded per global-placement stage, in flow order.
    pub iterations_per_stage: Vec<(Stage, usize)>,
}

impl PlacementReport {
    /// Seconds spent in `stage` (0 when the stage did not run).
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.stage_timings
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.seconds)
            .sum()
    }

    /// Total flow wall-clock.
    pub fn total_seconds(&self) -> f64 {
        self.stage_timings.iter().map(|t| t.seconds).sum()
    }
}

/// The full ePlace flow driver (paper Figure 1): mIP → mGP → (mLG → cGP,
/// mixed-size only) → cDP.
///
/// # Examples
///
/// ```
/// use eplace_benchgen::BenchmarkConfig;
/// use eplace_core::{EplaceConfig, Placer};
///
/// let design = BenchmarkConfig::ispd05_like("demo", 2).scale(200).generate();
/// let mut placer = Placer::new(design, EplaceConfig::fast());
/// let report = placer.run().unwrap();
/// println!("final HPWL: {:.4e}", report.final_hpwl);
/// ```
#[derive(Debug)]
pub struct Placer {
    design: Design,
    config: EplaceConfig,
}

impl Placer {
    /// Wraps a design with a configuration.
    pub fn new(design: Design, config: EplaceConfig) -> Self {
        Placer { design, config }
    }

    /// The (current) design; after [`Placer::run`], positions are final.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the placer, returning the design.
    pub fn into_design(self) -> Design {
        self.design
    }

    /// Executes the flow and returns the report.
    ///
    /// Records into [`EplaceConfig::obs`] exactly as configured: the
    /// disabled default records nothing. An enabled recorder gets the
    /// `flow` span tree, and a journaling one ends its journal with one
    /// `summary` record on every exit, failed runs included.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Diverged`] when a global-placement stage exhausts its
    /// divergence-recovery budget (see [`crate::run_global_placement`]);
    /// the design then holds the best placement seen before the failure.
    pub fn run(&mut self) -> Result<PlacementReport, EplaceError> {
        let obs = &self.config.obs;
        let flow_span = obs.span("flow");
        let result = run_flow(&mut self.design, &self.config);
        // Close the flow span so the summary sees its total.
        drop(flow_span);
        if obs.journal_active() {
            obs.journal(obs.summary().to_record());
        }
        obs.flush();
        result
    }
}

/// Times one flow stage into `timings`. `own_span` opens the stage's
/// `flow/<key>` span here, for the stages whose entry point does not open
/// one itself (global placement and the routability loop do).
fn timed_stage<T>(
    timings: &mut Vec<StageTiming>,
    obs: &Obs,
    stage: Stage,
    own_span: bool,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = if own_span {
        in_span(obs, stage.key(), f)
    } else {
        f()
    };
    timings.push(StageTiming {
        stage,
        seconds: t.elapsed().as_secs_f64(),
    });
    out
}

/// Runs `f` inside the span `name`.
fn in_span<T>(obs: &Obs, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs.span(name);
    f()
}

/// The stages of [`Placer::run`], inside its `flow` span.
fn run_flow(design: &mut Design, cfg: &EplaceConfig) -> Result<PlacementReport, EplaceError> {
    let obs = &cfg.obs;
    let mut trace = Vec::new();
    let mut timings = Vec::new();

    // --- mIP ---------------------------------------------------------------
    let mip = timed_stage(&mut timings, obs, Stage::Mip, true, || {
        initial_placement(design)
    });
    obs.add("mip_cg_iterations", mip.cg_iterations as u64);
    obs.add("mip_rebuilds", mip.rebuilds as u64);

    // --- mGP ---------------------------------------------------------------
    let mgp = timed_stage(&mut timings, obs, Stage::Mgp, false, || {
        design.remove_fillers();
        insert_fillers(design, cfg.seed);
        let problem = PlacementProblem::all_movables(design);
        let mgp = run_global_placement(design, &problem, cfg, Stage::Mgp, None, None, &mut trace)?;
        design.remove_fillers();
        Ok::<_, EplaceError>(mgp)
    })?;
    let mut recoveries = mgp.recoveries;

    // --- mLG + cGP (mixed-size only, §VII) ----------------------------------
    let has_movable_macros = design
        .cells
        .iter()
        .any(|c| c.kind == CellKind::Macro && c.is_movable());
    let mut mlg_report = None;
    let mut cgp_iterations = 0;
    if has_movable_macros {
        // mLG: anneal macros over the std-cell coverage, then fix them.
        let mlg = timed_stage(&mut timings, obs, Stage::Mlg, true, || {
            in_span(obs, "mlg_anneal", || legalize_macros(design, &cfg.mlg))
        });
        obs.add("mlg_outer_iterations", mlg.outer_iterations as u64);
        obs.add("mlg_moves_attempted", mlg.moves_attempted as u64);
        obs.add("mlg_moves_accepted", mlg.moves_accepted as u64);
        mlg_report = Some(mlg);

        // Filler-only relocation (§VI-B), then cGP.
        recoveries += timed_stage(&mut timings, obs, Stage::FillerOnly, false, || {
            insert_fillers(design, cfg.seed.wrapping_add(1));
            if !cfg.enable_filler_phase {
                return Ok(0);
            }
            let fillers = PlacementProblem::fillers_only(design);
            let cap = Some(cfg.filler_phase_iterations);
            run_global_placement(
                design,
                &fillers,
                cfg,
                Stage::FillerOnly,
                None,
                cap,
                &mut trace,
            )
            .map(|gp| gp.recoveries)
        })?;

        let cgp = timed_stage(&mut timings, obs, Stage::Cgp, false, || {
            let problem = PlacementProblem::all_movables(design);
            // λ rewind: m buffering iterations to recover mGP's
            // aggressiveness (§VI-B), m = mGP iterations / 10.
            let m = (mgp.iterations / 10) as i32;
            let lambda_init = mgp.lambda_last * cfg.lambda_mu_max.powi(-m);
            let cgp = run_global_placement(
                design,
                &problem,
                cfg,
                Stage::Cgp,
                Some(lambda_init),
                None,
                &mut trace,
            )?;
            design.remove_fillers();
            Ok::<_, EplaceError>(cgp)
        })?;
        cgp_iterations = cgp.iterations;
        recoveries += cgp.recoveries;
    }

    // --- Routability (optional, §VIII): route, inflate, refine -------------
    let mut routability = None;
    if let Some(rcfg) = &cfg.routability {
        let out = timed_stage(&mut timings, obs, Stage::RouteRefine, false, || {
            run_routability_loop(design, cfg, rcfg, &mut trace)
        })?;
        recoveries += out.recoveries;
        routability = Some(out);
    }

    // --- cDP ---------------------------------------------------------------
    let cdp = timed_stage(&mut timings, obs, Stage::Cdp, true, || run_cdp(design, cfg));
    let (legal, legal_err, detail_gain) = match cdp {
        Ok((legal, gain)) => (Some(legal), None, gain),
        Err(e) => (None, Some(e.to_string()), 0.0),
    };

    // --- Final scoring -------------------------------------------------------
    let final_hpwl = design.hpwl();
    let final_overflow = measure_overflow(design);
    let suboptimality_ratio = cfg.known_optimum_hpwl.map(|opt| final_hpwl / opt);

    Ok(PlacementReport {
        final_hpwl,
        scaled_hpwl: scaled_hpwl(final_hpwl, final_overflow),
        final_overflow,
        suboptimality_ratio,
        mip,
        mgp_iterations: mgp.iterations,
        mgp_backtracks_per_iteration: mgp.backtracks_per_iteration,
        mgp_converged: mgp.converged,
        mgp_overflow: mgp.final_overflow,
        recoveries,
        mlg: mlg_report,
        cgp_iterations,
        legalization: legal,
        legalization_error: legal_err,
        detail_gain,
        routability,
        stage_timings: timings,
        mgp_profile: mgp.profile,
        iterations_per_stage: iterations_per_stage(&trace),
        trace,
    })
}

/// Iteration counts per stage, in the order the stages first appear in the
/// trace (recovery rollbacks already truncated their discarded records).
fn iterations_per_stage(trace: &[IterationRecord]) -> Vec<(Stage, usize)> {
    let mut out: Vec<(Stage, usize)> = Vec::new();
    for r in trace {
        match out.iter_mut().find(|(s, _)| *s == r.stage) {
            Some((_, n)) => *n += 1,
            None => out.push((r.stage, 1)),
        }
    }
    out
}

/// cDP, the discrete finish of the flow: legalization, then
/// [`EplaceConfig::detail_passes`] of in-row detail placement, as many
/// cross-row global-swap passes, and one last detail pass. Returns the
/// legalization report and the HPWL gained after legalization.
///
/// Abacus legalizes when [`EplaceConfig::use_abacus`] is set, with Tetris
/// as the fallback when its greedy segment selection runs out of room;
/// Tetris alone otherwise. [`Placer::run`] finishes with this, and so does
/// every harness that scores another global placer, so all placers share
/// one finish. Spans, counters and gauges go to [`EplaceConfig::obs`].
///
/// # Errors
///
/// The last legalizer's [`LegalizeError`] when no legalizer fits every
/// cell; the design is then only partly legalized.
pub fn run_cdp(
    design: &mut Design,
    cfg: &EplaceConfig,
) -> Result<(LegalizeReport, f64), LegalizeError> {
    let obs = &cfg.obs;
    let tetris = |design: &mut Design| in_span(obs, "legalize_tetris", || legalize(design));
    let legal = if cfg.use_abacus {
        in_span(obs, "legalize_abacus", || legalize_abacus(design)).or_else(|_| tetris(design))
    } else {
        tetris(design)
    }?;
    obs.add("legalize_runs", 1);
    obs.add("legalize_cells_placed", legal.placed as u64);
    obs.set_gauge("legalize_total_displacement", legal.total_displacement);
    obs.set_gauge("legalize_max_displacement", legal.max_displacement);
    let detail = |design: &mut Design, passes| {
        let gain = in_span(obs, "detail_place", || detail_place(design, passes));
        obs.set_gauge("detail_place_gain", gain);
        gain
    };
    let gain = detail(design, cfg.detail_passes);
    let swap_gain = in_span(obs, "global_swap", || {
        global_swap(design, cfg.detail_passes)
    });
    obs.set_gauge("global_swap_gain", swap_gain);
    Ok((legal, gain + swap_gain + detail(design, 1)))
}

/// The overflow oracle: density overflow τ of the current (filler-free)
/// layout on a grid of `√movables` bins a side, clamped to `[16, 512]`.
/// Every placer is scored with it, ePlace included, so the reported τ and
/// scaled HPWL do not depend on any placer's own grid settings.
pub fn measure_overflow(design: &Design) -> f64 {
    let movables: Vec<usize> = design.movable_indices().collect();
    if movables.is_empty() {
        return 0.0;
    }
    let dim = grid_dimension(movables.len(), 16, 512);
    let mut grid = DensityGrid::new(design.region, dim, dim, design.target_density);
    for c in design.cells.iter().filter(|c| c.fixed) {
        grid.add_fixed(c.rect());
    }
    let objects: Vec<DensityObject> = movables
        .iter()
        .map(|&i| DensityObject::movable(design.cells[i].size))
        .collect();
    let pos: Vec<_> = movables.iter().map(|&i| design.cells[i].pos).collect();
    grid.deposit(&objects, &pos);
    grid.overflow()
}

/// Scaled HPWL per the ISPD-2006 protocol, `HPWL·(1 + 0.01·τ_avg)`, with
/// `τ_avg` the percentage density overflow (`overflow` is a fraction).
pub fn scaled_hpwl(hpwl: f64, overflow: f64) -> f64 {
    hpwl * (1.0 + 0.01 * (overflow * 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_legalize::check_legal;

    #[test]
    fn stdcell_flow_end_to_end() {
        let design = BenchmarkConfig::ispd05_like("flow", 71)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.mgp_converged, "tau={}", report.final_overflow);
        assert!(report.mlg.is_none(), "std-cell suite must skip mLG");
        assert_eq!(report.cgp_iterations, 0);
        assert!(
            report.legalization.is_some(),
            "{:?}",
            report.legalization_error
        );
        assert!(check_legal(placer.design()).is_ok());
        assert!(report.final_hpwl > 0.0);
        assert!(report.detail_gain >= 0.0);
    }

    #[test]
    fn mixed_size_flow_end_to_end() {
        let design = BenchmarkConfig::mms_like("flowm", 72, 1.0, 5)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        let mlg = report.mlg.as_ref().expect("mixed-size flow runs mLG");
        assert!(mlg.legalized, "macro overlap {}", mlg.macro_overlap_after);
        assert!(report.cgp_iterations > 0);
        assert!(
            report.legalization.is_some(),
            "{:?}",
            report.legalization_error
        );
        assert!(
            check_legal(placer.design()).is_ok(),
            "{:?}",
            check_legal(placer.design())
        );
        // Macros end up fixed and non-overlapping.
        for c in placer.design().cells.iter() {
            if c.kind == CellKind::Macro {
                assert!(c.fixed);
            }
        }
    }

    #[test]
    fn stage_timings_cover_flow() {
        let design = BenchmarkConfig::ispd05_like("flow", 73)
            .scale(200)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.stage_seconds(Stage::Mip) > 0.0);
        assert!(report.stage_seconds(Stage::Mgp) > 0.0);
        assert!(report.stage_seconds(Stage::Cdp) > 0.0);
        assert!(report.total_seconds() >= report.stage_seconds(Stage::Mgp));
    }

    #[test]
    fn trace_spans_stages_for_mixed_flow() {
        let design = BenchmarkConfig::mms_like("flowt", 74, 1.0, 4)
            .scale(200)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        let stages: std::collections::HashSet<_> = report.trace.iter().map(|r| r.stage).collect();
        assert!(stages.contains(&Stage::Mgp));
        assert!(stages.contains(&Stage::FillerOnly));
        assert!(stages.contains(&Stage::Cgp));
    }

    #[test]
    fn scaled_hpwl_at_least_hpwl() {
        let design = BenchmarkConfig::ispd06_like("flow6", 75, 0.8)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.scaled_hpwl >= report.final_hpwl);
    }

    #[test]
    fn suboptimality_ratio_only_with_certificate() {
        let (design, opt) = BenchmarkConfig::peko_like("peko_flow", 77)
            .scale(150)
            .generate_known_optimum();
        let cfg = EplaceConfig {
            known_optimum_hpwl: Some(opt.hpwl),
            ..EplaceConfig::fast()
        };
        let mut placer = Placer::new(design, cfg);
        let report = placer.run().unwrap();
        assert!(report.legalization.is_some());
        let ratio = report.suboptimality_ratio.expect("certificate provided");
        assert!(ratio.is_finite());
        assert!(ratio >= 1.0, "legal placement beat the optimum: {ratio}");
        assert_eq!(ratio, report.final_hpwl / opt.hpwl);

        // Ordinary designs report no ratio.
        let design = BenchmarkConfig::ispd05_like("plain", 78)
            .scale(150)
            .generate();
        let report = Placer::new(design, EplaceConfig::fast()).run().unwrap();
        assert!(report.suboptimality_ratio.is_none());
    }

    #[test]
    fn overflow_oracle_spread_vs_piled() {
        let mut d = BenchmarkConfig::ispd05_like("o", 81).scale(200).generate();
        // Generator scatters uniformly: moderate overflow.
        let scattered = measure_overflow(&d);
        // Pile everything up.
        let center = d.region.center();
        for c in d.cells.iter_mut().filter(|c| c.is_movable()) {
            c.pos = center;
        }
        let piled = measure_overflow(&d);
        assert!(piled > scattered);
        assert!(piled > 0.5);
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let design = BenchmarkConfig::ispd05_like("det", 76)
                .scale(200)
                .generate();
            Placer::new(design, EplaceConfig::fast())
                .run()
                .unwrap()
                .final_hpwl
        };
        assert_eq!(mk(), mk());
    }
}
