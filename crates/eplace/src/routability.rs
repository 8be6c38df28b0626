//! Congestion-driven inflation — the routability extension sketched in the
//! paper's §VIII, implemented in the RePlAce style.
//!
//! After global placement converges on density, the design is routed by the
//! probabilistic global router ([`eplace_route`]). Cells sitting in (or
//! next to) overflowed gcells are *inflated* — their width scaled up by the
//! local congestion ratio — which raises the local density and lets the
//! existing eDensity machinery, unchanged, push cells out of routing
//! hotspots during a bounded refinement round. Refinement is *local*: every
//! cell outside the congested neighborhoods is temporarily frozen (marked
//! fixed, so the density system stamps it as static charge) and only the
//! hotspot cells re-place. Because a fresh λ ramp tends to over-spread the
//! hotspot set, each round ends with a trust-region line search: the moved
//! placement is blended back toward the pre-round placement by a factor
//! α ∈ (0, 1], each blend within the HPWL budget is routed, and the α with
//! the lowest total overflow wins. A round that cannot find an improving
//! blend is rolled back and ends the loop. Inflated widths are
//! restored on exit (inflation is a placement device, not a real size
//! change), so legalization and scoring see the true cell sizes.
//!
//! Determinism: the router is bitwise deterministic (see [`eplace_route`]),
//! the inflation rule and the blend search are pure functions of the routed
//! grid, and the refinement rounds run through the same guarded Nesterov
//! loop as every other stage — the whole mode is reproducible bit for bit,
//! and leaving it disabled ([`crate::EplaceConfig::routability`] `= None`)
//! provably cannot perturb the flow: this module is never entered.

use crate::trace::{IterationRecord, Stage};
use crate::{run_global_placement, EplaceConfig, GpOutcome, PlacementProblem};
use eplace_errors::EplaceError;
use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design};
use eplace_obs::Record;
use eplace_route::{
    route_design, CapacityGrid, RoutabilityReport, RouteConfig, RouteResult, OVERFLOW_THRESHOLD,
};

/// Blend factors tried by the per-round trust-region line search, largest
/// first. 1.0 is the raw refinement result; smaller values pull the moved
/// cells back toward the pre-round placement.
const BLEND_ALPHAS: [f64; 9] = [1.0, 0.85, 0.7, 0.55, 0.45, 0.35, 0.25, 0.15, 0.1];

/// Iteration cap of each refinement global-placement round.
const REFINE_ITERATIONS: usize = 80;

/// Per-round cap on a cell's width scale factor.
const ROUND_INFLATION_MAX: f64 = 1.5;

/// Cumulative cap on a cell's width relative to its original width.
const TOTAL_INFLATION_MAX: f64 = 2.5;

/// Fraction of the usable placement capacity
/// (`region area × ρ_t − fixed area`) the inflated movable area may occupy;
/// proposed inflation beyond it is scaled back uniformly so the density
/// system stays feasible.
const AREA_BUDGET_FRAC: f64 = 0.9;

/// Weight of the 8 neighboring gcells when a cell's local congestion is
/// sampled (hotspot dilation): a cell is inflated when
/// `max(own, frac × neighbors) >` [`OVERFLOW_THRESHOLD`].
const NEIGHBOR_CONGESTION_FRAC: f64 = 0.8;

/// Cumulative HPWL increase (fraction of the HPWL entering the loop) a
/// refinement round may pay; the blend search only accepts rounds within
/// this budget.
pub const MAX_HPWL_COST: f64 = 0.05;

/// Routing overflow (track units) at or below which the loop stops.
const STOP_OVERFLOW: f64 = 0.0;

/// Settings of the congestion-driven inflation loop
/// ([`crate::EplaceConfig::routability`]; `None` disables the mode). The
/// loop's caps and budgets are constants, among them the HPWL budget
/// [`MAX_HPWL_COST`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutabilityConfig {
    /// Routing model handed to [`eplace_route::route_design`].
    pub route: RouteConfig,
    /// Inflation/refinement rounds attempted before giving up.
    pub max_rounds: usize,
}

impl Default for RoutabilityConfig {
    fn default() -> Self {
        RoutabilityConfig {
            route: RouteConfig::default(),
            max_rounds: 3,
        }
    }
}

/// What the routability mode did to the placement — carried in
/// [`crate::PlacementReport::routability`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutabilityOutcome {
    /// Routing scorecard of the placement as global placement left it.
    pub initial: RoutabilityReport,
    /// Scorecard after the last accepted refinement round (equals
    /// [`RoutabilityOutcome::initial`] when no round ran or helped).
    pub final_report: RoutabilityReport,
    /// Refinement rounds whose result was accepted.
    pub rounds: usize,
    /// Cells inflated across all rounds (with repetition).
    pub inflated_cells: usize,
    /// HPWL entering the loop.
    pub hpwl_before: f64,
    /// HPWL after the loop (the congestion/wirelength trade).
    pub hpwl_after: f64,
    /// Divergence recoveries inside the refinement rounds.
    pub recoveries: usize,
}

impl RoutabilityOutcome {
    /// Fractional reduction of total routing overflow (1.0 = fully
    /// resolved; 0.0 = unchanged or initially clean).
    pub fn overflow_reduction(&self) -> f64 {
        if self.initial.total_overflow <= 0.0 {
            return 0.0;
        }
        1.0 - self.final_report.total_overflow / self.initial.total_overflow
    }

    /// Fractional HPWL cost paid for the congestion relief.
    pub fn hpwl_cost(&self) -> f64 {
        if self.hpwl_before <= 0.0 {
            return 0.0;
        }
        self.hpwl_after / self.hpwl_before - 1.0
    }
}

/// Runs the routability loop over a converged (filler-free) global
/// placement. Original cell widths are restored on every exit path;
/// positions keep the accepted refinement.
pub(crate) fn run_routability_loop(
    design: &mut Design,
    cfg: &EplaceConfig,
    rcfg: &RoutabilityConfig,
    trace: &mut Vec<IterationRecord>,
) -> Result<RoutabilityOutcome, EplaceError> {
    let obs = cfg.obs.clone();
    let _span = obs.span("routability");
    let exec = cfg.exec();
    let route = |d: &Design| {
        let _span = obs.span("route");
        route_design(d, &rcfg.route, &exec)
    };
    let hpwl_before = design.hpwl();
    let orig_widths: Vec<f64> = design.cells.iter().map(|c| c.size.width).collect();

    let mut result = route(design);
    let initial = result.report.clone();
    journal_round(&obs, 0, &initial);
    let mut accepted = initial.clone();
    let mut rounds = 0;
    let mut inflated_cells = 0;
    let mut recoveries = 0;

    while rounds < rcfg.max_rounds && accepted.total_overflow > STOP_OVERFLOW {
        // Hotspot selection + inflation from the last accepted routing.
        let (hot, inflated) = inflate(design, &result.grid, &orig_widths);
        if inflated == 0 {
            break; // nothing left to inflate — the loop cannot make progress
        }
        inflated_cells += inflated;

        let saved_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let refine = match refine(design, &hot, cfg, trace) {
            Ok(r) => r,
            Err(e) => {
                for (c, &p) in design.cells.iter_mut().zip(&saved_pos) {
                    c.pos = p;
                }
                restore_widths(design, &orig_widths);
                return Err(e);
            }
        };
        recoveries += refine.recoveries;
        let moved_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();

        let mut routed_blends = 0;
        let best = best_blend(
            design,
            &saved_pos,
            &moved_pos,
            &orig_widths,
            hpwl_before,
            accepted.total_overflow,
            |candidate| {
                routed_blends += 1;
                route(candidate)
            },
        );
        obs.add("route_blends_routed", routed_blends);
        obs.add(
            "route_blends_over_budget",
            BLEND_ALPHAS.len() as u64 - routed_blends,
        );

        match best {
            Some((alpha, routed)) => {
                // Commit the blend; widths stay inflated so the next round
                // compounds under the cumulative cap.
                for ((c, &p0), &p1) in design.cells.iter_mut().zip(&saved_pos).zip(&moved_pos) {
                    c.pos = p0 + (p1 - p0) * alpha;
                }
                accepted = routed.report.clone();
                result = routed;
                rounds += 1;
                journal_round(&obs, rounds, &accepted);
            }
            None => {
                // The round found no improving blend: roll back and stop.
                for (c, &p) in design.cells.iter_mut().zip(&saved_pos) {
                    c.pos = p;
                }
                break;
            }
        }
    }

    restore_widths(design, &orig_widths);
    let hpwl_after = design.hpwl();
    Ok(RoutabilityOutcome {
        initial,
        final_report: accepted,
        rounds,
        inflated_cells,
        hpwl_before,
        hpwl_after,
        recoveries,
    })
}

/// Local refinement: freezes every cell outside the `hot` mask so the
/// density system treats it as static charge and only the congested
/// neighborhoods re-place, then restores the fixed flags.
fn refine(
    design: &mut Design,
    hot: &[bool],
    cfg: &EplaceConfig,
    trace: &mut Vec<IterationRecord>,
) -> Result<GpOutcome, EplaceError> {
    let saved_fixed: Vec<bool> = design.cells.iter().map(|c| c.fixed).collect();
    for (c, &h) in design.cells.iter_mut().zip(hot) {
        if !h {
            c.fixed = true;
        }
    }
    let problem = PlacementProblem::all_movables(design);
    let refine = run_global_placement(
        design,
        &problem,
        cfg,
        Stage::RouteRefine,
        None, // fresh λ ramp: refinement re-derives its own density pressure
        Some(REFINE_ITERATIONS),
        trace,
    );
    for (c, &f) in design.cells.iter_mut().zip(&saved_fixed) {
        c.fixed = f;
    }
    refine
}

/// Trust-region line search over one refinement round: blends the refined
/// placement `moved` back toward the pre-round placement `saved`,
/// `p₀ + α(p₁ − p₀)` for each α of [`BLEND_ALPHAS`], and returns the α
/// whose routed overflow is lowest and strictly below `accepted_overflow`,
/// with its routing. A blend is admissible only within the cumulative HPWL
/// budget [`MAX_HPWL_COST`]; an over-budget (or NaN-cost) blend is never
/// routed. Ties keep the larger α.
///
/// The blends are written into one clone of `design` carrying the
/// *original* widths — the score must reflect the real design — and the
/// clone is dropped on return.
fn best_blend(
    design: &Design,
    saved: &[Point],
    moved: &[Point],
    orig_widths: &[f64],
    hpwl_before: f64,
    accepted_overflow: f64,
    mut route: impl FnMut(&Design) -> RouteResult,
) -> Option<(f64, RouteResult)> {
    let mut candidate = design.clone();
    restore_widths(&mut candidate, orig_widths);
    let mut best: Option<(f64, RouteResult)> = None;
    for &alpha in &BLEND_ALPHAS {
        for ((c, &p0), &p1) in candidate.cells.iter_mut().zip(saved).zip(moved) {
            c.pos = p0 + (p1 - p0) * alpha;
        }
        let hpwl_cost = candidate.hpwl() / hpwl_before - 1.0;
        if hpwl_cost <= MAX_HPWL_COST {
            let routed = route(&candidate);
            let overflow = routed.report.total_overflow;
            if overflow < accepted_overflow
                && best
                    .as_ref()
                    .is_none_or(|(_, b)| overflow < b.report.total_overflow)
            {
                best = Some((alpha, routed));
            }
        }
    }
    best
}

/// Samples a cell's local congestion: its own gcell at full weight, the 8
/// neighbors damped by [`NEIGHBOR_CONGESTION_FRAC`] (hotspot dilation —
/// cells just outside an overflowed bin must also make room).
fn local_congestion(grid: &CapacityGrid, pos: Point) -> f64 {
    let (gx, gy) = grid.gcell_of(pos);
    let mut cong = grid.congestion(gx, gy);
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            if dx == 0 && dy == 0 {
                continue;
            }
            let nx = gx as i64 + dx;
            let ny = gy as i64 + dy;
            if nx >= 0 && ny >= 0 && (nx as usize) < grid.nx() && (ny as usize) < grid.ny() {
                cong =
                    cong.max(NEIGHBOR_CONGESTION_FRAC * grid.congestion(nx as usize, ny as usize));
            }
        }
    }
    cong
}

/// Scales the widths of movable std cells in congested neighborhoods by the
/// local congestion ratio (clamped per round and cumulatively), then scales
/// the whole proposal back if it would overrun the area budget. Returns the
/// hotspot mask (`true` = the cell may move in the refinement round) and
/// the number of cells actually inflated.
fn inflate(design: &mut Design, grid: &CapacityGrid, orig_widths: &[f64]) -> (Vec<bool>, usize) {
    let mut hot = vec![false; design.cells.len()];
    let mut proposals: Vec<(usize, f64)> = Vec::new();
    let mut delta_area = 0.0;
    for (i, c) in design.cells.iter().enumerate() {
        if c.fixed || c.kind != CellKind::StdCell {
            continue;
        }
        let congestion = local_congestion(grid, c.pos);
        if congestion <= OVERFLOW_THRESHOLD {
            continue;
        }
        hot[i] = true;
        let factor = congestion.clamp(1.0, ROUND_INFLATION_MAX);
        let new_w = (c.size.width * factor).min(orig_widths[i] * TOTAL_INFLATION_MAX);
        if new_w > c.size.width {
            delta_area += (new_w - c.size.width) * c.size.height;
            proposals.push((i, new_w));
        }
    }
    if proposals.is_empty() {
        return (hot, 0);
    }

    // Global feasibility guard: inflation may not push the movable area
    // past a fixed fraction of the usable capacity.
    let capacity = design.region.area() * design.target_density;
    let fixed_area: f64 = design
        .cells
        .iter()
        .filter(|c| c.fixed)
        .map(|c| c.area())
        .sum();
    let movable_area: f64 = design
        .cells
        .iter()
        .filter(|c| !c.fixed && c.kind != CellKind::Filler)
        .map(|c| c.area())
        .sum();
    let budget = (AREA_BUDGET_FRAC * (capacity - fixed_area) - movable_area).max(0.0);
    let scale = if delta_area > budget {
        budget / delta_area
    } else {
        1.0
    };

    let mut inflated = 0;
    for &(i, new_w) in &proposals {
        let cur = design.cells[i].size.width;
        let w = cur + scale * (new_w - cur);
        if w > cur {
            design.cells[i].size.width = w;
            inflated += 1;
        }
    }
    (hot, inflated)
}

/// Restores the pre-inflation cell widths (positions — cell centers — are
/// untouched, so HPWL is unaffected by the restore).
fn restore_widths(design: &mut Design, orig_widths: &[f64]) {
    for (c, &w) in design.cells.iter_mut().zip(orig_widths) {
        c.size.width = w;
    }
}

fn journal_round(obs: &eplace_obs::Obs, round: usize, report: &RoutabilityReport) {
    if obs.journal_active() {
        obs.journal(
            Record::new("route")
                .u64_field("round", round as u64)
                .u64_field("segments", report.segments as u64)
                .u64_field("rerouted", report.rerouted as u64)
                .u64_field("overflowed_bins", report.overflowed_bins as u64)
                .f64_field("routed_wl", report.routed_wl)
                .f64_field("total_overflow", report.total_overflow)
                .f64_field("peak_congestion", report.peak_congestion),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{initial_placement, insert_fillers};
    use eplace_benchgen::BenchmarkConfig;
    use eplace_exec::ExecConfig;

    /// Oracle for [`best_blend`]: the search as it ran before over-budget
    /// blends were skipped. Every α gets a fresh clone of `design` and is
    /// routed before its HPWL cost is read.
    fn best_blend_reference(
        design: &Design,
        saved: &[Point],
        moved: &[Point],
        orig_widths: &[f64],
        hpwl_before: f64,
        accepted_overflow: f64,
        mut route: impl FnMut(&Design) -> RouteResult,
    ) -> Option<(f64, RouteResult)> {
        let mut best: Option<(f64, RouteResult)> = None;
        for &alpha in &BLEND_ALPHAS {
            let mut candidate = design.clone();
            for ((c, &p0), (&p1, &w)) in candidate
                .cells
                .iter_mut()
                .zip(saved)
                .zip(moved.iter().zip(orig_widths))
            {
                c.pos = p0 + (p1 - p0) * alpha;
                c.size.width = w;
            }
            let routed = route(&candidate);
            let hpwl_cost = candidate.hpwl() / hpwl_before - 1.0;
            let improves = routed.report.total_overflow < accepted_overflow
                && best
                    .as_ref()
                    .is_none_or(|(_, b)| routed.report.total_overflow < b.report.total_overflow);
            if hpwl_cost <= MAX_HPWL_COST && improves {
                best = Some((alpha, routed));
            }
        }
        best
    }

    /// The inputs of one refinement round's blend search.
    struct Round {
        /// The refined placement, with the round's inflated widths.
        design: Design,
        saved: Vec<Point>,
        moved: Vec<Point>,
        orig_widths: Vec<f64>,
        hpwl_before: f64,
        /// Overflow of the initial routing.
        initial_overflow: f64,
        /// Overflow the round had to beat.
        accepted_overflow: f64,
    }

    fn route_config() -> RouteConfig {
        RouteConfig {
            capacity_scale: 0.5,
            ..RouteConfig::default()
        }
    }

    fn route(design: &Design) -> RouteResult {
        route_design(design, &route_config(), &ExecConfig::serial())
    }

    /// The refinement rounds `run_routability_loop` runs on an
    /// `ispd05_like` circuit at half track capacity, after mIP and mGP
    /// under [`EplaceConfig::fast`], each committed through the reference
    /// search.
    fn real_rounds(cells: usize, seed: u64) -> Vec<Round> {
        let cfg = EplaceConfig::fast();
        let mut design = BenchmarkConfig::ispd05_like(format!("blend{cells}_{seed}"), seed)
            .scale(cells)
            .generate();
        let mut trace = Vec::new();
        initial_placement(&mut design);
        insert_fillers(&mut design, cfg.seed);
        let problem = PlacementProblem::all_movables(&design);
        run_global_placement(
            &mut design,
            &problem,
            &cfg,
            Stage::Mgp,
            None,
            None,
            &mut trace,
        )
        .unwrap();
        design.remove_fillers();

        let hpwl_before = design.hpwl();
        let orig_widths: Vec<f64> = design.cells.iter().map(|c| c.size.width).collect();
        let mut result = route(&design);
        let initial_overflow = result.report.total_overflow;
        let mut rounds = Vec::new();
        while rounds.len() < RoutabilityConfig::default().max_rounds
            && result.report.total_overflow > STOP_OVERFLOW
        {
            let (hot, inflated) = inflate(&mut design, &result.grid, &orig_widths);
            if inflated == 0 {
                break;
            }
            let saved: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
            refine(&mut design, &hot, &cfg, &mut trace).unwrap();
            let moved: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
            let accepted_overflow = result.report.total_overflow;
            let best = best_blend_reference(
                &design,
                &saved,
                &moved,
                &orig_widths,
                hpwl_before,
                accepted_overflow,
                route,
            );
            rounds.push(Round {
                design: design.clone(),
                saved: saved.clone(),
                moved: moved.clone(),
                orig_widths: orig_widths.clone(),
                hpwl_before,
                initial_overflow,
                accepted_overflow,
            });
            let Some((alpha, routed)) = best else { break };
            for ((c, &p0), &p1) in design.cells.iter_mut().zip(&saved).zip(&moved) {
                c.pos = p0 + (p1 - p0) * alpha;
            }
            result = routed;
        }
        rounds
    }

    fn point_bits(points: impl IntoIterator<Item = Point>) -> Vec<(u64, u64)> {
        points
            .into_iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    /// One round's nine blends at refined positions `moved`, each routed
    /// once. The oracle searches look their routings up here: on one
    /// design the router is a pure function of the positions.
    struct Blends {
        positions: Vec<Vec<(u64, u64)>>,
        hpwl_costs: Vec<f64>,
        routes: Vec<RouteResult>,
    }

    impl Blends {
        fn new(round: &Round, moved: &[Point]) -> Blends {
            let mut candidate = round.design.clone();
            let (mut positions, mut hpwl_costs, mut routes) = (Vec::new(), Vec::new(), Vec::new());
            for &alpha in &BLEND_ALPHAS {
                for ((c, &p0), &p1) in candidate.cells.iter_mut().zip(&round.saved).zip(moved) {
                    c.pos = p0 + (p1 - p0) * alpha;
                }
                positions.push(point_bits(candidate.cells.iter().map(|c| c.pos)));
                hpwl_costs.push(candidate.hpwl() / round.hpwl_before - 1.0);
                routes.push(route(&candidate));
            }
            Blends {
                positions,
                hpwl_costs,
                routes,
            }
        }

        /// The ladder index of the blend `design` holds.
        fn index(&self, design: &Design) -> usize {
            let pos = point_bits(design.cells.iter().map(|c| c.pos));
            self.positions
                .iter()
                .position(|p| *p == pos)
                .expect("the candidate is one of the blends")
        }

        fn route(&self, design: &Design) -> RouteResult {
            self.routes[self.index(design)].clone()
        }

        /// Ladder indices of the blends within the HPWL budget.
        fn in_budget(&self) -> Vec<usize> {
            (0..BLEND_ALPHAS.len())
                .filter(|&i| self.hpwl_costs[i] <= MAX_HPWL_COST)
                .collect()
        }
    }

    /// A routing's report (`Debug` prints every float's shortest
    /// round-trip form, so equal strings mean equal bits) and every demand
    /// bit of its grid.
    fn route_bits(r: &RouteResult) -> (String, Vec<u64>) {
        let demand = r.grid.h_demand().iter().chain(r.grid.v_demand());
        (
            format!("{:?}", r.report),
            demand.map(|d| d.to_bits()).collect(),
        )
    }

    /// Runs [`best_blend`] routing through `route` and the reference
    /// routing through `reference_route` over `round` at refined positions
    /// `moved`. Requires the same α and the same routing bit for bit, and
    /// that [`best_blend`] routes exactly the blends of `blends` within the
    /// HPWL budget, in ladder order. Returns the chosen α.
    fn assert_matches_reference(
        round: &Round,
        moved: &[Point],
        blends: &Blends,
        accepted_overflow: f64,
        route: impl Fn(&Design) -> RouteResult,
        reference_route: impl Fn(&Design) -> RouteResult,
    ) -> Option<f64> {
        let mut routed = Vec::new();
        let got = best_blend(
            &round.design,
            &round.saved,
            moved,
            &round.orig_widths,
            round.hpwl_before,
            accepted_overflow,
            |d| {
                routed.push(blends.index(d));
                route(d)
            },
        );
        assert_eq!(routed, blends.in_budget(), "{}", round.design.name);
        let want = best_blend_reference(
            &round.design,
            &round.saved,
            moved,
            &round.orig_widths,
            round.hpwl_before,
            accepted_overflow,
            reference_route,
        );
        let bits = |b: &Option<(f64, RouteResult)>| {
            b.as_ref()
                .map(|(alpha, r)| (alpha.to_bits(), route_bits(r)))
        };
        assert!(
            bits(&got) == bits(&want),
            "{}: α {:?}, reference {:?}",
            round.design.name,
            got.as_ref().map(|b| b.0),
            want.as_ref().map(|b| b.0)
        );
        got.map(|b| b.0)
    }

    /// `p₀ + s(p₁ − p₀)`: the round's refinement step scaled by `s`.
    fn scaled_step(round: &Round, s: f64) -> Vec<Point> {
        round
            .saved
            .iter()
            .zip(&round.moved)
            .map(|(&p0, &p1)| p0 + (p1 - p0) * s)
            .collect()
    }

    #[test]
    fn blend_search_is_bitwise_the_reference() {
        let mut fits = [0usize; BLEND_ALPHAS.len() + 1];
        let mut chosen = 0;
        let mut rounds = 0;
        for cells in [400, 1_200] {
            for seed in [3, 5, 8] {
                for round in real_rounds(cells, seed) {
                    rounds += 1;
                    // A hundredth of the refinement step keeps every blend
                    // within the HPWL budget; ten times puts most or all of
                    // them over it.
                    for s in [0.01, 1.0, 10.0] {
                        let moved = scaled_step(&round, s);
                        let blends = Blends::new(&round, &moved);
                        fits[blends.in_budget().len()] += 1;
                        for accepted in [
                            f64::INFINITY,
                            round.initial_overflow,
                            round.accepted_overflow,
                            0.0,
                        ] {
                            let alpha = assert_matches_reference(
                                &round,
                                &moved,
                                &blends,
                                accepted,
                                route,
                                |d| blends.route(d),
                            );
                            chosen += usize::from(alpha.is_some());
                        }
                    }
                }
            }
        }
        assert!(rounds >= 6, "only {rounds} refinement rounds");
        assert!(fits[0] > 0, "no case put every blend over budget: {fits:?}");
        assert!(
            fits[BLEND_ALPHAS.len()] > 0,
            "no case fit every blend: {fits:?}"
        );
        assert!(
            fits[1..BLEND_ALPHAS.len()].iter().any(|&n| n > 0),
            "no case fit only some blends: {fits:?}"
        );
        assert!(chosen > 0, "no case chose a blend");
    }

    #[test]
    fn crafted_ties_and_non_finite_positions_match_the_reference() {
        let round = real_rounds(400, 3).swap_remove(0);

        // Every blend within budget, the routed overflows crafted so that
        // α = 0.55 and α = 0.45 tie for the lowest: the larger α wins.
        let moved = scaled_step(&round, 0.01);
        let blends = Blends::new(&round, &moved);
        assert_eq!(blends.in_budget().len(), BLEND_ALPHAS.len());
        let crafted = |d: &Design| {
            let i = blends.index(d);
            let mut r = blends.routes[i].clone();
            r.report.total_overflow = if BLEND_ALPHAS[i] == 0.55 || BLEND_ALPHAS[i] == 0.45 {
                1.0
            } else {
                2.0 + i as f64
            };
            r
        };
        let alpha =
            assert_matches_reference(&round, &moved, &blends, f64::INFINITY, crafted, crafted);
        assert_eq!(alpha, Some(0.55));

        // Every cell of one net at x = +∞: the net's span is ∞ − ∞ = NaN,
        // so every blend's HPWL cost is NaN, and none is routed or chosen.
        let net = (0..round.design.nets.len())
            .find(|&n| round.design.net_pins(n).len() >= 2)
            .expect("a net with two pins");
        let pins = round.design.net_pins(net);
        let mut moved = round.moved.clone();
        for pin in pins {
            moved[pin.cell.index()].x = f64::INFINITY;
        }
        let blends = Blends::new(&round, &moved);
        assert!(blends.hpwl_costs.iter().all(|c| c.is_nan()));
        for accepted in [f64::INFINITY, round.accepted_overflow] {
            let alpha = assert_matches_reference(&round, &moved, &blends, accepted, route, route);
            assert_eq!(alpha, None);
        }

        // One cell at NaN. `Design::hpwl` makes each of its nets' length
        // NaN, so every blend's HPWL cost is NaN, and again none is routed
        // or chosen.
        let mut moved = round.moved.clone();
        moved[pins[0].cell.index()] = Point::new(f64::NAN, f64::NAN);
        let blends = Blends::new(&round, &moved);
        assert!(blends.hpwl_costs.iter().all(|c| c.is_nan()));
        for accepted in [f64::INFINITY, round.accepted_overflow] {
            let alpha = assert_matches_reference(&round, &moved, &blends, accepted, route, route);
            assert_eq!(alpha, None);
        }
    }
}
