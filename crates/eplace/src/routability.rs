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
//! α ∈ (0, 1], each blend is routed, and the α with the lowest total
//! overflow within the HPWL budget wins. A round that cannot find an
//! improving blend is rolled back and ends the loop. Inflated widths are
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
use crate::{run_global_placement, EplaceConfig, PlacementProblem};
use eplace_errors::EplaceError;
use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design};
use eplace_obs::Record;
use eplace_route::{
    route_design, CapacityGrid, RoutabilityReport, RouteConfig, OVERFLOW_THRESHOLD,
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
    let hpwl_before = design.hpwl();
    let orig_widths: Vec<f64> = design.cells.iter().map(|c| c.size.width).collect();

    let mut result = route_design(design, &rcfg.route, &exec);
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

        // Local refinement: freeze everything outside the hotspots so the
        // density system treats it as static charge and only the congested
        // neighborhoods re-place.
        let saved_fixed: Vec<bool> = design.cells.iter().map(|c| c.fixed).collect();
        for (c, &h) in design.cells.iter_mut().zip(&hot) {
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
        let refine = match refine {
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

        // Trust-region line search: blend the refinement back toward the
        // pre-round placement and keep the best routed overflow within the
        // cumulative HPWL budget. Routing the blend uses the *original*
        // widths — the score must reflect the real design.
        let mut best: Option<(f64, eplace_route::RouteResult)> = None;
        for &alpha in &BLEND_ALPHAS {
            let mut candidate = design.clone();
            for ((c, &p0), (&p1, &w)) in candidate
                .cells
                .iter_mut()
                .zip(&saved_pos)
                .zip(moved_pos.iter().zip(&orig_widths))
            {
                c.pos = p0 + (p1 - p0) * alpha;
                c.size.width = w;
            }
            let routed = route_design(&candidate, &rcfg.route, &exec);
            let hpwl_cost = candidate.hpwl() / hpwl_before - 1.0;
            let improves = routed.report.total_overflow < accepted.total_overflow
                && best
                    .as_ref()
                    .is_none_or(|(_, b)| routed.report.total_overflow < b.report.total_overflow);
            if hpwl_cost <= MAX_HPWL_COST && improves {
                best = Some((alpha, routed));
            }
        }

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
