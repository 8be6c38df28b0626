use crate::{MlgConfig, FINAL_MAX_ACCEPT, INITIAL_MAX_ACCEPT, INITIAL_RADIUS_FACTOR, KAPPA, SEED};
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, Design};
use eplace_prng::rngs::StdRng;
use eplace_prng::{Rng, SeedableRng};

/// Outcome of [`legalize_macros`] — the before/after triple `(W, D, O_m)`
/// reported in the paper's Figure 5 plus annealer statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MlgReport {
    /// Total wirelength before / after.
    pub wirelength_before: f64,
    /// Total wirelength after mLG (expected to rise slightly: Fig. 5 shows
    /// 63.37e6 → 64.36e6 on ADAPTEC1).
    pub wirelength_after: f64,
    /// Std-cell area covered by macros, before / after.
    pub coverage_before: f64,
    /// Coverage after.
    pub coverage_after: f64,
    /// Total macro overlap `O_m` before / after.
    pub macro_overlap_before: f64,
    /// Overlap after (0 when legalized).
    pub macro_overlap_after: f64,
    /// Outer iterations executed.
    pub outer_iterations: usize,
    /// SA moves attempted / accepted.
    pub moves_attempted: usize,
    /// Accepted moves.
    pub moves_accepted: usize,
    /// `true` when `O_m` reached zero.
    pub legalized: bool,
}

/// Coverage grid resolution (std cells are fixed during mLG, so their area
/// map is built once).
const COVER_GRID: usize = 128;

struct MacroState {
    /// Cell index in the design.
    cell: usize,
    /// Current center.
    pos: Point,
    size: eplace_geometry::Size,
    /// Std-cell area covered at `pos` (this macro's share of `D`), set when
    /// the macro is collected and on every accepted move.
    coverage: f64,
}

/// Static std-cell area accumulated on a coarse grid; sampling a rectangle
/// against it approximates the covered std-cell area `D` in O(bins) instead
/// of O(cells) per move.
struct CoverageGrid {
    region: Rect,
    bin_w: f64,
    bin_h: f64,
    /// std-cell area per bin.
    area: Vec<f64>,
}

impl CoverageGrid {
    fn build(design: &Design) -> Self {
        let region = design.region;
        let bin_w = region.width() / COVER_GRID as f64;
        let bin_h = region.height() / COVER_GRID as f64;
        let mut area = vec![0.0; COVER_GRID * COVER_GRID];
        for cell in &design.cells {
            if cell.kind != CellKind::StdCell {
                continue;
            }
            let r = match cell.rect().intersection(&region) {
                Some(r) => r,
                None => continue,
            };
            let ix0 = ((r.xl - region.xl) / bin_w).floor().max(0.0) as usize;
            let ix1 = (((r.xh - region.xl) / bin_w).ceil() as usize).min(COVER_GRID);
            let iy0 = ((r.yl - region.yl) / bin_h).floor().max(0.0) as usize;
            let iy1 = (((r.yh - region.yl) / bin_h).ceil() as usize).min(COVER_GRID);
            for iy in iy0..iy1 {
                let byl = region.yl + iy as f64 * bin_h;
                for ix in ix0..ix1 {
                    let bxl = region.xl + ix as f64 * bin_w;
                    let o = eplace_geometry::overlap_1d(r.xl, r.xh, bxl, bxl + bin_w)
                        * eplace_geometry::overlap_1d(r.yl, r.yh, byl, byl + bin_h);
                    area[iy * COVER_GRID + ix] += o;
                }
            }
        }
        CoverageGrid {
            region,
            bin_w,
            bin_h,
            area,
        }
    }

    /// Std-cell area inside `rect` (assuming uniform distribution within
    /// each bin).
    fn covered(&self, rect: &Rect) -> f64 {
        let r = match rect.intersection(&self.region) {
            Some(r) => r,
            None => return 0.0,
        };
        let ix0 = ((r.xl - self.region.xl) / self.bin_w).floor().max(0.0) as usize;
        let ix1 = (((r.xh - self.region.xl) / self.bin_w).ceil() as usize).min(COVER_GRID);
        let iy0 = ((r.yl - self.region.yl) / self.bin_h).floor().max(0.0) as usize;
        let iy1 = (((r.yh - self.region.yl) / self.bin_h).ceil() as usize).min(COVER_GRID);
        let bin_area = self.bin_w * self.bin_h;
        // A column's x-overlap is the same in every row: compute it once.
        let cols = ix0..ix1.max(ix0);
        let mut overlap_x = [0.0; COVER_GRID];
        for ix in cols.clone() {
            let bxl = self.region.xl + ix as f64 * self.bin_w;
            overlap_x[ix] = eplace_geometry::overlap_1d(r.xl, r.xh, bxl, bxl + self.bin_w);
        }
        let mut total = 0.0;
        for iy in iy0..iy1 {
            let byl = self.region.yl + iy as f64 * self.bin_h;
            let overlap_y = eplace_geometry::overlap_1d(r.yl, r.yh, byl, byl + self.bin_h);
            let row = &self.area[iy * COVER_GRID..(iy + 1) * COVER_GRID];
            for (a, ox) in row[cols.clone()].iter().zip(&overlap_x[cols.clone()]) {
                let o = ox * overlap_y;
                total += a * o / bin_area;
            }
        }
        total
    }
}

/// Legalizes all movable macros in `design` by direct-motion simulated
/// annealing, then fixes them in place. Standard cells enter only through
/// the static coverage map `D`: their positions and `fixed` flags are never
/// touched, whether or not they are fixed. Fixed non-std blocks are hard
/// overlap obstacles.
pub fn legalize_macros(design: &mut Design, cfg: &MlgConfig) -> MlgReport {
    let mut rng = StdRng::seed_from_u64(SEED);
    let cover = CoverageGrid::build(design);
    // Fixed non-std objects (pre-fixed macros, IO blocks) are hard overlap
    // obstacles; standard cells only enter through the coverage term D.
    let obstacles: Vec<Rect> = design
        .cells
        .iter()
        .filter(|c| c.fixed && !matches!(c.kind, CellKind::StdCell | CellKind::Filler))
        .map(|c| c.rect())
        .collect();
    let mut macros: Vec<MacroState> = design
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::Macro && c.is_movable())
        .map(|(i, c)| MacroState {
            cell: i,
            pos: c.pos,
            size: c.size,
            coverage: cover.covered(&rect_of(c.pos, c.size)),
        })
        .collect();
    let m = macros.len();

    let w_before = design.hpwl();
    let d_before = total_coverage(&macros);
    let om_before = total_macro_overlap(&macros, &obstacles);

    if m == 0 {
        return MlgReport {
            wirelength_before: w_before,
            wirelength_after: w_before,
            coverage_before: 0.0,
            coverage_after: 0.0,
            macro_overlap_before: 0.0,
            macro_overlap_after: 0.0,
            outer_iterations: 0,
            moves_attempted: 0,
            moves_accepted: 0,
            legalized: true,
        };
    }

    let mut attempted = 0usize;
    let mut accepted = 0usize;
    let mut outer_done = 0usize;
    let ln2 = std::f64::consts::LN_2;
    let overlap_eps = 1e-9 * design.region.area();

    for j in 0..cfg.max_outer_iterations {
        outer_done = j + 1;
        let kappa_j = KAPPA.powi(j as i32);
        // --- Outer-iteration cost refresh (Eq. 14) ---------------------
        let w = design.hpwl();
        let d = total_coverage(&macros);
        let om = total_macro_overlap(&macros, &obstacles);
        if om <= overlap_eps {
            break;
        }
        let mu_d = if d > 1e-12 { w / d } else { 1.0 };
        // μ_O starts at parity with wirelength and is scaled κ× per
        // iteration for increasingly aggressive overlap removal.
        let mu_o = (w / om.max(1e-12)) * kappa_j;
        let f_base = w + mu_d * d + mu_o * om;

        let k_max = (cfg.sa_iterations_per_macro * m).max(1);
        let radius0 = design.region.width() / (m as f64).sqrt() * INITIAL_RADIUS_FACTOR * kappa_j;
        for k in 0..k_max {
            attempted += 1;
            let progress = k as f64 / k_max as f64;
            // Temperature from the acceptance target: Δf_max/(ln 2), with
            // Δf_max interpolated 0.03·κ^j → 0.0001·κ^j (relative to f_base).
            let dmax =
                (INITIAL_MAX_ACCEPT + (FINAL_MAX_ACCEPT - INITIAL_MAX_ACCEPT) * progress) * kappa_j;
            let t = dmax / ln2;
            let radius = radius0 * (1.0 - 0.9 * progress);

            let mi = rng.gen_range(0..m);
            let old_pos = macros[mi].pos;
            let dx = rng.gen_range(-radius..=radius);
            let dy = rng.gen_range(-radius..=radius);
            let new_pos = design.region.clamp_center(
                Point::new(old_pos.x + dx, old_pos.y + dy),
                macros[mi].size.width,
                macros[mi].size.height,
            );
            if (new_pos - old_pos).norm() < 1e-12 {
                continue;
            }

            // Incremental Δcost: only the moved macro's terms change.
            let ms = &macros[mi];
            let old_rect = rect_of(old_pos, ms.size);
            let new_rect = rect_of(new_pos, ms.size);
            let coverage = cover.covered(&new_rect);
            let d_cover = coverage - ms.coverage;
            let (o_old, o_new) = overlap_with_others(&macros, mi, &old_rect, &new_rect, &obstacles);
            let d_overlap = o_new - o_old;
            let (w_old, w_new) = incident_hpwl(design, ms.cell, new_pos);
            let delta = (w_new - w_old) + mu_d * d_cover + mu_o * d_overlap;

            let accept = if delta <= 0.0 {
                true
            } else {
                let rel = delta / f_base.max(1e-12);
                rng.gen::<f64>() < (-rel / t).exp()
            };
            if accept {
                let ms = &mut macros[mi];
                ms.pos = new_pos;
                ms.coverage = coverage;
                design.cells[ms.cell].pos = new_pos;
                accepted += 1;
            }
        }
    }

    // Fix the macros at their legalized locations.
    for ms in &macros {
        design.cells[ms.cell].fixed = true;
    }

    let d_after = total_coverage(&macros);
    let om_after = total_macro_overlap(&macros, &obstacles);
    MlgReport {
        wirelength_before: w_before,
        wirelength_after: design.hpwl(),
        coverage_before: d_before,
        coverage_after: d_after,
        macro_overlap_before: om_before,
        macro_overlap_after: om_after,
        outer_iterations: outer_done,
        moves_attempted: attempted,
        moves_accepted: accepted,
        legalized: om_after <= overlap_eps,
    }
}

fn rect_of(pos: Point, size: eplace_geometry::Size) -> Rect {
    Rect::from_center(pos, size.width, size.height)
}

/// `D`: the macros' cached coverages, summed in macro order.
fn total_coverage(macros: &[MacroState]) -> f64 {
    macros.iter().map(|ms| ms.coverage).sum()
}

/// HPWL of macro `cell`'s nets with the macro where the design has it and
/// at `new_pos`, in one pass: each net's two bounding boxes take the same
/// pins in the same order, and keep the same extremes, as
/// [`Design::net_hpwl`], so both sums equal two separate passes bit for bit.
fn incident_hpwl(design: &Design, cell: usize, new_pos: Point) -> (f64, f64) {
    let mut w_old = 0.0;
    let mut w_new = 0.0;
    for &n in design.nets_of(cell) {
        let net = &design.nets[n.index()];
        let pins = design.net_pins(n.index());
        if pins.len() < 2 {
            continue;
        }
        let mut old = Bounds::EMPTY;
        let mut new = Bounds::EMPTY;
        for pin in pins {
            let p = design.cells[pin.cell.index()].pos + pin.offset;
            old.include(p);
            new.include(if pin.cell.index() == cell {
                new_pos + pin.offset
            } else {
                p
            });
        }
        w_old += net.weight * old.half_perimeter();
        w_new += net.weight * new.half_perimeter();
    }
    (w_old, w_new)
}

/// A running pin bounding box.
struct Bounds {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl Bounds {
    const EMPTY: Bounds = Bounds {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Widens the box to hold `p` by comparison, as [`Design::net_hpwl`]
    /// does: the earlier pin wins a tie, and a NaN coordinate sticks.
    fn include(&mut self, p: Point) {
        if p.x < self.min_x || p.x.is_nan() {
            self.min_x = p.x;
        }
        if p.x > self.max_x || p.x.is_nan() {
            self.max_x = p.x;
        }
        if p.y < self.min_y || p.y.is_nan() {
            self.min_y = p.y;
        }
        if p.y > self.max_y || p.y.is_nan() {
            self.max_y = p.y;
        }
    }

    fn half_perimeter(&self) -> f64 {
        (self.max_x - self.min_x) + (self.max_y - self.min_y)
    }
}

/// `O_m`: macro-macro plus macro-obstacle overlap area, each pair once.
fn total_macro_overlap(macros: &[MacroState], obstacles: &[Rect]) -> f64 {
    let mut total = 0.0;
    for (i, a) in macros.iter().enumerate() {
        let ra = rect_of(a.pos, a.size);
        for b in macros.iter().skip(i + 1) {
            total += ra.overlap_area(&rect_of(b.pos, b.size));
        }
        for o in obstacles {
            total += ra.overlap_area(o);
        }
    }
    total
}

/// Overlap of macro `mi` at `old` and at `new` against every other macro
/// and all obstacles, in one pass: each rectangle keeps its own
/// accumulator, summed in the order a pass of its own would take.
fn overlap_with_others(
    macros: &[MacroState],
    mi: usize,
    old: &Rect,
    new: &Rect,
    obstacles: &[Rect],
) -> (f64, f64) {
    let mut o_old = 0.0;
    let mut o_new = 0.0;
    for (i, other) in macros.iter().enumerate() {
        if i != mi {
            let r = rect_of(other.pos, other.size);
            o_old += old.overlap_area(&r);
            o_new += new.overlap_area(&r);
        }
    }
    for o in obstacles {
        o_old += old.overlap_area(o);
        o_new += new.overlap_area(o);
    }
    (o_old, o_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_netlist::{DesignBuilder, NetId};

    impl CoverageGrid {
        /// Oracle for [`CoverageGrid::covered`]: each bin's x-overlap
        /// recomputed in every row.
        fn covered_reference(&self, rect: &Rect) -> f64 {
            let r = match rect.intersection(&self.region) {
                Some(r) => r,
                None => return 0.0,
            };
            let ix0 = ((r.xl - self.region.xl) / self.bin_w).floor().max(0.0) as usize;
            let ix1 = (((r.xh - self.region.xl) / self.bin_w).ceil() as usize).min(COVER_GRID);
            let iy0 = ((r.yl - self.region.yl) / self.bin_h).floor().max(0.0) as usize;
            let iy1 = (((r.yh - self.region.yl) / self.bin_h).ceil() as usize).min(COVER_GRID);
            let bin_area = self.bin_w * self.bin_h;
            let mut total = 0.0;
            for iy in iy0..iy1 {
                let byl = self.region.yl + iy as f64 * self.bin_h;
                for ix in ix0..ix1 {
                    let bxl = self.region.xl + ix as f64 * self.bin_w;
                    let o = eplace_geometry::overlap_1d(r.xl, r.xh, bxl, bxl + self.bin_w)
                        * eplace_geometry::overlap_1d(r.yl, r.yh, byl, byl + self.bin_h);
                    total += self.area[iy * COVER_GRID + ix] * o / bin_area;
                }
            }
            total
        }
    }

    /// Oracle: the annealer as it scored moves before the per-move caches.
    /// Every move recomputes the old coverage, sweeps the overlap once per
    /// rectangle and takes the incident HPWL in two passes around a trial
    /// write of the new position into the design.
    fn legalize_macros_reference(design: &mut Design, cfg: &MlgConfig) -> MlgReport {
        fn overlap_reference(
            macros: &[MacroState],
            mi: usize,
            rect: &Rect,
            obstacles: &[Rect],
        ) -> f64 {
            let mut total = 0.0;
            for (i, other) in macros.iter().enumerate() {
                if i != mi {
                    total += rect.overlap_area(&rect_of(other.pos, other.size));
                }
            }
            for o in obstacles {
                total += rect.overlap_area(o);
            }
            total
        }
        fn hpwl_reference(design: &Design, nets: &[NetId]) -> f64 {
            nets.iter()
                .map(|&n| design.net_hpwl(&design.nets[n.index()]))
                .sum()
        }
        fn coverage(cover: &CoverageGrid, macros: &[MacroState]) -> f64 {
            macros
                .iter()
                .map(|ms| cover.covered_reference(&rect_of(ms.pos, ms.size)))
                .sum()
        }

        let mut rng = StdRng::seed_from_u64(SEED);
        let cover = CoverageGrid::build(design);
        let obstacles: Vec<Rect> = design
            .cells
            .iter()
            .filter(|c| c.fixed && !matches!(c.kind, CellKind::StdCell | CellKind::Filler))
            .map(|c| c.rect())
            .collect();
        let mut macros: Vec<MacroState> = design
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::Macro && c.is_movable())
            .map(|(i, c)| MacroState {
                cell: i,
                pos: c.pos,
                size: c.size,
                coverage: 0.0,
            })
            .collect();
        let m = macros.len();
        let w_before = design.hpwl();
        let d_before = coverage(&cover, &macros);
        let om_before = total_macro_overlap(&macros, &obstacles);
        if m == 0 {
            return MlgReport {
                wirelength_before: w_before,
                wirelength_after: w_before,
                coverage_before: 0.0,
                coverage_after: 0.0,
                macro_overlap_before: 0.0,
                macro_overlap_after: 0.0,
                outer_iterations: 0,
                moves_attempted: 0,
                moves_accepted: 0,
                legalized: true,
            };
        }
        let mut attempted = 0usize;
        let mut accepted = 0usize;
        let mut outer_done = 0usize;
        let ln2 = std::f64::consts::LN_2;
        let overlap_eps = 1e-9 * design.region.area();
        for j in 0..cfg.max_outer_iterations {
            outer_done = j + 1;
            let kappa_j = KAPPA.powi(j as i32);
            let w = design.hpwl();
            let d = coverage(&cover, &macros);
            let om = total_macro_overlap(&macros, &obstacles);
            if om <= overlap_eps {
                break;
            }
            let mu_d = if d > 1e-12 { w / d } else { 1.0 };
            let mu_o = (w / om.max(1e-12)) * kappa_j;
            let f_base = w + mu_d * d + mu_o * om;
            let k_max = (cfg.sa_iterations_per_macro * m).max(1);
            let radius0 =
                design.region.width() / (m as f64).sqrt() * INITIAL_RADIUS_FACTOR * kappa_j;
            for k in 0..k_max {
                attempted += 1;
                let progress = k as f64 / k_max as f64;
                let dmax = (INITIAL_MAX_ACCEPT
                    + (FINAL_MAX_ACCEPT - INITIAL_MAX_ACCEPT) * progress)
                    * kappa_j;
                let t = dmax / ln2;
                let radius = radius0 * (1.0 - 0.9 * progress);
                let mi = rng.gen_range(0..m);
                let old_pos = macros[mi].pos;
                let dx = rng.gen_range(-radius..=radius);
                let dy = rng.gen_range(-radius..=radius);
                let new_pos = design.region.clamp_center(
                    Point::new(old_pos.x + dx, old_pos.y + dy),
                    macros[mi].size.width,
                    macros[mi].size.height,
                );
                if (new_pos - old_pos).norm() < 1e-12 {
                    continue;
                }
                let old_rect = rect_of(old_pos, macros[mi].size);
                let new_rect = rect_of(new_pos, macros[mi].size);
                let d_cover =
                    cover.covered_reference(&new_rect) - cover.covered_reference(&old_rect);
                let d_overlap = overlap_reference(&macros, mi, &new_rect, &obstacles)
                    - overlap_reference(&macros, mi, &old_rect, &obstacles);
                let cell = macros[mi].cell;
                let w_old = hpwl_reference(design, design.nets_of(cell));
                design.cells[cell].pos = new_pos;
                let w_new = hpwl_reference(design, design.nets_of(cell));
                let delta = (w_new - w_old) + mu_d * d_cover + mu_o * d_overlap;
                let accept = if delta <= 0.0 {
                    true
                } else {
                    let rel = delta / f_base.max(1e-12);
                    rng.gen::<f64>() < (-rel / t).exp()
                };
                if accept {
                    macros[mi].pos = new_pos;
                    accepted += 1;
                } else {
                    design.cells[macros[mi].cell].pos = old_pos;
                }
            }
        }
        for ms in &macros {
            design.cells[ms.cell].fixed = true;
        }
        let d_after = coverage(&cover, &macros);
        let om_after = total_macro_overlap(&macros, &obstacles);
        MlgReport {
            wirelength_before: w_before,
            wirelength_after: design.hpwl(),
            coverage_before: d_before,
            coverage_after: d_after,
            macro_overlap_before: om_before,
            macro_overlap_after: om_after,
            outer_iterations: outer_done,
            moves_attempted: attempted,
            moves_accepted: accepted,
            legalized: om_after <= overlap_eps,
        }
    }

    /// Every cell's position and `fixed` flag, as bits.
    fn placement_bits(d: &Design) -> Vec<(u64, u64, bool)> {
        d.cells
            .iter()
            .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits(), c.fixed))
            .collect()
    }

    /// Runs both annealers on copies of `design` and requires the same
    /// report (`Debug` prints every float's shortest round-trip form, so
    /// equal strings mean equal bits) and the same placement.
    fn assert_matches_reference(design: &Design, cfg: &MlgConfig) -> MlgReport {
        let mut reference = design.clone();
        let mut cached = design.clone();
        let expected = legalize_macros_reference(&mut reference, cfg);
        let report = legalize_macros(&mut cached, cfg);
        assert_eq!(
            format!("{report:?}"),
            format!("{expected:?}"),
            "{}",
            design.name
        );
        assert!(
            placement_bits(&cached) == placement_bits(&reference),
            "{}: placements differ",
            design.name
        );
        report
    }

    #[test]
    fn covered_is_bitwise_the_per_row_reference() {
        let d = BenchmarkConfig::mms_like("cov", 3, 0.8, 24)
            .scale(1_500)
            .generate();
        let cover = CoverageGrid::build(&d);
        let region = d.region;
        let mut rng = StdRng::seed_from_u64(9);
        let mut nonzero = 0;
        for _ in 0..2_000 {
            // Centres up to a quarter of the region outside it, sizes from
            // under one bin to wider than the region.
            let c = Point::new(
                rng.gen_range(
                    region.xl - 0.25 * region.width()..=region.xh + 0.25 * region.width(),
                ),
                rng.gen_range(
                    region.yl - 0.25 * region.height()..=region.yh + 0.25 * region.height(),
                ),
            );
            let w = rng.gen_range(0.001..=1.2) * region.width();
            let h = rng.gen_range(0.001..=1.2) * region.height();
            let r = Rect::from_center(c, w, h);
            let got = cover.covered(&r);
            assert_eq!(
                got.to_bits(),
                cover.covered_reference(&r).to_bits(),
                "{r:?}"
            );
            nonzero += usize::from(got > 0.0);
        }
        assert!(
            nonzero > 1_000,
            "only {nonzero} rectangles covered std cells"
        );
    }

    #[test]
    fn annealer_is_bitwise_the_reference() {
        for cells in [400, 1_500] {
            for rho in [0.8, 1.0] {
                for seed in [5, 17, 42] {
                    let d = BenchmarkConfig::mms_like(
                        format!("mms{cells}_{rho}_{seed}"),
                        seed,
                        rho,
                        24,
                    )
                    .scale(cells)
                    .generate();
                    // Fixed IO pads are the obstacles the overlap sweep
                    // reads besides the other macros.
                    assert!(d
                        .cells
                        .iter()
                        .any(|c| c.fixed && c.kind == CellKind::Terminal));
                    let report = assert_matches_reference(&d, &MlgConfig::default());
                    assert!(report.moves_accepted > 0, "{}: {report:?}", d.name);
                }
            }
        }
    }

    #[test]
    #[ignore = "timing; run with --release --ignored --nocapture"]
    fn cached_scoring_timing_against_reference() {
        // Interleaved arms on identical inputs: 3 seeds × 3 repetitions of
        // a 1 500-cell mms_like design (ρ_t 0.8, 24 macros) at its
        // generated positions, median over the 9 samples.
        let (mut old_ms, mut new_ms) = (Vec::new(), Vec::new());
        for seed in [7, 8, 9] {
            let d = BenchmarkConfig::mms_like("t", seed, 0.8, 24)
                .scale(1_500)
                .generate();
            for _ in 0..3 {
                let mut r = d.clone();
                let t = std::time::Instant::now();
                let expected = legalize_macros_reference(&mut r, &MlgConfig::default());
                old_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let mut f = d.clone();
                let t = std::time::Instant::now();
                let report = legalize_macros(&mut f, &MlgConfig::default());
                new_ms.push(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(format!("{report:?}"), format!("{expected:?}"));
                assert!(placement_bits(&r) == placement_bits(&f));
            }
        }
        old_ms.sort_by(f64::total_cmp);
        new_ms.sort_by(f64::total_cmp);
        let mid = old_ms.len() / 2;
        println!(
            "mms_like 1 500 cells: reference {:.2} ms, cached {:.2} ms, {:.2}x \
             (median of {}, bitwise identical)",
            old_ms[mid],
            new_ms[mid],
            old_ms[mid] / new_ms[mid],
            old_ms.len()
        );
    }

    /// Two overlapping macros with plenty of free space.
    fn overlapping_pair() -> Design {
        let mut b = DesignBuilder::new("pair", Rect::new(0.0, 0.0, 200.0, 200.0));
        b.uniform_rows(10.0, 1.0);
        let m0 = b.add_cell("m0", 40.0, 40.0, CellKind::Macro);
        let m1 = b.add_cell("m1", 40.0, 40.0, CellKind::Macro);
        let io = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n", vec![(m0, Point::ORIGIN), (io, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[m0.index()].pos = Point::new(100.0, 100.0);
        d.cells[m1.index()].pos = Point::new(120.0, 100.0); // 20 overlap in x
        d.cells[io.index()].pos = Point::new(100.0, 2.0);
        d
    }

    #[test]
    fn resolves_simple_overlap() {
        let mut d = overlapping_pair();
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(report.macro_overlap_before > 0.0);
        assert!(
            report.legalized,
            "overlap not resolved: {}",
            report.macro_overlap_after
        );
        // Macros are fixed afterwards.
        assert!(d.cells[0].fixed && d.cells[1].fixed);
    }

    #[test]
    fn macros_only_shift_locally() {
        let mut d = overlapping_pair();
        let before: Vec<Point> = d.cells.iter().take(2).map(|c| c.pos).collect();
        legalize_macros(&mut d, &MlgConfig::default());
        for (c, b) in d.cells.iter().zip(&before) {
            let moved = c.pos.distance(*b);
            assert!(moved < 100.0, "macro jumped {moved}");
        }
    }

    #[test]
    fn no_macros_is_trivially_legal() {
        let mut b = DesignBuilder::new("none", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let mut d = b.build();
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(report.legalized);
        assert_eq!(report.moves_attempted, 0);
    }

    #[test]
    fn avoids_fixed_obstacles() {
        let mut b = DesignBuilder::new("obs", Rect::new(0.0, 0.0, 200.0, 200.0));
        let m0 = b.add_cell("m0", 30.0, 30.0, CellKind::Macro);
        let blk = b.add_cell_with(
            "blk",
            60.0,
            60.0,
            CellKind::Macro,
            true,
            Point::new(100.0, 100.0),
        );
        let mut d = b.build();
        d.cells[m0.index()].pos = Point::new(110.0, 100.0); // atop the blockage
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(
            report.legalized,
            "Om after = {}",
            report.macro_overlap_after
        );
        let mr = d.cells[m0.index()].rect();
        let br = d.cells[blk.index()].rect();
        assert_eq!(mr.overlap_area(&br), 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut d1 = overlapping_pair();
        let mut d2 = overlapping_pair();
        let cfg = MlgConfig::default();
        let r1 = legalize_macros(&mut d1, &cfg);
        let r2 = legalize_macros(&mut d2, &cfg);
        assert_eq!(r1, r2);
        assert_eq!(d1.cells[0].pos, d2.cells[0].pos);
    }

    #[test]
    fn wirelength_changes_stay_modest() {
        // Fig. 5: W rises only slightly while O_m → 0.
        let mut d = overlapping_pair();
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(
            report.wirelength_after < 2.0 * report.wirelength_before.max(1.0),
            "{report:?}"
        );
    }

    #[test]
    fn std_cells_are_never_touched() {
        let mut d = eplace_benchgen::BenchmarkConfig::mms_like("s", 18, 1.0, 6)
            .scale(400)
            .generate();
        let std_cells = |d: &Design| -> Vec<(u64, u64, bool)> {
            d.cells
                .iter()
                .filter(|c| c.kind == CellKind::StdCell)
                .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits(), c.fixed))
                .collect()
        };
        let before = std_cells(&d);
        assert!(before.iter().any(|&(_, _, fixed)| !fixed));
        // Freezing the std cells first changes nothing either.
        let mut frozen = d.clone();
        for c in frozen.cells.iter_mut() {
            c.fixed |= c.kind == CellKind::StdCell;
        }
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(report.moves_accepted > 0, "{report:?}");
        assert_eq!(std_cells(&d), before);
        assert_eq!(legalize_macros(&mut frozen, &MlgConfig::default()), report);
        for (a, b) in d.cells.iter().zip(&frozen.cells) {
            if a.kind != CellKind::StdCell {
                assert_eq!(
                    (a.pos.x.to_bits(), a.pos.y.to_bits()),
                    (b.pos.x.to_bits(), b.pos.y.to_bits())
                );
            }
        }
    }

    #[test]
    fn generated_mms_design_legalizes() {
        let mut d = eplace_benchgen::BenchmarkConfig::mms_like("g", 17, 1.0, 6)
            .scale(200)
            .generate();
        let report = legalize_macros(&mut d, &MlgConfig::default());
        assert!(
            report.macro_overlap_after < 0.05 * report.macro_overlap_before.max(1.0),
            "{report:?}"
        );
    }
}
