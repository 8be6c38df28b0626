use crate::{MlgConfig, FINAL_MAX_ACCEPT, INITIAL_MAX_ACCEPT, INITIAL_RADIUS_FACTOR, KAPPA, SEED};
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, Design, NetId};
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
    /// Nets incident to this macro.
    nets: Vec<NetId>,
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
            nets: design.cell_nets[i].clone(),
        })
        .collect();
    let m = macros.len();

    let w_before = design.hpwl();
    let d_before: f64 = macros
        .iter()
        .map(|ms| cover.covered(&rect_of(ms.pos, ms.size)))
        .sum();
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
        let d: f64 = macros
            .iter()
            .map(|ms| cover.covered(&rect_of(ms.pos, ms.size)))
            .sum();
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

            // Incremental Δcost.
            let old_rect = rect_of(old_pos, macros[mi].size);
            let new_rect = rect_of(new_pos, macros[mi].size);
            let d_cover = cover.covered(&new_rect) - cover.covered(&old_rect);
            let d_overlap = overlap_with_others(&macros, mi, &new_rect, &obstacles)
                - overlap_with_others(&macros, mi, &old_rect, &obstacles);
            let w_old = incident_hpwl(design, &macros[mi].nets);
            design.cells[macros[mi].cell].pos = new_pos;
            let w_new = incident_hpwl(design, &macros[mi].nets);
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

    // Fix the macros at their legalized locations.
    for ms in &macros {
        design.cells[ms.cell].fixed = true;
    }

    let d_after: f64 = macros
        .iter()
        .map(|ms| cover.covered(&rect_of(ms.pos, ms.size)))
        .sum();
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

fn incident_hpwl(design: &Design, nets: &[NetId]) -> f64 {
    nets.iter()
        .map(|&n| design.net_hpwl(&design.nets[n.index()]))
        .sum()
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

/// Overlap of a candidate rectangle for macro `mi` against every other
/// macro and all obstacles.
fn overlap_with_others(macros: &[MacroState], mi: usize, rect: &Rect, obstacles: &[Rect]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_netlist::DesignBuilder;

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
