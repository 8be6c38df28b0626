use crate::BenchmarkConfig;
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellId, CellKind, Design, DesignBuilder};
use eplace_prng::rngs::StdRng;
use eplace_prng::{Rng, SeedableRng};

/// Standard-cell row height in layout units (ISPD circuits use 12).
pub(crate) const ROW_HEIGHT: f64 = 12.0;
/// Placement site width.
pub(crate) const SITE_WIDTH: f64 = 1.0;
/// IO pad dimensions.
const PAD_SIZE: f64 = 6.0;

pub(crate) fn generate_design(cfg: &BenchmarkConfig) -> Design {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Cell size synthesis -------------------------------------------
    // Contest-like width distribution: many 3–6-site cells, a tail of wide
    // ones (drivers/flops).
    let std_widths: Vec<f64> = (0..cfg.std_cells)
        .map(|_| {
            let r: f64 = rng.gen();
            let sites = if r < 0.55 {
                rng.gen_range(3..=6)
            } else if r < 0.9 {
                rng.gen_range(7..=12)
            } else {
                rng.gen_range(13..=24)
            };
            sites as f64 * SITE_WIDTH
        })
        .collect();
    let std_area: f64 = std_widths.iter().map(|w| w * ROW_HEIGHT).sum();

    // Macro areas: movable macros take ~35 % of movable area in MMS-like
    // mode; fixed macros ~25 % of the region budget.
    let movable_macro_sizes: Vec<(f64, f64)> = if cfg.movable_macros > 0 {
        let budget = 0.55 * std_area;
        macro_sizes(&mut rng, cfg.movable_macros, budget)
    } else {
        Vec::new()
    };
    let movable_macro_area: f64 = movable_macro_sizes.iter().map(|(w, h)| w * h).sum();
    let fixed_macro_sizes: Vec<(f64, f64)> = if cfg.fixed_macros > 0 {
        let budget = 0.35 * std_area;
        macro_sizes(&mut rng, cfg.fixed_macros, budget)
    } else {
        Vec::new()
    };
    let fixed_macro_area: f64 = fixed_macro_sizes.iter().map(|(w, h)| w * h).sum();

    // --- Region sizing ---------------------------------------------------
    let movable_area = std_area + movable_macro_area;
    let region_area = movable_area / cfg.utilization + fixed_macro_area;
    let side = region_area.sqrt();
    let rows = (side / ROW_HEIGHT).ceil().max(4.0);
    let height = rows * ROW_HEIGHT;
    let width = (region_area / height / SITE_WIDTH).ceil() * SITE_WIDTH;
    let region = Rect::new(0.0, 0.0, width, height);

    let mut b = DesignBuilder::new(cfg.name.clone(), region);
    b.target_density(cfg.target_density);
    b.uniform_rows(ROW_HEIGHT, SITE_WIDTH);

    // --- Objects -----------------------------------------------------------
    // Connectable pool in netlist-locality order: std cells with movable
    // macros interleaved (macros inherit locality like any other object —
    // the ePlace premise that everything is handled identically).
    let mut pool: Vec<CellId> = Vec::with_capacity(cfg.std_cells + cfg.movable_macros);
    let macro_stride = cfg
        .std_cells
        .checked_div(cfg.movable_macros)
        .map_or(usize::MAX, |s| s.max(1));
    let mut macro_iter = movable_macro_sizes.iter().enumerate();
    for (i, &w) in std_widths.iter().enumerate() {
        if i % macro_stride == macro_stride - 1 {
            if let Some((mi, &(mw, mh))) = macro_iter.next() {
                let id = b.add_cell_with(
                    format!("m{mi}"),
                    mw,
                    mh,
                    CellKind::Macro,
                    false,
                    random_point(&mut rng, &region, mw, mh),
                );
                pool.push(id);
            }
        }
        let id = b.add_cell_with(
            format!("c{i}"),
            w,
            ROW_HEIGHT,
            CellKind::StdCell,
            false,
            random_point(&mut rng, &region, w, ROW_HEIGHT),
        );
        pool.push(id);
    }
    // Any leftover macros (when stride skipped some).
    for (mi, &(mw, mh)) in macro_iter {
        let id = b.add_cell_with(
            format!("m{mi}"),
            mw,
            mh,
            CellKind::Macro,
            false,
            random_point(&mut rng, &region, mw, mh),
        );
        pool.push(id);
    }

    // Fixed macros on a non-overlapping coarse grid.
    if !fixed_macro_sizes.is_empty() {
        let slots = place_on_grid(&mut rng, &region, fixed_macro_sizes.len());
        for (fi, (&(mw, mh), slot)) in fixed_macro_sizes.iter().zip(slots).enumerate() {
            let pos = region.clamp_center(slot, mw, mh);
            b.add_cell_with(format!("fm{fi}"), mw, mh, CellKind::Macro, true, pos);
        }
    }

    // IO pads on the periphery ring.
    let mut pads: Vec<CellId> = Vec::with_capacity(cfg.io_pads);
    for p in 0..cfg.io_pads {
        let t = p as f64 / cfg.io_pads.max(1) as f64;
        let pos = ring_position(&region, t);
        pads.push(b.add_cell_with(
            format!("io{p}"),
            PAD_SIZE,
            PAD_SIZE,
            CellKind::Terminal,
            true,
            pos,
        ));
    }

    // --- Netlist ----------------------------------------------------------
    // Rent-style locality: pick an anchor, then partners from a window whose
    // size is sampled across three hierarchy levels.
    let n = pool.len();
    let num_nets = ((cfg.std_cells as f64) * cfg.nets_per_cell).round() as usize;
    let w_local = (n / 48).max(12);
    let w_mid = (n / 8).max(48);
    let p_global = 0.04 + 0.08 * cfg.rent_exponent;
    let p_mid = 0.25;
    for ni in 0..num_nets {
        let degree = sample_degree(&mut rng);
        let anchor = rng.gen_range(0..n);
        let r: f64 = rng.gen();
        let window = if r < p_global {
            n
        } else if r < p_global + p_mid {
            w_mid.min(n)
        } else {
            w_local.min(n)
        };
        let mut members = vec![pool[anchor]];
        let mut guard = 0;
        while members.len() < degree && guard < degree * 8 {
            guard += 1;
            let lo = anchor.saturating_sub(window / 2);
            let hi = (anchor + window / 2).min(n - 1);
            let idx = rng.gen_range(lo..=hi);
            let cand = pool[idx];
            if !members.contains(&cand) {
                members.push(cand);
            }
        }
        if members.len() < 2 {
            continue;
        }
        let pins = members
            .iter()
            .map(|&id| (id, pin_offset(&mut rng, &b, id)))
            .collect();
        b.add_net(format!("n{ni}"), pins);
    }
    // Every pad drives one net into a random local cluster.
    for (pi, &pad) in pads.iter().enumerate() {
        let anchor = rng.gen_range(0..n);
        let k = rng.gen_range(1..=3usize);
        let mut pins = vec![(pad, Point::ORIGIN)];
        for j in 0..k {
            let idx = (anchor + j * 3) % n;
            pins.push((pool[idx], pin_offset(&mut rng, &b, pool[idx])));
        }
        b.add_net(format!("pad_n{pi}"), pins);
    }

    let design = b.build();
    debug_assert!(design.validate().is_ok());
    design
}

/// Contest-like net degree: mass at 2–3 with a geometric tail, mean ≈ 3.5.
pub(crate) fn sample_degree(rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    if r < 0.55 {
        2
    } else if r < 0.75 {
        3
    } else {
        // Geometric tail starting at 4.
        let mut d = 4;
        while d < 24 && rng.gen::<f64>() < 0.55 {
            d += 1;
        }
        d
    }
}

/// Splits `budget` area into `count` macros with aspect ratios in
/// `[0.5, 2]`, heights rounded to row multiples.
fn macro_sizes(rng: &mut StdRng, count: usize, budget: f64) -> Vec<(f64, f64)> {
    // Log-uniform area spread of ~6x between smallest and largest.
    let mut raw: Vec<f64> = (0..count).map(|_| rng.gen_range(1.0..6.0f64)).collect();
    let total: f64 = raw.iter().sum();
    for r in raw.iter_mut() {
        *r = *r / total * budget;
    }
    raw.into_iter()
        .map(|area| {
            let aspect = rng.gen_range(0.5..2.0f64);
            let h_raw = (area * aspect).sqrt();
            let h = (h_raw / ROW_HEIGHT).round().max(2.0) * ROW_HEIGHT;
            let w = (area / h).round().max(ROW_HEIGHT);
            (w, h)
        })
        .collect()
}

fn random_point(rng: &mut StdRng, region: &Rect, w: f64, h: f64) -> Point {
    let x = rng.gen_range(region.xl + 0.5 * w..=(region.xh - 0.5 * w).max(region.xl + 0.5 * w));
    let y = rng.gen_range(region.yl + 0.5 * h..=(region.yh - 0.5 * h).max(region.yl + 0.5 * h));
    Point::new(x, y)
}

/// Non-overlapping slot centers on a coarse `k × k` grid (k² ≥ count),
/// shuffled.
fn place_on_grid(rng: &mut StdRng, region: &Rect, count: usize) -> Vec<Point> {
    let k = (count as f64).sqrt().ceil() as usize;
    let mut slots: Vec<Point> = (0..k * k)
        .map(|i| {
            let ix = i % k;
            let iy = i / k;
            Point::new(
                region.xl + (ix as f64 + 0.5) * region.width() / k as f64,
                region.yl + (iy as f64 + 0.5) * region.height() / k as f64,
            )
        })
        .collect();
    // Fisher–Yates.
    for i in (1..slots.len()).rev() {
        let j = rng.gen_range(0..=i);
        slots.swap(i, j);
    }
    slots.truncate(count);
    slots
}

/// Position on the boundary ring at parameter `t ∈ [0, 1)` (counterclockwise
/// from the lower-left corner).
fn ring_position(region: &Rect, t: f64) -> Point {
    let w = region.width();
    let h = region.height();
    let perimeter = 2.0 * (w + h);
    let d = t.fract() * perimeter;
    let half = PAD_SIZE / 2.0;
    if d < w {
        Point::new(region.xl + d, region.yl + half)
    } else if d < w + h {
        Point::new(region.xh - half, region.yl + (d - w))
    } else if d < 2.0 * w + h {
        Point::new(region.xh - (d - w - h), region.yh - half)
    } else {
        Point::new(region.xl + half, region.yh - (d - 2.0 * w - h))
    }
}

fn pin_offset(rng: &mut StdRng, b: &DesignBuilder, _id: CellId) -> Point {
    // Small random offset within a site of the center; macros get larger
    // offsets assigned when the builder is queried — kept simple and
    // center-biased like the contest circuits.
    let _ = b;
    Point::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_netlist::DesignStats;

    #[test]
    fn deterministic_generation() {
        let cfg = BenchmarkConfig::ispd05_like("d", 42).scale(300);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.size, y.size);
        }
        assert_eq!(a.nets.len(), b.nets.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = BenchmarkConfig::ispd05_like("d", 1).scale(300).generate();
        let b = BenchmarkConfig::ispd05_like("d", 2).scale(300).generate();
        let moved = a
            .cells
            .iter()
            .zip(&b.cells)
            .filter(|(x, y)| x.pos != y.pos)
            .count();
        assert!(moved > 100);
    }

    #[test]
    fn ispd05_like_structure() {
        let d = BenchmarkConfig::ispd05_like("d", 3).scale(400).generate();
        let s = DesignStats::of(&d);
        assert_eq!(s.std_cells, 400);
        assert_eq!(s.movable_macros, 0);
        assert!(s.macros > 0); // fixed macros present
        assert_eq!(s.terminals, 64);
        assert!(d.validate().is_ok());
        // Utilization close to the configured value.
        assert!(
            (d.utilization() - 0.65).abs() < 0.1,
            "util {}",
            d.utilization()
        );
    }

    #[test]
    fn mms_like_has_movable_macros() {
        let d = BenchmarkConfig::mms_like("m", 4, 0.8, 8)
            .scale(400)
            .generate();
        let s = DesignStats::of(&d);
        assert_eq!(s.movable_macros, 8);
        assert_eq!(d.target_density, 0.8);
        // Macros are connected to the netlist.
        let macro_degrees: usize = d
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::Macro)
            .map(|(i, _)| d.nets_of(i).len())
            .sum();
        assert!(macro_degrees > 0);
    }

    #[test]
    fn fixed_macros_do_not_overlap() {
        let d = BenchmarkConfig::ispd05_like("f", 5).scale(400).generate();
        let rects: Vec<Rect> = d
            .cells
            .iter()
            .filter(|c| c.kind == CellKind::Macro && c.fixed)
            .map(|c| c.rect())
            .collect();
        assert!(rects.len() > 1);
        let overlap = eplace_netlist::total_pairwise_overlap(&rects);
        let total_area: f64 = rects.iter().map(Rect::area).sum();
        assert!(
            overlap < 0.02 * total_area,
            "fixed macros overlap: {overlap} of {total_area}"
        );
    }

    #[test]
    fn pads_on_periphery_and_fixed() {
        let d = BenchmarkConfig::ispd05_like("p", 6).scale(300).generate();
        for c in d.cells.iter().filter(|c| c.kind == CellKind::Terminal) {
            assert!(c.fixed);
            let p = c.pos;
            let r = d.region;
            let near_edge = (p.x - r.xl).min(r.xh - p.x).min(p.y - r.yl).min(r.yh - p.y);
            assert!(near_edge <= PAD_SIZE, "pad {p} not near edge");
        }
    }

    #[test]
    fn net_statistics_are_contest_like() {
        let d = BenchmarkConfig::ispd05_like("n", 7).scale(2_000).generate();
        let degrees: Vec<usize> = d.nets.iter().map(|n| n.degree()).collect();
        let avg = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(avg > 2.2 && avg < 5.0, "avg degree {avg}");
        assert!(degrees.iter().all(|&d| d >= 2));
        assert!(*degrees.iter().max().unwrap() <= 28);
        // Locality: most 2-pin nets connect nearby pool indices — proxy via
        // generated net count sanity.
        assert!(d.nets.len() >= 2_000);
    }

    #[test]
    fn rows_cover_region() {
        let d = BenchmarkConfig::ispd05_like("r", 8).scale(300).generate();
        assert!(!d.rows.is_empty());
        let rows_top = d
            .rows
            .iter()
            .map(|r| r.y + r.height)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(rows_top <= d.region.yh + 1e-9);
        assert!((d.region.yh - rows_top) < ROW_HEIGHT);
    }
}
