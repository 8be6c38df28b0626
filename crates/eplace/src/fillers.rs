use eplace_geometry::{Point, Size};
use eplace_netlist::{Cell, CellKind, Design};
use eplace_prng::rngs::StdRng;
use eplace_prng::{Rng, SeedableRng};

/// Populates the design's extra whitespace with unconnected fillers
/// (paper §III): total filler area is `ρ_t·whitespace − movable_area`, the
/// filler dimension is the mean of the middle-80 % standard-cell widths by
/// row height, and fillers are scattered uniformly. Returns how many were
/// inserted.
///
/// Fillers equalize the supply side of the electrostatic system: at
/// equilibrium, real cells plus fillers fill every bin to exactly ρ_t, so
/// the field vanishes exactly when the constraint of Eq. (2) is met.
///
/// # Panics
///
/// Panics if fillers are already present (callers must
/// [`Design::remove_fillers`] first).
pub fn insert_fillers(design: &mut Design, seed: u64) -> usize {
    assert_eq!(
        design.count_kind(CellKind::Filler),
        0,
        "fillers already present"
    );
    let whitespace = design.whitespace_area();
    // Movable charge: standard cells at full area, movable macros at
    // ρ_t-scaled charge (matching the density system's macro scaling) — the
    // filler budget balances the *electrostatic* system to exactly ρ_t.
    let movable: f64 = design
        .cells
        .iter()
        .filter(|c| c.is_movable())
        .map(|c| {
            if c.kind == CellKind::Macro {
                c.area() * design.target_density
            } else {
                c.area()
            }
        })
        .sum();
    let filler_area = design.target_density * whitespace - movable;
    if filler_area <= 0.0 {
        return 0;
    }

    // Middle-80 % mean width of standard cells.
    let mut widths: Vec<f64> = design
        .cells
        .iter()
        .filter(|c| c.kind == CellKind::StdCell)
        .map(|c| c.size.width)
        .collect();
    let row_height = design
        .rows
        .first()
        .map(|r| r.height)
        .unwrap_or_else(|| design.region.height() / 16.0);
    let (w, h) = if widths.is_empty() {
        (row_height, row_height)
    } else {
        widths.sort_by(f64::total_cmp);
        let lo = widths.len() / 10;
        let hi = (widths.len() * 9) / 10;
        let mid = &widths[lo..hi.max(lo + 1)];
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        (mean, row_height)
    };

    let count = (filler_area / (w * h)).floor() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let region = design.region;
    for i in 0..count {
        let x = rng.gen_range(region.xl + 0.5 * w..=region.xh - 0.5 * w);
        let y = rng.gen_range(region.yl + 0.5 * h..=region.yh - 0.5 * h);
        design.cells.push(Cell {
            name: format!("filler{i}"),
            size: Size::new(w, h),
            kind: CellKind::Filler,
            fixed: false,
            pos: Point::new(x, y),
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;

    #[test]
    fn filler_area_matches_budget() {
        let mut d = BenchmarkConfig::ispd05_like("f", 31).scale(400).generate();
        let whitespace = d.whitespace_area();
        let movable = d.movable_area();
        let budget = d.target_density * whitespace - movable;
        let n = insert_fillers(&mut d, 1);
        assert!(n > 0);
        let filler_area: f64 = d
            .cells
            .iter()
            .filter(|c| c.kind == CellKind::Filler)
            .map(|c| c.area())
            .sum();
        // Within one filler of the budget.
        assert!(filler_area <= budget + 1e-9);
        let one = filler_area / n as f64;
        assert!(budget - filler_area <= one + 1e-9);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn dense_design_gets_no_fillers() {
        let mut d = BenchmarkConfig::ispd06_like("f", 32, 0.5)
            .scale(300)
            .generate();
        // ρ_t·whitespace barely above movables? Force it: shrink target.
        d.target_density = 0.2;
        // movable/whitespace = 0.45 util > 0.2 → no budget.
        assert_eq!(insert_fillers(&mut d, 1), 0);
    }

    #[test]
    fn fillers_respect_density_target() {
        let mut d = BenchmarkConfig::ispd06_like("f", 33, 0.6)
            .scale(300)
            .generate();
        insert_fillers(&mut d, 2);
        let total: f64 = d
            .cells
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.area())
            .sum();
        let budget = d.target_density * d.whitespace_area();
        assert!(total <= budget + 1e-6);
        assert!(total >= 0.95 * budget);
    }

    #[test]
    fn deterministic_by_seed() {
        let mut a = BenchmarkConfig::ispd05_like("f", 34).scale(200).generate();
        let mut b = BenchmarkConfig::ispd05_like("f", 34).scale(200).generate();
        insert_fillers(&mut a, 9);
        insert_fillers(&mut b, 9);
        assert_eq!(a.cells.len(), b.cells.len());
        assert_eq!(a.cells.last().map(|c| c.pos), b.cells.last().map(|c| c.pos));
    }

    #[test]
    fn remove_round_trip() {
        let mut d = BenchmarkConfig::ispd05_like("f", 35).scale(200).generate();
        let before = d.cells.len();
        let n = insert_fillers(&mut d, 3);
        assert_eq!(d.cells.len(), before + n);
        assert_eq!(d.remove_fillers(), n);
        assert_eq!(d.cells.len(), before);
        // Can insert again after removal.
        assert_eq!(insert_fillers(&mut d, 3), n);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut d = BenchmarkConfig::ispd05_like("f", 36).scale(200).generate();
        insert_fillers(&mut d, 1);
        insert_fillers(&mut d, 1);
    }
}
