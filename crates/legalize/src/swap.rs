//! Global swap — the cross-row refinement move of the FastPlace-DP /
//! NTUplace3 detail placers: each cell is attracted to its *optimal region*
//! (the median of its nets' bounding boxes, where HPWL is locally minimal),
//! and exchanged with an equal-footprint cell already sitting there when the
//! exchange shortens the incident nets.
//!
//! Restricting candidates to identical footprints keeps every accepted move
//! trivially legal (positions swap, outlines coincide), which is the classic
//! engineering shortcut — standard-cell libraries have few distinct widths,
//! so same-size partners are plentiful.

use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design, NetId};
use std::collections::HashMap;

/// How many same-footprint partners, nearest to a cell's optimal point
/// first, are tried as swap candidates for that cell.
const SWAP_CANDIDATES: usize = 6;

/// One pass of global swap over every movable standard cell. Returns the
/// total HPWL improvement (≥ 0); only strictly improving swaps are taken.
///
/// A pass scans each cell's same-footprint bucket once, keeping the
/// `SWAP_CANDIDATES` (6) nearest partners in a bounded insertion list, so the
/// cost is O(passes · movable · bucket size) with no sort and no per-cell
/// allocation: the scratch buffers are sized once per call. On single
/// footprint designs (PEKO-style suites) the bucket is every movable cell.
///
/// # Examples
///
/// ```
/// use eplace_benchgen::BenchmarkConfig;
/// use eplace_legalize::{check_legal, global_swap, legalize};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut design = BenchmarkConfig::ispd05_like("gs", 4).scale(200).generate();
/// legalize(&mut design)?;
/// let gain = global_swap(&mut design, 1);
/// assert!(gain >= 0.0);
/// assert!(check_legal(&design).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn global_swap(design: &mut Design, passes: usize) -> f64 {
    let before = design.hpwl();
    let movable = movable_std_cells(design);
    if movable.len() < 2 {
        return 0.0;
    }
    let buckets = footprint_buckets(design, &movable);
    // Sized for the largest incident-net list, so no pass ever grows them.
    let max_degree = movable
        .iter()
        .map(|&ci| design.cell_nets[ci].len())
        .max()
        .unwrap_or(0);
    let mut xs = Vec::with_capacity(2 * max_degree);
    let mut ys = Vec::with_capacity(2 * max_degree);
    let mut nets = Vec::with_capacity(2 * max_degree);

    for _ in 0..passes {
        for &ci in &movable {
            let Some(target) = optimal_point(design, ci, &mut xs, &mut ys) else {
                continue;
            };
            // Already close to optimal: nothing to gain.
            let here = design.cells[ci].pos;
            if here.manhattan_distance(target) < design.cells[ci].size.width {
                continue;
            }
            let Some(partners) = buckets.get(&footprint_key(design, ci)) else {
                continue;
            };
            let (nearest, count) = nearest_partners(design, partners, ci, target);
            let mut best: Option<(f64, usize)> = None;
            for &cj in &nearest[..count] {
                let delta = swap_gain(design, ci, cj, &mut nets);
                if delta > 1e-12 && best.map(|(g, _)| delta > g).unwrap_or(true) {
                    best = Some((delta, cj));
                }
            }
            if let Some((_, cj)) = best {
                let pi = design.cells[ci].pos;
                let pj = design.cells[cj].pos;
                design.cells[ci].pos = pj;
                design.cells[cj].pos = pi;
            }
        }
    }
    before - design.hpwl()
}

fn movable_std_cells(design: &Design) -> Vec<usize> {
    design
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
        .map(|(i, _)| i)
        .collect()
}

/// A cell's (width, height) in fixed point, to absorb float noise.
fn footprint_key(design: &Design, ci: usize) -> (i64, i64) {
    let s = design.cells[ci].size;
    (
        (s.width * 64.0).round() as i64,
        (s.height * 64.0).round() as i64,
    )
}

/// Partner index: movable cells grouped by footprint, each group in
/// `movable` order.
fn footprint_buckets(design: &Design, movable: &[usize]) -> HashMap<(i64, i64), Vec<usize>> {
    let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for &ci in movable {
        buckets
            .entry(footprint_key(design, ci))
            .or_default()
            .push(ci);
    }
    buckets
}

/// The (up to) [`SWAP_CANDIDATES`] cells of `partners` other than `ci`
/// nearest to `target` in Manhattan distance, nearest first, and how many
/// there are. Distances compare with `total_cmp`, and equal distances keep
/// their order in `partners` — exactly the prefix a stable sort by distance
/// would produce.
fn nearest_partners(
    design: &Design,
    partners: &[usize],
    ci: usize,
    target: Point,
) -> ([usize; SWAP_CANDIDATES], usize) {
    let mut dist = [0.0_f64; SWAP_CANDIDATES];
    let mut cell = [0_usize; SWAP_CANDIDATES];
    let mut len = 0;
    for &cj in partners {
        if cj == ci {
            continue;
        }
        let d = design.cells[cj].pos.manhattan_distance(target);
        // A tie with the last kept entry loses: it comes later in `partners`.
        if len == SWAP_CANDIDATES && d.total_cmp(&dist[len - 1]).is_ge() {
            continue;
        }
        // Insert after every kept entry ≤ d; when full, the last one drops.
        let mut k = len.min(SWAP_CANDIDATES - 1);
        while k > 0 && d.total_cmp(&dist[k - 1]).is_lt() {
            dist[k] = dist[k - 1];
            cell[k] = cell[k - 1];
            k -= 1;
        }
        dist[k] = d;
        cell[k] = cj;
        len = (len + 1).min(SWAP_CANDIDATES);
    }
    (cell, len)
}

/// HPWL gain of swapping the positions of `a` and `b` (positive = better).
/// `nets` is scratch for the union of their incident nets.
fn swap_gain(design: &mut Design, a: usize, b: usize, nets: &mut Vec<NetId>) -> f64 {
    nets.clear();
    nets.extend_from_slice(&design.cell_nets[a]);
    for &n in &design.cell_nets[b] {
        if !nets.contains(&n) {
            nets.push(n);
        }
    }
    let cost = |design: &Design| -> f64 {
        nets.iter()
            .map(|&n| design.net_hpwl(&design.nets[n.index()]))
            .sum()
    };
    let before = cost(design);
    let pa = design.cells[a].pos;
    let pb = design.cells[b].pos;
    design.cells[a].pos = pb;
    design.cells[b].pos = pa;
    let after = cost(design);
    design.cells[a].pos = pa;
    design.cells[b].pos = pb;
    before - after
}

/// The optimal point of a cell: per axis, the median of its incident nets'
/// bounding-interval endpoints (computed without the cell's own pin).
/// `xs`/`ys` are scratch for the endpoints.
fn optimal_point(
    design: &Design,
    ci: usize,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Option<Point> {
    xs.clear();
    ys.clear();
    for &n in &design.cell_nets[ci] {
        let net = &design.nets[n.index()];
        let mut lo_x = f64::INFINITY;
        let mut hi_x = f64::NEG_INFINITY;
        let mut lo_y = f64::INFINITY;
        let mut hi_y = f64::NEG_INFINITY;
        for pin in &net.pins {
            if pin.cell.index() == ci {
                continue;
            }
            let p = design.pin_position(pin);
            lo_x = lo_x.min(p.x);
            hi_x = hi_x.max(p.x);
            lo_y = lo_y.min(p.y);
            hi_y = hi_y.max(p.y);
        }
        if lo_x.is_finite() {
            xs.push(lo_x);
            xs.push(hi_x);
            ys.push(lo_y);
            ys.push(hi_y);
        }
    }
    if xs.is_empty() {
        return None;
    }
    // `total_cmp` equality means equal bits, so the selected median is the
    // one a full sort would put there.
    let mid = xs.len() / 2;
    let (_, &mut x, _) = xs.select_nth_unstable_by(mid, f64::total_cmp);
    let (_, &mut y, _) = ys.select_nth_unstable_by(mid, f64::total_cmp);
    Some(Point::new(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize};
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::DesignBuilder;

    /// Oracle: `global_swap` as it ranked partners before the bounded scan —
    /// every same-footprint partner collected, stable-sorted by distance and
    /// cut to the first [`SWAP_CANDIDATES`], with fresh buffers per cell.
    fn global_swap_reference(design: &mut Design, passes: usize) -> f64 {
        let before = design.hpwl();
        let movable = movable_std_cells(design);
        if movable.len() < 2 {
            return 0.0;
        }
        let buckets = footprint_buckets(design, &movable);
        for _ in 0..passes {
            for &ci in &movable {
                let Some(target) = optimal_point(design, ci, &mut Vec::new(), &mut Vec::new())
                else {
                    continue;
                };
                let here = design.cells[ci].pos;
                if here.manhattan_distance(target) < design.cells[ci].size.width {
                    continue;
                }
                let Some(partners) = buckets.get(&footprint_key(design, ci)) else {
                    continue;
                };
                let mut ranked: Vec<(f64, usize)> = partners
                    .iter()
                    .filter(|&&cj| cj != ci)
                    .map(|&cj| (design.cells[cj].pos.manhattan_distance(target), cj))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut best: Option<(f64, usize)> = None;
                for &(_, cj) in ranked.iter().take(SWAP_CANDIDATES) {
                    let delta = swap_gain(design, ci, cj, &mut Vec::new());
                    if delta > 1e-12 && best.map(|(g, _)| delta > g).unwrap_or(true) {
                        best = Some((delta, cj));
                    }
                }
                if let Some((_, cj)) = best {
                    let pi = design.cells[ci].pos;
                    let pj = design.cells[cj].pos;
                    design.cells[ci].pos = pj;
                    design.cells[cj].pos = pi;
                }
            }
        }
        before - design.hpwl()
    }

    fn position_bits(d: &Design) -> Vec<(u64, u64)> {
        d.cells
            .iter()
            .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits()))
            .collect()
    }

    /// Runs both implementations on clones of `d` and demands identical
    /// bits; returns the gain.
    fn assert_matches_reference(d: &Design, passes: usize) -> f64 {
        let mut fast = d.clone();
        let mut reference = d.clone();
        let gain = global_swap(&mut fast, passes);
        let expected = global_swap_reference(&mut reference, passes);
        assert_eq!(
            gain.to_bits(),
            expected.to_bits(),
            "{} passes={passes}: gain {gain} vs reference {expected}",
            d.name
        );
        assert!(
            position_bits(&fast) == position_bits(&reference),
            "{} passes={passes}: positions differ from the reference",
            d.name
        );
        gain
    }

    #[test]
    fn bounded_scan_is_bitwise_the_sorted_ranking() {
        for seed in [3, 11, 29] {
            for config in [
                BenchmarkConfig::ispd05_like(format!("ispd{seed}"), seed).scale(400),
                BenchmarkConfig::mms_like(format!("mms{seed}"), seed, 1.0, 6).scale(400),
                BenchmarkConfig::peko_like(format!("peko{seed}"), seed).scale(400),
            ] {
                let mut d = config.generate();
                // Macros stay where they are; only std cells legalize.
                for c in &mut d.cells {
                    if c.kind == CellKind::Macro {
                        c.fixed = true;
                    }
                }
                legalize(&mut d).unwrap();
                for passes in [1, 2] {
                    let gain = assert_matches_reference(&d, passes);
                    assert!(gain > 0.0, "{} passes={passes}: no swap accepted", d.name);
                }
            }
        }
    }

    #[test]
    fn equidistant_partners_tie_break_in_bucket_order() {
        // `a` is drawn to T = (50, 18) by two nets and leans toward R =
        // (62, 18) by a third. Ten net-free partners sit exactly 12 from T,
        // so the distance ranking is one ten-way tie and bucket order must
        // pick the first SWAP_CANDIDATES. The partner nearest R (p7, best
        // swap overall) lies outside that prefix; inside it, p3 and p5 tie
        // for the best gain and the earlier one, p3, must win.
        let mut b = DesignBuilder::new("tie", Rect::new(0.0, 0.0, 100.0, 48.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let partners: Vec<_> = (0..10)
            .map(|k| b.add_cell(format!("p{k}"), 4.0, 12.0, CellKind::StdCell))
            .collect();
        let t = b.add_cell("t", 2.0, 2.0, CellKind::Terminal);
        let r = b.add_cell("r", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n1", vec![(a, Point::ORIGIN), (t, Point::ORIGIN)]);
        b.add_net("n2", vec![(a, Point::ORIGIN), (t, Point::ORIGIN)]);
        b.add_net("n3", vec![(a, Point::ORIGIN), (r, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(10.0, 6.0);
        d.cells[t.index()].pos = Point::new(50.0, 18.0);
        d.cells[r.index()].pos = Point::new(62.0, 18.0);
        let spots = [
            (38.0, 18.0),
            (50.0, 30.0),
            (50.0, 6.0),
            (56.0, 24.0),
            (44.0, 12.0),
            (56.0, 12.0),
            (44.0, 24.0),
            (62.0, 18.0),
            (41.0, 15.0),
            (59.0, 21.0),
        ];
        for (&p, &(x, y)) in partners.iter().zip(&spots) {
            d.cells[p.index()].pos = Point::new(x, y);
        }

        let target = optimal_point(&d, a.index(), &mut Vec::new(), &mut Vec::new()).unwrap();
        assert_eq!(target, Point::new(50.0, 18.0));
        for &p in &partners {
            assert_eq!(d.cells[p.index()].pos.manhattan_distance(target), 12.0);
        }
        let bucket = movable_std_cells(&d);
        let (nearest, count) = nearest_partners(&d, &bucket, a.index(), target);
        assert_eq!(count, SWAP_CANDIDATES);
        assert_eq!(nearest, [1, 2, 3, 4, 5, 6].map(|k| bucket[k]));

        assert!(assert_matches_reference(&d, 1) > 0.0);
        global_swap(&mut d, 1);
        assert_eq!(
            d.cells[a.index()].pos,
            Point::new(56.0, 24.0),
            "a did not take p3's spot"
        );
        assert_eq!(d.cells[partners[3].index()].pos, Point::new(10.0, 6.0));
    }

    #[test]
    #[ignore = "timing; run with --release --ignored --nocapture"]
    fn bounded_scan_timing_against_reference() {
        // Interleaved arms on identical legalized inputs: 3 seeds × 5 reps,
        // 2 passes (the flow's default), median over the 15 samples.
        let seeds = [7, 8, 9];
        for (label, configs) in [
            (
                "peko_like",
                seeds.map(|s| BenchmarkConfig::peko_like("t", s)),
            ),
            (
                "ispd05_like",
                seeds.map(|s| BenchmarkConfig::ispd05_like("t", s)),
            ),
        ] {
            let (mut old_ms, mut new_ms) = (Vec::new(), Vec::new());
            for config in configs {
                let mut d = config.scale(1500).generate();
                legalize(&mut d).unwrap();
                for _ in 0..5 {
                    let mut r = d.clone();
                    let t = std::time::Instant::now();
                    let g_old = global_swap_reference(&mut r, 2);
                    old_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let mut f = d.clone();
                    let t = std::time::Instant::now();
                    let g_new = global_swap(&mut f, 2);
                    new_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(g_old.to_bits(), g_new.to_bits());
                    assert!(position_bits(&r) == position_bits(&f));
                }
            }
            old_ms.sort_by(f64::total_cmp);
            new_ms.sort_by(f64::total_cmp);
            let mid = old_ms.len() / 2;
            println!(
                "{label}: reference {:.2} ms, bounded scan {:.2} ms, {:.1}x \
                 (median of {}, bitwise identical)",
                old_ms[mid],
                new_ms[mid],
                old_ms[mid] / new_ms[mid],
                old_ms.len()
            );
        }
    }

    #[test]
    fn swap_untangles_crossed_cells_across_rows() {
        // a (row 0) wants to be near pad_top, e (row 1) near pad_bottom:
        // swapping them fixes both nets at once.
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 100.0, 24.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let e = b.add_cell("e", 4.0, 12.0, CellKind::StdCell);
        let pad_bottom = b.add_cell("pb", 2.0, 2.0, CellKind::Terminal);
        let pad_top = b.add_cell("pt", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n1", vec![(a, Point::ORIGIN), (pad_top, Point::ORIGIN)]);
        b.add_net("n2", vec![(e, Point::ORIGIN), (pad_bottom, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(50.0, 6.0); // bottom row
        d.cells[e.index()].pos = Point::new(50.0, 18.0); // top row
        d.cells[pad_bottom.index()].pos = Point::new(50.0, 1.0);
        d.cells[pad_top.index()].pos = Point::new(50.0, 23.0);
        let before = d.hpwl();
        let gain = global_swap(&mut d, 1);
        assert!(gain > 0.0, "no gain from obvious swap (hpwl {before})");
        assert!(d.cells[a.index()].pos.y > d.cells[e.index()].pos.y);
        assert!(check_legal(&d).is_ok());
    }

    #[test]
    fn never_worsens_and_preserves_legality() {
        let mut d = BenchmarkConfig::ispd05_like("gs", 23).scale(300).generate();
        legalize(&mut d).unwrap();
        let gain = global_swap(&mut d, 2);
        assert!(gain >= 0.0);
        assert!(check_legal(&d).is_ok(), "{:?}", check_legal(&d));
    }

    #[test]
    fn swaps_only_identical_footprints() {
        // Two cells of different widths, both badly placed: no swap allowed.
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 100.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let e = b.add_cell("e", 8.0, 12.0, CellKind::StdCell);
        let p0 = b.add_cell("p0", 2.0, 2.0, CellKind::Terminal);
        let p1 = b.add_cell("p1", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n1", vec![(a, Point::ORIGIN), (p1, Point::ORIGIN)]);
        b.add_net("n2", vec![(e, Point::ORIGIN), (p0, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(10.0, 6.0);
        d.cells[e.index()].pos = Point::new(90.0, 6.0);
        d.cells[p0.index()].pos = Point::new(10.0, 1.0);
        d.cells[p1.index()].pos = Point::new(90.0, 1.0);
        let pos_before = (d.cells[a.index()].pos, d.cells[e.index()].pos);
        global_swap(&mut d, 1);
        assert_eq!(
            (d.cells[a.index()].pos, d.cells[e.index()].pos),
            pos_before,
            "different-width cells must not swap"
        );
    }

    #[test]
    fn single_cell_is_a_noop() {
        let mut b = DesignBuilder::new("gs", Rect::new(0.0, 0.0, 10.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        b.add_cell("a", 2.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        assert_eq!(global_swap(&mut d, 3), 0.0);
    }
}
