use crate::{GlobalPlacer, GpResult};
use eplace_core::measure_overflow;
use eplace_geometry::{Point, Rect};
use eplace_netlist::{Design, NetId};
use std::time::Instant;

/// Stop recursing below this many cells.
const LEAF_SIZE: usize = 8;

/// Allowed area imbalance per cut (fraction of the region's movable area).
const BALANCE_TOLERANCE: f64 = 0.12;

/// FM passes per bisection.
const FM_PASSES: usize = 2;

/// A Capo-style min-cut placer: recursive bisection with
/// Fiduccia–Mattheyses (FM) refinement and terminal propagation.
///
/// Each region is split across its longer dimension; the cells are
/// partitioned to balance area, an FM pass (gain buckets, best-prefix
/// rollback, ±balance tolerance) reduces the number of cut nets, and the
/// halves recurse until regions hold a handful of cells, which are then
/// placed on a grid inside their region.
///
/// Min-cut commits to early partitions that global analytic optimization
/// would revisit — the suboptimality the paper's §I attributes to the
/// family and Tables I–III quantify. Its settings are constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MincutPlacer;

impl GlobalPlacer for MincutPlacer {
    fn name(&self) -> &'static str {
        "mincut"
    }

    fn global_place(&self, design: &mut Design) -> GpResult {
        let start = Instant::now();
        let movables: Vec<usize> = design.movable_indices().collect();
        let mut cuts = 0;
        if !movables.is_empty() {
            self.recurse(design, design.region, movables, 0, &mut cuts);
        }
        GpResult {
            hpwl: design.hpwl(),
            overflow: measure_overflow(design),
            iterations: cuts,
            seconds: start.elapsed().as_secs_f64(),
            line_search_seconds: 0.0,
        }
    }
}

impl MincutPlacer {
    fn recurse(
        &self,
        design: &mut Design,
        region: Rect,
        cells: Vec<usize>,
        depth: usize,
        cuts: &mut usize,
    ) {
        if cells.len() <= LEAF_SIZE || depth > 40 {
            place_leaf(design, region, &cells);
            return;
        }
        *cuts += 1;
        let vertical = region.width() >= region.height(); // split along x?
        let (left_region, right_region) = split_region(region, vertical);

        // Initial balanced partition by coordinate.
        let mut order = cells.clone();
        order.sort_by(|&a, &b| {
            let ka = coord(design.cells[a].pos, vertical);
            let kb = coord(design.cells[b].pos, vertical);
            ka.total_cmp(&kb)
        });
        let total_area: f64 = order.iter().map(|&c| design.cells[c].area()).sum();
        let mut side = vec![false; order.len()]; // false = left
        let mut acc = 0.0;
        for (k, &c) in order.iter().enumerate() {
            if acc >= 0.5 * total_area {
                side[k] = true;
            }
            acc += design.cells[c].area();
        }

        // FM refinement on the subproblem.
        let sub = Subproblem::build(design, &order, region, vertical);
        let max_imbalance = BALANCE_TOLERANCE * total_area;
        for _ in 0..FM_PASSES {
            if !sub.fm_pass(design, &order, &mut side, max_imbalance) {
                break;
            }
        }

        let mut left = Vec::new();
        let mut right = Vec::new();
        for (k, &c) in order.iter().enumerate() {
            if side[k] {
                right.push(c);
            } else {
                left.push(c);
            }
        }
        // Seed positions at the subregion centers so terminal propagation
        // sees the committed halves.
        for &c in &left {
            design.cells[c].pos = clamp_into(design, c, left_region);
        }
        for &c in &right {
            design.cells[c].pos = clamp_into(design, c, right_region);
        }
        self.recurse(design, left_region, left, depth + 1, cuts);
        self.recurse(design, right_region, right, depth + 1, cuts);
    }
}

fn coord(p: Point, vertical: bool) -> f64 {
    if vertical {
        p.x
    } else {
        p.y
    }
}

fn split_region(region: Rect, vertical: bool) -> (Rect, Rect) {
    if vertical {
        let mid = 0.5 * (region.xl + region.xh);
        (
            Rect::new(region.xl, region.yl, mid, region.yh),
            Rect::new(mid, region.yl, region.xh, region.yh),
        )
    } else {
        let mid = 0.5 * (region.yl + region.yh);
        (
            Rect::new(region.xl, region.yl, region.xh, mid),
            Rect::new(region.xl, mid, region.xh, region.yh),
        )
    }
}

fn clamp_into(design: &Design, cell: usize, region: Rect) -> Point {
    let c = &design.cells[cell];
    let anchor = if c.pos.is_finite() {
        c.pos
    } else {
        region.center()
    };
    region.clamp_center(
        anchor,
        c.size.width.min(region.width()),
        c.size.height.min(region.height()),
    )
}

/// Grid placement of a leaf region's cells.
fn place_leaf(design: &mut Design, region: Rect, cells: &[usize]) {
    if cells.is_empty() {
        return;
    }
    let k = (cells.len() as f64).sqrt().ceil() as usize;
    for (i, &c) in cells.iter().enumerate() {
        let ix = i % k;
        let iy = i / k;
        let p = Point::new(
            region.xl + (ix as f64 + 0.5) * region.width() / k as f64,
            region.yl + (iy as f64 + 0.5) * region.height() / k as f64,
        );
        let cell = &design.cells[c];
        design.cells[c].pos = region.clamp_center(
            p,
            cell.size.width.min(region.width()),
            cell.size.height.min(region.height()),
        );
    }
}

/// The hypergraph restricted to one bisection subproblem, with terminal
/// propagation: pins outside the cell set are locked to the side their
/// coordinate falls on.
struct Subproblem {
    /// For each local cell, the nets incident to it (as indices into
    /// `nets`).
    cell_nets: Vec<Vec<usize>>,
    /// For each net: local member cells and locked external pin counts
    /// (left, right).
    nets: Vec<(Vec<usize>, usize, usize)>,
}

impl Subproblem {
    fn build(design: &Design, order: &[usize], region: Rect, vertical: bool) -> Self {
        let mid = if vertical {
            0.5 * (region.xl + region.xh)
        } else {
            0.5 * (region.yl + region.yh)
        };
        let mut local_of = std::collections::HashMap::new();
        for (k, &c) in order.iter().enumerate() {
            local_of.insert(c, k);
        }
        let mut net_ids: Vec<NetId> = Vec::new();
        {
            let mut seen = std::collections::HashSet::new();
            for &c in order {
                for &n in design.nets_of(c) {
                    if seen.insert(n) {
                        net_ids.push(n);
                    }
                }
            }
        }
        let mut nets = Vec::with_capacity(net_ids.len());
        let mut cell_nets = vec![Vec::new(); order.len()];
        for n in net_ids {
            let mut members = Vec::new();
            let mut ext_left = 0;
            let mut ext_right = 0;
            for pin in design.net_pins(n.index()) {
                let ci = pin.cell.index();
                if let Some(&k) = local_of.get(&ci) {
                    if !members.contains(&k) {
                        members.push(k);
                    }
                } else {
                    let p = design.cells[ci].pos + pin.offset;
                    if coord(p, vertical) < mid {
                        ext_left += 1;
                    } else {
                        ext_right += 1;
                    }
                }
            }
            if members.is_empty() || (members.len() == 1 && ext_left + ext_right == 0) {
                continue;
            }
            let idx = nets.len();
            for &k in &members {
                cell_nets[k].push(idx);
            }
            nets.push((members, ext_left.min(1), ext_right.min(1)));
        }
        Subproblem { cell_nets, nets }
    }

    /// Cut value of a partition: nets with pins (or locked terminals) on
    /// both sides.
    fn cut(&self, side: &[bool]) -> usize {
        self.nets
            .iter()
            .filter(|(members, ext_l, ext_r)| {
                let mut left = *ext_l > 0;
                let mut right = *ext_r > 0;
                for &k in members {
                    if side[k] {
                        right = true;
                    } else {
                        left = true;
                    }
                }
                left && right
            })
            .count()
    }

    /// One FM pass: tentatively move every cell once in gain order, then
    /// roll back to the best prefix. Returns `true` when the cut improved.
    fn fm_pass(
        &self,
        design: &Design,
        order: &[usize],
        side: &mut [bool],
        max_imbalance: f64,
    ) -> bool {
        let n = order.len();
        let start_cut = self.cut(side);
        let mut locked = vec![false; n];
        let area = |k: usize| design.cells[order[k]].area();
        let mut imbalance: f64 = (0..n)
            .map(|k| if side[k] { area(k) } else { -area(k) })
            .sum();

        // (move sequence, cut after each move)
        let mut moves: Vec<usize> = Vec::with_capacity(n);
        let mut work = side.to_vec();
        let mut best_cut = start_cut;
        let mut best_prefix = 0;
        let mut cur_cut = start_cut;

        for _ in 0..n {
            // Pick the unlocked, balance-feasible cell with the best gain.
            let mut best: Option<(i64, usize)> = None;
            for k in 0..n {
                if locked[k] {
                    continue;
                }
                let delta = if work[k] {
                    -2.0 * area(k)
                } else {
                    2.0 * area(k)
                };
                if (imbalance + delta).abs() > max_imbalance.max(2.0 * area(k)) {
                    continue;
                }
                let g = self.gain(k, &work);
                if best.map(|(bg, _)| g > bg).unwrap_or(true) {
                    best = Some((g, k));
                }
            }
            let Some((gain, k)) = best else { break };
            imbalance += if work[k] {
                -2.0 * area(k)
            } else {
                2.0 * area(k)
            };
            work[k] = !work[k];
            locked[k] = true;
            moves.push(k);
            cur_cut = (cur_cut as i64 - gain) as usize;
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
        }

        if best_cut >= start_cut {
            return false;
        }
        // Apply the best prefix.
        for &k in &moves[..best_prefix] {
            side[k] = !side[k];
        }
        debug_assert_eq!(self.cut(side), best_cut);
        true
    }

    /// FM gain of moving local cell `k`: cut nets that become uncut minus
    /// uncut nets that become cut.
    fn gain(&self, k: usize, side: &[bool]) -> i64 {
        let mut gain = 0i64;
        let from = side[k];
        for &ni in &self.cell_nets[k] {
            let (members, ext_l, ext_r) = &self.nets[ni];
            let mut on_from = if from { *ext_r } else { *ext_l };
            let mut on_to = if from { *ext_l } else { *ext_r };
            for &m in members {
                if m == k {
                    continue;
                }
                if side[m] == from {
                    on_from += 1;
                } else {
                    on_to += 1;
                }
            }
            if on_from == 0 {
                gain += 1; // net becomes uncut
            } else if on_to == 0 {
                gain -= 1; // net becomes cut
            }
        }
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_netlist::{CellKind, DesignBuilder};

    #[test]
    fn fm_separates_two_cliques() {
        // Two 4-cliques joined by one bridge net: optimal cut = 1.
        let mut b = DesignBuilder::new("fm", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..8)
            .map(|i| b.add_cell(format!("c{i}"), 2.0, 2.0, CellKind::StdCell))
            .collect();
        for group in [[0, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_net(
                        "e",
                        vec![
                            (ids[group[i]], Point::ORIGIN),
                            (ids[group[j]], Point::ORIGIN),
                        ],
                    );
                }
            }
        }
        b.add_net(
            "bridge",
            vec![(ids[0], Point::ORIGIN), (ids[4], Point::ORIGIN)],
        );
        let d = b.build();
        // Adversarial start: interleaved sides.
        let order: Vec<usize> = (0..8).collect();
        let mut side: Vec<bool> = (0..8).map(|k| k % 2 == 1).collect();
        let sub = Subproblem::build(&d, &order, d.region, true);
        let placer = MincutPlacer;
        for _ in 0..4 {
            if !sub.fm_pass(&d, &order, &mut side, 16.0) {
                break;
            }
        }
        assert_eq!(sub.cut(&side), 1, "sides: {side:?}");
        let _ = placer;
    }

    #[test]
    fn gain_computation_matches_cut_delta() {
        let mut b = DesignBuilder::new("g", Rect::new(0.0, 0.0, 10.0, 10.0));
        let ids: Vec<_> = (0..4)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n0", vec![(ids[0], Point::ORIGIN), (ids[1], Point::ORIGIN)]);
        b.add_net(
            "n1",
            vec![
                (ids[1], Point::ORIGIN),
                (ids[2], Point::ORIGIN),
                (ids[3], Point::ORIGIN),
            ],
        );
        let d = b.build();
        let order: Vec<usize> = (0..4).collect();
        let sub = Subproblem::build(&d, &order, d.region, true);
        let side = vec![false, false, true, true];
        for k in 0..4 {
            let before = sub.cut(&side) as i64;
            let mut flipped = side.clone();
            flipped[k] = !flipped[k];
            let after = sub.cut(&flipped) as i64;
            assert_eq!(sub.gain(k, &side), before - after, "cell {k}");
        }
    }

    #[test]
    fn mincut_places_everything_in_region() {
        let mut d = BenchmarkConfig::ispd05_like("mc", 99).scale(300).generate();
        let result = MincutPlacer.global_place(&mut d);
        assert!(result.iterations > 0, "no bisections happened");
        for c in d.cells.iter().filter(|c| c.is_movable()) {
            assert!(
                d.region.contains(c.pos),
                "cell {} at {} left the region",
                c.name,
                c.pos
            );
        }
    }

    #[test]
    fn mincut_improves_over_random_scatter() {
        let mut d = BenchmarkConfig::ispd05_like("mc", 100)
            .scale(300)
            .generate();
        let scattered_hpwl = d.hpwl();
        let result = MincutPlacer.global_place(&mut d);
        assert!(
            result.hpwl < scattered_hpwl,
            "mincut {} vs scatter {}",
            result.hpwl,
            scattered_hpwl
        );
    }

    #[test]
    fn leaf_placement_spreads_cells() {
        let mut d = BenchmarkConfig::ispd05_like("mc", 101)
            .scale(200)
            .generate();
        MincutPlacer.global_place(&mut d);
        // Overflow should be moderate: min-cut spreads by construction.
        let overflow = measure_overflow(&d);
        assert!(overflow < 0.6, "overflow {overflow}");
    }
}
