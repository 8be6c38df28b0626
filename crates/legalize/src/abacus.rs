//! Abacus-style legalization (Spindler et al.): cells are inserted row by
//! row in x order, and each row's cells are kept in *clusters* that are
//! placed at their displacement-optimal position — shifting an entire
//! cluster instead of pushing one cell to the frontier. Compared to Tetris
//! this cuts displacement (and therefore wirelength damage) substantially,
//! which is why production flows finish with it.
//!
//! Each cell probes the free segments in order of a lower bound on its
//! cost (|Δy| plus the horizontal distance to the segment) and takes the
//! cheapest. Only the [`RANKED_KEYS`] lowest `(bound, segment index)` keys
//! are ranked; the rest are sorted only when none of those can host the
//! cell. A probe runs the cluster collapse against the segment's stack
//! without changing it: only the merged top cluster moves, so the cells
//! below it keep their cached `|x − target|` terms. The trial cost is still
//! the full sequential sum `dy + Σ terms after − Σ terms before`, term for
//! term the sum a cloned segment would give, so every chosen segment and
//! position is bit-identical to cloning the segment for each probe.

use crate::rows::RowMap;
use crate::LegalizeError;
use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design};

/// Once a segment can host the cell, at most this many segments are probed.
const PROBE_LIMIT: usize = 24;

/// Keys ranked before probing: every key the probe loop reads while it has
/// an incumbent (the probed ones plus the one its limit check reads). The
/// rest are sorted only when none of these can host the cell.
const RANKED_KEYS: usize = PROBE_LIMIT + 1;

/// One cell as Abacus sees it: target x (lower-left), width, weight.
#[derive(Debug, Clone, Copy)]
struct AbacusCell {
    design_index: usize,
    target_xl: f64,
    width: f64,
}

/// A cluster of touching cells within a segment (Abacus's `e/q/w` triple:
/// total weight, optimal-position numerator, total width).
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// First cell index (into the row's cell list) in this cluster.
    first: usize,
    /// Σ weights.
    e: f64,
    /// Σ w·(target − offset-in-cluster).
    q: f64,
    /// Total width.
    w: f64,
    /// Current lower-left x of the cluster.
    x: f64,
}

impl Cluster {
    /// The one-cell cluster `cell` starts as when pushed at index `first`.
    fn of(cell: AbacusCell, first: usize) -> Self {
        Cluster {
            first,
            e: 1.0,
            q: cell.target_xl,
            w: cell.width,
            x: cell.target_xl,
        }
    }

    /// Displacement-optimal lower-left x inside `[xl, xh]`. A segment filled
    /// to within the capacity tolerance leaves `xh − w` a few ulps below
    /// `xl`; the cluster then starts at `xl`.
    fn optimal_x(&self, xl: f64, xh: f64) -> f64 {
        (self.q / self.e).clamp(xl, (xh - self.w).max(xl))
    }
}

/// A free row segment: its x extent and the row's centre y.
#[derive(Debug, Clone, Copy)]
struct Segment {
    xl: f64,
    xh: f64,
    yc: f64,
}

/// Per-segment Abacus state: the placed cells in push order, the cluster
/// stack, and what a probe reads instead of rebuilding it.
#[derive(Debug, Clone, Default)]
struct SegmentState {
    cells: Vec<AbacusCell>,
    /// `|x − target_xl|` of each placed cell at its current x, parallel to
    /// `cells`.
    terms: Vec<f64>,
    clusters: Vec<Cluster>,
    /// Σ placed widths, summed in push order.
    used: f64,
}

impl SegmentState {
    /// The Abacus recurrence for pushing `cell`, run against the stack
    /// without changing it: returns the cluster the new cell ends up in and
    /// how many clusters stay below it untouched.
    fn collapse(&self, cell: AbacusCell, seg: Segment) -> (Cluster, usize) {
        let mut top = Cluster::of(cell, self.cells.len());
        let mut below = self.clusters.len();
        loop {
            top.x = top.optimal_x(seg.xl, seg.xh);
            let Some(prev) = below.checked_sub(1).map(|k| self.clusters[k]) else {
                break;
            };
            let prev_end = prev.x + prev.w;
            if top.x >= prev_end - 1e-9 {
                break;
            }
            // Merge the top cluster into its predecessor.
            top = Cluster {
                first: prev.first,
                e: prev.e + top.e,
                q: prev.q + (top.q - top.e * prev.w),
                w: prev.w + top.w,
                x: prev.x,
            };
            below -= 1;
        }
        (top, below)
    }

    /// Appends `cell`, which a trial found room for, and re-collapses
    /// clusters; only the cells of the merged top cluster move, so only
    /// their terms are recomputed.
    fn push(&mut self, cell: AbacusCell, seg: Segment) {
        let (top, below) = self.collapse(cell, seg);
        self.cells.push(cell);
        self.used += cell.width;
        self.clusters.truncate(below);
        self.clusters.push(top);
        self.terms.truncate(top.first);
        let mut x = top.x;
        for c in &self.cells[top.first..] {
            self.terms.push((x - c.target_xl).abs());
            x += c.width;
        }
    }

    /// Displacement cost of hosting `cell` (for segment selection), or
    /// `None` when the segment's capacity (to a 1e-9 tolerance) is
    /// exceeded: `dy`, plus every cell's term after the push, minus every
    /// term before it, summed in that order. Cells below the merged top
    /// cluster keep their cached terms.
    fn trial_cost(&self, cell: AbacusCell, seg: Segment, dy: f64) -> Option<f64> {
        if self.used + cell.width > seg.xh - seg.xl + 1e-9 {
            return None;
        }
        let (top, _) = self.collapse(cell, seg);
        let mut cost = dy;
        for &t in &self.terms[..top.first] {
            cost += t;
        }
        let mut x = top.x;
        for c in self.cells[top.first..].iter().chain([&cell]) {
            cost += (x - c.target_xl).abs();
            x += c.width;
        }
        // Subtract the incumbent cost so the delta is comparable across rows.
        for &t in &self.terms {
            cost -= t;
        }
        Some(cost)
    }
}

/// Probe order: lower bound, then segment index (a stable sort's order).
fn by_key(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Abacus legalization of all movable standard cells (cluster-optimal row
/// packing). Produces lower displacement than [`crate::legalize`] at the
/// cost of more work per cell; both satisfy [`crate::check_legal`].
///
/// # Errors
///
/// Returns [`LegalizeError`] when a cell fits in no segment.
pub fn legalize_abacus(design: &mut Design) -> Result<crate::LegalizeReport, LegalizeError> {
    let hpwl_before = design.hpwl();
    let map = RowMap::build(design);
    let mut segments: Vec<Segment> = Vec::new();
    for r in 0..map.row_count() {
        let yc = map.row_y(r) + 0.5 * map.row_height(r);
        for (xl, xh) in map.segments_of(r) {
            segments.push(Segment { xl, xh, yc });
        }
    }
    if segments.is_empty() {
        return Err(LegalizeError {
            cell: "<none>".into(),
            message: "no free row segments".into(),
        });
    }
    let mut states: Vec<SegmentState> = vec![SegmentState::default(); segments.len()];

    let mut order: Vec<usize> = design
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
        .map(|(i, _)| i)
        .collect();
    order.sort_by(|&a, &b| design.cells[a].pos.x.total_cmp(&design.cells[b].pos.x));

    let mut keys: Vec<(f64, usize)> = Vec::with_capacity(segments.len());
    for &ci in &order {
        let cell = &design.cells[ci];
        let target_xl = cell.pos.x - 0.5 * cell.size.width;
        let acell = AbacusCell {
            design_index: ci,
            target_xl,
            width: cell.size.width,
        };
        // Rank segments by |Δy| and probe the best few (cluster math makes
        // full probing expensive; nearby rows dominate the optimum).
        keys.clear();
        keys.extend(segments.iter().enumerate().map(|(s, seg)| {
            let dy = (seg.yc - cell.pos.y).abs();
            // Quick horizontal infeasibility penalty.
            let dx_bound = if target_xl < seg.xl {
                seg.xl - target_xl
            } else if target_xl + acell.width > seg.xh {
                target_xl + acell.width - seg.xh
            } else {
                0.0
            };
            (dy + dx_bound, s)
        }));
        let ranked = RANKED_KEYS.min(keys.len());
        if ranked < keys.len() {
            keys.select_nth_unstable_by(ranked - 1, by_key);
        }
        keys[..ranked].sort_unstable_by(by_key);
        // Probe in lower-bound order; once an incumbent exists, stop as soon
        // as the bound alone cannot beat it. Without an incumbent, keep
        // going — distant segments may be the only ones with room.
        let mut best: Option<(f64, usize)> = None;
        for probed in 0..keys.len() {
            if let Some((c, _)) = best {
                if probed >= PROBE_LIMIT || keys[probed].0 >= c {
                    break;
                }
            }
            if probed == ranked {
                // The ranked keys hosted nothing: rank the rest.
                keys[ranked..].sort_unstable_by(by_key);
            }
            let s = keys[probed].1;
            let seg = segments[s];
            let dy = (seg.yc - cell.pos.y).abs();
            if let Some(cost) = states[s].trial_cost(acell, seg, dy) {
                if best.map(|(bc, _)| cost < bc).unwrap_or(true) {
                    best = Some((cost, s));
                }
            }
        }
        let (_, s) = best.ok_or_else(|| LegalizeError {
            cell: design.cells[ci].name.clone(),
            message: "no segment can host the cell".into(),
        })?;
        states[s].push(acell, segments[s]);
    }

    // Commit final positions: each cluster's cells abut from its x.
    let mut total_displacement = 0.0;
    let mut max_displacement = 0.0f64;
    for (seg, state) in segments.iter().zip(&states) {
        for (k, cluster) in state.clusters.iter().enumerate() {
            let end = state
                .clusters
                .get(k + 1)
                .map_or(state.cells.len(), |c| c.first);
            let mut x = cluster.x;
            for c in &state.cells[cluster.first..end] {
                let cell = &mut design.cells[c.design_index];
                let new_pos = Point::new(x + 0.5 * cell.size.width, seg.yc);
                let d = new_pos.manhattan_distance(cell.pos);
                total_displacement += d;
                max_displacement = max_displacement.max(d);
                cell.pos = new_pos;
                x += c.width;
            }
        }
    }

    Ok(crate::LegalizeReport {
        placed: order.len(),
        total_displacement,
        max_displacement,
        hpwl_before,
        hpwl_after: design.hpwl(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize, LegalizeReport};
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::DesignBuilder;

    /// Oracle segment: Abacus as it probed before the cached terms. A trial
    /// clones the segment, pushes onto the clone and recomputes both
    /// position lists. Its clamp is [`Cluster::optimal_x`]'s, so a segment
    /// filled to within the tolerance does not panic here either.
    #[derive(Debug, Clone, Default)]
    struct ReferenceSegment {
        cells: Vec<AbacusCell>,
        clusters: Vec<Cluster>,
    }

    impl ReferenceSegment {
        fn push(&mut self, cell: AbacusCell, xl: f64, xh: f64) -> bool {
            let used: f64 = self.cells.iter().map(|c| c.width).sum();
            if used + cell.width > xh - xl + 1e-9 {
                return false;
            }
            let first = self.cells.len();
            self.cells.push(cell);
            self.clusters.push(Cluster::of(cell, first));
            loop {
                let k = self.clusters.len();
                if let Some(c) = self.clusters.last_mut() {
                    c.x = (c.q / c.e).clamp(xl, (xh - c.w).max(xl));
                }
                if k < 2 {
                    break;
                }
                let prev_end = self.clusters[k - 2].x + self.clusters[k - 2].w;
                if self.clusters[k - 1].x >= prev_end - 1e-9 {
                    break;
                }
                let (Some(last), Some(prev)) = (self.clusters.pop(), self.clusters.last_mut())
                else {
                    break;
                };
                prev.q += last.q - last.e * prev.w;
                prev.e += last.e;
                prev.w += last.w;
            }
            true
        }

        fn positions(&self, xl: f64, xh: f64) -> Vec<f64> {
            let mut out = vec![0.0; self.cells.len()];
            for (k, cluster) in self.clusters.iter().enumerate() {
                let end = self
                    .clusters
                    .get(k + 1)
                    .map(|c| c.first)
                    .unwrap_or(self.cells.len());
                let mut x = (cluster.q / cluster.e).clamp(xl, (xh - cluster.w).max(xl));
                let span = cluster.first..end;
                for (o, cell) in out[span.clone()].iter_mut().zip(&self.cells[span]) {
                    *o = x;
                    x += cell.width;
                }
            }
            out
        }

        fn trial_cost(&self, cell: AbacusCell, xl: f64, xh: f64, dy: f64) -> Option<f64> {
            let mut clone = self.clone();
            if !clone.push(cell, xl, xh) {
                return None;
            }
            let pos = clone.positions(xl, xh);
            let mut cost = dy;
            for (c, &x) in clone.cells.iter().zip(&pos) {
                cost += (x - c.target_xl).abs();
            }
            let pos_before = self.positions(xl, xh);
            for (c, &x) in self.cells.iter().zip(&pos_before) {
                cost -= (x - c.target_xl).abs();
            }
            Some(cost)
        }
    }

    /// Oracle: [`legalize_abacus`] as it was before the cached terms, with
    /// every segment ranked by a stable sort on its lower bound.
    fn legalize_abacus_reference(design: &mut Design) -> Result<LegalizeReport, LegalizeError> {
        let hpwl_before = design.hpwl();
        let map = RowMap::build(design);
        let mut segments: Vec<(usize, f64, f64, f64)> = Vec::new();
        for r in 0..map.row_count() {
            for (xl, xh) in map.segments_of(r) {
                segments.push((r, xl, xh, map.row_y(r) + 0.5 * map.row_height(r)));
            }
        }
        if segments.is_empty() {
            return Err(LegalizeError {
                cell: "<none>".into(),
                message: "no free row segments".into(),
            });
        }
        let mut states: Vec<ReferenceSegment> = vec![ReferenceSegment::default(); segments.len()];
        let mut order: Vec<usize> = design
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
            .map(|(i, _)| i)
            .collect();
        order.sort_by(|&a, &b| design.cells[a].pos.x.total_cmp(&design.cells[b].pos.x));
        for &ci in &order {
            let cell = &design.cells[ci];
            let target_xl = cell.pos.x - 0.5 * cell.size.width;
            let acell = AbacusCell {
                design_index: ci,
                target_xl,
                width: cell.size.width,
            };
            let mut ranked: Vec<(f64, usize)> = segments
                .iter()
                .enumerate()
                .map(|(s, &(_, xl, xh, yc))| {
                    let dy = (yc - cell.pos.y).abs();
                    let dx_bound = if target_xl < xl {
                        xl - target_xl
                    } else if target_xl + acell.width > xh {
                        target_xl + acell.width - xh
                    } else {
                        0.0
                    };
                    (dy + dx_bound, s)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut best: Option<(f64, usize)> = None;
            for (probed, &(lower_bound, s)) in ranked.iter().enumerate() {
                if let Some((c, _)) = best {
                    if lower_bound >= c || probed >= 24 {
                        break;
                    }
                }
                let (_, xl, xh, yc) = segments[s];
                let dy = (yc - cell.pos.y).abs();
                if let Some(cost) = states[s].trial_cost(acell, xl, xh, dy) {
                    if best.map(|(bc, _)| cost < bc).unwrap_or(true) {
                        best = Some((cost, s));
                    }
                }
            }
            let (_, s) = best.ok_or_else(|| LegalizeError {
                cell: design.cells[ci].name.clone(),
                message: "no segment can host the cell".into(),
            })?;
            let (_, xl, xh, _) = segments[s];
            states[s].push(acell, xl, xh);
        }
        let mut total_displacement = 0.0;
        let mut max_displacement = 0.0f64;
        for (s, state) in states.iter().enumerate() {
            let (_, xl, xh, yc) = segments[s];
            let pos = state.positions(xl, xh);
            for (c, &x) in state.cells.iter().zip(&pos) {
                let cell = &mut design.cells[c.design_index];
                let new_pos = Point::new(x + 0.5 * cell.size.width, yc);
                let d = new_pos.manhattan_distance(cell.pos);
                total_displacement += d;
                max_displacement = max_displacement.max(d);
                cell.pos = new_pos;
            }
        }
        Ok(LegalizeReport {
            placed: order.len(),
            total_displacement,
            max_displacement,
            hpwl_before,
            hpwl_after: design.hpwl(),
        })
    }

    /// Every cell's position, as bits.
    fn position_bits(d: &Design) -> Vec<(u64, u64)> {
        d.cells
            .iter()
            .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits()))
            .collect()
    }

    /// Runs both legalizers on copies of `design` and requires the same
    /// outcome (`Debug` prints every float's shortest round-trip form, so
    /// equal strings mean equal bits) and the same placement.
    fn assert_matches_reference(design: &Design) -> Result<LegalizeReport, LegalizeError> {
        let mut reference = design.clone();
        let mut cached = design.clone();
        let expected = legalize_abacus_reference(&mut reference);
        let got = legalize_abacus(&mut cached);
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "{}",
            design.name
        );
        assert!(
            position_bits(&cached) == position_bits(&reference),
            "{}: placements differ",
            design.name
        );
        got
    }

    #[test]
    fn cached_probes_are_bitwise_the_reference() {
        for cells in [400, 1_500] {
            for seed in [3, 11, 29] {
                for config in [
                    BenchmarkConfig::ispd05_like(format!("ispd{cells}_{seed}"), seed),
                    BenchmarkConfig::mms_like(format!("mms{cells}_{seed}"), seed, 0.8, 24),
                    BenchmarkConfig::peko_like(format!("peko{cells}_{seed}"), seed),
                ] {
                    let mut d = config.scale(cells).generate();
                    // Macros stay where they are; only std cells legalize.
                    for c in &mut d.cells {
                        if c.kind == CellKind::Macro {
                            c.fixed = true;
                        }
                    }
                    let report = assert_matches_reference(&d).unwrap();
                    assert_eq!(report.placed, cells, "{}", d.name);
                }
            }
        }
    }

    /// `count` full-row cells all targeting `(5, target_y)` in a 10-wide
    /// core of `rows` unit rows: every row holds one cell, so cell `k` (in
    /// index order) finds the `k` segments ranked ahead of its own full.
    fn stacked_full_rows(rows: usize, count: usize, target_y: f64) -> Design {
        let mut b = DesignBuilder::new("stack", Rect::new(0.0, 0.0, 10.0, rows as f64));
        b.uniform_rows(1.0, 1.0);
        let ids: Vec<_> = (0..count)
            .map(|i| b.add_cell(format!("c{i}"), 10.0, 1.0, CellKind::StdCell))
            .collect();
        let mut d = b.build();
        for id in ids {
            d.cells[id.index()].pos = Point::new(5.0, target_y);
        }
        d
    }

    /// The row (bottom y) of each cell, in index order.
    fn rows_taken(d: &Design) -> Vec<f64> {
        d.cells.iter().map(|c| c.pos.y - 0.5).collect()
    }

    #[test]
    fn probing_past_the_ranked_keys_matches_the_reference() {
        // Targets in the middle row of 200: cell k's k nearest rows are
        // full, so cells 25 to 59 probe past the RANKED_KEYS nearest
        // segments, whose order the rest of the key list must extend.
        let d = stacked_full_rows(200, 60, 100.5);
        assert_matches_reference(&d).unwrap();
        let mut placed = d.clone();
        legalize_abacus(&mut placed).unwrap();
        assert!(check_legal(&placed).is_ok());
        // Nearest free row first; of two equally near, the lower.
        let expected: Vec<f64> = (0..60)
            .map(|k| match k % 2 {
                0 => 100.0 + (k / 2) as f64,
                _ => 100.0 - ((k + 1) / 2) as f64,
            })
            .collect();
        assert_eq!(rows_taken(&placed), expected);
        // One more cell than rows fails on the same cell in both.
        let err = assert_matches_reference(&stacked_full_rows(40, 41, 0.5)).unwrap_err();
        assert_eq!(err.cell, "c40");
    }

    #[test]
    fn tied_bounds_probe_in_segment_order() {
        // Targets on the boundary of rows 19 and 20: every pair of rows
        // equidistant from it ties on the bound, and the lower segment
        // index must be probed (and, at equal cost, chosen) first.
        let d = stacked_full_rows(40, 30, 20.0);
        assert_matches_reference(&d).unwrap();
        let mut placed = d.clone();
        legalize_abacus(&mut placed).unwrap();
        assert_eq!(&rows_taken(&placed)[..4], &[19.0, 20.0, 18.0, 21.0]);
    }

    #[test]
    #[ignore = "timing; run with --release --ignored --nocapture"]
    fn cached_probes_timing_against_reference() {
        // Interleaved arms on identical inputs at their generated positions:
        // 3 seeds × 3 repetitions, median over the 9 samples.
        for (label, cells, configs) in [
            (
                "ispd05_like",
                1_500,
                [7, 8, 9].map(|s| BenchmarkConfig::ispd05_like("t", s)),
            ),
            (
                "ispd05_like",
                10_000,
                [7, 8, 9].map(|s| BenchmarkConfig::ispd05_like("t", s)),
            ),
            (
                "peko_like",
                1_500,
                [7, 8, 9].map(|s| BenchmarkConfig::peko_like("t", s)),
            ),
        ] {
            let (mut old_ms, mut new_ms) = (Vec::new(), Vec::new());
            for config in configs {
                let d = config.scale(cells).generate();
                for _ in 0..3 {
                    let mut r = d.clone();
                    let t = std::time::Instant::now();
                    let expected = legalize_abacus_reference(&mut r);
                    old_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let mut f = d.clone();
                    let t = std::time::Instant::now();
                    let got = legalize_abacus(&mut f);
                    new_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(format!("{got:?}"), format!("{expected:?}"));
                    assert!(position_bits(&r) == position_bits(&f));
                }
            }
            old_ms.sort_by(f64::total_cmp);
            new_ms.sort_by(f64::total_cmp);
            let mid = old_ms.len() / 2;
            println!(
                "{label} {cells} cells: reference {:.2} ms, cached {:.2} ms, {:.2}x \
                 (median of {}, bitwise identical)",
                old_ms[mid],
                new_ms[mid],
                old_ms[mid] / new_ms[mid],
                old_ms.len()
            );
        }
    }

    #[test]
    fn segment_filled_to_its_tolerance_does_not_panic() {
        // 0.1 + 0.2 = 0.30000000000000004 passes the capacity check of a
        // 0.3-wide row, and the merged cluster's xh − w is −5.6e-17, below
        // xl: `f64::clamp` used to panic on that inverted interval.
        let mut b = DesignBuilder::new("tight", Rect::new(0.0, 0.0, 0.3, 1.0));
        b.uniform_rows(1.0, 0.1);
        let a = b.add_cell("a", 0.1, 1.0, CellKind::StdCell);
        let c = b.add_cell("c", 0.2, 1.0, CellKind::StdCell);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(0.15, 0.5);
        d.cells[c.index()].pos = Point::new(0.15, 0.5);
        let report = legalize_abacus(&mut d).unwrap();
        assert_eq!(report.placed, 2);
        assert!(check_legal(&d).is_ok(), "{:?}", check_legal(&d));
    }

    #[test]
    fn abacus_produces_legal_layout() {
        let mut d = BenchmarkConfig::ispd05_like("ab", 201)
            .scale(300)
            .generate();
        let report = legalize_abacus(&mut d).unwrap();
        assert_eq!(report.placed, 300);
        assert!(check_legal(&d).is_ok(), "{:?}", check_legal(&d));
    }

    #[test]
    fn abacus_beats_tetris_on_displacement() {
        let mut tetris_d = BenchmarkConfig::ispd05_like("ab", 202)
            .scale(300)
            .generate();
        let mut abacus_d = tetris_d.clone();
        let t = legalize(&mut tetris_d).unwrap();
        let a = legalize_abacus(&mut abacus_d).unwrap();
        assert!(
            a.total_displacement <= t.total_displacement * 1.05,
            "abacus {:.3e} vs tetris {:.3e}",
            a.total_displacement,
            t.total_displacement
        );
    }

    #[test]
    fn cluster_collapse_is_order_preserving() {
        // Three cells targeting the same x pack side by side around it.
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        let ids: Vec<_> = (0..3)
            .map(|i| b.add_cell(format!("c{i}"), 10.0, 12.0, CellKind::StdCell))
            .collect();
        let mut d = b.build();
        for (k, id) in ids.iter().enumerate() {
            d.cells[id.index()].pos = Point::new(50.0 + 0.01 * k as f64, 6.0);
        }
        legalize_abacus(&mut d).unwrap();
        assert!(check_legal(&d).is_ok());
        // Mean position preserved: the cluster centers on the common target.
        let mean: f64 = ids.iter().map(|id| d.cells[id.index()].pos.x).sum::<f64>() / 3.0;
        assert!((mean - 50.0).abs() < 5.1, "mean {mean}");
    }

    #[test]
    fn respects_blockages() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        let blk = b.add_cell_with(
            "blk",
            30.0,
            12.0,
            CellKind::Macro,
            true,
            Point::new(50.0, 6.0),
        );
        let c = b.add_cell("c", 8.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        d.cells[c.index()].pos = Point::new(50.0, 6.0);
        legalize_abacus(&mut d).unwrap();
        assert!(check_legal(&d).is_ok());
        let overlap = d.cells[c.index()]
            .rect()
            .overlap_area(&d.cells[blk.index()].rect());
        assert_eq!(overlap, 0.0);
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        for i in 0..3 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::StdCell);
        }
        let mut d = b.build();
        assert!(legalize_abacus(&mut d).is_err());
    }
}
