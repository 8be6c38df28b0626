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
//!
//! Partners come from a bin index built once per call: each footprint
//! bucket's cells are binned by centre on a uniform grid over the region,
//! and a cell's nearest partners are searched ring by ring outward from its
//! optimal point, stopping once no unvisited bin can hold a closer partner.
//! A swap trades two same-footprint positions, so an accepted swap only
//! exchanges the two cells' entries and no bin's occupancy changes.

use crate::detail::incident_hpwl;
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, Design, NetId};

/// How many same-footprint partners, nearest to a cell's optimal point
/// first, are tried as swap candidates for that cell.
const SWAP_CANDIDATES: usize = 6;

/// Average number of cells per bin of a footprint bucket's grid.
const CELLS_PER_BIN: usize = 2;

/// One pass of global swap over every movable standard cell. Returns the
/// total HPWL improvement (≥ 0); only strictly improving swaps are taken.
///
/// Each cell's `SWAP_CANDIDATES` (6) nearest same-footprint partners come
/// from the bin index, which visits only the rings of bins nearest the
/// cell's optimal point: on the flow's placements from 1 500 to 10⁵ cells,
/// about 30 bins holding about 100 cells per search (a target far from every
/// partner takes more rings). So the cost is O(movable) to build the index
/// plus O(passes · movable) searches, against O(passes · movable · bucket
/// size) for a scan of the bucket, which on single-footprint designs
/// (PEKO-style suites) is every movable cell. The index and the scratch
/// buffers are sized once per call, so no pass allocates.
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
    let mut index = PartnerIndex::new(design, &movable);
    // Sized for the largest incident-net list, so no pass ever grows them.
    let max_degree = max_degree(design, &movable);
    let mut xs = Vec::with_capacity(2 * max_degree);
    let mut ys = Vec::with_capacity(2 * max_degree);
    let mut nets = Vec::with_capacity(2 * max_degree);

    for _ in 0..passes {
        for (k, &ci) in movable.iter().enumerate() {
            let Some(target) = optimal_point(design, ci, &mut xs, &mut ys) else {
                continue;
            };
            // Already close to optimal: nothing to gain.
            let here = design.cells[ci].pos;
            if here.manhattan_distance(target) < design.cells[ci].size.width {
                continue;
            }
            let (nearest, count) = index.nearest(k, target);
            let own_hpwl = incident_hpwl(design, design.nets_of(ci));
            let mut best: Option<(f64, usize)> = None;
            for &kj in &nearest[..count] {
                let delta = swap_gain(design, ci, movable[kj], own_hpwl, &mut nets);
                if delta > 1e-12 && best.map(|(g, _)| delta > g).unwrap_or(true) {
                    best = Some((delta, kj));
                }
            }
            if let Some((_, kj)) = best {
                let cj = movable[kj];
                let pi = design.cells[ci].pos;
                let pj = design.cells[cj].pos;
                design.cells[ci].pos = pj;
                design.cells[cj].pos = pi;
                index.exchange(k, kj);
            }
        }
    }
    before - design.hpwl()
}

/// Movable standard cells, in index order.
pub(crate) fn movable_std_cells(design: &Design) -> Vec<usize> {
    design
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::StdCell && c.is_movable())
        .map(|(i, _)| i)
        .collect()
}

/// The longest incident-net list among `cells`.
pub(crate) fn max_degree(design: &Design, cells: &[usize]) -> usize {
    cells
        .iter()
        .map(|&ci| design.nets_of(ci).len())
        .max()
        .unwrap_or(0)
}

/// A cell's (width, height) in fixed point, to absorb float noise.
fn footprint_key(design: &Design, ci: usize) -> (i64, i64) {
    let s = design.cells[ci].size;
    (
        (s.width * 64.0).round() as i64,
        (s.height * 64.0).round() as i64,
    )
}

/// The swap partners of a list of cells, binned per footprint bucket.
///
/// A cell is named by its place `k` in the list the index was built from,
/// and a bucket holds its cells in list order, so ranking ties by `k` is
/// ranking them by bucket order. Each bucket has its own grid; all buckets
/// share flat arrays. A *slot* is one cell centre: slots are grouped by bin
/// (a bucket's bins row by row, buckets one after another), and an accepted
/// swap exchanges the occupants of two slots without moving either slot.
#[derive(Debug)]
struct PartnerIndex {
    /// Per bucket: its grid.
    grids: Vec<BinGrid>,
    /// Per cell: its bucket's grid.
    grid_of: Vec<usize>,
    /// Per bin: its first slot; the last entry is the slot count.
    bin_start: Vec<usize>,
    /// Per bin of every grid, its slots.
    slots: Vec<Slot>,
    /// Per cell: its slot.
    slot_of: Vec<usize>,
}

/// A cell centre and the cell sitting there.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Never changes: a swap moves cells between slots, not slots.
    pos: Point,
    cell: usize,
}

/// A uniform grid of `nx × ny` bins over the region, for one bucket.
#[derive(Debug)]
struct BinGrid {
    origin: Point,
    bin_w: f64,
    bin_h: f64,
    nx: usize,
    ny: usize,
    /// The grid's first bin in [`PartnerIndex::bin_start`].
    first_bin: usize,
}

impl BinGrid {
    /// About [`CELLS_PER_BIN`] cells per bin for a bucket of `cells`, with
    /// bins as square as the region's aspect ratio allows; one bin when the
    /// region has no area.
    fn new(region: Rect, cells: usize, first_bin: usize) -> BinGrid {
        let bins = (cells / CELLS_PER_BIN).max(1);
        let (w, h) = (region.width(), region.height());
        let (nx, ny) = if w > 0.0 && h > 0.0 && (w / h).is_finite() {
            let nx = ((bins as f64 * w / h).sqrt().round() as usize).clamp(1, bins);
            (nx, (bins / nx).max(1))
        } else {
            (1, 1)
        };
        BinGrid {
            origin: Point::new(region.xl, region.yl),
            bin_w: w / nx as f64,
            bin_h: h / ny as f64,
            nx,
            ny,
            first_bin,
        }
    }

    /// The (column, row) of the bin holding `p`; points off the grid clamp
    /// to its nearest edge bin (the casts saturate: negatives and NaN to 0).
    fn bin_of(&self, p: Point) -> (usize, usize) {
        let col = ((p.x - self.origin.x) / self.bin_w) as usize;
        let row = ((p.y - self.origin.y) / self.bin_h) as usize;
        (col.min(self.nx - 1), row.min(self.ny - 1))
    }

    /// The index in [`PartnerIndex::bin_start`] of bin (`col`, `row`).
    fn bin(&self, col: usize, row: usize) -> usize {
        self.first_bin + row * self.nx + col
    }
}

impl PartnerIndex {
    /// Bins `cells` by footprint bucket, each bucket in list order.
    fn new(design: &Design, cells: &[usize]) -> PartnerIndex {
        let n = cells.len();
        // Bucket runs: list places sorted by (footprint, place), which keeps
        // each bucket in list order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&k| (footprint_key(design, cells[k]), k));
        let mut grids = Vec::new();
        let mut grid_of = vec![0; n];
        let mut bins = 0;
        let mut run = 0;
        while run < n {
            let key = footprint_key(design, cells[order[run]]);
            let len = order[run..]
                .iter()
                .take_while(|&&k| footprint_key(design, cells[k]) == key)
                .count();
            let grid = BinGrid::new(design.region, len, bins);
            bins += grid.nx * grid.ny;
            for &k in &order[run..run + len] {
                grid_of[k] = grids.len();
            }
            grids.push(grid);
            run += len;
        }

        // Counting sort into bins. `slot_of` first holds each cell's bin;
        // filling from the last cell down leaves each bin in list order.
        let mut slot_of: Vec<usize> = (0..n)
            .map(|k| {
                let grid = &grids[grid_of[k]];
                let (col, row) = grid.bin_of(design.cells[cells[k]].pos);
                grid.bin(col, row)
            })
            .collect();
        let mut bin_start = vec![0; bins + 1];
        for &b in &slot_of {
            bin_start[b] += 1;
        }
        let mut total = 0;
        for start in &mut bin_start {
            total += *start;
            *start = total;
        }
        let empty = Slot {
            pos: Point::ORIGIN,
            cell: 0,
        };
        let mut slots = vec![empty; n];
        for k in (0..n).rev() {
            let b = slot_of[k];
            bin_start[b] -= 1;
            let s = bin_start[b];
            slots[s] = Slot {
                pos: design.cells[cells[k]].pos,
                cell: k,
            };
            slot_of[k] = s;
        }
        PartnerIndex {
            grids,
            grid_of,
            bin_start,
            slots,
            slot_of,
        }
    }

    /// The (up to) [`SWAP_CANDIDATES`] cells of `k`'s bucket other than `k`
    /// nearest to `target` in Manhattan distance, nearest first, and how
    /// many there are. Distances compare with `total_cmp` and equal
    /// distances keep bucket order — exactly the prefix a stable sort of the
    /// whole bucket by distance would produce.
    ///
    /// Rings of bins are searched outward from `target`'s bin. A bin `r + 1`
    /// or more rings out is that many bins away on some axis, so in exact
    /// arithmetic its centres lie more than `r` bin sides from `target`;
    /// rounding can file a centre one bin over, so the search stops after
    /// ring `r` once the 6th distance is strictly below `r − 1` sides.
    fn nearest(&self, k: usize, target: Point) -> ([usize; SWAP_CANDIDATES], usize) {
        let grid = &self.grids[self.grid_of[k]];
        let (tx, ty) = grid.bin_of(target);
        let side = grid.bin_w.min(grid.bin_h);
        let last_ring = tx.max(grid.nx - 1 - tx).max(ty).max(grid.ny - 1 - ty);
        let mut kept = Kept::default();
        let visit = |kept: &mut Kept, first: usize, last: usize| {
            for slot in &self.slots[self.bin_start[first]..self.bin_start[last + 1]] {
                if slot.cell != k {
                    kept.offer(slot.pos.manhattan_distance(target), slot.cell);
                }
            }
        };
        for r in 0..=last_ring {
            // The ring's bottom and top rows as runs of adjacent bins, then
            // its left and right columns between them.
            let (x_lo, x_hi) = (tx.saturating_sub(r), (tx + r).min(grid.nx - 1));
            if ty >= r {
                visit(&mut kept, grid.bin(x_lo, ty - r), grid.bin(x_hi, ty - r));
            }
            if r > 0 && ty + r < grid.ny {
                visit(&mut kept, grid.bin(x_lo, ty + r), grid.bin(x_hi, ty + r));
            }
            if r > 0 {
                for row in (ty + 1).saturating_sub(r)..(ty + r).min(grid.ny) {
                    if tx >= r {
                        let b = grid.bin(tx - r, row);
                        visit(&mut kept, b, b);
                    }
                    if tx + r < grid.nx {
                        let b = grid.bin(tx + r, row);
                        visit(&mut kept, b, b);
                    }
                }
            }
            if kept.len == SWAP_CANDIDATES
                && kept.dist[SWAP_CANDIDATES - 1] < (r as f64 - 1.0) * side
            {
                break;
            }
        }
        (kept.cell, kept.len)
    }

    /// Records that cells `a` and `b` (same bucket) swapped positions: each
    /// takes over the other's slot.
    fn exchange(&mut self, a: usize, b: usize) {
        let (sa, sb) = (self.slot_of[a], self.slot_of[b]);
        self.slots[sa].cell = b;
        self.slots[sb].cell = a;
        self.slot_of.swap(a, b);
    }
}

/// The best [`SWAP_CANDIDATES`] (distance, cell) pairs offered so far,
/// ascending by distance under `total_cmp`, then by cell.
#[derive(Debug, Default)]
struct Kept {
    dist: [f64; SWAP_CANDIDATES],
    cell: [usize; SWAP_CANDIDATES],
    len: usize,
}

impl Kept {
    fn offer(&mut self, d: f64, cell: usize) {
        let precedes = |dist: f64, other: usize| d.total_cmp(&dist).then(cell.cmp(&other)).is_lt();
        let last = SWAP_CANDIDATES - 1;
        if self.len == SWAP_CANDIDATES && !precedes(self.dist[last], self.cell[last]) {
            return;
        }
        // Insert after every kept pair that precedes it; when full, the
        // last one drops.
        let mut k = self.len.min(last);
        while k > 0 && precedes(self.dist[k - 1], self.cell[k - 1]) {
            self.dist[k] = self.dist[k - 1];
            self.cell[k] = self.cell[k - 1];
            k -= 1;
        }
        self.dist[k] = d;
        self.cell[k] = cell;
        self.len = (self.len + 1).min(SWAP_CANDIDATES);
    }
}

/// HPWL gain of swapping the positions of `a` and `b` (positive = better),
/// summed over the union of their incident nets, `a`'s first. Those first
/// terms are the same for every partner of `a`, so the caller sums them
/// once: `a_hpwl` is [`incident_hpwl`] of `a`'s nets at the current
/// placement. `nets` is scratch for the union.
fn swap_gain(design: &mut Design, a: usize, b: usize, a_hpwl: f64, nets: &mut Vec<NetId>) -> f64 {
    nets.clear();
    nets.extend_from_slice(design.nets_of(a));
    for &n in design.nets_of(b) {
        if !nets.contains(&n) {
            nets.push(n);
        }
    }
    let own = design.nets_of(a).len();
    let before = nets[own..].iter().fold(a_hpwl, |sum, &n| {
        sum + design.net_hpwl(&design.nets[n.index()])
    });
    let pa = design.cells[a].pos;
    let pb = design.cells[b].pos;
    design.cells[a].pos = pb;
    design.cells[b].pos = pa;
    let after = incident_hpwl(design, nets);
    design.cells[a].pos = pa;
    design.cells[b].pos = pb;
    before - after
}

/// The optimal point of a cell: per axis, the median of its incident nets'
/// bounding-interval endpoints (computed without the cell's own pin).
/// `xs`/`ys` are scratch for the endpoints. `detail_place` slides cells
/// toward this point's `x`.
pub(crate) fn optimal_point(
    design: &Design,
    ci: usize,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) -> Option<Point> {
    xs.clear();
    ys.clear();
    for &n in design.nets_of(ci) {
        let mut lo_x = f64::INFINITY;
        let mut hi_x = f64::NEG_INFINITY;
        let mut lo_y = f64::INFINITY;
        let mut hi_y = f64::NEG_INFINITY;
        for pin in design.net_pins(n.index()) {
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

    /// Movable cells grouped by footprint, each group in `movable` order.
    fn footprint_buckets(
        design: &Design,
        movable: &[usize],
    ) -> std::collections::HashMap<(i64, i64), Vec<usize>> {
        let mut buckets: std::collections::HashMap<_, Vec<usize>> = Default::default();
        for &ci in movable {
            buckets
                .entry(footprint_key(design, ci))
                .or_default()
                .push(ci);
        }
        buckets
    }

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
                let mut best: Option<(f64, usize)> = None;
                for cj in sorted_partners(design, partners, ci, target) {
                    let delta = reference_gain(design, ci, cj);
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

    /// The reference's ranking: the first [`SWAP_CANDIDATES`] of `partners`
    /// other than `ci`, stable-sorted by distance to `target`.
    fn sorted_partners(
        design: &Design,
        partners: &[usize],
        ci: usize,
        target: Point,
    ) -> Vec<usize> {
        let mut ranked: Vec<(f64, usize)> = partners
            .iter()
            .filter(|&&cj| cj != ci)
            .map(|&cj| (design.cells[cj].pos.manhattan_distance(target), cj))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked
            .into_iter()
            .take(SWAP_CANDIDATES)
            .map(|(_, cj)| cj)
            .collect()
    }

    /// The bin index's nearest partners of `ci` among `partners` (which
    /// holds `ci`), as cell ids.
    fn nearest_partners(
        design: &Design,
        partners: &[usize],
        ci: usize,
        target: Point,
    ) -> ([usize; SWAP_CANDIDATES], usize) {
        let index = PartnerIndex::new(design, partners);
        let k = partners.iter().position(|&c| c == ci).unwrap();
        let (nearest, count) = index.nearest(k, target);
        (nearest.map(|kj| partners[kj]), count)
    }

    /// The reference's swap gain: both sums over the whole union of the two
    /// cells' nets, with a fresh buffer.
    fn reference_gain(design: &mut Design, a: usize, b: usize) -> f64 {
        let mut nets = design.nets_of(a).to_vec();
        for &n in design.nets_of(b) {
            if !nets.contains(&n) {
                nets.push(n);
            }
        }
        let before = incident_hpwl(design, &nets);
        let (pa, pb) = (design.cells[a].pos, design.cells[b].pos);
        design.cells[a].pos = pb;
        design.cells[b].pos = pa;
        let after = incident_hpwl(design, &nets);
        design.cells[a].pos = pa;
        design.cells[b].pos = pb;
        before - after
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
    fn one_bucket_of_many_bins_matches_the_reference() {
        // A PEKO design has one footprint: every movable cell shares one
        // grid, and a search covers a few rings of its many bins.
        let mut d = BenchmarkConfig::peko_like("peko1500", 5)
            .scale(1_500)
            .generate();
        legalize(&mut d).unwrap();
        let movable = movable_std_cells(&d);
        let index = PartnerIndex::new(&d, &movable);
        assert_eq!(index.grids.len(), 1);
        let grid = &index.grids[0];
        assert!(grid.nx >= 20 && grid.ny >= 20, "{} x {}", grid.nx, grid.ny);
        assert!(assert_matches_reference(&d, 2) > 0.0);
    }

    #[test]
    fn sixth_place_tie_at_a_ring_edge_goes_to_bucket_order() {
        // 200 same-footprint cells on a 100 × 100 region: a 10 × 10 grid of
        // 10-unit bins. `a`'s target T = (55, 55) is the centre of bin
        // (5, 5). Five partners lie within distance 10. `p` (ring 1) and `q`
        // (ring 2, on the near edge of its bin) tie for 6th place at 15,
        // exactly the least distance a ring-2 centre can have, so a search
        // that stopped after ring 1 on that tie would keep `p`. `q` comes
        // first in bucket order and is also the best swap: its net pulls it
        // to `a`'s spot.
        let mut b = DesignBuilder::new("ring-tie", Rect::new(0.0, 0.0, 100.0, 100.0));
        b.uniform_rows(10.0, 1.0);
        let cell =
            |b: &mut DesignBuilder, name: &str| b.add_cell(name, 4.0, 10.0, CellKind::StdCell);
        let a = cell(&mut b, "a");
        let near: Vec<_> = ["p0", "p1", "p2", "p3", "p4", "q", "p"]
            .iter()
            .map(|name| cell(&mut b, name))
            .collect();
        let far: Vec<_> = (0..192).map(|k| cell(&mut b, &format!("f{k}"))).collect();
        let t = b.add_cell("t", 2.0, 2.0, CellKind::Terminal);
        let u = b.add_cell("u", 2.0, 2.0, CellKind::Terminal);
        b.add_net("a-t", vec![(a, Point::ORIGIN), (t, Point::ORIGIN)]);
        b.add_net("q-u", vec![(near[5], Point::ORIGIN), (u, Point::ORIGIN)]);
        let mut d = b.build();
        let spots = [
            (52.0, 57.0),
            (58.0, 52.0),
            (45.0, 55.0),
            (55.0, 65.0),
            (62.0, 58.0),
            (70.0, 55.0),
            (55.0, 40.0),
        ];
        for (&c, &(x, y)) in near.iter().zip(&spots) {
            d.cells[c.index()].pos = Point::new(x, y);
        }
        for &c in &far {
            d.cells[c.index()].pos = Point::new(95.0, 5.0);
        }
        d.cells[a.index()].pos = Point::new(5.0, 95.0);
        d.cells[u.index()].pos = Point::new(5.0, 95.0);
        d.cells[t.index()].pos = Point::new(55.0, 55.0);

        let bucket = movable_std_cells(&d);
        let grid = &PartnerIndex::new(&d, &bucket).grids[0];
        assert_eq!(
            (grid.nx, grid.ny, grid.bin_w, grid.bin_h),
            (10, 10, 10.0, 10.0)
        );
        let target = optimal_point(&d, a.index(), &mut Vec::new(), &mut Vec::new()).unwrap();
        assert_eq!(target, Point::new(55.0, 55.0));
        let expected = [0, 1, 2, 3, 4, 5].map(|k| near[k].index());
        let (nearest, count) = nearest_partners(&d, &bucket, a.index(), target);
        assert_eq!(nearest[..count], expected);
        assert_eq!(sorted_partners(&d, &bucket, a.index(), target), expected);

        assert!(assert_matches_reference(&d, 1) > 0.0);
        global_swap(&mut d, 1);
        assert_eq!(
            d.cells[a.index()].pos,
            Point::new(70.0, 55.0),
            "a did not take q's spot"
        );
    }

    #[test]
    fn targets_beyond_the_core_match_the_sorted_ranking() {
        // `a` is pulled to a pad beyond the core's top-right corner and `e`
        // to one beyond its bottom-left, so both targets clamp to a corner
        // bin. 60 partners spread over the rows, many at equal distances.
        let mut b = DesignBuilder::new("off-core", Rect::new(0.0, 0.0, 100.0, 48.0));
        b.uniform_rows(12.0, 1.0);
        let cell =
            |b: &mut DesignBuilder, name: &str| b.add_cell(name, 2.0, 12.0, CellKind::StdCell);
        let a = cell(&mut b, "a");
        let e = cell(&mut b, "e");
        let partners: Vec<_> = (0..60).map(|k| cell(&mut b, &format!("p{k}"))).collect();
        let top = b.add_cell("top", 2.0, 2.0, CellKind::Terminal);
        let bottom = b.add_cell("bottom", 2.0, 2.0, CellKind::Terminal);
        b.add_net("a-top", vec![(a, Point::ORIGIN), (top, Point::ORIGIN)]);
        b.add_net(
            "e-bottom",
            vec![(e, Point::ORIGIN), (bottom, Point::ORIGIN)],
        );
        let mut d = b.build();
        for (k, &p) in partners.iter().enumerate() {
            let x = 1.0 + (37 * k % 98) as f64;
            let y = 6.0 + 12.0 * (k % 4) as f64;
            d.cells[p.index()].pos = Point::new(x, y);
        }
        d.cells[a.index()].pos = Point::new(3.0, 6.0);
        d.cells[e.index()].pos = Point::new(97.0, 42.0);
        d.cells[top.index()].pos = Point::new(140.0, 70.0);
        d.cells[bottom.index()].pos = Point::new(-30.0, -20.0);

        let bucket = movable_std_cells(&d);
        for (c, pad) in [(a, top), (e, bottom)] {
            let target = optimal_point(&d, c.index(), &mut Vec::new(), &mut Vec::new()).unwrap();
            assert_eq!(target, d.cells[pad.index()].pos);
            assert!(!d.region.contains(target));
            let (nearest, count) = nearest_partners(&d, &bucket, c.index(), target);
            assert_eq!(count, SWAP_CANDIDATES);
            assert_eq!(
                nearest[..],
                sorted_partners(&d, &bucket, c.index(), target)[..]
            );
        }
        assert!(assert_matches_reference(&d, 2) > 0.0);
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
                "{label}: reference {:.2} ms, bin index {:.2} ms, {:.1}x \
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
