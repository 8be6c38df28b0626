//! Net decomposition: hyperedges → two-pin gcell segments.
//!
//! The router works on two-pin segments. Multi-pin nets are decomposed over
//! their pins' gcells: small nets get a rectilinear minimum spanning tree
//! (Prim, deterministic index tie-breaking), very high-degree nets fall back
//! to a star around the medoid gcell (the pin gcell minimizing total
//! Manhattan distance to the others) so decomposition stays `O(k²)` with a
//! bounded `k`.

use crate::grid::CapacityGrid;
use eplace_netlist::Design;

/// One two-pin routing request between gcells, carrying its net's weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Source gcell.
    pub from: (usize, usize),
    /// Target gcell.
    pub to: (usize, usize),
    /// Demand multiplier (the net weight).
    pub weight: f64,
    /// Index of the originating net in `design.nets`.
    pub net: usize,
}

impl Segment {
    /// Manhattan length of the segment in gcell steps.
    pub fn gcell_dist(&self) -> usize {
        self.from.0.abs_diff(self.to.0) + self.from.1.abs_diff(self.to.1)
    }
}

/// Degree above which a net is decomposed as a star instead of an MST.
pub const STAR_THRESHOLD: usize = 48;

/// Decomposes every net of `design` into two-pin segments on `grid`'s
/// gcells. Coincident pin gcells are merged first; nets whose pins all share
/// one gcell produce no segments (they route inside the gcell for free).
/// The output order is deterministic: nets in design order, segments in
/// tree-construction order.
pub fn decompose(design: &Design, grid: &CapacityGrid) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut gcells: Vec<(usize, usize)> = Vec::new();
    for (net_idx, net) in design.nets.iter().enumerate() {
        if net.pins.len() < 2 {
            continue;
        }
        gcells.clear();
        for pin in design.net_pins(net_idx) {
            let g = grid.gcell_of(design.pin_position(pin));
            if !gcells.contains(&g) {
                gcells.push(g);
            }
        }
        if gcells.len() < 2 {
            continue;
        }
        if gcells.len() > STAR_THRESHOLD {
            star(&gcells, net.weight, net_idx, &mut segments);
        } else {
            prim_mst(&gcells, net.weight, net_idx, &mut segments);
        }
    }
    segments
}

fn dist(a: (usize, usize), b: (usize, usize)) -> usize {
    a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
}

/// Star decomposition around the medoid gcell.
fn star(gcells: &[(usize, usize)], weight: f64, net: usize, out: &mut Vec<Segment>) {
    let mut center = 0;
    let mut best = usize::MAX;
    for (i, &g) in gcells.iter().enumerate() {
        let total: usize = gcells.iter().map(|&h| dist(g, h)).sum();
        if total < best {
            best = total;
            center = i;
        }
    }
    for (i, &g) in gcells.iter().enumerate() {
        if i != center {
            out.push(Segment {
                from: gcells[center],
                to: g,
                weight,
                net,
            });
        }
    }
}

/// Prim's MST over the complete rectilinear graph on `gcells`. Ties are
/// broken toward the lowest vertex index, so the tree — and with it every
/// downstream routing decision — is a pure function of the input order.
fn prim_mst(gcells: &[(usize, usize)], weight: f64, net: usize, out: &mut Vec<Segment>) {
    let k = gcells.len();
    let mut in_tree = vec![false; k];
    let mut best_dist = vec![usize::MAX; k];
    let mut best_edge = vec![0usize; k];
    in_tree[0] = true;
    for j in 1..k {
        best_dist[j] = dist(gcells[0], gcells[j]);
    }
    for _ in 1..k {
        let mut pick = usize::MAX;
        let mut pick_dist = usize::MAX;
        for j in 0..k {
            if !in_tree[j] && best_dist[j] < pick_dist {
                pick = j;
                pick_dist = best_dist[j];
            }
        }
        in_tree[pick] = true;
        out.push(Segment {
            from: gcells[best_edge[pick]],
            to: gcells[pick],
            weight,
            net,
        });
        for j in 0..k {
            if !in_tree[j] {
                let d = dist(gcells[pick], gcells[j]);
                if d < best_dist[j] {
                    best_dist[j] = d;
                    best_edge[j] = pick;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::{Point, Rect};
    use eplace_netlist::{CellKind, DesignBuilder};

    fn design_with_net(points: &[(f64, f64)]) -> Design {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 80.0, 80.0));
        let ids: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, _)| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n", ids.iter().map(|&id| (id, Point::ORIGIN)).collect());
        let mut d = b.build();
        for (id, &(x, y)) in ids.iter().zip(points) {
            d.cells[id.index()].pos = Point::new(x, y);
        }
        d
    }

    fn grid() -> CapacityGrid {
        CapacityGrid::new(Rect::new(0.0, 0.0, 80.0, 80.0), 8, 8, 10.0, 10.0)
    }

    #[test]
    fn two_pin_net_is_one_segment() {
        let d = design_with_net(&[(5.0, 5.0), (75.0, 35.0)]);
        let segs = decompose(&d, &grid());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].from, (0, 0));
        assert_eq!(segs[0].to, (7, 3));
        assert_eq!(segs[0].gcell_dist(), 10);
    }

    #[test]
    fn coincident_gcells_collapse() {
        let d = design_with_net(&[(5.0, 5.0), (6.0, 6.0), (7.0, 4.0)]);
        assert!(decompose(&d, &grid()).is_empty());
    }

    #[test]
    fn mst_spans_all_gcells_with_k_minus_1_edges() {
        let d = design_with_net(&[
            (5.0, 5.0),
            (75.0, 5.0),
            (75.0, 75.0),
            (5.0, 75.0),
            (45.0, 45.0),
        ]);
        let segs = decompose(&d, &grid());
        assert_eq!(segs.len(), 4);
        // Every gcell appears in some segment (tree connectivity).
        let mut seen = std::collections::HashSet::new();
        for s in &segs {
            seen.insert(s.from);
            seen.insert(s.to);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn mst_is_shorter_than_star_on_a_line() {
        // Collinear pins: the MST is a chain (length n-1 hops), a star from
        // an end would be quadratic.
        let pts: Vec<(f64, f64)> = (0..6).map(|i| (5.0 + 10.0 * i as f64, 5.0)).collect();
        let d = design_with_net(&pts);
        let segs = decompose(&d, &grid());
        let total: usize = segs.iter().map(Segment::gcell_dist).sum();
        assert_eq!(total, 5, "chain MST routes each hop once");
    }

    #[test]
    fn decomposition_is_deterministic() {
        let d = design_with_net(&[(5.0, 5.0), (75.0, 5.0), (35.0, 75.0), (45.0, 15.0)]);
        let a = decompose(&d, &grid());
        let b = decompose(&d, &grid());
        assert_eq!(a, b);
    }
}
