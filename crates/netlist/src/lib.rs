//! Circuit data model for the ePlace reproduction.
//!
//! A placement instance `G = (V, E, R)` (paper §II) is represented by
//! [`Design`]: the objects `V` are [`Cell`]s (standard cells, macros, fixed
//! terminals), the nets `E` are [`Net`]s whose [`Pin`]s carry offsets from
//! their owner cell's center, and the region `R` is a [`Rect`] plus the
//! standard-cell [`Row`]s it is decomposed into.
//!
//! Positions are stored *per cell* as the cell's **center**; global placement
//! treats them continuously, legalization snaps them to rows/sites.
//!
//! [`Design::validate`] is the one check that a design is placeable
//! (finite positive sizes and rows, non-negative net weights, pins on real
//! cells); the Bookshelf reader runs it on every design it returns, and
//! rejects with a typed [`eplace_errors::EplaceError::Validation`].
//!
//! # Examples
//!
//! ```
//! use eplace_netlist::{CellKind, DesignBuilder};
//! use eplace_geometry::{Point, Rect};
//!
//! let mut b = DesignBuilder::new("tiny", Rect::new(0.0, 0.0, 100.0, 100.0));
//! let a = b.add_cell("a", 4.0, 8.0, CellKind::StdCell);
//! let c = b.add_cell("b", 4.0, 8.0, CellKind::StdCell);
//! b.add_net("n0", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
//! let mut design = b.build();
//! design.cells[a.index()].pos = Point::new(10.0, 10.0);
//! design.cells[c.index()].pos = Point::new(30.0, 10.0);
//! assert_eq!(design.hpwl(), 20.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
mod design;
mod stats;

pub use builder::DesignBuilder;
pub use design::{Cell, CellId, CellKind, Design, Net, NetId, Pin, Row};
pub use stats::DesignStats;

use eplace_geometry::Rect;

/// Total pairwise overlap area among the outlines in `rects`, counting each
/// unordered pair once.
///
/// This is the object-overlap metric `O` the paper plots in Figure 2 and the
/// macro-overlap term `O_m` of Eq. (14). The sweep is O(k log k + k·overlaps)
/// via an x-sorted active list, which is fine for the macro counts and
/// snapshot frequencies we use.
pub fn total_pairwise_overlap(rects: &[Rect]) -> f64 {
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by(|&a, &b| rects[a].xl.total_cmp(&rects[b].xl));
    let mut active: Vec<usize> = Vec::new();
    let mut total = 0.0;
    for &i in &order {
        let r = &rects[i];
        active.retain(|&j| rects[j].xh > r.xl);
        for &j in &active {
            total += r.overlap_area(&rects[j]);
        }
        active.push(i);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::Point;

    #[test]
    fn pairwise_overlap_disjoint() {
        let rects = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(2.0, 0.0, 3.0, 1.0)];
        assert_eq!(total_pairwise_overlap(&rects), 0.0);
    }

    #[test]
    fn pairwise_overlap_pair() {
        let rects = vec![Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(1.0, 0.0, 3.0, 2.0)];
        assert_eq!(total_pairwise_overlap(&rects), 2.0);
    }

    #[test]
    fn pairwise_overlap_triple_counts_each_pair() {
        // Three identical unit squares: 3 pairs, each overlapping by 1.
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(total_pairwise_overlap(&[r, r, r]), 3.0);
    }

    #[test]
    fn pairwise_overlap_empty_and_single() {
        assert_eq!(total_pairwise_overlap(&[]), 0.0);
        assert_eq!(
            total_pairwise_overlap(&[Rect::new(0.0, 0.0, 5.0, 5.0)]),
            0.0
        );
    }

    #[test]
    fn pairwise_overlap_brute_force_agreement() {
        // Deterministic pseudo-random layout compared against O(k^2) brute force.
        let mut rects = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 50.0
        };
        for _ in 0..40 {
            let x = next();
            let y = next();
            let w = 1.0 + next() / 10.0;
            let h = 1.0 + next() / 10.0;
            rects.push(Rect::new(x, y, x + w, y + h));
        }
        let mut brute = 0.0;
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                brute += rects[i].overlap_area(&rects[j]);
            }
        }
        let sweep = total_pairwise_overlap(&rects);
        assert!((sweep - brute).abs() < 1e-9 * brute.max(1.0));
    }

    fn chain_design(n: usize) -> Design {
        let mut b = DesignBuilder::new("chain", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        for w in ids.windows(2) {
            b.add_net("n", vec![(w[0], Point::ORIGIN), (w[1], Point::ORIGIN)]);
        }
        b.build()
    }

    #[test]
    fn hpwl_of_chain() {
        let d = chain_design(3);
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
        ];
        assert_eq!(d.hpwl_with_positions(&pos), 15.0);
    }

    #[test]
    fn hpwl_ignores_degenerate_nets() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        b.add_net("single", vec![(a, Point::ORIGIN)]);
        b.add_net("empty", vec![]);
        let d = b.build();
        assert_eq!(d.hpwl_with_positions(&[Point::new(5.0, 5.0)]), 0.0);
    }

    #[test]
    fn net_hpwl_weighting() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_weighted_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)], 3.0);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(0.0, 0.0);
        d.cells[c.index()].pos = Point::new(2.0, 0.0);
        assert_eq!(d.net_hpwl(&d.nets[0]), 6.0);
    }

    #[test]
    fn hpwl_uses_pin_offsets() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_net(
            "n",
            vec![(a, Point::new(1.0, 0.0)), (c, Point::new(-1.0, 0.0))],
        );
        let d = b.build();
        let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        assert_eq!(d.hpwl_with_positions(&pos), 8.0);
    }
}

/// Input-lint cases for cell dimensions: a cell whose size is zero, negative
/// or non-finite makes [`Design::validate`] reject the design, naming the cell.
#[cfg(test)]
mod lint {
    mod tests {
        use crate::{CellKind, Design, DesignBuilder};
        use eplace_errors::EplaceError;
        use eplace_geometry::Rect;

        fn base() -> DesignBuilder {
            DesignBuilder::new("lint", Rect::new(0.0, 0.0, 100.0, 100.0))
        }

        /// The validation message `d` is rejected with; panics when it passes.
        fn rejection(d: &Design) -> String {
            match d.validate() {
                Err(err @ EplaceError::Validation { .. }) => err.to_string(),
                other => panic!("expected a validation error, got {other:?}"),
            }
        }

        #[test]
        fn zero_area_cell_rejected_then_repaired() {
            let mut b = base();
            b.add_cell("ok", 4.0, 4.0, CellKind::StdCell);
            b.add_cell("flat", 4.0, 4.0, CellKind::StdCell);
            let mut d = b.build();
            d.cells[1].size.height = 0.0;
            assert!(rejection(&d).contains("flat"));

            // Once the caller gives the cell a positive height it validates.
            d.cells[1].size.height = 4.0;
            assert!(d.validate().is_ok());
        }

        #[test]
        fn negative_and_nonfinite_dimensions_flagged() {
            let mut b = base();
            b.add_cell("neg", 1.0, 1.0, CellKind::StdCell);
            b.add_cell("nan", 1.0, 1.0, CellKind::StdCell);
            let mut d = b.build();
            d.cells[0].size.width = -3.0;
            d.cells[1].size.width = f64::NAN;
            assert!(rejection(&d).contains("(neg)"));
            d.cells[0].size.width = 1.0;
            assert!(rejection(&d).contains("(nan)"));
            d.cells[1].size.width = f64::INFINITY;
            assert!(rejection(&d).contains("(nan)"));
            d.cells[1].size.width = 1.0;
            assert!(d.validate().is_ok());
        }
    }
}

#[cfg(test)]
mod proptests;
