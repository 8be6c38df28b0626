//! Legalization and detail placement — the cDP stage of the flow.
//!
//! ePlace delegates legalization/detail placement to NTUplace3's detail
//! placer (paper §VII); this crate provides the equivalent substrate:
//!
//! * [`legalize`] — Tetris-style row legalization with fixed-obstacle
//!   awareness: rows are split into free segments around fixed macros, cells
//!   are processed in x order and greedily assigned the least-displacement
//!   legal slot (snapped to sites).
//! * [`legalize_abacus`] — Abacus-style cluster-optimal legalization:
//!   lower displacement than Tetris by shifting whole clusters to their
//!   least-squares position instead of packing against a frontier.
//! * [`detail_place`] — greedy in-row refinement: each cell slides, snapped
//!   to the site grid, within the gap between its row neighbours toward the
//!   median of its nets' intervals; then every disjoint window of three
//!   adjacent cells is re-packed in its best permutation. Only
//!   HPWL-improving moves are kept.
//! * [`global_swap`] — cross-row refinement: exchange equal-footprint cells
//!   toward their optimal regions (the FastPlace-DP/NTUplace move), trying
//!   the few same-footprint partners nearest each cell's optimal point,
//!   found through a per-footprint bin index rather than a scan.
//! * [`check_legal`] — the post-condition oracle used by tests and the flow
//!   driver: every movable std cell inside the region and on a row, and no
//!   overlap. It does not check the site grid, and Abacus leaves most cells
//!   off it.
//!
//! # Examples
//!
//! ```
//! use eplace_benchgen::BenchmarkConfig;
//! use eplace_legalize::{check_legal, detail_place, legalize};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut design = BenchmarkConfig::ispd05_like("d", 9).scale(200).generate();
//! // Fix macros where they are (std-cell-only legalization).
//! let report = legalize(&mut design)?;
//! assert!(check_legal(&design).is_ok());
//! let improvement = detail_place(&mut design, 2);
//! assert!(improvement >= 0.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod abacus;
mod detail;
mod rows;
mod swap;
mod tetris;

pub use abacus::legalize_abacus;
pub use detail::detail_place;
pub use rows::{FreeSegment, RowMap};
pub use swap::global_swap;
pub use tetris::{legalize, LegalizeReport};

use eplace_netlist::{CellKind, Design};

/// Error raised when legalization cannot fit every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeError {
    /// Name of the first cell that could not be placed.
    pub cell: String,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot legalize `{}`: {}", self.cell, self.message)
    }
}

impl std::error::Error for LegalizeError {}

/// Verifies that no filler is left, that every movable standard cell lies
/// inside the region and on a row (its bottom edge on the row's y, its span
/// within the row's), and that no two std cells, macros or fixed cells
/// overlap. Terminals are exempt from the overlap check. Whether a cell sits
/// on the row's site grid is not checked.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn check_legal(design: &Design) -> Result<(), String> {
    let tol = 1e-6;
    let mut placed: Vec<(usize, eplace_geometry::Rect)> = Vec::new();
    for (i, cell) in design.cells.iter().enumerate() {
        if cell.kind == CellKind::Filler {
            return Err(format!("filler `{}` present at legality check", cell.name));
        }
        if cell.fixed || cell.kind != CellKind::StdCell {
            if cell.kind != CellKind::Terminal {
                placed.push((i, cell.rect()));
            }
            continue;
        }
        let r = cell.rect();
        if r.xl < design.region.xl - tol
            || r.xh > design.region.xh + tol
            || r.yl < design.region.yl - tol
            || r.yh > design.region.yh + tol
        {
            return Err(format!("cell `{}` outside region", cell.name));
        }
        let on_row = design.rows.iter().any(|row| {
            (r.yl - row.y).abs() < tol && r.xl >= row.x - tol && r.xh <= row.x + row.width + tol
        });
        if !on_row {
            return Err(format!("cell `{}` not aligned to any row", cell.name));
        }
        placed.push((i, r));
    }
    // Pairwise overlap among std cells + macros (terminals may legally abut
    // the core boundary).
    placed.sort_by(|a, b| a.1.xl.total_cmp(&b.1.xl));
    let mut active: Vec<usize> = Vec::new();
    for k in 0..placed.len() {
        let (i, r) = placed[k];
        active.retain(|&j| placed[j].1.xh > r.xl + tol);
        for &j in &active {
            let (oi, other) = placed[j];
            if r.overlap_area(&other) > tol {
                return Err(format!(
                    "cells `{}` and `{}` overlap",
                    design.cells[i].name, design.cells[oi].name
                ));
            }
        }
        active.push(k);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::{Point, Rect};
    use eplace_netlist::DesignBuilder;

    #[test]
    fn check_legal_catches_overlap() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 24.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let c = b.add_cell("b", 4.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(2.0, 6.0);
        d.cells[c.index()].pos = Point::new(3.0, 6.0); // overlapping
        assert!(check_legal(&d).unwrap_err().contains("overlap"));
        d.cells[c.index()].pos = Point::new(8.0, 6.0);
        assert!(check_legal(&d).is_ok());
    }

    #[test]
    fn check_legal_catches_off_row() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 24.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(2.0, 7.5); // straddles rows
        assert!(check_legal(&d).unwrap_err().contains("row"));
    }

    #[test]
    fn check_legal_catches_out_of_region() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 24.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(-10.0, 6.0);
        assert!(check_legal(&d).unwrap_err().contains("region"));
    }

    #[test]
    fn legalize_error_display() {
        let e = LegalizeError {
            cell: "x".into(),
            message: "no space".into(),
        };
        assert_eq!(e.to_string(), "cannot legalize `x`: no space");
    }
}
