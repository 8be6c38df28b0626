use eplace_density::DensityObject;
use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design};

/// A view of the design as an optimization problem: which cells the
/// optimizer moves, their density objects, charges and vertex degrees.
///
/// The optimizer's solution vector is a `Vec<Point>` parallel to
/// [`PlacementProblem::movable`]; fixed cells stay in the [`Design`] and
/// act as net anchors and fixed charge.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// Indices into `design.cells` of the moved objects.
    pub movable: Vec<usize>,
    /// Density objects parallel to `movable`.
    pub objects: Vec<DensityObject>,
    /// Vertex degree `|E_i|` per movable (Eq. 12).
    pub degrees: Vec<f64>,
    /// Electric quantity `q_i` (area) per movable.
    pub charges: Vec<f64>,
}

impl PlacementProblem {
    /// Problem over every movable object (std cells, movable macros,
    /// fillers) — the mGP/cGP formulation.
    pub fn all_movables(design: &Design) -> Self {
        Self::from_filter(design, |_, c| c.is_movable())
    }

    /// Problem over fillers only — the 20-iteration filler relocation
    /// phase before cGP (§VI-B).
    pub fn fillers_only(design: &Design) -> Self {
        Self::from_filter(design, |_, c| c.is_movable() && c.kind == CellKind::Filler)
    }

    fn from_filter(
        design: &Design,
        mut keep: impl FnMut(usize, &eplace_netlist::Cell) -> bool,
    ) -> Self {
        let mut movable = Vec::new();
        let mut objects = Vec::new();
        let mut degrees = Vec::new();
        let mut charges = Vec::new();
        for (i, cell) in design.cells.iter().enumerate() {
            if !keep(i, cell) {
                continue;
            }
            movable.push(i);
            objects.push(match cell.kind {
                CellKind::Filler => DensityObject::filler(cell.size),
                // Movable macros carry ρ_t-scaled charge (solid objects
                // cannot dilute to a ρ_t < 1 equilibrium).
                CellKind::Macro => DensityObject::movable_macro(cell.size, design.target_density),
                _ => DensityObject::movable(cell.size),
            });
            degrees.push(design.nets_of(i).len() as f64);
            charges.push(cell.area());
        }
        PlacementProblem {
            movable,
            objects,
            degrees,
            charges,
        }
    }

    /// Number of optimization variables (objects; ×2 coordinates).
    pub fn len(&self) -> usize {
        self.movable.len()
    }

    /// `true` when nothing is movable.
    pub fn is_empty(&self) -> bool {
        self.movable.is_empty()
    }

    /// Extracts the current positions of the moved objects from the design.
    pub fn positions(&self, design: &Design) -> Vec<Point> {
        self.movable.iter().map(|&i| design.cells[i].pos).collect()
    }

    /// Writes an optimizer solution back into the design.
    ///
    /// # Panics
    ///
    /// Panics if `pos.len()` differs from the problem size.
    pub fn apply(&self, design: &mut Design, pos: &[Point]) {
        assert_eq!(pos.len(), self.movable.len(), "solution length mismatch");
        for (&i, &p) in self.movable.iter().zip(pos) {
            design.cells[i].pos = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_geometry::Rect;
    use eplace_netlist::DesignBuilder;

    fn mixed_design() -> Design {
        let mut b = DesignBuilder::new("p", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        b.add_cell("f0", 3.0, 3.0, CellKind::Filler);
        b.build()
    }

    #[test]
    fn all_movables_excludes_fixed() {
        let d = mixed_design();
        let p = PlacementProblem::all_movables(&d);
        assert_eq!(p.len(), 3); // a, b, filler
        assert!(!p.is_empty());
        assert!(!p.objects[2].counts_in_overflow);
        assert_eq!(p.degrees, vec![1.0, 1.0, 0.0]);
        assert_eq!(p.charges, vec![4.0, 4.0, 9.0]);
    }

    #[test]
    fn fillers_only_selects_fillers() {
        let d = mixed_design();
        let p = PlacementProblem::fillers_only(&d);
        assert_eq!(p.len(), 1);
        assert_eq!(d.cells[p.movable[0]].kind, CellKind::Filler);
    }

    #[test]
    fn positions_apply_roundtrip() {
        let mut d = mixed_design();
        let p = PlacementProblem::all_movables(&d);
        let mut pos = p.positions(&d);
        pos[0] = Point::new(7.0, 8.0);
        p.apply(&mut d, &pos);
        assert_eq!(d.cells[p.movable[0]].pos, Point::new(7.0, 8.0));
        // Fixed terminal untouched.
        assert_eq!(d.cells[2].pos, d.region.center());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_wrong_length_panics() {
        let mut d = mixed_design();
        let p = PlacementProblem::all_movables(&d);
        p.apply(&mut d, &[Point::ORIGIN]);
    }
}
