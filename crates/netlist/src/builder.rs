use crate::{Cell, CellId, CellKind, Design, Net, NetId, Pin, Row};
use eplace_geometry::{Point, Rect, Size};

/// Incremental constructor for [`Design`].
///
/// Handles id assignment and the flat pin array so callers (parsers, the
/// benchmark generator, tests) can build designs declaratively; [`build`]
/// derives each cell's incident nets.
///
/// [`build`]: DesignBuilder::build
///
/// # Examples
///
/// ```
/// use eplace_netlist::{CellKind, DesignBuilder};
/// use eplace_geometry::{Point, Rect};
///
/// let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
/// let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
/// let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
/// b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
/// let design = b.build();
/// assert_eq!(design.cells.len(), 2);
/// assert_eq!(design.nets.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DesignBuilder {
    design: Design,
}

impl DesignBuilder {
    /// Starts a new design named `name` over the placement region `region`.
    pub fn new(name: impl Into<String>, region: Rect) -> Self {
        DesignBuilder {
            design: Design::empty(name.into(), region),
        }
    }

    /// Sets the benchmark density upper bound `ρ_t`.
    pub fn target_density(&mut self, rho_t: f64) -> &mut Self {
        self.design.target_density = rho_t;
        self
    }

    /// Adds a movable cell of the given size; terminals are added fixed.
    /// Returns its id. The initial position is the region center.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> CellId {
        let fixed = kind == CellKind::Terminal;
        self.add_cell_with(
            name,
            width,
            height,
            kind,
            fixed,
            self.design.region.center(),
        )
    }

    /// Adds a cell with explicit fixedness and position. Returns its id.
    pub fn add_cell_with(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
        fixed: bool,
        pos: Point,
    ) -> CellId {
        let id = CellId(self.design.cells.len() as u32);
        self.design.cells.push(Cell {
            name: name.into(),
            size: Size::new(width, height),
            kind,
            fixed,
            pos,
        });
        id
    }

    /// Adds a unit-weight net over `(cell, pin-offset)` pairs. Returns its id.
    pub fn add_net(&mut self, name: impl Into<String>, pins: Vec<(CellId, Point)>) -> NetId {
        self.add_weighted_net(name, pins, 1.0)
    }

    /// Adds a net with an explicit weight. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any pin references a cell that has not been added.
    pub fn add_weighted_net(
        &mut self,
        name: impl Into<String>,
        pins: Vec<(CellId, Point)>,
        weight: f64,
    ) -> NetId {
        let id = NetId(self.design.nets.len() as u32);
        let start = self.design.pins.len();
        for (cell, offset) in pins {
            assert!(
                cell.index() < self.design.cells.len(),
                "net pin references unknown cell {cell}"
            );
            self.design.pins.push(Pin::new(cell, offset));
        }
        self.design.nets.push(Net {
            name: name.into(),
            pins: start..self.design.pins.len(),
            weight,
        });
        id
    }

    /// Adds a standard-cell row.
    pub fn add_row(&mut self, row: Row) -> &mut Self {
        self.design.rows.push(row);
        self
    }

    /// Fills the region with uniform rows of height `row_height`.
    pub fn uniform_rows(&mut self, row_height: f64, site_width: f64) -> &mut Self {
        let region = self.design.region;
        let count = (region.height() / row_height).floor() as usize;
        for i in 0..count {
            self.design.rows.push(Row {
                x: region.xl,
                y: region.yl + i as f64 * row_height,
                width: region.width(),
                height: row_height,
                site_width,
            });
        }
        self
    }

    /// Finalizes the design: derives every cell's incident nets, in
    /// ascending net id, a net with several pins on one cell listed once.
    pub fn build(mut self) -> Design {
        self.design.build_incidence();
        self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rows_fill_region() {
        let mut b = DesignBuilder::new("r", Rect::new(0.0, 0.0, 100.0, 35.0));
        b.uniform_rows(10.0, 1.0);
        let d = b.build();
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.rows[2].y, 20.0);
        assert_eq!(d.rows[0].rect().width(), 100.0);
    }

    #[test]
    fn duplicate_pins_on_same_net_count_degree_once() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        // Two pins of one net land on the same cell (common in real netlists).
        b.add_net(
            "n",
            vec![(a, Point::new(-0.2, 0.0)), (a, Point::new(0.2, 0.0))],
        );
        let d = b.build();
        assert_eq!(d.nets_of(0), &[NetId(0)]);
        assert_eq!(d.nets[0].degree(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown cell")]
    fn net_with_unknown_cell_panics() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_net("n", vec![(CellId(3), Point::ORIGIN)]);
    }

    #[test]
    fn terminal_defaults_to_fixed() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let t = b.add_cell("io", 1.0, 1.0, CellKind::Terminal);
        let m = b.add_cell("m", 1.0, 1.0, CellKind::Macro);
        let d = b.build();
        assert!(d.cells[t.index()].fixed);
        assert!(!d.cells[m.index()].fixed);
    }

    #[test]
    fn target_density_setter() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.target_density(0.5);
        assert_eq!(b.build().target_density, 0.5);
    }
}
