use eplace_errors::EplaceError;
use eplace_geometry::{Point, Rect, Size};
use std::fmt;
use std::ops::Range;

/// Index of a [`Cell`] within [`Design::cells`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell's index into [`Design::cells`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Index of a [`Net`] within [`Design::nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// The net's index into [`Design::nets`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The topological category of a placement object.
///
/// ePlace's contribution is that the optimizer treats every movable kind
/// identically; the kind still matters for flow staging (which objects mLG
/// legalizes, which cDP legalizes) and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Row-height standard cell.
    StdCell,
    /// Multi-row block; movable in MMS-style designs, fixed otherwise.
    Macro,
    /// Fixed IO/terminal block (never moves).
    Terminal,
    /// Whitespace filler inserted by the global placer (paper §III); carries
    /// no pins.
    Filler,
}

impl CellKind {
    /// Whether objects of this kind connect to nets.
    #[inline]
    pub fn has_pins(self) -> bool {
        !matches!(self, CellKind::Filler)
    }
}

/// A placement object: standard cell, macro, fixed terminal or filler.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name (unique within the design).
    pub name: String,
    /// Physical outline dimensions.
    pub size: Size,
    /// Category of the object.
    pub kind: CellKind,
    /// `true` when the object must not move (terminals always; macros in
    /// std-cell-only suites; std cells during mLG).
    pub fixed: bool,
    /// Current center position.
    pub pos: Point,
}

impl Cell {
    /// The cell's area — its electric quantity `q_i` in the electrostatic
    /// analogy (Eq. 5).
    #[inline]
    pub fn area(&self) -> f64 {
        self.size.area()
    }

    /// The cell outline as a rectangle around the current position.
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect::from_center(self.pos, self.size.width, self.size.height)
    }

    /// Whether this object participates in optimization.
    #[inline]
    pub fn is_movable(&self) -> bool {
        !self.fixed
    }
}

/// One connection point of a net: the owning cell plus the pin's offset from
/// the cell **center** (Bookshelf convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Offset of the pin from the owner's center.
    pub offset: Point,
}

impl Pin {
    /// Creates a pin on `cell` at `offset` from the cell center.
    #[inline]
    pub fn new(cell: CellId, offset: Point) -> Self {
        Pin { cell, offset }
    }
}

/// A hyperedge of the netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// The net's connection points: this range of [`Design::pins`], in pin
    /// order. [`Design::net_pins`] returns them as a slice.
    pub pins: Range<usize>,
    /// Net weight from the `.wts` file (1.0 in all contest suites).
    pub weight: f64,
}

impl Net {
    /// Number of pins on the net (its *degree*).
    #[inline]
    pub fn degree(&self) -> usize {
        self.pins.len()
    }
}

/// One standard-cell row from the `.scl` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Left edge of the row.
    pub x: f64,
    /// Bottom edge of the row.
    pub y: f64,
    /// Total row width (`num_sites × site_width`).
    pub width: f64,
    /// Row (and standard-cell) height.
    pub height: f64,
    /// Width of one placement site.
    pub site_width: f64,
}

impl Row {
    /// The row outline.
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect::new(self.x, self.y, self.x + self.width, self.y + self.height)
    }
}

/// A complete placement instance: netlist + region + rows + density target.
///
/// The netlist is stored flat. [`Design::pins`] holds every net's pins, net
/// by net, and each [`Net`] names its run of that array. Which nets touch
/// which cell is derived from the pins once, when
/// [`DesignBuilder::build`](crate::DesignBuilder::build) finishes the
/// design: each cell's nets are one contiguous run of a single array.
/// [`Design::net_pins`] and [`Design::nets_of`] read both as slices.
#[derive(Debug, Clone)]
pub struct Design {
    /// Benchmark name.
    pub name: String,
    /// All placement objects. Fillers, when present, are appended after the
    /// original netlist objects.
    pub cells: Vec<Cell>,
    /// All nets.
    pub nets: Vec<Net>,
    /// All pins, net by net: net `n`'s pins are `pins[nets[n].pins]`.
    pub pins: Vec<Pin>,
    /// The placement region `R`.
    pub region: Rect,
    /// Standard-cell rows decomposing the region.
    pub rows: Vec<Row>,
    /// Benchmark density upper bound `ρ_t` (1.0 when unconstrained).
    pub target_density: f64,
    /// Cell `c`'s nets are `incidence[cell_start[c]..cell_start[c + 1]]`:
    /// one entry per cell the builder made, plus one.
    cell_start: Vec<usize>,
    /// Every built cell's incident nets, cell by cell, each run in
    /// ascending net id with no net twice.
    incidence: Vec<NetId>,
}

impl Design {
    /// An empty design over `region`, for the builder to fill.
    pub(crate) fn empty(name: String, region: Rect) -> Self {
        Design {
            name,
            cells: Vec::new(),
            nets: Vec::new(),
            pins: Vec::new(),
            region,
            rows: Vec::new(),
            target_density: 1.0,
            cell_start: vec![0],
            incidence: Vec::new(),
        }
    }

    /// Derives the incidence from the pins: every cell lists the nets with
    /// a pin on it in ascending net id, a net with several pins on the cell
    /// once.
    pub(crate) fn build_incidence(&mut self) {
        const NONE: usize = usize::MAX;
        let cells = self.cells.len();
        // The last net each cell was counted for; nets come in id order.
        let mut last = vec![NONE; cells];
        let mut start = vec![0; cells + 1];
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &self.pins[net.pins.clone()] {
                let c = pin.cell.index();
                if last[c] != ni {
                    last[c] = ni;
                    start[c + 1] += 1;
                }
            }
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        let mut incidence = vec![NetId(0); start[cells]];
        let mut next = start[..cells].to_vec();
        last.fill(NONE);
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &self.pins[net.pins.clone()] {
                let c = pin.cell.index();
                if last[c] != ni {
                    last[c] = ni;
                    incidence[next[c]] = NetId(ni as u32);
                    next[c] += 1;
                }
            }
        }
        self.cell_start = start;
        self.incidence = incidence;
    }

    /// The pins of net `n`, in the net's pin order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a net of the design.
    #[inline]
    pub fn net_pins(&self, n: usize) -> &[Pin] {
        &self.pins[self.nets[n].pins.clone()]
    }

    /// The nets incident to cell `c`, in ascending net id, each once:
    /// `nets_of(c).len()` is the vertex degree `|E_c|` the preconditioner
    /// uses (Eq. 12). Empty for a cell added after the design was built,
    /// such as a filler.
    #[inline]
    pub fn nets_of(&self, c: usize) -> &[NetId] {
        match self.cell_start.get(c..c + 2) {
            Some(&[lo, hi]) => &self.incidence[lo..hi],
            _ => &[],
        }
    }

    /// Absolute position of a pin at the current placement.
    #[inline]
    pub fn pin_position(&self, pin: &Pin) -> Point {
        self.cells[pin.cell.index()].pos + pin.offset
    }

    /// Half-perimeter wirelength of one net at the current placement (Eq. 1),
    /// including the net weight.
    pub fn net_hpwl(&self, net: &Net) -> f64 {
        net_hpwl_at(&self.pins[net.pins.clone()], net.weight, |i| {
            self.cells[i].pos
        })
    }

    /// Total half-perimeter wirelength `W(v)` (Eq. 1).
    pub fn hpwl(&self) -> f64 {
        self.nets.iter().map(|n| self.net_hpwl(n)).sum()
    }

    /// HPWL the design would have if cell `i` sat at `positions[i]`, without
    /// mutating the current placement. Walks nets and pins in the same order
    /// as [`Design::hpwl`], through the same per-net kernel, so a call with
    /// the current positions reproduces [`Design::hpwl`] bit for bit — the
    /// property the known-optimum certificates of `eplace-benchgen` rely on.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is shorter than [`Design::cells`].
    pub fn hpwl_with_positions(&self, positions: &[Point]) -> f64 {
        assert!(
            positions.len() >= self.cells.len(),
            "positions slice shorter than cell list"
        );
        self.nets
            .iter()
            .map(|net| net_hpwl_at(&self.pins[net.pins.clone()], net.weight, |i| positions[i]))
            .sum()
    }

    /// Iterator over indexes of movable cells.
    pub fn movable_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_movable())
            .map(|(i, _)| i)
    }

    /// Total area of movable objects.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.area())
            .sum()
    }

    /// Area of fixed objects clipped to the placement region.
    pub fn fixed_area_in_region(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.fixed)
            .map(|c| c.rect().overlap_area(&self.region))
            .sum()
    }

    /// Free area available for movable objects: region minus clipped fixed
    /// blockages. The filler budget (paper §III) is
    /// `ρ_t · whitespace − movable_area`.
    pub fn whitespace_area(&self) -> f64 {
        (self.region.area() - self.fixed_area_in_region()).max(0.0)
    }

    /// Utilization of the design: movable area over whitespace.
    pub fn utilization(&self) -> f64 {
        let ws = self.whitespace_area();
        if ws <= 0.0 {
            return f64::INFINITY;
        }
        self.movable_area() / ws
    }

    /// Outlines of all movable macros at the current placement — the inputs
    /// to the macro-overlap metrics of mLG.
    pub fn movable_macro_rects(&self) -> Vec<Rect> {
        self.cells
            .iter()
            .filter(|c| c.kind == CellKind::Macro && c.is_movable())
            .map(|c| c.rect())
            .collect()
    }

    /// Number of objects whose kind matches `kind`.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// Removes all filler cells (they are always a suffix of `cells`) and
    /// returns how many were removed. Fillers carry no pins, so nets and
    /// the incidence are unaffected.
    pub fn remove_fillers(&mut self) -> usize {
        let keep = self
            .cells
            .iter()
            .position(|c| c.kind == CellKind::Filler)
            .unwrap_or(self.cells.len());
        let removed = self.cells.len() - keep;
        self.cells.truncate(keep);
        removed
    }

    /// Checks that the design is one the placer can use: every net's pins
    /// inside [`Design::pins`] and on existing non-filler cells, every net
    /// weight finite and non-negative, every cell size and every row's
    /// height and site width finite and positive, fillers a suffix of
    /// [`Design::cells`], the incidence in step with the cells (a cell added
    /// after the design was built is a filler, a removed one had no nets),
    /// and a non-degenerate region. The Bookshelf reader runs this
    /// on every design it returns.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] (subject `design`) naming the first
    /// offending net, cell or row.
    pub fn validate(&self) -> Result<(), EplaceError> {
        let invalid = |message: String| Err(EplaceError::invalid("design", message));
        let positive = |v: f64| v.is_finite() && v > 0.0;
        for (ni, net) in self.nets.iter().enumerate() {
            let Some(pins) = self.pins.get(net.pins.clone()) else {
                return invalid(format!(
                    "net {ni} ({}) has pins {:?} of {}",
                    net.name,
                    net.pins,
                    self.pins.len()
                ));
            };
            for pin in pins {
                let ci = pin.cell.index();
                if ci >= self.cells.len() {
                    return invalid(format!("net {ni} references missing cell {ci}"));
                }
                if self.cells[ci].kind == CellKind::Filler {
                    return invalid(format!("net {ni} connects to filler cell {ci}"));
                }
            }
            if !(net.weight.is_finite() && net.weight >= 0.0) {
                return invalid(format!("net {ni} ({}) has weight {}", net.name, net.weight));
            }
        }
        let mut seen_filler = false;
        for (i, cell) in self.cells.iter().enumerate() {
            let Size { width, height } = cell.size;
            if !positive(width) || !positive(height) {
                return invalid(format!(
                    "cell {i} ({}) has width {width} and height {height}",
                    cell.name
                ));
            }
            match cell.kind {
                CellKind::Filler => seen_filler = true,
                _ if seen_filler => {
                    return invalid(format!("non-filler cell {i} appears after fillers"));
                }
                _ => {}
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            if !positive(row.height) || !positive(row.site_width) {
                return invalid(format!(
                    "row {i} has height {} and site width {}",
                    row.height, row.site_width
                ));
            }
        }
        let built = self.cell_start.len() - 1;
        if let Some(i) = (self.cells.len()..built).find(|&i| !self.nets_of(i).is_empty()) {
            return invalid(format!("removed cell {i} still has nets"));
        }
        if let Some(i) = (built..self.cells.len()).find(|&i| self.cells[i].kind != CellKind::Filler)
        {
            return invalid(format!(
                "cell {i} ({}) was added after the netlist was built",
                self.cells[i].name
            ));
        }
        if !self.region.is_valid() {
            return invalid("placement region is degenerate".into());
        }
        Ok(())
    }
}

/// The one HPWL kernel: the weighted half perimeter of a net with `pins`
/// and `weight`, with cell `i` at `pos(i)`. Nets with fewer than two pins
/// have none. Each extreme is kept by comparison, the earlier pin winning a
/// tie as `f64::min`/`f64::max` do here, but a NaN coordinate sticks where
/// they would skip it: a pin at NaN makes the net's length NaN.
fn net_hpwl_at(pins: &[Pin], weight: f64, pos: impl Fn(usize) -> Point) -> f64 {
    if pins.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for pin in pins {
        let p = pos(pin.cell.index()) + pin.offset;
        widen(&mut min_x, &mut max_x, p.x);
        widen(&mut min_y, &mut max_y, p.y);
    }
    weight * ((max_x - min_x) + (max_y - min_y))
}

/// Widens the interval `lo..=hi` to hold `v`; a NaN `v` makes both ends
/// NaN, and they stay NaN.
#[inline]
fn widen(lo: &mut f64, hi: &mut f64, v: f64) {
    if v < *lo || v.is_nan() {
        *lo = v;
    }
    if v > *hi || v.is_nan() {
        *hi = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignBuilder;

    fn two_cell_design() -> Design {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 100.0, 50.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[0].pos = Point::new(10.0, 10.0);
        d.cells[1].pos = Point::new(20.0, 30.0);
        d
    }

    #[test]
    fn hpwl_two_pin() {
        let d = two_cell_design();
        assert_eq!(d.hpwl(), 30.0);
    }

    #[test]
    fn hpwl_with_positions_matches_hpwl_bitwise() {
        let d = two_cell_design();
        let pos: Vec<Point> = d.cells.iter().map(|c| c.pos).collect();
        assert_eq!(d.hpwl_with_positions(&pos).to_bits(), d.hpwl().to_bits());
        // And a shifted placement is evaluated without mutating the design.
        let moved: Vec<Point> = pos.iter().map(|p| Point::new(p.x + 5.0, p.y)).collect();
        assert_eq!(d.hpwl_with_positions(&moved), d.hpwl());
        assert_eq!(d.cells[0].pos, Point::new(10.0, 10.0));
    }

    #[test]
    fn hpwl_respects_pin_offsets() {
        let mut d = two_cell_design();
        d.pins[0].offset = Point::new(1.0, 0.0);
        assert_eq!(d.hpwl(), 29.0);
    }

    #[test]
    fn hpwl_respects_weights() {
        let mut d = two_cell_design();
        d.nets[0].weight = 2.0;
        assert_eq!(d.hpwl(), 60.0);
    }

    #[test]
    fn single_pin_net_is_zero_length() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN)]);
        assert_eq!(b.build().hpwl(), 0.0);
    }

    #[test]
    fn areas_and_utilization() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell("m", 4.0, 4.0, CellKind::StdCell);
        let t = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
        let mut d = b.build();
        d.cells[t.index()].pos = Point::new(9.0, 9.0); // half sticks out
        assert_eq!(d.movable_area(), 16.0);
        assert_eq!(d.fixed_area_in_region(), 4.0); // clipped to 2x2 quadrant... full 2x2 fits
        assert_eq!(d.whitespace_area(), 96.0);
        assert!((d.utilization() - 16.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_area_clipping() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        let t = b.add_cell("io", 4.0, 4.0, CellKind::Terminal);
        let mut d = b.build();
        // Center on the region corner: only one quadrant (2x2) inside.
        d.cells[t.index()].pos = Point::new(10.0, 10.0);
        assert_eq!(d.fixed_area_in_region(), 4.0);
    }

    #[test]
    fn remove_fillers_truncates_suffix() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        b.add_cell("f1", 1.0, 1.0, CellKind::Filler);
        b.add_cell("f2", 1.0, 1.0, CellKind::Filler);
        let mut d = b.build();
        assert_eq!(d.remove_fillers(), 2);
        assert_eq!(d.cells.len(), 1);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn validate_rejects_filler_with_pins() {
        let mut d = two_cell_design();
        d.cells[1].kind = CellKind::Filler;
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_pin() {
        let mut d = two_cell_design();
        d.pins[0].cell = CellId(99);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_pin_range_outside_the_pins() {
        let reversed = Range { start: 2, end: 1 };
        for bad in [1..3, reversed] {
            let mut d = two_cell_design();
            d.nets[0].pins = bad;
            let msg = rejection(&d);
            assert!(msg.starts_with("net 0 (n) has pins"), "{msg}");
        }
    }

    #[test]
    fn validate_rejects_cells_out_of_step_with_the_netlist() {
        // A non-filler added after the build has no incidence.
        let mut d = two_cell_design();
        let mut extra = d.cells[1].clone();
        extra.name = "late".into();
        d.cells.push(extra.clone());
        let msg = rejection(&d);
        assert!(msg.starts_with("cell 2 (late) was added after"), "{msg}");
        // A filler may be; it has no nets.
        d.cells[2].kind = CellKind::Filler;
        assert!(d.validate().is_ok());
        assert!(d.nets_of(2).is_empty());
        // Cells removed from under the built netlist.
        d.cells.truncate(1);
        let msg = rejection(&d);
        assert!(msg.starts_with("net 0 references missing cell 1"), "{msg}");
        d.pins[1].cell = CellId(0);
        let msg = rejection(&d);
        assert!(msg.starts_with("removed cell 1 still has nets"), "{msg}");
    }

    /// The offending design's validation message; panics when it passes.
    fn rejection(d: &Design) -> String {
        match d.validate() {
            Err(EplaceError::Validation { subject, message }) => {
                assert_eq!(subject, "design");
                message
            }
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_nonpositive_or_nonfinite_cell_size() {
        let bad = [
            (2.0, 0.0),
            (-3.0, 2.0),
            (0.0, 0.0),
            (f64::NAN, 2.0),
            (2.0, f64::INFINITY),
            (f64::NEG_INFINITY, 2.0),
        ];
        for (w, h) in bad {
            let mut d = two_cell_design();
            d.cells[1].size = Size::new(w, h);
            let msg = rejection(&d);
            assert!(msg.starts_with("cell 1 (b) has width"), "{msg}");
        }
    }

    #[test]
    fn validate_rejects_degenerate_rows() {
        let row = Row {
            x: 0.0,
            y: 0.0,
            width: 100.0,
            height: 2.0,
            site_width: 1.0,
        };
        let mut d = two_cell_design();
        d.rows = vec![row, row];
        assert!(d.validate().is_ok());
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            for site in [false, true] {
                let mut d = d.clone();
                if site {
                    d.rows[1].site_width = bad;
                } else {
                    d.rows[1].height = bad;
                }
                let msg = rejection(&d);
                assert!(msg.starts_with("row 1 has height"), "{msg}");
            }
        }
    }

    #[test]
    fn validate_rejects_negative_weight() {
        let mut d = two_cell_design();
        d.nets[0].weight = 0.0;
        assert!(d.validate().is_ok(), "a zero weight is allowed");
        for bad in [-1000.0, f64::NAN] {
            d.nets[0].weight = bad;
            let msg = rejection(&d);
            assert!(msg.starts_with("net 0 (n) has weight"), "{msg}");
        }
    }

    #[test]
    fn cell_rect_is_centered() {
        let d = two_cell_design();
        let r = d.cells[0].rect();
        assert_eq!(r.center(), d.cells[0].pos);
        assert_eq!(r.area(), 4.0);
    }

    #[test]
    fn degree_bookkeeping() {
        let d = two_cell_design();
        assert_eq!(d.nets_of(0), &[NetId(0)]);
        assert_eq!(d.nets_of(1), &[NetId(0)]);
        assert_eq!(d.nets[0].degree(), 2);
        assert_eq!(d.net_pins(0), &d.pins[..]);
    }

    /// Today's incidence rule, one list per cell: nets in id order, a net
    /// pushed unless it is already the cell's last entry.
    fn nested_incidence(d: &Design) -> Vec<Vec<NetId>> {
        let mut incident = vec![Vec::new(); d.cells.len()];
        for (ni, net) in d.nets.iter().enumerate() {
            for pin in &d.pins[net.pins.clone()] {
                let list: &mut Vec<NetId> = &mut incident[pin.cell.index()];
                if list.last() != Some(&NetId(ni as u32)) {
                    list.push(NetId(ni as u32));
                }
            }
        }
        incident
    }

    #[test]
    fn incidence_is_the_nested_lists_flattened() {
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<CellId> = (0..6)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        let pin = |i: usize| (ids[i], Point::new(0.1 * i as f64, 0.0));
        b.add_net("a", vec![pin(0), pin(1), pin(0)]); // one cell twice, apart
        b.add_net("b", vec![pin(2), pin(2)]);
        b.add_net("empty", vec![]);
        b.add_net("c", vec![pin(4), pin(1), pin(2), pin(1)]);
        b.add_net("d", vec![pin(1)]);
        let mut d = b.build();
        let nested = nested_incidence(&d);
        for (c, list) in nested.iter().enumerate() {
            assert_eq!(d.nets_of(c), &list[..], "cell {c}");
        }
        assert_eq!(d.nets_of(1), &[NetId(0), NetId(3), NetId(4)]);
        assert!(d.nets_of(3).is_empty() && d.nets_of(5).is_empty());
        for (n, net) in d.nets.iter().enumerate() {
            assert_eq!(d.net_pins(n), &d.pins[net.pins.clone()]);
        }
        // Fillers come and go past the built incidence.
        d.cells.push(Cell {
            name: "f".into(),
            size: Size::new(1.0, 1.0),
            kind: CellKind::Filler,
            fixed: false,
            pos: Point::ORIGIN,
        });
        assert!(d.nets_of(6).is_empty() && d.nets_of(7).is_empty());
        assert!(d.validate().is_ok());
        assert_eq!(d.remove_fillers(), 1);
        assert_eq!(d.nets_of(4), &[NetId(3)]);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn a_cell_at_nan_makes_hpwl_nan() {
        for (x, y) in [(f64::NAN, 30.0), (20.0, f64::NAN)] {
            let mut d = two_cell_design();
            d.cells[1].pos = Point::new(x, y);
            assert!(d.net_hpwl(&d.nets[0]).is_nan());
            assert!(d.hpwl().is_nan());
            let pos: Vec<Point> = d.cells.iter().map(|c| c.pos).collect();
            assert!(d.hpwl_with_positions(&pos).is_nan());
        }
        // The NaN pin comes first, last, or between two finite ones.
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<CellId> = (0..3)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n", ids.iter().map(|&c| (c, Point::ORIGIN)).collect());
        let d = b.build();
        for at in 0..3 {
            let mut pos = vec![
                Point::new(1.0, 2.0),
                Point::new(5.0, 3.0),
                Point::new(2.0, 9.0),
            ];
            pos[at] = Point::new(f64::NAN, f64::NAN);
            assert!(d.hpwl_with_positions(&pos).is_nan(), "NaN pin {at}");
        }
    }
}
