//! Bookshelf benchmark writer: emits a complete `.aux` + five companion
//! files that [`crate::read_aux`] (and the official contest tools) can read
//! back.

use eplace_geometry::Point;
use eplace_netlist::{CellKind, Design};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Writes `design` as a full Bookshelf benchmark `<dir>/<base>.{aux,nodes,
/// nets,wts,pl,scl}` and returns the path of the `.aux` file.
///
/// Fillers are skipped — they are internal to the placer, not part of a
/// benchmark.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_aux(
    design: &Design,
    dir: impl AsRef<Path>,
    base: &str,
) -> io::Result<std::path::PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;

    let cells: Vec<_> = design
        .cells
        .iter()
        .filter(|c| c.kind != CellKind::Filler)
        .collect();
    let terminals = cells
        .iter()
        .filter(|c| c.kind == CellKind::Terminal)
        .count();

    // .nodes
    let mut nodes = String::from("UCLA nodes 1.0\n# generated by eplace-repro\n\n");
    let _ = writeln!(nodes, "NumNodes : {}", cells.len());
    let _ = writeln!(nodes, "NumTerminals : {terminals}");
    for c in &cells {
        if c.kind == CellKind::Terminal {
            let _ = writeln!(
                nodes,
                "\t{}\t{}\t{}\tterminal",
                c.name, c.size.width, c.size.height
            );
        } else {
            let _ = writeln!(nodes, "\t{}\t{}\t{}", c.name, c.size.width, c.size.height);
        }
    }
    std::fs::write(dir.join(format!("{base}.nodes")), nodes)?;

    // .nets
    let mut nets = String::from("UCLA nets 1.0\n# generated by eplace-repro\n\n");
    let _ = writeln!(nets, "NumNets : {}", design.nets.len());
    let total_pins: usize = design.nets.iter().map(|n| n.pins.len()).sum();
    let _ = writeln!(nets, "NumPins : {total_pins}");
    for (n, net) in design.nets.iter().enumerate() {
        let _ = writeln!(nets, "NetDegree : {} {}", net.pins.len(), net.name);
        for pin in design.net_pins(n) {
            let cell = &design.cells[pin.cell.index()];
            let _ = writeln!(
                nets,
                "\t{} I : {:.6} {:.6}",
                cell.name, pin.offset.x, pin.offset.y
            );
        }
    }
    std::fs::write(dir.join(format!("{base}.nets")), nets)?;

    // .wts
    let mut wts = String::from("UCLA wts 1.0\n# generated by eplace-repro\n\n");
    for net in &design.nets {
        let _ = writeln!(wts, "{} {}", net.name, net.weight);
    }
    std::fs::write(dir.join(format!("{base}.wts")), wts)?;

    // .pl
    write_pl(design, dir.join(format!("{base}.pl")))?;

    // .scl
    let mut scl = String::from("UCLA scl 1.0\n# generated by eplace-repro\n\n");
    let _ = writeln!(scl, "NumRows : {}", design.rows.len());
    for row in &design.rows {
        let num_sites = (row.width / row.site_width).round() as usize;
        let _ = writeln!(scl, "CoreRow Horizontal");
        let _ = writeln!(scl, " Coordinate : {}", row.y);
        let _ = writeln!(scl, " Height : {}", row.height);
        let _ = writeln!(scl, " Sitewidth : {}", row.site_width);
        let _ = writeln!(scl, " Sitespacing : {}", row.site_width);
        let _ = writeln!(scl, " Siteorient : 1");
        let _ = writeln!(scl, " Sitesymmetry : 1");
        let _ = writeln!(scl, " SubrowOrigin : {} NumSites : {num_sites}", row.x);
        let _ = writeln!(scl, "End");
    }
    std::fs::write(dir.join(format!("{base}.scl")), scl)?;

    // .aux
    let aux_path = dir.join(format!("{base}.aux"));
    std::fs::write(
        &aux_path,
        format!("RowBasedPlacement : {base}.nodes {base}.nets {base}.wts {base}.pl {base}.scl\n"),
    )?;
    Ok(aux_path)
}

/// Writes only the `.pl` file (the contest deliverable: final positions).
///
/// Centers are converted back to Bookshelf lower-left corners; fixed cells
/// get the `/FIXED` marker.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_pl(design: &Design, path: impl AsRef<Path>) -> io::Result<()> {
    let mut pl = String::from("UCLA pl 1.0\n# generated by eplace-repro\n\n");
    for c in &design.cells {
        if c.kind == CellKind::Filler {
            continue;
        }
        let ll: Point = c.pos - c.size.half();
        let marker = if c.fixed { " /FIXED" } else { "" };
        let _ = writeln!(pl, "{}\t{:.6}\t{:.6} : N{marker}", c.name, ll.x, ll.y);
    }
    std::fs::write(path, pl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_aux;
    use eplace_geometry::Rect;
    use eplace_netlist::DesignBuilder;

    fn sample() -> Design {
        let mut b = DesignBuilder::new("rt", Rect::new(0.0, 0.0, 100.0, 48.0));
        b.uniform_rows(12.0, 1.0);
        let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
        let c = b.add_cell("b", 6.0, 12.0, CellKind::StdCell);
        let m = b.add_cell("m", 30.0, 24.0, CellKind::Macro);
        let io = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
        b.add_weighted_net(
            "n0",
            vec![
                (a, Point::new(1.0, 0.0)),
                (c, Point::new(-1.0, 2.0)),
                (io, Point::ORIGIN),
            ],
            1.5,
        );
        b.add_net("n1", vec![(a, Point::ORIGIN), (m, Point::ORIGIN)]);
        let mut d = b.build();
        d.cells[a.index()].pos = Point::new(10.0, 6.0);
        d.cells[c.index()].pos = Point::new(20.0, 18.0);
        d.cells[m.index()].pos = Point::new(60.0, 24.0);
        d.cells[io.index()].pos = Point::new(1.0, 47.0);
        d
    }

    #[test]
    fn round_trip_preserves_everything() {
        let d = sample();
        let dir = std::env::temp_dir().join("eplace_bookshelf_rt");
        let aux = write_aux(&d, &dir, "rt").unwrap();
        let back = read_aux(&aux).unwrap();
        assert_eq!(back.cells.len(), d.cells.len());
        assert_eq!(back.nets.len(), d.nets.len());
        assert_eq!(back.rows.len(), d.rows.len());
        for (a, b) in d.cells.iter().zip(&back.cells) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert!((a.pos.x - b.pos.x).abs() < 1e-6, "{}", a.name);
            assert!((a.pos.y - b.pos.y).abs() < 1e-6);
            assert_eq!(a.fixed, b.fixed);
        }
        assert_eq!(back.nets[0].weight, 1.5);
        assert_eq!(back.net_pins(0)[0].offset, Point::new(1.0, 0.0));
        // HPWL identical across the round trip.
        assert!((d.hpwl() - back.hpwl()).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fillers_are_not_written() {
        let mut d = sample();
        d.cells.push(eplace_netlist::Cell {
            name: "fill0".into(),
            size: eplace_geometry::Size::new(2.0, 2.0),
            kind: CellKind::Filler,
            fixed: false,
            pos: Point::new(50.0, 24.0),
        });
        let dir = std::env::temp_dir().join("eplace_bookshelf_fill");
        let aux = write_aux(&d, &dir, "f").unwrap();
        let back = read_aux(&aux).unwrap();
        assert_eq!(back.cells.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_pl_fixed_marker() {
        let d = sample();
        let path = std::env::temp_dir().join("eplace_rt_test.pl");
        write_pl(&d, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("io\t0.000000\t46.000000 : N /FIXED"));
        std::fs::remove_file(&path).ok();
    }
}
