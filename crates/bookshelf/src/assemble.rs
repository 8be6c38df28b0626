//! Stitches parsed Bookshelf records into a [`Design`].

use crate::parse::{offset_point, NetsFile, NodesFile, PlRecord, SclRow};
use eplace_errors::EplaceError;
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, Design, DesignBuilder, Row};
use std::collections::HashMap;

/// Builds a [`Design`] from the five parsed files.
///
/// Kind inference follows the contest suites:
///
/// * `terminal` / `terminal_NI` nodes → [`CellKind::Terminal`] (always
///   fixed);
/// * movable nodes strictly taller than the row height → [`CellKind::Macro`]
///   (the MMS suites free macros; in ISPD 2005/2006 the `.pl` marks them
///   `/FIXED` so they come back fixed anyway);
/// * everything else → [`CellKind::StdCell`].
///
/// `.pl` coordinates are lower-left corners and are converted to centers.
/// The placement region is the bounding box of the rows.
///
/// # Errors
///
/// [`EplaceError::Parse`] when nets or `.pl` lines reference unknown nodes,
/// a node name repeats, or no rows are present;
/// [`EplaceError::Validation`] when the assembled design fails
/// [`Design::validate`] (a zero-height row, a negative net weight, …).
pub fn assemble_design(
    name: &str,
    nodes: NodesFile,
    nets: NetsFile,
    wts: Vec<(String, f64)>,
    pl: Vec<PlRecord>,
    scl: Vec<SclRow>,
) -> Result<Design, EplaceError> {
    if scl.is_empty() {
        return Err(EplaceError::parse("scl", 0, "no rows defined"));
    }
    let row_height = scl.iter().map(|r| r.height).fold(f64::INFINITY, f64::min);
    let mut region = Rect::new(
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for row in &scl {
        let width = row.num_sites as f64 * row.site_width;
        region = Rect::new(
            region.xl.min(row.subrow_origin),
            region.yl.min(row.coordinate),
            region.xh.max(row.subrow_origin + width),
            region.yh.max(row.coordinate + row.height),
        );
    }
    let mut builder = DesignBuilder::new(name, region);
    for row in &scl {
        builder.add_row(Row {
            x: row.subrow_origin,
            y: row.coordinate,
            width: row.num_sites as f64 * row.site_width,
            height: row.height,
            site_width: row.site_width,
        });
    }

    let mut ids = HashMap::with_capacity(nodes.nodes.len());
    for rec in &nodes.nodes {
        let kind = if rec.terminal {
            CellKind::Terminal
        } else if rec.height > row_height + 1e-9 {
            CellKind::Macro
        } else {
            CellKind::StdCell
        };
        let id = builder.add_cell(rec.name.clone(), rec.width, rec.height, kind);
        if ids
            .insert(rec.name.clone(), (id, rec.width, rec.height))
            .is_some()
        {
            return Err(EplaceError::parse(
                "nodes",
                0,
                format!("duplicate node name `{}`", rec.name),
            ));
        }
    }

    let weights: HashMap<&str, f64> = wts.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    for (net_name, pins) in &nets.nets {
        let mut resolved = Vec::with_capacity(pins.len());
        for (node, dx, dy) in pins {
            let (id, _, _) = ids.get(node.as_str()).ok_or_else(|| {
                EplaceError::parse(
                    "nets",
                    0,
                    format!("net `{net_name}` references unknown node `{node}`"),
                )
            })?;
            resolved.push((*id, offset_point(*dx, *dy)));
        }
        let weight = weights.get(net_name.as_str()).copied().unwrap_or(1.0);
        builder.add_weighted_net(net_name.clone(), resolved, weight);
    }

    let mut design = builder.build();
    for rec in &pl {
        let (id, w, h) = ids.get(rec.name.as_str()).ok_or_else(|| {
            EplaceError::parse("pl", 0, format!("unknown node `{}` in .pl", rec.name))
        })?;
        let cell = &mut design.cells[id.index()];
        cell.pos = Point::new(rec.x + 0.5 * w, rec.y + 0.5 * h);
        if rec.fixed {
            cell.fixed = true;
        }
    }
    design.validate()?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_nets, parse_nodes, parse_pl, parse_scl};

    fn sample_design() -> Design {
        let nodes = parse_nodes(
            "NumNodes : 4\nNumTerminals : 1\na 4 12\nb 6 12\nm 40 36\nio 2 2 terminal\n",
        )
        .unwrap();
        let nets = parse_nets("NetDegree : 3 n0\n a I : 1 0\n b O : -1 0\n io B : 0 0\n").unwrap();
        let pl = parse_pl("a 0 0 : N\nb 10 0 : N\nm 50 50 : N\nio 0 100 : N /FIXED\n").unwrap();
        let scl = parse_scl(
            "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 200\nEnd\nCoreRow Horizontal\n Coordinate : 12\n Height : 12\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 200\nEnd\n",
        )
        .unwrap();
        assemble_design("t", nodes, nets, vec![("n0".into(), 2.0)], pl, scl).unwrap()
    }

    #[test]
    fn kinds_inferred() {
        let d = sample_design();
        assert_eq!(d.cells[0].kind, CellKind::StdCell);
        assert_eq!(d.cells[2].kind, CellKind::Macro);
        assert_eq!(d.cells[3].kind, CellKind::Terminal);
        assert!(d.cells[3].fixed);
        assert!(!d.cells[2].fixed); // MMS-style movable macro
    }

    #[test]
    fn positions_converted_to_centers() {
        let d = sample_design();
        assert_eq!(d.cells[0].pos, Point::new(2.0, 6.0));
        assert_eq!(d.cells[2].pos, Point::new(70.0, 68.0));
    }

    #[test]
    fn region_is_row_bounding_box() {
        let d = sample_design();
        assert_eq!(d.region, Rect::new(0.0, 0.0, 200.0, 24.0));
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn weights_applied() {
        let d = sample_design();
        assert_eq!(d.nets[0].weight, 2.0);
    }

    #[test]
    fn unknown_net_node_errors() {
        let nodes = parse_nodes("a 1 1\n").unwrap();
        let nets = parse_nets("NetDegree : 1 n0\n ghost I : 0 0\n").unwrap();
        let scl = parse_scl(
            "CoreRow Horizontal\n Coordinate : 0\n Height : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
        )
        .unwrap();
        let err = assemble_design("t", nodes, nets, vec![], vec![], scl).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_node_errors() {
        let nodes = parse_nodes("a 1 1\na 2 2\n").unwrap();
        let scl = parse_scl(
            "CoreRow Horizontal\n Coordinate : 0\n Height : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
        )
        .unwrap();
        let err =
            assemble_design("t", nodes, NetsFile::default(), vec![], vec![], scl).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn no_rows_errors() {
        let nodes = parse_nodes("a 1 1\n").unwrap();
        assert!(assemble_design("t", nodes, NetsFile::default(), vec![], vec![], vec![]).is_err());
    }
}
