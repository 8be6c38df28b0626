//! Per-file Bookshelf parsers. Each parser takes the file contents as a
//! string (testable without touching the filesystem) and produces an
//! intermediate record type; [`crate::assemble_design`] stitches the records
//! into a [`eplace_netlist::Design`].

use eplace_errors::EplaceError;
use eplace_geometry::Point;

/// A node (object) line from the `.nodes` file.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Instance name.
    pub name: String,
    /// Width in layout units.
    pub width: f64,
    /// Height in layout units.
    pub height: f64,
    /// `terminal` or `terminal_NI` suffix present.
    pub terminal: bool,
}

/// Parsed `.nodes` file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodesFile {
    /// All node records in file order.
    pub nodes: Vec<NodeRecord>,
    /// Declared `NumTerminals` (checked against the records).
    pub num_terminals: usize,
}

/// One `.nets` pin entry: `(node name, x offset, y offset)`. Offsets are
/// from the node **center** per the format spec.
pub type PinEntry = (String, f64, f64);

/// Parsed `.nets` file: per net, a name and its pin entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetsFile {
    /// `(net name, pins)` in file order.
    pub nets: Vec<(String, Vec<PinEntry>)>,
}

/// One line of the `.pl` file.
#[derive(Debug, Clone, PartialEq)]
pub struct PlRecord {
    /// Instance name.
    pub name: String,
    /// Lower-left x (Bookshelf stores corners, not centers).
    pub x: f64,
    /// Lower-left y.
    pub y: f64,
    /// `/FIXED` or `/FIXED_NI` marker present.
    pub fixed: bool,
}

/// One `CoreRow` block of the `.scl` file.
#[derive(Debug, Clone, PartialEq)]
pub struct SclRow {
    /// Bottom y (`Coordinate`).
    pub coordinate: f64,
    /// Row height.
    pub height: f64,
    /// Width of a placement site.
    pub site_width: f64,
    /// Left edge (`SubrowOrigin`).
    pub subrow_origin: f64,
    /// Number of sites.
    pub num_sites: usize,
}

/// Iterate non-empty, comment-stripped lines with their 1-based numbers.
/// Bookshelf comments start with `#`; the leading `UCLA <kind> <version>`
/// banner line is skipped.
fn logical_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() || line.starts_with("UCLA") {
            None
        } else {
            Some((i + 1, line))
        }
    })
}

/// Splits a `Key : value` line, returning `(key, value)` when it matches.
fn key_value(line: &str) -> Option<(&str, &str)> {
    let (k, v) = line.split_once(':')?;
    Some((k.trim(), v.trim()))
}

/// Parses a finite number: Rust's float parser also accepts `nan`, `inf`
/// and overflowing literals, which no Bookshelf field may hold.
fn parse_f64(file: &str, line: usize, tok: &str) -> Result<f64, EplaceError> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(EplaceError::parse(
            file,
            line,
            format!("expected number, got `{tok}`"),
        )),
    }
}

fn parse_usize(file: &str, line: usize, tok: &str) -> Result<usize, EplaceError> {
    tok.parse::<usize>()
        .map_err(|_| EplaceError::parse(file, line, format!("expected integer, got `{tok}`")))
}

/// Parses a `.aux` file, returning the referenced file names.
///
/// # Errors
///
/// Returns a parse error when no `RowBasedPlacement : ...` line is present.
pub fn parse_aux(text: &str) -> Result<Vec<String>, EplaceError> {
    for (line_no, line) in logical_lines(text) {
        if let Some((_, files)) = key_value(line) {
            let names: Vec<String> = files.split_whitespace().map(str::to_string).collect();
            if names.is_empty() {
                return Err(EplaceError::parse("aux", line_no, "no files listed"));
            }
            return Ok(names);
        }
    }
    Err(EplaceError::parse(
        "aux",
        0,
        "missing `RowBasedPlacement : <files>` line",
    ))
}

/// Parses a `.nodes` file.
///
/// # Errors
///
/// Returns a parse error on malformed lines or when the declared counts
/// disagree with the records.
pub fn parse_nodes(text: &str) -> Result<NodesFile, EplaceError> {
    const F: &str = "nodes";
    let mut out = NodesFile::default();
    let mut declared_nodes: Option<usize> = None;
    for (line_no, line) in logical_lines(text) {
        if let Some((key, value)) = key_value(line) {
            match key {
                "NumNodes" => declared_nodes = Some(parse_usize(F, line_no, value)?),
                "NumTerminals" => out.num_terminals = parse_usize(F, line_no, value)?,
                other => {
                    return Err(EplaceError::parse(
                        F,
                        line_no,
                        format!("unknown header `{other}`"),
                    ))
                }
            }
            continue;
        }
        let mut toks = line.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| EplaceError::parse(F, line_no, "missing node name"))?;
        let width = parse_f64(
            F,
            line_no,
            toks.next()
                .ok_or_else(|| EplaceError::parse(F, line_no, "missing width"))?,
        )?;
        let height = parse_f64(
            F,
            line_no,
            toks.next()
                .ok_or_else(|| EplaceError::parse(F, line_no, "missing height"))?,
        )?;
        let terminal = match toks.next() {
            None => false,
            Some(t) if t.eq_ignore_ascii_case("terminal") => true,
            Some(t) if t.eq_ignore_ascii_case("terminal_NI") => true,
            Some(t) => {
                return Err(EplaceError::parse(
                    F,
                    line_no,
                    format!("unexpected trailing token `{t}`"),
                ))
            }
        };
        out.nodes.push(NodeRecord {
            name: name.to_string(),
            width,
            height,
            terminal,
        });
    }
    if let Some(n) = declared_nodes {
        if n != out.nodes.len() {
            return Err(EplaceError::parse(
                F,
                0,
                format!("NumNodes says {n} but {} records found", out.nodes.len()),
            ));
        }
    }
    let terminals = out.nodes.iter().filter(|n| n.terminal).count();
    if out.num_terminals != 0 && out.num_terminals != terminals {
        return Err(EplaceError::parse(
            F,
            0,
            format!(
                "NumTerminals says {} but {terminals} terminal records found",
                out.num_terminals
            ),
        ));
    }
    Ok(out)
}

/// Parses a `.nets` file.
///
/// # Errors
///
/// Returns a parse error on malformed lines or degree mismatches.
pub fn parse_nets(text: &str) -> Result<NetsFile, EplaceError> {
    const F: &str = "nets";
    let mut out = NetsFile::default();
    let mut declared_nets: Option<usize> = None;
    let mut declared_pins: Option<usize> = None;
    let mut current: Option<(String, usize, Vec<PinEntry>)> = None;
    let finish = |cur: &mut Option<(String, usize, Vec<PinEntry>)>,
                  out: &mut NetsFile|
     -> Result<(), EplaceError> {
        if let Some((name, degree, pins)) = cur.take() {
            if pins.len() != degree {
                return Err(EplaceError::parse(
                    F,
                    0,
                    format!(
                        "net `{name}` declares degree {degree} but has {} pins",
                        pins.len()
                    ),
                ));
            }
            out.nets.push((name, pins));
        }
        Ok(())
    };
    for (line_no, line) in logical_lines(text) {
        // Headers also use `key : value` syntax, but so do pin lines
        // (`a I : 0.5 1.0`) — dispatch on the key name.
        if let Some((key, value)) = key_value(line) {
            let is_header = matches!(key, "NumNets" | "NumPins") || key.starts_with("NetDegree");
            if is_header {
                match key {
                    "NumNets" => declared_nets = Some(parse_usize(F, line_no, value)?),
                    "NumPins" => declared_pins = Some(parse_usize(F, line_no, value)?),
                    _ => {
                        finish(&mut current, &mut out)?;
                        let mut toks = value.split_whitespace();
                        let degree = parse_usize(
                            F,
                            line_no,
                            toks.next().ok_or_else(|| {
                                EplaceError::parse(F, line_no, "missing net degree")
                            })?,
                        )?;
                        let name = toks
                            .next()
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("net{}", out.nets.len()));
                        current = Some((name, degree, Vec::with_capacity(degree)));
                    }
                }
                continue;
            }
        }
        // Pin line: `<node> <dir> : <dx> <dy>` or just `<node> <dir>` or `<node>`.
        let (name_dir, offsets) = match line.split_once(':') {
            Some((a, b)) => (a.trim(), Some(b.trim())),
            None => (line, None),
        };
        let mut toks = name_dir.split_whitespace();
        let node = toks
            .next()
            .ok_or_else(|| EplaceError::parse(F, line_no, "missing pin node name"))?;
        // Direction token (I/O/B) is optional and ignored.
        let (dx, dy) = match offsets {
            Some(rest) => {
                let mut ot = rest.split_whitespace();
                let dx = parse_f64(
                    F,
                    line_no,
                    ot.next()
                        .ok_or_else(|| EplaceError::parse(F, line_no, "missing x offset"))?,
                )?;
                let dy = parse_f64(
                    F,
                    line_no,
                    ot.next()
                        .ok_or_else(|| EplaceError::parse(F, line_no, "missing y offset"))?,
                )?;
                (dx, dy)
            }
            None => (0.0, 0.0),
        };
        match current.as_mut() {
            Some((_, _, pins)) => pins.push((node.to_string(), dx, dy)),
            None => {
                return Err(EplaceError::parse(
                    F,
                    line_no,
                    "pin line before any NetDegree header",
                ))
            }
        }
    }
    finish(&mut current, &mut out)?;
    if let Some(n) = declared_nets {
        if n != out.nets.len() {
            return Err(EplaceError::parse(
                F,
                0,
                format!("NumNets says {n} but {} nets found", out.nets.len()),
            ));
        }
    }
    if let Some(p) = declared_pins {
        let total: usize = out.nets.iter().map(|(_, pins)| pins.len()).sum();
        if p != total {
            return Err(EplaceError::parse(
                F,
                0,
                format!("NumPins says {p} but {total} pins found"),
            ));
        }
    }
    Ok(out)
}

/// Parses a `.wts` file into `(net name, weight)` pairs.
///
/// # Errors
///
/// Returns a parse error on malformed lines.
pub fn parse_wts(text: &str) -> Result<Vec<(String, f64)>, EplaceError> {
    const F: &str = "wts";
    let mut out = Vec::new();
    for (line_no, line) in logical_lines(text) {
        if key_value(line).is_some() {
            continue; // tolerate headers like `NumNets : n`
        }
        let mut toks = line.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| EplaceError::parse(F, line_no, "missing name"))?;
        let w = parse_f64(
            F,
            line_no,
            toks.next()
                .ok_or_else(|| EplaceError::parse(F, line_no, "missing weight"))?,
        )?;
        out.push((name.to_string(), w));
    }
    Ok(out)
}

/// Parses a `.pl` file.
///
/// # Errors
///
/// Returns a parse error on malformed lines.
pub fn parse_pl(text: &str) -> Result<Vec<PlRecord>, EplaceError> {
    const F: &str = "pl";
    let mut out = Vec::new();
    for (line_no, line) in logical_lines(text) {
        // `<name> <x> <y> : <orient> [/FIXED|/FIXED_NI]`
        let fixed = line.contains("/FIXED");
        let head = match line.split_once(':') {
            Some((a, _)) => a.trim(),
            None => line,
        };
        let mut toks = head.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| EplaceError::parse(F, line_no, "missing node name"))?;
        let x = parse_f64(
            F,
            line_no,
            toks.next()
                .ok_or_else(|| EplaceError::parse(F, line_no, "missing x"))?,
        )?;
        let y = parse_f64(
            F,
            line_no,
            toks.next()
                .ok_or_else(|| EplaceError::parse(F, line_no, "missing y"))?,
        )?;
        out.push(PlRecord {
            name: name.to_string(),
            x,
            y,
            fixed,
        });
    }
    Ok(out)
}

/// Parses a `.scl` file.
///
/// # Errors
///
/// Returns a parse error on malformed `CoreRow` blocks.
pub fn parse_scl(text: &str) -> Result<Vec<SclRow>, EplaceError> {
    const F: &str = "scl";
    let mut rows = Vec::new();
    let mut current: Option<SclRow> = None;
    for (line_no, line) in logical_lines(text) {
        if line.starts_with("CoreRow") {
            if current.is_some() {
                return Err(EplaceError::parse(F, line_no, "nested CoreRow"));
            }
            current = Some(SclRow {
                coordinate: 0.0,
                height: 0.0,
                site_width: 1.0,
                subrow_origin: 0.0,
                num_sites: 0,
            });
            continue;
        }
        if line == "End" {
            match current.take() {
                Some(row) => rows.push(row),
                None => return Err(EplaceError::parse(F, line_no, "End without CoreRow")),
            }
            continue;
        }
        if let Some(row) = current.as_mut() {
            // Lines inside a row may carry several `Key : value` pairs
            // (`SubrowOrigin : 0  NumSites : 100`).
            let mut rest = line;
            while let Some((key, tail)) = rest.split_once(':') {
                let key = key.split_whitespace().last().unwrap_or("");
                let tail = tail.trim();
                let (value, next) = match tail.split_once(char::is_whitespace) {
                    Some((v, n)) => (v, n.trim()),
                    None => (tail, ""),
                };
                match key {
                    "Coordinate" => row.coordinate = parse_f64(F, line_no, value)?,
                    "Height" => row.height = parse_f64(F, line_no, value)?,
                    "Sitewidth" => row.site_width = parse_f64(F, line_no, value)?,
                    "SubrowOrigin" => row.subrow_origin = parse_f64(F, line_no, value)?,
                    "NumSites" => row.num_sites = parse_usize(F, line_no, value)?,
                    // Sitespacing/Siteorient/Sitesymmetry tolerated & ignored.
                    _ => {}
                }
                rest = next;
            }
        } else if key_value(line).is_some() {
            // `NumRows : n` header — tolerated.
        } else {
            return Err(EplaceError::parse(
                F,
                line_no,
                format!("unexpected line outside CoreRow: `{line}`"),
            ));
        }
    }
    if current.is_some() {
        return Err(EplaceError::parse(F, 0, "unterminated CoreRow block"));
    }
    Ok(rows)
}

/// Convenience: pin offset as a [`Point`].
pub(crate) fn offset_point(dx: f64, dy: f64) -> Point {
    Point::new(dx, dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_basic() {
        let files = parse_aux("RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl\n").unwrap();
        assert_eq!(files.len(), 5);
        assert_eq!(files[0], "a.nodes");
    }

    #[test]
    fn aux_missing_line_errors() {
        assert!(parse_aux("# nothing here\n").is_err());
    }

    #[test]
    fn nodes_with_terminals() {
        let text = "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n  a 4 8\n  b 6 8\n  io 2 2 terminal\n";
        let f = parse_nodes(text).unwrap();
        assert_eq!(f.nodes.len(), 3);
        assert!(f.nodes[2].terminal);
        assert_eq!(f.nodes[0].width, 4.0);
        assert_eq!(f.num_terminals, 1);
    }

    #[test]
    fn nodes_count_mismatch_errors() {
        let text = "NumNodes : 2\na 1 1\n";
        let err = parse_nodes(text).unwrap_err();
        assert!(err.to_string().contains("NumNodes"));
    }

    #[test]
    fn nodes_terminal_ni_accepted() {
        let f = parse_nodes("io 2 2 terminal_NI\n").unwrap();
        assert!(f.nodes[0].terminal);
    }

    #[test]
    fn nodes_bad_number_reports_line() {
        let err = parse_nodes("a one 1\n").unwrap_err();
        assert!(err.to_string().starts_with("nodes:1:"));
    }

    #[test]
    fn non_finite_numbers_are_parse_errors_with_line() {
        type Parser = fn(&str) -> Result<(), EplaceError>;
        let cases: [(&str, Parser, &str, usize); 5] = [
            (
                "nodes",
                |t| parse_nodes(t).map(drop),
                "NumNodes : 2\na 4 12\nb {} 12\n",
                3,
            ),
            (
                "nets",
                |t| parse_nets(t).map(drop),
                "NetDegree : 2 n0\n a I : 0 0\n b O : {} 0\n",
                3,
            ),
            ("wts", |t| parse_wts(t).map(drop), "n0 1\nn1 {}\n", 2),
            (
                "pl",
                |t| parse_pl(t).map(drop),
                "a 0 0 : N\nb 10 {} : N\n",
                2,
            ),
            (
                "scl",
                |t| parse_scl(t).map(drop),
                "CoreRow Horizontal\n Coordinate : 0\n Height : {}\nEnd\n",
                3,
            ),
        ];
        for (file, parse, template, line) in cases {
            for tok in ["nan", "NaN", "inf", "-inf", "infinity", "1e400"] {
                let text = template.replace("{}", tok);
                let expected =
                    EplaceError::parse(file, line, format!("expected number, got `{tok}`"));
                assert_eq!(parse(&text), Err(expected), "{text}");
            }
            // The same template with a finite number parses.
            assert_eq!(parse(&template.replace("{}", "2.5")), Ok(()));
        }
    }

    #[test]
    fn nets_with_offsets() {
        let text = "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n  a I : 0.5 1.0\n  b O : -0.5 -1.0\n";
        let f = parse_nets(text).unwrap();
        assert_eq!(f.nets.len(), 1);
        assert_eq!(f.nets[0].0, "n0");
        assert_eq!(f.nets[0].1[0], ("a".to_string(), 0.5, 1.0));
        assert_eq!(f.nets[0].1[1], ("b".to_string(), -0.5, -1.0));
    }

    #[test]
    fn nets_without_offsets_default_to_center() {
        let text = "NetDegree : 2\n a I\n b O\n";
        let f = parse_nets(text).unwrap();
        assert_eq!(f.nets[0].1[0].1, 0.0);
    }

    #[test]
    fn nets_degree_mismatch_errors() {
        let text = "NetDegree : 3 n0\n a I\n b O\n";
        assert!(parse_nets(text).is_err());
    }

    #[test]
    fn nets_pin_before_header_errors() {
        assert!(parse_nets("a I : 0 0\n").is_err());
    }

    #[test]
    fn wts_lines() {
        let w = parse_wts("UCLA wts 1.0\nn0 2.5\nn1 1\n").unwrap();
        assert_eq!(w, vec![("n0".into(), 2.5), ("n1".into(), 1.0)]);
    }

    #[test]
    fn pl_with_fixed_markers() {
        let text = "UCLA pl 1.0\na 10 20 : N\nio 0 0 : N /FIXED\nni 5 5 : N /FIXED_NI\n";
        let p = parse_pl(text).unwrap();
        assert!(!p[0].fixed);
        assert!(p[1].fixed);
        assert!(p[2].fixed);
        assert_eq!(p[0].x, 10.0);
    }

    #[test]
    fn scl_two_rows() {
        let text = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 10\n Height : 12\n Sitewidth : 1\n Sitespacing : 1\n Siteorient : 1\n Sitesymmetry : 1\n SubrowOrigin : 5 NumSites : 100\nEnd\nCoreRow Horizontal\n Coordinate : 22\n Height : 12\n SubrowOrigin : 5 NumSites : 100\nEnd\n";
        let rows = parse_scl(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].coordinate, 10.0);
        assert_eq!(rows[0].num_sites, 100);
        assert_eq!(rows[1].coordinate, 22.0);
    }

    #[test]
    fn scl_unterminated_errors() {
        assert!(parse_scl("CoreRow Horizontal\n Coordinate : 1\n").is_err());
    }

    #[test]
    fn scl_end_without_row_errors() {
        assert!(parse_scl("End\n").is_err());
    }

    #[test]
    fn comments_and_banner_are_skipped() {
        let f = parse_nodes("UCLA nodes 1.0\n# full comment\na 1 2 # trailing\n").unwrap();
        assert_eq!(f.nodes.len(), 1);
        assert_eq!(f.nodes[0].height, 2.0);
    }
}
