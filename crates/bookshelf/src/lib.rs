//! Reader and writer for the **Bookshelf** placement format — the exchange
//! format of the ISPD 2005 \[13\], ISPD 2006 \[12\] and MMS \[21\] contest suites
//! the paper evaluates on.
//!
//! A benchmark is a `.aux` file naming five companions:
//!
//! | file     | contents                                    |
//! |----------|---------------------------------------------|
//! | `.nodes` | objects with dimensions and terminal flags  |
//! | `.nets`  | hypergraph with pin offsets (from centers)  |
//! | `.wts`   | net weights (all 1.0 in the contest suites) |
//! | `.pl`    | lower-left positions, orientations, /FIXED  |
//! | `.scl`   | standard-cell rows                          |
//!
//! Reading produces an [`eplace_netlist::Design`] the placer can use, or a
//! typed [`eplace_errors::EplaceError`]: every number must be finite, and
//! the assembled design must pass [`eplace_netlist::Design::validate`].
//! Writing emits a complete, re-readable benchmark directory. Kind
//! inference follows the suites' conventions: `terminal` nodes are fixed
//! IO/blockages, movable nodes taller than the row height are macros (the
//! MMS suites free the macros), everything else is a standard cell.
//!
//! # Examples
//!
//! ```no_run
//! use eplace_bookshelf::{read_aux, write_aux};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = read_aux("benchmarks/adaptec1/adaptec1.aux")?;
//! println!("{} cells", design.cells.len());
//! write_aux(&design, "out_dir", "adaptec1_replaced")?;
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod assemble;
mod parse;
mod write;

pub use assemble::assemble_design;
pub use parse::{
    parse_aux, parse_nets, parse_nodes, parse_pl, parse_scl, parse_wts, NetsFile, NodeRecord,
    NodesFile, PlRecord, SclRow,
};
pub use write::{write_aux, write_pl};

use eplace_errors::EplaceError;
use std::path::Path;

/// Reads a complete benchmark rooted at a `.aux` file into a
/// [`eplace_netlist::Design`].
///
/// This is the input check every caller runs: numbers must be finite, and
/// the assembled design must pass [`eplace_netlist::Design::validate`], so
/// only a design the placer can use comes back.
///
/// # Errors
///
/// [`EplaceError::Io`] when a file is missing/unreadable,
/// [`EplaceError::Parse`] (with file and line) on malformed content, and
/// [`EplaceError::Validation`] when the design is not placeable.
pub fn read_aux(aux_path: impl AsRef<Path>) -> Result<eplace_netlist::Design, EplaceError> {
    let aux_path = aux_path.as_ref();
    let dir = aux_path.parent().unwrap_or_else(|| Path::new("."));
    let read = |p: &Path| -> Result<String, EplaceError> {
        std::fs::read_to_string(p)
            .map_err(|e| EplaceError::io(p.display().to_string(), e.to_string()))
    };
    let aux_text = read(aux_path)?;
    let files = parse_aux(&aux_text)?;
    let mut nodes = None;
    let mut nets = None;
    let mut wts = None;
    let mut pl = None;
    let mut scl = None;
    for name in &files {
        let path = dir.join(name);
        let lower = name.to_lowercase();
        let text = read(&path)?;
        if lower.ends_with(".nodes") {
            nodes = Some(parse_nodes(&text)?);
        } else if lower.ends_with(".nets") {
            nets = Some(parse_nets(&text)?);
        } else if lower.ends_with(".wts") {
            wts = Some(parse_wts(&text)?);
        } else if lower.ends_with(".pl") {
            pl = Some(parse_pl(&text)?);
        } else if lower.ends_with(".scl") {
            scl = Some(parse_scl(&text)?);
        } else {
            return Err(EplaceError::parse(
                name,
                0,
                "unknown file kind referenced by .aux",
            ));
        }
    }
    let name = aux_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "bookshelf".to_string());
    let nodes = nodes.ok_or_else(|| EplaceError::parse("aux", 0, "missing .nodes file"))?;
    let nets = nets.ok_or_else(|| EplaceError::parse("aux", 0, "missing .nets file"))?;
    let pl = pl.ok_or_else(|| EplaceError::parse("aux", 0, "missing .pl file"))?;
    let scl = scl.ok_or_else(|| EplaceError::parse("aux", 0, "missing .scl file"))?;
    assemble_design(&name, nodes, nets, wts.unwrap_or_default(), pl, scl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_aux_missing_file_is_io_error() {
        let err = read_aux("/definitely/not/here.aux").unwrap_err();
        assert!(matches!(err, EplaceError::Io { .. }));
    }
}

#[cfg(test)]
mod proptests;
