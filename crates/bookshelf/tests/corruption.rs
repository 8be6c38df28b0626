//! Robustness of the Bookshelf readers against corrupted and truncated
//! input: every parser must return a typed [`EplaceError`] with file and
//! line context — never panic — no matter how the stream is damaged, and
//! `read_aux` must reject degenerate designs the placer cannot use.

use eplace_bookshelf::{
    parse_nets, parse_nodes, parse_pl, parse_scl, parse_wts, read_aux, write_aux,
};
use eplace_errors::EplaceError;
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, DesignBuilder};
use eplace_testkit::{apply_text_fault, check, corrupt_text, TextFault, TEXT_FAULTS};
use std::path::{Path, PathBuf};

fn sample_design() -> eplace_netlist::Design {
    let mut b = DesignBuilder::new("corrupt", Rect::new(0.0, 0.0, 100.0, 48.0));
    b.uniform_rows(12.0, 1.0);
    let a = b.add_cell("a", 4.0, 12.0, CellKind::StdCell);
    let c = b.add_cell("b", 6.0, 12.0, CellKind::StdCell);
    let m = b.add_cell("m", 30.0, 24.0, CellKind::Macro);
    let io = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
    b.add_net(
        "n0",
        vec![
            (a, Point::new(1.0, 0.0)),
            (c, Point::new(-1.0, 2.0)),
            (io, Point::ORIGIN),
        ],
    );
    b.add_net("n1", vec![(a, Point::ORIGIN), (m, Point::ORIGIN)]);
    let mut d = b.build();
    d.cells[a.index()].pos = Point::new(10.0, 6.0);
    d.cells[c.index()].pos = Point::new(20.0, 18.0);
    d.cells[m.index()].pos = Point::new(60.0, 24.0);
    d.cells[io.index()].pos = Point::new(1.0, 47.0);
    d
}

/// Writes the sample benchmark once and returns `(dir, base)`.
fn written_benchmark(tag: &str) -> (PathBuf, &'static str) {
    let dir = std::env::temp_dir().join(format!("eplace_corrupt_{}_{tag}", std::process::id()));
    write_aux(&sample_design(), &dir, "c").unwrap();
    (dir, "c")
}

fn companion_text(dir: &Path, base: &str, ext: &str) -> String {
    std::fs::read_to_string(dir.join(format!("{base}.{ext}"))).unwrap()
}

/// Every parser, over every corruption operator, many seeds: a typed
/// `Result` either way, never a panic (the harness turns panics into
/// failures with a replay seed).
#[test]
fn corrupted_streams_never_panic_any_parser() {
    let (dir, base) = written_benchmark("parsers");
    let texts: Vec<(&str, String)> = ["nodes", "nets", "pl", "scl", "wts"]
        .iter()
        .map(|ext| (*ext, companion_text(&dir, base, ext)))
        .collect();
    check("corrupted parse is total", 200, |g| {
        let (ext, text) = &texts[g.usize_range(0, texts.len() - 1)];
        let (_fault, bad) = corrupt_text(text, g);
        match *ext {
            "nodes" => drop(parse_nodes(&bad)),
            "nets" => drop(parse_nets(&bad)),
            "pl" => drop(parse_pl(&bad)),
            "scl" => drop(parse_scl(&bad)),
            _ => drop(parse_wts(&bad)),
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Full `read_aux` over benchmarks with one corrupted companion file:
/// always a `Result`, and the error (when one is raised) is typed with
/// context, not a panic message.
#[test]
fn read_aux_survives_every_fault_on_every_file() {
    let (dir, base) = written_benchmark("readaux");
    let exts = ["nodes", "nets", "pl", "scl", "wts"];
    let mut errors = 0usize;
    let mut total = 0usize;
    for (fi, fault) in TEXT_FAULTS.iter().enumerate() {
        for (ei, ext) in exts.iter().enumerate() {
            for seed in 0..4u64 {
                let mut g = eplace_testkit::Gen::from_seed(
                    0xC0FF_EE00 + seed + 100 * fi as u64 + 1000 * ei as u64,
                );
                let clean = companion_text(&dir, base, ext);
                let bad = apply_text_fault(&clean, *fault, &mut g);
                let bad_dir = dir.join(format!("f{fi}_{ei}_{seed}"));
                std::fs::create_dir_all(&bad_dir).unwrap();
                for e in exts {
                    let body = if e == *ext {
                        bad.clone()
                    } else {
                        companion_text(&dir, base, e)
                    };
                    std::fs::write(bad_dir.join(format!("{base}.{e}")), body).unwrap();
                }
                std::fs::copy(
                    dir.join(format!("{base}.aux")),
                    bad_dir.join(format!("{base}.aux")),
                )
                .unwrap();
                total += 1;
                match read_aux(bad_dir.join(format!("{base}.aux"))) {
                    Ok(_) => {}
                    Err(e) => {
                        errors += 1;
                        // Typed error with a displayable, contextual message.
                        assert!(!e.to_string().is_empty());
                    }
                }
            }
        }
    }
    // The sweep must actually bite. Not every corruption is detectable —
    // `.wts` is lenient and drop/duplicate of comment lines is harmless —
    // but a healthy reader rejects well over a third of them.
    assert!(
        errors * 3 > total,
        "only {errors}/{total} corruptions were detected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_nodes_reports_file_context() {
    let (dir, base) = written_benchmark("trunc");
    let clean = companion_text(&dir, base, "nodes");
    // Cut mid-line: drop the final newline plus a few characters so the
    // last record loses its height column.
    let cut = clean.trim_end().len() - 2;
    let err = parse_nodes(&clean[..cut]).unwrap_err();
    match &err {
        EplaceError::Parse { file, line, .. } => {
            assert_eq!(file, "nodes");
            assert!(*line > 0, "line context lost: {err}");
        }
        other => panic!("expected Parse error, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mangled_pl_number_is_a_typed_error_with_line() {
    let (dir, base) = written_benchmark("mangle");
    let clean = companion_text(&dir, base, "pl");
    // Cell `a` sits at center (10, 6) with size 4x12, so its written
    // lower-left x is 8.000000.
    let bad = clean.replacen("8.000000", "q7#", 1);
    assert_ne!(clean, bad);
    let err = parse_pl(&bad).unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("pl:"), "missing file context: {msg}");
    // The reader strips `#` comments, so the offending token surfaces as
    // `q7`.
    assert!(msg.contains("q7"), "missing offending token: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_record_detected_by_count_check() {
    let (dir, base) = written_benchmark("dup");
    let clean = companion_text(&dir, base, "nodes");
    let mut g = eplace_testkit::Gen::from_seed(11);
    // Duplicating any node line breaks either NumNodes or the duplicate-name
    // check during assembly; parse alone flags the count mismatch.
    let bad = apply_text_fault(&clean, TextFault::DuplicateLine, &mut g);
    let parsed = parse_nodes(&bad);
    if let Ok(f) = parsed {
        // A duplicated header/comment line can parse — then the full read
        // must still reject the stream or read it cleanly.
        assert!(f.nodes.len() >= 4);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_design_rejected_then_repaired() {
    // A NaN position parses with Rust's float parser but would poison the
    // analytic placer; the reader rejects it with file and line. Once the
    // file is repaired the design reads back, its single-pin net included
    // (wirelength, HPWL and the router all skip such nets).
    let dir = std::env::temp_dir().join(format!("eplace_corrupt_degen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("d.aux"),
        "RowBasedPlacement : d.nodes d.nets d.wts d.pl d.scl\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("d.nodes"),
        "NumNodes : 3\nNumTerminals : 0\na 4 12\nb 6 12\nc 4 12\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("d.nets"),
        "NumNets : 2\nNumPins : 3\nNetDegree : 2 n0\n b I : 0 0\n c O : 0 0\nNetDegree : 1 lonely\n a I : 0 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("d.wts"), "n0 1\nlonely 1\n").unwrap();
    std::fs::write(
        dir.join("d.scl"),
        "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 100\nEnd\n",
    )
    .unwrap();

    std::fs::write(dir.join("d.pl"), "a NaN 0 : N\nb 10 0 : N\nc 20 0 : N\n").unwrap();
    let err = read_aux(dir.join("d.aux")).unwrap_err();
    assert_eq!(
        err,
        EplaceError::parse("pl", 1, "expected number, got `NaN`"),
        "{err}"
    );

    std::fs::write(dir.join("d.pl"), "a 0 0 : N\nb 10 0 : N\nc 20 0 : N\n").unwrap();
    let design = read_aux(dir.join("d.aux")).unwrap();
    assert_eq!(design.nets.len(), 2);
    assert_eq!(design.nets[1].degree(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_companion_is_io_error_with_path() {
    let (dir, base) = written_benchmark("missing");
    std::fs::remove_file(dir.join(format!("{base}.nets"))).unwrap();
    let err = read_aux(dir.join(format!("{base}.aux"))).unwrap_err();
    match &err {
        EplaceError::Io { path, .. } => assert!(path.ends_with(".nets"), "{err}"),
        other => panic!("expected Io error, got {other}"),
    }
    assert!(err.to_string().contains(".nets"));
    std::fs::remove_dir_all(&dir).ok();
}
