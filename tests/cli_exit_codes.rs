//! The `eplace-repro` binary's exit codes on its failure paths: an illegal
//! final placement, an out-of-range target density and a Bookshelf input
//! the reader rejects all exit 1 with a named error on stderr, never 0 and
//! never a panic's 101.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::bookshelf::write_aux;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn eplace_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eplace-repro"))
        .args(args)
        .output()
        .expect("eplace-repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn illegal_placement_exits_nonzero_and_writes_no_pl() {
    // The seed-42 demo at 200 cells is one neither Abacus nor the Tetris
    // fallback can legalize.
    let dir = std::env::temp_dir().join(format!("eplace_cli_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pl = dir.join("demo200.pl");
    let out = eplace_repro(&["--fast", "--demo", "200", "--out", pl.to_str().unwrap()]);
    let err = stderr(&out);
    assert!(!out.status.success(), "exit {:?}: {err}", out.status.code());
    assert!(
        err.contains("error: legalization failed: cannot legalize"),
        "stderr must name the legalizer's error: {err}"
    );
    assert!(!pl.exists(), "an illegal placement must not be written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legal_placement_exits_zero() {
    let out = eplace_repro(&["--fast", "--demo", "300"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn out_of_range_rho_is_an_error_not_a_panic() {
    let out = eplace_repro(&["--fast", "--demo", "300", "--rho", "1.5"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let failed = err
        .find("error: placement failed:")
        .unwrap_or_else(|| panic!("no placement error on stderr: {err}"));
    assert!(
        err[failed..].contains("target density must be in (0, 1], got 1.5"),
        "{err}"
    );
}

/// Writes the seed-42 300-cell `ispd05_like` design as a Bookshelf
/// benchmark in a fresh directory, lets `edit` rewrite the lines of its
/// `.{ext}` file and returns the `.aux` path.
fn edited_benchmark(ext: &str, edit: impl FnOnce(&mut Vec<String>)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eplace_cli_{ext}_{}", std::process::id()));
    let design = BenchmarkConfig::ispd05_like("bad", 42)
        .scale(300)
        .generate();
    let aux = write_aux(&design, &dir, "bad").unwrap();
    let path = dir.join(format!("bad.{ext}"));
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    edit(&mut lines);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    aux
}

/// Index of the first record line: not the banner, a comment, a blank or
/// a `Key : value` header.
fn first_record(lines: &[String]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim();
            !(t.is_empty() || t.starts_with('#') || t.starts_with("UCLA") || t.contains(':'))
        })
        .expect("a record line")
}

/// Places `aux` under a 2 GB address-space limit, so an input that drives
/// an unbounded allocation aborts in seconds instead of exhausting the
/// machine, and returns the `error:` lines of stderr after checking the
/// exit code is 1.
fn rejected(aux: &Path) -> String {
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 2000000; exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_eplace-repro"))
        .args(["--aux", aux.to_str().unwrap(), "--fast"])
        .output()
        .expect("sh runs");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let _ = std::fs::remove_dir_all(aux.parent().unwrap());
    let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error: ")).collect();
    errors.join("\n")
}

#[test]
fn zero_height_rows_are_rejected_with_the_row() {
    let aux = edited_benchmark("scl", |lines| {
        for line in lines.iter_mut() {
            if line.trim_start().starts_with("Height :") {
                *line = " Height : 0".to_string();
            }
        }
    });
    let err = rejected(&aux);
    assert!(
        err.contains("error: invalid design: row 0 has height 0 and site width"),
        "{err}"
    );
}

#[test]
fn negative_net_weight_is_rejected_with_the_net() {
    let aux = edited_benchmark("wts", |lines| {
        let i = first_record(lines);
        let name = lines[i].split_whitespace().next().unwrap().to_string();
        lines[i] = format!("{name} -1000");
    });
    let err = rejected(&aux);
    assert!(err.starts_with("error: invalid design: net 0 ("), "{err}");
    assert!(err.ends_with(") has weight -1000"), "{err}");
}

#[test]
fn nan_cell_width_is_a_parse_error_with_file_and_line() {
    let mut line_no = 0;
    let aux = edited_benchmark("nodes", |lines| {
        let i = first_record(lines);
        let mut toks: Vec<&str> = lines[i].split_whitespace().collect();
        toks[1] = "nan";
        lines[i] = toks.join("\t");
        line_no = i + 1;
    });
    let err = rejected(&aux);
    assert_eq!(
        err,
        format!("error: nodes:{line_no}: expected number, got `nan`")
    );
}
