//! The `eplace-repro` binary's exit codes on its failure paths: an illegal
//! final placement and an out-of-range target density both exit 1 with a
//! named error on stderr, never 0 and never a panic's 101.

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
