//! Reproduces **Table III**: HPWL on the MMS-like mixed-size suite (movable
//! macros; the full mIP→mGP→mLG→cGP→cDP flow for ePlace, identical
//! mLG/cDP finish for the baselines).
//!
//! Usage: `repro_table3 [--scale N] [--circuit NAME]`

use eplace_bench::{format_table, run_suite, table_suite, Metric};
use eplace_benchgen::BenchmarkSuite;
use eplace_core::EplaceConfig;

fn main() {
    let (scale, suite) = table_suite(120, BenchmarkSuite::mms);
    eprintln!(
        "Table III reproduction: {} circuits at base scale {scale}",
        suite.len()
    );
    let rows = run_suite(&suite, &EplaceConfig::fast());
    println!("\nTable III — (scaled) HPWL, MMS-like mixed-size suite (lower is better)");
    println!("paper shape: ePlace best on most rows with ~1x runtime of the nonlinear family\n");
    print!("{}", format_table(&rows, Metric::Hpwl));
}
