//! Reproduces **Table I**: HPWL on the ISPD-2005-like suite (std-cell only,
//! ρ_t = 1.0; mLG/cGP disabled automatically because macros are fixed).
//!
//! Usage: `repro_table1 [--scale N] [--circuit NAME]`

use eplace_bench::{format_table, run_suite, table_suite, Metric};
use eplace_benchgen::BenchmarkSuite;
use eplace_core::EplaceConfig;

fn main() {
    let (scale, suite) = table_suite(150, BenchmarkSuite::ispd05);
    eprintln!(
        "Table I reproduction: {} circuits at base scale {scale}",
        suite.len()
    );
    let rows = run_suite(&suite, &EplaceConfig::fast());
    println!("\nTable I — HPWL, ISPD-2005-like suite (lower is better)");
    println!("paper shape: ePlace best on all rows; quadratic ~3-5% worse; mincut worst\n");
    print!("{}", format_table(&rows, Metric::Hpwl));
}
