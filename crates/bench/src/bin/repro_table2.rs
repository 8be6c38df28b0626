//! Reproduces **Table II**: scaled HPWL (`HPWL·(1+0.01·τ_avg)`) on the
//! ISPD-2006-like suite with contest density targets, plus the
//! density-overflow comparison row.
//!
//! Usage: `repro_table2 [--scale N] [--circuit NAME]`

use eplace_bench::{format_table, run_suite, table_suite, Metric};
use eplace_benchgen::BenchmarkSuite;
use eplace_core::EplaceConfig;

fn main() {
    let (scale, suite) = table_suite(150, BenchmarkSuite::ispd06);
    eprintln!(
        "Table II reproduction: {} circuits at base scale {scale}",
        suite.len()
    );
    let rows = run_suite(&suite, &EplaceConfig::fast());
    println!("\nTable II — scaled HPWL, ISPD-2006-like suite (lower is better)");
    println!("paper shape: ePlace best sHPWL and lowest overflow of the analytic placers\n");
    print!("{}", format_table(&rows, Metric::ScaledHpwl));
}
