//! Reproduces **Figure 6**: standard cells + fillers before/after cGP —
//! W and O entering and leaving the second global placement.
//!
//! Usage: `repro_fig6 [--scale N]`

use eplace_bench::design_after_full_flow;
use eplace_bench::report::Args;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{EplaceConfig, Stage};

fn main() {
    let scale = Args::from_env(&["scale"], |a| a.value("scale", 400));
    let config = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(scale);
    eprintln!("Figure 6 reproduction on {}", config.name);
    let (_, report) = design_after_full_flow(&config, &EplaceConfig::fast());
    let cgp: Vec<_> = report
        .trace
        .iter()
        .filter(|r| r.stage == Stage::Cgp)
        .collect();
    let first = cgp.first().expect("cGP ran");
    let last = cgp.last().expect("cGP ran");
    println!("phase,iteration,W,O,overflow");
    println!(
        "before,{},{:.4e},{:.4e},{:.4}",
        first.iteration, first.hpwl, first.overlap, first.overflow
    );
    println!(
        "after,{},{:.4e},{:.4e},{:.4}",
        last.iteration, last.hpwl, last.overlap, last.overflow
    );
    eprintln!(
        "paper shape (Fig. 6, ADAPTEC1): W 64.36e6 -> 63.04e6 (net improvement), overlap roughly level then resolved"
    );
}
