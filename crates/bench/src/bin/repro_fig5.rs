//! Reproduces **Figure 5**: macro distribution before/after mLG — the
//! (W, D, O_m) triple with O_m = 0 after legalization.
//!
//! Usage: `repro_fig5 [--scale N]`

use eplace_bench::design_after_full_flow;
use eplace_bench::report::Args;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::EplaceConfig;

fn main() {
    let scale = Args::from_env(&["scale"], |a| a.value("scale", 400));
    let config = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(scale);
    eprintln!("Figure 5 reproduction on {}", config.name);
    let (_, report) = design_after_full_flow(&config, &EplaceConfig::fast());
    let mlg = report.mlg.expect("mixed-size flow runs mLG");
    println!("phase,W,D,Om");
    println!(
        "before,{:.4e},{:.4e},{:.4e}",
        mlg.wirelength_before, mlg.coverage_before, mlg.macro_overlap_before
    );
    println!(
        "after,{:.4e},{:.4e},{:.4e}",
        mlg.wirelength_after, mlg.coverage_after, mlg.macro_overlap_after
    );
    println!(
        "legalized,{},outer_iterations,{},accept_rate,{:.3}",
        mlg.legalized,
        mlg.outer_iterations,
        mlg.moves_accepted as f64 / mlg.moves_attempted.max(1) as f64
    );
    eprintln!("paper shape (Fig. 5, ADAPTEC1): W 63.37e6 -> 64.36e6 (small rise), O_m 6.1e5 -> 0");
}
