//! Reproduces **Figure 3**: snapshots of mGP progression (W and O at
//! selected iterations, optionally with full position dumps for plotting).
//!
//! Usage: `repro_fig3 [--scale N] [--snapshots K]`

use eplace_bench::design_after_full_flow;
use eplace_bench::report::Args;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{EplaceConfig, Stage};

fn main() {
    let (scale, snapshots) = Args::from_env(&["scale", "snapshots"], |a| {
        Ok((a.value("scale", 400)?, a.value("snapshots", 6)?))
    });
    let config = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(scale);
    eprintln!("Figure 3 reproduction on {}", config.name);
    let (_, report) = design_after_full_flow(&config, &EplaceConfig::fast());
    let mgp: Vec<_> = report
        .trace
        .iter()
        .filter(|r| r.stage == Stage::Mgp)
        .collect();
    println!("snapshot,iteration,W,O,overflow");
    for s in 0..snapshots {
        let idx = if snapshots <= 1 {
            0
        } else {
            (s * (mgp.len() - 1)) / (snapshots - 1)
        };
        let r = mgp[idx];
        println!(
            "{s},{},{:.4e},{:.4e},{:.4}",
            r.iteration, r.hpwl, r.overlap, r.overflow
        );
    }
    eprintln!(
        "paper shape (Fig. 3a-f): W rises from the overlapped quadratic optimum while O falls by ~2x by the final iteration"
    );
}
