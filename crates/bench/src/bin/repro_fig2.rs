//! Reproduces **Figure 2**: total HPWL and object overlap versus iteration
//! across the mGP → mLG → cGP stages of the flow on an MMS-like ADAPTEC1.
//! Emits the full per-iteration CSV on stdout.
//!
//! Usage: `repro_fig2 [--scale N]`

use eplace_bench::design_after_full_flow;
use eplace_bench::report::Args;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{trace_to_csv, EplaceConfig, Stage};

fn main() {
    let scale = Args::from_env(&["scale"], |a| a.value("scale", 400));
    let config = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(scale);
    eprintln!("Figure 2 reproduction on {} ({} cells)", config.name, scale);
    let (_, report) = design_after_full_flow(&config, &EplaceConfig::fast());
    print!("{}", trace_to_csv(&report.trace));
    // Stage summary (the figure's annotated phases).
    for stage in [Stage::Mgp, Stage::FillerOnly, Stage::Cgp] {
        let recs: Vec<_> = report.trace.iter().filter(|r| r.stage == stage).collect();
        if let (Some(first), Some(last)) = (recs.first(), recs.last()) {
            eprintln!(
                "{stage}: {} iters, HPWL {:.4e} -> {:.4e}, overlap {:.4e} -> {:.4e}",
                recs.len(),
                first.hpwl,
                last.hpwl,
                first.overlap,
                last.overlap
            );
        }
    }
    eprintln!(
        "paper shape: overlap falls monotonically through mGP; cGP briefly trades overlap for wirelength, then re-converges"
    );
}
