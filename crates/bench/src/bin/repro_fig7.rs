//! Reproduces **Figure 7**: the runtime breakdown of the flow — outer ring
//! (mIP/mGP/mLG/cGP/cDP shares) and the mGP-internal split (density /
//! wirelength / other; paper: 57 % / 29 % / 14 %).
//!
//! Usage: `repro_fig7 [--scale N] [--circuits K]`

use eplace_bench::{design_after_full_flow, parse_args};
use eplace_benchgen::BenchmarkSuite;
use eplace_core::{EplaceConfig, Stage};

fn main() {
    let (scale, _, extra) = parse_args(150);
    let take: usize = extra
        .iter()
        .find(|(k, _)| k == "circuits")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(4);
    let suite: Vec<_> = BenchmarkSuite::mms(scale).into_iter().take(take).collect();
    eprintln!(
        "Figure 7 reproduction over {} MMS-like circuits",
        suite.len()
    );
    let cfg = EplaceConfig::fast();
    let mut stage_totals: Vec<(Stage, f64)> = vec![
        (Stage::Mip, 0.0),
        (Stage::Mgp, 0.0),
        (Stage::Mlg, 0.0),
        (Stage::FillerOnly, 0.0),
        (Stage::Cgp, 0.0),
        (Stage::Cdp, 0.0),
    ];
    let mut density = 0.0;
    let mut wirelength = 0.0;
    let mut other = 0.0;
    for config in &suite {
        eprintln!("  {} ...", config.name);
        let (_, report) = design_after_full_flow(config, &cfg);
        for (stage, acc) in stage_totals.iter_mut() {
            *acc += report.stage_seconds(*stage);
        }
        density += report.mgp_profile.density_seconds;
        wirelength += report.mgp_profile.wirelength_seconds;
        other += report.mgp_profile.other_seconds;
    }
    let total: f64 = stage_totals.iter().map(|(_, s)| s).sum();
    println!("stage,seconds,share_pct");
    for (stage, s) in &stage_totals {
        println!("{stage},{s:.3},{:.1}", 100.0 * s / total.max(1e-12));
    }
    let mgp_total = (density + wirelength + other).max(1e-12);
    println!(
        "mgp_density,{density:.3},{:.1}",
        100.0 * density / mgp_total
    );
    println!(
        "mgp_wirelength,{wirelength:.3},{:.1}",
        100.0 * wirelength / mgp_total
    );
    println!("mgp_other,{other:.3},{:.1}", 100.0 * other / mgp_total);
    eprintln!(
        "paper shape: mGP dominates the flow; inside mGP density 57% / wirelength 29% / other 14%"
    );
}
