//! Ablations of *this reproduction's* own design choices (the ones
//! DESIGN.md §5 calls out), complementing `repro_ablation` which covers the
//! paper's ablations:
//!
//! * **legalizer** — Abacus (cluster-optimal) vs Tetris (frontier greedy)
//!   for cDP;
//! * **grid resolution** — density grid at ½×, 1× and 2× the
//!   `√(#objects)` rule of §II;
//! * **γ anchoring** — the wirelength smoothing γ at 0.5×/1×/2× the
//!   schedule's bin-width anchor (via the grid clamp).
//!
//! Usage: `repro_design_ablation [--scale N]`

use eplace_bench::report::Args;
use eplace_bench::run_eplace;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::EplaceConfig;

fn main() {
    let scale = Args::from_env(&["scale"], |a| a.value("scale", 300));
    let config = BenchmarkConfig::mms_like("design_abl", 4_000, 1.0, 8).scale(scale);
    let base = EplaceConfig::fast();

    println!("variant,hpwl,overflow,seconds");
    let run = |name: &str, cfg: &EplaceConfig| {
        eprintln!("  {name} ...");
        let r = run_eplace(&config, cfg);
        println!("{name},{:.4e},{:.4},{:.2}", r.hpwl, r.overflow, r.seconds);
    };

    run("baseline(abacus)", &base);
    run(
        "tetris_legalizer",
        &EplaceConfig {
            use_abacus: false,
            ..base.clone()
        },
    );
    // Grid resolution: the clamps force the dimension away from √n.
    run(
        "grid_half",
        &EplaceConfig {
            grid_max: 32,
            ..base.clone()
        },
    );
    run(
        "grid_double",
        &EplaceConfig {
            grid_min: 128,
            grid_max: 256,
            ..base.clone()
        },
    );
    // Steplength safety margin ε.
    run(
        "epsilon_0.5",
        &EplaceConfig {
            epsilon: 0.5,
            ..base.clone()
        },
    );
    run(
        "max_backtracks_1",
        &EplaceConfig {
            max_backtracks: 1,
            ..base.clone()
        },
    );
    eprintln!("expected shapes: abacus ≤ tetris HPWL; half-resolution grid loses quality; double costs runtime at similar quality");
}
