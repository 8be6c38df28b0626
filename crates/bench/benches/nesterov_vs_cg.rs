//! The §V-A head-to-head: ePlace's Nesterov global placement versus the
//! same eDensity cost driven by CG with line search (the FFTPL baseline).
//! The paper's claims: Nesterov converges with one gradient per iteration
//! while line search consumes >60 % of CG's runtime.

use eplace_baselines::{CgPlacer, GlobalPlacer};
use eplace_bench::timing::bench;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{
    initial_placement, insert_fillers, run_global_placement, EplaceConfig, PlacementProblem, Stage,
};

const CELLS: usize = 800;

fn main() {
    println!("global_placement");
    bench("nesterov_eplace", 10, || {
        let mut d = BenchmarkConfig::ispd05_like("vs", 9)
            .scale(CELLS)
            .generate();
        initial_placement(&mut d);
        insert_fillers(&mut d, 9);
        let problem = PlacementProblem::all_movables(&d);
        let mut trace = Vec::new();
        run_global_placement(
            &mut d,
            &problem,
            &EplaceConfig::fast(),
            Stage::Mgp,
            None,
            None,
            &mut trace,
        )
        .expect("placement diverged beyond recovery")
    });
    bench("cg_line_search_fftpl", 10, || {
        let mut d = BenchmarkConfig::ispd05_like("vs", 9)
            .scale(CELLS)
            .generate();
        CgPlacer.global_place(&mut d)
    });

    // One-shot line-search share report (the >60 % claim).
    let mut d = BenchmarkConfig::ispd05_like("vs", 9)
        .scale(CELLS)
        .generate();
    let r = CgPlacer.global_place(&mut d);
    eprintln!(
        "CG line-search share: {:.1}% of {:.2}s (paper: >60% of FFTPL runtime)",
        100.0 * r.line_search_seconds / r.seconds.max(1e-9),
        r.seconds
    );
}
