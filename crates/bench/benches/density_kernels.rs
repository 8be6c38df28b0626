//! Timings of the per-iteration mGP kernels — charge deposit + Poisson
//! solve (57 % of mGP in Fig. 7) and the WA wirelength gradient (29 %) —
//! each in its serial form and under the deterministic parallel execution
//! layer, with the speedup reported per kernel.
//!
//! Thread count comes from `EPLACE_BENCH_THREADS` (default: all hardware
//! threads). On a single-core host the parallel variants measure pure
//! chunking/spawn overhead, so expect speedups ≤ 1 there.

use eplace_bench::report::bench_exec;
use eplace_bench::timing::{bench, report_speedup};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::PlacementProblem;
use eplace_density::{grid_dimension, DensityGrid};
use eplace_exec::ExecConfig;
use eplace_geometry::Point;
use eplace_wirelength::{SmoothWirelength, WaModel};
use std::hint::black_box;

fn bench_density_solve(exec: ExecConfig) {
    println!("density_deposit_solve");
    for &cells in &[1_000usize, 4_000, 16_000] {
        let design = BenchmarkConfig::ispd05_like("bench", 7)
            .scale(cells)
            .generate();
        let problem = PlacementProblem::all_movables(&design);
        let dim = grid_dimension(problem.len(), 16, 512);
        let mut grid = DensityGrid::new(design.region, dim, dim, 1.0);
        for cell in design.cells.iter().filter(|c| c.fixed) {
            grid.add_fixed(cell.rect());
        }
        let pos = problem.positions(&design);
        let mut run = |label: &str, exec: ExecConfig| {
            grid.set_exec(exec);
            bench(&format!("{label}/{cells}"), 20, || {
                grid.deposit(black_box(&problem.objects), black_box(&pos));
                grid.solve();
                grid.overflow()
            })
        };
        let serial = run("serial", ExecConfig::serial());
        let parallel = run(&format!("threads={}", exec.threads()), exec);
        report_speedup(&format!("density/{cells}"), &serial, &parallel);
    }
}

fn bench_wa_gradient(exec: ExecConfig) {
    println!("wa_gradient");
    for &cells in &[1_000usize, 4_000, 16_000] {
        let design = BenchmarkConfig::ispd05_like("bench", 8)
            .scale(cells)
            .generate();
        let mut wa = WaModel::new(&design);
        let pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let mut grad = vec![Point::ORIGIN; pos.len()];
        let mut run = |label: &str, exec: ExecConfig, wa: &mut WaModel| {
            wa.set_exec(exec);
            bench(&format!("{label}/{cells}"), 20, || {
                wa.gradient(black_box(&design), black_box(&pos), 10.0, &mut grad)
            })
        };
        let serial = run("serial", ExecConfig::serial(), &mut wa);
        let parallel = run(&format!("threads={}", exec.threads()), exec, &mut wa);
        report_speedup(&format!("wa_gradient/{cells}"), &serial, &parallel);
    }
}

fn main() {
    let exec = bench_exec(ExecConfig::auto());
    bench_density_solve(exec);
    bench_wa_gradient(exec);
}
