//! Timings of the spectral substrate: the FFT/DCT kernels whose O(n log n)
//! scaling underwrites the paper's density-solve complexity claim (§IV),
//! plus the 2-D transform round in serial and row/column-parallel form.
//!
//! Thread count comes from `EPLACE_BENCH_THREADS` (default: all hardware
//! threads). On a single-core host the parallel variant measures pure
//! spawn/partition overhead, so expect speedups ≤ 1 there.

use eplace_bench::report::bench_exec;
use eplace_bench::timing::{bench, report_speedup};
use eplace_exec::ExecConfig;
use eplace_spectral::{Complex, DctPlan, DctScratch, FftPlan, SpectralEngine, Transform2d};
use std::hint::black_box;

fn bench_fft() {
    println!("fft_forward");
    for &n in &[256usize, 1024, 4096] {
        let plan = FftPlan::new(n).unwrap();
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        bench(&format!("fft_forward/{n}"), 50, || {
            let mut buf = data.clone();
            plan.forward(black_box(&mut buf));
            buf
        });
    }
}

fn bench_dct() {
    println!("dct2");
    for &n in &[256usize, 1024] {
        let plan = DctPlan::new(n).unwrap();
        let mut scratch = DctScratch::new(n);
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        bench(&format!("dct2/{n}"), 50, || {
            let mut line = data.clone();
            plan.dct2_strided(black_box(&mut line), 0, 1, &mut scratch);
            line
        });
    }
}

fn bench_transform2d() {
    let exec = bench_exec(ExecConfig::auto());
    println!("poisson_transform_round");
    for &n in &[64usize, 128, 256, 512] {
        let data: Vec<f64> = (0..n * n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let run = |label: &str, exec: ExecConfig, engine: SpectralEngine| {
            let mut t = Transform2d::new(n, n)
                .unwrap_or_else(|e| panic!("{e}"))
                .with_exec(exec)
                .with_engine(engine);
            bench(&format!("{label}/{n}x{n}"), 20, || {
                // One density-solve's worth of transforms: analysis + the
                // two field syntheses.
                let mut a = data.clone();
                t.dct2(&mut a);
                let mut fx = a.clone();
                t.dst3_x(&mut fx);
                let mut fy = a;
                t.dst3_y(&mut fy);
                (fx, fy)
            })
        };
        let serial = run("serial", ExecConfig::serial(), SpectralEngine::V1);
        let parallel = run(
            &format!("threads={}", exec.threads()),
            exec,
            SpectralEngine::V1,
        );
        report_speedup(&format!("transform_round/{n}x{n}"), &serial, &parallel);
        let serial_v2 = run("serial-v2", ExecConfig::serial(), SpectralEngine::V2);
        report_speedup(&format!("engine_v2_serial/{n}x{n}"), &serial, &serial_v2);
        let parallel_v2 = run(
            &format!("threads={}-v2", exec.threads()),
            exec,
            SpectralEngine::V2,
        );
        report_speedup(
            &format!("engine_v2_parallel/{n}x{n}"),
            &parallel,
            &parallel_v2,
        );
    }
}

fn main() {
    bench_fft();
    bench_dct();
    bench_transform2d();
}
