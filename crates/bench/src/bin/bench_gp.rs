//! Reproducible global-placement hot-path benchmark.
//!
//! Runs the steady-state mGP iteration — Nesterov step, WA wirelength
//! gradient, density deposit + spectral Poisson solve — on benchgen suites
//! at four sizes (density grids 64, 128, 256 and 512, the last the grid a
//! 10⁵-object flow runs at). Per suite it warms up, then times `samples`
//! steps one by one and records their p10, median and p90 wall time, plus
//! the per-phase span breakdown from `eplace-obs` over exactly those steps
//! and the share of the step its child spans cover. A separate `transform`
//! record times one Poisson transform round (the analysis DCT-II and the
//! two field syntheses a solve runs) at grid 256 under both spectral
//! engines and reports the v2/v1 median speedup. The document is checked
//! (`eplace_bench::report::GP`) before it is written to `BENCH_gp.json` at
//! the repository root, so a zero exit status certifies a well-formed,
//! finite result — and the run fails (exit 1) when the engine-v2 transform
//! round is slower than v1 (speedup < 1.0).
//!
//! ```text
//! cargo run --release --bin bench_gp              # full 4-size sweep
//! cargo run --release --bin bench_gp -- --smoke   # smallest suite only (CI)
//! ```
//!
//! Flags: `--smoke` (the 1 000-cell suite only, which the committed file
//! does not hold: it is written only to `--out`), `--samples N` (timed
//! steps per suite and transform rounds per engine, default 100, so p10
//! and p90 each have 10 steps beyond them), `--threads N` (default 1, the
//! serial configuration the golden trace pins down; 0 means every core),
//! `--out PATH` (output path override).

use eplace_bench::report::{self, Args};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{
    initial_placement, insert_fillers, EplaceCost, NesterovOptimizer, PlacementProblem,
};
use eplace_density::grid_dimension;
use eplace_exec::ExecConfig;
use eplace_obs::json::parse_json;
use eplace_obs::{Obs, Record};
use eplace_spectral::{SpectralEngine, Transform2d};
use std::fmt::Write as _;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

const SUITE_SIZES: &[usize] = &[1_000, 4_000, 16_000, 48_000];
const WARMUP_STEPS: usize = 3;
/// Grid side for the engine-v1-vs-v2 transform-round comparison — the
/// production mGP grid size the spectral-engine-v2 speedup target is
/// quoted at.
const TRANSFORM_GRID: usize = 256;

/// Serializes a snapshot's spans as a JSON object keyed by span path.
/// Span paths are `'static` identifiers joined with `/`, so they need no
/// escaping; the final self-validation parse would catch a violation.
fn spans_to_json(obs: &Obs) -> String {
    let mut s = String::from("{");
    for (i, span) in obs.snapshot().spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mean_ns = span.total_ns as f64 / span.calls.max(1) as f64;
        let _ = write!(
            s,
            "\"{}\":{{\"calls\":{},\"total_ns\":{},\"mean_ns\":{mean_ns}}}",
            span.path, span.calls, span.total_ns
        );
    }
    s.push('}');
    s
}

/// The wall time of one call of `f`, in nanoseconds.
fn time_ns<R>(f: impl FnOnce() -> R) -> u64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as u64
}

/// The `q`-quantile of ascending `sorted` by nearest rank: index
/// `round(q·(n − 1))`, so the median of an even count is the upper middle.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

/// Benchmarks steady-state `step` calls on one suite size and returns the
/// suite's JSON object (as a raw string for [`Record::raw_field`]).
fn bench_suite(cells: usize, samples: usize, exec: ExecConfig) -> String {
    let mut design = BenchmarkConfig::ispd05_like("bench-gp", 42)
        .scale(cells)
        .generate();
    initial_placement(&mut design);
    insert_fillers(&mut design, 42);
    let problem = PlacementProblem::all_movables(&design);
    let dim = grid_dimension(problem.len(), 16, 512);
    let mut cost = EplaceCost::new(&design, &problem, dim, dim, true);
    cost.set_exec(exec);
    let pos = problem.positions(&design);
    cost.init_lambda(&pos);
    let perturb = 0.1 * cost.bin_width();
    let mut optimizer = NesterovOptimizer::new(pos, &mut cost, 0.95, 10, true, perturb);

    // Size every pooled buffer before timing or span collection starts.
    for _ in 0..WARMUP_STEPS {
        optimizer.step(&mut cost);
    }

    // Spans are collected over exactly the timed steps, so `mean_ns`
    // reflects steady state.
    let obs = Obs::metrics();
    cost.set_obs(obs.clone());
    optimizer.set_obs(obs.clone());
    let mut step_ns: Vec<u64> = (0..samples)
        .map(|_| time_ns(|| optimizer.step(&mut cost)))
        .collect();
    step_ns.sort_unstable();
    let [p10, median, p90] = [0.1, 0.5, 0.9].map(|q| quantile(&step_ns, q));

    let spans = spans_to_json(&obs);
    let coverage = parse_json(&spans)
        .map_err(|e| e.to_string())
        .and_then(|spans| report::step_coverage(&spans))
        .unwrap_or_else(|e| panic!("gp_step/{cells} spans: {e}"));
    println!(
        "gp_step/{cells}: p10 {p10} ns, median {median} ns, p90 {p90} ns; child spans cover {:.1} %",
        100.0 * coverage
    );
    Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("objects", problem.len() as u64)
        .u64_field("grid", dim as u64)
        .u64_field("samples", samples as u64)
        .u64_field("p10_step_ns", p10)
        .u64_field("median_step_ns", median)
        .u64_field("p90_step_ns", p90)
        .f64_field("step_coverage", coverage)
        .raw_field("spans", &spans)
        .into_line()
}

/// Benchmarks one Poisson-solve transform round (analysis DCT-II plus the
/// ξx and ξy syntheses) at `dim × dim` under both spectral engines and returns
/// the comparison as a JSON object. The `speedup` field is the engine-v2
/// gate: the file's check fails the run when it drops below 1.0.
///
/// v1 and v2 samples are interleaved (one of each per iteration) so that
/// slow machine drift — thermal throttling, a neighbour landing on the
/// core — hits both engines equally and cancels out of the ratio.
fn bench_transform(dim: usize, samples: usize, exec: ExecConfig) -> String {
    let data: Vec<f64> = (0..dim * dim)
        .map(|i| ((i * 7 % 13) as f64) - 6.0)
        .collect();
    let engine = |kind: SpectralEngine| {
        Transform2d::new(dim, dim)
            .unwrap_or_else(|e| panic!("{e}"))
            .with_exec(exec)
            .with_engine(kind)
    };
    let mut v1 = engine(SpectralEngine::V1);
    let mut v2 = engine(SpectralEngine::V2);
    let round = |t: &mut Transform2d, data: &[f64]| {
        let mut a = data.to_vec();
        t.dct2(&mut a);
        let mut fx = a.clone();
        t.dst3_x(&mut fx);
        let mut fy = a;
        t.dst3_y(&mut fy);
        (fx, fy)
    };
    // Warm up both engines (plan caches, scratch pools, branch predictors)
    // before any timed sample.
    black_box(round(&mut v1, &data));
    black_box(round(&mut v2, &data));
    let mut v1_ns = Vec::with_capacity(samples);
    let mut v2_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        v1_ns.push(time_ns(|| round(&mut v1, &data)));
        v2_ns.push(time_ns(|| round(&mut v2, &data)));
    }
    let median = |ns: &mut Vec<u64>| {
        ns.sort_unstable();
        quantile(ns, 0.5)
    };
    let v1_median = median(&mut v1_ns);
    let v2_median = median(&mut v2_ns);
    let speedup = v1_median as f64 / v2_median.max(1) as f64;
    eprintln!(
        "transform_round/{dim}x{dim}: v1 {:.1} µs, v2 {:.1} µs, speedup {speedup:.2}x",
        v1_median as f64 / 1e3,
        v2_median as f64 / 1e3,
    );
    Record::new("transform")
        .u64_field("grid", dim as u64)
        .u64_field("samples", samples as u64)
        .u64_field("v1_median_ns", v1_median)
        .u64_field("v2_median_ns", v2_median)
        .f64_field("speedup", speedup)
        .into_line()
}

fn main() {
    let keys = ["smoke", "samples", "threads", "out"];
    let (smoke, samples, exec, out) = Args::from_env(&keys, |a| {
        let samples = a.optional::<NonZeroUsize>("samples")?;
        Ok((
            a.switch("smoke")?,
            samples.map_or(100, NonZeroUsize::get),
            ExecConfig::with_threads(a.value("threads", 1)?),
            a.optional::<String>("out")?,
        ))
    });
    let sizes = if smoke {
        &SUITE_SIZES[..1]
    } else {
        SUITE_SIZES
    };

    println!(
        "bench_gp: {} suite(s), {samples} samples each, threads={}",
        sizes.len(),
        exec.threads()
    );
    let suites: Vec<String> = sizes
        .iter()
        .map(|&cells| bench_suite(cells, samples, exec))
        .collect();
    let transform = bench_transform(TRANSFORM_GRID, samples, exec);
    let head = Record::new(report::GP.bin)
        .str_field("suite_family", "ispd05_like")
        .u64_field("threads", exec.threads() as u64)
        .u64_field("warmup_steps", WARMUP_STEPS as u64)
        .bool_field("smoke", smoke)
        .raw_field("transform", &transform);
    report::emit(&report::GP, head, &suites, smoke, out);
}
