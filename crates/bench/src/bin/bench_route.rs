//! Routability scorecard on congested synthetic suites.
//!
//! Runs the full ePlace flow on ispd05-like designs under a scarce routing
//! model (half the nominal track capacity) twice per suite: once with the
//! router only (`max_rounds = 0` — score the converged placement as-is) and
//! once with the congestion-driven inflation loop enabled. Records routed
//! wirelength, total overflow, peak congestion, the overflow reduction the
//! inflation bought, and the HPWL it cost into `BENCH_route.json` at the
//! repository root.
//!
//! The file is re-parsed before the program exits 0, and the recorded
//! invariants are re-checked (`eplace_bench::report::ROUTE`): every score
//! finite, routed wirelength positive, overflow non-negative, the
//! with-inflation overflow never above the without-inflation overflow (the
//! loop only accepts improving rounds), and the HPWL cost within the
//! configured budget. A zero exit status therefore certifies a
//! well-formed, self-consistent result.
//!
//! ```text
//! cargo run --release -p eplace-bench --bin bench_route             # full sweep
//! cargo run --release -p eplace-bench --bin bench_route -- --smoke  # drift check (CI)
//! ```
//!
//! Flags: `--smoke` (the smallest size and one seed, checked against the
//! committed file like `repro --smoke`: never written), `--seeds N` (seeds
//! per size, default 3), `--out PATH` (the file to write or, with
//! `--smoke`, to check against).

use eplace_bench::report::{self, Args};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{EplaceConfig, Placer, RoutabilityConfig, RoutabilityOutcome};
use eplace_obs::Record;
use eplace_route::RouteConfig;
use std::num::NonZeroU64;
use std::time::Instant;

const SUITE_SIZES: &[usize] = &[240, 300, 400];
const BASE_SEED: u64 = 91;
/// Track-capacity fraction of the scarce routing model the sweep scores.
const CAPACITY_SCALE: f64 = 0.5;

fn routability_config(max_rounds: usize) -> RoutabilityConfig {
    RoutabilityConfig {
        route: RouteConfig {
            capacity_scale: CAPACITY_SCALE,
            ..RouteConfig::default()
        },
        max_rounds,
    }
}

fn run_flow(cells: usize, seed: u64, max_rounds: usize) -> (RoutabilityOutcome, f64, f64) {
    let design = BenchmarkConfig::ispd05_like("bench_route", seed)
        .scale(cells)
        .generate();
    let cfg = EplaceConfig {
        routability: Some(routability_config(max_rounds)),
        ..EplaceConfig::fast()
    };
    let t = Instant::now();
    let mut placer = Placer::new(design, cfg);
    let report = placer.run().expect("ePlace flow failed on a routed suite");
    let out = report
        .routability
        .expect("routability mode was on but reported nothing");
    (out, report.final_hpwl, t.elapsed().as_secs_f64())
}

/// One arm's JSON fragment: the routed scorecard plus the flow HPWL.
fn arm_json(name: &str, out: &RoutabilityOutcome, hpwl: f64, seconds: f64) -> String {
    format!(
        "\"{name}\":{{\"routed_wl\":{},\"total_overflow\":{},\"peak_congestion\":{},\
         \"overflowed_bins\":{},\"rounds\":{},\"inflated_cells\":{},\"hpwl\":{hpwl},\
         \"hpwl_cost\":{},\"seconds\":{seconds}}}",
        out.final_report.routed_wl,
        out.final_report.total_overflow,
        out.final_report.peak_congestion,
        out.final_report.overflowed_bins,
        out.rounds,
        out.inflated_cells,
        out.hpwl_cost(),
    )
}

fn bench_suite(cells: usize, seed: u64) -> String {
    let (without, hpwl_without, secs_without) = run_flow(cells, seed, 0);
    let (with, hpwl_with, secs_with) =
        run_flow(cells, seed, RoutabilityConfig::default().max_rounds);
    let reduction = with.overflow_reduction();
    let fragments = [
        arm_json("without_inflation", &without, hpwl_without, secs_without),
        arm_json("with_inflation", &with, hpwl_with, secs_with),
    ];
    Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("seed", seed)
        .f64_field("overflow_reduction", reduction)
        .raw_field("arms", &format!("{{{}}}", fragments.join(",")))
        .into_line()
}

fn main() {
    let (smoke, seeds, out) = Args::from_env(&["smoke", "seeds", "out"], |a| {
        let seeds = a
            .optional::<NonZeroU64>("seeds")?
            .map_or(3, NonZeroU64::get);
        Ok((a.switch("smoke")?, seeds, a.optional("out")?))
    });
    let sizes = if smoke {
        &SUITE_SIZES[..1]
    } else {
        SUITE_SIZES
    };
    let seeds = if smoke { 1 } else { seeds };

    println!("bench_route: {} size(s) x {seeds} seed(s)", sizes.len());
    let mut suites = Vec::new();
    for &cells in sizes {
        for seed in BASE_SEED..BASE_SEED + seeds {
            suites.push(bench_suite(cells, seed));
            println!("  cells={cells} seed={seed} done");
        }
    }
    let head = Record::new(report::ROUTE.bin)
        .str_field("suite_family", "ispd05_like")
        .f64_field("capacity_scale", CAPACITY_SCALE)
        .u64_field("seeds_per_size", seeds);
    report::emit(&report::ROUTE, head, &suites, smoke, out);
}
