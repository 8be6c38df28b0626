//! Flow scaling: one `ispd05_like` flow (the CLI demo's circuit family and
//! seed) at each of 10⁴, 4·10⁴ and 10⁵ cells with `EplaceConfig::default()`,
//! recorded under `Obs::metrics()` into `BENCH_scale.json` at the repository
//! root.
//!
//! Per size it records the wall time of `Placer::run`, the seconds of every
//! stage, the `flow/cdp/global_swap`, `flow/cdp/legalize_abacus` and
//! `flow/cdp/detail_place` spans, why mGP stopped and after how many
//! iterations, the legal HPWL, and the process's peak resident set size
//! (`VmHWM`). The sizes run in ascending order in one process, so each
//! size's peak RSS is the high-water mark of the largest flow so far. The
//! document also records `global_swap`'s growth between the two largest
//! sizes: its time ratio beside their cell ratio.
//!
//! The file is re-parsed before the program exits 0, and every recorded
//! number is checked (`eplace_bench::report::SCALE`).
//!
//! ```text
//! cargo run --release -p eplace-bench --bin bench_scale              # full run, a few minutes
//! cargo run --release -p eplace-bench --bin bench_scale -- --smoke   # 1 000 and 2 000 cells (CI)
//! ```
//!
//! Flags: `--smoke` (the two small sizes), `--out PATH` (output path
//! override).

use eplace_bench::report::{self, Args};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{EplaceConfig, Placer};
use eplace_obs::{Obs, Record};
use std::time::Instant;

const SIZES: &[usize] = &[10_000, 40_000, 100_000];
const SMOKE_SIZES: &[usize] = &[1_000, 2_000];
const SEED: u64 = 42;
/// The cDP spans recorded per size, under `flow/cdp/`.
const CDP_SPANS: [&str; 3] = ["global_swap", "legalize_abacus", "detail_place"];

/// One size's record, and its `global_swap` seconds.
fn run_size(cells: usize) -> (String, f64) {
    let design = BenchmarkConfig::ispd05_like("scale", SEED)
        .scale(cells)
        .generate();
    let objects = design.cells.len();
    let cfg = EplaceConfig {
        obs: Obs::metrics(),
        ..EplaceConfig::default()
    };
    let obs = cfg.obs.clone();
    let t = Instant::now();
    let report = Placer::new(design, cfg)
        .run()
        .expect("the ePlace flow failed on a scale suite");
    let flow_seconds = t.elapsed().as_secs_f64();

    let mut stages: Vec<(&str, f64)> = Vec::new();
    for timing in &report.stage_timings {
        match stages
            .iter_mut()
            .find(|(key, _)| *key == timing.stage.key())
        {
            Some((_, seconds)) => *seconds += timing.seconds,
            None => stages.push((timing.stage.key(), timing.seconds)),
        }
    }
    let snapshot = obs.snapshot();
    let span = |name: &str| {
        snapshot
            .span(&format!("flow/cdp/{name}"))
            .map_or(f64::NAN, |s| s.seconds())
    };
    let spans: Vec<(&str, f64)> = CDP_SPANS.iter().map(|&name| (name, span(name))).collect();
    let record = Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("objects", objects as u64)
        .f64_field("flow_seconds", flow_seconds)
        .raw_field("stage_seconds", &json_object(&stages))
        .raw_field("span_seconds", &json_object(&spans))
        .str_field("mgp_stop", report.mgp_stop.key())
        .u64_field("mgp_iterations", report.mgp_iterations as u64)
        .bool_field("legal", report.legalization.is_some())
        .f64_field("legal_hpwl", report.final_hpwl)
        .f64_field("peak_rss_mib", peak_rss_mib())
        .into_line();
    (record, span("global_swap"))
}

/// `{"key":value,…}`, with non-finite values as `null`.
fn json_object(fields: &[(&str, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, v)| match v.is_finite() {
            true => format!("\"{key}\":{v}"),
            false => format!("\"{key}\":null"),
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident set size of this process (`VmHWM`), in MiB; NaN when
/// `/proc/self/status` cannot be read.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() {
    let (smoke, out) = Args::from_env(&["smoke", "out"], |a| {
        Ok((a.switch("smoke")?, a.optional::<String>("out")?))
    });
    let sizes = if smoke { SMOKE_SIZES } else { SIZES };
    println!("bench_scale: {} size(s), seed {SEED}", sizes.len());
    let mut suites = Vec::new();
    let mut swap_seconds = Vec::new();
    for &cells in sizes {
        let (suite, swap) = run_size(cells);
        println!("  cells={cells} done: global_swap {swap:.3} s");
        suites.push(suite);
        swap_seconds.push(swap);
    }
    // Both size lists hold two sizes or more.
    let n = sizes.len();
    let growth = json_object(&[
        ("from_cells", sizes[n - 2] as f64),
        ("to_cells", sizes[n - 1] as f64),
        ("seconds_ratio", swap_seconds[n - 1] / swap_seconds[n - 2]),
    ]);
    let head = Record::new(report::SCALE.bin)
        .str_field("suite_family", "ispd05_like")
        .u64_field("seed", SEED)
        .bool_field("smoke", smoke)
        .raw_field("global_swap_growth", &growth);
    report::emit(&report::SCALE, head, &suites, out);
}
