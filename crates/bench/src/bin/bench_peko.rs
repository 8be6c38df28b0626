//! Absolute-suboptimality benchmark on PEKO-style known-optima suites.
//!
//! Every other quality number in this repo is relative (ePlace vs. a
//! baseline on a netlist whose optimum nobody knows). This harness runs
//! each placer on `BenchmarkConfig::peko_like` designs, whose construction
//! carries a `KnownOptimum` certificate, and records the **absolute**
//! suboptimality ratio `final legal HPWL / certified optimal HPWL` per
//! placer and suite size into `BENCH_peko.json` at the repository root.
//!
//! Every placer gets the identical downstream treatment (the ePlace flow's
//! own discrete finish, `eplace_bench::paper::place_baseline`), so the
//! ratios compare global-placement quality on equal footing.
//!
//! The file is re-parsed before the program exits 0, and every recorded
//! ratio is checked to be finite and ≥ 1 (a "ratio" below 1 would mean a
//! legal placement beat a certified optimum — a broken certificate, not a
//! good placer; `eplace_bench::report::PEKO`). A zero exit status therefore
//! certifies a well-formed, self-consistent result.
//!
//! ```text
//! cargo run --release -p eplace-bench --bin bench_peko              # full sweep
//! cargo run --release -p eplace-bench --bin bench_peko -- --smoke   # smallest suite (CI)
//! ```
//!
//! Flags: `--smoke` (smallest suite only), `--seeds N` (seeds per size,
//! default 3), `--out PATH` (output path override).

use eplace_baselines::{CgPlacer, GlobalPlacer, MincutPlacer};
use eplace_bench::paper::place_baseline;
use eplace_bench::report::{self, Args};
use eplace_benchgen::{BenchmarkConfig, KnownOptimum};
use eplace_core::{EplaceConfig, Placer};
use eplace_obs::Record;
use std::num::NonZeroU64;
use std::time::Instant;

const SUITE_SIZES: &[usize] = &[240, 600, 1_500];
const BASE_SEED: u64 = 9_000;

/// One placer's JSON fragment: `"name":{"hpwl":…,"ratio":…,"seconds":…}`.
fn placer_json(name: &str, hpwl: f64, optimum: &KnownOptimum, seconds: f64) -> String {
    format!(
        "\"{name}\":{{\"hpwl\":{hpwl},\"ratio\":{},\"seconds\":{seconds}}}",
        optimum.ratio(hpwl)
    )
}

fn bench_suite(cells: usize, seed: u64) -> String {
    let config = BenchmarkConfig::peko_like(format!("peko{cells}"), seed).scale(cells);
    let (design, optimum) = config.generate_known_optimum();

    // ePlace: the full flow, which legalizes internally.
    let t = Instant::now();
    let eplace_cfg = EplaceConfig {
        known_optimum_hpwl: Some(optimum.hpwl),
        ..EplaceConfig::fast()
    };
    let mut placer = Placer::new(design, eplace_cfg.clone());
    let report = placer.run().expect("ePlace flow failed on a PEKO suite");
    let eplace_secs = t.elapsed().as_secs_f64();
    let eplace_hpwl = report.final_hpwl;
    assert_eq!(
        report.suboptimality_ratio,
        Some(optimum.ratio(eplace_hpwl)),
        "report ratio must agree with the certificate"
    );

    // Baselines: global placement + the identical downstream finisher.
    let baselines: [&dyn GlobalPlacer; 2] = [&CgPlacer, &MincutPlacer];
    let mut fragments = vec![placer_json("eplace", eplace_hpwl, &optimum, eplace_secs)];
    for placer in baselines {
        let (mut design, _) = config.generate_known_optimum();
        let t = Instant::now();
        let (_, legal) = place_baseline(placer, &mut design, &eplace_cfg);
        assert!(
            legal,
            "even Tetris failed to legalize a half-utilization PEKO design"
        );
        let hpwl = design.hpwl();
        fragments.push(placer_json(
            placer.name(),
            hpwl,
            &optimum,
            t.elapsed().as_secs_f64(),
        ));
    }

    Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("seed", seed)
        .f64_field("optimal_hpwl", optimum.hpwl)
        .raw_field("placers", &format!("{{{}}}", fragments.join(",")))
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

    println!("bench_peko: {} size(s) x {seeds} seed(s)", sizes.len());
    let mut suites = Vec::new();
    for &cells in sizes {
        for seed in BASE_SEED..BASE_SEED + seeds {
            suites.push(bench_suite(cells, seed));
            println!("  cells={cells} seed={seed} done");
        }
    }
    let head = Record::new(report::PEKO.bin)
        .str_field("suite_family", "peko_like")
        .u64_field("seeds_per_size", seeds)
        .bool_field("smoke", smoke);
    report::emit(&report::PEKO, head, &suites, out);
}
