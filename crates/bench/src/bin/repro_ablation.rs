//! Reproduces the paper's three ablation claims:
//!
//! * **§V-C (backtracking)** — disabling BkTrk costs wirelength (paper:
//!   +43.12 % average on MMS, one outright failure; 1.037 backtracks per
//!   iteration with it on).
//! * **§V-D (preconditioner)** — disabling the `|E_i| + λq_i`
//!   preconditioner makes macros bounce and costs wirelength (paper: nine
//!   failures, +24.63 % on the survivors).
//! * **§VI-B (filler-only phase)** — disabling the 20-iteration filler
//!   relocation before cGP costs wirelength (paper: +6.53 %).
//!
//! A "failure" here is a run whose mGP does not reach the overflow target
//! within the iteration cap or whose legalization fails.
//!
//! Usage: `repro_ablation [--scale N] [--which bktrk|precond|filler|all] [--circuits K]`

use eplace_bench::report::Args;
use eplace_bench::run_eplace;
use eplace_benchgen::{BenchmarkConfig, BenchmarkSuite};
use eplace_core::EplaceConfig;

struct Ablation {
    key: &'static str,
    paper: &'static str,
    make: fn(&EplaceConfig) -> EplaceConfig,
}

const ABLATIONS: &[Ablation] = &[
    Ablation {
        key: "bktrk",
        paper: "+43.12% WL, 1 failure (paper §V-C)",
        make: |base| EplaceConfig {
            enable_backtracking: false,
            ..base.clone()
        },
    },
    Ablation {
        key: "precond",
        paper: "+24.63% WL, 9 failures (paper §V-D)",
        make: |base| EplaceConfig {
            enable_preconditioner: false,
            ..base.clone()
        },
    },
    Ablation {
        key: "filler",
        paper: "+6.53% WL (paper §VI-B)",
        make: |base| EplaceConfig {
            enable_filler_phase: false,
            ..base.clone()
        },
    },
];

fn main() {
    let (scale, which, take) = Args::from_env(&["scale", "which", "circuits"], |a| {
        let which: String = a.value("which", "all".into())?;
        if which != "all" && !ABLATIONS.iter().any(|ab| ab.key == which) {
            return Err(format!(
                "bad --which value `{which}`; expected bktrk, precond, filler or all"
            ));
        }
        Ok((a.value("scale", 120)?, which, a.value("circuits", 6)?))
    });
    let suite: Vec<BenchmarkConfig> = BenchmarkSuite::mms(scale).into_iter().take(take).collect();
    let base = EplaceConfig::fast();

    // Reference runs with everything enabled.
    eprintln!("reference runs ({} circuits)...", suite.len());
    let reference: Vec<_> = suite
        .iter()
        .map(|c| {
            eprintln!("  {} ...", c.name);
            (c.name.clone(), run_eplace(c, &base))
        })
        .collect();
    // Backtracks-per-iteration statistic (paper: 1.037).
    let bk_sum: f64 = reference
        .iter()
        .map(|(_, r)| r.backtracks_per_iteration)
        .sum();
    println!(
        "backtracks_per_iteration,{:.3}  (paper: 1.037)",
        bk_sum / reference.len() as f64
    );

    println!("ablation,circuit,hpwl_full,hpwl_ablated,delta_pct,failed");
    for ablation in ABLATIONS {
        if which != "all" && which != ablation.key {
            continue;
        }
        eprintln!("ablation `{}` ...", ablation.key);
        let cfg = (ablation.make)(&base);
        let mut deltas = Vec::new();
        let mut failures = 0;
        for (config, (name, full)) in suite.iter().zip(&reference) {
            eprintln!("  {} ...", name);
            let ablated = run_eplace(config, &cfg);
            let failed = !ablated.ok;
            if failed {
                failures += 1;
            } else {
                deltas.push(ablated.hpwl / full.hpwl - 1.0);
            }
            println!(
                "{},{},{:.4e},{:.4e},{:+.2},{}",
                ablation.key,
                name,
                full.hpwl,
                ablated.hpwl,
                100.0 * (ablated.hpwl / full.hpwl - 1.0),
                failed
            );
        }
        let avg = if deltas.is_empty() {
            0.0
        } else {
            100.0 * deltas.iter().sum::<f64>() / deltas.len() as f64
        };
        println!(
            "{},SUMMARY,avg_delta_pct,{avg:+.2},failures,{failures}",
            ablation.key
        );
        eprintln!("  paper: {}", ablation.paper);
    }
}
