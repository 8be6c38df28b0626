//! `eplace-repro` — command-line placer.
//!
//! Reads a Bookshelf benchmark (`.aux`), runs the full ePlace flow, writes
//! the placed `.pl`, and prints a placement report. Without `--aux` it
//! demonstrates on a generated circuit.
//!
//! ```sh
//! eplace-repro --aux adaptec1.aux --out adaptec1_eplace.pl [--rho 0.5] [--fast]
//! eplace-repro --demo 1000
//! ```

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::bookshelf::{read_aux, write_pl};
use eplace_repro::core::{EplaceConfig, Placer, Stage};
use eplace_repro::legalize::check_legal;
use eplace_repro::netlist::{Design, DesignStats};
use std::error::Error;
use std::process::ExitCode;

struct Args {
    aux: Option<String>,
    out: Option<String>,
    rho: Option<f64>,
    demo: usize,
    fast: bool,
    trace_csv: Option<String>,
    threads: usize,
    journal: Option<String>,
    metrics_summary: bool,
    routability: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        aux: None,
        out: None,
        rho: None,
        demo: 500,
        fast: false,
        trace_csv: None,
        threads: 1,
        journal: None,
        metrics_summary: false,
        routability: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--aux" => args.aux = Some(value("--aux")?),
            "--out" => args.out = Some(value("--out")?),
            "--rho" => {
                args.rho = Some(
                    value("--rho")?
                        .parse()
                        .map_err(|e| format!("bad --rho: {e}"))?,
                )
            }
            "--demo" => {
                args.demo = value("--demo")?
                    .parse()
                    .map_err(|e| format!("bad --demo: {e}"))?
            }
            "--fast" => args.fast = true,
            "--trace-csv" => args.trace_csv = Some(value("--trace-csv")?),
            "--journal" => args.journal = Some(value("--journal")?),
            "--metrics-summary" => args.metrics_summary = true,
            "--routability" => args.routability = true,
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: eplace-repro [--aux FILE.aux] [--out FILE.pl] [--rho RHO_T] \
                     [--demo N_CELLS] [--fast] [--trace-csv FILE] [--threads N] \
                     [--journal FILE.jsonl] [--metrics-summary] [--routability]\n\
                     \n\
                     --threads 1 (default) is the exact serial placer; N >= 2 \
                     parallelizes the kernels deterministically; 0 auto-detects.\n\
                     --journal writes one JSONL record per optimizer iteration plus \
                     an end-of-run summary (validate with the obs_check binary);\n\
                     --metrics-summary prints the per-phase runtime table after the \
                     run. Neither affects the placement result.\n\
                     --routability routes the converged placement with the built-in \
                     probabilistic global router and runs congestion-driven \
                     inflation rounds before legalization."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn load_design(args: &Args) -> Result<Design, Box<dyn Error>> {
    let mut design = match &args.aux {
        Some(path) => read_aux(path)?,
        None => {
            eprintln!(
                "no --aux given; generating a {}-cell demo circuit",
                args.demo
            );
            BenchmarkConfig::ispd05_like("demo", 42)
                .scale(args.demo)
                .generate()
        }
    };
    if let Some(rho) = args.rho {
        design.target_density = rho; // ISPD 2006 ships ρ_t out of band
    }
    Ok(design)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let design = match load_design(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", DesignStats::of(&design));

    let mut config = if args.fast {
        EplaceConfig::fast()
    } else {
        EplaceConfig::default()
    };
    config.threads = args.threads;
    let target_overflow = config.target_overflow;
    if args.routability {
        config.routability = Some(eplace_repro::core::RoutabilityConfig::default());
    }
    if let Some(path) = &args.journal {
        config.obs = match eplace_repro::obs::Obs::to_file(path) {
            Ok(obs) => obs,
            Err(e) => {
                eprintln!("error: cannot open journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    } else if args.metrics_summary {
        config.obs = eplace_repro::obs::Obs::metrics();
    }
    let obs = config.obs.clone();
    let mut placer = Placer::new(design, config);
    let report = match placer.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: placement failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("final HPWL        : {:.6e}", report.final_hpwl);
    println!("scaled HPWL       : {:.6e}", report.scaled_hpwl);
    println!("density overflow  : {:.4}", report.final_overflow);
    println!(
        "mGP               : {} iterations, converged: {}",
        report.mgp_iterations, report.mgp_converged
    );
    if !report.mgp_converged {
        eprintln!(
            "warning: mGP missed the density target: overflow {:.4} > {} after {} iterations \
             (stopped on {})",
            report.mgp_overflow,
            target_overflow,
            report.mgp_iterations,
            report.mgp_stop.key()
        );
    }
    if let Some(mlg) = &report.mlg {
        println!(
            "mLG               : O_m {:.3e} -> {:.3e} (legal: {})",
            mlg.macro_overlap_before, mlg.macro_overlap_after, mlg.legalized
        );
    }
    if let Some(route) = &report.routability {
        println!(
            "routability       : routed WL {:.4e}, overflow {:.1} -> {:.1} tracks \
             ({} rounds, {} cells inflated, peak congestion {:.3})",
            route.final_report.routed_wl,
            route.initial.total_overflow,
            route.final_report.total_overflow,
            route.rounds,
            route.inflated_cells,
            route.final_report.peak_congestion,
        );
    }
    for stage in [
        Stage::Mip,
        Stage::Mgp,
        Stage::Mlg,
        Stage::Cgp,
        Stage::RouteRefine,
        Stage::Cdp,
    ] {
        let s = report.stage_seconds(stage);
        if s > 0.0 {
            println!("{stage:>18}: {s:.2}s");
        }
    }
    if let Some(e) = &report.legalization_error {
        eprintln!("error: legalization failed: {e}");
    }
    let legal = match check_legal(placer.design()) {
        Ok(()) => {
            println!("legality          : OK");
            true
        }
        Err(e) => {
            println!("legality          : VIOLATED ({e})");
            false
        }
    };
    if args.metrics_summary {
        println!("{}", obs.summary().render_table());
    }

    if let Some(path) = &args.trace_csv {
        let csv = match eplace_repro::core::trace_to_csv_checked(&report.trace) {
            Ok(csv) => csv,
            Err(e) => {
                eprintln!("error: refusing to write trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("error writing trace: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }
    if !legal {
        eprintln!("error: the final placement is not legal");
        return ExitCode::FAILURE;
    }
    if let Some(out) = &args.out {
        if let Err(e) = write_pl(placer.design(), out) {
            eprintln!("error writing .pl: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("solution written to {out}");
    }
    ExitCode::SUCCESS
}
