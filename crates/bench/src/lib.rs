//! Shared harness for the `repro_*` and `bench_*` binaries: runs every
//! placer through an identical flow on identical inputs and formats
//! paper-style table rows.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index) or writes one `BENCH_*.json` file; this
//! library holds the plumbing so the binaries stay declarative. Their
//! command-line parser and the BENCH writer live in [`report`].

pub mod report;
pub mod timing;

use eplace_baselines::{BellshapePlacer, CgPlacer, GlobalPlacer, MincutPlacer, QuadraticPlacer};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{measure_overflow, run_cdp, scaled_hpwl, EplaceConfig, Placer};
use eplace_mlg::legalize_macros;
use eplace_netlist::{CellKind, Design};
use std::time::Instant;

/// One placer's outcome on one circuit, with everything the tables report.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Placer name (table column).
    pub placer: String,
    /// Circuit name (table row).
    pub circuit: String,
    /// Final legalized HPWL (Tables I and III).
    pub hpwl: f64,
    /// Scaled HPWL per the ISPD-2006 protocol (Table II).
    pub scaled_hpwl: f64,
    /// Final density overflow (the tables' density-overflow rows).
    pub overflow: f64,
    /// Total flow wall-clock seconds.
    pub seconds: f64,
    /// Seconds inside line search (CG-family solvers only).
    pub line_search_seconds: f64,
    /// mGP backtracks per iteration (ePlace only; paper: 1.037).
    pub backtracks_per_iteration: f64,
    /// `true` when legalization succeeded (placers can fail, as the paper's
    /// N/A entries show).
    pub ok: bool,
}

/// Runs the full ePlace flow on a fresh copy of `config`'s circuit.
pub fn run_eplace(config: &BenchmarkConfig, eplace_cfg: &EplaceConfig) -> FlowResult {
    let design = config.generate();
    let t = Instant::now();
    let mut placer = Placer::new(design, eplace_cfg.clone());
    let report = placer.run().expect("placement diverged beyond recovery");
    let seconds = t.elapsed().as_secs_f64();
    FlowResult {
        placer: "ePlace".into(),
        circuit: config.name.clone(),
        hpwl: report.final_hpwl,
        scaled_hpwl: report.scaled_hpwl,
        overflow: report.final_overflow,
        seconds,
        line_search_seconds: 0.0,
        backtracks_per_iteration: report.mgp_backtracks_per_iteration,
        ok: report.legalization.is_some(),
    }
}

/// Runs a baseline global placer followed by the *same* discrete finish
/// ePlace uses (mLG when macros are movable, then [`run_cdp`]), so the
/// table rows compare global-placement algorithms under one protocol.
pub fn run_baseline(
    placer: &dyn GlobalPlacer,
    config: &BenchmarkConfig,
    eplace_cfg: &EplaceConfig,
) -> FlowResult {
    let mut design = config.generate();
    let t = Instant::now();
    let gp = placer.global_place(&mut design);
    if design
        .cells
        .iter()
        .any(|c| c.kind == CellKind::Macro && c.is_movable())
    {
        legalize_macros(&mut design, &eplace_cfg.mlg);
    }
    let ok = run_cdp(&mut design, eplace_cfg).is_ok();
    let seconds = t.elapsed().as_secs_f64();
    let overflow = measure_overflow(&design);
    let hpwl = design.hpwl();
    FlowResult {
        placer: placer.name().into(),
        circuit: config.name.clone(),
        hpwl,
        scaled_hpwl: scaled_hpwl(hpwl, overflow),
        overflow,
        seconds,
        line_search_seconds: gp.line_search_seconds,
        backtracks_per_iteration: 0.0,
        ok,
    }
}

/// The four baselines in table order.
pub fn all_baselines() -> Vec<Box<dyn GlobalPlacer>> {
    vec![
        Box::new(MincutPlacer::default()),
        Box::new(QuadraticPlacer::default()),
        Box::new(BellshapePlacer::default()),
        Box::new(CgPlacer::default()),
    ]
}

/// Runs every placer (baselines + ePlace) over every circuit of a suite.
pub fn run_suite(configs: &[BenchmarkConfig], eplace_cfg: &EplaceConfig) -> Vec<FlowResult> {
    let baselines = all_baselines();
    let mut rows = Vec::new();
    for config in configs {
        for b in &baselines {
            eprintln!("  [{}] {} ...", config.name, b.name());
            rows.push(run_baseline(b.as_ref(), config, eplace_cfg));
        }
        eprintln!("  [{}] ePlace ...", config.name);
        rows.push(run_eplace(config, eplace_cfg));
    }
    rows
}

/// Formats a paper-style table: circuits as rows, placers as columns, the
/// chosen metric in the cells, plus the two summary lines the paper prints
/// (average metric overhead vs ePlace, average runtime ratio vs ePlace).
pub fn format_table(results: &[FlowResult], metric: Metric) -> String {
    let mut circuits: Vec<&str> = Vec::new();
    let mut placers: Vec<&str> = Vec::new();
    for r in results {
        if !circuits.contains(&r.circuit.as_str()) {
            circuits.push(&r.circuit);
        }
        if !placers.contains(&r.placer.as_str()) {
            placers.push(&r.placer);
        }
    }
    let get = |c: &str, p: &str| results.iter().find(|r| r.circuit == c && r.placer == p);
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "circuit"));
    for p in &placers {
        out.push_str(&format!("{p:>14}"));
    }
    out.push('\n');
    for c in &circuits {
        out.push_str(&format!("{c:<18}"));
        for p in &placers {
            match get(c, p) {
                Some(r) if r.ok => out.push_str(&format!("{:>14.4e}", metric.of(r))),
                Some(_) => out.push_str(&format!("{:>14}", "N/A")),
                None => out.push_str(&format!("{:>14}", "-")),
            }
        }
        out.push('\n');
    }
    // Summary lines vs ePlace (paper's "Average HPWL" / "Average Runtime"):
    // per placer, the mean ratio to ePlace over the circuits where it is
    // defined.
    type Summary = (
        &'static str,
        fn(Metric, &FlowResult, &FlowResult) -> Option<f64>,
        fn(f64) -> String,
    );
    let summaries: [Summary; 3] = [
        (
            "avg metric vs eP",
            |m, r, e| (r.ok && e.ok && m.of(e) > 0.0).then_some(m.of(r) / m.of(e)),
            |mean| format!("{:>13.2}%", (mean - 1.0) * 100.0),
        ),
        (
            "avg runtime vs eP",
            |_, r, e| (e.seconds > 0.0).then_some(r.seconds / e.seconds),
            |mean| format!("{mean:>13.2}x"),
        ),
        (
            "avg overflow vs eP",
            |_, r, e| (r.ok && e.ok && e.overflow > 1e-9).then_some(r.overflow / e.overflow),
            |mean| format!("{mean:>13.2}x"),
        ),
    ];
    for (label, ratio, fmt) in summaries {
        out.push_str(&format!("{label:<18}"));
        for p in &placers {
            let ratios: Vec<f64> = circuits
                .iter()
                .filter_map(|c| ratio(metric, get(c, p)?, get(c, "ePlace")?))
                .collect();
            out.push_str(&match ratios.len() {
                0 => format!("{:>14}", "-"),
                n => fmt(ratios.iter().sum::<f64>() / n as f64),
            });
        }
        out.push('\n');
    }
    out
}

/// Which metric a table prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain HPWL (Tables I, III).
    Hpwl,
    /// Scaled HPWL (Table II).
    ScaledHpwl,
}

impl Metric {
    /// Extracts the metric from a result.
    pub fn of(self, r: &FlowResult) -> f64 {
        match self {
            Metric::Hpwl => r.hpwl,
            Metric::ScaledHpwl => r.scaled_hpwl,
        }
    }
}

/// Reads a table binary's flags, `--scale N` (default `default_scale`) and
/// `--circuit NAME`, and returns the scale with `suite(scale)` narrowed to
/// the circuits whose name contains NAME.
pub fn table_suite(
    default_scale: usize,
    suite: fn(usize) -> Vec<BenchmarkConfig>,
) -> (usize, Vec<BenchmarkConfig>) {
    let (scale, circuit) = report::Args::from_env(&["scale", "circuit"], |a| {
        Ok((
            a.value("scale", default_scale)?,
            a.optional::<String>("circuit")?,
        ))
    });
    let mut configs = suite(scale);
    if let Some(f) = circuit {
        configs.retain(|c| c.name.contains(f.as_str()));
    }
    (scale, configs)
}

/// Generates a circuit, runs mIP+mGP only (the state Figures 3/5 start
/// from), and returns the design plus the placer report. Used by the figure
/// binaries that need mid-flow states.
pub fn design_after_full_flow(
    config: &BenchmarkConfig,
    cfg: &EplaceConfig,
) -> (Design, eplace_core::PlacementReport) {
    let design = config.generate();
    let mut placer = Placer::new(design, cfg.clone());
    let report = placer.run().expect("placement diverged beyond recovery");
    (placer.into_design(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(placer: &str, circuit: &str, hpwl: f64, seconds: f64, overflow: f64) -> FlowResult {
        FlowResult {
            placer: placer.into(),
            circuit: circuit.into(),
            hpwl,
            scaled_hpwl: scaled_hpwl(hpwl, overflow),
            overflow,
            seconds,
            line_search_seconds: 0.0,
            backtracks_per_iteration: 0.0,
            ok: hpwl > 0.0,
        }
    }

    #[test]
    fn table_averages_ratios_to_eplace_over_defined_rows() {
        let results = [
            row("mincut", "c1", 120.0, 1.0, 0.2),
            row("failing", "c1", 0.0, 4.0, 0.0),
            row("ePlace", "c1", 100.0, 2.0, 0.1),
            row("mincut", "c2", 0.0, 3.0, 0.3),
            row("failing", "c2", 0.0, 4.0, 0.0),
            row("ePlace", "c2", 200.0, 2.0, 0.1),
        ];
        let table = format_table(&results, Metric::Hpwl);
        let cells = |prefix: &str| -> Vec<String> {
            let line = table.lines().find(|l| l.starts_with(prefix)).unwrap();
            line[18..].split_whitespace().map(String::from).collect()
        };
        assert_eq!(cells("circuit"), ["mincut", "failing", "ePlace"]);
        assert_eq!(cells("c1"), ["1.2000e2", "N/A", "1.0000e2"]);
        assert_eq!(cells("c2"), ["N/A", "N/A", "2.0000e2"]);
        // Failed runs are left out of the quality averages, not the runtime one.
        assert_eq!(cells("avg metric"), ["20.00%", "-", "0.00%"]);
        assert_eq!(cells("avg runtime"), ["1.00x", "2.00x", "1.00x"]);
        assert_eq!(cells("avg overflow"), ["2.00x", "-", "1.00x"]);
    }
}
