//! Integration tests of the routability subsystem: the probabilistic
//! global router wired into the full flow, congestion-driven inflation,
//! and the determinism guarantees the mode ships with.
//!
//! The golden-trace test (`golden_trace.rs`) separately proves that with
//! `routability: None` — the default — the flow is bit-identical to a build
//! without the subsystem.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{EplaceConfig, Placer, RoutabilityConfig, RouteConfig, Stage};
use eplace_repro::legalize::check_legal;
use eplace_repro::netlist::Design;
use eplace_repro::obs::Obs;
use std::path::Path;
use std::process::{Command, Output};

fn congested_design(seed: u64) -> Design {
    BenchmarkConfig::ispd05_like("routability", seed)
        .scale(300)
        .generate()
}

/// A routing model scarce enough that the converged placement overflows
/// and the inflation loop has real work to do.
fn scarce_routability() -> RoutabilityConfig {
    RoutabilityConfig {
        route: RouteConfig {
            capacity_scale: 0.5,
            ..RouteConfig::default()
        },
        ..RoutabilityConfig::default()
    }
}

fn run(
    seed: u64,
    routability: Option<RoutabilityConfig>,
    threads: usize,
) -> (Design, eplace_repro::core::PlacementReport) {
    let cfg = EplaceConfig {
        routability,
        threads,
        ..EplaceConfig::fast()
    };
    let mut placer = Placer::new(congested_design(seed), cfg);
    let report = placer.run().unwrap();
    (placer.into_design(), report)
}

#[test]
fn mode_off_reports_nothing_and_runs_no_refinement() {
    let (_, report) = run(91, None, 1);
    assert!(report.routability.is_none());
    assert!(
        report.trace.iter().all(|r| r.stage != Stage::RouteRefine),
        "no refinement rounds without the mode"
    );
    assert_eq!(report.stage_seconds(Stage::RouteRefine), 0.0);
}

#[test]
fn mode_on_scores_routability_and_stays_legal() {
    let (design, report) = run(91, Some(scarce_routability()), 1);
    let out = report.routability.as_ref().expect("mode on");
    assert!(out.initial.segments > 0);
    assert!(out.final_report.routed_wl > 0.0);
    assert!(out.final_report.routed_wl.is_finite());
    assert!(out.final_report.peak_congestion >= 0.0);
    // Inflation is a placement device: the widths must be restored, so the
    // final layout legalizes exactly like the plain flow.
    assert!(check_legal(&design).is_ok(), "{:?}", check_legal(&design));
    let total_cell_width: f64 = design.cells.iter().map(|c| c.size.width).sum();
    let reference: f64 = congested_design(91)
        .cells
        .iter()
        .map(|c| c.size.width)
        .sum();
    assert_eq!(
        total_cell_width.to_bits(),
        reference.to_bits(),
        "cell widths restored bit-for-bit after inflation"
    );
}

#[test]
fn inflation_reduces_overflow_at_bounded_hpwl_cost() {
    // The headline acceptance criterion: on a congested ispd05-like suite
    // the inflation loop cuts total routing overflow by at least 20 % and
    // pays at most 5 % global-placement HPWL for it.
    let (_, report) = run(94, Some(scarce_routability()), 1);
    let out = report.routability.as_ref().expect("mode on");
    assert!(
        out.initial.total_overflow > 0.0,
        "scenario must be congested to mean anything"
    );
    assert!(out.rounds > 0, "refinement must engage");
    assert!(
        out.overflow_reduction() >= 0.20,
        "overflow {} -> {} ({:.1} % reduction)",
        out.initial.total_overflow,
        out.final_report.total_overflow,
        100.0 * out.overflow_reduction()
    );
    assert!(
        out.hpwl_cost() <= 0.05,
        "HPWL cost {:.2} % exceeds the 5 % budget",
        100.0 * out.hpwl_cost()
    );
    // The loop must never accept a round that makes routing worse.
    assert!(out.final_report.total_overflow <= out.initial.total_overflow);
}

#[test]
fn routability_mode_is_deterministic_across_runs() {
    let key = |report: &eplace_repro::core::PlacementReport| {
        let out = report.routability.as_ref().expect("mode on");
        (
            report.final_hpwl.to_bits(),
            out.final_report.routed_wl.to_bits(),
            out.final_report.total_overflow.to_bits(),
            out.final_report.peak_congestion.to_bits(),
            out.rounds,
            out.inflated_cells,
        )
    };
    let (_, a) = run(93, Some(scarce_routability()), 1);
    let (_, b) = run(93, Some(scarce_routability()), 1);
    assert_eq!(key(&a), key(&b), "repeated runs must be bit-identical");
}

#[test]
fn routability_mode_is_thread_count_invariant() {
    // Any threads >= 2 must give one deterministic result independent of
    // the actual worker count (the router's phase 1 reduces in fixed chunk
    // order; phase 2 and the inflation rule are serial by construction).
    let key = |report: &eplace_repro::core::PlacementReport| {
        let out = report.routability.as_ref().expect("mode on");
        (
            report.final_hpwl.to_bits(),
            out.final_report.routed_wl.to_bits(),
            out.final_report.total_overflow.to_bits(),
            out.rounds,
        )
    };
    let (_, two) = run(94, Some(scarce_routability()), 2);
    let (_, three) = run(94, Some(scarce_routability()), 3);
    let (_, eight) = run(94, Some(scarce_routability()), 8);
    assert_eq!(key(&two), key(&three));
    assert_eq!(key(&two), key(&eight));
}

#[test]
fn refinement_rounds_appear_in_trace_and_timings() {
    let (_, report) = run(92, Some(scarce_routability()), 1);
    let out = report.routability.as_ref().expect("mode on");
    if out.rounds > 0 {
        assert!(
            report.trace.iter().any(|r| r.stage == Stage::RouteRefine),
            "accepted rounds must leave trace records"
        );
        assert!(report.stage_seconds(Stage::RouteRefine) > 0.0);
        let counted = report
            .iterations_per_stage
            .iter()
            .find(|(s, _)| *s == Stage::RouteRefine);
        assert!(counted.is_some(), "per-stage iteration accounting");
    }
}

/// Runs the `obs_check` journal validator on `path`.
fn obs_check(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_check"))
        .arg(path)
        .output()
        .expect("obs_check runs")
}

#[test]
fn routability_journal_passes_obs_check() {
    let dir = std::env::temp_dir().join(format!("eplace_route_journal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("route.jsonl");
    let cfg = EplaceConfig {
        routability: Some(scarce_routability()),
        obs: Obs::to_file(journal.to_str().unwrap()).unwrap(),
        ..EplaceConfig::fast()
    };
    // Dropping the placer drops the recorder's last handle, which moves
    // the finished journal into place.
    Placer::new(congested_design(91), cfg).run().unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();
    let is_route = |line: &str| line.starts_with(r#"{"type":"route","#);
    assert!(text.lines().any(is_route), "the loop journals its rounds");
    let out = obs_check(&journal);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The same journal with one route record missing `total_overflow`.
    let mut renamed = false;
    let broken: Vec<String> = text
        .lines()
        .map(|line| {
            if is_route(line) && !renamed {
                renamed = true;
                line.replacen(r#""total_overflow":"#, r#""overflow":"#, 1)
            } else {
                line.to_string()
            }
        })
        .collect();
    let broken_path = dir.join("broken.jsonl");
    std::fs::write(&broken_path, broken.join("\n") + "\n").unwrap();
    let out = obs_check(&broken_path);
    assert!(!out.status.success(), "a route record lacks total_overflow");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("total_overflow"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blend_search_spans_and_counters_add_up() {
    // The routability span holds one `route` call for the initial routing
    // and one per routed blend; every blend of every refinement round is
    // either routed or over the HPWL budget; and recording changes no bit.
    let obs = Obs::metrics();
    let cfg = EplaceConfig {
        routability: Some(scarce_routability()),
        threads: 1,
        obs: obs.clone(),
        ..EplaceConfig::fast()
    };
    let mut placer = Placer::new(congested_design(94), cfg);
    let report = placer.run().unwrap();
    let snap = obs.snapshot();
    let calls = |path: &str| snap.span(path).map_or(0, |s| s.calls);
    let routed = snap.counter("route_blends_routed");
    let over_budget = snap.counter("route_blends_over_budget");
    let refinements = calls("flow/routability/routegp");
    assert!(refinements > 0, "refinement must engage");
    assert!(
        routed > 0 && over_budget > 0,
        "{routed} routed, {over_budget} over budget"
    );
    assert_eq!(calls("flow/routability/route"), 1 + routed);
    // The blend ladder has nine α.
    assert_eq!(routed + over_budget, 9 * refinements);

    let (plain, plain_report) = run(94, Some(scarce_routability()), 1);
    assert_eq!(
        format!("{:?}", report.routability),
        format!("{:?}", plain_report.routability),
        "a metrics recorder changed the routability outcome"
    );
    let bits = |d: &Design| -> Vec<(u64, u64)> {
        d.cells
            .iter()
            .map(|c| (c.pos.x.to_bits(), c.pos.y.to_bits()))
            .collect()
    };
    assert!(
        bits(placer.design()) == bits(&plain),
        "a metrics recorder changed the final placement"
    );
}
