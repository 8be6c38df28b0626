//! End-to-end checks of the observability layer against the full flow:
//! the journal must mirror the iteration trace exactly, recording must
//! never perturb the numerics, and the phase breakdown must account for
//! the run's wall-clock.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{EplaceConfig, GradientFault, Placer, Stage, StopReason};
use eplace_repro::netlist::Design;
use eplace_repro::obs::json::{parse_json, JsonValue};
use eplace_repro::obs::{MemoryJournal, Obs};

fn small_design(seed: u64) -> Design {
    BenchmarkConfig::ispd05_like("obs", seed)
        .scale(200)
        .generate()
}

fn run_with(design: Design, obs: Obs) -> eplace_repro::core::PlacementReport {
    let cfg = EplaceConfig {
        obs,
        ..EplaceConfig::fast()
    };
    Placer::new(design, cfg).run().unwrap()
}

/// The journal's records, parsed.
fn records(journal: &MemoryJournal) -> Vec<JsonValue> {
    journal
        .lines()
        .iter()
        .map(|l| parse_json(l).expect("journal line must parse as JSON"))
        .collect()
}

fn kind(v: &JsonValue) -> &str {
    v.get("type").and_then(JsonValue::as_str).unwrap()
}

/// Indices of the `summary` records.
fn summary_indices(records: &[JsonValue]) -> Vec<usize> {
    (0..records.len())
        .filter(|&i| kind(&records[i]) == "summary")
        .collect()
}

#[test]
fn journal_iter_lines_match_reported_iterations() {
    let (obs, journal) = Obs::memory();
    let report = run_with(small_design(81), obs);
    let records = records(&journal);
    let iters: Vec<&JsonValue> = records.iter().filter(|v| kind(v) == "iter").collect();
    assert_eq!(
        iters.len(),
        report.trace.len(),
        "one journal iter record per trace record"
    );
    // The journal mirrors the trace value for value: JSON floats use the
    // shortest round-trip form, so parsing back must be bit-exact.
    for (line, rec) in iters.iter().zip(&report.trace) {
        let f = |key: &str| line.get(key).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(
            line.get("stage").and_then(JsonValue::as_str),
            Some(rec.stage.key())
        );
        assert_eq!(
            line.get("iter").and_then(JsonValue::as_u64),
            Some(rec.iteration as u64)
        );
        assert_eq!(f("hpwl").to_bits(), rec.hpwl.to_bits());
        assert_eq!(f("overflow").to_bits(), rec.overflow.to_bits());
        assert_eq!(f("alpha").to_bits(), rec.alpha.to_bits());
        assert_eq!(f("lambda").to_bits(), rec.lambda.to_bits());
        assert_eq!(f("gamma").to_bits(), rec.gamma.to_bits());
        assert_eq!(
            line.get("backtracks").and_then(JsonValue::as_u64),
            Some(rec.backtracks as u64)
        );
    }
    // Exactly one summary, and it is the final line.
    assert_eq!(summary_indices(&records), vec![records.len() - 1]);
}

#[test]
fn journaling_never_perturbs_the_trajectory() {
    // All three recorder modes take different paths through the GP loop
    // (the journaling one also builds a RUDY map per iteration); none may
    // move a bit of the trajectory.
    let baseline = run_with(small_design(82), Obs::disabled());
    let metrics = run_with(small_design(82), Obs::metrics());
    let (obs, _journal) = Obs::memory();
    let journaled = run_with(small_design(82), obs);
    let key = |r: &eplace_repro::core::PlacementReport| {
        r.trace
            .iter()
            .map(|t| {
                (
                    t.iteration,
                    t.hpwl.to_bits(),
                    t.overflow.to_bits(),
                    t.alpha.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    for recorded in [&metrics, &journaled] {
        assert_eq!(key(&baseline), key(recorded));
        assert_eq!(baseline.final_hpwl.to_bits(), recorded.final_hpwl.to_bits());
    }
}

#[test]
fn phase_times_account_for_the_wall_clock() {
    let obs = Obs::metrics();
    let report = run_with(small_design(83), obs.clone());
    let phases = obs.summary().phases;
    assert!(!phases.is_empty(), "an enabled recorder times every phase");
    let covered: f64 = phases.iter().map(|p| p.seconds).sum();
    let total = report.total_seconds();
    assert!(
        covered <= total * 1.05,
        "phases ({covered}s) cannot out-time the flow ({total}s)"
    );
    assert!(
        covered >= total * 0.95,
        "phases ({covered}s) must cover >= 95% of the flow ({total}s)"
    );
}

#[test]
fn iterations_per_stage_sums_to_trace() {
    let report = run_with(small_design(84), Obs::disabled());
    let total: usize = report.iterations_per_stage.iter().map(|(_, n)| n).sum();
    assert_eq!(total, report.trace.len());
    for &(stage, n) in &report.iterations_per_stage {
        assert_eq!(n, report.trace.iter().filter(|r| r.stage == stage).count());
    }
}

#[test]
fn mixed_flow_reports_every_stage() {
    let design = BenchmarkConfig::mms_like("obsm", 85, 1.0, 4)
        .scale(200)
        .generate();
    let (obs, journal) = Obs::memory();
    let report = run_with(design, obs.clone());
    let stages: Vec<Stage> = report
        .iterations_per_stage
        .iter()
        .map(|&(s, _)| s)
        .collect();
    assert_eq!(stages, vec![Stage::Mgp, Stage::FillerOnly, Stage::Cgp]);
    // Every GP stage journals exactly one stop record, saying why it
    // stopped; a converged mGP stopped on the target.
    assert!(report.mgp_converged, "tau={}", report.final_overflow);
    let records = records(&journal);
    let stops: Vec<(&str, &str)> = records
        .iter()
        .filter(|r| kind(r) == "stop")
        .map(|r| {
            let field = |key| r.get(key).and_then(JsonValue::as_str).unwrap();
            (field("stage"), field("reason"))
        })
        .collect();
    let stop_stages: Vec<&str> = stops.iter().map(|&(stage, _)| stage).collect();
    assert_eq!(stop_stages, vec!["mgp", "fillergp", "cgp"], "{stops:?}");
    assert_eq!(stops[0].1, "target");
    // The journal's summary record carries every phase and the counters
    // the mIP, mLG and legalizer stages record.
    let summary = &records[*summary_indices(&records).last().unwrap()];
    let phases: Vec<&str> = summary
        .get("phases")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|p| p.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    for expect in ["mip", "mgp", "mlg", "fillergp", "cgp", "cdp"] {
        assert!(
            phases.contains(&expect),
            "missing phase {expect} in {phases:?}"
        );
    }
    for counter in [
        "mip_cg_iterations",
        "mip_rebuilds",
        "mlg_outer_iterations",
        "mlg_moves_attempted",
        "mlg_moves_accepted",
        "legalize_runs",
        "legalize_cells_placed",
    ] {
        assert!(
            summary.get(counter).and_then(JsonValue::as_u64).is_some(),
            "summary lacks counter {counter}"
        );
    }
    assert_eq!(
        summary.get("legalize_runs").and_then(JsonValue::as_u64),
        Some(1)
    );
    // Per-stage counters agree with the report.
    let snap = obs.snapshot();
    for (stage, n) in &report.iterations_per_stage {
        let counter = match stage {
            Stage::Mgp => "iters_mgp",
            Stage::FillerOnly => "iters_fillergp",
            Stage::Cgp => "iters_cgp",
            _ => continue,
        };
        assert_eq!(snap.counter(counter), *n as u64, "{counter}");
    }
}

#[test]
fn failed_run_journal_ends_with_its_summary() {
    let (obs, journal) = Obs::memory();
    let cfg = EplaceConfig {
        obs,
        fault: Some(GradientFault::nan_at(30).repeating()),
        ..EplaceConfig::fast()
    };
    let err = Placer::new(small_design(87), cfg).run();
    assert!(err.is_err(), "a persistent fault cannot be outrun");
    let records = records(&journal);
    assert_eq!(summary_indices(&records), vec![records.len() - 1]);
    assert!(records.iter().any(|r| kind(r) == "recovery"));
    let stop = records.iter().rfind(|r| kind(r) == "stop").unwrap();
    assert_eq!(
        stop.get("reason").and_then(JsonValue::as_str),
        Some("diverged")
    );
}

#[test]
fn stagnation_stop_is_counted_and_journaled() {
    // A zero overflow target is unreachable, so mGP can only end on the
    // stagnation stop (or its iteration cap).
    let (obs, journal) = Obs::memory();
    let cfg = EplaceConfig {
        obs: obs.clone(),
        target_overflow: 0.0,
        ..EplaceConfig::fast()
    };
    let report = Placer::new(small_design(88), cfg).run().unwrap();
    assert!(!report.mgp_converged);
    assert_eq!(report.mgp_stop, StopReason::Stagnation);
    let stops: Vec<JsonValue> = records(&journal)
        .into_iter()
        .filter(|r| {
            kind(r) == "stop" && r.get("reason").and_then(JsonValue::as_str) == Some("stagnation")
        })
        .collect();
    assert!(!stops.is_empty(), "no stop record");
    assert_eq!(
        obs.snapshot().counter("stagnation_stops"),
        stops.len() as u64
    );
    let first = &stops[0];
    assert_eq!(first.get("stage").and_then(JsonValue::as_str), Some("mgp"));
    assert_eq!(
        first.get("reason").and_then(JsonValue::as_str),
        Some("stagnation")
    );
    let iter = first.get("iter").and_then(JsonValue::as_u64).unwrap();
    assert!(iter < report.mgp_iterations as u64);
}

#[test]
fn journal_iter_lines_carry_rudy_congestion() {
    // Satellite of the routability subsystem: every journaled iteration
    // reports the RUDY congestion of the in-flight placement. The map is
    // read-only — `journaling_never_perturbs_the_trajectory` above proves
    // the numerics cannot see it.
    let (obs, journal) = Obs::memory();
    run_with(small_design(86), obs);
    let mut iter_lines = 0;
    for line in journal.lines() {
        let v = parse_json(&line).expect("journal line must parse");
        if v.get("type").and_then(JsonValue::as_str) != Some("iter") {
            continue;
        }
        iter_lines += 1;
        let peak = v
            .get("rudy_peak")
            .and_then(JsonValue::as_f64)
            .expect("iter record carries rudy_peak");
        let mean = v
            .get("rudy_mean")
            .and_then(JsonValue::as_f64)
            .expect("iter record carries rudy_mean");
        assert!(peak.is_finite() && mean.is_finite());
        assert!(peak >= mean, "peak {peak} < mean {mean}");
        assert!(mean >= 0.0);
    }
    assert!(iter_lines > 0, "flow must journal iterations");
}
