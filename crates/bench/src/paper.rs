//! The paper's evaluation as data. [`flows`] lists every flow a claim
//! reads, once: each (table, circuit, placer), each (ablation, circuit) and
//! the one figure flow. [`Flow::run`] returns a flow's `BENCH_paper.json`
//! record, and [`claims`] computes every claim from those records and
//! judges it by [`verdict`]. The `repro` binary writes runs and claims to
//! `BENCH_paper.json` ([`crate::report::PAPER`]); `repro --smoke` compares
//! a subset of rerun flows with that file ([`crate::report::check_smoke`]).

use eplace_baselines::{
    BellshapePlacer, CgPlacer, GlobalPlacer, GpResult, MincutPlacer, QuadraticPlacer,
};
use eplace_benchgen::{BenchmarkConfig, BenchmarkSuite};
use eplace_core::{
    measure_overflow, run_cdp, scaled_hpwl, EplaceConfig, PlacementReport, Placer, Stage,
    StopReason,
};
use eplace_mlg::legalize_macros;
use eplace_netlist::{CellKind, Design};
use eplace_obs::json::{parse_json, JsonValue};
use eplace_obs::Record;
use std::time::Instant;
use Measure::*;
use Paper::*;

/// Base scale (cells of each suite's unit circuit) of Tables I and II.
pub const TABLE12_SCALE: usize = 300;
/// Base scale of Table III, whose first [`ABLATION_CIRCUITS`] circuits
/// the ablations share.
pub const TABLE3_SCALE: usize = 250;
/// Scale of the figure circuit (Figures 2, 3, 5 and 6).
pub const FIGURE_SCALE: usize = 600;
/// How many of Table III's circuits the ablations run on.
pub const ABLATION_CIRCUITS: usize = 6;

const EPLACE: &str = "ePlace";
const TABLE3: &str = "table3";
const ABLATION: &str = "ablation";
const FIGURES: &str = "figures";
/// The fields that split an ePlace run's mGP seconds (Figure 7), as
/// [`Flow::run`] writes them.
const MGP_SPLIT: &[&str] = &[
    "mgp_density_seconds",
    "mgp_wirelength_seconds",
    "mgp_other_seconds",
];

/// A suite of circuits at a base scale.
type Suite = fn(usize) -> Vec<BenchmarkConfig>;
/// An ablation's change to the flow's configuration.
type Ablate = fn(EplaceConfig) -> EplaceConfig;

/// Each table's group, base scale and suite.
const TABLES: [(&str, usize, Suite); 3] = [
    ("table1", TABLE12_SCALE, BenchmarkSuite::ispd05),
    ("table2", TABLE12_SCALE, BenchmarkSuite::ispd06),
    (TABLE3, TABLE3_SCALE, BenchmarkSuite::mms),
];

/// The baselines each table runs before ePlace, in column order.
const BASELINES: [&dyn GlobalPlacer; 4] =
    [&MincutPlacer, &QuadraticPlacer, &BellshapePlacer, &CgPlacer];

/// Each ablation's key and its change to [`EplaceConfig::fast`]: the
/// paper's (§V-C, §V-D, §VI-B), then this reproduction's own design
/// choices (DESIGN.md §7).
#[rustfmt::skip]
const ABLATIONS: [(&str, Ablate); 8] = [
    ("bktrk", |c| EplaceConfig { enable_backtracking: false, ..c }),
    ("precond", |c| EplaceConfig { enable_preconditioner: false, ..c }),
    ("filler", |c| EplaceConfig { enable_filler_phase: false, ..c }),
    ("tetris", |c| EplaceConfig { use_abacus: false, ..c }),
    // Grid resolution: the clamps force the dimension away from √n.
    ("grid_half", |c| EplaceConfig { grid_max: 32, ..c }),
    ("grid_double", |c| EplaceConfig { grid_min: 128, grid_max: 256, ..c }),
    ("epsilon_0.5", |c| EplaceConfig { epsilon: 0.5, ..c }),
    ("max_backtracks_1", |c| EplaceConfig { max_backtracks: 1, ..c }),
];

/// One flow: a circuit, and the placer that runs it.
pub struct Flow {
    group: &'static str,
    arm: &'static str,
    circuit: BenchmarkConfig,
    /// The baseline's global placement; `None` runs the ePlace flow.
    baseline: Option<&'static dyn GlobalPlacer>,
    cfg: EplaceConfig,
}

/// Every flow a claim reads, each once. With `smoke`, only the smallest
/// circuit of each table, with every placer and (for Table III) every
/// ablation, and the figure flow.
pub fn flows(smoke: bool) -> Vec<Flow> {
    let flow = |group, arm, circuit: &BenchmarkConfig, baseline, cfg| Flow {
        group,
        arm,
        circuit: circuit.clone(),
        baseline,
        cfg,
    };
    let (mut flows, mut ablations) = (Vec::new(), Vec::new());
    for (group, scale, suite) in TABLES {
        let circuits = suite(scale);
        let smallest = circuits.iter().map(|c| c.std_cells).min();
        for (i, circuit) in circuits.iter().enumerate() {
            if smoke && Some(circuit.std_cells) != smallest {
                continue;
            }
            for placer in BASELINES {
                let cfg = EplaceConfig::fast();
                flows.push(flow(group, placer.name(), circuit, Some(placer), cfg));
            }
            flows.push(flow(group, EPLACE, circuit, None, EplaceConfig::fast()));
            if group == TABLE3 && i < ABLATION_CIRCUITS {
                for (key, make) in ABLATIONS {
                    let cfg = make(EplaceConfig::fast());
                    ablations.push(flow(ABLATION, key, circuit, None, cfg));
                }
            }
        }
    }
    flows.append(&mut ablations);
    let figure = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(FIGURE_SCALE);
    flows.push(flow(FIGURES, EPLACE, &figure, None, EplaceConfig::fast()));
    flows
}

impl Flow {
    /// The id of the flow's run: `group/circuit/arm`.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.group, self.circuit.name, self.arm)
    }

    /// Runs the flow on a freshly generated copy of its circuit and
    /// returns its `BENCH_paper.json` record: HPWL, scaled HPWL, overflow
    /// and legality; mGP's iterations, stop reason and backtracks per
    /// iteration for ePlace; the figure quantities for the figure flow.
    /// The clocks, and only they, end in `seconds`: the flow's (placement
    /// and legalization, not generation), then mGP's split for ePlace or
    /// global placement's and its line search's for a baseline.
    pub fn run(&self) -> String {
        let mut design = self.circuit.generate();
        let result = |hpwl, overflow, legal| {
            Record::new("run")
                .str_field("id", &self.id())
                .f64_field("hpwl", hpwl)
                .f64_field("scaled_hpwl", scaled_hpwl(hpwl, overflow))
                .f64_field("overflow", overflow)
                .bool_field("legal", legal)
        };
        let t = Instant::now();
        let record = match self.baseline {
            Some(placer) => {
                let (gp, legal) = place_baseline(placer, &mut design, &self.cfg);
                let seconds = t.elapsed().as_secs_f64();
                result(design.hpwl(), measure_overflow(&design), legal)
                    .f64_field("seconds", seconds)
                    .f64_field("gp_seconds", gp.seconds)
                    .f64_field("line_search_seconds", gp.line_search_seconds)
            }
            None => {
                let report = Placer::new(design, self.cfg.clone())
                    .run()
                    .expect("placement diverged beyond recovery");
                let seconds = t.elapsed().as_secs_f64();
                let legal = report.legalization.is_some();
                let mut r = result(report.final_hpwl, report.final_overflow, legal)
                    .u64_field("mgp_iterations", report.mgp_iterations as u64)
                    .str_field("mgp_stop", report.mgp_stop.key())
                    .f64_field(
                        "backtracks_per_iteration",
                        report.mgp_backtracks_per_iteration,
                    );
                if self.group == FIGURES {
                    r = figures(r, &report);
                }
                let p = &report.mgp_profile;
                r.f64_field("seconds", seconds)
                    .f64_field("mgp_density_seconds", p.density_seconds)
                    .f64_field("mgp_wirelength_seconds", p.wirelength_seconds)
                    .f64_field("mgp_other_seconds", p.other_seconds)
            }
        };
        record.into_line()
    }
}

/// Adds the figure flow's quantities to its record: the mGP iterations
/// whose overlap rose above the previous one's (Figures 2 and 3), HPWL
/// before and after mLG and the macro overlap `O_m` it leaves (Figure 5),
/// and HPWL at cGP's first and last iteration (Figure 6).
fn figures(r: Record, report: &PlacementReport) -> Record {
    let stage = |s| report.trace.iter().filter(move |r| r.stage == s);
    let overlap: Vec<f64> = stage(Stage::Mgp).map(|r| r.overlap).collect();
    let cgp: Vec<f64> = stage(Stage::Cgp).map(|r| r.hpwl).collect();
    let rises = overlap.windows(2).filter(|w| w[1] > w[0]).count();
    let mlg = report.mlg.as_ref().expect("the figure circuit runs mLG");
    r.u64_field("mgp_overlap_rises", rises as u64)
        .f64_field("mlg_hpwl_before", mlg.wirelength_before)
        .f64_field("mlg_hpwl_after", mlg.wirelength_after)
        .f64_field("mlg_macro_overlap_after", mlg.macro_overlap_after)
        .f64_field("cgp_hpwl_before", cgp[0])
        .f64_field("cgp_hpwl_after", cgp[cgp.len() - 1])
}

/// Runs `placer`'s global placement on `design`, then the discrete finish
/// the ePlace flow uses — mLG when macros are movable, then [`run_cdp`] —
/// so every placer is compared under one protocol. Returns the global
/// placement's result and whether legalization succeeded.
pub fn place_baseline(
    placer: &dyn GlobalPlacer,
    design: &mut Design,
    cfg: &EplaceConfig,
) -> (GpResult, bool) {
    let gp = placer.global_place(design);
    if design
        .cells
        .iter()
        .any(|c| c.kind == CellKind::Macro && c.is_movable())
    {
        legalize_macros(design, &cfg.mlg);
    }
    (gp, run_cdp(design, cfg).is_ok())
}

fn parse(doc: &str) -> Result<JsonValue, String> {
    parse_json(doc).map_err(|e| e.to_string())
}

fn num(value: &JsonValue, key: &str) -> f64 {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value.get(key).and_then(JsonValue::as_str).unwrap_or("—")
}

/// The `(group, circuit, arm)` of a run's id.
fn id(run: &JsonValue) -> (&str, &str, &str) {
    let mut parts = text(run, "id").splitn(3, '/');
    let mut next = || parts.next().unwrap_or_default();
    (next(), next(), next())
}

fn select<'a>(runs: &'a [JsonValue], group: &str, arm: &str) -> Vec<&'a JsonValue> {
    let of = |r: &&JsonValue| matches!(id(r), (g, _, a) if g == group && a == arm);
    runs.iter().filter(of).collect()
}

/// The `arm`'s runs in `group`, each beside the ePlace run it is compared
/// with: the same circuit's in the same table, or in Table III for an
/// ablation.
fn pairs<'a>(runs: &'a [JsonValue], group: &str, arm: &str) -> Vec<[&'a JsonValue; 2]> {
    let home = if group == ABLATION { TABLE3 } else { group };
    let eplace = select(runs, home, EPLACE);
    let pair = |r: &'a JsonValue| {
        let same = eplace.iter().find(|e| id(e).1 == id(r).1);
        [r, *same.expect("every compared run has an ePlace run")]
    };
    select(runs, group, arm).into_iter().map(pair).collect()
}

/// Whether a run failed: its legalization did, or, in an ablation
/// comparison, its mGP stopped short of the overflow target.
fn fails(run: &JsonValue, group: &str) -> bool {
    let stop = run.get("mgp_stop").and_then(JsonValue::as_str);
    run.get("legal") != Some(&JsonValue::Bool(true))
        || (group == ABLATION && stop.is_some_and(|s| s != StopReason::Target.key()))
}

fn mean(values: impl Iterator<Item = f64>) -> (f64, usize) {
    let (sum, n) = values.fold((0.0, 0), |(s, n), v| (s + v, n + 1));
    (sum / n as f64, n)
}

/// What a claim measures on the runs, and the reference a value claim's
/// verdict measures distances from. Fields named `…seconds` are clocks,
/// so a measure of one is timed.
#[derive(Debug, Clone, Copy)]
enum Measure {
    /// `100·(r̄ − 1)` %, with r̄ the mean ratio of a field of the `arm`'s
    /// runs to ePlace's over the `group`'s circuits. Reference 0 %.
    Delta(&'static str, &'static str, &'static str),
    /// r̄ itself. Reference 1×.
    Ratio(&'static str, &'static str, &'static str),
    /// The rows of a table on which ePlace has the lowest value of a field
    /// among the legal runs. Reference half the rows.
    Best(&'static str, &'static str),
    /// The % of an ablation's runs that failed. Reference 0 %.
    Failures(&'static str),
    /// Mean mGP backtracks per iteration of the ablations' reference runs.
    /// Reference 0.
    Backtracks,
    /// A field of the figure run. Reference 0.
    Figure(&'static str),
    /// The % change from one field of the figure run to another.
    /// Reference 0 %.
    Change(&'static str, &'static str),
    /// The % share of one field in the sum of others over a group's runs
    /// of an arm. Reference an even split.
    Share(
        &'static str,
        &'static str,
        &'static str,
        &'static [&'static str],
    ),
}

impl Measure {
    fn timed(self) -> bool {
        match self {
            Delta(.., key) | Ratio(.., key) | Best(_, key) | Share(_, _, key, _) => {
                key.ends_with("seconds")
            }
            _ => false,
        }
    }

    /// The measure on `runs`: ours, the reference, the runs (or run
    /// pairs, or rows) averaged, and how many of those read failed. A
    /// quality average leaves the failed ones out of the count averaged, a
    /// timed one keeps them.
    fn of(self, runs: &[JsonValue]) -> (f64, f64, usize, usize) {
        let counted = |rows: &[&JsonValue], group| rows.iter().filter(|r| fails(r, group)).count();
        match self {
            Delta(group, arm, key) | Ratio(group, arm, key) => {
                let pairs = pairs(runs, group, arm);
                let failed = |[r, e]: &&[&JsonValue; 2]| fails(r, group) || fails(e, group);
                let kept = pairs.iter().filter(|p| self.timed() || !failed(p));
                let (r, n) = mean(kept.map(|[r, e]| num(r, key) / num(e, key)));
                let failed = pairs.iter().filter(failed).count();
                match self {
                    Delta(..) => (100.0 * (r - 1.0), 0.0, n, failed),
                    _ => (r, 1.0, n, failed),
                }
            }
            Best(group, key) => {
                let rows = select(runs, group, EPLACE);
                let legal = |r: &&JsonValue| !fails(r, group);
                let rivals = |e: &JsonValue| {
                    let row = |r: &&JsonValue| id(r).0 == group && id(r).1 == id(e).1;
                    let mut rivals = runs.iter().filter(row).filter(legal);
                    rivals.all(|r| num(e, key) <= num(r, key))
                };
                let best = rows.iter().filter(|e| legal(e) && rivals(e)).count();
                let half = rows.len() as f64 / 2.0;
                (best as f64, half, rows.len(), counted(&rows, group))
            }
            Failures(arm) => {
                let rows = select(runs, ABLATION, arm);
                let failed = counted(&rows, ABLATION);
                let share = 100.0 * failed as f64 / rows.len() as f64;
                (share, 0.0, rows.len(), failed)
            }
            Backtracks => {
                let pairs = pairs(runs, ABLATION, ABLATIONS[0].0);
                let rows: Vec<&JsonValue> = pairs.into_iter().map(|[_, e]| e).collect();
                let (rate, n) = mean(rows.iter().map(|r| num(r, "backtracks_per_iteration")));
                (rate, 0.0, n, counted(&rows, ABLATION))
            }
            Figure(key) | Change(_, key) => {
                let run = select(runs, FIGURES, EPLACE)[0];
                let ours = match self {
                    Change(before, _) => 100.0 * (num(run, key) / num(run, before) - 1.0),
                    _ => num(run, key),
                };
                (ours, 0.0, 1, counted(&[run], FIGURES))
            }
            Share(group, arm, part, whole) => {
                let rows = select(runs, group, arm);
                let sum = |key| rows.iter().map(|r| num(r, key)).sum::<f64>();
                let share = 100.0 * sum(part) / whole.iter().copied().map(sum).sum::<f64>();
                let even = 100.0 / whole.len() as f64;
                (share, even, rows.len(), counted(&rows, group))
            }
        }
    }
}

/// What the paper says a claim's measure should be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    /// The value the paper reports.
    Value(f64),
    /// A lower bound the paper's statement sets.
    AtLeast(f64),
    /// An upper bound the paper's statement sets.
    AtMost(f64),
    /// Nothing: one of this reproduction's own design choices.
    Unstated,
}

/// How a measured value compares with the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Same side of the reference, within a factor of 2; or a bound met.
    Reproduces,
    /// Same side of the reference, further than a factor of 2.
    Direction,
    /// At or across the reference; or a bound missed.
    Reversed,
}

impl Verdict {
    /// The verdict as `BENCH_paper.json` writes it.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Reproduces => "reproduces",
            Verdict::Direction => "direction",
            Verdict::Reversed => "reversed",
        }
    }
}

/// The one verdict rule, fixed before any run and the same for every claim.
///
/// A value claim compares distances from the measure's `reference`: 0 %
/// for an overhead or a ΔHPWL, 1× for a ratio, half the rows for "best on
/// k of n", a third for one of three shares. It is
/// [`Verdict::Reversed`] when `ours` equals the reference or lies on the
/// other side of it from `paper`, [`Verdict::Reproduces`] when
/// |ours − reference| is within a factor of 2 of |paper − reference|, and
/// [`Verdict::Direction`] otherwise. A bound claim reproduces when `ours`
/// meets the bound and is reversed when it does not. A claim the paper
/// does not make gets no verdict.
pub fn verdict(paper: Paper, ours: f64, reference: f64) -> Option<Verdict> {
    let (got, want) = (ours - reference, |p: f64| p - reference);
    Some(match paper {
        Value(p) if got * want(p) <= 0.0 => Verdict::Reversed,
        Value(p) if (0.5..=2.0).contains(&(got / want(p))) => Verdict::Reproduces,
        Value(_) => Verdict::Direction,
        AtLeast(bound) if ours >= bound => Verdict::Reproduces,
        AtMost(bound) if ours <= bound => Verdict::Reproduces,
        AtLeast(_) | AtMost(_) => Verdict::Reversed,
        Unstated => return None,
    })
}

/// Every claim `repro` measures: its id, where it is made (the paper's
/// table, figure or section, or DESIGN.md for a design ablation), its
/// unit, what the paper says, and what measures it. The paper's values are
/// the ones EXPERIMENTS.md quotes from its text.
#[rustfmt::skip]
const CLAIMS: &[(&str, &str, &str, Paper, Measure)] = &[
    ("table1/mincut/hpwl", "Table I", "%", Value(21.1), Delta("table1", "mincut", "hpwl")),
    ("table1/quadratic/hpwl", "Table I", "%", Value(2.83), Delta("table1", "quadratic", "hpwl")),
    ("table1/cg-fftpl/hpwl", "Table I", "%", Value(4.70), Delta("table1", "cg-fftpl", "hpwl")),
    ("table1/cg-fftpl/runtime", "Table I", "×", Value(2.21), Ratio("table1", "cg-fftpl", "seconds")),
    ("table1/eplace_best", "Table I", "rows", Value(8.0), Best("table1", "hpwl")),
    ("table2/eplace_best", "Table II", "rows", Value(7.0), Best("table2", "scaled_hpwl")),
    ("table2/quadratic/overflow", "Table II", "×", AtLeast(4.0), Ratio("table2", "quadratic", "overflow")),
    ("table2/bellshape/overflow", "Table II", "×", AtLeast(4.0), Ratio("table2", "bellshape", "overflow")),
    ("table2/cg-fftpl/overflow", "Table II", "×", AtLeast(4.0), Ratio("table2", "cg-fftpl", "overflow")),
    ("table3/bellshape/hpwl", "Table III", "%", Value(7.13), Delta(TABLE3, "bellshape", "hpwl")),
    ("table3/bellshape/runtime", "Table III", "×", Value(1.05), Ratio(TABLE3, "bellshape", "seconds")),
    ("table3/eplace_best", "Table III", "rows", Value(11.0), Best(TABLE3, "hpwl")),
    ("fig2/mgp_overlap_rises", "Figs 2/3", "iterations", AtMost(0.0), Figure("mgp_overlap_rises")),
    ("fig5/mlg_hpwl", "Fig 5", "%", Value(1.56), Change("mlg_hpwl_before", "mlg_hpwl_after")),
    ("fig5/macro_overlap", "Fig 5", "area", AtMost(0.0), Figure("mlg_macro_overlap_after")),
    ("fig6/cgp_hpwl", "Fig 6", "%", Value(-2.05), Change("cgp_hpwl_before", "cgp_hpwl_after")),
    ("fig7/density", "Fig 7", "%", Value(57.0), Share(TABLE3, EPLACE, "mgp_density_seconds", MGP_SPLIT)),
    ("fig7/wirelength", "Fig 7", "%", Value(29.0), Share(TABLE3, EPLACE, "mgp_wirelength_seconds", MGP_SPLIT)),
    ("fig7/other", "Fig 7", "%", Value(14.0), Share(TABLE3, EPLACE, "mgp_other_seconds", MGP_SPLIT)),
    ("line_search/share", "§V-A", "%", AtLeast(60.0), Share("table1", "cg-fftpl", "line_search_seconds", &["gp_seconds"])),
    ("bktrk/hpwl", "§V-C", "%", Value(43.12), Delta(ABLATION, "bktrk", "hpwl")),
    ("bktrk/failures", "§V-C", "% failed", Value(6.25), Failures("bktrk")),
    ("bktrk/rate", "§V-C", "per iteration", Value(1.037), Backtracks),
    ("precond/hpwl", "§V-D", "%", Value(24.63), Delta(ABLATION, "precond", "hpwl")),
    ("precond/failures", "§V-D", "% failed", Value(56.25), Failures("precond")),
    ("filler/hpwl", "§VI-B", "%", Value(6.53), Delta(ABLATION, "filler", "hpwl")),
    ("tetris/hpwl", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "tetris", "hpwl")),
    ("tetris/seconds", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "tetris", "seconds")),
    ("grid_half/hpwl", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "grid_half", "hpwl")),
    ("grid_half/seconds", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "grid_half", "seconds")),
    ("grid_double/hpwl", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "grid_double", "hpwl")),
    ("grid_double/seconds", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "grid_double", "seconds")),
    ("epsilon_0.5/hpwl", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "epsilon_0.5", "hpwl")),
    ("epsilon_0.5/seconds", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "epsilon_0.5", "seconds")),
    ("max_backtracks_1/hpwl", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "max_backtracks_1", "hpwl")),
    ("max_backtracks_1/seconds", "DESIGN.md §7", "%", Unstated, Delta(ABLATION, "max_backtracks_1", "seconds")),
];

/// Every claim measured on `runs` (their [`Flow::run`] records) and judged
/// by [`verdict`], as `BENCH_paper.json` records. A bound or unstated
/// claim records no reference, since its verdict reads none.
pub fn claims(runs: &[String]) -> Vec<String> {
    let parse = |r: &String| parse(r).expect("a run record is JSON");
    let runs: Vec<JsonValue> = runs.iter().map(parse).collect();
    let json_str = |s: Option<&str>| s.map_or("null".into(), |s| format!("\"{s}\""));
    let claim = |&(id, source, unit, paper, measure): &(_, _, _, _, Measure)| {
        let (ours, reference, n, failed) = measure.of(&runs);
        let verdict = verdict(paper, ours, reference).map(Verdict::key);
        let (paper, bound, reference) = match paper {
            Value(p) => (p, None, reference),
            AtLeast(b) => (b, Some("at_least"), f64::NAN),
            AtMost(b) => (b, Some("at_most"), f64::NAN),
            Unstated => (f64::NAN, None, f64::NAN),
        };
        Record::new("claim")
            .str_field("id", id)
            .str_field("source", source)
            .str_field("unit", unit)
            .f64_field("paper", paper)
            .raw_field("bound", &json_str(bound))
            .f64_field("ours", ours)
            .f64_field("reference", reference)
            .u64_field("n", n as u64)
            .u64_field("failed", failed as u64)
            .bool_field("timed", measure.timed())
            .raw_field("verdict", &json_str(verdict))
            .into_line()
    };
    CLAIMS.iter().map(claim).collect()
}

/// Recomputes a `BENCH_paper.json` claim's verdict from its stored numbers
/// and requires it to be the stored one.
pub(crate) fn check_claim(claim: &JsonValue) -> Result<(), String> {
    let [paper, ours, reference] = ["paper", "ours", "reference"].map(|k| num(claim, k));
    if !ours.is_finite() {
        return Err("ours is missing or not a finite number".into());
    }
    let paper = match (
        paper.is_finite(),
        claim.get("bound").and_then(JsonValue::as_str),
    ) {
        (false, None) => Unstated,
        (true, None) if reference.is_finite() => Value(paper),
        (true, Some("at_least")) => AtLeast(paper),
        (true, Some("at_most")) => AtMost(paper),
        _ => return Err("paper, bound and reference do not form a claim".into()),
    };
    let rule = verdict(paper, ours, reference).map(Verdict::key);
    let stored = claim.get("verdict").and_then(JsonValue::as_str);
    if rule != stored {
        return Err(format!("verdict is {stored:?}, the rule gives {rule:?}"));
    }
    Ok(())
}

/// The claims of a `BENCH_paper.json` document as the Markdown table
/// `repro` prints and EXPERIMENTS.md quotes.
pub fn claims_table(doc: &str) -> Result<String, String> {
    let doc = parse(doc)?;
    let claims = doc.get("claims").and_then(JsonValue::as_array);
    let mut table = String::from(
        "| claim | source | paper | ours | unit | verdict |\n|---|---|---|---|---|---|\n",
    );
    for c in claims.ok_or("missing claims array")? {
        let round = |key| match num(c, key) {
            v if v.is_nan() => "—".to_string(),
            v => {
                let v = format!("{v:.3}");
                v.trim_end_matches('0').trim_end_matches('.').to_string()
            }
        };
        let paper = match text(c, "bound") {
            "at_least" => format!("≥ {}", round("paper")),
            "at_most" => format!("≤ {}", round("paper")),
            _ => round("paper"),
        };
        let [id, source, unit, verdict] = ["id", "source", "unit", "verdict"].map(|k| text(c, k));
        let ours = round("ours");
        table.push_str(&format!(
            "| {id} | {source} | {paper} | {ours} | {unit} | {verdict} |\n"
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(id: &str, hpwl: f64, seconds: f64, overflow: f64) -> JsonValue {
        let record = Record::new("run")
            .str_field("id", id)
            .f64_field("hpwl", hpwl)
            .f64_field("overflow", overflow)
            .bool_field("legal", hpwl > 0.0)
            .f64_field("seconds", seconds);
        parse(&record.into_line()).unwrap()
    }

    #[test]
    fn table_averages_ratios_to_eplace_over_defined_rows() {
        let runs = [
            run("t/c1/mincut", 120.0, 1.0, 0.2),
            run("t/c1/failing", 0.0, 4.0, 0.0),
            run("t/c1/ePlace", 100.0, 2.0, 0.1),
            run("t/c2/mincut", 0.0, 3.0, 0.3),
            run("t/c2/failing", 0.0, 4.0, 0.0),
            run("t/c2/ePlace", 200.0, 2.0, 0.1),
        ];
        let of = |m: Measure| {
            let (ours, _, n, failed) = m.of(&runs);
            (format!("{ours:.2}"), n, failed)
        };
        // Failed runs are left out of the quality averages, not the runtime one.
        assert_eq!(of(Delta("t", "mincut", "hpwl")), ("20.00".into(), 1, 1));
        assert_eq!(of(Delta("t", "failing", "hpwl")), ("NaN".into(), 0, 2));
        assert_eq!(of(Delta("t", EPLACE, "hpwl")), ("0.00".into(), 2, 0));
        assert_eq!(of(Ratio("t", "mincut", "seconds")), ("1.00".into(), 2, 1));
        assert_eq!(of(Ratio("t", "failing", "seconds")), ("2.00".into(), 2, 2));
        assert_eq!(of(Ratio("t", EPLACE, "seconds")), ("1.00".into(), 2, 0));
        assert_eq!(of(Ratio("t", "mincut", "overflow")), ("2.00".into(), 1, 1));
        assert_eq!(of(Ratio("t", "failing", "overflow")), ("NaN".into(), 0, 2));
        // A failed run competes on no row.
        assert_eq!(of(Best("t", "hpwl")), ("2.00".into(), 2, 0));
    }

    #[test]
    fn ablations_count_runs_that_miss_the_target_as_failed() {
        let stop = |id, hpwl, stop: StopReason| {
            let record = Record::new("run")
                .str_field("id", id)
                .f64_field("hpwl", hpwl)
                .bool_field("legal", true)
                .str_field("mgp_stop", stop.key());
            parse(&record.into_line()).unwrap()
        };
        let runs = [
            stop("table3/c1/ePlace", 100.0, StopReason::Target),
            stop("table3/c2/ePlace", 100.0, StopReason::Stagnation),
            stop("ablation/c1/bktrk", 110.0, StopReason::Target),
            stop("ablation/c2/bktrk", 150.0, StopReason::Target),
        ];
        // c2's reference stopped on stagnation, so only c1's pair counts.
        let (ours, _, n, failed) = Delta(ABLATION, "bktrk", "hpwl").of(&runs);
        assert_eq!((format!("{ours:.2}"), n, failed), ("10.00".into(), 1, 1));
        assert_eq!(Failures("bktrk").of(&runs).3, 0);
        // Outside an ablation a stagnation stop is no failure.
        assert_eq!(Delta(TABLE3, EPLACE, "hpwl").of(&runs).2, 2);
    }

    #[test]
    fn value_verdicts_compare_distances_from_the_reference() {
        let v = |paper, ours| verdict(Value(paper), ours, 0.0);
        assert_eq!(v(10.0, 10.0), Some(Verdict::Reproduces));
        assert_eq!(v(10.0, 5.0), Some(Verdict::Reproduces), "half is within 2×");
        assert_eq!(v(10.0, 20.0), Some(Verdict::Reproduces), "so is double");
        assert_eq!(v(10.0, 4.9), Some(Verdict::Direction));
        assert_eq!(v(10.0, 25.0), Some(Verdict::Direction));
        assert_eq!(v(-2.0, -1.5), Some(Verdict::Reproduces));
        assert_eq!(
            v(10.0, 0.0),
            Some(Verdict::Reversed),
            "ours at the reference"
        );
        assert_eq!(v(10.0, -3.0), Some(Verdict::Reversed));
        assert_eq!(v(-2.0, 3.0), Some(Verdict::Reversed));
        assert_eq!(verdict(Value(8.0), 4.0, 4.0), Some(Verdict::Reversed));
        assert_eq!(verdict(Value(2.21), 3.5, 1.0), Some(Verdict::Direction));
    }

    #[test]
    fn bound_verdicts_hold_or_reverse_and_unstated_claims_get_none() {
        let v = |paper, ours| verdict(paper, ours, f64::NAN);
        assert_eq!(v(AtLeast(4.0), 4.0), Some(Verdict::Reproduces));
        assert_eq!(v(AtLeast(60.0), 59.9), Some(Verdict::Reversed));
        assert_eq!(v(AtMost(0.0), 0.0), Some(Verdict::Reproduces));
        assert_eq!(v(AtMost(0.0), 2.0), Some(Verdict::Reversed));
        assert_eq!(verdict(Unstated, 1.0, 0.0), None);
    }

    #[test]
    fn claim_ids_are_unique() {
        let mut ids: Vec<_> = CLAIMS.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len());
    }

    #[test]
    fn smoke_flows_are_a_subset_of_the_full_run() {
        let full: Vec<String> = flows(false).iter().map(Flow::id).collect();
        let smoke: Vec<String> = flows(true).iter().map(Flow::id).collect();
        // (8 + 8 + 16) circuits × 5 placers, 6 circuits × 8 ablations, 1 figure flow.
        assert_eq!(full.len(), 209);
        assert_eq!(smoke.len(), 3 * 5 + ABLATIONS.len() + 1);
        assert!(smoke.iter().all(|id| full.contains(id)));
    }

    #[test]
    fn experiments_quotes_the_committed_claims_table() {
        let read = |file| {
            let path = crate::report::repo_root().join(file);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        };
        let table = claims_table(&read("BENCH_paper.json")).unwrap();
        assert!(
            read("EXPERIMENTS.md").contains(&table),
            "EXPERIMENTS.md must quote the claims table of BENCH_paper.json verbatim:\n{table}"
        );
    }
}
