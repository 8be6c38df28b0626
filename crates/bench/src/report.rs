//! The plumbing every bench and repro binary shares: the flag parser
//! ([`Args`]), the `BENCH_*.json` writer ([`emit`]) with each file's checks
//! ([`GP`], [`PEKO`], [`ROUTE`], [`PAPER`], [`SCALE`]), and the smoke runs'
//! drift check against the committed files ([`check_smoke`]).

use eplace_core::MAX_HPWL_COST;
use eplace_obs::json::{parse_json, JsonValue};
use eplace_obs::Record;
use std::path::PathBuf;
use std::str::FromStr;

/// Command-line flags: `--key value` pairs and bare `--switch`es, checked
/// against the keys the binary declares. A repeated key keeps its last
/// value.
#[derive(Debug)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `argv` (without the program name) against the declared
    /// `keys`; an undeclared key or a positional argument is an error. A
    /// token after a key is that key's value unless it starts with `--`.
    pub fn parse(argv: impl IntoIterator<Item = String>, keys: &[&str]) -> Result<Args, String> {
        let mut argv = argv.into_iter().peekable();
        let mut flags = Vec::new();
        while let Some(arg) = argv.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if !keys.contains(&key) {
                return Err(format!(
                    "unknown flag --{key}; expected --{}",
                    keys.join(", --")
                ));
            }
            let value = argv.next_if(|v| !v.starts_with("--"));
            flags.push((key.to_string(), value));
        }
        Ok(Args { flags })
    }

    /// Parses the process arguments against `keys` and reads them with
    /// `read`. Exits 2 with a message on any error, so a mistyped flag or
    /// value never runs with a silent default.
    pub fn from_env<T>(keys: &[&str], read: impl FnOnce(&Args) -> Result<T, String>) -> T {
        match Args::parse(std::env::args().skip(1), keys).and_then(|args| read(&args)) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    fn last(&self, key: &str) -> Option<&Option<String>> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the bare switch `--key` was given; an error if it has a value.
    pub fn switch(&self, key: &str) -> Result<bool, String> {
        match self.last(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => Err(format!("--{key} takes no value, got `{v}`")),
        }
    }

    /// The parsed value of `--key`, `None` when the flag is absent; an
    /// error when the value is missing or does not parse as `T`.
    pub fn optional<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.last(key) {
            None => Ok(None),
            Some(None) => Err(format!("--{key} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("bad --{key} value `{v}`: {e}")),
        }
    }

    /// [`Args::optional`], with `default` when the flag is absent.
    pub fn value<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.optional(key)?.unwrap_or(default))
    }
}

/// One `BENCH_*.json` file at the repository root and the invariants its
/// writer guarantees: `check_suite` on every entry of `suites`, then
/// `check_doc` on the whole document.
#[derive(Debug)]
pub struct BenchFile {
    /// The writing binary, which is also the document's `type`.
    pub bin: &'static str,
    file: &'static str,
    /// The fields that name one of the file's records, which [`compare`]
    /// matches a `--smoke` rerun on. Empty for a file whose smoke records
    /// are not committed.
    identity: &'static [&'static str],
    check_suite: fn(&JsonValue) -> Result<(), String>,
    check_doc: fn(&JsonValue) -> Result<(), String>,
}

/// `bench_gp`: finite positive step quantiles in order, one
/// `nesterov_step` span call per timed step, the hot-path spans, child
/// spans covering at least [`MIN_STEP_COVERAGE`] of every suite's step, and
/// a spectral engine-v2 transform round no slower than v1.
pub const GP: BenchFile = BenchFile {
    bin: "bench_gp",
    file: "BENCH_gp.json",
    identity: &[],
    check_suite: check_gp_suite,
    check_doc: check_gp_transform,
};

/// `bench_peko`: every ratio finite and ≥ 1 from a positive optimum.
pub const PEKO: BenchFile = BenchFile {
    bin: "bench_peko",
    file: "BENCH_peko.json",
    identity: &["cells", "seed"],
    check_suite: check_peko_suite,
    check_doc: |_| Ok(()),
};

/// `bench_route`: finite scorecards, inflation never worse than none, and
/// the HPWL cost within the routability loop's budget.
pub const ROUTE: BenchFile = BenchFile {
    bin: "bench_route",
    file: "BENCH_route.json",
    identity: &["cells", "seed"],
    check_suite: check_route_suite,
    check_doc: |_| Ok(()),
};

/// `repro`: every run's quality fields finite, and every claim's verdict
/// the one [`crate::paper::verdict`] gives its stored numbers.
pub const PAPER: BenchFile = BenchFile {
    bin: "repro",
    file: "BENCH_paper.json",
    identity: &["id"],
    check_suite: check_paper_run,
    check_doc: check_paper_claims,
};

/// `bench_scale`: every size's flow legal with positive timings, HPWL and
/// peak RSS, sizes ascending, and the `global_swap` growth ratio the one its
/// two largest sizes give.
pub const SCALE: BenchFile = BenchFile {
    bin: "bench_scale",
    file: "BENCH_scale.json",
    identity: &[],
    check_suite: check_scale_suite,
    check_doc: check_scale_growth,
};

impl BenchFile {
    /// Where the file lives: `out` when given, else the repository root.
    pub fn path(&self, out: Option<String>) -> PathBuf {
        out.map(PathBuf::from)
            .unwrap_or_else(|| repo_root().join(self.file))
    }
}

/// Parses `doc`, requires a non-empty `suites` array and runs `bench`'s
/// checks; the first violation is the error.
fn validate(bench: &BenchFile, doc: &str) -> Result<(), String> {
    let parsed = parse_json(doc).map_err(|e| format!("{} is not valid JSON: {e}", bench.file))?;
    let suites = parsed
        .get("suites")
        .and_then(JsonValue::as_array)
        .ok_or("missing suites array")?;
    if suites.is_empty() {
        return Err("suites array is empty".into());
    }
    suites.iter().try_for_each(bench.check_suite)?;
    (bench.check_doc)(&parsed)
}

/// Appends the `suites` array to `head` (a `Record::new(bench.bin)` with
/// the run's settings), validates the document and writes it atomically to
/// `out`, or to the repository root when `out` is `None`. Exits 1, leaving
/// any previous file in place, when validation fails.
///
/// A `smoke` run never writes the committed file: when the file holds its
/// records (the bench has identity fields) they are [`check_smoke`]ed
/// against it, and otherwise the document is validated and written only to
/// `out`.
pub fn emit(bench: &BenchFile, head: Record, suites: &[String], smoke: bool, out: Option<String>) {
    if smoke && !bench.identity.is_empty() {
        return check_smoke(bench, suites, out);
    }
    let doc = head
        .raw_field("suites", &format!("[{}]", suites.join(",")))
        .into_line();
    if let Err(e) = validate(bench, &doc) {
        eprintln!("{}: self-validation failed: {e}", bench.bin);
        std::process::exit(1);
    }
    if smoke && out.is_none() {
        println!("{}: result validated, not written", bench.bin);
        return;
    }
    let out = bench.path(out);
    eplace_obs::write_atomic(&out, format!("{doc}\n").as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!(
        "{}: validated result written to {}",
        bench.bin,
        out.display()
    );
}

/// Checks rerun `records` against `doc`, a committed file of `bench`'s:
/// each record must equal the committed record with the same identity
/// fields in every field, nested ones included, as written — except the
/// clocks, the keys ending in `seconds`. The error names the first record
/// and field path that differ, or a record the file lacks.
fn compare(bench: &BenchFile, records: &[String], doc: &str) -> Result<(), String> {
    let doc = parse_json(doc).map_err(|e| format!("{} is not valid JSON: {e}", bench.file))?;
    let committed = doc
        .get("suites")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    for record in records {
        let record = parse_json(record).map_err(|e| e.to_string())?;
        let label = bench
            .identity
            .iter()
            .map(|key| format!("{key}={}", show(record.get(key))))
            .collect::<Vec<_>>()
            .join(" ");
        let same = |old: &&JsonValue| bench.identity.iter().all(|k| old.get(k) == record.get(k));
        let old = committed
            .iter()
            .find(same)
            .ok_or_else(|| format!("{label}: no such record in the committed file"))?;
        first_difference(&record, old, "").map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}

/// The first field, by its `/`-joined path after `prefix`, at which the
/// objects `now` and `then` differ, recursing into nested objects and
/// skipping the keys that end in `seconds`.
fn first_difference(now: &JsonValue, then: &JsonValue, prefix: &str) -> Result<(), String> {
    let keys = |value: &JsonValue| match value {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    for key in keys(now).into_iter().chain(keys(then)) {
        let path = format!("{prefix}{key}");
        match (now.get(&key), then.get(&key)) {
            _ if key.ends_with("seconds") => {}
            (Some(a @ JsonValue::Object(_)), Some(b @ JsonValue::Object(_))) => {
                first_difference(a, b, &format!("{path}/"))?
            }
            (a, b) if a != b => {
                return Err(format!("{path} is {}, committed {}", show(a), show(b)))
            }
            _ => {}
        }
    }
    Ok(())
}

/// A JSON value as a diagnostic shows it.
fn show(value: Option<&JsonValue>) -> String {
    match value {
        Some(JsonValue::Number(v)) => v.to_string(),
        Some(JsonValue::String(s)) => s.clone(),
        Some(JsonValue::Bool(b)) => b.to_string(),
        Some(v) => format!("{v:?}"),
        None => "absent".into(),
    }
}

/// Ends a `--smoke` run whose records the committed file holds: compares
/// `records` with the file at `bench.path(out)` in every field, nested ones
/// included, except the clocks (the keys ending in `seconds`), and writes
/// nothing. Exits 1 naming the first record and field that differ.
pub fn check_smoke(bench: &BenchFile, records: &[String], out: Option<String>) {
    let path = bench.path(out);
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
    if let Err(e) = doc.and_then(|doc| compare(bench, records, &doc)) {
        eprintln!("{} --smoke: {e}", bench.bin);
        std::process::exit(1);
    }
    println!(
        "{} --smoke: {} record(s) match {}",
        bench.bin,
        records.len(),
        path.display()
    );
}

pub(crate) fn repo_root() -> PathBuf {
    // crates/bench → repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The number at `obj.key`; an error when it is missing or not finite
/// (the writer turns non-finite values into `null`).
fn finite(obj: &JsonValue, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("{key} is missing or not a finite number"))
}

fn positive(obj: &JsonValue, key: &str) -> Result<f64, String> {
    match finite(obj, key)? {
        v if v > 0.0 => Ok(v),
        v => Err(format!("{key} = {v} is not positive")),
    }
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing {key}"))
}

/// The least share of `nesterov_step`'s time its direct child spans must
/// account for in every `bench_gp` suite: 5 points below the lowest
/// suite's measured coverage (97.5 %, at 4 000 cells, in two full runs).
pub const MIN_STEP_COVERAGE: f64 = 0.925;

/// The share of `nesterov_step`'s time its direct child spans
/// (`nesterov_step/<name>`) account for, from a suite's `spans` object.
pub fn step_coverage(spans: &JsonValue) -> Result<f64, String> {
    let JsonValue::Object(members) = spans else {
        return Err("spans is not an object".into());
    };
    let step = finite(field(spans, "nesterov_step")?, "total_ns")?;
    let mut children = 0.0;
    for (path, span) in members {
        if path
            .strip_prefix("nesterov_step/")
            .is_some_and(|name| !name.contains('/'))
        {
            children += finite(span, "total_ns").map_err(|e| format!("span {path}: {e}"))?;
        }
    }
    Ok(children / step)
}

fn check_gp_suite(suite: &JsonValue) -> Result<(), String> {
    let p10 = positive(suite, "p10_step_ns")?;
    let median = positive(suite, "median_step_ns")?;
    let p90 = positive(suite, "p90_step_ns")?;
    if !(p10 <= median && median <= p90) {
        return Err(format!(
            "step quantiles out of order: p10 {p10}, median {median}, p90 {p90}"
        ));
    }
    let spans = field(suite, "spans")?;
    let samples = positive(suite, "samples")?;
    let calls = finite(field(spans, "nesterov_step")?, "calls")?;
    if calls != samples {
        return Err(format!(
            "nesterov_step ran {calls} times under the recorder for {samples} timed steps"
        ));
    }
    for path in [
        "nesterov_step",
        "nesterov_step/density_solve",
        "nesterov_step/density_sample",
    ] {
        positive(field(spans, path)?, "total_ns").map_err(|e| format!("span {path}: {e}"))?;
    }
    let coverage = step_coverage(spans)?;
    if coverage < MIN_STEP_COVERAGE {
        return Err(format!(
            "nesterov_step's child spans cover {:.1} % of it, below the {:.1} % floor",
            100.0 * coverage,
            100.0 * MIN_STEP_COVERAGE
        ));
    }
    Ok(())
}

fn check_gp_transform(doc: &JsonValue) -> Result<(), String> {
    let transform = field(doc, "transform")?;
    for key in ["v1_median_ns", "v2_median_ns"] {
        positive(transform, key).map_err(|e| format!("transform: {e}"))?;
    }
    let speedup = finite(transform, "speedup")?;
    if speedup < 1.0 {
        return Err(format!(
            "engine v2 transform round regressed: v2/v1 speedup {speedup:.3} < 1.0"
        ));
    }
    Ok(())
}

fn check_peko_suite(suite: &JsonValue) -> Result<(), String> {
    positive(suite, "optimal_hpwl")?;
    let placers = field(suite, "placers")?;
    for name in ["eplace", "cg-fftpl", "mincut"] {
        let ratio = finite(field(placers, name)?, "ratio").map_err(|e| format!("{name}: {e}"))?;
        if ratio < 1.0 - 1e-9 {
            return Err(format!(
                "{name} ratio = {ratio} < 1: a legal placement cannot beat a valid certificate"
            ));
        }
        if ratio > 1e3 {
            return Err(format!("{name} ratio = {ratio} is degenerate"));
        }
    }
    Ok(())
}

fn check_route_suite(suite: &JsonValue) -> Result<(), String> {
    let budget = MAX_HPWL_COST;
    let arms = field(suite, "arms")?;
    let mut overflow = [0.0f64; 2];
    for (slot, name) in ["without_inflation", "with_inflation"]
        .into_iter()
        .enumerate()
    {
        let arm = field(arms, name)?;
        let num = |key| finite(arm, key).map_err(|e| format!("{name}: {e}"));
        num("peak_congestion")?;
        num("hpwl")?;
        let wl = num("routed_wl")?;
        if wl <= 0.0 {
            return Err(format!("{name} routed_wl = {wl} must be positive"));
        }
        overflow[slot] = num("total_overflow")?;
        if overflow[slot] < 0.0 {
            return Err(format!("{name} total_overflow = {} < 0", overflow[slot]));
        }
        let cost = num("hpwl_cost")?;
        if cost > budget + 1e-9 {
            return Err(format!(
                "{name} hpwl_cost = {cost} exceeds the {budget} budget"
            ));
        }
    }
    if overflow[1] > overflow[0] + 1e-9 {
        return Err(format!(
            "inflation made routing worse ({} -> {}): the loop must only accept improving rounds",
            overflow[0], overflow[1]
        ));
    }
    Ok(())
}

fn check_scale_suite(suite: &JsonValue) -> Result<(), String> {
    for key in [
        "cells",
        "objects",
        "flow_seconds",
        "mgp_iterations",
        "legal_hpwl",
        "peak_rss_mib",
    ] {
        positive(suite, key)?;
    }
    let stages = field(suite, "stage_seconds")?;
    for stage in ["mgp", "cdp"] {
        positive(stages, stage).map_err(|e| format!("stage_seconds: {e}"))?;
    }
    let spans = field(suite, "span_seconds")?;
    for span in ["global_swap", "legalize_abacus", "detail_place"] {
        positive(spans, span).map_err(|e| format!("span_seconds: {e}"))?;
    }
    if field(suite, "mgp_stop")?.as_str().is_none() {
        return Err("mgp_stop is not a string".into());
    }
    match suite.get("legal").and_then(JsonValue::as_bool) {
        Some(true) => Ok(()),
        _ => Err("the flow did not legalize".into()),
    }
}

fn check_scale_growth(doc: &JsonValue) -> Result<(), String> {
    let suites = field(doc, "suites")?.as_array().unwrap_or_default();
    let cells: Vec<f64> = suites
        .iter()
        .map(|s| finite(s, "cells"))
        .collect::<Result<_, _>>()?;
    if cells.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("sizes are not ascending: {cells:?}"));
    }
    let [.., from, to] = suites else {
        return Err("the growth needs two sizes or more".into());
    };
    let swap = |suite| finite(field(suite, "span_seconds")?, "global_swap");
    let growth = field(doc, "global_swap_growth")?;
    let expected = swap(to)? / swap(from)?;
    let ratio = finite(growth, "seconds_ratio")?;
    if finite(growth, "from_cells")? != finite(from, "cells")?
        || finite(growth, "to_cells")? != finite(to, "cells")?
        || (ratio - expected).abs() > 1e-12 * expected
    {
        return Err(format!(
            "global_swap_growth does not match the two largest sizes (ratio {ratio}, they give {expected})"
        ));
    }
    Ok(())
}

fn check_paper_run(run: &JsonValue) -> Result<(), String> {
    let id = run
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or("a run without an id")?;
    for key in ["hpwl", "scaled_hpwl", "overflow", "seconds"] {
        finite(run, key).map_err(|e| format!("run {id}: {e}"))?;
    }
    match run.get("legal").and_then(JsonValue::as_bool) {
        Some(_) => Ok(()),
        None => Err(format!("run {id}: legal is missing")),
    }
}

fn check_paper_claims(doc: &JsonValue) -> Result<(), String> {
    let claims = field(doc, "claims")?
        .as_array()
        .ok_or("claims is not an array")?;
    if claims.is_empty() {
        return Err("claims array is empty".into());
    }
    for claim in claims {
        let id = claim.get("id").and_then(JsonValue::as_str).unwrap_or("?");
        crate::paper::check_claim(claim).map_err(|e| format!("claim {id}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], keys: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()), keys)
    }

    #[test]
    fn absent_flags_take_their_defaults() {
        let args = parse(&[], &["smoke", "seeds", "out"]).unwrap();
        assert!(!args.switch("smoke").unwrap());
        assert_eq!(args.value("seeds", 3u64).unwrap(), 3);
        assert_eq!(args.optional::<String>("out").unwrap(), None);
    }

    #[test]
    fn typed_values_and_a_bare_switch_parse() {
        let argv = [
            "--scale",
            "250",
            "--smoke",
            "--circuit",
            "ad",
            "--scale",
            "300",
        ];
        let args = parse(&argv, &["scale", "smoke", "circuit"]).unwrap();
        assert_eq!(args.value("scale", 150usize).unwrap(), 300, "last one wins");
        assert!(args.switch("smoke").unwrap());
        assert_eq!(args.optional("circuit").unwrap(), Some("ad".to_string()));
    }

    #[test]
    fn unknown_keys_and_positionals_are_errors() {
        let err = parse(&["--scal", "250"], &["scale"]).unwrap_err();
        assert!(err.contains("--scal") && err.contains("--scale"), "{err}");
        assert!(parse(&["250"], &["scale"]).is_err());
    }

    #[test]
    fn bad_or_missing_values_are_errors() {
        let args = parse(&["--scale", "big", "--seeds"], &["scale", "seeds"]).unwrap();
        let err = args.value("scale", 150usize).unwrap_err();
        assert!(err.contains("--scale") && err.contains("big"), "{err}");
        assert!(
            args.value("seeds", 3u64).is_err(),
            "a key without its value"
        );
        let args = parse(&["--smoke", "yes"], &["smoke"]).unwrap();
        assert!(args.switch("smoke").is_err(), "a switch given a value");
    }

    #[test]
    fn committed_bench_files_pass_their_writers_checks() {
        for bench in [&GP, &PEKO, &ROUTE, &PAPER, &SCALE] {
            let path = repo_root().join(bench.file);
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            validate(bench, &doc).unwrap_or_else(|e| panic!("{}: {e}", bench.file));
            assert!(doc.starts_with(&format!("{{\"type\":\"{}\"", bench.bin)));
        }
    }

    #[test]
    fn smoke_records_compare_in_every_field_but_the_clocks() {
        let record = |cells: u32, hpwl: f64, seconds: f64| {
            format!(
                r#"{{"type":"suite","cells":{cells},"seed":7,"placers":{{"eplace":{{"hpwl":{hpwl},"seconds":{seconds}}}}}}}"#
            )
        };
        let records = [record(240, 10.0, 0.5), record(600, 20.0, 0.7)];
        let doc = format!(
            r#"{{"type":"bench_peko","suites":[{}]}}"#,
            records.join(",")
        );
        assert_eq!(
            compare(&PEKO, &records, &doc),
            Ok(()),
            "a file against itself"
        );
        let rerun = [record(600, 20.0, 9.0)];
        assert_eq!(compare(&PEKO, &rerun, &doc), Ok(()), "a nested clock");
        let err = compare(&PEKO, &[record(600, 21.0, 0.7)], &doc).unwrap_err();
        assert_eq!(
            err,
            "cells=600 seed=7: placers/eplace/hpwl is 21, committed 20"
        );
        let err = compare(&PEKO, &[record(300, 10.0, 0.5)], &doc).unwrap_err();
        assert!(err.contains("cells=300 seed=7: no such record"), "{err}");
        let extra = records[0].replace("\"seed\":7", "\"seed\":7,\"rounds\":1");
        let err = compare(&PEKO, &[extra], &doc).unwrap_err();
        assert!(err.contains("rounds is 1, committed absent"), "{err}");
    }

    #[test]
    fn checks_reject_broken_documents() {
        let peko = r#"{"suites":[{"optimal_hpwl":10,"placers":{"eplace":{"ratio":0.5},"cg-fftpl":{"ratio":1.2},"mincut":{"ratio":2}}}]}"#;
        assert!(validate(&PEKO, peko).unwrap_err().contains("cannot beat"));
        assert!(validate(&PEKO, r#"{"suites":[]}"#).is_err());
        assert!(validate(&ROUTE, "{\"suites\":").is_err());
        let gp = r#"{"suites":[{"p10_step_ns":1,"median_step_ns":null}]}"#;
        assert!(validate(&GP, gp).unwrap_err().contains("median_step_ns"));
        let gp = |p10: u32, calls: u32, deposit: u32| {
            format!(
                r#"{{"suites":[{{"samples":10,"p10_step_ns":{p10},"median_step_ns":2,"p90_step_ns":3,"spans":{{"nesterov_step":{{"calls":{calls},"total_ns":100}},"nesterov_step/density_deposit":{{"total_ns":{deposit}}},"nesterov_step/density_deposit/inner":{{"total_ns":50}},"nesterov_step/density_solve":{{"total_ns":40}},"nesterov_step/density_sample":{{"total_ns":10}}}}}}],"transform":{{"v1_median_ns":2,"v2_median_ns":1,"speedup":2}}}}"#
            )
        };
        assert!(validate(&GP, &gp(1, 10, 45)).is_ok());
        let err = validate(&GP, &gp(1, 10, 30)).unwrap_err();
        assert!(
            err.contains("80.0 %") && err.contains("92.5 % floor"),
            "{err}"
        );
        let err = validate(&GP, &gp(4, 10, 45)).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        let err = validate(&GP, &gp(1, 13, 45)).unwrap_err();
        assert!(
            err.contains("13 times") && err.contains("10 timed"),
            "{err}"
        );
        let run = r#"{"id":"t/c/ePlace","hpwl":1,"scaled_hpwl":1,"overflow":0.1,"legal":true,"seconds":1}"#;
        let claim = r#"{"id":"c","paper":4.7,"bound":null,"ours":0.3,"reference":0,"verdict":"reproduces"}"#;
        let paper = |run: &str, claim: &str| format!(r#"{{"claims":[{claim}],"suites":[{run}]}}"#);
        let err = validate(&PAPER, &paper(run, claim)).unwrap_err();
        assert!(err.contains("the rule gives Some(\"direction\")"), "{err}");
        assert!(validate(
            &PAPER,
            &paper(run, &claim.replace("\"reproduces", "\"direction"))
        )
        .is_ok());
        let err = validate(
            &PAPER,
            &paper(&run.replace("\"hpwl\":1", "\"hpwl\":null"), claim),
        )
        .unwrap_err();
        assert!(err.contains("t/c/ePlace") && err.contains("hpwl"), "{err}");

        let suite = |cells: u32, swap: f64| {
            format!(
                r#"{{"cells":{cells},"objects":{cells},"flow_seconds":1,"stage_seconds":{{"mgp":1,"cdp":1}},"span_seconds":{{"global_swap":{swap},"legalize_abacus":1,"detail_place":1}},"mgp_stop":"target","mgp_iterations":9,"legal":true,"legal_hpwl":5,"peak_rss_mib":3}}"#
            )
        };
        let scale = |ratio: f64, suites: [String; 2]| {
            format!(
                r#"{{"global_swap_growth":{{"from_cells":10,"to_cells":20,"seconds_ratio":{ratio}}},"suites":[{}]}}"#,
                suites.join(",")
            )
        };
        assert!(validate(&SCALE, &scale(3.0, [suite(10, 0.5), suite(20, 1.5)])).is_ok());
        let err = validate(&SCALE, &scale(2.0, [suite(10, 0.5), suite(20, 1.5)])).unwrap_err();
        assert!(err.contains("global_swap_growth"), "{err}");
        let err = validate(&SCALE, &scale(3.0, [suite(20, 0.5), suite(10, 1.5)])).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
        let illegal = suite(20, 1.5).replace("\"legal\":true", "\"legal\":false");
        let err = validate(&SCALE, &scale(3.0, [suite(10, 0.5), illegal])).unwrap_err();
        assert!(err.contains("legalize"), "{err}");
    }
}
