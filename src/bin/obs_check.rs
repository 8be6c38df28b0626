//! `obs_check` — validates an ePlace run journal or job ledger (JSONL).
//!
//! Journal mode (default) checks that every line parses as JSON, that
//! `iter` records carry the full finite metric set, that `recovery` and
//! `stop` records name a stage, iteration and reason (a stop's reason one
//! of [`STOP_REASONS`]), and that the journal
//! ends with exactly one `summary` record whose phase seconds are
//! consistent with its total. CI runs this over the journal produced by a
//! `--journal` run.
//!
//! `--ledger` mode validates an `eplace-serve` job ledger instead: globally
//! strictly-increasing sequence numbers, every per-job event stream obeying
//! the daemon's state machine (first event `queued`, nothing after a
//! terminal `done`/`cancelled`/`quarantined`, `retry` only after `failed`,
//! …), and required fields per event (`checkpointed` carries an iteration,
//! `done` a finite HPWL). A torn final line — the one thing a SIGKILL can
//! leave behind — is tolerated, exactly as the daemon's own replay does.
//!
//! ```sh
//! eplace-repro --fast --demo 300 --journal run.jsonl
//! obs_check run.jsonl [--expect-iters N]
//! obs_check --ledger spool/ledger.jsonl
//! ```

use eplace_repro::obs::json::{parse_json, JsonValue};
use std::process::ExitCode;

/// Why a GP stage may stop, as its `stop` record says.
const STOP_REASONS: [&str; 5] = [
    "target",
    "stagnation",
    "iteration_cap",
    "cancelled",
    "diverged",
];

struct Stats {
    iters: u64,
    recoveries: u64,
    stops: u64,
    total_seconds: f64,
    phases: usize,
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut expect_iters: Option<u64> = None;
    let mut ledger = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--expect-iters" => {
                let v = match it.next() {
                    Some(v) => v,
                    None => return usage("--expect-iters needs a value"),
                };
                expect_iters = match v.parse() {
                    Ok(n) => Some(n),
                    Err(e) => return usage(&format!("bad --expect-iters: {e}")),
                };
            }
            "--ledger" => ledger = true,
            "--help" | "-h" => {
                println!(
                    "usage: obs_check <journal.jsonl> [--expect-iters N] | --ledger <ledger.jsonl>"
                );
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(flag),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return usage("missing journal path");
    };
    if ledger {
        return match check_ledger(&path) {
            Ok(msg) => {
                println!("{path}: OK — {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs_check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match check(&path, expect_iters) {
        Ok(stats) => {
            println!(
                "{path}: OK — {} iter records, {} recoveries, {} stops, {} phases, {:.3}s total",
                stats.iters, stats.recoveries, stats.stops, stats.phases, stats.total_seconds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "obs_check: {msg}\nusage: obs_check <journal.jsonl> [--expect-iters N] | --ledger <ledger.jsonl>"
    );
    ExitCode::FAILURE
}

/// Allowed successor events for each job state (the daemon's state
/// machine; see DESIGN.md §13). Terminal states allow nothing.
fn ledger_successors(state: &str) -> &'static [&'static str] {
    match state {
        "" => &["queued"],
        "queued" => &["started", "cancelled", "quarantined"],
        "started" | "checkpointed" => &[
            "checkpointed",
            "done",
            "failed",
            "cancelled",
            "quarantined",
            "resumed",
        ],
        "resumed" => &["started", "resumed", "cancelled", "quarantined"],
        "failed" => &["retry", "quarantined"],
        "retry" => &["started", "cancelled", "quarantined"],
        _ => &[], // done | cancelled | quarantined: terminal
    }
}

fn check_ledger(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut states: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut last_seq = 0u64;
    let mut records = 0u64;
    let mut torn = false;
    for (idx, line) in lines.iter().enumerate() {
        let no = idx + 1;
        let value = match parse_json(line) {
            Ok(v) => v,
            // A SIGKILL can tear at most the final line; the daemon had not
            // acted on it yet, so it is dropped, not an error.
            Err(_) if no == lines.len() => {
                torn = true;
                break;
            }
            Err(e) => return Err(format!("line {no}: {e}")),
        };
        if str_field(&value, "type", no)? != "job" {
            return Err(format!("line {no}: record type is not `job`"));
        }
        let seq = u64_field(&value, "seq", no)?;
        if seq <= last_seq {
            return Err(format!(
                "line {no}: seq {seq} does not increase past {last_seq}"
            ));
        }
        last_seq = seq;
        let job = str_field(&value, "job", no)?.to_string();
        let event = str_field(&value, "event", no)?;
        let state = states.entry(job.clone()).or_default();
        if !ledger_successors(state).contains(&event) {
            return Err(format!(
                "line {no}: job `{job}` cannot go `{}` -> `{event}`",
                if state.is_empty() { "<new>" } else { state }
            ));
        }
        match event {
            "started" | "failed" | "retry" => {
                let attempt = u64_field(&value, "attempt", no)?;
                if attempt == 0 {
                    return Err(format!("line {no}: attempt must be >= 1"));
                }
            }
            "checkpointed" | "resumed" => {
                u64_field(&value, "iter", no)?;
            }
            "done" => {
                finite_field(&value, "hpwl", no)?;
            }
            _ => {}
        }
        if event == "retry" {
            u64_field(&value, "backoff_ms", no)?;
        }
        if matches!(event, "failed" | "quarantined") {
            str_field(&value, "reason", no)?;
        }
        *state = event.to_string();
        records += 1;
    }
    let mut done = 0usize;
    let mut terminal = 0usize;
    for state in states.values() {
        if state == "done" {
            done += 1;
        }
        if matches!(state.as_str(), "done" | "cancelled" | "quarantined") {
            terminal += 1;
        }
    }
    Ok(format!(
        "{records} records, {} jobs ({done} done, {terminal} terminal, {} in flight){}",
        states.len(),
        states.len() - terminal,
        if torn {
            ", torn final line dropped"
        } else {
            ""
        }
    ))
}

fn check(path: &str, expect_iters: Option<u64>) -> Result<Stats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut stats = Stats {
        iters: 0,
        recoveries: 0,
        stops: 0,
        total_seconds: 0.0,
        phases: 0,
    };
    let mut summaries = 0u64;
    let mut last_kind = String::new();
    for (idx, line) in text.lines().enumerate() {
        let no = idx + 1;
        let value = parse_json(line).map_err(|e| format!("line {no}: {e}"))?;
        let kind = str_field(&value, "type", no)?;
        match kind {
            "iter" => {
                str_field(&value, "stage", no)?;
                u64_field(&value, "iter", no)?;
                u64_field(&value, "backtracks", no)?;
                for key in ["hpwl", "overflow", "alpha", "lambda", "gamma"] {
                    finite_field(&value, key, no)?;
                }
                stats.iters += 1;
            }
            "recovery" | "stop" => {
                str_field(&value, "stage", no)?;
                let reason = str_field(&value, "reason", no)?;
                u64_field(&value, "iter", no)?;
                if kind == "stop" {
                    if !STOP_REASONS.contains(&reason) {
                        return Err(format!("line {no}: unknown stop reason `{reason}`"));
                    }
                    stats.stops += 1;
                } else {
                    stats.recoveries += 1;
                }
            }
            "summary" => {
                summaries += 1;
                stats.total_seconds = finite_field(&value, "total_seconds", no)?;
                let phases = value
                    .get("phases")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {no}: summary lacks a `phases` array"))?;
                stats.phases = phases.len();
                let mut covered = 0.0;
                for phase in phases {
                    str_field(phase, "name", no)?;
                    covered += finite_field(phase, "seconds", no)?;
                }
                // Children never out-time their enclosing root span (small
                // tolerance for clock granularity).
                if covered > stats.total_seconds * 1.001 + 1e-6 {
                    return Err(format!(
                        "line {no}: phase seconds {covered} exceed total {}",
                        stats.total_seconds
                    ));
                }
            }
            other => return Err(format!("line {no}: unknown record type `{other}`")),
        }
        last_kind = kind.to_string();
    }
    if summaries != 1 {
        return Err(format!(
            "expected exactly 1 summary record, found {summaries}"
        ));
    }
    if last_kind != "summary" {
        return Err(format!(
            "journal must end with the summary, ends with `{last_kind}`"
        ));
    }
    if let Some(expected) = expect_iters {
        if stats.iters != expected {
            return Err(format!(
                "expected {expected} iter records, found {}",
                stats.iters
            ));
        }
    }
    Ok(stats)
}

fn str_field<'a>(value: &'a JsonValue, key: &str, no: usize) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("line {no}: missing string field `{key}`"))
}

fn u64_field(value: &JsonValue, key: &str, no: usize) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {no}: missing integer field `{key}`"))
}

fn finite_field(value: &JsonValue, key: &str, no: usize) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("line {no}: missing finite number field `{key}`"))
}
