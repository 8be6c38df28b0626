//! `obs_check` — validates an ePlace run journal or job ledger (JSONL).
//!
//! Journal mode (default) checks that every line parses as JSON, that
//! `iter` records carry the full finite metric set, that `recovery` and
//! `stop` records name a stage, iteration and reason (a stop's reason one
//! of the [`StopReason`] keys), that `route` records (one per routability
//! round) carry their integer counts and finite scores, and that the
//! journal ends with exactly one `summary` record whose phase seconds are
//! consistent with its total. CI runs this over the journals of a
//! `--journal` run and a `--routability --journal` run.
//!
//! `--ledger` mode validates an `eplace-serve` job ledger instead. It reads
//! the ledger through the daemon's own [`replay`], which enforces globally
//! strictly-increasing sequence numbers and the required fields per event,
//! and drops a torn tail (bytes after the last newline — the one thing a
//! SIGKILL can leave behind). Every per-job event stream must then obey
//! the daemon's state machine, [`JobEvent::may_follow`] (first event
//! `queued`, nothing after a terminal `done`/`cancelled`/`quarantined`,
//! `retry` only after `failed`, …).
//!
//! ```sh
//! eplace-repro --fast --demo 300 --journal run.jsonl
//! obs_check run.jsonl [--expect-iters N]
//! obs_check --ledger spool/ledger.jsonl
//! ```

use eplace_repro::core::StopReason;
use eplace_repro::obs::json::{parse_json, JsonValue};
use eplace_serve::{replay, JobEvent};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Stats {
    iters: u64,
    recoveries: u64,
    stops: u64,
    routes: u64,
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
                "{path}: OK — {} iter records, {} recoveries, {} stops, {} route rounds, {} phases, {:.3}s total",
                stats.iters,
                stats.recoveries,
                stats.stops,
                stats.routes,
                stats.phases,
                stats.total_seconds
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

fn check_ledger(path: &str) -> Result<String, String> {
    let records = replay(path).map_err(|e| e.to_string())?;
    let mut last: BTreeMap<&str, &JobEvent> = BTreeMap::new();
    for rec in &records {
        let prev = last.get(rec.job.as_str()).copied();
        if !rec.event.may_follow(prev) {
            return Err(format!(
                "seq {}: job `{}` cannot go `{}` -> `{}`",
                rec.seq,
                rec.job,
                prev.map_or("<new>", JobEvent::key),
                rec.event.key()
            ));
        }
        last.insert(&rec.job, &rec.event);
    }
    let done = last
        .values()
        .filter(|e| matches!(e, JobEvent::Done { .. }))
        .count();
    let terminal = last.values().filter(|e| e.is_terminal()).count();
    Ok(format!(
        "{} records, {} jobs ({done} done, {terminal} terminal, {} in flight)",
        records.len(),
        last.len(),
        last.len() - terminal
    ))
}

fn check(path: &str, expect_iters: Option<u64>) -> Result<Stats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut stats = Stats {
        iters: 0,
        recoveries: 0,
        stops: 0,
        routes: 0,
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
                    if !StopReason::ALL.iter().any(|r| r.key() == reason) {
                        return Err(format!("line {no}: unknown stop reason `{reason}`"));
                    }
                    stats.stops += 1;
                } else {
                    stats.recoveries += 1;
                }
            }
            "route" => {
                for key in ["round", "segments", "rerouted", "overflowed_bins"] {
                    u64_field(&value, key, no)?;
                }
                for key in ["routed_wl", "total_overflow", "peak_congestion"] {
                    finite_field(&value, key, no)?;
                }
                stats.routes += 1;
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
