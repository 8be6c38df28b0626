//! In-process daemon tests: intake, completion, retry/quarantine policy,
//! deadlines, cancellation, stop-marker resume, and rejected inputs.

use eplace_benchgen::BenchmarkConfig;
use eplace_serve::{fold, replay, serve, JobEvent, ServeConfig};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eplace_serve_{tag}_{}_{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("incoming")).unwrap();
    dir
}

fn submit(dir: &Path, name: &str, body: &str) {
    std::fs::write(dir.join("incoming").join(format!("{name}.json")), body).unwrap();
}

fn wait_for(path: &Path, needle: &str, timeout: Duration) {
    let start = Instant::now();
    loop {
        if std::fs::read_to_string(path)
            .map(|t| t.contains(needle))
            .unwrap_or(false)
        {
            return;
        }
        assert!(
            start.elapsed() < timeout,
            "timed out waiting for {needle:?} in {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A small healthy job: converges or caps quickly.
const HEALTHY: &str =
    r#"{"demo": {"cells": 140, "seed": 3}, "max_iterations": 40, "target_overflow": 0.3}"#;

#[test]
fn drain_completes_submitted_jobs_and_ledger_replays_clean() {
    let dir = spool("drain");
    submit(&dir, "alpha", HEALTHY);
    submit(
        &dir,
        "beta",
        r#"{"demo": {"cells": 120, "seed": 8}, "max_iterations": 30, "target_overflow": 0.3}"#,
    );
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 10;
    let summary = serve(&cfg).unwrap();
    assert_eq!(summary.done, 2);
    assert_eq!(summary.quarantined, 0);

    let jobs = fold(&replay(cfg.ledger_path()).unwrap());
    for name in ["alpha", "beta"] {
        assert!(
            matches!(jobs[name].last, JobEvent::Done { hpwl } if hpwl.is_finite()),
            "{name}: {:?}",
            jobs[name].last
        );
        let result = cfg.job_dir(name).join("result.json");
        let text = std::fs::read_to_string(&result).unwrap();
        assert!(text.contains("\"hpwl\":"), "{text}");
        assert!(cfg.job_dir(name).join("job.ckpt").exists());
        assert!(cfg.job_dir(name).join("manifest.json").exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a record without its newline. A restart must
/// cut that torn tail before it appends, or its first record lands glued to
/// the tail and the restart after that finds a corrupt line.
#[test]
fn torn_ledger_record_survives_two_restarts() {
    let dir = spool("torn");
    submit(&dir, "first", HEALTHY);
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 10;
    assert_eq!(serve(&cfg).unwrap().done, 1);
    let mut ledger = std::fs::OpenOptions::new()
        .append(true)
        .open(cfg.ledger_path())
        .unwrap();
    ledger
        .write_all(br#"{"type":"job","seq":99,"job":"b","ev"#)
        .unwrap();
    drop(ledger);
    for name in ["second", "third"] {
        submit(&dir, name, HEALTHY);
        assert_eq!(serve(&cfg).unwrap().done, 1, "restart for {name}");
    }

    let records = replay(cfg.ledger_path()).unwrap();
    let mut last: BTreeMap<&str, &JobEvent> = BTreeMap::new();
    for rec in &records {
        let prev = last.get(rec.job.as_str()).copied();
        assert!(rec.event.may_follow(prev), "{prev:?} -> {rec:?}");
        last.insert(&rec.job, &rec.event);
    }
    assert_eq!(last.len(), 3, "{last:?}");
    for name in ["first", "second", "third"] {
        assert!(matches!(last[name], JobEvent::Done { .. }), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_job_is_quarantined_while_healthy_job_completes() {
    let dir = spool("poison");
    // Repeating NaN fault at gradient evaluation 3: every attempt exhausts
    // the sentinel's rollback budget, so the daemon's retry budget (1 retry)
    // drains and the job is quarantined.
    submit(
        &dir,
        "poison",
        r#"{"demo": {"cells": 120, "seed": 5}, "max_iterations": 40,
            "fault_nan_at": 3, "fault_repeat": true, "max_retries": 1}"#,
    );
    submit(&dir, "healthy", HEALTHY);
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 10;
    cfg.backoff_base_ms = 10;
    let summary = serve(&cfg).unwrap();
    assert_eq!(summary.done, 1, "healthy job must complete");
    assert_eq!(summary.quarantined, 1);

    let jobs = fold(&replay(cfg.ledger_path()).unwrap());
    assert!(matches!(jobs["healthy"].last, JobEvent::Done { .. }));
    assert!(
        matches!(&jobs["poison"].last, JobEvent::Quarantined { reason }
            if reason.contains("retry budget exhausted")),
        "{:?}",
        jobs["poison"].last
    );
    assert_eq!(jobs["poison"].attempts, 2, "initial attempt + 1 retry");
    let reason_file = cfg.quarantine_dir().join("poison.json");
    assert!(reason_file.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_exceeded_job_is_quarantined() {
    let dir = spool("deadline");
    // Big enough that 30 ms elapse long before the iteration cap.
    submit(
        &dir,
        "slow",
        r#"{"demo": {"cells": 900, "seed": 2}, "max_iterations": 3000,
            "target_overflow": 0.0001, "deadline_secs": 0.03}"#,
    );
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 5;
    cfg.poll_ms = 5;
    let summary = serve(&cfg).unwrap();
    assert_eq!(summary.quarantined, 1);
    let jobs = fold(&replay(cfg.ledger_path()).unwrap());
    assert!(
        matches!(&jobs["slow"].last, JobEvent::Quarantined { reason }
            if reason.contains("deadline exceeded")),
        "{:?}",
        jobs["slow"].last
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_marker_stops_a_running_job() {
    let dir = spool("cancel");
    submit(
        &dir,
        "longjob",
        r#"{"demo": {"cells": 900, "seed": 7}, "max_iterations": 3000,
            "target_overflow": 0.0001}"#,
    );
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 5;
    cfg.poll_ms = 5;
    let ledger_path = cfg.ledger_path();
    let cancel_dir = cfg.cancel_dir();
    let handle = std::thread::spawn(move || serve(&cfg).unwrap());
    // Cancel once the job is provably running.
    wait_for(
        &ledger_path,
        "\"event\":\"started\"",
        Duration::from_secs(60),
    );
    while !cancel_dir.exists() {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::fs::write(cancel_dir.join("longjob"), b"").unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.cancelled, 1);
    let jobs = fold(&replay(&ledger_path).unwrap());
    assert_eq!(jobs["longjob"].last, JobEvent::Cancelled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_marker_preserves_inflight_work_and_resume_is_bit_identical() {
    // Reference: one uninterrupted daemon run.
    let job = r#"{"demo": {"cells": 200, "seed": 11}, "max_iterations": 60,
                  "target_overflow": 0.0001}"#;
    let ref_dir = spool("stopref");
    submit(&ref_dir, "job1", job);
    let mut ref_cfg = ServeConfig::new(&ref_dir);
    ref_cfg.drain = true;
    ref_cfg.chunk_iters = 8;
    assert_eq!(serve(&ref_cfg).unwrap().done, 1);
    let ref_result = std::fs::read(ref_cfg.job_dir("job1").join("result.json")).unwrap();
    let ref_ckpt = std::fs::read(ref_cfg.job_dir("job1").join("job.ckpt")).unwrap();

    // Victim: same manifest, daemon stopped mid-job via the stop marker
    // (crash-only shutdown: no terminal event, checkpoint stands).
    let vic_dir = spool("stopvic");
    submit(&vic_dir, "job1", job);
    let mut vic_cfg = ServeConfig::new(&vic_dir);
    vic_cfg.chunk_iters = 8;
    vic_cfg.poll_ms = 2;
    let ledger_path = vic_cfg.ledger_path();
    let stop = vic_cfg.stop_marker();
    let serve_cfg = vic_cfg.clone();
    let handle = std::thread::spawn(move || serve(&serve_cfg).unwrap());
    wait_for(
        &ledger_path,
        "\"event\":\"checkpointed\"",
        Duration::from_secs(60),
    );
    std::fs::write(&stop, b"").unwrap();
    handle.join().unwrap();

    let jobs = fold(&replay(&ledger_path).unwrap());
    assert!(
        !jobs["job1"].is_terminal(),
        "stop must not terminate the job: {:?}",
        jobs["job1"].last
    );

    // Restart in drain mode: recovery resumes from the durable checkpoint
    // and the finished artifacts are byte-identical to the reference.
    std::fs::remove_file(&stop).unwrap();
    let mut resume_cfg = vic_cfg.clone();
    resume_cfg.drain = true;
    let summary = serve(&resume_cfg).unwrap();
    assert_eq!(summary.resumed, 1);
    assert_eq!(summary.done, 1);
    let vic_result = std::fs::read(vic_cfg.job_dir("job1").join("result.json")).unwrap();
    let vic_ckpt = std::fs::read(vic_cfg.job_dir("job1").join("job.ckpt")).unwrap();
    assert_eq!(vic_result, ref_result, "result.json must be bit-identical");
    assert_eq!(vic_ckpt, ref_ckpt, "final checkpoint must be bit-identical");

    let records = replay(&ledger_path).unwrap();
    assert!(records
        .iter()
        .any(|r| matches!(r.event, JobEvent::Resumed { .. })));
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&vic_dir);
}

#[test]
fn invalid_manifest_is_quarantined_not_fatal() {
    let dir = spool("badmanifest");
    submit(&dir, "broken", r#"{"this is not": "a job"}"#);
    submit(&dir, "fine", HEALTHY);
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 10;
    let summary = serve(&cfg).unwrap();
    assert_eq!(summary.done, 1);
    assert_eq!(summary.quarantined, 1);
    let jobs = fold(&replay(cfg.ledger_path()).unwrap());
    assert!(
        matches!(&jobs["broken"].last, JobEvent::Quarantined { reason }
        if reason.contains("manifest rejected"))
    );
    assert!(cfg.quarantine_dir().join("broken.rejected.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_aux_design_is_quarantined_with_the_readers_message() {
    let dir = spool("badaux");
    // A design whose first net weighs -1000, and one whose first node is
    // `nan` wide: the reader rejects both before any placement starts.
    let design = BenchmarkConfig::ispd05_like("bad", 3).scale(140).generate();
    for (name, ext, edit) in [("weight", "wts", "-1000"), ("width", "nodes", "nan")] {
        let bench = dir.join("bench").join(name);
        let aux = eplace_bookshelf::write_aux(&design, &bench, "d").unwrap();
        let path = bench.join(format!("d.{ext}"));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // The first record (after the banner, comment, blank and
        // `Key : value` header lines) carries the edited number in column 2.
        let first = lines
            .iter()
            .position(|l| {
                let t = l.trim();
                !(t.is_empty() || t.starts_with('#') || t.starts_with("UCLA") || t.contains(':'))
            })
            .unwrap();
        let mut toks: Vec<&str> = lines[first].split_whitespace().collect();
        toks[1] = edit;
        lines[first] = toks.join(" ");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let job = format!(
            r#"{{"aux": "{}", "max_iterations": 40, "max_retries": 0}}"#,
            aux.display()
        );
        submit(&dir, name, &job);
    }
    submit(&dir, "healthy", HEALTHY);
    let mut cfg = ServeConfig::new(&dir);
    cfg.drain = true;
    cfg.chunk_iters = 10;
    let summary = serve(&cfg).unwrap();
    assert_eq!(summary.done, 1, "healthy job must complete");
    assert_eq!(summary.quarantined, 2);

    let jobs = fold(&replay(cfg.ledger_path()).unwrap());
    assert!(matches!(jobs["healthy"].last, JobEvent::Done { .. }));
    let reason = |job: &str| match &jobs[job].last {
        JobEvent::Quarantined { reason } => reason.clone(),
        other => panic!("{job}: expected quarantine, got {other:?}"),
    };
    let weight = reason("weight");
    assert!(
        weight.contains("invalid design: net 0 (") && weight.ends_with(") has weight -1000"),
        "{weight}"
    );
    let width = reason("width");
    assert!(
        width.ends_with("nodes:6: expected number, got `nan`"),
        "{width}"
    );
    for name in ["weight", "width"] {
        assert!(cfg.quarantine_dir().join(format!("{name}.json")).exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
