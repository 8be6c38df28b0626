//! The placement service daemon: spool-directory intake, a bounded worker
//! pool, durable per-chunk checkpoints, deadline/retry/quarantine policy,
//! and ledger-driven crash recovery.
//!
//! # Spool layout
//!
//! ```text
//! <spool>/
//!   incoming/        drop `<name>.json` manifests here to submit
//!   jobs/<name>/     manifest.json, job.ckpt, result.json
//!   quarantine/      `<name>.json` reason records for given-up jobs
//!   cancel/          touch `<name>` to request cancellation
//!   ledger.jsonl     the replayable job ledger (see [`crate::ledger`])
//!   stop             touch to make the daemon exit promptly
//! ```
//!
//! # Crash-recovery invariants
//!
//! 1. A checkpoint file is durably on disk (atomic write + fsync) *before*
//!    the ledger records `checkpointed@iter`.
//! 2. A `result.json` is durably on disk before the ledger records `done`.
//! 3. Every ledger append is fsynced before the daemon acts on the
//!    transition.
//! 4. Workers run the placement as fixed-size chunks of iterations with a
//!    checkpoint at every chunk boundary; a resumed run re-enters at a
//!    chunk boundary and therefore replays the *same* chunk sequence as an
//!    uninterrupted run — which is why kill-and-restart produces
//!    bit-identical results (checkpoint/resume itself is trajectory-neutral,
//!    proven by the core's split-run tests).
//!
//! Together these mean SIGKILL at any instant loses at most the work since
//! the last chunk boundary, and never corrupts spool state.

use crate::ledger::{fold, replay, JobEvent, Ledger};
use crate::manifest::JobManifest;
use eplace_core::{
    initial_placement, insert_fillers, load_checkpoint, resume_global_placement,
    run_global_placement, save_checkpoint, CancelToken, EplaceConfig, GpCheckpoint,
    PlacementProblem, Stage, StopReason,
};
use eplace_errors::EplaceError;
use eplace_obs::{write_atomic, Record};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

/// Daemon settings. Everything but the spool root has a serviceable
/// default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Spool root directory (created on startup).
    pub spool: PathBuf,
    /// Concurrent placement workers.
    pub workers: usize,
    /// Scheduler tick interval.
    pub poll_ms: u64,
    /// Iterations per durable checkpoint. Smaller = less work lost on a
    /// crash, more checkpoint I/O. Must match across restarts of the same
    /// spool for the chunk-alignment invariant.
    pub chunk_iters: usize,
    /// Base retry backoff; attempt `n` waits `base << (n-1)`.
    pub backoff_base_ms: u64,
    /// Exit once every known job is terminal and the spool is quiet
    /// (one-shot batch mode; also how CI finishes a restarted daemon).
    pub drain: bool,
}

impl ServeConfig {
    /// Defaults rooted at `spool`.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServeConfig {
            spool: spool.into(),
            workers: 2,
            poll_ms: 10,
            chunk_iters: 25,
            backoff_base_ms: 50,
            drain: false,
        }
    }

    /// `incoming/` — manifest drop box.
    pub fn incoming_dir(&self) -> PathBuf {
        self.spool.join("incoming")
    }

    /// `jobs/<name>/` — a job's working directory.
    pub fn job_dir(&self, name: &str) -> PathBuf {
        self.spool.join("jobs").join(name)
    }

    /// `quarantine/` — reason records for given-up jobs.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.spool.join("quarantine")
    }

    /// `cancel/` — cancellation marker files.
    pub fn cancel_dir(&self) -> PathBuf {
        self.spool.join("cancel")
    }

    /// The job ledger path.
    pub fn ledger_path(&self) -> PathBuf {
        self.spool.join("ledger.jsonl")
    }

    /// The stop marker path.
    pub fn stop_marker(&self) -> PathBuf {
        self.spool.join("stop")
    }
}

/// What a [`serve`] run processed (cumulative for this process only; the
/// ledger is the cross-restart record).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that reached `done`.
    pub done: usize,
    /// Jobs quarantined (budget or deadline exhaustion, corrupt state).
    pub quarantined: usize,
    /// Jobs cancelled via marker.
    pub cancelled: usize,
    /// In-flight jobs resumed from a previous process's checkpoints.
    pub resumed: usize,
}

enum WorkerMsg {
    Checkpointed { job: String, iteration: usize },
    Done { job: String, hpwl: f64 },
    Failed { job: String, reason: String },
    Cancelled { job: String },
}

struct QueuedJob {
    manifest: JobManifest,
}

struct Running {
    handle: std::thread::JoinHandle<()>,
    cancel: CancelToken,
    started: Instant,
    deadline: Option<Duration>,
    deadline_hit: bool,
    user_cancelled: bool,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> EplaceError {
    EplaceError::io(path.display().to_string(), e.to_string())
}

/// The chunked placement a worker thread runs: fixed-size iteration chunks
/// with an atomic checkpoint after each, reporting chunk boundaries, the
/// final result, failures, and cancellation through `tx`. Any send failure
/// means the scheduler is gone (daemon stopping); the worker just exits.
fn run_job(
    manifest: JobManifest,
    job_dir: PathBuf,
    resume: Option<GpCheckpoint>,
    cancel: CancelToken,
    chunk_iters: usize,
    tx: Sender<WorkerMsg>,
) {
    let job = manifest.name.clone();
    let outcome = run_job_inner(&manifest, &job_dir, resume, cancel, chunk_iters, &tx);
    let msg = match outcome {
        Ok(hpwl) => WorkerMsg::Done { job, hpwl },
        Err(e) if e.is_cancelled() => WorkerMsg::Cancelled { job },
        Err(e) => WorkerMsg::Failed {
            job,
            reason: e.to_string(),
        },
    };
    let _ = tx.send(msg);
}

fn run_job_inner(
    manifest: &JobManifest,
    job_dir: &Path,
    resume: Option<GpCheckpoint>,
    cancel: CancelToken,
    chunk_iters: usize,
    tx: &Sender<WorkerMsg>,
) -> Result<f64, EplaceError> {
    let mut design = manifest.design()?;
    let mut cfg: EplaceConfig = manifest.config();
    cfg.cancel = cancel;
    // The pre-GP pipeline is deterministic in (design, seed), so a resumed
    // attempt rebuilds the identical cost landscape and the checkpoint
    // replays the identical trajectory.
    initial_placement(&mut design);
    insert_fillers(&mut design, cfg.seed);
    let problem = PlacementProblem::all_movables(&design);
    let ckpt_path = job_dir.join("job.ckpt");
    let chunk = chunk_iters.max(1);

    let mut trace = Vec::new();
    let mut ck = resume;
    loop {
        let done_iters = ck.as_ref().map_or(0, |c| c.iteration);
        let ask = chunk.min(cfg.max_iterations.saturating_sub(done_iters));
        if ask == 0 {
            // Resumed a job whose final checkpoint already sits at the
            // iteration cap: the crash landed after the final checkpoint.
            // If the result was published too, keep it byte for byte.
            if let Some(hpwl) = read_result_hpwl(&job_dir.join("result.json")) {
                return Ok(hpwl);
            }
            let hpwl = design.hpwl();
            write_result(job_dir, manifest, hpwl, f64::NAN, done_iters, false)?;
            return Ok(hpwl);
        }
        let out = match &ck {
            None => run_global_placement(
                &mut design,
                &problem,
                &cfg,
                Stage::Mgp,
                None,
                Some(ask),
                &mut trace,
            )?,
            Some(c) => resume_global_placement(
                &mut design,
                &problem,
                &cfg,
                Stage::Mgp,
                c,
                Some(ask),
                &mut trace,
            )?,
        };
        let converged = out.stop == StopReason::Target;
        let Some(new_ck) = out.checkpoint else {
            // Empty problem fast path: nothing to checkpoint.
            write_result(
                job_dir,
                manifest,
                out.final_hpwl,
                out.final_overflow,
                0,
                converged,
            )?;
            return Ok(out.final_hpwl);
        };
        let finished = converged || out.iterations < ask || new_ck.iteration >= cfg.max_iterations;
        if finished {
            // Result *before* the final checkpoint: a crash between the two
            // re-runs the last chunk on resume and rewrites the identical
            // result, instead of stranding a final checkpoint without one
            // (invariant 2 of the module docs).
            write_result(
                job_dir,
                manifest,
                out.final_hpwl,
                out.final_overflow,
                new_ck.iteration,
                converged,
            )?;
        }
        // Durability order: checkpoint on disk *before* the scheduler can
        // ledger it (invariant 1 of the module docs).
        save_checkpoint(&ckpt_path, &new_ck)?;
        let _ = tx.send(WorkerMsg::Checkpointed {
            job: manifest.name.clone(),
            iteration: new_ck.iteration,
        });
        if finished {
            return Ok(out.final_hpwl);
        }
        ck = Some(new_ck);
    }
}

/// The job's published result line. No timestamps or attempt counts: a
/// kill-resumed job must reproduce this file byte for byte, which the
/// resilience tests assert.
fn write_result(
    job_dir: &Path,
    manifest: &JobManifest,
    hpwl: f64,
    overflow: f64,
    iterations: usize,
    converged: bool,
) -> Result<(), EplaceError> {
    let line = Record::new("result")
        .str_field("job", &manifest.name)
        .f64_field("hpwl", hpwl)
        .f64_field("overflow", overflow)
        .u64_field("iterations", iterations as u64)
        .bool_field("converged", converged)
        .into_line();
    let path = job_dir.join("result.json");
    write_atomic(&path, format!("{line}\n").as_bytes()).map_err(|e| io_err(&path, e))
}

fn read_result_hpwl(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    eplace_obs::json::parse_json(&text)
        .ok()?
        .get("hpwl")?
        .as_f64()
        .filter(|h| h.is_finite())
}

/// Scheduler state for one [`serve`] run.
struct Daemon<'a> {
    cfg: &'a ServeConfig,
    ledger: Ledger,
    queue: VecDeque<QueuedJob>,
    backoff: Vec<(Instant, QueuedJob)>,
    running: BTreeMap<String, Running>,
    attempts: BTreeMap<String, usize>,
    known: BTreeMap<String, bool>, // job -> is_terminal
    tx: Sender<WorkerMsg>,
    rx: std::sync::mpsc::Receiver<WorkerMsg>,
    summary: ServeSummary,
}

impl Daemon<'_> {
    fn ledger_append(&mut self, job: &str, event: &JobEvent) -> Result<(), EplaceError> {
        self.ledger.append(job, event)?;
        self.known.insert(job.to_string(), event.is_terminal());
        Ok(())
    }

    fn quarantine(&mut self, job: &str, reason: &str) -> Result<(), EplaceError> {
        self.ledger_append(
            job,
            &JobEvent::Quarantined {
                reason: reason.to_string(),
            },
        )?;
        self.summary.quarantined += 1;
        let line = Record::new("quarantine")
            .str_field("job", job)
            .str_field("reason", reason)
            .into_line();
        let path = self.cfg.quarantine_dir().join(format!("{job}.json"));
        write_atomic(&path, format!("{line}\n").as_bytes()).map_err(|e| io_err(&path, e))?;
        Ok(())
    }

    /// Rebuilds queue/attempt state from the ledger after a restart
    /// (invariant: every non-terminal job is either re-queued or
    /// quarantined with a recorded reason — never silently dropped).
    fn recover(&mut self) -> Result<(), EplaceError> {
        let records = replay(self.cfg.ledger_path())?;
        for (job, status) in fold(&records) {
            self.known.insert(job.clone(), status.is_terminal());
            self.attempts.insert(job.clone(), status.attempts);
            if status.is_terminal() {
                continue;
            }
            let manifest_path = self.cfg.job_dir(&job).join("manifest.json");
            let manifest = match JobManifest::load(&manifest_path) {
                Ok(m) => JobManifest {
                    name: job.clone(),
                    ..m
                },
                Err(e) => {
                    self.quarantine(&job, &format!("unrecoverable after restart: {e}"))?;
                    continue;
                }
            };
            match status.last {
                JobEvent::Queued | JobEvent::Retry { .. } => {
                    self.queue.push_back(QueuedJob { manifest });
                }
                JobEvent::Failed { reason, .. } => {
                    // Crashed between `failed` and the retry/quarantine
                    // decision: re-decide it now.
                    let attempts = status.attempts;
                    if attempts <= manifest.max_retries {
                        self.ledger_append(
                            &job,
                            &JobEvent::Retry {
                                attempt: attempts + 1,
                                backoff_ms: 0,
                            },
                        )?;
                        self.queue.push_back(QueuedJob { manifest });
                    } else {
                        self.quarantine(
                            &job,
                            &format!("retry budget exhausted ({attempts} attempts): {reason}"),
                        )?;
                    }
                }
                JobEvent::Started { .. }
                | JobEvent::Checkpointed { .. }
                | JobEvent::Resumed { .. } => {
                    // In flight when the previous process died: resume from
                    // the newest durable checkpoint (0 = from scratch).
                    self.ledger_append(
                        &job,
                        &JobEvent::Resumed {
                            iteration: status.checkpoint_iteration.unwrap_or(0),
                        },
                    )?;
                    self.summary.resumed += 1;
                    self.queue.push_back(QueuedJob { manifest });
                }
                JobEvent::Done { .. } | JobEvent::Cancelled | JobEvent::Quarantined { .. } => {}
            }
        }
        Ok(())
    }

    /// Moves new manifests from `incoming/` into the spool and queues them.
    fn intake(&mut self) -> Result<(), EplaceError> {
        let incoming = self.cfg.incoming_dir();
        let Ok(entries) = std::fs::read_dir(&incoming) else {
            return Ok(());
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for path in files {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("job")
                .to_string();
            if self.known.contains_key(&name) {
                // Duplicate name: park the new manifest without touching the
                // existing job's ledger stream.
                let dup = self.cfg.quarantine_dir().join(format!("{name}.dup.json"));
                std::fs::rename(&path, &dup).map_err(|e| io_err(&path, e))?;
                continue;
            }
            match JobManifest::load(&path) {
                Ok(manifest) => {
                    let dir = self.cfg.job_dir(&name);
                    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
                    let dest = dir.join("manifest.json");
                    std::fs::rename(&path, &dest).map_err(|e| io_err(&path, e))?;
                    self.ledger_append(&name, &JobEvent::Queued)?;
                    self.queue.push_back(QueuedJob { manifest });
                }
                Err(e) => {
                    self.ledger_append(&name, &JobEvent::Queued)?;
                    self.quarantine(&name, &format!("manifest rejected: {e}"))?;
                    let parked = self
                        .cfg
                        .quarantine_dir()
                        .join(format!("{name}.rejected.json"));
                    let _ = std::fs::rename(&path, &parked);
                }
            }
        }
        Ok(())
    }

    /// Applies `cancel/` marker files to queued and running jobs.
    fn apply_cancel_markers(&mut self) -> Result<(), EplaceError> {
        let dir = self.cfg.cancel_dir();
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return Ok(());
        };
        let mut names: Vec<(String, PathBuf)> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| (n.to_string(), p.clone()))
            })
            .collect();
        names.sort();
        for (name, marker) in names {
            if let Some(run) = self.running.get_mut(&name) {
                run.user_cancelled = true;
                run.cancel.cancel();
                // Marker removed when the worker confirms; keep it so a
                // crash mid-cancel re-applies on restart.
                continue;
            }
            if let Some(idx) = self.queue.iter().position(|q| q.manifest.name == name) {
                self.queue.remove(idx);
                self.ledger_append(&name, &JobEvent::Cancelled)?;
                self.summary.cancelled += 1;
            } else if let Some(idx) = self
                .backoff
                .iter()
                .position(|(_, q)| q.manifest.name == name)
            {
                self.backoff.remove(idx);
                self.ledger_append(&name, &JobEvent::Cancelled)?;
                self.summary.cancelled += 1;
            }
            let _ = std::fs::remove_file(&marker);
        }
        Ok(())
    }

    /// Cancels running jobs that blew their wall-clock deadline.
    fn enforce_deadlines(&mut self) {
        for run in self.running.values_mut() {
            if let Some(limit) = run.deadline {
                if !run.deadline_hit && !run.user_cancelled && run.started.elapsed() > limit {
                    run.deadline_hit = true;
                    run.cancel.cancel();
                }
            }
        }
    }

    fn finish_running(&mut self, job: &str) {
        if let Some(run) = self.running.remove(job) {
            let _ = run.handle.join();
        }
        let _ = std::fs::remove_file(self.cfg.cancel_dir().join(job));
    }

    /// Drains worker messages, appending the transitions they prove.
    fn process_messages(&mut self) -> Result<(), EplaceError> {
        // Collect first: handling a message appends to the ledger and joins
        // threads, which must not hold the receiver borrow.
        let msgs: Vec<WorkerMsg> = self.rx.try_iter().collect();
        for msg in msgs {
            match msg {
                WorkerMsg::Checkpointed { job, iteration } => {
                    self.ledger_append(&job, &JobEvent::Checkpointed { iteration })?;
                }
                WorkerMsg::Done { job, hpwl } => {
                    self.ledger_append(&job, &JobEvent::Done { hpwl })?;
                    self.summary.done += 1;
                    self.finish_running(&job);
                }
                WorkerMsg::Cancelled { job } => {
                    let deadline_hit = self
                        .running
                        .get(&job)
                        .is_some_and(|r| r.deadline_hit && !r.user_cancelled);
                    if deadline_hit {
                        let limit = self
                            .running
                            .get(&job)
                            .and_then(|r| r.deadline)
                            .map_or(0.0, |d| d.as_secs_f64());
                        self.quarantine(&job, &format!("deadline exceeded ({limit}s)"))?;
                    } else {
                        self.ledger_append(&job, &JobEvent::Cancelled)?;
                        self.summary.cancelled += 1;
                    }
                    self.finish_running(&job);
                }
                WorkerMsg::Failed { job, reason } => {
                    let attempts = self.attempts.get(&job).copied().unwrap_or(1);
                    self.ledger_append(
                        &job,
                        &JobEvent::Failed {
                            reason: reason.clone(),
                            attempt: attempts,
                        },
                    )?;
                    self.finish_running(&job);
                    let manifest_path = self.cfg.job_dir(&job).join("manifest.json");
                    let max_retries = JobManifest::load(&manifest_path)
                        .map(|m| m.max_retries)
                        .unwrap_or(0);
                    if attempts <= max_retries {
                        let backoff_ms = self.cfg.backoff_base_ms << (attempts - 1).min(16);
                        self.ledger_append(
                            &job,
                            &JobEvent::Retry {
                                attempt: attempts + 1,
                                backoff_ms,
                            },
                        )?;
                        if let Ok(m) = JobManifest::load(&manifest_path) {
                            let manifest = JobManifest {
                                name: job.clone(),
                                ..m
                            };
                            self.backoff.push((
                                Instant::now() + Duration::from_millis(backoff_ms),
                                QueuedJob { manifest },
                            ));
                        } else {
                            self.quarantine(&job, "manifest unreadable for retry")?;
                        }
                    } else {
                        self.quarantine(
                            &job,
                            &format!("retry budget exhausted ({attempts} attempts): {reason}"),
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Promotes retry jobs whose backoff has elapsed.
    fn promote_backoff(&mut self) {
        let now = Instant::now();
        let mut idx = 0;
        while idx < self.backoff.len() {
            if self.backoff[idx].0 <= now {
                let (_, job) = self.backoff.remove(idx);
                self.queue.push_back(job);
            } else {
                idx += 1;
            }
        }
    }

    /// Fills free worker slots from the queue.
    fn start_jobs(&mut self) -> Result<(), EplaceError> {
        while self.running.len() < self.cfg.workers.max(1) {
            let Some(queued) = self.queue.pop_front() else {
                break;
            };
            let manifest = queued.manifest;
            let name = manifest.name.clone();
            let job_dir = self.cfg.job_dir(&name);
            std::fs::create_dir_all(&job_dir).map_err(|e| io_err(&job_dir, e))?;
            let ckpt_path = job_dir.join("job.ckpt");
            let resume = if ckpt_path.exists() {
                match load_checkpoint(&ckpt_path) {
                    Ok(ck) => Some(ck),
                    Err(e) => {
                        // A corrupt checkpoint is never silently recomputed:
                        // quarantine so an operator sees it.
                        self.quarantine(&name, &format!("checkpoint unusable: {e}"))?;
                        continue;
                    }
                }
            } else {
                None
            };
            let attempt = self.attempts.get(&name).copied().unwrap_or(0) + 1;
            self.attempts.insert(name.clone(), attempt);
            self.ledger_append(&name, &JobEvent::Started { attempt })?;
            let cancel = CancelToken::new();
            let deadline = manifest.deadline_secs.map(Duration::from_secs_f64);
            let tx = self.tx.clone();
            let chunk = self.cfg.chunk_iters;
            let token = cancel.clone();
            let handle =
                std::thread::spawn(move || run_job(manifest, job_dir, resume, token, chunk, tx));
            self.running.insert(
                name,
                Running {
                    handle,
                    cancel,
                    started: Instant::now(),
                    deadline,
                    deadline_hit: false,
                    user_cancelled: false,
                },
            );
        }
        Ok(())
    }

    /// Stop-marker shutdown: crash-only semantics. Running jobs are asked to
    /// stop at the next iteration boundary and their last durable chunk
    /// checkpoint stands — *no* terminal ledger event is written, so a later
    /// daemon resumes them exactly like after a real crash.
    fn stop(mut self) -> ServeSummary {
        for run in self.running.values() {
            run.cancel.cancel();
        }
        for (_, run) in std::mem::take(&mut self.running) {
            let _ = run.handle.join();
        }
        self.summary
    }

    fn idle(&self) -> bool {
        self.queue.is_empty() && self.backoff.is_empty() && self.running.is_empty()
    }
}

/// Runs the daemon until the stop marker appears (or, in
/// [`ServeConfig::drain`] mode, until all known work is terminal).
///
/// # Errors
///
/// [`EplaceError::Io`]/[`EplaceError::Job`] on spool or ledger failures the
/// daemon cannot serve through (ledger writes are load-bearing). Individual
/// job failures never abort the daemon — they retry or quarantine.
pub fn serve(cfg: &ServeConfig) -> Result<ServeSummary, EplaceError> {
    for dir in [
        cfg.spool.clone(),
        cfg.incoming_dir(),
        cfg.spool.join("jobs"),
        cfg.quarantine_dir(),
        cfg.cancel_dir(),
    ] {
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    }
    let ledger = Ledger::open(cfg.ledger_path())?;
    let (tx, rx) = channel();
    let mut daemon = Daemon {
        cfg,
        ledger,
        queue: VecDeque::new(),
        backoff: Vec::new(),
        running: BTreeMap::new(),
        attempts: BTreeMap::new(),
        known: BTreeMap::new(),
        tx,
        rx,
        summary: ServeSummary::default(),
    };
    daemon.recover()?;
    loop {
        if cfg.stop_marker().exists() {
            return Ok(daemon.stop());
        }
        daemon.intake()?;
        daemon.apply_cancel_markers()?;
        daemon.enforce_deadlines();
        daemon.process_messages()?;
        daemon.promote_backoff();
        daemon.start_jobs()?;
        if cfg.drain && daemon.idle() {
            return Ok(daemon.summary);
        }
        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
    }
}
