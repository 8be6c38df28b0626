//! The replayable job ledger: an append-only JSONL log of every job state
//! transition the daemon performs.
//!
//! The ledger is the daemon's source of truth across crashes. Every record
//! is flushed and fsynced before the daemon acts on the transition it
//! describes, and records that reference a checkpoint are only appended
//! *after* the checkpoint file is durably on disk — so on restart, replaying
//! the ledger reconstructs exactly which jobs are terminal, which are
//! in-flight (and from which checkpoint they resume), and which are waiting.
//!
//! Every record is one `line\n`, so a crash — SIGKILL included — that lands
//! mid-append leaves at most a torn tail: bytes after the last newline. The
//! replayer drops that tail, and [`Ledger::open`] cuts it off before the
//! next append, so a new record never lands glued to it. Every
//! newline-terminated line must parse; one that does not is corruption
//! wherever it sits and surfaces as a typed error.

use eplace_errors::EplaceError;
use eplace_obs::json::parse_json;
use eplace_obs::Record;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One job state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Manifest accepted into the spool.
    Queued,
    /// A worker began attempt `attempt` (1-based).
    Started {
        /// Attempt number, 1-based.
        attempt: usize,
    },
    /// A durable checkpoint at `iteration` is on disk (the file was fsynced
    /// before this record was appended).
    Checkpointed {
        /// Global-placement iteration of the checkpoint.
        iteration: usize,
    },
    /// Restart recovery rescheduled this in-flight job; it will resume from
    /// the checkpoint at `iteration` (0 = from scratch).
    Resumed {
        /// Iteration the next attempt resumes from.
        iteration: usize,
    },
    /// A failed attempt earned another try after a backoff.
    Retry {
        /// Attempt number the retry will start (1-based).
        attempt: usize,
        /// Backoff delay before the retry becomes runnable.
        backoff_ms: u64,
    },
    /// Terminal: placement finished; `hpwl` is the committed wirelength.
    Done {
        /// Final HPWL.
        hpwl: f64,
    },
    /// Attempt `attempt` failed with `reason` (not terminal — the scheduler
    /// decides retry vs. quarantine next).
    Failed {
        /// Failure description.
        reason: String,
        /// Attempt that failed, 1-based.
        attempt: usize,
    },
    /// Terminal: cancelled by a spool cancel marker.
    Cancelled,
    /// Terminal: retry budget or deadline exhausted; the job is parked in
    /// `quarantine/` and the daemon keeps serving other jobs.
    Quarantined {
        /// Why the job was given up on.
        reason: String,
    },
}

impl JobEvent {
    /// The `event` discriminator string used on disk.
    pub fn key(&self) -> &'static str {
        match self {
            JobEvent::Queued => "queued",
            JobEvent::Started { .. } => "started",
            JobEvent::Checkpointed { .. } => "checkpointed",
            JobEvent::Resumed { .. } => "resumed",
            JobEvent::Retry { .. } => "retry",
            JobEvent::Done { .. } => "done",
            JobEvent::Failed { .. } => "failed",
            JobEvent::Cancelled => "cancelled",
            JobEvent::Quarantined { .. } => "quarantined",
        }
    }

    /// Terminal events end a job's life; nothing may follow them.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEvent::Done { .. } | JobEvent::Cancelled | JobEvent::Quarantined { .. }
        )
    }

    /// The job state machine (DESIGN.md §13): whether `self` may follow a
    /// job's previous event `prev`, `None` for the job's first event.
    pub fn may_follow(&self, prev: Option<&JobEvent>) -> bool {
        use JobEvent::*;
        match prev {
            None => matches!(self, Queued),
            Some(Queued | Retry { .. }) => {
                matches!(self, Started { .. } | Cancelled | Quarantined { .. })
            }
            Some(Started { .. } | Checkpointed { .. }) => matches!(
                self,
                Checkpointed { .. }
                    | Done { .. }
                    | Failed { .. }
                    | Cancelled
                    | Quarantined { .. }
                    | Resumed { .. }
            ),
            Some(Resumed { .. }) => {
                matches!(
                    self,
                    Started { .. } | Resumed { .. } | Cancelled | Quarantined { .. }
                )
            }
            Some(Failed { .. }) => matches!(self, Retry { .. } | Quarantined { .. }),
            Some(Done { .. } | Cancelled | Quarantined { .. }) => false,
        }
    }
}

/// One ledger line: a sequenced [`JobEvent`] for a named job.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Strictly increasing across the whole ledger (restarts included).
    pub seq: u64,
    /// Job name.
    pub job: String,
    /// The transition.
    pub event: JobEvent,
}

/// Append-side handle. Single-writer by construction: only the scheduler
/// thread appends, so seq order is total without locking.
pub struct Ledger {
    file: std::fs::File,
    path: PathBuf,
    next_seq: u64,
}

impl Ledger {
    /// Opens (or creates) the ledger at `path` for appending, replaying any
    /// existing records so sequence numbers continue where the previous
    /// daemon process stopped. A torn tail — bytes after the last newline,
    /// left by a crash mid-append — is truncated and the cut synced before
    /// anything is appended.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Io`] on filesystem trouble; [`EplaceError::Job`] when
    /// a complete line of the existing ledger is corrupt.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, EplaceError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |e: std::io::Error| EplaceError::io(path.display().to_string(), e.to_string());
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let bytes = std::fs::read(&path).map_err(io_err)?;
        let (records, complete) = parse_ledger(&bytes, &path.display().to_string())?;
        if complete < bytes.len() {
            file.set_len(complete as u64).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        }
        Ok(Ledger {
            file,
            next_seq: records.last().map_or(0, |r| r.seq) + 1,
            path,
        })
    }

    /// Appends one record, flushing and fsyncing before returning, so a
    /// crash after `append` returns can never lose the transition.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Io`] when the write, flush, or fsync fails — ledger
    /// writes are load-bearing (unlike journal telemetry) and must not be
    /// silently dropped.
    pub fn append(&mut self, job: &str, event: &JobEvent) -> Result<u64, EplaceError> {
        let seq = self.next_seq;
        let mut rec = Record::new("job")
            .u64_field("seq", seq)
            .str_field("job", job)
            .str_field("event", event.key());
        rec = match event {
            JobEvent::Started { attempt } => rec.u64_field("attempt", *attempt as u64),
            JobEvent::Checkpointed { iteration } | JobEvent::Resumed { iteration } => {
                rec.u64_field("iter", *iteration as u64)
            }
            JobEvent::Retry {
                attempt,
                backoff_ms,
            } => rec
                .u64_field("attempt", *attempt as u64)
                .u64_field("backoff_ms", *backoff_ms),
            JobEvent::Done { hpwl } => rec.f64_field("hpwl", *hpwl),
            JobEvent::Failed { reason, attempt } => rec
                .str_field("reason", reason)
                .u64_field("attempt", *attempt as u64),
            JobEvent::Quarantined { reason } => rec.str_field("reason", reason),
            JobEvent::Queued | JobEvent::Cancelled => rec,
        };
        let io_err =
            |e: std::io::Error| EplaceError::io(self.path.display().to_string(), e.to_string());
        writeln!(self.file, "{}", rec.into_line()).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.next_seq += 1;
        Ok(seq)
    }
}

fn parse_record(line: &str) -> Result<LedgerRecord, String> {
    let v = parse_json(line).map_err(|e| e.to_string())?;
    if v.get("type").and_then(|t| t.as_str()) != Some("job") {
        return Err("record type is not \"job\"".to_string());
    }
    let seq = v.get("seq").and_then(|s| s.as_u64()).ok_or("missing seq")?;
    let job = v
        .get("job")
        .and_then(|j| j.as_str())
        .ok_or("missing job")?
        .to_string();
    let kind = v
        .get("event")
        .and_then(|e| e.as_str())
        .ok_or("missing event")?;
    let attempt = || {
        v.get("attempt")
            .and_then(|a| a.as_u64())
            .filter(|&a| a >= 1)
            .map(|a| a as usize)
            .ok_or("missing or zero attempt (attempts are 1-based)")
    };
    let iter = || {
        v.get("iter")
            .and_then(|i| i.as_u64())
            .map(|i| i as usize)
            .ok_or("missing iter")
    };
    let reason = || {
        v.get("reason")
            .and_then(|r| r.as_str())
            .map(str::to_string)
            .ok_or("missing reason")
    };
    let event = match kind {
        "queued" => JobEvent::Queued,
        "started" => JobEvent::Started {
            attempt: attempt()?,
        },
        "checkpointed" => JobEvent::Checkpointed { iteration: iter()? },
        "resumed" => JobEvent::Resumed { iteration: iter()? },
        "retry" => JobEvent::Retry {
            attempt: attempt()?,
            backoff_ms: v
                .get("backoff_ms")
                .and_then(|b| b.as_u64())
                .ok_or("missing backoff_ms")?,
        },
        "done" => JobEvent::Done {
            hpwl: v
                .get("hpwl")
                .and_then(|h| h.as_f64())
                .filter(|h| h.is_finite())
                .ok_or("done without a finite hpwl")?,
        },
        "failed" => JobEvent::Failed {
            reason: reason()?,
            attempt: attempt()?,
        },
        "cancelled" => JobEvent::Cancelled,
        "quarantined" => JobEvent::Quarantined { reason: reason()? },
        other => return Err(format!("unknown event `{other}`")),
    };
    Ok(LedgerRecord { seq, job, event })
}

/// Replays the ledger at `path` into its record sequence.
///
/// Records are fsynced one at a time by a single writer, so a crash can
/// leave at most a torn tail: bytes after the last newline, which the
/// daemon had not acted on. That tail is dropped. Every newline-terminated
/// line must parse as a record with a sequence number above the previous
/// one; anything else is corruption.
///
/// # Errors
///
/// [`EplaceError::Io`] when the file cannot be read; [`EplaceError::Job`]
/// (job = the ledger path) on a corrupt line.
pub fn replay(path: impl AsRef<Path>) -> Result<Vec<LedgerRecord>, EplaceError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| EplaceError::io(display.clone(), e.to_string()))?;
    Ok(parse_ledger(&bytes, &display)?.0)
}

/// Parses the newline-terminated lines of a ledger; returns the records and
/// the length of those lines in bytes (the rest is a torn tail). Blank lines
/// are skipped.
fn parse_ledger(bytes: &[u8], display: &str) -> Result<(Vec<LedgerRecord>, usize), EplaceError> {
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| EplaceError::job(display, format!("ledger is not UTF-8: {e}")))?;
    let mut records: Vec<LedgerRecord> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = idx + 1;
        let rec = parse_record(line)
            .map_err(|e| EplaceError::job(display, format!("ledger line {at} is corrupt: {e}")))?;
        if let Some(prev) = records.last() {
            if rec.seq <= prev.seq {
                return Err(EplaceError::job(
                    display,
                    format!(
                        "ledger line {at}: seq {} does not increase past {}",
                        rec.seq, prev.seq
                    ),
                ));
            }
        }
        records.push(rec);
    }
    Ok((records, complete))
}

/// Where a job stands after replaying the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Last event recorded for the job.
    pub last: JobEvent,
    /// Attempts started so far.
    pub attempts: usize,
    /// Iteration of the newest durable checkpoint, if any.
    pub checkpoint_iteration: Option<usize>,
}

impl JobStatus {
    /// Whether the job's life is over (done, cancelled, or quarantined).
    pub fn is_terminal(&self) -> bool {
        self.last.is_terminal()
    }
}

/// Folds a replayed record sequence into per-job status, keyed by job name
/// (ordered, so recovery scheduling is deterministic).
pub fn fold(records: &[LedgerRecord]) -> BTreeMap<String, JobStatus> {
    let mut jobs: BTreeMap<String, JobStatus> = BTreeMap::new();
    for rec in records {
        let entry = jobs.entry(rec.job.clone()).or_insert(JobStatus {
            last: JobEvent::Queued,
            attempts: 0,
            checkpoint_iteration: None,
        });
        match &rec.event {
            JobEvent::Started { attempt } => entry.attempts = (*attempt).max(entry.attempts),
            JobEvent::Checkpointed { iteration } => {
                entry.checkpoint_iteration = Some(*iteration);
            }
            _ => {}
        }
        entry.last = rec.event.clone();
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eplace_ledger_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ledger.jsonl")
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("rt");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&path).unwrap();
        let events = [
            ("a", JobEvent::Queued),
            ("a", JobEvent::Started { attempt: 1 }),
            ("a", JobEvent::Checkpointed { iteration: 10 }),
            (
                "a",
                JobEvent::Failed {
                    reason: "diverged".into(),
                    attempt: 1,
                },
            ),
            (
                "a",
                JobEvent::Retry {
                    attempt: 2,
                    backoff_ms: 50,
                },
            ),
            ("a", JobEvent::Started { attempt: 2 }),
            ("a", JobEvent::Done { hpwl: 123.5 }),
            ("b", JobEvent::Queued),
            ("b", JobEvent::Cancelled),
            (
                "c",
                JobEvent::Quarantined {
                    reason: "deadline exceeded".into(),
                },
            ),
        ];
        for (job, ev) in &events {
            ledger.append(job, ev).unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), events.len());
        for (rec, (job, ev)) in records.iter().zip(&events) {
            assert_eq!(&rec.job, job);
            assert_eq!(&rec.event, ev);
        }
        assert_eq!(records[0].seq, 1);
        assert!(records.windows(2).all(|w| w[1].seq == w[0].seq + 1));

        let jobs = fold(&records);
        assert_eq!(jobs["a"].last, JobEvent::Done { hpwl: 123.5 });
        assert_eq!(jobs["a"].attempts, 2);
        assert_eq!(jobs["a"].checkpoint_iteration, Some(10));
        assert!(jobs["b"].is_terminal());
        assert!(jobs["c"].is_terminal());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seq_continues_across_reopen() {
        let path = tmp("seq");
        let _ = std::fs::remove_file(&path);
        {
            let mut ledger = Ledger::open(&path).unwrap();
            ledger.append("a", &JobEvent::Queued).unwrap();
        }
        {
            let mut ledger = Ledger::open(&path).unwrap();
            ledger
                .append("a", &JobEvent::Started { attempt: 1 })
                .unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_mid_file_corruption_is_an_error() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&path).unwrap();
        ledger.append("a", &JobEvent::Queued).unwrap();
        ledger
            .append("a", &JobEvent::Started { attempt: 1 })
            .unwrap();
        // Simulate a mid-append SIGKILL: half a record, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"job\",\"seq\":3,\"job\":\"a\",\"ev");
        std::fs::write(&path, &text).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);

        // The same garbage mid-file is corruption, not a torn tail.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.insert(1, "{\"type\":\"job\",\"seq".to_string());
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = replay(&path).unwrap_err();
        assert!(matches!(err, EplaceError::Job { .. }));
        assert!(err.to_string().contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_final_line_must_parse_and_open_cuts_a_torn_tail() {
        let path = tmp("tail");
        let queued = "{\"type\":\"job\",\"seq\":1,\"job\":\"a\",\"event\":\"queued\"}\n";
        // A newline-terminated final line is complete: an unknown event in
        // it is corruption, not a torn record.
        let bad = "{\"type\":\"job\",\"seq\":2,\"job\":\"a\",\"event\":\"paused\"}\n";
        std::fs::write(&path, format!("{queued}{bad}")).unwrap();
        let err = replay(&path).unwrap_err();
        assert!(matches!(err, EplaceError::Job { .. }), "{err}");
        assert!(err.to_string().contains("unknown event"), "{err}");

        // Without its newline the same line is a torn tail: replay drops it
        // and open truncates it, so the next record starts on a fresh line.
        std::fs::write(&path, format!("{queued}{}", bad.trim_end())).unwrap();
        assert_eq!(replay(&path).unwrap().len(), 1);
        let mut ledger = Ledger::open(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), queued);
        ledger
            .append("a", &JobEvent::Started { attempt: 1 })
            .unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[1].event, JobEvent::Started { attempt: 1 });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn state_machine_follows_the_daemon() {
        let started = JobEvent::Started { attempt: 1 };
        let failed = JobEvent::Failed {
            reason: "x".into(),
            attempt: 1,
        };
        let retry = JobEvent::Retry {
            attempt: 2,
            backoff_ms: 0,
        };
        assert!(JobEvent::Queued.may_follow(None));
        assert!(!started.may_follow(None));
        assert!(started.may_follow(Some(&JobEvent::Queued)));
        assert!(failed.may_follow(Some(&started)));
        assert!(retry.may_follow(Some(&failed)));
        assert!(!retry.may_follow(Some(&JobEvent::Queued)));
        assert!(started.may_follow(Some(&retry)));
        assert!(!JobEvent::Queued.may_follow(Some(&JobEvent::Done { hpwl: 1.0 })));
    }

    #[test]
    fn non_monotone_seq_is_corruption() {
        let path = tmp("mono");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"job\",\"seq\":2,\"job\":\"a\",\"event\":\"queued\"}\n",
                "{\"type\":\"job\",\"seq\":2,\"job\":\"a\",\"event\":\"started\",\"attempt\":1}\n",
                "{\"type\":\"job\",\"seq\":3,\"job\":\"a\",\"event\":\"cancelled\"}\n",
            ),
        )
        .unwrap();
        let err = replay(&path).unwrap_err();
        assert!(err.to_string().contains("does not increase"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn done_requires_a_finite_hpwl() {
        let path = tmp("hpwl");
        std::fs::write(
            &path,
            concat!(
                "{\"type\":\"job\",\"seq\":1,\"job\":\"a\",\"event\":\"done\",\"hpwl\":null}\n",
                "{\"type\":\"job\",\"seq\":2,\"job\":\"a\",\"event\":\"queued\"}\n",
            ),
        )
        .unwrap();
        let err = replay(&path).unwrap_err();
        assert!(err.to_string().contains("finite hpwl"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
