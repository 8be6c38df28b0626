//! `eplace-obs` — the workspace's observability substrate.
//!
//! ePlace's convergence story (Nesterov with Lipschitz steplength
//! prediction, the λ ramp, overflow-driven stopping) is only debuggable when
//! every iteration's HPWL, overflow τ, steplength α, backtrack count and
//! λ/γ are observable, and every perf effort needs to know *where* time
//! goes per phase (spectral solve vs. gradient vs. deposit). This crate
//! provides the three layers that make the flow observable without ever
//! touching its numerics:
//!
//! 1. **Spans** — RAII phase timers with nesting
//!    (flow → stage → iteration → kernel). [`Obs::span`] returns a guard;
//!    dropping it records wall-clock and call count under a `/`-joined path
//!    derived from the active span stack of the current thread.
//! 2. **Counters** — named event counts (`iters_mgp`, `backtracks_total`,
//!    …), read back through a deterministic [`Obs::snapshot`] (all maps are
//!    ordered).
//! 3. **Run journal** — JSONL records ([`Record`]) written to a pluggable
//!    [`JournalSink`] (file, in-memory, or nothing), plus an end-of-run
//!    [`Summary`] with a per-phase time breakdown.
//!
//! # Overhead policy
//!
//! The default handle is [`Obs::disabled`]: every call is a branch on an
//! `Option` and returns immediately — no clock reads, no locks, no
//! allocation — so instrumented hot paths cost ~nothing when observability
//! is off and golden traces stay bit-identical (the recorder never feeds
//! back into the computation, so even *enabled* runs change no numerics).
//! [`Obs::metrics`] records spans and counters but drops journal lines;
//! [`Obs::to_file`] / [`Obs::memory`] add a JSONL sink.
//!
//! Instrumentation granularity is bounded below at "one kernel call": spans
//! and counters are recorded per deposit / solve / gradient evaluation /
//! iteration, never per cell or per net. Per-iteration values (HPWL, τ, α,
//! λ, γ, backtracks) travel in journal records, not in the registry.
//!
//! # Thread safety
//!
//! [`Obs`] is a cheap-to-clone handle (`Arc` inside) and is `Send + Sync`;
//! recording locks one mutex (spans, counters or the journal sink) for the
//! duration of one map update or line write.
//! The span *stack* is thread-local: spans opened on a worker thread nest
//! under whatever is open on that worker, not under the spawner.
//!
//! # Examples
//!
//! ```
//! use eplace_obs::Obs;
//!
//! let (obs, journal) = Obs::memory();
//! {
//!     let _flow = obs.span("flow");
//!     let _stage = obs.span("mgp");
//!     obs.add("iters_mgp", 1);
//!     obs.journal(eplace_obs::Record::new("iter").u64_field("iter", 0));
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("iters_mgp"), 1);
//! assert_eq!(snap.span("flow/mgp").unwrap().calls, 1);
//! assert_eq!(journal.lines().len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fsutil;
mod journal;
pub mod json;
mod metrics;
mod report;

pub use fsutil::write_atomic;
pub use journal::{FileSink, JournalSink, MemoryJournal, MemorySink, Record};
pub use metrics::{Snapshot, SpanStat};
pub use report::{PhaseTime, Summary};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

struct Inner {
    spans: Mutex<BTreeMap<String, (u64, u64)>>, // path -> (calls, total_ns)
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// `None` for metrics-only recorders: journal lines are dropped without
    /// being built.
    journal: Option<Mutex<Box<dyn JournalSink>>>,
}

/// Recovers from a poisoned lock: every critical section in this crate is a
/// plain map update that cannot leave the map in a state later reads would
/// misinterpret, so observations keep flowing after a panicking thread
/// rather than poisoning the whole run's telemetry.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The observability handle. Cheap to clone (an `Arc` or nothing), safe to
/// share across threads, and a no-op in its default disabled state — see
/// the crate docs for the full overhead policy.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Obs(disabled)"),
            Some(i) if i.journal.is_some() => f.write_str("Obs(journal)"),
            Some(_) => f.write_str("Obs(metrics)"),
        }
    }
}

impl PartialEq for Obs {
    /// Two handles are equal when they record into the same registry (or
    /// are both disabled) — the config-equality semantics `EplaceConfig`
    /// needs.
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Obs {
    /// The no-op recorder (the default): every API call returns immediately.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Records spans and counters; journal records are dropped unbuilt.
    pub fn metrics() -> Self {
        Obs::with_journal(None)
    }

    /// Records spans, counters, and journal lines into `sink`.
    pub fn with_sink(sink: Box<dyn JournalSink>) -> Self {
        Obs::with_journal(Some(sink))
    }

    /// Journals to a JSONL file at `path`. Lines stream into a sibling
    /// `<path>.tmp` staging file and the complete journal is renamed onto
    /// `path` when the recorder's last handle drops (see [`FileSink`]), so a
    /// crash never leaves a truncated journal at `path`.
    ///
    /// # Errors
    ///
    /// Forwards the [`std::io::Error`] when the staging file cannot be
    /// created.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        Ok(Obs::with_sink(Box::new(FileSink::create(path)?)))
    }

    /// Journals into memory; the returned [`MemoryJournal`] reads the lines
    /// back (tests, in-process consumers).
    pub fn memory() -> (Self, MemoryJournal) {
        let (sink, reader) = MemorySink::new();
        (Obs::with_sink(Box::new(sink)), reader)
    }

    fn with_journal(journal: Option<Box<dyn JournalSink>>) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                spans: Mutex::new(BTreeMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                journal: journal.map(Mutex::new),
            })),
        }
    }

    /// `false` for the disabled handle.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when journal lines reach a real sink — callers use this to
    /// skip building [`Record`]s in metrics-only runs.
    #[inline]
    pub fn journal_active(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.journal.is_some())
    }

    /// Opens a timing span. Drop the guard to record; spans opened while
    /// the guard lives (on the same thread) nest under it, giving
    /// `/`-joined paths like `flow/mgp/iter/density_solve`.
    #[must_use = "a span records on Drop; binding it to _ ends it immediately"]
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => {
                let path = SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    stack.push(name);
                    stack.join("/")
                });
                SpanGuard {
                    active: Some((Arc::clone(inner), path, Instant::now())),
                }
            }
        }
    }

    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            *lock(&inner.counters).entry(name).or_insert(0) += n;
        }
    }

    /// Writes one journal record (a JSONL line). A no-op unless
    /// [`Obs::journal_active`]; guard record construction on that to keep
    /// metrics-only runs allocation-free on this path.
    pub fn journal(&self, record: Record) {
        if let Some(inner) = &self.inner {
            if let Some(journal) = &inner.journal {
                lock(journal).write_line(&record.finish());
            }
        }
    }

    /// Flushes the journal sink (file sinks buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(journal) = &inner.journal {
                lock(journal).flush();
            }
        }
    }

    /// Journal lines/flushes lost to sink I/O failures so far (0 for
    /// disabled, metrics-only, and healthy journaling recorders). Also
    /// surfaced as the `journal/io_errors` counter in [`Obs::snapshot`], so
    /// silent telemetry loss shows up in the end-of-run [`Summary`].
    pub fn journal_io_errors(&self) -> u64 {
        match &self.inner {
            Some(inner) => match &inner.journal {
                Some(journal) => lock(journal).io_errors(),
                None => 0,
            },
            None => 0,
        }
    }

    /// A deterministic point-in-time copy of everything recorded so far
    /// (all collections ordered by name/path).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => Snapshot {
                spans: lock(&inner.spans)
                    .iter()
                    .map(|(path, &(calls, total_ns))| SpanStat {
                        path: path.clone(),
                        calls,
                        total_ns,
                    })
                    .collect(),
                counters: {
                    let mut counters: Vec<(String, u64)> = lock(&inner.counters)
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), v))
                        .collect();
                    if let Some(journal) = &inner.journal {
                        let io_errors = lock(journal).io_errors();
                        counters.push(("journal/io_errors".to_string(), io_errors));
                        counters.sort();
                    }
                    counters
                },
            },
        }
    }

    /// The end-of-run summary (per-phase time breakdown + totals), derived
    /// from the current [`Obs::snapshot`].
    pub fn summary(&self) -> Summary {
        Summary::from_snapshot(&self.snapshot())
    }
}

/// RAII guard returned by [`Obs::span`]; records elapsed wall-clock and one
/// call under the span's path when dropped.
pub struct SpanGuard {
    active: Option<(Arc<Inner>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, path, start)) = self.active.take() {
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            let mut spans = lock(&inner.spans);
            let entry = spans.entry(path).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(elapsed_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_free_and_silent() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.journal_active());
        {
            let _s = obs.span("flow");
            obs.add("c", 3);
            obs.journal(Record::new("iter"));
        }
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty() && snap.counters.is_empty());
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn spans_nest_into_paths() {
        let obs = Obs::metrics();
        {
            let _a = obs.span("flow");
            {
                let _b = obs.span("mgp");
                let _c = obs.span("iter");
            }
            {
                let _b = obs.span("cgp");
            }
        }
        let snap = obs.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["flow", "flow/cgp", "flow/mgp", "flow/mgp/iter"]);
        assert_eq!(snap.span("flow").unwrap().calls, 1);
        // Parent time covers child time.
        assert!(snap.span("flow").unwrap().total_ns >= snap.span("flow/mgp").unwrap().total_ns);
    }

    #[test]
    fn span_calls_accumulate() {
        let obs = Obs::metrics();
        for _ in 0..5 {
            let _s = obs.span("iter");
        }
        assert_eq!(obs.snapshot().span("iter").unwrap().calls, 5);
    }

    #[test]
    fn counters_and_gauges_record() {
        let obs = Obs::metrics();
        obs.add("backtracks_total", 2);
        obs.add("backtracks_total", 3);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("backtracks_total"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::metrics();
        let clone = obs.clone();
        clone.add("c", 1);
        obs.add("c", 1);
        assert_eq!(obs.snapshot().counter("c"), 2);
        assert_eq!(obs, clone);
        assert_ne!(obs, Obs::metrics());
        assert_eq!(Obs::disabled(), Obs::disabled());
        assert_ne!(obs, Obs::disabled());
    }

    #[test]
    fn snapshot_is_deterministic_under_threads() {
        // Counter values and span call counts must not depend on
        // scheduling — only span *durations* may vary.
        let run = || {
            let obs = Obs::metrics();
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let obs = obs.clone();
                    scope.spawn(move || {
                        for i in 0..100 {
                            let _s = obs.span("worker");
                            obs.add("events", 1);
                            obs.add(["even", "odd"][i % 2], t + 1);
                        }
                    });
                }
            });
            let snap = obs.snapshot();
            (
                snap.counter("events"),
                snap.span("worker").unwrap().calls,
                snap.counters.clone(),
            )
        };
        assert_eq!(run(), run());
        assert_eq!(run().0, 400);
    }

    /// A sink that loses every line, for exercising the io_errors plumbing.
    struct LossySink {
        lost: u64,
    }

    impl JournalSink for LossySink {
        fn write_line(&mut self, _line: &str) {
            self.lost += 1;
        }

        fn io_errors(&self) -> u64 {
            self.lost
        }
    }

    #[test]
    fn journal_io_errors_surface_as_metric() {
        assert_eq!(Obs::disabled().journal_io_errors(), 0);
        assert_eq!(Obs::metrics().journal_io_errors(), 0);
        let (obs, _journal) = Obs::memory();
        obs.journal(Record::new("iter"));
        assert_eq!(obs.journal_io_errors(), 0);
        assert_eq!(obs.snapshot().counter("journal/io_errors"), 0);

        let obs = Obs::with_sink(Box::new(LossySink { lost: 0 }));
        obs.journal(Record::new("iter"));
        obs.journal(Record::new("iter"));
        assert_eq!(obs.journal_io_errors(), 2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("journal/io_errors"), 2);
        // The loss also reaches the end-of-run summary via its counters.
        let summary = obs.summary();
        assert!(summary
            .counters
            .iter()
            .any(|(name, n)| name == "journal/io_errors" && *n == 2));
    }

    #[test]
    fn journal_activity_levels() {
        assert!(!Obs::metrics().journal_active());
        assert!(Obs::metrics().is_enabled());
        let (obs, journal) = Obs::memory();
        assert!(obs.journal_active());
        obs.journal(Record::new("iter").u64_field("iter", 1));
        obs.journal(Record::new("summary"));
        obs.flush();
        let lines = journal.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"iter\""));
    }

    #[test]
    fn debug_formats_name_the_mode() {
        assert_eq!(format!("{:?}", Obs::disabled()), "Obs(disabled)");
        assert_eq!(format!("{:?}", Obs::metrics()), "Obs(metrics)");
        assert_eq!(format!("{:?}", Obs::memory().0), "Obs(journal)");
    }
}
