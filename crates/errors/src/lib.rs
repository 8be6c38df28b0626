//! The workspace-wide structured error layer.
//!
//! Every library crate in the workspace reports failures through
//! [`EplaceError`] instead of panicking; only binaries unwrap at the top level. The variants mirror the
//! layers of the system:
//!
//! * [`EplaceError::Io`] / [`EplaceError::Parse`] — the Bookshelf reader
//!   (file missing, malformed line with file/line context);
//! * [`EplaceError::Validation`] — an input the placer cannot use, naming
//!   one subject: a design the reader's `Design::validate` rejects
//!   (non-finite or non-positive sizes, degenerate rows, negative net
//!   weights, …), or an argument outside its contract;
//! * [`EplaceError::Diverged`] — the global-placement divergence sentinel
//!   exhausted its rollback/retry budget; the [`DivergenceReport`] carries
//!   the trip reason and the best solution metrics observed (the design is
//!   left at that best-so-far placement).
//!
//! This crate sits at the bottom of the dependency graph (no dependencies)
//! so that `bookshelf`, `netlist`, `spectral`, `eplace-core` and `serve` can
//! all share one taxonomy.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

/// Why the divergence sentinel tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceReason {
    /// A gradient component came back NaN/±Inf.
    NonFiniteGradient,
    /// HPWL, overflow, or λ became non-finite.
    NonFiniteMetric,
    /// HPWL exceeded the configured multiple of the stage-initial HPWL.
    HpwlExplosion,
    /// The predicted steplength collapsed to (or below) numerical zero, or
    /// became non-finite.
    SteplengthCollapse,
}

impl fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DivergenceReason::NonFiniteGradient => "non-finite gradient",
            DivergenceReason::NonFiniteMetric => "non-finite HPWL/overflow/lambda",
            DivergenceReason::HpwlExplosion => "HPWL explosion",
            DivergenceReason::SteplengthCollapse => "steplength collapse",
        })
    }
}

/// What the global-placement loop knew when it gave up: the last trip and
/// the best solution seen. The caller's design is left at that best-so-far
/// placement, so a degraded-but-usable layout survives the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Stage name (`mGP`, `cGP`, `fillerGP`).
    pub stage: String,
    /// Logical iteration at the final trip.
    pub iteration: usize,
    /// Total sentinel trips (= rollbacks performed + the final fatal one).
    pub trips: usize,
    /// Configured retry budget that was exhausted.
    pub retry_budget: usize,
    /// Reason of the final trip.
    pub reason: DivergenceReason,
    /// HPWL of the best-so-far solution committed to the design.
    pub best_hpwl: f64,
    /// Density overflow of that solution.
    pub best_overflow: f64,
}

/// Structured error for every layer of the placement flow.
#[derive(Debug, Clone, PartialEq)]
pub enum EplaceError {
    /// Filesystem failure while reading a benchmark.
    Io {
        /// Path being accessed.
        path: String,
        /// OS error description.
        message: String,
    },
    /// Syntax or semantic problem in an input file.
    Parse {
        /// Which file (extension or path).
        file: String,
        /// 1-based line number (0 when not line-specific).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An input the placer cannot use: a design that fails
    /// `Design::validate`, or an argument outside its contract.
    Validation {
        /// What was rejected (`design`, a field or argument name, …).
        subject: String,
        /// Why.
        message: String,
    },
    /// Global placement diverged beyond its rollback/retry budget.
    Diverged(DivergenceReport),
    /// A durable checkpoint could not be decoded: truncated payload, bad
    /// magic/version, checksum mismatch, or inconsistent vector lengths.
    /// Loading a corrupt checkpoint is always this error, never a panic.
    Checkpoint {
        /// Checkpoint path (`"<memory>"` for in-memory decoding).
        path: String,
        /// What failed to decode or verify.
        message: String,
    },
    /// A placement-service job failed daemon-side: unreadable or invalid
    /// manifest, spool I/O trouble, or quarantine after budget exhaustion.
    Job {
        /// Job name (manifest file stem).
        job: String,
        /// Explanation.
        message: String,
    },
    /// A placement stage observed a tripped
    /// cancellation token and stopped cooperatively at an iteration
    /// boundary. The design is left at the best placement seen so far.
    Cancelled {
        /// Stage name (`mGP`, `cGP`, `fillerGP`).
        stage: String,
        /// Logical iteration at which the cancellation was observed.
        iteration: usize,
    },
}

impl fmt::Display for EplaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EplaceError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            EplaceError::Parse {
                file,
                line,
                message,
            } => write!(f, "{file}:{line}: {message}"),
            EplaceError::Validation { subject, message } => {
                write!(f, "invalid {subject}: {message}")
            }
            EplaceError::Diverged(report) => write!(
                f,
                "{} diverged at iteration {} ({}; {} trip(s), retry budget {}); \
                 best-so-far kept: HPWL {:.4e}, overflow {:.4}",
                report.stage,
                report.iteration,
                report.reason,
                report.trips,
                report.retry_budget,
                report.best_hpwl,
                report.best_overflow
            ),
            EplaceError::Checkpoint { path, message } => {
                write!(f, "corrupt checkpoint {path}: {message}")
            }
            EplaceError::Job { job, message } => write!(f, "job `{job}`: {message}"),
            EplaceError::Cancelled { stage, iteration } => {
                write!(f, "{stage} cancelled at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for EplaceError {}

impl EplaceError {
    /// Shorthand for a [`EplaceError::Parse`].
    pub fn parse(file: impl Into<String>, line: usize, message: impl Into<String>) -> Self {
        EplaceError::Parse {
            file: file.into(),
            line,
            message: message.into(),
        }
    }

    /// Shorthand for a [`EplaceError::Io`].
    pub fn io(path: impl Into<String>, message: impl Into<String>) -> Self {
        EplaceError::Io {
            path: path.into(),
            message: message.into(),
        }
    }

    /// `true` when the error is a divergence (the design still carries the
    /// best-so-far placement, so a caller may choose to keep going).
    pub fn is_diverged(&self) -> bool {
        matches!(self, EplaceError::Diverged(_))
    }

    /// Shorthand for a [`EplaceError::Validation`] — the typed rejection
    /// path for unusable designs and contract-violating arguments (e.g. a
    /// non-power-of-two transform size) in library crates that must not
    /// panic.
    pub fn invalid(subject: impl Into<String>, message: impl Into<String>) -> Self {
        EplaceError::Validation {
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// Shorthand for a [`EplaceError::Checkpoint`].
    pub fn checkpoint(path: impl Into<String>, message: impl Into<String>) -> Self {
        EplaceError::Checkpoint {
            path: path.into(),
            message: message.into(),
        }
    }

    /// Shorthand for a [`EplaceError::Job`].
    pub fn job(job: impl Into<String>, message: impl Into<String>) -> Self {
        EplaceError::Job {
            job: job.into(),
            message: message.into(),
        }
    }

    /// `true` when the error is a cooperative cancellation (the design
    /// carries the best-so-far placement; the run can be resumed from its
    /// last checkpoint).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, EplaceError::Cancelled { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = EplaceError::parse("x.nodes", 7, "bad token");
        assert_eq!(e.to_string(), "x.nodes:7: bad token");
        let io = EplaceError::io("/nope", "not found");
        assert!(io.to_string().contains("/nope"));
    }

    #[test]
    fn validation_display_names_subject() {
        let e = EplaceError::invalid("design", "cell 0 (a) has non-positive size");
        assert_eq!(
            e.to_string(),
            "invalid design: cell 0 (a) has non-positive size"
        );
    }

    #[test]
    fn diverged_display_carries_best_metrics() {
        let e = EplaceError::Diverged(DivergenceReport {
            stage: "mGP".into(),
            iteration: 42,
            trips: 4,
            retry_budget: 3,
            reason: DivergenceReason::NonFiniteGradient,
            best_hpwl: 1.25e6,
            best_overflow: 0.31,
        });
        assert!(e.is_diverged());
        let s = e.to_string();
        assert!(s.contains("iteration 42"));
        assert!(s.contains("non-finite gradient"));
        assert!(s.contains("0.31"));
    }

    #[test]
    fn service_variants_display() {
        let ck = EplaceError::checkpoint("/tmp/job.ckpt", "checksum mismatch");
        assert_eq!(
            ck.to_string(),
            "corrupt checkpoint /tmp/job.ckpt: checksum mismatch"
        );
        let job = EplaceError::job("adaptec1", "manifest unreadable");
        assert!(job.to_string().contains("adaptec1"));
        let c = EplaceError::Cancelled {
            stage: "mGP".into(),
            iteration: 17,
        };
        assert!(c.is_cancelled());
        assert!(!ck.is_cancelled());
        assert_eq!(c.to_string(), "mGP cancelled at iteration 17");
    }

    #[test]
    fn reason_display() {
        assert_eq!(
            DivergenceReason::SteplengthCollapse.to_string(),
            "steplength collapse"
        );
    }
}
