//! Job manifests: the JSON files dropped into the spool's `incoming/`
//! directory to request a placement.
//!
//! A manifest names its input (a generated demo design or a Bookshelf
//! `.aux` on disk) plus optional [`eplace_core::EplaceConfig`] overrides and
//! service policy (deadline, retry budget). Everything is optional except
//! the input, so `{"demo": {"cells": 400}}` is a complete job.

use eplace_core::{EplaceConfig, FaultKind, GradientFault};
use eplace_errors::EplaceError;
use eplace_netlist::Design;
use eplace_obs::json::{parse_json, JsonValue};
use std::path::Path;

/// Where the job's design comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// A synthetic ISPD-2005-like design from [`eplace_benchgen`]:
    /// deterministic in `(cells, seed)`, so a job is reproducible from its
    /// manifest alone.
    Demo {
        /// Movable-cell count.
        cells: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A Bookshelf benchmark on disk, by `.aux` path.
    Aux(String),
}

/// One placement job, parsed from a spool manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobManifest {
    /// Job name — the manifest's file stem; keys the ledger, the job
    /// directory, and cancel markers.
    pub name: String,
    /// Input design.
    pub source: JobSource,
    /// Start from [`EplaceConfig::fast`] (default) instead of the paper
    /// preset.
    pub fast: bool,
    /// Kernel worker threads (default 1, the bit-reproducible serial path).
    pub threads: usize,
    /// Placer seed override.
    pub seed: Option<u64>,
    /// Stopping overflow τ override.
    pub target_overflow: Option<f64>,
    /// Iteration-cap override.
    pub max_iterations: Option<usize>,
    /// Wall-clock budget for the job; exceeded → cancelled and quarantined.
    pub deadline_secs: Option<f64>,
    /// Retries after a failed attempt before the job is quarantined.
    pub max_retries: usize,
    /// Fault injection for the resilience tests: poison gradient evaluation
    /// N with a NaN (see [`GradientFault`]).
    pub fault_nan_at: Option<usize>,
    /// `true` makes the injected fault fire on every evaluation from the
    /// trigger on — an unrecoverable poison job.
    pub fault_repeat: bool,
}

fn field_u64(v: &JsonValue, key: &str, job: &str) -> Result<Option<u64>, EplaceError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            EplaceError::job(job, format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn field_f64(v: &JsonValue, key: &str, job: &str) -> Result<Option<f64>, EplaceError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .filter(|f| f.is_finite())
            .map(Some)
            .ok_or_else(|| EplaceError::job(job, format!("`{key}` must be a finite number"))),
    }
}

fn field_bool(v: &JsonValue, key: &str, job: &str) -> Result<Option<bool>, EplaceError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_bool()
            .map(Some)
            .ok_or_else(|| EplaceError::job(job, format!("`{key}` must be a boolean"))),
    }
}

impl JobManifest {
    /// Parses a manifest from its JSON text. `name` is the manifest file
    /// stem (the caller knows it; the JSON does not repeat it).
    ///
    /// # Errors
    ///
    /// [`EplaceError::Job`] on malformed JSON, a missing/ambiguous input
    /// section, or an ill-typed field.
    pub fn parse(name: &str, text: &str) -> Result<Self, EplaceError> {
        let v = parse_json(text)
            .map_err(|e| EplaceError::job(name, format!("manifest is not valid JSON: {e}")))?;
        let source = match (v.get("demo"), v.get("aux")) {
            (Some(_), Some(_)) => {
                return Err(EplaceError::job(
                    name,
                    "manifest sets both `demo` and `aux`; pick one input",
                ));
            }
            (Some(demo), None) => {
                let cells = field_u64(demo, "cells", name)?
                    .ok_or_else(|| EplaceError::job(name, "`demo.cells` is required"))?;
                let seed = field_u64(demo, "seed", name)?.unwrap_or(1);
                JobSource::Demo {
                    cells: cells as usize,
                    seed,
                }
            }
            (None, Some(aux)) => JobSource::Aux(
                aux.as_str()
                    .ok_or_else(|| EplaceError::job(name, "`aux` must be a path string"))?
                    .to_string(),
            ),
            (None, None) => {
                return Err(EplaceError::job(
                    name,
                    "manifest needs an input: `demo` or `aux`",
                ));
            }
        };
        Ok(JobManifest {
            name: name.to_string(),
            source,
            fast: field_bool(&v, "fast", name)?.unwrap_or(true),
            threads: field_u64(&v, "threads", name)?.unwrap_or(1) as usize,
            seed: field_u64(&v, "seed", name)?,
            target_overflow: field_f64(&v, "target_overflow", name)?,
            max_iterations: field_u64(&v, "max_iterations", name)?.map(|n| n as usize),
            deadline_secs: field_f64(&v, "deadline_secs", name)?,
            max_retries: field_u64(&v, "max_retries", name)?.unwrap_or(2) as usize,
            fault_nan_at: field_u64(&v, "fault_nan_at", name)?.map(|n| n as usize),
            fault_repeat: field_bool(&v, "fault_repeat", name)?.unwrap_or(false),
        })
    }

    /// Reads and parses `path`; the job name is the file stem.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Io`] when the file cannot be read, plus everything
    /// [`JobManifest::parse`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, EplaceError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("job")
            .to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| EplaceError::io(path.display().to_string(), e.to_string()))?;
        JobManifest::parse(&name, &text)
    }

    /// The placer configuration this job requests (cancellation token not
    /// yet installed — the worker arms one per attempt).
    pub fn config(&self) -> EplaceConfig {
        let mut cfg = if self.fast {
            EplaceConfig::fast()
        } else {
            EplaceConfig::default()
        };
        cfg.threads = self.threads;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(t) = self.target_overflow {
            cfg.target_overflow = t;
        }
        if let Some(n) = self.max_iterations {
            cfg.max_iterations = n;
        }
        cfg.fault = self.fault_nan_at.map(|at| GradientFault {
            at_evaluation: at,
            component: 0,
            kind: FaultKind::Nan,
            repeat: self.fault_repeat,
        });
        cfg
    }

    /// Materializes the job's input design (generated or read from disk).
    ///
    /// # Errors
    ///
    /// [`eplace_bookshelf::read_aux`]'s I/O, parse and validation errors for
    /// [`JobSource::Aux`]; demo generation is infallible.
    pub fn design(&self) -> Result<Design, EplaceError> {
        match &self.source {
            JobSource::Demo { cells, seed } => Ok(eplace_benchgen::BenchmarkConfig::ispd05_like(
                &self.name, *seed,
            )
            .scale(*cells)
            .generate()),
            JobSource::Aux(path) => eplace_bookshelf::read_aux(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_demo_manifest_parses_with_defaults() {
        let m = JobManifest::parse("j1", r#"{"demo": {"cells": 300}}"#).unwrap();
        assert_eq!(
            m.source,
            JobSource::Demo {
                cells: 300,
                seed: 1
            }
        );
        assert!(m.fast);
        assert_eq!(m.threads, 1);
        assert_eq!(m.max_retries, 2);
        assert_eq!(m.deadline_secs, None);
        assert!(m.config().fault.is_none());
    }

    #[test]
    fn full_manifest_round_trips_into_config() {
        let m = JobManifest::parse(
            "j2",
            r#"{"demo": {"cells": 200, "seed": 9}, "fast": true, "threads": 2,
                "seed": 123, "target_overflow": 0.2, "max_iterations": 40,
                "deadline_secs": 1.5, "max_retries": 1,
                "fault_nan_at": 3, "fault_repeat": true}"#,
        )
        .unwrap();
        let cfg = m.config();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.seed, 123);
        assert_eq!(cfg.target_overflow, 0.2);
        assert_eq!(cfg.max_iterations, 40);
        let fault = cfg.fault.unwrap();
        assert_eq!(fault.at_evaluation, 3);
        assert!(fault.repeat);
        assert_eq!(m.deadline_secs, Some(1.5));
    }

    #[test]
    fn bad_manifests_are_typed_errors() {
        for (text, needle) in [
            ("{", "not valid JSON"),
            ("{}", "needs an input"),
            (r#"{"demo": {"cells": 1}, "aux": "x.aux"}"#, "pick one"),
            (r#"{"demo": {}}"#, "cells"),
            (r#"{"demo": {"cells": 10}, "threads": -1}"#, "threads"),
            (r#"{"aux": 42}"#, "path string"),
        ] {
            let err = JobManifest::parse("bad", text).unwrap_err();
            assert!(matches!(err, EplaceError::Job { .. }), "{text}");
            assert!(err.to_string().contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn demo_design_is_deterministic_in_the_manifest() {
        let m = JobManifest::parse("det", r#"{"demo": {"cells": 120, "seed": 4}}"#).unwrap();
        let a = m.design().unwrap();
        let b = m.design().unwrap();
        assert_eq!(a.hpwl().to_bits(), b.hpwl().to_bits());
    }
}
