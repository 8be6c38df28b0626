use std::fmt;
use std::time::Duration;

/// Flow stage names (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Mixed-size initial placement (quadratic wirelength minimization).
    Mip,
    /// Mixed-size global placement.
    Mgp,
    /// Macro legalization.
    Mlg,
    /// Filler-only placement preceding cGP (§VI-B).
    FillerOnly,
    /// Standard-cell global placement.
    Cgp,
    /// Congestion-driven refinement round (routability mode): bounded
    /// global placement after cell inflation.
    RouteRefine,
    /// Legalization + detail placement.
    Cdp,
}

impl Stage {
    /// Lowercase identifier used for span paths, journal records, and
    /// per-stage counter names (`iters_mgp`, …).
    pub fn key(self) -> &'static str {
        match self {
            Stage::Mip => "mip",
            Stage::Mgp => "mgp",
            Stage::Mlg => "mlg",
            Stage::FillerOnly => "fillergp",
            Stage::Cgp => "cgp",
            Stage::RouteRefine => "routegp",
            Stage::Cdp => "cdp",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Mip => "mIP",
            Stage::Mgp => "mGP",
            Stage::Mlg => "mLG",
            Stage::FillerOnly => "fillerGP",
            Stage::Cgp => "cGP",
            Stage::RouteRefine => "routeGP",
            Stage::Cdp => "cDP",
        };
        f.write_str(s)
    }
}

/// Why a global-placement stage stopped: the `reason` of its journaled
/// `stop` record, and [`crate::GpOutcome::stop`] for a stage that returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The overflow reached the target τ.
    Target,
    /// The overflow stopped improving above the target; the best snapshot
    /// is kept.
    Stagnation,
    /// The stage ran out of iterations.
    IterationCap,
    /// The cancellation token fired.
    Cancelled,
    /// The divergence sentinel tripped more often than the retry budget
    /// allows.
    Diverged,
}

impl StopReason {
    /// Every reason, in declaration order.
    pub const ALL: [StopReason; 5] = [
        StopReason::Target,
        StopReason::Stagnation,
        StopReason::IterationCap,
        StopReason::Cancelled,
        StopReason::Diverged,
    ];

    /// The identifier a journal `stop` record carries as its `reason`.
    pub fn key(self) -> &'static str {
        match self {
            StopReason::Target => "target",
            StopReason::Stagnation => "stagnation",
            StopReason::IterationCap => "iteration_cap",
            StopReason::Cancelled => "cancelled",
            StopReason::Diverged => "diverged",
        }
    }
}

/// One optimizer iteration's metrics — the data behind the paper's Figure 2
/// (HPWL and overlap vs iteration) and Figure 3 (snapshots with W and O).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Which stage produced this record.
    pub stage: Stage,
    /// Iteration index within the stage.
    pub iteration: usize,
    /// Exact HPWL `W(v)` at the output solution `u`.
    pub hpwl: f64,
    /// Density overflow τ.
    pub overflow: f64,
    /// Bin-based object overlap area `O` (area that physically cannot fit
    /// in its bins).
    pub overlap: f64,
    /// Penalty factor λ.
    pub lambda: f64,
    /// Wirelength smoothing parameter γ.
    pub gamma: f64,
    /// Accepted steplength α.
    pub alpha: f64,
    /// Backtracks taken this iteration (paper avg: 1.037 over MMS).
    pub backtracks: usize,
}

/// Wall-clock of one stage — the data behind Figure 7's outer pie.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage.
    pub stage: Stage,
    /// Seconds spent.
    pub seconds: f64,
}

/// The mGP-internal runtime split — Figure 7's inner breakdown (paper:
/// density 57 %, wirelength 29 %, other 14 %).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeProfile {
    /// Seconds in density deposit + Poisson solve + field sampling.
    pub density_seconds: f64,
    /// Seconds in WA wirelength gradients.
    pub wirelength_seconds: f64,
    /// Everything else (Lipschitz prediction, parameter update, …).
    pub other_seconds: f64,
}

impl RuntimeProfile {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.density_seconds + self.wirelength_seconds + self.other_seconds
    }

    /// `(density %, wirelength %, other %)` of the stage runtime.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.density_seconds / t,
            100.0 * self.wirelength_seconds / t,
            100.0 * self.other_seconds / t,
        )
    }

    pub(crate) fn add(&mut self, density: Duration, wirelength: Duration, total: Duration) {
        let d = density.as_secs_f64();
        let w = wirelength.as_secs_f64();
        self.density_seconds += d;
        self.wirelength_seconds += w;
        self.other_seconds += (total.as_secs_f64() - d - w).max(0.0);
    }
}

/// Checks every record for non-finite metrics before a trace is persisted.
fn validate_trace(records: &[IterationRecord]) -> Result<(), eplace_errors::EplaceError> {
    for (i, r) in records.iter().enumerate() {
        let fields = [
            ("hpwl", r.hpwl),
            ("overflow", r.overflow),
            ("overlap", r.overlap),
            ("lambda", r.lambda),
            ("gamma", r.gamma),
            ("alpha", r.alpha),
        ];
        if let Some((name, value)) = fields.iter().find(|(_, v)| !v.is_finite()) {
            return Err(eplace_errors::EplaceError::invalid(
                format!("trace record {i} ({} iteration {})", r.stage, r.iteration),
                format!("non-finite {name}: {value}"),
            ));
        }
    }
    Ok(())
}

/// Renders iteration records as CSV
/// (`stage,iteration,hpwl,overflow,...`) after checking every record for
/// non-finite metrics — the writer behind the CLI's `--trace-csv` and the
/// golden-trace bless workflow, so a poisoned trajectory can never become
/// the reference snapshot.
///
/// # Errors
///
/// [`eplace_errors::EplaceError::Validation`] naming the first record and
/// field that is not finite.
pub fn trace_to_csv_checked(
    records: &[IterationRecord],
) -> Result<String, eplace_errors::EplaceError> {
    validate_trace(records)?;
    Ok(trace_to_csv(records))
}

fn trace_to_csv(records: &[IterationRecord]) -> String {
    let mut out =
        String::from("stage,iteration,hpwl,overflow,overlap,lambda,gamma,alpha,backtracks\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6e},{:.6},{:.6e},{}\n",
            r.stage,
            r.iteration,
            r.hpwl,
            r.overflow,
            r.overlap,
            r.lambda,
            r.gamma,
            r.alpha,
            r.backtracks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_display() {
        assert_eq!(Stage::Mgp.to_string(), "mGP");
        assert_eq!(Stage::Cdp.to_string(), "cDP");
        assert_eq!(Stage::FillerOnly.to_string(), "fillerGP");
        assert_eq!(Stage::RouteRefine.to_string(), "routeGP");
        assert_eq!(Stage::RouteRefine.key(), "routegp");
    }

    #[test]
    fn profile_percentages_sum_to_100() {
        let mut p = RuntimeProfile::default();
        p.add(
            Duration::from_millis(570),
            Duration::from_millis(290),
            Duration::from_millis(1000),
        );
        let (d, w, o) = p.percentages();
        assert!((d + w + o - 100.0).abs() < 1e-9);
        assert!((d - 57.0).abs() < 1e-9);
        assert!((o - 14.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = RuntimeProfile::default();
        assert_eq!(p.percentages(), (0.0, 0.0, 0.0));
        assert_eq!(p.total(), 0.0);
    }

    #[test]
    fn csv_roundtrip_header_and_rows() {
        let recs = vec![IterationRecord {
            stage: Stage::Mgp,
            iteration: 3,
            hpwl: 123.0,
            overflow: 0.5,
            overlap: 10.0,
            lambda: 1e-4,
            gamma: 2.0,
            alpha: 0.1,
            backtracks: 1,
        }];
        let csv = trace_to_csv(&recs);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("stage,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("mGP,3,"));
        assert!(row.ends_with(",1"));
    }
}
