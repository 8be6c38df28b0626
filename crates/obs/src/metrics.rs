//! The registry's value types: span aggregates and the deterministic
//! point-in-time [`Snapshot`].

/// One span's aggregate inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// `/`-joined nesting path, e.g. `flow/mgp/iter`.
    pub path: String,
    /// Times the span was opened and closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
}

impl SpanStat {
    /// The leaf name (path segment after the last `/`).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Total seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// A deterministic point-in-time copy of the registry: every collection is
/// sorted by name/path, so two runs that record the same events in any
/// order produce equal snapshots (durations aside).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Snapshot {
    /// The counter's value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The span aggregate at exactly `path`.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_leaf_name() {
        let s = SpanStat {
            path: "flow/mgp/iter".into(),
            calls: 1,
            total_ns: 2_000_000_000,
        };
        assert_eq!(s.name(), "iter");
        assert_eq!(s.seconds(), 2.0);
        let root = SpanStat {
            path: "flow".into(),
            calls: 1,
            total_ns: 0,
        };
        assert_eq!(root.name(), "flow");
    }

    #[test]
    fn snapshot_lookups() {
        let snap = Snapshot {
            spans: vec![SpanStat {
                path: "flow".into(),
                calls: 1,
                total_ns: 5,
            }],
            counters: vec![("a".into(), 2)],
        };
        assert_eq!(snap.counter("a"), 2);
        assert!(snap.span("flow").is_some());
        assert!(snap.span("nope").is_none());
    }
}
