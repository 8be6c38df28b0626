//! Minimal timing harness for the `benches/` programs (criterion is
//! unavailable offline). The `[[bench]]` targets are `harness = false`, so
//! each is a plain `main()` that calls [`bench()`] and prints one table row
//! per measurement; `cargo bench` runs them all.

use std::time::{Duration, Instant};

/// One measured benchmark: wall-clock stats over `samples` timed runs after
/// a short warmup.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub name: String,
    pub median: Duration,
    pub min: Duration,
    pub mean: Duration,
    pub samples: usize,
}

impl Measurement {
    /// `median(other) / median(self)` — how many times faster `self` is.
    pub fn speedup_over(&self, other: &Measurement) -> f64 {
        other.median.as_secs_f64() / self.median.as_secs_f64().max(1e-12)
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Times `f` over `samples` runs (after `samples / 4 + 1` warmup runs),
/// prints a table row, and returns the stats. `black_box` the inputs inside
/// `f` where the optimizer could otherwise hoist work out of the loop.
pub fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> Measurement {
    let samples = samples.max(3);
    for _ in 0..samples / 4 + 1 {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    times.sort();
    let measurement = Measurement {
        name: name.to_string(),
        median: times[times.len() / 2],
        min: times[0],
        mean: times.iter().sum::<Duration>() / times.len() as u32,
        samples,
    };
    println!(
        "{:<44} median {:>12}   min {:>12}   mean {:>12}   ({} samples)",
        measurement.name,
        fmt_duration(measurement.median),
        fmt_duration(measurement.min),
        fmt_duration(measurement.mean),
        samples
    );
    measurement
}

/// Prints a `serial / parallel` comparison row from two measurements.
pub fn report_speedup(kernel: &str, serial: &Measurement, parallel: &Measurement) {
    println!(
        "{:<44} serial {:>12}   parallel {:>12}   speedup {:.2}x",
        kernel,
        fmt_duration(serial.median),
        fmt_duration(parallel.median),
        parallel.speedup_over(serial)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_stats() {
        let m = bench("spin", 5, || (0..1000).sum::<u64>());
        assert_eq!(m.samples, 5);
        assert!(m.min <= m.median);
        assert!(m.median > Duration::ZERO);
    }

    #[test]
    fn speedup_is_ratio_of_medians() {
        let a = Measurement {
            name: "a".into(),
            median: Duration::from_millis(10),
            min: Duration::from_millis(9),
            mean: Duration::from_millis(10),
            samples: 3,
        };
        let b = Measurement {
            name: "b".into(),
            median: Duration::from_millis(20),
            min: Duration::from_millis(18),
            mean: Duration::from_millis(20),
            samples: 3,
        };
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn durations_format_with_unit_scaling() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(500)), "500.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }
}
