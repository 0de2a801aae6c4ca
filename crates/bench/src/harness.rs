//! A minimal wall-clock benchmark harness.
//!
//! Offline stand-in for Criterion: each benchmark warms up, then runs
//! batches until a time budget is spent, and reports the per-iteration
//! mean/min over the measured batches. Good enough to (a) exercise every
//! model end to end under `cargo bench` and (b) spot order-of-magnitude
//! regressions; it does not attempt Criterion's statistical rigor.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Result of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Total iterations measured.
    pub iterations: u64,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest observed batch, per iteration.
    pub min: Duration,
}

impl Measurement {
    fn format_duration(d: Duration) -> String {
        let nanos = d.as_nanos();
        if nanos < 10_000 {
            format!("{nanos} ns")
        } else if nanos < 10_000_000 {
            format!("{:.1} us", nanos as f64 / 1e3)
        } else if nanos < 10_000_000_000 {
            format!("{:.1} ms", nanos as f64 / 1e6)
        } else {
            format!("{:.2} s", nanos as f64 / 1e9)
        }
    }
}

/// A machine-readable benchmark report: named measurements collected across
/// groups, serializable to the JSON shape CI archives (`BENCH_ci.json`) so
/// the perf trajectory has data points to diff between runs.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, Measurement)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one named measurement.
    pub fn record(&mut self, name: impl Into<String>, measurement: Measurement) {
        self.entries.push((name.into(), measurement));
    }

    /// Number of recorded measurements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The report as a JSON array string: one object per benchmark with
    /// `name`, `mean_ns`, `min_ns` and `iterations`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ns = |d: Duration| {
            cc_report::JsonValue::Integer(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        };
        cc_report::JsonValue::array(self.entries.iter().map(|(name, m)| {
            cc_report::JsonValue::object([
                ("name", cc_report::JsonValue::from(name.as_str())),
                ("mean_ns", ns(m.mean)),
                ("min_ns", ns(m.min)),
                ("iterations", cc_report::JsonValue::Integer(m.iterations)),
            ])
        }))
        .render()
    }
}

/// Runs groups of named benchmarks and prints one line per benchmark.
#[derive(Debug)]
pub struct Bencher {
    group: String,
    budget: Duration,
}

impl Bencher {
    /// A benchmark group named `group` with the default 200 ms budget per
    /// benchmark.
    #[must_use]
    pub fn group(group: impl Into<String>) -> Self {
        Self {
            group: group.into(),
            budget: Duration::from_millis(200),
        }
    }

    /// Overrides the per-benchmark time budget.
    #[must_use]
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Times `f`, prints `group/name: <mean> per iter`, and returns the
    /// measurement. The closure's return value is passed through
    /// [`black_box`] so the optimizer cannot elide the work.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Measurement {
        // Warm-up: one untimed call (fills caches, triggers lazy statics).
        black_box(f());

        // Size batches so each batch is ~10% of the budget.
        let probe = Instant::now();
        black_box(f());
        let per_iter = probe.elapsed().max(Duration::from_nanos(1));
        let batch = ((self.budget.as_secs_f64() / 10.0 / per_iter.as_secs_f64()).ceil() as u64)
            .clamp(1, 1_000_000);

        let mut iterations = 0u64;
        let mut total = Duration::ZERO;
        let mut min_per_iter = Duration::MAX;
        let started = Instant::now();
        while started.elapsed() < self.budget {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            iterations += batch;
            total += elapsed;
            min_per_iter = min_per_iter.min(elapsed / u32::try_from(batch).unwrap_or(u32::MAX));
        }
        // Round up: truncating division reports sub-nanosecond work as free.
        let mean_ns = total.as_nanos().div_ceil(u128::from(iterations.max(1)));
        let mean = Duration::from_nanos(u64::try_from(mean_ns).unwrap_or(u64::MAX));
        let m = Measurement {
            iterations,
            mean,
            min: min_per_iter,
        };
        println!(
            "{:40} {:>12} per iter (min {:>12}, {} iters)",
            format!("{}/{}", self.group, name),
            Measurement::format_duration(m.mean),
            Measurement::format_duration(m.min),
            m.iterations
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_cheap_work() {
        let b = Bencher::group("test").budget(Duration::from_millis(20));
        let m = b.bench("noop-ish", || 2u64.wrapping_mul(3));
        assert!(m.iterations > 0);
        assert!(m.mean > Duration::ZERO);
        assert!(m.min <= m.mean * 2);
    }

    #[test]
    fn report_serializes_measurements_to_json() {
        let mut report = Report::new();
        assert!(report.is_empty());
        report.record(
            "facility/paper",
            Measurement {
                iterations: 42,
                mean: Duration::from_nanos(1_500),
                min: Duration::from_nanos(1_200),
            },
        );
        assert_eq!(report.len(), 1);
        assert_eq!(
            report.to_json(),
            r#"[{"name":"facility/paper","mean_ns":1500,"min_ns":1200,"iterations":42}]"#
        );
    }

    #[test]
    fn duration_formatting_spans_scales() {
        assert_eq!(
            Measurement::format_duration(Duration::from_nanos(50)),
            "50 ns"
        );
        assert!(Measurement::format_duration(Duration::from_micros(50)).ends_with("us"));
        assert!(Measurement::format_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(Measurement::format_duration(Duration::from_secs(50)).ends_with(" s"));
    }
}
