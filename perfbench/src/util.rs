//! Small helpers shared by every workload: FNV digests, order statistics,
//! a seeded generator, process memory, and the report every run prints.

use cc_report::JsonValue;
use std::time::Duration;

/// 64-bit FNV-1a over `bytes`: the per-cell digest the correctness checks
/// compare.
#[must_use]
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest over more bytes, so
/// `fnv_extend(fnv(a), b) == fnv(a ++ b)`.
#[must_use]
pub fn fnv_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as a float, with every digit the clock gave.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// SplitMix64: a tiny, seedable, reproducible generator for workload
/// inputs (request mixes, fresh scenario values, base-scenario tweaks).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed` and `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process, in MB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |pid| format!("/proc/{pid}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system, every thread, reaped ones included) of
/// process `pid`, or of this process, in seconds. Linux reports it in
/// `USER_HZ` ticks, which the kernel ABI fixes at 100 per second.
#[must_use]
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/stat".to_string(),
        |pid| format!("/proc/{pid}/stat"),
    );
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let mut fields = stat
        .get(stat.rfind(')')? + 2..)?
        .split_whitespace()
        .skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string, as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// What one benchmark run reports: the verdict, the operation counts, the
/// machine-readable metrics and human-readable notes.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, samples or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced mismatching bytes.
    pub failed: u64,
    /// Problems found by the correctness checks (empty when correct).
    pub problems: Vec<String>,
    /// The metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Extra `name value unit` lines printed above the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// A run that failed before measuring anything.
    #[must_use]
    pub fn failure(message: impl Into<String>) -> Self {
        Self {
            attempted: 1,
            failed: 1,
            problems: vec![message.into()],
            ..Self::default()
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Appends a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness check covering `ops` operations.
    pub fn problem(&mut self, ops: u64, message: impl Into<String>) {
        self.failed += ops;
        self.problems.push(message.into());
    }

    /// True when no check failed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// `failed / attempted`, the share of operations that failed.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        JsonValue::object([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Integer(self.attempted.max(1))),
            ("failed", JsonValue::Integer(self.failed)),
            (
                "metrics",
                JsonValue::object(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        JsonValue::object([
                            ("value", JsonValue::Number(m.value)),
                            ("unit", JsonValue::from(m.unit.as_str())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_reproducible_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
