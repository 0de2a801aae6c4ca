//! The metric names and units every run prints. `BENCHMARK.json` lists
//! the same names; the smoke tests hold the two in step.

use crate::util::Report;
use cc_core::experiments;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
/// `work_per_s` is work per CPU-second of the working process: grid cells
/// (sweeps), samples (`mc-sampled`) or served requests (`serve-mixed`, at
/// capacity). Wall-clock rates and serve latencies are printed as notes
/// and reported per layer: on a small shared host their run-to-run spread
/// is too wide to gate on.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0. A ratio's unit names its base.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("scenario.validate_us", "us"),
    ("sweep.expand_ms", "ms"),
    ("sweep.points", "count"),
    ("dedup.plan_ms", "ms"),
    ("dedup.groups", "count"),
    ("dedup.reuse_ratio", "reuses/cells"),
    ("fingerprint.ns", "ns"),
    ("fingerprint.calls", "count"),
    ("grid.self_ms", "ms"),
    ("grid.compare_ms", "ms"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_overhead_ns", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inflight_dedups", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "hits/lookups"),
    ("cache.evict_per_miss", "evicts/misses"),
    ("compute.runs", "count"),
    ("compute.share", "compute/wall"),
    ("render.artifact_us", "us"),
    ("render.bytes_per_cell", "B/cell"),
    ("render.share", "render/wall"),
    ("render.mc_report_ms", "ms"),
    ("write.artifact_us", "us"),
    ("mc.draw_us", "us"),
    ("mc.digest_ns", "ns"),
    ("mc.self_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.resolve_us", "us"),
    ("intern.resolve_hit_us", "us"),
    ("intern.resolve_miss_us", "us"),
    ("intern.hit_ratio", "hits/lookups"),
    ("server.rtt_hit_us", "us"),
    ("server.capacity_rps", "1/s"),
    ("server.overloaded", "count"),
    ("stats.requests", "count"),
    ("stats.hits", "count"),
    ("stats.misses", "count"),
    ("stats.evictions", "count"),
    ("stats.intern_hits", "count"),
    ("stats.intern_misses", "count"),
    ("disk.load_us", "us"),
    ("disk.store_us", "us"),
    ("disk.entry_kb", "KB"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("trace.overhead_pct", "%"),
    ("lat_p50_us.lo", "us"),
    ("lat_p99_us.lo", "us"),
    ("lat_p50_us.hi", "us"),
    ("lat_p99_us.hi", "us"),
    ("max_rps", "1/s"),
    ("fail_frac", "failed/attempted"),
];

/// Every per-layer metric: [`PER_LAYER`] plus `compute.<key>_us` for each
/// registry experiment.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(
            experiments::entries()
                .iter()
                .map(|e| (compute_metric(e.key), "us")),
        )
        .collect()
}

/// The per-layer metric holding experiment `key`'s mean model-run time.
#[must_use]
pub fn compute_metric(key: &str) -> String {
    format!("compute.{key}_us")
}

/// Appends every per-layer metric to `report` in canonical order, taking
/// values from `values` and 0 for a layer this workload did not exercise.
pub fn emit_layers(report: &mut Report, values: &BTreeMap<String, f64>) {
    for (name, unit) in per_layer() {
        let value = values.get(&name).copied().unwrap_or(0.0);
        report.metric(name, value, unit);
    }
}
