//! Measurement and checking for the in-process workloads.
//!
//! The untraced run times whole passes and checks every pass, outside the
//! timed region, against an uncached `jobs: 1` reference. The traced run
//! replays the same plan with spans on (and off, for the overhead) and
//! turns the spans and the engine's public counters into per-layer
//! metrics.

use crate::batch::{render_json, Kept, McLoad, PassOut, Render, SweepLoad};
use crate::metrics::{compute_metric, emit_layers};
use crate::trace::{write_spans, Layers, Span, Tracer};
use crate::util::{cpu_seconds, median, peak_rss_mb, quantile, secs, Report};
use cc_engine::DiskCache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload seed.
    pub seed: u64,
    /// How long the measured region lasts.
    pub seconds: f64,
    /// Scratch directory for disk-cache entries, written artifacts and
    /// trace files.
    pub scratch: PathBuf,
}

/// Engine worker threads, as `--jobs 2` on the 2-vCPU host the workloads
/// were sized for.
pub const JOBS: usize = 2;

/// Fewest timed passes, however short the run.
const MIN_PASSES: usize = 3;

/// Outputs kept from a traced replay for the disk and write layers.
const KEEP: usize = 32;

/// Counts `pass` against the reference: mismatching cells, plus one for a
/// mismatching report.
fn mismatches(pass: &PassOut, reference: &PassOut) -> u64 {
    let differing = pass
        .digests
        .iter()
        .zip(&reference.digests)
        .filter(|(a, b)| a != b)
        .count()
        + pass.digests.len().abs_diff(reference.digests.len());
    differing as u64 + u64::from(pass.report != reference.report)
}

/// Checks every pass against the reference and the first pass's counts.
fn check_passes(report: &mut Report, passes: &[PassOut], reference: &PassOut) {
    for (i, pass) in passes.iter().enumerate() {
        let bad = mismatches(pass, reference);
        if bad > 0 {
            report.problem(
                bad,
                format!("pass {i}: {bad} outputs differ from the reference"),
            );
        }
        if pass.counts.repeatable() != passes[0].counts.repeatable() {
            report.problem(
                0,
                format!(
                    "pass {i}: counts {:?} differ from pass 0's {:?}",
                    pass.counts, passes[0].counts
                ),
            );
        }
    }
}

/// The end-to-end metrics of a batch workload. `work_per_s` counts work
/// per CPU-second of this process (every thread) over the timed passes:
/// time the host hands to other guests, which stretched wall-clock pass
/// times by up to a third between runs, is not charged to the program.
fn batch_metrics(report: &mut Report, timed: &Timed, units: u64, unit: &str) {
    let walls: Vec<f64> = timed.passes.iter().skip(1).map(|p| secs(p.wall)).collect();
    let work = units as f64 * walls.len() as f64;
    let per_cpu_s = work / timed.cpu_s.max(0.01);
    let p50 = median(&walls);
    report.metric("setup_s", timed.setup_s, "s");
    report.metric("work_per_s", per_cpu_s, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0), "MB");
    report.note(format!(
        "{unit}_per_cpu_s {per_cpu_s} 1/s ({work} {unit}, {} s CPU)",
        timed.cpu_s
    ));
    report.note(format!(
        "{unit}_per_s {} 1/s (wall, median pass)",
        units as f64 / p50
    ));
    report.note(format!(
        "pass_ms p25 {} p50 {} p75 {} (n={})",
        quantile(&walls, 0.25) * 1e3,
        p50 * 1e3,
        quantile(&walls, 0.75) * 1e3,
        walls.len()
    ));
}

/// One cold set-up of the workload, timed in seconds.
pub type Setup<'a> = &'a mut dyn FnMut() -> Result<f64, String>;

/// Set-up times taken one at a time between measured phases, so a slow
/// stretch of the host touches few of them.
pub struct Setups<'a> {
    setup: Setup<'a>,
    walls: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Fewest set-ups timed per run.
    const MIN: usize = 15;

    /// Collects timings of `setup`.
    pub fn new(setup: Setup<'a>) -> Self {
        Self {
            setup,
            walls: Vec::new(),
        }
    }

    /// Times one set-up.
    pub fn time(&mut self, report: &mut Report) {
        match (self.setup)() {
            Ok(wall) => self.walls.push(wall),
            Err(e) => report.problem(0, format!("set-up: {e}")),
        }
    }

    /// Tops up to [`Self::MIN`] timings and returns their median.
    pub fn median(mut self, report: &mut Report) -> f64 {
        while self.walls.len() < Self::MIN && report.problems.is_empty() {
            self.time(report);
        }
        median(&self.walls)
    }
}

/// The passes of a run and what their timing gave.
struct Timed {
    passes: Vec<PassOut>,
    /// CPU time of this process over the timed passes (warm-up excluded).
    cpu_s: f64,
    /// Median set-up time.
    setup_s: f64,
}

/// Times passes until `seconds` have elapsed (at least [`MIN_PASSES`]), after
/// one untimed warm-up pass, with one set-up timed after each pass. Stops
/// at the first failing pass.
fn timed_passes(
    report: &mut Report,
    opts: &Options,
    units: u64,
    mut pass: impl FnMut() -> Result<PassOut, String>,
    setup: Setup<'_>,
) -> Timed {
    let mut passes = Vec::new();
    let mut setups = Setups::new(setup);
    let mut cpu_s = 0.0;
    let begin = Instant::now();
    // Pass 0 warms lazily built model inputs and is checked, not timed.
    while passes.len() <= MIN_PASSES || secs(begin.elapsed()) < opts.seconds {
        report.attempted += units;
        let cpu_before = cpu_seconds(None);
        match pass() {
            Ok(out) => passes.push(out),
            Err(e) => {
                report.problem(units, e);
                break;
            }
        }
        if let (Some(before), Some(after), true) = (cpu_before, cpu_seconds(None), passes.len() > 1)
        {
            cpu_s += after - before;
        }
        setups.time(report);
    }
    let setup_s = setups.median(report);
    Timed {
        passes,
        cpu_s,
        setup_s,
    }
}

fn note_counts(report: &mut Report, pass: &PassOut) {
    let c = pass.counts;
    report.note(format!(
        "counts runs {} hits {} misses {} inflight_dedups {} evictions {}",
        c.runs, c.hits, c.misses, c.inflight_dedups, c.evictions
    ));
}

/// The untraced run of a sweep workload.
#[must_use]
pub fn sweep_untraced(
    load: &SweepLoad,
    opts: &Options,
    render: Render,
    setup: Setup<'_>,
) -> Report {
    let mut report = Report::default();
    let cells = load.cells();
    let timed = timed_passes(
        &mut report,
        opts,
        cells,
        || load.pass(JOBS, false, render),
        setup,
    );
    let passes = &timed.passes;
    if passes.len() < 2 {
        return report;
    }
    batch_metrics(&mut report, &timed, cells, "cells");
    match load.pass(1, true, render_json) {
        Ok(reference) => check_passes(&mut report, passes, &reference),
        Err(e) => report.problem(cells, format!("reference: {e}")),
    }
    note_counts(&mut report, &passes[0]);
    report
}

/// The untraced run of `mc-sampled`.
#[must_use]
pub fn mc_untraced(load: &McLoad, opts: &Options, setup: Setup<'_>) -> Report {
    let mut report = Report::default();
    let samples = load.samples as u64;
    let timed = timed_passes(&mut report, opts, samples, || load.pass(JOBS, false), setup);
    let passes = &timed.passes;
    if passes.len() < 2 {
        return report;
    }
    batch_metrics(&mut report, &timed, samples, "samples");
    // Under two workers an entry FIFO-evicted while the other worker is
    // about to look it up can be recomputed once more or once less, so
    // misses and evictions may differ by one between identical passes. Exact
    // repetition is therefore checked on two single-worker passes; every
    // two-worker pass must still account for each lookup exactly once.
    let lookups = samples * load.entries.len() as u64;
    let references = [load.pass(1, true), load.pass(1, false), load.pass(1, false)];
    match references {
        [Ok(uncached), Ok(a), Ok(b)] => {
            if a.counts != b.counts {
                report.problem(
                    0,
                    format!("jobs: 1 counts {:?} then {:?}", a.counts, b.counts),
                );
            }
            // The whole report is one output; a mismatch fails every sample.
            for (i, pass) in passes.iter().chain([&a, &b]).enumerate() {
                if pass.report != uncached.report {
                    report.problem(samples, format!("pass {i}: MC report differs from jobs: 1"));
                }
                let c = pass.counts;
                if c.hits + c.misses + c.inflight_dedups != lookups || c.runs != c.misses {
                    report.problem(0, format!("pass {i}: counts {c:?} miss {lookups} lookups"));
                }
            }
        }
        [a, b, c] => {
            let e = [a, b, c]
                .into_iter()
                .find_map(Result::err)
                .unwrap_or_default();
            report.problem(samples, format!("reference: {e}"));
        }
    }
    note_counts(&mut report, &passes[0]);
    report
}

/// The replay walls and spans of a traced run.
struct Rounds {
    /// `jobs: 1` passes straight through `run_grid` / `run_mc`, seconds.
    direct: Vec<f64>,
    /// Replays with the tracer off, seconds.
    off: Vec<f64>,
    /// Replays with the tracer on, seconds.
    on: Vec<f64>,
    /// Per-layer totals over every traced replay.
    layers: Layers,
    /// The last traced replay's spans, written at exit.
    spans: Vec<Span>,
}

impl Rounds {
    fn per_round(&self, total_ns: f64) -> f64 {
        total_ns / self.on.len().max(1) as f64
    }
}

/// Alternates a `jobs: 1` direct pass, an untraced replay and a traced
/// replay until `seconds` have elapsed (at least two rounds). Each replay's
/// digests must equal the untraced run's.
fn rounds<K>(
    report: &mut Report,
    opts: &Options,
    untraced: &PassOut,
    units: u64,
    mut direct: impl FnMut() -> Result<PassOut, String>,
    mut replay: impl FnMut(&Tracer) -> Result<(PassOut, K), String>,
) -> (Rounds, Option<K>) {
    let mut r = Rounds {
        direct: Vec::new(),
        off: Vec::new(),
        on: Vec::new(),
        layers: Layers::default(),
        spans: Vec::new(),
    };
    let mut kept = None;
    let begin = Instant::now();
    while r.on.len() < 2 || secs(begin.elapsed()) < opts.seconds {
        let result = direct()
            .map(|p| r.direct.push(secs(p.wall)))
            .and_then(|()| {
                for enabled in [false, true] {
                    let tracer = Tracer::new(enabled);
                    report.attempted += units;
                    let (pass, k) = replay(&tracer)?;
                    let bad = mismatches(&pass, untraced);
                    if bad > 0 {
                        report.problem(
                            bad,
                            format!("replay: {bad} outputs differ from the untraced run"),
                        );
                    }
                    if enabled {
                        r.on.push(secs(pass.wall));
                        r.spans = tracer.take();
                        r.layers.add(&r.spans);
                        kept = Some(k);
                    } else {
                        r.off.push(secs(pass.wall));
                    }
                }
                Ok(())
            });
        if let Err(e) = result {
            report.problem(units, e);
            break;
        }
    }
    (r, kept)
}

/// Per-layer values shared by the sweep and MC replays.
fn replay_layers(values: &mut BTreeMap<String, f64>, r: &Rounds, untraced: &PassOut) {
    let l = &r.layers;
    let pass_ns = l.get("pass").total_ns;
    let compute = l.prefixed("compute.");
    let set = |values: &mut BTreeMap<String, f64>, name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    set(
        values,
        "scenario.validate_us",
        l.get("scenario.validate").mean_ns() / 1e3,
    );
    set(values, "fingerprint.ns", l.get("fingerprint").mean_ns());
    set(
        values,
        "fingerprint.calls",
        r.per_round(l.get("fingerprint").count as f64),
    );
    set(values, "cache.hit_ns", l.get("cache.hit").mean_ns());
    set(
        values,
        "cache.miss_overhead_ns",
        l.get("cache.miss").mean_self_ns(),
    );
    let c = untraced.counts;
    set(values, "cache.hits", c.hits as f64);
    set(values, "cache.misses", c.misses as f64);
    set(values, "cache.inflight_dedups", c.inflight_dedups as f64);
    set(values, "cache.evictions", c.evictions as f64);
    let lookups = (c.hits + c.misses + c.inflight_dedups).max(1) as f64;
    set(values, "cache.hit_ratio", c.hits as f64 / lookups);
    set(
        values,
        "cache.evict_per_miss",
        c.evictions as f64 / c.misses.max(1) as f64,
    );
    set(values, "compute.runs", r.per_round(compute.count as f64));
    set(values, "compute.share", compute.total_ns / pass_ns.max(1.0));
    for (name, agg) in &l.0 {
        if let Some(key) = name.strip_prefix("compute.") {
            values.insert(compute_metric(key), agg.mean_ns() / 1e3);
        }
    }
    let overhead = (median(&r.on) / median(&r.off) - 1.0) * 100.0;
    set(values, "trace.overhead_pct", overhead);
}

/// Stores and reloads the kept outputs through a fresh [`DiskCache`] and
/// writes the kept artifacts as `--out` would; both under `scratch`.
pub fn disk_and_write(
    report: &mut Report,
    values: &mut BTreeMap<String, f64>,
    kept: &Kept,
    scratch: &Path,
) {
    let disk_dir = scratch.join("disk");
    let _ = std::fs::remove_dir_all(&disk_dir);
    let disk = match DiskCache::open(&disk_dir) {
        Ok(disk) => disk,
        Err(e) => return report.problem(0, format!("disk cache: {e}")),
    };
    let time_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        secs(t.elapsed()) * 1e6
    };
    let mut store = Vec::new();
    let mut load = Vec::new();
    for (key, fingerprint, output) in &kept.outputs {
        store.push(time_us(&mut || disk.store(key, *fingerprint, output)));
    }
    for (key, fingerprint, output) in &kept.outputs {
        let mut loaded = None;
        load.push(time_us(&mut || loaded = disk.load(key, *fingerprint)));
        report.attempted += 1;
        if loaded.map(|o| o.to_json().render()) != Some(output.to_json().render()) {
            report.problem(1, format!("disk cache: {key} did not round-trip"));
        }
    }
    let (hits, _, stores) = disk.counters();
    if hits != kept.outputs.len() as u64 || stores != hits {
        report.problem(
            0,
            format!("disk cache counters: {hits} hits, {stores} stores"),
        );
    }
    let (files, bytes) = dir_usage(&disk_dir);
    values.insert("disk.store_us".into(), median(&store));
    values.insert("disk.load_us".into(), median(&load));
    values.insert(
        "disk.entry_kb".into(),
        bytes as f64 / files.max(1) as f64 / 1024.0,
    );

    let out_dir = scratch.join("out");
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut write = Vec::new();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return report.problem(0, format!("cannot create {}: {e}", out_dir.display()));
    }
    for (i, artifact) in kept.artifacts.iter().enumerate() {
        let path = out_dir.join(format!("{i}.json"));
        let mut result = Ok(());
        write.push(time_us(&mut || result = std::fs::write(&path, artifact)));
        if let Err(e) = result {
            report.problem(0, format!("cannot write {}: {e}", path.display()));
        }
    }
    values.insert("write.artifact_us".into(), median(&write));
}

/// Files and bytes under `dir`, recursively.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .fold((0, 0), |(files, bytes), entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => {
                let (f, b) = dir_usage(&entry.path());
                (files + f, bytes + b)
            }
            Ok(meta) => (files + 1, bytes + meta.len()),
            Err(_) => (files, bytes),
        })
}

/// Writes the spans and notes where.
fn finish_trace(report: &mut Report, spans: &[Span], path: &Path) {
    match write_spans(path, spans) {
        Ok(()) => report.note(format!("trace {} spans -> {}", spans.len(), path.display())),
        Err(e) => report.problem(0, format!("cannot write {}: {e}", path.display())),
    }
}

/// The traced run of a sweep workload.
#[must_use]
pub fn sweep_traced(load: &SweepLoad, opts: &Options, trace: &Path) -> Report {
    let mut report = Report::default();
    let cells = load.cells();
    report.attempted += cells;
    let untraced = match load.pass(JOBS, false, render_json) {
        Ok(pass) => pass,
        Err(e) => {
            report.problem(cells, e);
            return report;
        }
    };
    let (r, kept) = rounds(
        &mut report,
        opts,
        &untraced,
        cells,
        || load.pass(1, false, render_json),
        |tracer| load.replay(tracer, KEEP),
    );
    let mut values = BTreeMap::new();
    replay_layers(&mut values, &r, &untraced);
    let l = &r.layers;
    let pass_ns = l.get("pass").total_ns.max(1.0);
    let npoints = cells / load.entries.len() as u64;
    let per_round_ms = |name: &str| r.per_round(l.get(name).total_ns) / 1e6;
    values.insert("sweep.expand_ms".into(), per_round_ms("sweep.expand"));
    values.insert("sweep.points".into(), npoints as f64);
    values.insert("dedup.plan_ms".into(), per_round_ms("dedup.plan"));
    values.insert("dedup.groups".into(), untraced.groups as f64);
    values.insert(
        "dedup.reuse_ratio".into(),
        (cells - untraced.groups) as f64 / cells as f64,
    );
    values.insert("grid.compare_ms".into(), per_round_ms("grid.compare"));
    // run_grid's own time: the direct pass minus the same plan walked
    // through the public calls with the tracer off.
    values.insert(
        "grid.self_ms".into(),
        (median(&r.direct) - median(&r.off)) * 1e3,
    );
    values.insert("render.artifact_us".into(), l.get("render").mean_ns() / 1e3);
    values.insert(
        "render.bytes_per_cell".into(),
        untraced.bytes as f64 / cells as f64,
    );
    values.insert("render.share".into(), l.get("render").total_ns / pass_ns);
    if let Some(kept) = &kept {
        disk_and_write(&mut report, &mut values, kept, &opts.scratch);
    }
    values.insert("fail_frac".into(), report.fail_frac());
    emit_layers(&mut report, &values);
    finish_trace(&mut report, &r.spans, trace);
    report
}

/// The traced run of `mc-sampled`.
#[must_use]
pub fn mc_traced(load: &McLoad, opts: &Options, trace: &Path) -> Report {
    let mut report = Report::default();
    let samples = load.samples as u64;
    report.attempted += samples;
    let untraced = match load.pass(JOBS, false) {
        Ok(pass) => pass,
        Err(e) => {
            report.problem(samples, e);
            return report;
        }
    };
    let mut pushes = 0;
    let (r, kept) = rounds(
        &mut report,
        opts,
        &untraced,
        samples,
        || load.pass(1, false),
        |tracer| {
            let (pass, kept, n) = load.replay(tracer, KEEP)?;
            pushes = n;
            Ok((pass, kept))
        },
    );
    let mut values = BTreeMap::new();
    replay_layers(&mut values, &r, &untraced);
    let l = &r.layers;
    values.insert("mc.draw_us".into(), l.get("mc.draw").mean_ns() / 1e3);
    values.insert(
        "mc.digest_ns".into(),
        r.per_round(l.get("mc.digest").total_ns) / pushes.max(1) as f64,
    );
    values.insert(
        "mc.self_ms".into(),
        (median(&r.direct) - median(&r.off)) * 1e3,
    );
    values.insert(
        "render.mc_report_ms".into(),
        r.per_round(l.get("render.mc_report").total_ns) / 1e6,
    );
    values.insert(
        "render.share".into(),
        l.get("render.mc_report").total_ns / l.get("pass").total_ns.max(1.0),
    );
    if let Some(kept) = &kept {
        disk_and_write(&mut report, &mut values, kept, &opts.scratch);
    }
    values.insert("fail_frac".into(), report.fail_frac());
    emit_layers(&mut report, &values);
    finish_trace(&mut report, &r.spans, trace);
    report
}
