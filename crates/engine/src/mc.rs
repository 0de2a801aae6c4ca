//! The streaming Monte-Carlo runner.
//!
//! Where the grid runner ([`crate::grid`]) walks an enumerated scenario
//! matrix and keeps every point's artifact, the Monte-Carlo runner pumps
//! `samples` *drawn* scenario points ([`MonteCarloMatrix::point`]) through
//! the same fingerprint → cache → model pipeline and keeps only streaming
//! digests: one [`StreamingStats`] accumulator per (experiment, metric),
//! so memory stays flat whether a run draws 10³ or 10⁶ samples.
//!
//! Determinism is the load-bearing property. `point(i)` is pure in
//! `(seed, i)`, so the sampled scenarios are identical however the worker
//! threads interleave — but the accumulators (Welford + P² quantiles) are
//! *order-sensitive*, so workers hand their finished sample values to a
//! reorder buffer that feeds the accumulators strictly in sample order.
//! The result: byte-identical statistics for the same seed across any
//! `--jobs` value, and across one-shot versus served runs.
//!
//! Before sampling, the runner plans each experiment once
//! ([`MonteCarloMatrix::moves`]): samples only perturb the fields the
//! distribution bindings write, so an experiment whose declared
//! dependencies cover none of them is *shared* — every sampled point
//! fingerprints like the probe, the probe's one lookup through the
//! resident cache answers all samples, and later samples do no fingerprint
//! and no lookup. Every other experiment is *per-sample*: it runs straight
//! from the sample's context, its tracked scalars are read, and the output
//! is dropped while still hot. Per-sample results never enter the resident
//! cache — nothing reads them again, and inserting them would evict the
//! results that are (in a daemon, other clients' artifacts) — but with a
//! disk cache attached they still load and store by fingerprint.

use crate::cache::Outcome;
use crate::grid::plan_lines;
use crate::{Engine, EngineError};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::Entry;
use cc_report::{
    ExperimentOutput, McComparison, MonteCarloMatrix, RunContext, ScalarThreshold, ScenarioOverlay,
    ScenarioPoint,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Knobs for one Monte-Carlo run.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Worker threads pulling sample indices (clamped to the sample count).
    pub jobs: usize,
    /// Run the models for every sample instead of deduplicating through
    /// the engine's fingerprint cache.
    pub no_cache: bool,
}

/// Errors surfaced by a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// An experiment's scalar coverage broke (no summary scalar, or a
    /// metric missing at one sampled point).
    Engine(EngineError),
    /// A sampled point failed to apply or validate — typically an
    /// unbounded `normal` tail drawing outside the field's physical range.
    Sample(String),
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => e.fmt(f),
            Self::Sample(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for McError {}

/// What one Monte-Carlo run produced.
#[derive(Debug)]
pub struct McResult {
    /// One banded digest per (experiment, tracked metric): the experiment's
    /// summary scalar plus every scalar carrying a decision threshold, in
    /// entry order.
    pub comparisons: Vec<McComparison>,
    /// Per-entry model computations (or disk loads): one per sample for a
    /// per-sample entry (and for every entry under `no_cache`), at most one
    /// for a shared entry — none when its result was already resident.
    /// Exact for any `jobs` value and cache capacity.
    pub run_counts: Vec<usize>,
    /// Per-entry fingerprints this process computed fresh (misses the disk
    /// cache could not answer).
    pub disk_runs: Vec<usize>,
    /// Per-entry fingerprints answered by the persistent on-disk cache.
    pub disk_hits: Vec<usize>,
    /// Samples a shared entry's one result answered without computing:
    /// every sample after the probe, plus the probe when its lookup found
    /// the result resident.
    pub hits: u64,
    /// Computations, as counted by `run_counts` (zero under `no_cache`):
    /// every per-sample run plus each shared probe lookup that missed.
    /// Outside `no_cache`, `hits + misses + inflight_dedups` is samples ×
    /// entries.
    pub misses: u64,
    /// Shared probe lookups that waited on another request's in-flight
    /// computation of the same result.
    pub inflight_dedups: u64,
}

/// One tracked metric: the summary scalar or a thresholded secondary.
struct MetricSpec {
    name: String,
    unit: String,
    threshold: Option<ScalarThreshold>,
}

/// Reorder buffer between out-of-order sample completion and the
/// order-sensitive accumulators: workers hand in `(sample index, values)`,
/// and every value whose predecessors have all arrived is pushed into its
/// accumulator, buffering only the gap.
struct Collector {
    next: usize,
    pending: BTreeMap<usize, Vec<f64>>,
    stats: Vec<StreamingStats>,
}

impl Collector {
    fn complete(&mut self, index: usize, values: Vec<f64>) {
        self.pending.insert(index, values);
        while let Some(values) = self.pending.remove(&self.next) {
            for (slot, value) in self.stats.iter_mut().zip(values) {
                slot.push(value);
            }
            self.next += 1;
        }
    }
}

/// Whether `entry` runs once per sample: always under `no_cache`, and
/// otherwise exactly when the bindings move one of its declared
/// dependencies ([`MonteCarloMatrix::moves`]). [`Engine::run_mc`] and
/// [`explain_lines`] share this one classification.
fn runs_per_sample(entry: &Entry, matrix: &MonteCarloMatrix, no_cache: bool) -> bool {
    no_cache || matrix.moves(entry.deps())
}

/// The Monte-Carlo plan for `repro --explain`, in the grid plan's format
/// ([`crate::grid::explain_lines`]): an entry the bindings move runs once
/// per sample, any other entry runs once and is reused by every later
/// sample — the counts [`Engine::run_mc`] reports on a cold engine.
#[must_use]
pub fn explain_lines(
    entries: &[&'static Entry],
    matrix: &MonteCarloMatrix,
    no_cache: bool,
) -> Vec<String> {
    let samples = matrix.len();
    plan_lines(entries, samples, "sample", |entry| {
        if runs_per_sample(entry, matrix, no_cache) {
            samples
        } else {
            1
        }
    })
}

/// Appends the tracked metric values of `output`, in `specs` order.
fn push_tracked(
    values: &mut Vec<f64>,
    entry: &Entry,
    specs: &[MetricSpec],
    output: &ExperimentOutput,
    point: &ScenarioPoint,
) -> Result<(), McError> {
    for spec in specs {
        let scalar = output
            .scalars
            .iter()
            .find(|s| s.name == spec.name)
            .ok_or_else(|| {
                McError::Engine(EngineError::MissingScalarAtPoint {
                    key: entry.key,
                    metric: spec.name.clone(),
                    point: point.display_label().to_string(),
                })
            })?;
        values.push(scalar.value);
    }
    Ok(())
}

impl Engine {
    /// Pumps every sampled point of `matrix` through the selected
    /// experiments on up to `config.jobs` worker threads, digesting each
    /// tracked metric into a [`McComparison`].
    ///
    /// Sample 0 doubles as the probe that fixes each experiment's tracked
    /// metrics (its summary scalar plus any thresholded scalars — the same
    /// rule as [`crate::grid::build_comparisons`]). A shared entry (one the
    /// bindings do not move) is looked up in the resident cache for the
    /// probe only, and its values answer every later sample; a per-sample
    /// entry runs for every sample without touching the resident cache.
    /// The remaining samples stream through the reorder buffer.
    ///
    /// # Errors
    ///
    /// [`McError::Sample`] when a drawn value fails scenario validation,
    /// [`McError::Engine`] when an experiment's scalar coverage breaks.
    pub fn run_mc(
        &self,
        entries: &[&'static Entry],
        matrix: &MonteCarloMatrix,
        config: &McConfig,
    ) -> Result<McResult, McError> {
        let samples = matrix.len();
        let run_counts: Vec<AtomicUsize> =
            (0..entries.len()).map(|_| AtomicUsize::new(0)).collect();
        let disk_runs: Vec<AtomicUsize> = (0..entries.len()).map(|_| AtomicUsize::new(0)).collect();
        let disk_hits: Vec<AtomicUsize> = (0..entries.len()).map(|_| AtomicUsize::new(0)).collect();
        let misses = AtomicU64::new(0);
        let (mut hits, mut dedups) = (0, 0);
        let per_sample: Vec<bool> = entries
            .iter()
            .map(|entry| runs_per_sample(entry, matrix, config.no_cache))
            .collect();

        // One model run, read through the disk cache and written back to
        // it when one is attached, so `--cache-dir` warms Monte-Carlo runs
        // exactly as it warms grids.
        let compute = |entry_idx: usize,
                       entry: &Entry,
                       overlay: &ScenarioOverlay,
                       context: &RunContext|
         -> ExperimentOutput {
            run_counts[entry_idx].fetch_add(1, Ordering::Relaxed);
            let disk = self.disk().map(|disk| (disk, entry.fingerprint(overlay)));
            if let Some((disk, fingerprint)) = disk {
                if let Some(stored) = disk.load(entry.key, fingerprint) {
                    disk_hits[entry_idx].fetch_add(1, Ordering::Relaxed);
                    return stored;
                }
            }
            let fresh = entry.build().run(context);
            if let Some((disk, fingerprint)) = disk {
                disk.store(entry.key, fingerprint, &fresh);
            }
            disk_runs[entry_idx].fetch_add(1, Ordering::Relaxed);
            fresh
        };
        // One per-sample result, straight from the sample's context. It is
        // never inserted into the resident cache: nothing reads it again,
        // and inserting it would only evict results that are read again.
        let run_sample = |entry_idx: usize,
                          entry: &Entry,
                          overlay: &ScenarioOverlay,
                          context: &RunContext|
         -> ExperimentOutput {
            if config.no_cache {
                run_counts[entry_idx].fetch_add(1, Ordering::Relaxed);
                return entry.build().run(context);
            }
            misses.fetch_add(1, Ordering::Relaxed);
            compute(entry_idx, entry, overlay, context)
        };

        // Probe with sample 0: fix each experiment's tracked metrics,
        // resolve every shared entry once, and collect the first sample's
        // values while we're at it.
        let sample_error = |index: usize, e: &dyn std::fmt::Display| {
            McError::Sample(format!("sample {index}: {e}"))
        };
        let probe = matrix
            .point(0)
            .map_err(|e| McError::Sample(e.to_string()))?;
        let probe_context =
            RunContext::try_from_overlay(probe.overlay.clone()).map_err(|e| sample_error(0, &e))?;
        let mut metric_specs: Vec<Vec<MetricSpec>> = Vec::with_capacity(entries.len());
        // A shared entry's tracked values: its one result answers every
        // sample, so later samples do no fingerprint and no lookup.
        let mut shared: Vec<Option<Vec<f64>>> = Vec::with_capacity(entries.len());
        let mut first_values = Vec::new();
        for (entry_idx, entry) in entries.iter().enumerate() {
            let output = if per_sample[entry_idx] {
                Arc::new(run_sample(entry_idx, entry, &probe.overlay, &probe_context))
            } else {
                let key = (entry.key, entry.fingerprint(&probe.overlay));
                let (output, outcome) = self.cache().get_or_compute(key, || {
                    compute(entry_idx, entry, &probe.overlay, &probe_context)
                });
                match outcome {
                    Outcome::Hit => hits += 1,
                    Outcome::Miss => {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    Outcome::InflightDedup => dedups += 1,
                }
                output
            };
            if output.scalars.is_empty() {
                return Err(McError::Engine(EngineError::MissingSummaryScalar {
                    key: entry.key,
                }));
            }
            let specs: Vec<MetricSpec> = output
                .scalars
                .iter()
                .enumerate()
                .filter(|(i, scalar)| *i == 0 || scalar.threshold.is_some())
                .map(|(_, scalar)| MetricSpec {
                    name: scalar.name.clone(),
                    unit: scalar.unit.clone(),
                    threshold: scalar.threshold.clone(),
                })
                .collect();
            let start = first_values.len();
            push_tracked(&mut first_values, entry, &specs, &output, &probe)?;
            shared.push((!per_sample[entry_idx]).then(|| first_values[start..].to_vec()));
            metric_specs.push(specs);
        }
        let width = first_values.len();

        let collector = Mutex::new(Collector {
            next: 0,
            pending: BTreeMap::new(),
            stats: vec![StreamingStats::new(); width],
        });
        collector
            .lock()
            .expect("no panics under lock")
            .complete(0, first_values);

        // One sample end to end: draw the point, run every per-sample
        // experiment, pull out the tracked metric values in flat
        // (entry-major, metric-minor) order. Every point is drawn and
        // validated even when all entries are shared, so an out-of-range
        // draw still fails the run.
        let process = |index: usize| -> Result<Vec<f64>, McError> {
            let point = matrix
                .point(index)
                .map_err(|e| McError::Sample(e.to_string()))?;
            let context = RunContext::try_from_overlay(point.overlay.clone())
                .map_err(|e| sample_error(index, &e))?;
            let mut values = Vec::with_capacity(width);
            for (entry_idx, entry) in entries.iter().enumerate() {
                if let Some(fixed) = &shared[entry_idx] {
                    values.extend_from_slice(fixed);
                    continue;
                }
                let output = run_sample(entry_idx, entry, &point.overlay, &context);
                push_tracked(
                    &mut values,
                    entry,
                    &metric_specs[entry_idx],
                    &output,
                    &point,
                )?;
            }
            Ok(values)
        };

        // Workers pull sample indices off a shared cursor; the first error
        // (lowest sample index wins, for a stable diagnostic) raises the
        // stop flag and the run drains.
        let next_sample = AtomicUsize::new(1);
        let stop = AtomicBool::new(false);
        let error: Mutex<Option<(usize, McError)>> = Mutex::new(None);
        let work = || loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let index = next_sample.fetch_add(1, Ordering::Relaxed);
            if index >= samples {
                break;
            }
            match process(index) {
                Ok(values) => collector
                    .lock()
                    .expect("no panics under lock")
                    .complete(index, values),
                Err(e) => {
                    let mut slot = error.lock().expect("no panics under lock");
                    if slot.as_ref().is_none_or(|(prior, _)| index < *prior) {
                        *slot = Some((index, e));
                    }
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        };
        let workers = config.jobs.clamp(1, samples);
        if workers <= 1 {
            work();
        } else {
            let work = &work;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }
        if let Some((_, e)) = error.into_inner().expect("no panics under lock") {
            return Err(e);
        }
        let reused = shared.iter().filter(|values| values.is_some()).count();
        hits += (reused * (samples - 1)) as u64;

        let collector = collector.into_inner().expect("no panics under lock");
        debug_assert_eq!(collector.next, samples, "every sample accumulated");
        let mut stats = collector.stats.into_iter();
        let mut comparisons = Vec::new();
        for (entry_idx, entry) in entries.iter().enumerate() {
            for spec in &metric_specs[entry_idx] {
                let digest = stats.next().expect("one accumulator per metric");
                let summary = digest.summary().expect("at least one sample");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: spec.name.clone(),
                    unit: spec.unit.clone(),
                    threshold: spec.threshold.clone(),
                    stats: summary,
                });
            }
        }
        Ok(McResult {
            comparisons,
            run_counts: run_counts
                .into_iter()
                .map(AtomicUsize::into_inner)
                .collect(),
            disk_runs: disk_runs.into_iter().map(AtomicUsize::into_inner).collect(),
            disk_hits: disk_hits.into_iter().map(AtomicUsize::into_inner).collect(),
            hits,
            misses: misses.into_inner(),
            inflight_dedups: dedups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::experiments;
    use cc_report::{DistBinding, Scenario};

    fn matrix(bindings: &[&str], samples: usize, seed: u64) -> MonteCarloMatrix {
        let bindings = bindings
            .iter()
            .map(|b| DistBinding::parse(b).expect("valid binding"))
            .collect();
        MonteCarloMatrix::new(Scenario::paper_defaults(), bindings, samples, seed)
            .expect("valid matrix")
    }

    fn entry(key: &str) -> Vec<&'static Entry> {
        vec![experiments::find_entry(key).expect("known key")]
    }

    #[test]
    fn statistics_are_identical_across_job_counts() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fleet.growth ~ uniform(1.2,1.4)"], 200, 7);
        let serial = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: false,
                },
            )
            .expect("serial run");
        let parallel = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 4,
                    no_cache: false,
                },
            )
            .expect("parallel run");
        assert_eq!(serial.comparisons, parallel.comparisons);
        assert_eq!(serial.run_counts, parallel.run_counts);
        assert_eq!(serial.misses, parallel.misses);
        // The sampled axis moves the model: the band has real width.
        let stats = &serial.comparisons[0].stats;
        assert_eq!(stats.n, 200);
        assert!(stats.ci90_half_width() > 0.0, "{stats:?}");
    }

    #[test]
    fn samples_outside_declared_dependencies_share_one_run() {
        // ext-facility never reads fab.node_nm, so every sampled point
        // fingerprints identically: one model run, the rest cache hits.
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ triangular(5,7,10)"], 50, 7);
        let engine = Engine::new();
        let result = engine
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 2,
                    no_cache: false,
                },
            )
            .expect("mc run");
        assert_eq!(result.run_counts, vec![1]);
        assert_eq!(result.misses, 1);
        assert_eq!(result.hits + result.inflight_dedups, 49);
        // Constant metric: a zero-width band is the honest answer.
        assert_eq!(result.comparisons[0].stats.ci90_half_width(), 0.0);
    }

    #[test]
    fn per_sample_results_never_churn_the_resident_cache() {
        // ext-facility reads fleet.growth, ext-sched does not: 300 sampled
        // ext-facility results must not evict ext-sched's one shared
        // result, nor an artifact resident before the run, from a cache
        // far smaller than the sample count.
        let entries = vec![
            experiments::find_entry("ext-facility").expect("known key"),
            experiments::find_entry("ext-sched").expect("known key"),
        ];
        let mc = matrix(&["fleet.growth ~ uniform(1.2,1.4)"], 300, 7);
        let reference = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: true,
                },
            )
            .expect("uncached run");
        let fig05 = experiments::find_entry("fig05").expect("known key");
        let resident = (fig05.key, fig05.fingerprint(mc.base()));
        let paper = RunContext::new(Scenario::paper_defaults());
        for jobs in [1, 4] {
            let engine = Engine::with_capacity(16);
            let compute = || fig05.build().run(&paper);
            engine.cache().get_or_compute(resident, compute);
            let result = engine
                .run_mc(
                    &entries,
                    &mc,
                    &McConfig {
                        jobs,
                        no_cache: false,
                    },
                )
                .expect("mc run");
            assert_eq!(result.run_counts, vec![300, 1], "jobs {jobs}");
            assert_eq!(result.hits, 299, "jobs {jobs}");
            assert_eq!(result.misses, 301, "jobs {jobs}");
            assert_eq!(result.inflight_dedups, 0, "jobs {jobs}");
            assert_eq!(engine.stats().evictions, 0, "jobs {jobs}");
            assert_eq!(result.comparisons, reference.comparisons, "jobs {jobs}");
            let (_, outcome) = engine.cache().get_or_compute(resident, compute);
            assert_eq!(outcome, Outcome::Hit, "jobs {jobs}");
        }
    }

    #[test]
    fn shared_classifications_hold_for_every_entry_and_sampled_row() {
        // A shared entry reuses the probe's result for every sample, so it
        // must fingerprint identically at the base and at every sample; a
        // per-sample entry must actually move.
        let paper = Scenario::paper_defaults();
        let mut cases: Vec<(Scenario, String)> = cc_report::scenario::deps::FIELDS
            .iter()
            .filter(|field| field.distribution_eligible)
            .map(|field| {
                let default: f64 = paper.field_value(field.path).unwrap().parse().unwrap();
                let width = 1e-3 * default.abs().max(1.0);
                let (low, high) = ((default - width).max(0.0), default + width);
                (
                    paper.clone(),
                    format!("{} ~ uniform({low},{high})", field.path),
                )
            })
            .collect();
        let mut mixed = paper.clone();
        mixed.set("fleet.mix", "web:0.7,ai-training:0.3").unwrap();
        cases.push((mixed, "fleet.mix[web] ~ uniform(0.69,0.71)".to_string()));
        cases.push((
            paper.clone(),
            "fleet.sites[hydro].weight ~ uniform(0.2,0.3)".to_string(),
        ));
        cases.push((
            paper,
            "grid.region.hydro.trace ~ uniform(20,30)".to_string(),
        ));
        for (base, text) in cases {
            let binding = DistBinding::parse(&text).expect("valid binding");
            let mc = MonteCarloMatrix::new(base, vec![binding], 8, 11).expect(&text);
            let points: Vec<_> = (0..8).map(|i| mc.point(i).expect("valid draw")).collect();
            for entry in experiments::entries() {
                let sampled: Vec<u64> = points
                    .iter()
                    .map(|p| entry.fingerprint(&p.overlay))
                    .collect();
                if mc.moves(entry.deps()) {
                    let distinct: std::collections::HashSet<_> = sampled.iter().collect();
                    assert_eq!(distinct.len(), 8, "{} moves under `{text}`", entry.key);
                } else {
                    let at_base = entry.fingerprint(mc.base());
                    assert!(
                        sampled.iter().all(|&fp| fp == at_base),
                        "{} is shared under `{text}` but its fingerprint moved",
                        entry.key
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_draws_surface_as_sample_errors() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ normal(3,40)"], 200, 1);
        let err = Engine::new()
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 2,
                    no_cache: false,
                },
            )
            .expect_err("most normal(3,40) mass is out of range");
        assert!(matches!(err, McError::Sample(_)), "{err:?}");
        assert!(err.to_string().contains("sample"), "{err}");
    }

    #[test]
    fn no_cache_runs_the_model_per_sample() {
        let entries = entry("ext-facility");
        let mc = matrix(&["fab.node_nm ~ triangular(5,7,10)"], 8, 3);
        let engine = Engine::new();
        let result = engine
            .run_mc(
                &entries,
                &mc,
                &McConfig {
                    jobs: 1,
                    no_cache: true,
                },
            )
            .expect("mc run");
        assert_eq!(result.run_counts, vec![8]);
        assert_eq!(result.hits + result.misses + result.inflight_dedups, 0);
        assert_eq!(engine.stats().entries, 0);
    }
}
