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
//! ([`MonteCarloMatrix::moves`]) and turns the plan into the residency the
//! engine's one obtain step works with (the same step, worker loop and
//! reorder buffer the grid runner uses). Samples only perturb the fields
//! the distribution bindings write, so an experiment whose declared
//! dependencies cover none of them is *shared*: every sampled point
//! fingerprints like the probe, the probe's one result answers all
//! samples, and later samples do no fingerprint and no lookup. On the
//! daemon's resident engine that result is resident, so a later request
//! reuses it; on the one-shot engine it is transient. Every other
//! experiment is *per-sample*, obtained as a transient result from each
//! sample's context: its tracked scalars are read and the output is
//! dropped while still hot. Transient results never enter the resident
//! cache — nothing reads them again, and inserting them would evict the
//! results that are (in a daemon, other clients' artifacts) — but with a
//! disk cache attached they still load and store by fingerprint.

use crate::grid::plan_lines;
use crate::pipeline::{counts, for_each_index, metric_value, residency, tracked, Reorder, Tally};
use crate::{Engine, EngineError};
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::Entry;
use cc_report::{McComparison, MonteCarloMatrix, RunContext, Scalar, ScenarioPoint};
use std::sync::Mutex;

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
        if shared_entry(entry, matrix, no_cache) {
            1
        } else {
            samples
        }
    })
}

/// Whether one result of `entry` answers every sample of `matrix`: the
/// bindings move none of its declared dependencies, and `no_cache` does
/// not ask for a model run per sample.
fn shared_entry(entry: &Entry, matrix: &MonteCarloMatrix, no_cache: bool) -> bool {
    !no_cache && !matrix.moves(entry.deps())
}

impl Engine {
    /// Pumps every sampled point of `matrix` through the selected
    /// experiments on up to `config.jobs` worker threads, digesting each
    /// tracked metric into a [`McComparison`].
    ///
    /// Sample 0 doubles as the probe that fixes each experiment's tracked
    /// metrics (its summary scalar plus any thresholded scalars — the same
    /// rule as [`crate::grid::build_comparisons`]). A shared entry (one the
    /// bindings do not move) is obtained for the probe only — as a
    /// resident result on a resident engine — and its values answer every
    /// later sample; a per-sample entry is obtained as a transient result
    /// for every sample. The remaining samples stream through the reorder
    /// buffer.
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
        let tally = Tally::new(entries.len());
        // An entry is shared unless the bindings move one of its declared
        // dependencies (or `no_cache`) — the classification [`explain_lines`]
        // prints. Every other entry is read once per sample.
        let is_shared: Vec<bool> = entries
            .iter()
            .map(|entry| shared_entry(entry, matrix, config.no_cache))
            .collect();
        let plan: Vec<_> = is_shared
            .iter()
            .map(|&shared| residency(config.no_cache, self.resident, !shared))
            .collect();
        let draw = |index: usize| -> Result<(ScenarioPoint, RunContext), McError> {
            let point = matrix
                .point(index)
                .map_err(|e| McError::Sample(e.to_string()))?;
            let context = RunContext::try_from_overlay(point.overlay.clone())
                .map_err(|e| McError::Sample(format!("sample {index}: {e}")))?;
            Ok((point, context))
        };

        // Probe with sample 0: fix each experiment's tracked metrics,
        // resolve every shared entry once, and collect the first sample's
        // values while we're at it.
        let (probe, probe_context) = draw(0)?;
        let mut metrics: Vec<Vec<Scalar>> = Vec::with_capacity(entries.len());
        // A shared entry's tracked values: its one result answers every
        // sample, so later samples do no fingerprint and no lookup.
        let mut shared: Vec<Option<Vec<f64>>> = Vec::with_capacity(entries.len());
        let mut first_values = Vec::new();
        for (entry_idx, entry) in entries.iter().enumerate() {
            let output = self.obtain(
                entry,
                entry_idx,
                &probe.overlay,
                &probe_context,
                plan[entry_idx],
                &tally,
            );
            if output.scalars.is_empty() {
                return Err(McError::Engine(EngineError::MissingSummaryScalar {
                    key: entry.key,
                }));
            }
            let tracked: Vec<Scalar> = tracked(&output.scalars).cloned().collect();
            let values: Vec<f64> = tracked.iter().map(|scalar| scalar.value).collect();
            first_values.extend_from_slice(&values);
            shared.push(is_shared[entry_idx].then_some(values));
            metrics.push(tracked);
        }
        let width = first_values.len();

        let digests = Mutex::new((Reorder::default(), vec![StreamingStats::new(); width]));
        let accumulate = |index: usize, values: Vec<f64>| {
            let mut digests = digests.lock().expect("no panics under lock");
            let (reorder, stats) = &mut *digests;
            reorder.complete(index, values, |values| {
                for (slot, value) in stats.iter_mut().zip(values) {
                    slot.push(value);
                }
            });
        };
        accumulate(0, first_values);

        // Every other sample end to end: draw the point, obtain every
        // per-sample experiment, pull out the tracked metric values in flat
        // (entry-major, metric-minor) order. Every point is drawn and
        // validated even when all entries are shared, so an out-of-range
        // draw still fails the run.
        for_each_index(config.jobs, 1..samples, |index| {
            let (point, context) = draw(index)?;
            let mut values = Vec::with_capacity(width);
            for (entry_idx, entry) in entries.iter().enumerate() {
                if let Some(fixed) = &shared[entry_idx] {
                    values.extend_from_slice(fixed);
                    continue;
                }
                let output = self.obtain(
                    entry,
                    entry_idx,
                    &point.overlay,
                    &context,
                    plan[entry_idx],
                    &tally,
                );
                for metric in &metrics[entry_idx] {
                    let value = metric_value(&output.scalars, metric, entry.key, &point);
                    values.push(value.map_err(McError::Engine)?);
                }
            }
            accumulate(index, values);
            Ok(())
        })?;
        // Every sample after the probe reused each shared entry's values.
        let reused = shared.iter().filter(|values| values.is_some()).count();

        let (_, stats) = digests.into_inner().expect("no panics under lock");
        let mut stats = stats.into_iter();
        let mut comparisons = Vec::new();
        for (entry, metrics) in entries.iter().zip(metrics) {
            for metric in metrics {
                let digest = stats.next().expect("one accumulator per metric");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: metric.name,
                    unit: metric.unit,
                    threshold: metric.threshold,
                    stats: digest.summary().expect("at least one sample"),
                });
            }
        }
        Ok(McResult {
            comparisons,
            run_counts: counts(tally.runs),
            disk_runs: counts(tally.disk_runs),
            disk_hits: counts(tally.disk_hits),
            hits: tally.hits.into_inner() + (reused * (samples - 1)) as u64,
            misses: tally.misses.into_inner(),
            inflight_dedups: tally.inflight_dedups.into_inner(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Outcome;
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
            let engine = Engine::resident(16);
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
