//! The execution pipeline [`Engine::run_grid`] and [`Engine::run_mc`]
//! share: the one step that obtains a result ([`Engine::obtain`]) under
//! one residency decision ([`residency`]), its counters ([`Tally`]), the
//! worker loop ([`for_each_index`]), the reorder buffer ([`Reorder`]) and
//! the tracked-metric rule ([`tracked`], [`metric_value`]).

use crate::cache::Outcome;
use crate::{Engine, EngineError};
use cc_core::experiments::Entry;
use cc_report::{ExperimentOutput, RunContext, Scalar, ScenarioOverlay, ScenarioPoint};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which caches one result may pass through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Residency {
    /// Looked up in and admitted to the resident cache; on a miss, read
    /// through the disk cache and written back to it.
    Resident,
    /// Never enters the resident cache, but is loaded from and stored to
    /// the disk cache by fingerprint.
    Transient,
    /// `no_cache`: a model run, with no cache of either kind.
    Uncached,
}

/// The residency decision, derived from a runner's plan and from the
/// engine, never a user option: `no_cache` caches nothing; a result is
/// resident only when the engine keeps results between runs
/// (`keeps_results`: the daemon's engine) and more than one job of the run
/// reads it (a grid group, a shared Monte-Carlo entry). Every other result
/// is transient: on a one-shot engine no later run could read it, and a
/// result only one job reads (a Monte-Carlo entry the sampled bindings
/// move) would only evict results that are read again.
pub(crate) fn residency(no_cache: bool, keeps_results: bool, read_once: bool) -> Residency {
    if no_cache {
        Residency::Uncached
    } else if keeps_results && !read_once {
        Residency::Resident
    } else {
        Residency::Transient
    }
}

/// Counters one grid or Monte-Carlo run accumulates across its worker
/// threads. Per entry: results obtained below the resident cache (`runs`:
/// disk loads and model runs), model runs of a cached result
/// (`disk_runs`) and disk hits. Per run: resident-cache outcomes, where
/// every transient result counts as a miss.
pub(crate) struct Tally {
    pub runs: Vec<AtomicUsize>,
    pub disk_runs: Vec<AtomicUsize>,
    pub disk_hits: Vec<AtomicUsize>,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub inflight_dedups: AtomicU64,
}

impl Tally {
    pub(crate) fn new(entries: usize) -> Self {
        let per_entry = || (0..entries).map(|_| AtomicUsize::new(0)).collect();
        Self {
            runs: per_entry(),
            disk_runs: per_entry(),
            disk_hits: per_entry(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_dedups: AtomicU64::new(0),
        }
    }
}

/// A finished per-entry counter.
pub(crate) fn counts(counters: Vec<AtomicUsize>) -> Vec<usize> {
    counters.into_iter().map(AtomicUsize::into_inner).collect()
}

impl Engine {
    /// The one place a result is fetched or computed: `entry`'s output for
    /// `context` (whose scenario is `overlay`), taken from the resident
    /// cache, then the disk cache, then a model run, as far as `residency`
    /// allows. A fingerprint is computed only when a cache will use it.
    /// Counts what happened in `tally` under `entry_idx`.
    pub(crate) fn obtain(
        &self,
        entry: &Entry,
        entry_idx: usize,
        overlay: &ScenarioOverlay,
        context: &RunContext,
        residency: Residency,
        tally: &Tally,
    ) -> Arc<ExperimentOutput> {
        // Below the resident cache: read through the disk cache, run the
        // models on a disk miss, and write the fresh result back.
        let compute = |fingerprint: Option<u64>| -> ExperimentOutput {
            tally.runs[entry_idx].fetch_add(1, Ordering::Relaxed);
            let disk = self.disk().zip(fingerprint);
            if let Some((disk, fingerprint)) = disk {
                if let Some(stored) = disk.load(entry.key, fingerprint) {
                    tally.disk_hits[entry_idx].fetch_add(1, Ordering::Relaxed);
                    return stored;
                }
            }
            let fresh = entry.build().run(context);
            if let Some((disk, fingerprint)) = disk {
                disk.store(entry.key, fingerprint, &fresh);
            }
            if residency != Residency::Uncached {
                tally.disk_runs[entry_idx].fetch_add(1, Ordering::Relaxed);
            }
            fresh
        };
        match residency {
            Residency::Resident => {
                let fingerprint = entry.fingerprint(overlay);
                let (output, outcome) = self
                    .cache()
                    .get_or_compute((entry.key, fingerprint), || compute(Some(fingerprint)));
                let counter = match outcome {
                    Outcome::Hit => &tally.hits,
                    Outcome::Miss => &tally.misses,
                    Outcome::InflightDedup => &tally.inflight_dedups,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                output
            }
            Residency::Transient => {
                tally.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(compute(self.disk().map(|_| entry.fingerprint(overlay))))
            }
            Residency::Uncached => Arc::new(compute(None)),
        }
    }
}

/// Runs `work(index)` for every index in `indices` on up to `jobs` scoped
/// worker threads pulling indices off a shared atomic cursor, or inline on
/// the caller's thread when one worker suffices. The first failure stops
/// further indices from starting; the error of the lowest failing index is
/// returned, so the diagnostic does not depend on thread interleaving.
pub(crate) fn for_each_index<E: Send>(
    jobs: usize,
    indices: Range<usize>,
    work: impl Fn(usize) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let workers = jobs.min(indices.len());
    if workers <= 1 {
        return indices.into_iter().try_for_each(work);
    }
    let end = indices.end;
    let next = AtomicUsize::new(indices.start);
    let stop = AtomicBool::new(false);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= end {
                        break;
                    }
                    if let Err(e) = work(index) {
                        let mut slot = error.lock().expect("no panics under lock");
                        if slot.as_ref().is_none_or(|(prior, _)| index < *prior) {
                            *slot = Some((index, e));
                        }
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    match error.into_inner().expect("no panics under lock") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Reorder buffer between out-of-order completion and in-order delivery:
/// workers hand in `(index, item)`, and every item whose predecessors have
/// all arrived is delivered, buffering only the gap.
#[derive(Default)]
pub(crate) struct Reorder<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> Reorder<T> {
    pub(crate) fn complete(&mut self, index: usize, item: T, mut deliver: impl FnMut(T)) {
        self.pending.insert(index, item);
        while let Some(item) = self.pending.remove(&self.next) {
            deliver(item);
            self.next += 1;
        }
    }
}

/// The scalars a sweep comparison or a Monte-Carlo digest follows: the
/// summary scalar (always first) plus every later scalar carrying a
/// decision threshold.
pub(crate) fn tracked(scalars: &[Scalar]) -> impl Iterator<Item = &Scalar> {
    scalars
        .iter()
        .enumerate()
        .filter(|(i, scalar)| *i == 0 || scalar.threshold.is_some())
        .map(|(_, scalar)| scalar)
}

/// `metric`'s value among one job's `scalars`. Every job must carry every
/// tracked metric; a gap is an error naming the job's point.
pub(crate) fn metric_value(
    scalars: &[Scalar],
    metric: &Scalar,
    key: &'static str,
    point: &ScenarioPoint,
) -> Result<f64, EngineError> {
    let found = scalars.iter().find(|s| s.name == metric.name);
    found
        .map(|s| s.value)
        .ok_or_else(|| EngineError::MissingScalarAtPoint {
            key,
            metric: metric.name.clone(),
            point: point.display_label().to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{render_artifact, render_comparisons, render_mc_comparisons};
    use crate::grid::build_comparisons;
    use crate::{DiskCache, Format, GridConfig, McConfig, DEFAULT_CACHE_CAPACITY};
    use cc_core::experiments::{find_entry, with_tags, Tag};
    use cc_report::{DistBinding, MonteCarloMatrix, Scenario, ScenarioMatrix, SweepSpec};
    use std::path::Path;

    #[test]
    fn worker_loop_reports_the_lowest_failing_index() {
        for jobs in [1, 4] {
            let result = for_each_index(jobs, 0..100, |i| if i % 7 == 3 { Err(i) } else { Ok(()) });
            assert_eq!(result, Err(3), "jobs {jobs}");
        }
    }

    #[test]
    fn no_cache_bypasses_an_attached_disk_cache() {
        let dir = std::env::temp_dir().join(format!("cc-pipeline-no-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = fresh_engine(true, Some(&dir));
        let entries = vec![
            find_entry("fig05").expect("known key"),
            find_entry("ext-facility").expect("known key"),
        ];
        let sweep = SweepSpec::parse("fleet.growth=1.1,1.3").expect("valid sweep");
        let matrix = ScenarioMatrix::new(Scenario::paper_defaults(), vec![sweep]).expect("matrix");
        let points: Vec<_> = matrix.points().collect();
        let contexts: Vec<_> = points
            .iter()
            .map(|p| RunContext::try_from_overlay(p.overlay.clone()).expect("valid scenario"))
            .collect();
        let grid_config = GridConfig {
            jobs: 2,
            no_cache: true,
            format: Format::Json,
        };
        let grid = engine.run_grid(
            &entries,
            &points,
            &contexts,
            &grid_config,
            |_| vec![],
            |_| {},
        );
        let binding = DistBinding::parse("fleet.growth ~ uniform(1.2,1.4)").expect("binding");
        let mc = MonteCarloMatrix::new(Scenario::paper_defaults(), vec![binding], 20, 7)
            .expect("valid matrix");
        let mut mc_config = McConfig {
            jobs: 2,
            no_cache: true,
        };
        let sampled = engine.run_mc(&entries, &mc, &mc_config).expect("mc run");

        assert_eq!(grid.run_counts, vec![2, 2]);
        assert_eq!(sampled.run_counts, vec![20, 20]);
        let untouched = (vec![0, 0], vec![0, 0]);
        assert_eq!((grid.disk_runs, grid.disk_hits), untouched);
        assert_eq!((sampled.disk_runs, sampled.disk_hits), untouched);
        let disk = engine.disk().expect("attached");
        assert_eq!(disk.counters(), (0, 0, 0), "nothing loaded or stored");
        assert_eq!(std::fs::read_dir(disk.dir()).expect("cache dir").count(), 0);
        assert_eq!(engine.stats().entries, 0, "nothing resident");
        // The same run with caching on does reach the attached disk cache.
        mc_config.no_cache = false;
        engine.run_mc(&entries, &mc, &mc_config).expect("mc run");
        assert_eq!(disk.counters(), (0, 21, 21));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fresh engine of either kind, reading through a disk cache in
    /// `disk` when given.
    fn fresh_engine(resident: bool, disk: Option<&Path>) -> Engine {
        let engine = if resident {
            Engine::resident(DEFAULT_CACHE_CAPACITY)
        } else {
            Engine::new()
        };
        match disk {
            Some(dir) => engine.with_disk(DiskCache::open(dir).expect("cache dir")),
            None => engine,
        }
    }

    /// What one run hands back: rendered outputs and scalars, which both
    /// engine kinds and `no_cache` must agree on, and the per-entry
    /// counters (runs, disk runs, disk hits) and lookup outcomes (hits,
    /// misses, in-flight dedups), which both engine kinds must agree on.
    struct Observed {
        outputs: Vec<String>,
        scalars: Vec<Vec<Scalar>>,
        counters: [Vec<usize>; 3],
        lookups: [u64; 3],
    }

    /// Runs `run` on a one-shot engine (`shot`) and on a resident engine
    /// (`kept`), each fresh, without a disk cache and then on a cold and a
    /// warm one, and checks both against each other and against a
    /// `no_cache` run. Returns the one-shot observations.
    fn assert_engines_agree(name: &str, run: &dyn Fn(&Engine, bool) -> Observed) -> Vec<Observed> {
        let dir = std::env::temp_dir().join(format!("cc-pipeline-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let uncached = run(&Engine::new(), true);
        let mut shots = Vec::new();
        for round in ["no disk cache", "cold disk cache", "warm disk cache"] {
            let disk = |kind: &str| (round != "no disk cache").then(|| dir.join(kind));
            let one_shot = fresh_engine(false, disk("one-shot").as_deref());
            let shot = run(&one_shot, false);
            let kept = run(&fresh_engine(true, disk("resident").as_deref()), false);
            assert_eq!(shot.outputs, kept.outputs, "{name}, {round}");
            assert_eq!(shot.outputs, uncached.outputs, "{name}, {round}");
            assert_eq!(shot.scalars, kept.scalars, "{name}, {round}");
            assert_eq!(shot.scalars, uncached.scalars, "{name}, {round}");
            assert_eq!(shot.counters, kept.counters, "{name}, {round}");
            assert_eq!(shot.lookups, kept.lookups, "{name}, {round}");
            if round == "warm disk cache" {
                let [runs, disk_runs, disk_hits] = &shot.counters;
                assert_eq!((disk_hits, disk_runs.iter().sum()), (runs, 0), "{name}");
            }
            let stats = one_shot.stats();
            let resident_state = [
                stats.hits,
                stats.misses,
                stats.inflight_dedups,
                stats.evictions,
                stats.entries,
            ];
            assert_eq!(resident_state, [0; 5], "{name}, {round}: nothing resident");
            shots.push(shot);
        }
        let _ = std::fs::remove_dir_all(&dir);
        shots
    }

    #[test]
    fn one_shot_engine_matches_resident_and_uncached_runs() {
        let suite = with_tags(&[]);
        let sweeps = ["fleet.growth=1.0,1.5", "grid.intensity=50,380"]
            .map(|text| SweepSpec::parse(text).expect("valid sweep"));
        let matrix =
            ScenarioMatrix::new(Scenario::paper_defaults(), sweeps.to_vec()).expect("matrix");
        let points: Vec<_> = matrix.points().collect();
        let contexts: Vec<_> = points
            .iter()
            .map(|p| RunContext::try_from_overlay(p.overlay.clone()).expect("valid scenario"))
            .collect();
        let grid = |engine: &Engine, no_cache: bool| {
            let config = GridConfig {
                jobs: 2,
                no_cache,
                format: Format::Json,
            };
            let artifacts = Mutex::new(Vec::new());
            let render = |job: &crate::GridJob<'_>| {
                let point = job.sweeping.then_some(job.point);
                let artifact = render_artifact(
                    job.entry,
                    job.experiment,
                    job.output,
                    job.context,
                    point,
                    job.format,
                );
                vec![artifact]
            };
            let sink = |line| artifacts.lock().expect("no panics").push(line);
            let result = engine.run_grid(&suite, &points, &contexts, &config, render, sink);
            let comparisons = build_comparisons(&suite, &points, &result.scalars, &matrix)
                .expect("full scalar coverage");
            let mut outputs = artifacts.into_inner().expect("no panics");
            outputs.push(render_comparisons(&comparisons, &matrix, Format::Json));
            Observed {
                outputs,
                scalars: result.scalars,
                counters: [result.run_counts, result.disk_runs, result.disk_hits],
                lookups: [result.hits, result.misses, result.inflight_dedups],
            }
        };
        for one_shot in assert_engines_agree("grid", &grid) {
            let groups = one_shot.counters[0].iter().sum::<usize>() as u64;
            assert_eq!(one_shot.lookups, [0, groups, 0], "one miss per group");
        }

        let datacenter = with_tags(&[Tag::Datacenter]);
        let binding = DistBinding::parse("fleet.growth ~ uniform(1.2,1.4)").expect("binding");
        let mc = MonteCarloMatrix::new(Scenario::paper_defaults(), vec![binding], 100, 7)
            .expect("valid matrix");
        let sampled = |engine: &Engine, no_cache: bool| {
            let config = McConfig { jobs: 2, no_cache };
            let result = engine.run_mc(&datacenter, &mc, &config).expect("mc run");
            Observed {
                outputs: vec![render_mc_comparisons(
                    &result.comparisons,
                    &mc,
                    Format::Json,
                )],
                scalars: Vec::new(),
                counters: [result.run_counts, result.disk_runs, result.disk_hits],
                lookups: [result.hits, result.misses, result.inflight_dedups],
            }
        };
        assert_engines_agree("mc", &sampled);
    }
}
