//! The in-process workloads: enumerated sweeps (`sweep-unique`,
//! `suite-sweep`) and a sampled Monte-Carlo run (`mc-sampled`).
//!
//! A *pass* is what one CLI invocation does, minus process start-up and
//! file writes: a fresh [`Engine`], the engine's own runner
//! ([`Engine::run_grid`] or [`Engine::run_mc`]) and the rendered
//! comparison, with a sink that hashes every artifact instead of writing
//! it. A *replay* walks the same plan through the public calls those
//! runners make internally, one span per call, so the traced run can
//! attribute time to layers the runners hide.

use crate::trace::Tracer;
use crate::util::fnv;
use cc_analysis::stats::StreamingStats;
use cc_core::experiments::{self, Entry};
use cc_engine::artifact::{render_artifact, render_comparisons, render_mc_comparisons};
use cc_engine::grid::{build_comparisons, build_groups};
use cc_engine::{Engine, Format, GridConfig, GridJob, McConfig, Outcome};
use cc_report::{
    DistBinding, ExperimentOutput, McComparison, MonteCarloMatrix, RunContext, Scalar, Scenario,
    ScenarioMatrix, ScenarioOverlay, SweepSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Renders one grid job to the bytes the sink hashes.
pub type Render = fn(&GridJob<'_>) -> String;

/// The artifact `repro --json --out` would write for this job.
#[must_use]
pub fn render_json(job: &GridJob<'_>) -> String {
    render_artifact(
        job.entry,
        job.experiment,
        job.output,
        job.context,
        job.sweeping.then_some(job.point),
        Format::Json,
    )
}

/// Cache and plan counters of one pass, from the engine's public counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Planned model runs (`GridResult::run_counts` / `McResult::run_counts`).
    pub runs: u64,
    /// Lookups answered from a resident artifact.
    pub hits: u64,
    /// Lookups that computed a fresh artifact.
    pub misses: u64,
    /// Lookups that waited on another worker's computation.
    pub inflight_dedups: u64,
    /// Artifacts evicted to stay within capacity (`EngineStats`).
    pub evictions: u64,
}

impl Counts {
    /// The counts that must repeat exactly from pass to pass. Which of two
    /// racing workers waits is timing, so in-flight dedups fold into hits.
    #[must_use]
    pub fn repeatable(&self) -> (u64, u64, u64, u64) {
        (
            self.runs,
            self.hits + self.inflight_dedups,
            self.misses,
            self.evictions,
        )
    }

    fn from_engine(engine: &Engine, runs: usize) -> Self {
        let stats = engine.stats();
        Self {
            runs: runs as u64,
            hits: stats.hits,
            misses: stats.misses,
            inflight_dedups: stats.inflight_dedups,
            evictions: stats.evictions,
        }
    }
}

/// What one pass (or replay) produced.
#[derive(Clone, Debug)]
pub struct PassOut {
    /// Wall time of the pass.
    pub wall: Duration,
    /// FNV digest of every artifact, in grid order (empty for MC).
    pub digests: Vec<u64>,
    /// FNV digest of the rendered comparison report.
    pub report: u64,
    /// Bytes of every artifact plus the report.
    pub bytes: u64,
    /// Engine counters.
    pub counts: Counts,
    /// Dedup groups (sweeps) or samples (MC).
    pub groups: u64,
}

/// What a replay keeps for the disk-cache and file-write measurements.
#[derive(Default)]
pub struct Kept {
    /// Up to `keep` computed outputs with their cache keys.
    pub outputs: Vec<(&'static str, u64, Arc<ExperimentOutput>)>,
    /// Up to `keep` rendered artifacts.
    pub artifacts: Vec<String>,
}

/// `compute.<key>` span names, one per registry entry.
#[must_use]
pub fn compute_span(key: &str) -> &'static str {
    static NAMES: OnceLock<Vec<(&'static str, &'static str)>> = OnceLock::new();
    NAMES
        .get_or_init(|| {
            experiments::entries()
                .iter()
                .map(|e| {
                    (
                        e.key,
                        &*Box::leak(format!("compute.{}", e.key).into_boxed_str()),
                    )
                })
                .collect()
        })
        .iter()
        .find(|(k, _)| *k == key)
        .map_or("compute.unknown", |(_, name)| name)
}

/// One cache lookup, traced: `fingerprint`, then `cache.hit|miss|dedup`
/// with the model run as a `compute.<key>` child on a miss.
fn traced_obtain(
    tracer: &Tracer,
    engine: &Engine,
    entry: &'static Entry,
    overlay: &ScenarioOverlay,
    context: &RunContext,
    req: u64,
) -> (u64, Arc<ExperimentOutput>) {
    let fingerprint = tracer.span("fingerprint", req, || entry.fingerprint(overlay));
    let span = tracer.open("cache", req);
    let (output, outcome) = engine.cache().get_or_compute((entry.key, fingerprint), || {
        tracer.span(compute_span(entry.key), req, || entry.build().run(context))
    });
    let name = match outcome {
        Outcome::Hit => "cache.hit",
        Outcome::Miss => "cache.miss",
        Outcome::InflightDedup => "cache.dedup",
    };
    tracer.close(span, Some(name));
    (fingerprint, output)
}

/// An enumerated sweep: a base scenario, sweep axes and experiments.
pub struct SweepLoad {
    /// The scenario every point overlays.
    pub base: Scenario,
    /// The sweep axes.
    pub specs: Vec<SweepSpec>,
    /// The selected experiments.
    pub entries: Vec<&'static Entry>,
}

impl SweepLoad {
    /// Parses `specs` against `base`.
    ///
    /// # Errors
    ///
    /// A spec that does not parse, or a matrix that does not expand.
    pub fn new(
        base: Scenario,
        specs: &[&str],
        entries: Vec<&'static Entry>,
    ) -> Result<Self, String> {
        let specs = specs
            .iter()
            .map(|s| SweepSpec::parse(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        ScenarioMatrix::new(base.clone(), specs.clone()).map_err(|e| e.to_string())?;
        Ok(Self {
            base,
            specs,
            entries,
        })
    }

    /// Grid cells (experiments × points).
    #[must_use]
    pub fn cells(&self) -> u64 {
        let points: usize = self.specs.iter().map(|s| s.values.len()).product();
        (points * self.entries.len()) as u64
    }

    fn matrix(&self) -> Result<ScenarioMatrix, String> {
        ScenarioMatrix::new(self.base.clone(), self.specs.clone()).map_err(|e| e.to_string())
    }

    /// One pass through [`Engine::run_grid`], from `ScenarioMatrix::new` to
    /// the rendered comparison, on a fresh engine.
    ///
    /// # Errors
    ///
    /// Any scenario, sweep or comparison error.
    pub fn pass(&self, jobs: usize, no_cache: bool, render: Render) -> Result<PassOut, String> {
        let start = Instant::now();
        let matrix = self.matrix()?;
        let points: Vec<_> = matrix.points().collect();
        let contexts = points
            .iter()
            .map(|p| RunContext::try_from_overlay(p.overlay.clone()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = Engine::new();
        let digests = Mutex::new(Vec::with_capacity(points.len() * self.entries.len()));
        let bytes = AtomicU64::new(0);
        let config = GridConfig {
            jobs,
            no_cache,
            format: Format::Json,
        };
        let result = engine.run_grid(
            &self.entries,
            &points,
            &contexts,
            &config,
            |job| vec![render(job)],
            |line| {
                bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
                digests
                    .lock()
                    .expect("sink never panics")
                    .push(fnv(line.as_bytes()));
            },
        );
        let comparisons = build_comparisons(&self.entries, &points, &result.scalars, &matrix)
            .map_err(|e| e.to_string())?;
        let report = render_comparisons(&comparisons, &matrix, Format::Json);
        let wall = start.elapsed();
        let runs: usize = result.run_counts.iter().sum();
        Ok(PassOut {
            wall,
            digests: digests.into_inner().expect("sink never panics"),
            report: fnv(report.as_bytes()),
            bytes: bytes.into_inner() + report.len() as u64,
            counts: Counts::from_engine(&engine, runs),
            groups: runs as u64,
        })
    }

    /// The plan of one `jobs: 1` pass, walked through the public calls
    /// `run_grid` makes, one span per call. The request id of a span is the
    /// grid cell (`entry_idx * points + point_idx`) it worked for.
    ///
    /// # Errors
    ///
    /// Any scenario, sweep or comparison error.
    pub fn replay(&self, tracer: &Tracer, keep: usize) -> Result<(PassOut, Kept), String> {
        let start = Instant::now();
        let root = tracer.open("pass", 0);
        let (matrix, points) = tracer.span("sweep.expand", 0, || {
            let matrix = self.matrix()?;
            let points: Vec<_> = matrix.points().collect();
            Ok::<_, String>((matrix, points))
        })?;
        let contexts = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                tracer.span("scenario.validate", i as u64, || {
                    RunContext::try_from_overlay(p.overlay.clone()).map_err(|e| e.to_string())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let groups = tracer.span("dedup.plan", 0, || {
            build_groups(&self.entries, &points, false)
        });
        let engine = Engine::new();
        let npoints = points.len();
        let cells = npoints * self.entries.len();
        let mut digests = vec![0u64; cells];
        let mut scalars: Vec<Vec<Scalar>> = vec![Vec::new(); cells];
        let mut bytes = 0u64;
        let mut kept = Kept::default();
        for group in &groups {
            let entry = self.entries[group.entry_idx];
            let rep = group.point_idxs[0];
            let req = (group.entry_idx * npoints + rep) as u64;
            let (fingerprint, output) = traced_obtain(
                tracer,
                &engine,
                entry,
                &points[rep].overlay,
                &contexts[rep],
                req,
            );
            if kept.outputs.len() < keep {
                kept.outputs
                    .push((entry.key, fingerprint, Arc::clone(&output)));
            }
            let experiment = entry.build();
            for &point_idx in &group.point_idxs {
                let cell = group.entry_idx * npoints + point_idx;
                let job = GridJob {
                    entry,
                    entry_idx: group.entry_idx,
                    point_idx,
                    point: &points[point_idx],
                    context: &contexts[point_idx],
                    experiment: experiment.as_ref(),
                    output: &output,
                    sweeping: npoints > 1,
                    format: Format::Json,
                };
                let text = tracer.span("render", cell as u64, || render_json(&job));
                tracer.span("sink", cell as u64, || {
                    digests[cell] = fnv(text.as_bytes());
                    bytes += text.len() as u64;
                });
                scalars[cell] = output.scalars.clone();
                if kept.artifacts.len() < keep {
                    kept.artifacts.push(text);
                }
            }
        }
        let report = tracer.span("grid.compare", 0, || {
            build_comparisons(&self.entries, &points, &scalars, &matrix)
                .map(|c| render_comparisons(&c, &matrix, Format::Json))
                .map_err(|e| e.to_string())
        })?;
        tracer.close(root, None);
        let wall = start.elapsed();
        let groups = groups.len();
        Ok((
            PassOut {
                wall,
                digests,
                report: fnv(report.as_bytes()),
                bytes: bytes + report.len() as u64,
                counts: Counts::from_engine(&engine, groups),
                groups: groups as u64,
            },
            kept,
        ))
    }
}

/// A sampled Monte-Carlo run.
pub struct McLoad {
    /// The scenario the samples overlay.
    pub base: Scenario,
    /// The distribution bindings.
    pub bindings: Vec<DistBinding>,
    /// Samples per pass.
    pub samples: usize,
    /// The sampling seed.
    pub seed: u64,
    /// The selected experiments.
    pub entries: Vec<&'static Entry>,
}

/// One tracked metric of an MC run (the same rule as `run_mc`: the
/// summary scalar plus every thresholded scalar).
struct Tracked {
    name: String,
    unit: String,
    threshold: Option<cc_report::ScalarThreshold>,
}

impl McLoad {
    fn matrix(&self) -> Result<MonteCarloMatrix, String> {
        MonteCarloMatrix::new(
            self.base.clone(),
            self.bindings.clone(),
            self.samples,
            self.seed,
        )
        .map_err(|e| e.to_string())
    }

    /// One pass through [`Engine::run_mc`] plus the rendered report, on a
    /// fresh engine.
    ///
    /// # Errors
    ///
    /// Any sampling or engine error.
    pub fn pass(&self, jobs: usize, no_cache: bool) -> Result<PassOut, String> {
        let start = Instant::now();
        let matrix = self.matrix()?;
        let engine = Engine::new();
        let result = engine
            .run_mc(&self.entries, &matrix, &McConfig { jobs, no_cache })
            .map_err(|e| e.to_string())?;
        let report = render_mc_comparisons(&result.comparisons, &matrix, Format::Json);
        let wall = start.elapsed();
        let runs: usize = result.run_counts.iter().sum();
        let mut counts = Counts::from_engine(&engine, runs);
        // `McResult` carries the per-run counts; the engine snapshot adds
        // the evictions.
        (counts.hits, counts.misses, counts.inflight_dedups) =
            (result.hits, result.misses, result.inflight_dedups);
        Ok(PassOut {
            wall,
            digests: Vec::new(),
            report: fnv(report.as_bytes()),
            bytes: report.len() as u64,
            counts,
            groups: self.samples as u64,
        })
    }

    /// The plan of one `jobs: 1` pass, walked through the public calls
    /// `run_mc` makes. The request id of a span is the sample index.
    /// Returns the pass and the number of `StreamingStats::push` calls.
    ///
    /// # Errors
    ///
    /// Any sampling error, or a missing scalar.
    pub fn replay(&self, tracer: &Tracer, keep: usize) -> Result<(PassOut, Kept, u64), String> {
        let start = Instant::now();
        let root = tracer.open("pass", 0);
        let matrix = tracer.span("mc.matrix", 0, || self.matrix())?;
        let engine = Engine::new();
        let mut tracked: Vec<Vec<Tracked>> = Vec::new();
        let mut digests: Vec<StreamingStats> = Vec::new();
        let mut kept = Kept::default();
        let mut pushes = 0u64;
        for index in 0..self.samples {
            let req = index as u64;
            let point = tracer
                .span("mc.draw", req, || matrix.point(index))
                .map_err(|e| e.to_string())?;
            let context = tracer
                .span("scenario.validate", req, || {
                    RunContext::try_from_overlay(point.overlay.clone())
                })
                .map_err(|e| format!("sample {index}: {e}"))?;
            let mut values = Vec::new();
            for (entry_idx, entry) in self.entries.iter().enumerate() {
                let (fingerprint, output) =
                    traced_obtain(tracer, &engine, entry, &point.overlay, &context, req);
                if index == 0 {
                    tracked.push(
                        output
                            .scalars
                            .iter()
                            .enumerate()
                            .filter(|(i, s)| *i == 0 || s.threshold.is_some())
                            .map(|(_, s)| Tracked {
                                name: s.name.clone(),
                                unit: s.unit.clone(),
                                threshold: s.threshold.clone(),
                            })
                            .collect(),
                    );
                }
                for metric in &tracked[entry_idx] {
                    let scalar = output
                        .scalars
                        .iter()
                        .find(|s| s.name == metric.name)
                        .ok_or_else(|| format!("{}: no `{}` scalar", entry.key, metric.name))?;
                    values.push(scalar.value);
                }
                if kept.outputs.len() < keep && index % 97 == 0 {
                    kept.outputs.push((entry.key, fingerprint, output));
                }
            }
            if index == 0 {
                digests = vec![StreamingStats::new(); values.len()];
            }
            pushes += values.len() as u64;
            tracer.span("mc.digest", req, || {
                for (slot, value) in digests.iter_mut().zip(values) {
                    slot.push(value);
                }
            });
        }
        let mut digests = digests.into_iter();
        let mut comparisons = Vec::new();
        for (entry, metrics) in self.entries.iter().zip(tracked) {
            for metric in metrics {
                let digest = digests.next().expect("one digest per tracked metric");
                comparisons.push(McComparison {
                    experiment: entry.key.to_string(),
                    metric: metric.name,
                    unit: metric.unit,
                    threshold: metric.threshold,
                    stats: digest.summary().ok_or("no samples")?,
                });
            }
        }
        let report = tracer.span("render.mc_report", 0, || {
            render_mc_comparisons(&comparisons, &matrix, Format::Json)
        });
        tracer.close(root, None);
        let wall = start.elapsed();
        kept.artifacts.push(report.clone());
        Ok((
            PassOut {
                wall,
                digests: Vec::new(),
                report: fnv(report.as_bytes()),
                bytes: report.len() as u64,
                counts: Counts::from_engine(&engine, 0),
                groups: self.samples as u64,
            },
            kept,
            pushes,
        ))
    }
}
