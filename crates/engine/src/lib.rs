//! # cc-engine
//!
//! The experiment-execution engine behind both the one-shot `repro` CLI
//! and the long-running `repro serve` daemon.
//!
//! [`Engine`] owns the shared state a sweep service needs:
//!
//! * a **sharded, content-addressed fingerprint→artifact cache**
//!   ([`cache::ShardedCache`]) keyed on `(experiment key,
//!   dependency_fingerprint)` — on the daemon's *resident* engine
//!   ([`Engine::resident`]), repeated and overlapping requests are
//!   answered from resident [`cc_report::ExperimentOutput`]s, and
//!   concurrent requests racing on the same fingerprint compute it exactly
//!   once; the CLI's *one-shot* engine ([`Engine::new`]) keeps nothing
//!   resident, since no later run in its process could read it;
//! * an optional persistent **disk cache** ([`DiskCache`]) below it;
//! * monotonic counters surfaced as an [`EngineStats`] snapshot.
//!
//! Two execution drivers sit on top of that state:
//!
//! * [`Engine::run_grid`] walks an *enumerated* scenario matrix: workers
//!   pull fingerprint-deduplicated work groups off a shared cursor, and
//!   one artifact per (experiment × point) job streams out in grid order;
//! * [`Engine::run_mc`] pumps a *sampled* [`cc_report::MonteCarloMatrix`]
//!   through the same pipeline, digesting each tracked metric into
//!   streaming statistics (Welford mean/variance, P² quantile markers) so
//!   a million-sample uncertainty run holds no per-sample state. The
//!   reorder buffer feeds the order-sensitive accumulators strictly in
//!   sample order, making the digests byte-reproducible for a given seed
//!   across any `--jobs` value and across one-shot versus served runs.
//!
//! Both share one private pipeline: one *obtain* step (fingerprint →
//! resident cache → disk cache → model run, as far as the result's
//! residency allows — a decision derived from each runner's plan and from
//! whether the engine keeps results between runs, never a user option),
//! one worker loop, one reorder buffer and one rule for the tracked
//! metrics.
//!
//! The surrounding modules carry everything else the two front-ends share:
//! [`artifact`] renders per-point artifacts, cross-scenario comparison
//! reports and Monte-Carlo digests byte-identically to the historical CLI,
//! [`protocol`] defines the newline-delimited-JSON request/response
//! vocabulary (specified normatively in `docs/PROTOCOL.md`), and
//! [`server`] is the `std::net::TcpListener` daemon loop.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod grid;
pub mod intern;
pub mod mc;
pub mod persist;
mod pipeline;
pub mod protocol;
pub mod server;

pub use artifact::Format;
pub use cache::{Outcome, ShardedCache};
pub use grid::{GridConfig, GridJob, GridResult};
pub use intern::{InternedScenario, ScenarioInterner};
pub use mc::{McConfig, McError, McResult};
pub use persist::DiskCache;
pub use server::{ServeLog, Server};

use cc_report::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default capacity (entries across all shards) of the resident engine
/// `repro serve` builds, [`Engine::resident`]. Each entry is one
/// `ExperimentOutput` — tables and series for one experiment at one
/// fingerprint — so even a few thousand stay cheap; the bound exists so a
/// long-lived daemon sweeping many axes cannot grow without limit. The
/// one-shot engine's runners admit nothing, so the bound never binds
/// there.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The execution engine: the sharded artifact cache, an optional disk
/// cache and engine-level counters. It comes in two kinds that differ only
/// in whether [`Engine::run_grid`] and [`Engine::run_mc`] admit results to
/// the resident cache:
///
/// * the **one-shot** engine ([`Engine::new`]), built by `repro` for one
///   invocation, keeps nothing resident: one run already obtains each
///   `(experiment, fingerprint)` once, so no later lookup in the process
///   could hit. Its results pass through the disk cache only, and its
///   [`EngineStats`] cache counters stay at zero;
/// * the **resident** engine ([`Engine::resident`]), shared (via `Arc`) by
///   every connection of a `repro serve` daemon, admits each grid group
///   and shared Monte-Carlo result on first sight, so served repeats hit.
pub struct Engine {
    cache: ShardedCache,
    /// Whether the runners admit results to `cache` for later runs.
    resident: bool,
    disk: Option<DiskCache>,
    intern: ScenarioInterner,
    requests: AtomicU64,
}

impl Engine {
    /// The one-shot engine: its runners never admit a result to the
    /// resident cache. [`Engine::cache`] still exists, empty, with the
    /// [`DEFAULT_CACHE_CAPACITY`], for callers that use it directly.
    #[must_use]
    pub fn new() -> Self {
        Self::build(DEFAULT_CACHE_CAPACITY, false)
    }

    /// The resident engine `repro serve` builds: its runners keep grid
    /// groups and shared Monte-Carlo results in a cache of at most
    /// `capacity` artifacts, so later runs reuse them.
    #[must_use]
    pub fn resident(capacity: usize) -> Self {
        Self::build(capacity, true)
    }

    fn build(capacity: usize, resident: bool) -> Self {
        Self {
            cache: ShardedCache::new(capacity),
            resident,
            disk: None,
            intern: ScenarioInterner::new(intern::DEFAULT_INTERN_CAPACITY),
            requests: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent on-disk artifact cache. Both runners read
    /// through it below the resident cache (on the one-shot engine, in its
    /// place) and write freshly computed artifacts back, so fingerprints
    /// survive process restarts.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached persistent cache, when one was configured.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The shared fingerprint→artifact cache (never filled by the runners
    /// of a one-shot engine).
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The shared payload→validated-scenario interner. The daemon resolves
    /// protocol requests through it so repeated `set`/`dists` payloads
    /// skip re-validation.
    #[must_use]
    pub fn interner(&self) -> &ScenarioInterner {
        &self.intern
    }

    /// Counts one served request (a CLI invocation or one protocol `run`).
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the engine's counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (hits, misses, inflight_dedups, evictions) = self.cache.counters();
        let (intern_hits, intern_misses) = self.intern.counters();
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits,
            misses,
            inflight_dedups,
            evictions,
            entries: self.cache.entries(),
            intern_hits,
            intern_misses,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot of the engine's monotonic counters, exposed to the `stats`
/// protocol request and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests served (CLI invocations or protocol `run` requests).
    pub requests: u64,
    /// Cache lookups answered from a resident artifact.
    pub hits: u64,
    /// Cache lookups that computed (and inserted) a fresh artifact.
    pub misses: u64,
    /// Lookups that waited on another request's in-flight computation
    /// instead of recomputing.
    pub inflight_dedups: u64,
    /// Resident artifacts dropped to keep the cache within capacity.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: u64,
    /// Request payloads whose validated scenario was reused from the
    /// interner instead of being re-validated.
    pub intern_hits: u64,
    /// Request payloads validated (and interned) for the first time.
    pub intern_misses: u64,
}

impl EngineStats {
    /// The snapshot as a JSON object (protocol `stats` response payload).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("requests", JsonValue::Integer(self.requests)),
            ("hits", JsonValue::Integer(self.hits)),
            ("misses", JsonValue::Integer(self.misses)),
            ("inflight_dedups", JsonValue::Integer(self.inflight_dedups)),
            ("evictions", JsonValue::Integer(self.evictions)),
            ("entries", JsonValue::Integer(self.entries)),
            ("intern_hits", JsonValue::Integer(self.intern_hits)),
            ("intern_misses", JsonValue::Integer(self.intern_misses)),
        ])
    }
}

/// Errors surfaced by engine orchestration (as opposed to request-shape
/// errors, which live in [`protocol::ProtocolError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An experiment produced no summary scalar, so the sweep comparison
    /// cannot cover it.
    MissingSummaryScalar {
        /// The experiment's registry key.
        key: &'static str,
    },
    /// An experiment lacked a named scalar at one sweep point.
    MissingScalarAtPoint {
        /// The experiment's registry key.
        key: &'static str,
        /// The missing scalar's name.
        metric: String,
        /// The sweep point's display label.
        point: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingSummaryScalar { key } => write!(
                f,
                "experiment `{key}` produced no summary scalar; sweep comparisons \
                 require full scalar coverage"
            ),
            Self::MissingScalarAtPoint { key, metric, point } => write!(
                f,
                "experiment `{key}` produced no `{metric}` scalar at point `{point}`"
            ),
        }
    }
}

impl std::error::Error for EngineError {}
