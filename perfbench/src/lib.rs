//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run, and correctness
//! checks outside the timed region. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod measure;
pub mod metrics;
pub mod serve;
pub mod trace;
pub mod util;
pub mod workload;
