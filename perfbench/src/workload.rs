//! Workload definitions. Every input is a pure function of the seed, so
//! the same seed gives the same inputs and the same counts.

use crate::batch::{McLoad, SweepLoad};
use crate::util::Rng;
use cc_core::experiments::{self, Tag};
use cc_report::{DistBinding, Scenario};

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sweep-unique", "suite-sweep", "mc-sampled", "serve-mixed"];

/// Full size for measurement, tiny for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few cells, samples and requests.
    Tiny,
}

fn set(base: &mut Scenario, path: &str, value: &str) -> Result<(), String> {
    base.set(path, value).map_err(|e| e.to_string())
}

/// `sweep-unique` or `suite-sweep`.
///
/// * `sweep-unique`: `ext-facility` over `fleet.growth=1.0..2.0/0.0125` ×
///   `fleet.pue=1.05..1.85/0.01` — 6 561 cells, every fingerprint
///   distinct. The seed picks the base `grid.intensity`.
/// * `suite-sweep`: all experiments over `fleet.growth=1.0..2.0/0.0125` ×
///   `grid.intensity=50,200,380,550,700` — 10 935 cells in 1 339 groups.
///   The seed picks the base `grid.renewable_fraction`.
///
/// # Errors
///
/// An unknown name or an input that does not validate.
pub fn sweep_load(name: &str, seed: u64, size: Size) -> Result<SweepLoad, String> {
    let mut rng = Rng::new(seed, 1);
    let mut base = Scenario::paper_defaults();
    let tiny = size == Size::Tiny;
    match name {
        "sweep-unique" => {
            set(
                &mut base,
                "grid.intensity",
                &(300 + rng.below(200)).to_string(),
            )?;
            let specs: &[&str] = if tiny {
                &["fleet.growth=1.0..1.1/0.05", "fleet.pue=1.1,1.2"]
            } else {
                &["fleet.growth=1.0..2.0/0.0125", "fleet.pue=1.05..1.85/0.01"]
            };
            let entry = experiments::find_entry("ext-facility").ok_or("no ext-facility")?;
            SweepLoad::new(base, specs, vec![entry])
        }
        "suite-sweep" => {
            let fraction = rng.below(31) as f64 / 100.0;
            set(
                &mut base,
                "grid.renewable_fraction",
                &format!("{fraction:.2}"),
            )?;
            let specs: &[&str] = if tiny {
                &["fleet.growth=1.0,1.5", "grid.intensity=50,700"]
            } else {
                &[
                    "fleet.growth=1.0..2.0/0.0125",
                    "grid.intensity=50,200,380,550,700",
                ]
            };
            SweepLoad::new(base, specs, experiments::entries().iter().collect())
        }
        other => Err(format!("`{other}` is not a sweep workload")),
    }
}

/// `mc-sampled`: the six `datacenter` experiments with
/// `fleet.growth ~ uniform(1.2,1.4)`, 10⁴ samples drawn with the
/// benchmark's seed.
///
/// # Errors
///
/// A binding or matrix that does not validate.
pub fn mc_load(seed: u64, size: Size) -> Result<McLoad, String> {
    let bindings =
        vec![DistBinding::parse("fleet.growth ~ uniform(1.2,1.4)").map_err(|e| e.to_string())?];
    Ok(McLoad {
        base: Scenario::paper_defaults(),
        bindings,
        samples: if size == Size::Tiny { 40 } else { 10_000 },
        seed,
        entries: experiments::with_tags(&[Tag::Datacenter]),
    })
}
