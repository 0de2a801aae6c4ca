//! Extension: Monte-Carlo robustness of the paper's headline claims under
//! disclosure-level input uncertainty.

use cc_analysis::dist::DistSpec;
use cc_analysis::rng::SplitMix64;
use cc_analysis::stats::{BandedSummary, StreamingStats};
use cc_report::{table::num, Experiment, ExperimentId, ExperimentOutput, RunContext, Table};

/// Streams `trials` evaluations of `model` over seeded draws of `inputs`
/// (one draw per input per trial, in order) into an O(1)-memory digest.
fn propagate<const N: usize>(
    inputs: [DistSpec; N],
    trials: u32,
    seed: u64,
    model: impl Fn([f64; N]) -> f64,
) -> BandedSummary {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut stats = StreamingStats::new();
    for _ in 0..trials {
        stats.push(model(inputs.map(|d| d.sample(&mut rng))));
    }
    stats.summary().expect("mc.samples is at least 1")
}

/// Propagates triangular input uncertainty through three headline results:
/// the Fig 10 break-even, the Fig 11 capex/opex ratio, and the Fig 14 wafer
/// reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtMonteCarlo;

impl Experiment for ExtMonteCarlo {
    fn id(&self) -> ExperimentId {
        ExperimentId::Extension("mc")
    }

    fn description(&self) -> &'static str {
        "Monte-Carlo robustness of the headline claims under input uncertainty"
    }

    fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let mut out = ExperimentOutput::new();
        let mut t = Table::new(["Headline", "Median", "90% band", "Claim survives?"]);

        // 1. Fig 10: MobileNet v3 CPU break-even images.
        //    budget +/-20%, grid +/-15%, energy/image +/-25%.
        let trials = ctx.mc_samples();
        let soc_budget = super::fig10::pixel3_soc_budget(ctx.soc_budget_share()).as_grams();
        let be = propagate(
            [
                DistSpec::triangular_around(soc_budget, 0.20),
                DistSpec::triangular_around(ctx.effective_grid_intensity().as_g_per_kwh(), 0.15),
                DistSpec::triangular_around(0.0447, 0.25),
            ],
            trials,
            ctx.mc_seed(),
            |[budget, grid, joules]| budget / ((joules / 3.6e6) * grid),
        );
        let survives = be.p05 > 10.0 * cc_data::ai_models::IMAGENET_TRAIN_IMAGES as f64;
        out.scalar("fig10-breakeven-median", "images", be.p50);
        t.row([
            "Fig 10 break-even (images)".to_string(),
            format!("{:.1e}", be.p50),
            format!("{:.1e}..{:.1e}", be.p05, be.p95),
            (if survives { "yes" } else { "no" }).to_string(),
        ]);

        // 2. Fig 11: Facebook capex/opex ratio with +/-30% Scope 3 (embodied
        //    factors are coarse) and +/-10% Scope 2 (metered energy).
        let fb = cc_data::corporate::year_of(&cc_data::corporate::FACEBOOK, 2019).unwrap();
        let ratio = propagate(
            [
                DistSpec::triangular_around(fb.scope3_mt, 0.30),
                DistSpec::triangular_around(fb.scope1_mt + fb.scope2_market_mt, 0.10),
            ],
            trials,
            ctx.mc_seed().wrapping_add(1),
            |[capex, opex]| capex / opex,
        );
        t.row([
            "Fig 11 capex/opex ratio".to_string(),
            num(ratio.p50, 1),
            format!("{}..{}", num(ratio.p05, 1), num(ratio.p95, 1)),
            (if ratio.p05 > 10.0 { "yes" } else { "no" }).to_string(),
        ]);

        // 3. Fig 14: wafer reduction at 64x with the energy share known only
        //    to +/-5 percentage points.
        let reduction = propagate(
            [DistSpec::Triangular {
                low: 0.59,
                mode: 0.64,
                high: 0.69,
            }],
            trials,
            ctx.mc_seed().wrapping_add(2),
            |[share]| 1.0 / ((1.0 - share) + share / 64.0),
        );
        t.row([
            "Fig 14 reduction at 64x".to_string(),
            format!("{}x", num(reduction.p50, 2)),
            format!("{}x..{}x", num(reduction.p05, 2), num(reduction.p95, 2)),
            (if reduction.p05 > 2.0 && reduction.p95 < 3.5 {
                "yes"
            } else {
                "no"
            })
            .to_string(),
        ]);

        out.table("Headline robustness under triangular input uncertainty", t);
        out.note(
            "all three headlines survive disclosure-level uncertainty: the paper's conclusions \
             are not artifacts of point estimates",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_survive() {
        let out = ExtMonteCarlo.run(&RunContext::paper());
        let t = &out.tables[0].1;
        assert_eq!(t.len(), 3);
        for row in t.rows() {
            assert_eq!(row[3], "yes", "{row:?}");
        }
    }
}
