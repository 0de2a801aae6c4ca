//! Golden pin of every registered experiment's output.
//!
//! Each registry entry runs under three scenarios — the paper defaults, a
//! scaled fleet, and a perturbed Monte-Carlo/grid setting — and contributes
//! one line per scenario:
//!
//! `key fnv64(output) fnv64(artifact) fnv64(swept artifact) summary-scalar`
//!
//! * `output` is the experiment output's JSON (tables, series, scalars,
//!   notes) — the body the disk cache stores;
//! * `artifact` is the whole `--json` artifact `repro` writes: the envelope
//!   (key, title, description, tags), the full scenario and the output;
//! * `swept artifact` is the artifact of the one point of a
//!   `fleet.growth=1.25` sweep over that scenario, run under the point's
//!   context, so the `point` metadata and the scenario materialized from a
//!   copy-on-write overlay are pinned too.
//!
//! Any change to a model's numbers or to how they render shows up as a diff
//! of exactly the experiments it touches. The summary scalar is printed in
//! full so a diff says by how much the headline moved.
//!
//! On a mismatch the actual text is written next to the test binaries
//! (`CARGO_TARGET_TMPDIR/experiments.txt`) for inspection.

use chasing_carbon::core::experiments::entries;
use chasing_carbon::engine::artifact::render_artifact;
use chasing_carbon::engine::Format;
use chasing_carbon::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned contexts, each built through `Scenario::set`.
fn contexts() -> Vec<(&'static str, RunContext)> {
    let with = |assignments: &[(&str, &str)]| {
        let mut s = Scenario::paper_defaults();
        for (key, value) in assignments {
            s.set(key, value)
                .unwrap_or_else(|e| panic!("{key}={value}: {e}"));
        }
        RunContext::new(s)
    };
    vec![
        ("paper", RunContext::paper()),
        ("fleet.scale=2.5", with(&[("fleet.scale", "2.5")])),
        (
            "mc.seed=3 mc.samples=500 grid.intensity=50",
            with(&[
                ("mc.seed", "3"),
                ("mc.samples", "500"),
                ("grid.intensity", "50"),
            ]),
        ),
    ]
}

#[test]
fn every_experiment_output_matches_the_golden_pin() {
    let mut actual = String::new();
    for (label, ctx) in contexts() {
        writeln!(actual, "## {label}").unwrap();
        let sweep = SweepSpec::parse("fleet.growth=1.25").unwrap();
        let matrix = ScenarioMatrix::new(ctx.scenario().clone(), vec![sweep]).unwrap();
        let point = matrix.point(0);
        let point_ctx = RunContext::try_from_overlay(point.overlay.clone()).unwrap();
        for entry in entries() {
            let experiment = entry.build();
            let out = experiment.run(&ctx);
            let hash = fnv64(out.to_json().render().as_bytes());
            let artifact =
                render_artifact(entry, experiment.as_ref(), &out, &ctx, None, Format::Json);
            let swept_out = experiment.run(&point_ctx);
            let swept = render_artifact(
                entry,
                experiment.as_ref(),
                &swept_out,
                &point_ctx,
                Some(&point),
                Format::Json,
            );
            let (artifact, swept) = (fnv64(artifact.as_bytes()), fnv64(swept.as_bytes()));
            let scalar = out
                .summary_scalar()
                .map_or_else(|| "-".to_string(), |s| s.value.to_string());
            writeln!(
                actual,
                "{} {hash:016x} {artifact:016x} {swept:016x} {scalar}",
                entry.key
            )
            .unwrap();
        }
    }
    let expected = include_str!("golden/experiments.txt");
    if actual != expected {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(|| "(length)".to_string(), |i| (i + 1).to_string());
        panic!(
            "experiment output drifted from tests/golden/experiments.txt at line {line}; \
             actual text written to {}",
            path.display()
        );
    }
}
