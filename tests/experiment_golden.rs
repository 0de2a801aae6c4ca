//! Golden pin of every registered experiment's output.
//!
//! Each registry entry runs under three scenarios — the paper defaults, a
//! scaled fleet, and a perturbed Monte-Carlo/grid setting — and contributes
//! one line: `key fnv64(to_json) summary-scalar`. The hash covers the whole
//! JSON artifact body (tables, series, scalars, notes), so any change to a
//! model's numbers or to how they render shows up as a diff of exactly the
//! experiments it touches. The summary scalar is printed in full so a diff
//! says by how much the headline moved.
//!
//! On a mismatch the actual text is written next to the test binaries
//! (`CARGO_TARGET_TMPDIR/experiments.txt`) for inspection.

use chasing_carbon::core::experiments::entries;
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
        for entry in entries() {
            let out = entry.build().run(&ctx);
            let hash = fnv64(out.to_json().render().as_bytes());
            let scalar = out
                .summary_scalar()
                .map_or_else(|| "-".to_string(), |s| s.value.to_string());
            writeln!(actual, "{} {hash:016x} {scalar}", entry.key).unwrap();
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
