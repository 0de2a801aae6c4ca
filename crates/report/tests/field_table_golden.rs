//! Golden pin for everything derived from the scenario field declarations.
//!
//! For the paper defaults and four perturbed scenarios this renders every
//! canonical field value, the canonical TOML, the JSON form and the
//! dependency fingerprint of every experiment's declared dependency set,
//! then compares the whole text byte-for-byte with
//! `tests/golden/field_table.txt`. It also pins what each checked-in
//! `scenarios/*.toml` parses to. Any change to how a field is parsed,
//! defaulted, serialized or hashed shows up here as a diff.
//!
//! On a mismatch the actual text is written next to the test binaries
//! (`CARGO_TARGET_TMPDIR/field_table.txt`) for inspection.

use cc_report::{dependency_fingerprint, Scenario, ScenarioPath};
use std::fmt::Write as _;
use std::path::Path;

/// Every canonical scenario field path, in canonical order.
const PATHS: [&str; 25] = [
    "name",
    "grid.intensity",
    "grid.source",
    "grid.renewable_fraction",
    "grid.regions",
    "device.lifetime",
    "device.soc_budget_share",
    "fab.node_nm",
    "fab.yield_factor",
    "fab.renewable_share",
    "fleet.scale",
    "fleet.sku",
    "fleet.mix",
    "fleet.sites",
    "fleet.deferrable",
    "fleet.initial_servers",
    "fleet.growth",
    "fleet.pue",
    "fleet.renewable_ramp",
    "fleet.construction_kt",
    "fleet.building_amortization_years",
    "fleet.start_year",
    "fleet.horizon_years",
    "mc.seed",
    "mc.samples",
];

/// The declared dependency set of every experiment in the registry
/// (`cc_core::experiments::entries`), keyed by experiment.
const REGISTRY_DEPS: [(&str, &[&str]); 27] = [
    ("fig01", &[]),
    ("fig02", &["fleet.*", "grid.intensity"]),
    ("fig03", &[]),
    ("fig04", &[]),
    ("fig05", &[]),
    ("fig06", &[]),
    ("fig07", &[]),
    ("fig08", &[]),
    ("fig09", &[]),
    (
        "fig10",
        &["device.*", "grid.intensity", "grid.renewable_fraction"],
    ),
    ("fig11", &["fleet.*", "grid.intensity"]),
    ("fig12", &[]),
    ("fig13", &["grid.intensity", "grid.renewable_fraction"]),
    ("fig14", &[]),
    ("fig15", &[]),
    ("table1", &[]),
    ("table2", &[]),
    ("table3", &[]),
    ("table4", &[]),
    ("ext-sched", &["fleet.scale"]),
    ("ext-die", &["fab.node_nm", "fab.yield_factor"]),
    (
        "ext-dvfs",
        &[
            "device.soc_budget_share",
            "grid.intensity",
            "grid.renewable_fraction",
        ],
    ),
    (
        "ext-hetero",
        &["fleet.scale", "grid.intensity", "grid.renewable_fraction"],
    ),
    ("ext-fab", &["fab.renewable_share"]),
    (
        "ext-mc",
        &[
            "device.soc_budget_share",
            "grid.intensity",
            "grid.renewable_fraction",
            "mc.*",
        ],
    ),
    ("ext-facility", &["fleet.*", "grid.intensity"]),
    ("ext-scheduler", &["fleet.*", "grid.regions"]),
];

/// The pinned scenarios: the paper defaults plus four perturbations built
/// through `Scenario::set`, each exercising a different corner of the
/// field table.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    let with = |assignments: &[(&str, &str)]| {
        let mut s = Scenario::paper_defaults();
        for (key, value) in assignments {
            s.set(key, value)
                .unwrap_or_else(|e| panic!("{key}={value}: {e}"));
        }
        s.validate().unwrap();
        s
    };
    vec![
        ("paper", Scenario::paper_defaults()),
        (
            "mix",
            with(&[
                ("fleet.mix", "web:0.6,storage:0.1,ai-training:0.3"),
                ("fleet.mix[storage]", "0.25"),
            ]),
        ),
        (
            "sites",
            with(&[
                ("grid.region.pnw.trace", "solar(300,120)"),
                ("grid.region.flatland.trace", "flat(75.5)"),
                ("fleet.sites[pnw].weight", "0.3"),
                ("fleet.sites[aux].region", "flatland"),
                ("fleet.sites[aux].weight", "0.2"),
            ]),
        ),
        ("wind", with(&[("grid.source", "wind")])),
        (
            "every-scalar",
            with(&[
                ("name", "every \"scalar\" moved"),
                ("grid.intensity", "123.25"),
                ("grid.renewable_fraction", "0.35"),
                ("device.lifetime", "4.5"),
                ("device.soc_budget_share", "0.65"),
                ("fab.node_nm", "7"),
                ("fab.yield_factor", "1.75"),
                ("fab.renewable_share", "0.9"),
                ("fleet.scale", "2.5"),
                ("fleet.sku", "storage"),
                ("fleet.deferrable", "0.45"),
                ("fleet.initial_servers", "12345"),
                ("fleet.growth", "1.125"),
                ("fleet.pue", "1.3"),
                ("fleet.renewable_ramp", "0.1,0.3,0.7"),
                ("fleet.construction_kt", "42.5"),
                ("fleet.building_amortization_years", "25"),
                ("fleet.start_year", "2021"),
                ("fleet.horizon_years", "11"),
                ("mc.seed", "18446744073709551615"),
                ("mc.samples", "777"),
            ]),
        ),
    ]
}

/// Renders every derived form of `scenario` under a `## <label>` header.
fn render(out: &mut String, label: &str, scenario: &Scenario) {
    writeln!(out, "## {label}").unwrap();
    writeln!(out, "### field_value").unwrap();
    for path in PATHS {
        let value = scenario
            .field_value(path)
            .unwrap_or_else(|| panic!("no value for canonical path {path}"));
        writeln!(out, "{path} = {value}").unwrap();
    }
    writeln!(out, "### to_toml").unwrap();
    out.push_str(&scenario.to_toml());
    writeln!(out, "### to_json").unwrap();
    writeln!(out, "{}", scenario.to_json().render()).unwrap();
    writeln!(out, "### dependency_fingerprint").unwrap();
    for (key, deps) in REGISTRY_DEPS {
        let deps: Vec<ScenarioPath> = deps.iter().map(|d| ScenarioPath::of(d)).collect();
        let fp = dependency_fingerprint(scenario, &deps);
        writeln!(out, "{key} = {fp:016x}").unwrap();
    }
}

/// Compares `actual` with the checked-in golden file, leaving the actual
/// text behind for inspection when they differ.
fn assert_golden(actual: &str) {
    let expected = include_str!("golden/field_table.txt");
    if actual != expected {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("field_table.txt");
        std::fs::write(&path, actual).unwrap();
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(|| "(length)".to_string(), |i| (i + 1).to_string());
        panic!(
            "field table output drifted from tests/golden/field_table.txt at line {line}; \
             actual text written to {}",
            path.display()
        );
    }
}

#[test]
fn field_table_outputs_match_the_golden_pin() {
    let mut out = String::new();
    for (label, scenario) in scenarios() {
        render(&mut out, label, &scenario);
    }
    // The checked-in scenario files: each must parse to the pinned
    // scenario. Trace paths inside them are relative to the repository
    // root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).unwrap();
    let mut files: Vec<_> = std::fs::read_dir("scenarios")
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let scenario =
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        render(&mut out, &file.display().to_string(), &scenario);
    }
    assert_golden(&out);
}
