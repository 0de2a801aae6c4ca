//! Smoke tests at a tiny size: metric names and units, the correctness
//! checks, and seed handling.

use cc_engine::{Engine, GridJob, Server};
use cc_report::JsonValue;
use perfbench::batch::render_json;
use perfbench::measure::{mc_traced, mc_untraced, sweep_traced, sweep_untraced, Options};
use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::serve::{mix, run_against, Config};
use perfbench::util::Report;
use perfbench::workload::{mc_load, sweep_load, Size};
use std::path::PathBuf;
use std::sync::Arc;

fn options(name: &str, seed: u64) -> Options {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    Options {
        seed,
        seconds: 0.0,
        scratch,
    }
}

fn names(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn end_to_end() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn assert_clean(report: &Report) {
    assert!(report.correct(), "problems: {:?}", report.problems);
    assert!(report.attempted > 0);
    assert_eq!(report.fail_frac(), 0.0);
}

#[test]
fn benchmark_json_lists_the_metrics_the_binary_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), end_to_end());
    let per_layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), per_layer);
}

#[test]
fn untraced_batch_runs_print_every_end_to_end_metric() {
    for workload in ["sweep-unique", "suite-sweep"] {
        let load = sweep_load(workload, 1, Size::Tiny).expect("tiny sweep");
        let report = sweep_untraced(&load, &options(workload, 1), render_json, &mut || Ok(0.5));
        assert_clean(&report);
        assert_eq!(names(&report), end_to_end());
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            report.metrics
        );
    }
    let load = mc_load(1, Size::Tiny).expect("tiny mc");
    let report = mc_untraced(&load, &options("mc-untraced", 1), &mut || Ok(0.5));
    assert_clean(&report);
    assert_eq!(names(&report), end_to_end());
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_replay_identically() {
    let expected: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    let opts = options("sweep-traced", 3);
    let load = sweep_load("suite-sweep", 3, Size::Tiny).expect("tiny sweep");
    let report = sweep_traced(&load, &opts, &opts.scratch.join("trace.jsonl"));
    assert_clean(&report);
    assert_eq!(names(&report), expected);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    assert_eq!(value("sweep.points"), Some(4.0));
    assert!(value("compute.runs").is_some_and(|v| v > 0.0));
    let spans = std::fs::read_to_string(opts.scratch.join("trace.jsonl")).expect("trace file");
    assert!(spans.lines().any(|l| l.contains("\"name\":\"render\"")));

    let opts = options("mc-traced", 3);
    let load = mc_load(3, Size::Tiny).expect("tiny mc");
    let report = mc_traced(&load, &opts, &opts.scratch.join("trace.jsonl"));
    assert_clean(&report);
    assert_eq!(names(&report), expected);
}

fn corrupt_one_cell(job: &GridJob<'_>) -> String {
    let mut text = render_json(job);
    if job.point_idx == 1 {
        text.push(' ');
    }
    text
}

#[test]
fn digest_check_fires_on_a_corrupted_artifact() {
    let load = sweep_load("sweep-unique", 1, Size::Tiny).expect("tiny sweep");
    let report = sweep_untraced(&load, &options("corrupt", 1), corrupt_one_cell, &mut || {
        Ok(0.5)
    });
    assert!(!report.correct());
    // One corrupted cell in each checked pass (warm-up and timed).
    assert!(report.failed > 0);
    assert_eq!(report.failed * load.cells(), report.attempted);
    assert!(report.fail_frac() > 0.0);
}

fn serve_in_process(depth: usize, name: &str) -> Report {
    let server = Server::bind("127.0.0.1:0", Arc::new(Engine::new()), 2)
        .expect("bind loopback")
        .queue_depth(depth);
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    let report = run_against(
        addr,
        None,
        &Config::tiny(),
        &options(name, 5),
        &mut || Ok(0.5),
        None,
    );
    handle.join().expect("server thread").expect("server run");
    report
}

#[test]
fn served_artifacts_match_the_in_process_render() {
    let report = serve_in_process(cc_engine::server::DEFAULT_QUEUE_DEPTH, "serve");
    assert_clean(&report);
    assert_eq!(names(&report), end_to_end());
}

#[test]
fn overloaded_replies_count_as_failures() {
    let report = serve_in_process(0, "overloaded");
    assert!(!report.correct());
    assert!(report.attempted > 0);
    assert_eq!(report.failed, report.attempted, "every request refused");
    assert_eq!(report.fail_frac(), 1.0);
}

#[test]
fn a_second_seed_gives_the_same_metric_names_and_no_failures() {
    let load = |seed| sweep_load("sweep-unique", seed, Size::Tiny).expect("tiny sweep");
    let a = sweep_untraced(&load(1), &options("seed-a", 1), render_json, &mut || {
        Ok(0.5)
    });
    let b = sweep_untraced(&load(2), &options("seed-b", 2), render_json, &mut || {
        Ok(0.5)
    });
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(names(&a), names(&b));
    assert_ne!(mix(1, 64), mix(2, 64), "the serve mix follows the seed");
    assert_eq!(mix(1, 64), mix(1, 64));
}

#[test]
fn counts_repeat_across_passes() {
    let load = mc_load(9, Size::Tiny).expect("tiny mc");
    let a = load.pass(2, false).expect("pass");
    let b = load.pass(2, false).expect("pass");
    assert_eq!(a.counts.repeatable(), b.counts.repeatable());
    assert_eq!(a.report, b.report);
}
