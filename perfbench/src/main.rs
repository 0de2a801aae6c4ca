//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints `name value unit` lines, then one JSON
//! object as the last line of stdout: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits non-zero when any output mismatches. Normally
//! started by `perfbench/run.py`, which builds the binaries first.

use cc_engine::artifact::render_artifact;
use cc_engine::Format;
use cc_report::{JsonValue, RunContext, ScenarioMatrix};
use perfbench::batch::render_json;
use perfbench::measure::{mc_traced, mc_untraced, sweep_traced, sweep_untraced, Options};
use perfbench::serve::{self, Config};
use perfbench::util::Report;
use perfbench::workload::{mc_load, sweep_load, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    scratch: PathBuf,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repro: PathBuf::from(".bench_build/release/repro"),
        scratch: PathBuf::from(".perfbench"),
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: unexpected value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--repro" => args.repro = PathBuf::from(value),
            "--scratch" => args.scratch = PathBuf::from(value),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or `all`"));
    }
    Ok(args)
}

/// A cold process's time to its first result: build the workload's
/// inputs and a fresh engine's worth of experiments, run each selected
/// experiment once at the base scenario and render its artifact.
fn probe(workload: &str, seed: u64) -> Result<(), String> {
    let (base, entries) = if workload == "mc-sampled" {
        let load = mc_load(seed, Size::Full)?;
        (load.base, load.entries)
    } else {
        let load = sweep_load(workload, seed, Size::Full)?;
        (load.base, load.entries)
    };
    let matrix = ScenarioMatrix::new(base, Vec::new()).map_err(|e| e.to_string())?;
    let point = matrix.point(0);
    let context = RunContext::try_from_overlay(point.overlay.clone()).map_err(|e| e.to_string())?;
    for entry in entries {
        let experiment = entry.build();
        let output = experiment.run(&context);
        let text = render_artifact(
            entry,
            experiment.as_ref(),
            &output,
            &context,
            None,
            Format::Json,
        );
        std::hint::black_box(text);
    }
    Ok(())
}

/// Wall time of one cold `--probe` process, seconds.
fn probe_process(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["--probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .status()
        .map_err(|e| format!("probe: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    status
        .success()
        .then_some(wall)
        .ok_or_else(|| format!("probe exited with {status}"))
}

fn run_one(args: &Args) -> Report {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        scratch: args.scratch.clone(),
    };
    let trace_path = args.scratch.join(format!("trace-{}.jsonl", args.workload));
    let workload = args.workload.as_str();
    let mut report = match workload {
        "serve-mixed" => serve::run_daemon(
            &args.repro,
            &Config::for_seconds(args.seconds),
            &opts,
            args.trace.then_some(trace_path.as_path()),
        ),
        "mc-sampled" => match mc_load(args.seed, Size::Full) {
            Ok(load) if args.trace => mc_traced(&load, &opts, &trace_path),
            Ok(load) => mc_untraced(&load, &opts, &mut || probe_process(args)),
            Err(e) => Report::failure(e),
        },
        _ => match sweep_load(workload, args.seed, Size::Full) {
            Ok(load) if args.trace => sweep_traced(&load, &opts, &trace_path),
            Ok(load) => sweep_untraced(&load, &opts, render_json, &mut || probe_process(args)),
            Err(e) => Report::failure(e),
        },
    };
    report.notes.insert(
        0,
        format!(
            "workload {workload} seed {} trace {}",
            args.seed,
            u8::from(args.trace)
        ),
    );
    report.note(format!("fail_frac {} failed/attempted", report.fail_frac()));
    report
}

/// `--workload all`: each workload in its own process, relayed, then one
/// combined result line with `<workload>.<metric>` names.
fn run_all() -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Report::default();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--workload", workload])
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result = JsonValue::parse(last).map_err(|_| format!("{workload}: no result line"))?;
        all.attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1);
        all.failed += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            all.problems.push(format!("{workload}: incorrect"));
        }
        for (name, metric) in result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            let value = metric
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            all.metric(format!("{workload}.{name}"), value, unit);
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return match probe(&args.workload, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let report = if args.workload == "all" {
        match run_all() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_one(&args)
    };
    for line in &report.notes {
        println!("{line}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
