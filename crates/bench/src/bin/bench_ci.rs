//! CI benchmark smoke: times the facility, sweep and serve hot paths with
//! the `cc_bench` harness and writes a machine-readable `BENCH_ci.json`
//! (name, mean ns, min ns, iterations) so every CI run contributes a data
//! point to the perf trajectory.
//!
//! ```text
//! bench-ci                                  # writes BENCH_ci.json
//! bench-ci out/BENCH_ci.json                # explicit output path
//! bench-ci --baseline BENCH_baseline.json   # …and gate: fail on a >25%
//!                                           # mean_ns regression on any
//!                                           # bench named in the baseline
//! bench-ci --update-baseline BENCH_baseline.json
//!                                           # …and rewrite the baseline
//!                                           # from this run; refuses to
//!                                           # raise any mean by >25%
//!                                           # unless --force is given
//! ```
//!
//! The per-benchmark budget is deliberately small (~100 ms): the goal is a
//! stable order-of-magnitude record per commit, not Criterion-grade
//! statistics — `cargo bench` remains the place for careful measurement.
//! The serve benches drive a real `cc_engine::Server` over loopback TCP on
//! a pre-warmed cache, so `serve/cache-hit-latency` is the end-to-end cost
//! of a cache-hit request (quoted as implied requests/sec = 1e9 / mean_ns
//! right next to the measurement),
//! `serve/sustained-requests-x16` measures 16 pipelined v1 (untagged)
//! requests, `serve/pipelined-depth-16` the same burst id-tagged through
//! the v2 worker pool, and `serve/overload-rejection` the cost of a
//! zero-depth queue shedding one multiplexed request.

use cc_bench::harness::Report;
use cc_bench::Bencher;
use cc_core::experiments;
use cc_engine::{Engine, McConfig, Server, DEFAULT_CACHE_CAPACITY};
use cc_report::{
    dedup_groups, DistBinding, JsonValue, MonteCarloMatrix, RunContext, Scenario, ScenarioMatrix,
    ScenarioOverlay, SweepSpec,
};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Maximum tolerated `mean_ns` growth over the checked-in baseline before
/// the gate fails CI.
const REGRESSION_RATIO: f64 = 1.25;

fn main() {
    let mut baseline: Option<String> = None;
    let mut update_baseline: Option<String> = None;
    let mut force = false;
    let mut out_path = "BENCH_ci.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline = Some(args.next().unwrap_or_else(|| {
                    eprintln!("bench-ci: --baseline requires a path");
                    std::process::exit(2);
                }));
            }
            "--update-baseline" => {
                update_baseline = Some(args.next().unwrap_or_else(|| {
                    eprintln!("bench-ci: --update-baseline requires a path");
                    std::process::exit(2);
                }));
            }
            "--force" => force = true,
            flag if flag.starts_with('-') => {
                eprintln!("bench-ci: unknown option `{flag}`");
                std::process::exit(2);
            }
            path => out_path = path.to_string(),
        }
    }

    let mut report = Report::new();
    let bencher = Bencher::group("ci").budget(Duration::from_millis(100));
    let mut bench = |name: &str, f: &mut dyn FnMut()| {
        let measurement = bencher.bench(name, f);
        report.record(format!("ci/{name}"), measurement);
        measurement
    };

    // Facility hot path: the scenario-driven simulation behind
    // ext-facility/fig02/fig11, pure and mixed.
    let paper = RunContext::paper();
    let facility = experiments::find("ext-facility").expect("registry");
    bench("facility/paper-run", &mut || {
        black_box(facility.run(&paper));
    });
    let mut ai = Scenario::paper_defaults();
    ai.set("fleet.mix", "web:0.7,ai-training:0.3")
        .expect("valid mix");
    let ai_ctx = RunContext::new(ai);
    bench("facility/mixed-fleet-run", &mut || {
        black_box(facility.run(&ai_ctx));
    });
    bench("facility/prineville-simulate", &mut || {
        black_box(cc_dcsim::prineville::simulate());
    });

    // Sweep hot path: matrix expansion plus the dependency-fingerprint
    // grouping the cached runner performs before any model runs.
    let specs = vec![SweepSpec::parse("fleet.growth=1.0..2.0/0.05").expect("valid spec")];
    bench("sweep/matrix-expand-21-points", &mut || {
        let matrix =
            ScenarioMatrix::new(Scenario::paper_defaults(), specs.clone()).expect("valid matrix");
        black_box(matrix.points().collect::<Vec<_>>());
    });
    let matrix = ScenarioMatrix::new(Scenario::paper_defaults(), specs).expect("valid matrix");
    let points: Vec<_> = matrix.points().collect();
    let overlays: Vec<&ScenarioOverlay> = points.iter().map(|p| &p.overlay).collect();
    bench("sweep/fingerprint-dedup-full-suite", &mut || {
        for entry in experiments::entries() {
            black_box(dedup_groups(&overlays, entry.deps()));
        }
    });

    // Monte-Carlo hot path: 1k sampled points through the draw → overlay →
    // fingerprint → cache → streaming-statistics pipeline. The sampled
    // field is outside ext-facility's dependencies, so the model runs once
    // and the bench isolates the per-sample machinery (model-run cost is
    // already tracked by facility/paper-run). The engine is the resident
    // one, so after the first iteration that one run is a cache hit.
    let mc_engine = Engine::resident(DEFAULT_CACHE_CAPACITY);
    let mc_entries = vec![experiments::find_entry("ext-facility").expect("registry")];
    let mc_matrix = MonteCarloMatrix::new(
        Scenario::paper_defaults(),
        vec![DistBinding::parse("fab.node_nm ~ triangular(5,7,10)").expect("valid binding")],
        1000,
        7,
    )
    .expect("valid matrix");
    let mc_config = McConfig {
        jobs: 1,
        no_cache: false,
    };
    bench("mc-throughput", &mut || {
        black_box(
            mc_engine
                .run_mc(&mc_entries, &mc_matrix, &mc_config)
                .expect("mc run"),
        );
    });

    // Serve hot path: a resident daemon on loopback TCP, one persistent
    // client connection, cache pre-warmed so every measured request is the
    // full protocol round-trip (parse → validate → cache hit → render →
    // stream) without model runs. The engine is the resident one `repro
    // serve` builds.
    let engine = Arc::new(Engine::resident(DEFAULT_CACHE_CAPACITY));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), 8).unwrap_or_else(|e| {
        eprintln!("bench-ci: cannot bind loopback server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let single = r#"{"op":"run","experiments":["fig05"]}"#;
    let sweep = r#"{"op":"run","experiments":["fig10"],"sweep":["grid.intensity=50,380,700"]}"#;
    roundtrip(&mut reader, &mut writer, single); // warm
    roundtrip(&mut reader, &mut writer, sweep); // warm
    let hit = bench("serve/cache-hit-latency", &mut || {
        roundtrip(&mut reader, &mut writer, single);
    });
    // The latency is easier to reason about as throughput: one connection
    // issuing back-to-back cache hits sustains 1e9 / mean_ns requests/sec.
    let hit_mean_ns = hit.mean.as_nanos() as f64;
    if hit_mean_ns > 0.0 {
        println!(
            "ci/serve/cache-hit-latency: implied {:.0} requests/sec per connection",
            1e9 / hit_mean_ns
        );
    }
    bench("serve/sweep-replay-3-points", &mut || {
        roundtrip(&mut reader, &mut writer, sweep);
    });
    bench("serve/sustained-requests-x16", &mut || {
        for _ in 0..16 {
            writeln!(writer, "{single}").expect("send request");
        }
        let mut done = 0;
        let mut response = String::new();
        while done < 16 {
            response.clear();
            reader.read_line(&mut response).expect("read response");
            if response.contains("\"type\":\"done\"") {
                done += 1;
            }
        }
    });
    // v2 multiplexing: the same 16 cache hits, id-tagged so they flow
    // through the per-connection work queue and worker pool instead of the
    // serial v1 reader loop, written in one burst and drained out of
    // order. Quoted against the serial round-trip rate above — this is the
    // number the protocol upgrade exists to move.
    let burst: String = (0..16)
        .map(|i| format!("{{\"op\":\"run\",\"id\":{i},\"experiments\":[\"fig05\"]}}\n"))
        .collect();
    let pipelined = bench("serve/pipelined-depth-16", &mut || {
        // One write for the whole burst — a pipelining client batches its
        // frames instead of paying a syscall (and a server wakeup) per
        // request.
        writer.write_all(burst.as_bytes()).expect("send burst");
        let mut done = 0;
        let mut response = String::new();
        while done < 16 {
            response.clear();
            reader.read_line(&mut response).expect("read response");
            if response.contains("\"type\":\"done\"") {
                done += 1;
            }
        }
    });
    let pipelined_per_request_ns = pipelined.mean.as_nanos() as f64 / 16.0;
    if pipelined_per_request_ns > 0.0 && hit_mean_ns > 0.0 {
        println!(
            "ci/serve/pipelined-depth-16: implied {:.0} requests/sec per connection \
             ({:.1}x the serial round-trip rate)",
            1e9 / pipelined_per_request_ns,
            hit_mean_ns / pipelined_per_request_ns
        );
    }
    roundtrip(&mut reader, &mut writer, r#"{"op":"shutdown"}"#);
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");

    // Backpressure fast path: a zero-depth queue sheds every multiplexed
    // request with a structured `overloaded` error instead of buffering,
    // so rejection must stay far cheaper than service.
    let overload_engine = Arc::new(Engine::resident(DEFAULT_CACHE_CAPACITY));
    let overload_server = Server::bind("127.0.0.1:0", overload_engine, 2)
        .unwrap_or_else(|e| {
            eprintln!("bench-ci: cannot bind overload server: {e}");
            std::process::exit(1);
        })
        .queue_depth(0);
    let overload_addr = overload_server.local_addr().expect("bound address");
    let overload_daemon = std::thread::spawn(move || overload_server.run());
    let stream = TcpStream::connect(overload_addr).expect("connect to overload server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    bench("serve/overload-rejection", &mut || {
        writeln!(writer, r#"{{"op":"run","id":1,"experiments":["fig05"]}}"#).expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(
            response.contains("\"error\":\"overloaded\""),
            "expected an overloaded rejection, got: {response}"
        );
    });
    roundtrip(&mut reader, &mut writer, r#"{"op":"shutdown"}"#);
    overload_daemon
        .join()
        .expect("overload daemon joins")
        .expect("overload daemon exits cleanly");

    std::fs::write(&out_path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("bench-ci: cannot write `{out_path}`: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path} ({} benchmarks)", report.len());

    if let Some(baseline_path) = baseline {
        compare_against_baseline(&report, &baseline_path);
    }
    if let Some(baseline_path) = update_baseline {
        rewrite_baseline(&report, &baseline_path, force);
    }
}

/// Rewrites the checked-in baseline from this run's report. Deliberately
/// loosening the gate is guarded: when any bench shared with the existing
/// baseline would have its `mean_ns` *raised* by more than
/// [`REGRESSION_RATIO`]×, the rewrite is refused unless `--force` is given
/// — a baseline refresh should record a speedup (or a new bench), not
/// quietly absorb a regression.
fn rewrite_baseline(report: &Report, baseline_path: &str, force: bool) {
    let current = parse_report(&report.to_json(), "bench report");
    if let Ok(old_text) = std::fs::read_to_string(baseline_path) {
        let old = parse_report(&old_text, "baseline");
        let mut raised = Vec::new();
        for base in &old {
            if let Some(now) = current.iter().find(|row| row.name == base.name) {
                let ratio = now.mean_ns / base.mean_ns;
                if ratio > REGRESSION_RATIO {
                    raised.push(format!(
                        "{}: {:.0} ns would raise the baseline {:.0} ns by {ratio:.2}x \
                         (limit {REGRESSION_RATIO}x)",
                        base.name, now.mean_ns, base.mean_ns
                    ));
                }
            }
        }
        if !raised.is_empty() && !force {
            eprintln!("bench-ci: refusing to raise baseline means (pass --force to override):");
            for line in &raised {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }
    std::fs::write(baseline_path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("bench-ci: cannot write baseline `{baseline_path}`: {e}");
        std::process::exit(1);
    });
    println!(
        "bench-ci: baseline `{baseline_path}` rewritten ({} benchmarks)",
        report.len()
    );
}

/// Sends one request line and drains responses through the terminal line.
fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) {
    writeln!(writer, "{line}").expect("send request");
    let mut response = String::new();
    loop {
        response.clear();
        reader.read_line(&mut response).expect("read response");
        if response.contains("\"type\":\"done\"")
            || response.contains("\"type\":\"error\"")
            || response.contains("\"type\":\"bye\"")
        {
            break;
        }
    }
}

/// One row of a `BENCH_*.json` report.
struct BenchRow {
    name: String,
    mean_ns: f64,
    min_ns: f64,
}

/// Parses a `BENCH_*.json` report into named rows.
fn parse_report(text: &str, what: &str) -> Vec<BenchRow> {
    let value = JsonValue::parse(text).unwrap_or_else(|e| {
        eprintln!("bench-ci: unparseable {what}: {e}");
        std::process::exit(1);
    });
    let entries = value.as_array().unwrap_or_else(|| {
        eprintln!("bench-ci: {what} must be a JSON array");
        std::process::exit(1);
    });
    entries
        .iter()
        .filter_map(|entry| {
            Some(BenchRow {
                name: entry.get("name")?.as_str()?.to_string(),
                mean_ns: entry.get("mean_ns")?.as_f64()?,
                min_ns: entry.get("min_ns")?.as_f64()?,
            })
        })
        .collect()
}

/// The perf gate: every bench named in the baseline must exist in the
/// current report with `mean_ns` within [`REGRESSION_RATIO`]× of its
/// baseline value. A transient load spike inflates the mean but not the
/// minimum, so a bench only counts as regressed when `min_ns` breaches the
/// same ratio — a genuine code regression shifts both. Benches the current
/// report adds on top of the baseline pass silently (the baseline is
/// refreshed deliberately, not implicitly).
fn compare_against_baseline(report: &Report, baseline_path: &str) {
    let baseline_text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("bench-ci: cannot read baseline `{baseline_path}`: {e}");
        std::process::exit(1);
    });
    let baseline = parse_report(&baseline_text, "baseline");
    let current = parse_report(&report.to_json(), "bench report");
    let mut regressions = Vec::new();
    for base in &baseline {
        let Some(now) = current.iter().find(|row| row.name == base.name) else {
            regressions.push(format!(
                "{}: present in baseline but missing from this run",
                base.name
            ));
            continue;
        };
        let mean_ratio = now.mean_ns / base.mean_ns;
        let min_ratio = now.min_ns / base.min_ns;
        println!(
            "bench-ci: {}: {:.0} ns vs baseline {:.0} ns ({mean_ratio:.2}x mean, {min_ratio:.2}x min)",
            base.name, now.mean_ns, base.mean_ns
        );
        if mean_ratio > REGRESSION_RATIO && min_ratio > REGRESSION_RATIO {
            regressions.push(format!(
                "{}: {:.0} ns is {mean_ratio:.2}x the baseline {:.0} ns \
                 (min {min_ratio:.2}x; limit {REGRESSION_RATIO}x)",
                base.name, now.mean_ns, base.mean_ns
            ));
        }
    }
    if !regressions.is_empty() {
        eprintln!("bench-ci: perf regression gate failed:");
        for regression in &regressions {
            eprintln!("  {regression}");
        }
        std::process::exit(1);
    }
    println!(
        "bench-ci: perf gate passed ({} benches within {REGRESSION_RATIO}x of baseline)",
        baseline.len()
    );
}
