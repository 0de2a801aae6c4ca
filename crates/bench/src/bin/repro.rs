//! Regenerates the paper's figures and tables from the models, under any
//! scenario — or a whole matrix of scenarios.
//!
//! ```text
//! repro fig10                                  # paper scenario, text output
//! repro --scenario green.toml fig10            # custom scenario file
//! repro --set grid.intensity=50 fig10          # one-off overrides
//! repro --tag mobile --json                    # tag-filtered, JSON to stdout
//! repro --jobs 8 --json --out out/             # full suite, in parallel,
//!                                              # one artifact file per key
//! repro --experiment fig10 \
//!       --sweep grid.intensity=10..800/100 \
//!       --jobs 4 --json --out out/             # scenario sweep: one artifact
//!                                              # per grid point, plus a
//!                                              # cross-scenario comparison
//! repro serve --addr 127.0.0.1:7878            # resident sweep-as-a-service
//!                                              # daemon (NDJSON over TCP)
//! repro client --addr 127.0.0.1:7878 \
//!       --experiment fig10 \
//!       --sweep grid.intensity=100,300 \
//!       --out out/                             # drive a daemon from the CLI
//! ```
//!
//! With `--sweep`, the runner expands the cartesian product of all sweep
//! specs over the base scenario and schedules the full (scenario-point ×
//! experiment) grid on a streaming work-queue: workers pull jobs, artifacts
//! are written to `--out` the moment they complete (a small reorder buffer
//! keeps stdout in grid order), and each point's summary scalar feeds the
//! comparison report emitted at the end.
//!
//! All execution routes through [`cc_engine`]: the work-queue dedupes jobs
//! through each experiment's declared scenario-dependency set, so
//! (experiment × point) jobs whose dependency fingerprints agree share one
//! model run, scenario-independent experiments execute once per sweep and
//! partially-dependent ones skip axes they ignore. `--no-cache` restores
//! the one-run-per-job behavior, `--explain` prints the dedup plan (or a
//! Monte-Carlo run's shared/per-sample plan) without running anything,
//! and a sweep's footer reports the per-experiment run/reuse counts.
//! `repro serve` keeps the same engine resident behind a TCP listener, so
//! repeated and overlapping requests are answered from its sharded
//! fingerprint→artifact cache.

use cc_core::experiments::{self, Entry, Tag};
use cc_engine::artifact::{
    artifact_file_name, render_artifact, render_comparisons, render_mc_comparisons,
};
use cc_engine::grid::{build_comparisons, disk_footer_lines, explain_lines, footer_lines};
use cc_engine::mc;
use cc_engine::protocol::{write_frame, Frame, Request, RunRequest};
use cc_engine::{DiskCache, Engine, Format, GridConfig, GridJob, McConfig, Server};
use cc_report::{JsonValue, Scenario};
use std::io::{BufRead, Write as _};
use std::path::Path;
use std::sync::Arc;

fn print_usage() {
    eprintln!("usage: repro [options] [<experiment-key>...]");
    eprintln!(
        "       repro serve --addr <host:port> [--jobs <n>] [--cache-capacity <n>] \
         [--cache-dir <dir>] [--queue-depth <n>] [--log <file>]"
    );
    eprintln!("       repro client --addr <host:port> [selection options] [--out <dir>]");
    eprintln!("       repro client --addr <host:port> --stats | --hello | --shutdown");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --list               list selected experiment keys and exit");
    eprintln!("  --tag <tag>          filter experiments by tag (repeatable, AND-ed)");
    eprintln!("  --experiment <key>   select an experiment (repeatable; same as a");
    eprintln!("                       positional key)");
    eprintln!("  --scenario <file>    load scenario parameters from a TOML file");
    eprintln!("  --set <key>=<value>  override one scenario field (repeatable),");
    eprintln!("                       e.g. --set grid.intensity=50 --set device.lifetime=5");
    eprintln!("                       a `~` binds a distribution instead (Monte-Carlo):");
    eprintln!("                         --set 'fab.node_nm ~ triangular(5,7,10)'");
    eprintln!("                         --set 'fleet.growth ~ uniform(1.2,1.4)'");
    eprintln!("                         --set 'grid.intensity ~ normal(350,40)'");
    eprintln!("  --sweep <key>=<spec> sweep one scenario field over many values");
    eprintln!("                       (repeatable; specs multiply into a matrix):");
    eprintln!("                         range  --sweep grid.intensity=10..800/100");
    eprintln!("                         list   --sweep device.lifetime=2,3,4");
    eprintln!("                         named  --sweep grid.source=@sources");
    eprintln!("                       (a `~` spec binds a distribution, like --set)");
    eprintln!("  --samples <n>        draw n Monte-Carlo samples (max 1000000) over the");
    eprintln!("                       bound distributions and report streaming banded");
    eprintln!("                       statistics (mean, stddev, p05/p50/p95, 90% CI)");
    eprintln!("  --seed <n>           RNG seed for --samples (default 0); the same seed");
    eprintln!("                       is byte-reproducible at any --jobs value");
    eprintln!("  --markdown | --csv | --json   output format (default: text)");
    eprintln!("  --out <dir>          write one artifact file per experiment (and per");
    eprintln!("                       sweep point) into <dir>, streamed as they finish");
    eprintln!("  --jobs <n>           run the (point x experiment) grid on n worker");
    eprintln!("                       threads (default 1)");
    eprintln!("  --no-cache           run every (experiment x point) job even when the");
    eprintln!("                       experiment's declared scenario dependencies say");
    eprintln!("                       the output is identical across points");
    eprintln!("  --cache-dir <dir>    persist computed artifacts under <dir>, keyed on");
    eprintln!("                       (code fingerprint x dependency fingerprint); a");
    eprintln!("                       later run recomputes only the work groups whose");
    eprintln!("                       declared scenario fields changed");
    eprintln!("  --explain            print each experiment's scenario dependencies and");
    eprintln!("                       the sweep's (or --samples run's) run/reuse plan,");
    eprintln!("                       without running");
    eprintln!();
    eprintln!("serve mode: a resident daemon speaking newline-delimited JSON over TCP");
    eprintln!("  (protocol v2: request ids multiplex many in-flight requests per");
    eprintln!("  connection; `batch` submits a whole sweep in one frame; a full work");
    eprintln!("  queue answers a structured `overloaded` error).");
    eprintln!("  every connection shares one engine, so artifacts computed for one");
    eprintln!("  client are cache hits for every other. `--jobs` caps per-request");
    eprintln!("  parallelism, `--queue-depth` caps in-flight multiplexed requests per");
    eprintln!("  connection; bind port 0 to let the OS pick (the chosen address is");
    eprintln!("  printed as `listening on <addr>`). the operational log goes to stderr");
    eprintln!("  by default, or to `--log <file>` — never into the working directory.");
    eprintln!();
    eprintln!("client mode: exit code 0 on success; a server rejection maps the error");
    eprintln!("  category to a stable exit code (malformed-request=10,");
    eprintln!("  unknown-experiment=11, unknown-tag=12, unknown-field=13,");
    eprintln!("  invalid-value=14, invalid-scenario=15, invalid-sweep=16,");
    eprintln!("  overloaded=17); other client failures exit 2.");
    eprintln!();
    let tags: Vec<&str> = Tag::ALL.iter().map(|t| t.name()).collect();
    eprintln!("tags: {}", tags.join(", "));
    eprintln!();
    eprintln!("keys:");
    for e in experiments::entries() {
        eprintln!("  {:10}  {} — {}", e.key, e.title(), e.description());
    }
}

/// Prints a line to stdout, exiting quietly when the reader has gone away
/// (`repro --list | head` must not panic on the broken pipe).
fn emit(line: impl std::fmt::Display) {
    let stdout = std::io::stdout();
    if writeln!(stdout.lock(), "{line}").is_err() {
        std::process::exit(0);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!("(run `repro --help` for usage)");
    std::process::exit(2);
}

struct Options {
    list: bool,
    explain: bool,
    /// The base scenario: the `--scenario` file, or the paper defaults.
    scenario: Scenario,
    request: RunRequest,
    format: Format,
    out_dir: Option<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
}

fn value_of(flag: &str, args: &mut dyn Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

/// The value of `flag` as a non-negative integer, or a positive one.
fn count_of<T: std::str::FromStr + PartialOrd + Default>(
    flag: &str,
    positive: bool,
    args: &mut dyn Iterator<Item = String>,
) -> T {
    let n = value_of(flag, args);
    n.parse()
        .ok()
        .filter(|n| !positive || *n > T::default())
        .unwrap_or_else(|| {
            let kind = if positive { "positive" } else { "non-negative" };
            fail(&format!("{flag} expects a {kind} integer, got `{n}`"))
        })
}

/// The one parser of the run flags `repro` and `repro client` share:
/// applies `arg` (and its value) to `request`, or returns `false` when
/// `arg` is not a run flag. Validation is left to `RunRequest::resolve`,
/// on the daemon and in one-shot runs alike.
fn run_flag(request: &mut RunRequest, arg: &str, args: &mut dyn Iterator<Item = String>) -> bool {
    match arg {
        "--experiment" => request.keys.push(value_of(arg, args)),
        "--tag" => request.tags.push(value_of(arg, args)),
        // A `~` in a --set/--sweep value binds a distribution instead of
        // a scalar or an enumerated sweep — the Monte-Carlo front door.
        // Checked before the `=` split: `fab.node_nm ~ triangular(5,7,10)`
        // has no `=` at all.
        "--set" | "--sweep" => {
            let text = value_of(arg, args);
            if text.contains('~') {
                request.dists.push(text);
            } else if arg == "--sweep" {
                request.sweeps.push(text);
            } else {
                let Some((key, value)) = text.split_once('=') else {
                    fail(&format!("--set expects key=value, got `{text}`"));
                };
                request.sets.push((key.trim().into(), value.trim().into()));
            }
        }
        "--samples" => request.samples = Some(count_of(arg, true, args)),
        "--seed" => request.seed = Some(count_of(arg, false, args)),
        "--jobs" => request.jobs = Some(count_of(arg, true, args)),
        "--no-cache" => request.no_cache = true,
        // `cargo repro -- fig10` forwards the `--` separator; accept it.
        "--" => {}
        key if !key.starts_with('-') => request.keys.push(key.to_string()),
        _ => return false,
    }
    true
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Options {
    let mut list = false;
    let mut explain = false;
    let mut scenario_file: Option<String> = None;
    let mut request = RunRequest::default();
    let mut format = Format::Text;
    let mut out_dir = None;
    let mut cache_dir = None;

    while let Some(arg) = args.next() {
        if run_flag(&mut request, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            "--list" => list = true,
            "--explain" => explain = true,
            "--scenario" => scenario_file = Some(value_of("--scenario", &mut args)),
            "--markdown" => format = Format::Markdown,
            "--csv" => format = Format::Csv,
            "--json" => format = Format::Json,
            "--out" => out_dir = Some(std::path::PathBuf::from(value_of("--out", &mut args))),
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(value_of("--cache-dir", &mut args)));
            }
            flag => fail(&format!("unknown option `{flag}`")),
        }
    }

    // The base scenario: the file, or the paper defaults. `resolve_on`
    // applies the --set overrides to it strictly in command-line order.
    let scenario = match &scenario_file {
        None => Scenario::paper_defaults(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read scenario `{path}`: {e}")));
            Scenario::from_toml(&text).unwrap_or_else(|e| fail(&format!("scenario `{path}`: {e}")))
        }
    };

    Options {
        list,
        explain,
        scenario,
        request,
        format,
        out_dir,
        cache_dir,
    }
}

/// Opens the persistent cache at `dir`, exiting with a diagnostic when the
/// directory cannot be created.
fn open_disk_cache(dir: &Path) -> DiskCache {
    DiskCache::open(dir)
        .unwrap_or_else(|e| fail(&format!("cannot open cache dir `{}`: {e}", dir.display())))
}

/// Creates the `--out` directory, exiting with a diagnostic on failure.
fn create_out_dir(dir: &Path) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create `{}`: {e}", dir.display())));
}

/// Writes `contents` to `path`, exiting with a diagnostic on failure, and
/// returns the `wrote <path>` line announcing it.
fn write_file(path: &Path, contents: &str) -> String {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| fail(&format!("cannot write `{}`: {e}", path.display())));
    format!("wrote {}", path.display())
}

/// The one-shot engine for one run: it keeps nothing resident, since one
/// run obtains each (experiment, fingerprint) once and no later run in
/// this process could reuse it. With `--cache-dir` every result is loaded
/// from and stored to the disk cache instead. Also creates `--out`.
fn one_shot_engine(options: &Options) -> Engine {
    if let Some(dir) = &options.out_dir {
        create_out_dir(dir);
    }
    let mut engine = Engine::new();
    if let Some(dir) = &options.cache_dir {
        engine = engine.with_disk(open_disk_cache(dir));
    }
    engine.count_request();
    engine
}

/// Emits a run's comparison report — to stdout, or as `<stem>.<ext>` under
/// `--out` — then its footers: the cache footer (run/reuse counts over
/// `width` jobs per entry) and, with `--cache-dir`, the disk footer. The
/// footers are not part of the report itself — a cached and an uncached
/// run must produce byte-identical reports — so they are kept off stdout in
/// *every* JSON mode, letting JSON consumers parse stdout whether or not
/// artifacts went to `--out`, and suppressed entirely with `--no-cache`.
fn emit_report(
    options: &Options,
    selected: &[&'static Entry],
    stem: &str,
    report: &str,
    width: usize,
    [run_counts, disk_runs, disk_hits]: [&[usize]; 3],
) {
    match &options.out_dir {
        None => emit(report),
        Some(dir) => emit(write_file(
            &dir.join(format!("{stem}.{}", options.format.extension())),
            report,
        )),
    }
    if options.request.no_cache {
        return;
    }
    let mut footer = footer_lines(selected, width, run_counts);
    if options.cache_dir.is_some() {
        footer.extend(disk_footer_lines(selected, disk_runs, disk_hits));
    }
    for line in footer {
        if options.format == Format::Json {
            eprintln!("{line}");
        } else {
            emit(line);
        }
    }
}

/// `repro serve`: bind the listener, print the chosen address (port 0 is
/// resolved by the OS) and serve until a client sends `{"op":"shutdown"}`.
fn serve_main(args: &[String]) {
    let mut args = args.iter().cloned();
    let mut addr: Option<String> = None;
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut capacity = cc_engine::DEFAULT_CACHE_CAPACITY;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut queue_depth = cc_engine::server::DEFAULT_QUEUE_DEPTH;
    let mut log_file: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr", &mut args)),
            "--jobs" => jobs = count_of("--jobs", true, &mut args),
            "--cache-capacity" => capacity = count_of("--cache-capacity", true, &mut args),
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(value_of("--cache-dir", &mut args)));
            }
            // Queue depth 0 is allowed: a drill server that rejects every
            // multiplexed request with `overloaded`.
            "--queue-depth" => queue_depth = count_of("--queue-depth", false, &mut args),
            "--log" => log_file = Some(std::path::PathBuf::from(value_of("--log", &mut args))),
            flag => fail(&format!("unknown serve option `{flag}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("serve requires --addr <host:port>"));
    let mut engine = Engine::resident(capacity);
    if let Some(dir) = &cache_dir {
        // The daemon and the one-shot CLI share the same on-disk format, so
        // artifacts computed by either warm the other.
        engine = engine.with_disk(open_disk_cache(dir));
    }
    let engine = Arc::new(engine);
    // The operational log defaults to stderr — a daemon must not drop a
    // `serve.log` into whatever directory it happened to start from.
    let log = match &log_file {
        None => cc_engine::ServeLog::to_stderr(),
        Some(path) => cc_engine::ServeLog::to_file(path)
            .unwrap_or_else(|e| fail(&format!("cannot open log `{}`: {e}", path.display()))),
    };
    let server = Server::bind(&addr, engine, jobs)
        .unwrap_or_else(|e| fail(&format!("cannot bind `{addr}`: {e}")))
        .queue_depth(queue_depth)
        .log_to(log);
    let local = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("cannot read bound address: {e}")));
    emit(format_args!("listening on {local}"));
    server
        .run()
        .unwrap_or_else(|e| fail(&format!("serve failed: {e}")));
}

/// Maps a server error category onto a stable exit code, so scripted
/// callers (and the stress suite) can tell `overloaded` from
/// `invalid-sweep` without parsing stderr. Unknown categories fall back to
/// the generic failure code 2.
fn category_exit_code(category: &str) -> i32 {
    match category {
        "malformed-request" => 10,
        "unknown-experiment" => 11,
        "unknown-tag" => 12,
        "unknown-field" => 13,
        "invalid-value" => 14,
        "invalid-scenario" => 15,
        "invalid-sweep" => 16,
        "overloaded" => 17,
        _ => 2,
    }
}

/// `repro client`: parse the run flags into the same [`RunRequest`] a
/// one-shot run resolves, send it as one [`write_frame`] line, and stream
/// the responses — artifacts to `--out` files (byte-identical to one-shot
/// `repro --json --out` artifacts) or raw to stdout. A server rejection
/// exits with the category's [`category_exit_code`].
fn client_main(args: &[String]) {
    let mut args = args.iter().cloned();
    let mut addr: Option<String> = None;
    let mut run = RunRequest::default();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut stats = false;
    let mut hello = false;
    let mut shutdown = false;
    while let Some(arg) = args.next() {
        if run_flag(&mut run, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr", &mut args)),
            "--hello" => hello = true,
            "--out" => out_dir = Some(std::path::PathBuf::from(value_of("--out", &mut args))),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            flag => fail(&format!("unknown client option `{flag}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("client requires --addr <host:port>"));
    let request = if hello {
        Request::Hello
    } else if stats {
        Request::Stats
    } else if shutdown {
        Request::Shutdown
    } else {
        Request::Run(run)
    };
    let request = write_frame(&Frame { id: None, request });

    if let Some(dir) = &out_dir {
        create_out_dir(dir);
    }

    let stream = std::net::TcpStream::connect(&addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to `{addr}`: {e}")));
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("cannot clone connection: {e}")));
    writeln!(writer, "{request}").unwrap_or_else(|e| fail(&format!("cannot send request: {e}")));

    for line in std::io::BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("connection lost: {e}")));
        let response =
            JsonValue::parse(&line).unwrap_or_else(|e| fail(&format!("unparseable response: {e}")));
        match response.get("type").and_then(JsonValue::as_str) {
            Some("artifact") | Some("comparison") => {
                let payload = response
                    .get("artifact")
                    .or_else(|| response.get("comparison"))
                    .unwrap_or_else(|| fail("response is missing its payload"));
                match &out_dir {
                    // Re-rendering the parsed payload reproduces the server's
                    // bytes exactly (the JSON renderer is round-trip stable),
                    // which in turn match one-shot `repro --json --out` files.
                    Some(dir) => {
                        let name = response
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_else(|| fail("response is missing its artifact name"));
                        emit(write_file(&dir.join(name), &payload.render()));
                    }
                    None => emit(payload.render()),
                }
            }
            Some("done") | Some("stats") | Some("hello") => {
                emit(line);
                return;
            }
            Some("bye") => return,
            Some("error") => {
                let category = response
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("error");
                let message = response
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("(no message)");
                eprintln!("repro: server rejected the request: {category}: {message}");
                if let Some(ms) = response.get("retry_after_ms").and_then(JsonValue::as_u64) {
                    eprintln!("repro: server advises retrying after {ms} ms");
                }
                std::process::exit(category_exit_code(category));
            }
            _ => fail(&format!("unexpected response `{line}`")),
        }
    }
    fail("server closed the connection before finishing the response");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("client") => return client_main(&args[1..]),
        _ => {}
    }
    let options = parse_args(args.into_iter());
    let request = &options.request;

    if options.list {
        let selected = request.select().unwrap_or_else(|e| fail(&e.message));
        if options.format == Format::Json {
            let index = JsonValue::array(selected.iter().map(|e| {
                JsonValue::object([
                    ("key", JsonValue::from(e.key)),
                    ("title", JsonValue::from(e.title())),
                    ("description", JsonValue::from(e.description())),
                    (
                        "tags",
                        JsonValue::array(e.tags.iter().map(|t| JsonValue::from(t.name()))),
                    ),
                ])
            }));
            emit(index);
        } else {
            for entry in selected {
                emit(entry.key);
            }
        }
        return;
    }

    // The same validation and expansion a served request gets, over the
    // `--scenario` base.
    let run = request
        .resolve_on(options.scenario.clone())
        .unwrap_or_else(|e| fail(&e.message));
    let selected = &run.entries;
    let (jobs, no_cache) = (request.jobs.unwrap_or(1), request.no_cache);

    // Monte-Carlo: distribution bindings sample the scenario instead of
    // enumerating it. One streaming run, one banded comparison report.
    if let Some(mc) = &run.mc {
        if options.explain {
            for line in mc::explain_lines(selected, mc, no_cache) {
                emit(line);
            }
            return;
        }
        let engine = one_shot_engine(&options);
        let config = McConfig { jobs, no_cache };
        let result = engine
            .run_mc(selected, mc, &config)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let report = render_mc_comparisons(&result.comparisons, mc, options.format);
        emit_report(
            &options,
            selected,
            "mc-comparison",
            &report,
            mc.len(),
            [&result.run_counts, &result.disk_runs, &result.disk_hits],
        );
        return;
    }

    if options.explain {
        for line in explain_lines(selected, &run.points, no_cache) {
            emit(line);
        }
        return;
    }

    // The run/reuse accounting comes from the dependency plan (group
    // counts), so the footer is identical to what a resident engine would
    // print.
    let engine = one_shot_engine(&options);
    let config = GridConfig {
        jobs,
        no_cache,
        format: options.format,
    };
    // Renders one artifact on the worker thread, streaming it to `--out`
    // the moment the job finishes (not after the whole grid drains); the
    // returned lines reach stdout in grid order via the engine's reorder buffer.
    let render = |job: &GridJob<'_>| {
        let artifact = render_artifact(
            job.entry,
            job.experiment,
            job.output,
            job.context,
            job.sweeping.then_some(job.point),
            job.format,
        );
        match &options.out_dir {
            None => vec![artifact],
            Some(dir) => {
                let name = artifact_file_name(
                    job.entry.key,
                    job.sweeping.then_some(job.point),
                    job.format,
                );
                vec![write_file(&dir.join(name), &artifact)]
            }
        }
    };
    let result = engine.run_grid(
        selected,
        &run.points,
        &run.contexts,
        &config,
        render,
        |line| {
            emit(line);
        },
    );

    // With an active sweep, diff every experiment's summary scalar across the
    // grid points into the comparison report.
    if run.matrix.is_sweep() {
        let comparisons = build_comparisons(selected, &run.points, &result.scalars, &run.matrix)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let report = render_comparisons(&comparisons, &run.matrix, options.format);
        emit_report(
            &options,
            selected,
            "comparison",
            &report,
            run.points.len(),
            [&result.run_counts, &result.disk_runs, &result.disk_hits],
        );
    }
}
