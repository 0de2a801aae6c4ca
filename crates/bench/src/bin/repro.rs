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
use cc_engine::{DiskCache, Engine, Format, GridConfig, GridJob, McConfig, Server};
use cc_report::{
    DistBinding, JsonValue, MonteCarloMatrix, RunContext, Scenario, ScenarioMatrix, ScenarioPoint,
    SweepSpec,
};
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
    no_cache: bool,
    tags: Vec<Tag>,
    scenario: Scenario,
    sweeps: Vec<SweepSpec>,
    dists: Vec<DistBinding>,
    samples: Option<usize>,
    seed: u64,
    format: Format,
    out_dir: Option<std::path::PathBuf>,
    cache_dir: Option<std::path::PathBuf>,
    jobs: usize,
    keys: Vec<String>,
}

fn value_of(flag: &str, args: &mut dyn Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

fn parse_args(args: impl Iterator<Item = String>) -> Options {
    let mut args = args.peekable();
    let mut list = false;
    let mut explain = false;
    let mut no_cache = false;
    let mut tags = Vec::new();
    let mut scenario_file: Option<String> = None;
    let mut sets: Vec<(String, String)> = Vec::new();
    let mut sweeps = Vec::new();
    let mut dists: Vec<DistBinding> = Vec::new();
    let mut samples: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut format = Format::Text;
    let mut out_dir = None;
    let mut cache_dir = None;
    let mut jobs = 1usize;
    let mut keys = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            "--list" => list = true,
            "--explain" => explain = true,
            "--no-cache" => no_cache = true,
            "--tag" => {
                let name = value_of("--tag", &mut args);
                match Tag::parse(&name) {
                    Some(tag) => tags.push(tag),
                    None => fail(&format!("unknown tag `{name}`")),
                }
            }
            "--experiment" => keys.push(value_of("--experiment", &mut args)),
            "--scenario" => scenario_file = Some(value_of("--scenario", &mut args)),
            // A `~` in a --set/--sweep value binds a distribution instead of
            // a scalar or an enumerated sweep — the Monte-Carlo front door.
            // Checked before the `=` split: `fab.node_nm ~ triangular(5,7,10)`
            // has no `=` at all.
            "--set" => {
                let pair = value_of("--set", &mut args);
                if pair.contains('~') {
                    match DistBinding::parse(&pair) {
                        Ok(binding) => dists.push(binding),
                        Err(e) => fail(&e.to_string()),
                    }
                    continue;
                }
                let Some((key, value)) = pair.split_once('=') else {
                    fail(&format!("--set expects key=value, got `{pair}`"));
                };
                sets.push((key.trim().to_string(), value.trim().to_string()));
            }
            "--sweep" => {
                let spec = value_of("--sweep", &mut args);
                if spec.contains('~') {
                    match DistBinding::parse(&spec) {
                        Ok(binding) => dists.push(binding),
                        Err(e) => fail(&e.to_string()),
                    }
                    continue;
                }
                match SweepSpec::parse(&spec) {
                    Ok(spec) => sweeps.push(spec),
                    Err(e) => fail(&e.to_string()),
                }
            }
            "--samples" => {
                let n = value_of("--samples", &mut args);
                samples = Some(n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!("--samples expects a positive integer, got `{n}`"))
                }));
            }
            "--seed" => {
                let n = value_of("--seed", &mut args);
                seed = Some(n.parse().unwrap_or_else(|_| {
                    fail(&format!("--seed expects a non-negative integer, got `{n}`"))
                }));
            }
            "--markdown" => format = Format::Markdown,
            "--csv" => format = Format::Csv,
            "--json" => format = Format::Json,
            "--out" => out_dir = Some(std::path::PathBuf::from(value_of("--out", &mut args))),
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(value_of("--cache-dir", &mut args)));
            }
            "--jobs" => {
                let n = value_of("--jobs", &mut args);
                jobs = n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!("--jobs expects a positive integer, got `{n}`"))
                });
            }
            // `cargo repro -- fig10` forwards the `--` separator; accept it.
            "--" => {}
            flag if flag.starts_with('-') => fail(&format!("unknown option `{flag}`")),
            key => keys.push(key.to_string()),
        }
    }

    // Assemble the base scenario: file (or paper defaults) first, then --set
    // overrides strictly in command-line order. `Scenario::set` resolves
    // `grid.source` to its Table II intensity itself, so a later
    // `--set grid.intensity=…` still wins — overrides never clobber each
    // other out of order.
    let mut scenario = match &scenario_file {
        None => Scenario::paper_defaults(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read scenario `{path}`: {e}")));
            Scenario::from_toml(&text).unwrap_or_else(|e| fail(&format!("scenario `{path}`: {e}")))
        }
    };
    for (key, value) in &sets {
        scenario
            .set(key, value)
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    scenario.validate().unwrap_or_else(|e| fail(&e.to_string()));

    // Monte-Carlo flags travel together: distributions need a sample
    // count, a sample count needs distributions, and a sampled axis has no
    // enumerable grid to sweep.
    if !dists.is_empty() {
        if samples.is_none() {
            fail("distribution bindings (`path ~ dist(...)`) require --samples <n>");
        }
        if !sweeps.is_empty() {
            fail("--sweep value sweeps cannot be combined with distribution sampling");
        }
    } else {
        if samples.is_some() {
            fail("--samples requires at least one `path ~ dist(...)` binding");
        }
        if seed.is_some() {
            fail("--seed requires --samples");
        }
    }

    Options {
        list,
        explain,
        no_cache,
        tags,
        scenario,
        sweeps,
        dists,
        samples,
        seed: seed.unwrap_or(0),
        format,
        out_dir,
        cache_dir,
        jobs,
        keys,
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
    if options.no_cache {
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

fn select(options: &Options) -> Vec<&'static Entry> {
    if options.keys.is_empty() {
        return experiments::with_tags(&options.tags);
    }
    let mut selected = Vec::new();
    for key in &options.keys {
        match experiments::find_entry(key) {
            Some(entry) => {
                // An explicitly named key that fails the tag filter is a
                // contradiction in the request, not something to drop
                // silently.
                if let Some(&missing) = options.tags.iter().find(|&&t| !entry.has_tag(t)) {
                    fail(&format!(
                        "experiment `{key}` does not carry tag `{missing}`"
                    ));
                }
                selected.push(entry);
            }
            None => fail(&format!("unknown experiment `{key}`")),
        }
    }
    selected
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
            "--jobs" => {
                let n = value_of("--jobs", &mut args);
                jobs = n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!("--jobs expects a positive integer, got `{n}`"))
                });
            }
            "--cache-capacity" => {
                let n = value_of("--cache-capacity", &mut args);
                capacity = n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!(
                        "--cache-capacity expects a positive integer, got `{n}`"
                    ))
                });
            }
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(value_of("--cache-dir", &mut args)));
            }
            // Queue depth 0 is allowed: a drill server that rejects every
            // multiplexed request with `overloaded`.
            "--queue-depth" => {
                let n = value_of("--queue-depth", &mut args);
                queue_depth = n.parse().ok().unwrap_or_else(|| {
                    fail(&format!(
                        "--queue-depth expects a non-negative integer, got `{n}`"
                    ))
                });
            }
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

/// `repro client`: build one protocol request from CLI-shaped flags, send
/// it, and stream the responses — artifacts to `--out` files (byte-identical
/// to one-shot `repro --json --out` artifacts) or raw to stdout. A server
/// rejection exits with the category's [`category_exit_code`].
fn client_main(args: &[String]) {
    let mut args = args.iter().cloned();
    let mut addr: Option<String> = None;
    let mut keys: Vec<String> = Vec::new();
    let mut tags: Vec<String> = Vec::new();
    let mut sets: Vec<(String, String)> = Vec::new();
    let mut sweeps: Vec<String> = Vec::new();
    let mut dists: Vec<String> = Vec::new();
    let mut samples: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut no_cache = false;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut stats = false;
    let mut hello = false;
    let mut shutdown = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr", &mut args)),
            "--hello" => hello = true,
            "--experiment" => keys.push(value_of("--experiment", &mut args)),
            "--tag" => tags.push(value_of("--tag", &mut args)),
            // As in one-shot mode, a `~` in --set/--sweep binds a
            // distribution; the text travels to the server verbatim, which
            // parses it with the same DistBinding grammar.
            "--set" => {
                let pair = value_of("--set", &mut args);
                if pair.contains('~') {
                    dists.push(pair);
                    continue;
                }
                let Some((key, value)) = pair.split_once('=') else {
                    fail(&format!("--set expects key=value, got `{pair}`"));
                };
                sets.push((key.trim().to_string(), value.trim().to_string()));
            }
            "--sweep" => {
                let spec = value_of("--sweep", &mut args);
                if spec.contains('~') {
                    dists.push(spec);
                    continue;
                }
                sweeps.push(spec);
            }
            "--samples" => {
                let n = value_of("--samples", &mut args);
                samples = Some(n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!("--samples expects a positive integer, got `{n}`"))
                }));
            }
            "--seed" => {
                let n = value_of("--seed", &mut args);
                seed = Some(n.parse().unwrap_or_else(|_| {
                    fail(&format!("--seed expects a non-negative integer, got `{n}`"))
                }));
            }
            "--jobs" => {
                let n = value_of("--jobs", &mut args);
                jobs = Some(n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(&format!("--jobs expects a positive integer, got `{n}`"))
                }));
            }
            "--no-cache" => no_cache = true,
            "--out" => out_dir = Some(std::path::PathBuf::from(value_of("--out", &mut args))),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            flag => fail(&format!("unknown client option `{flag}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("client requires --addr <host:port>"));

    let request = if hello {
        JsonValue::object([("op", JsonValue::from("hello"))])
    } else if stats {
        JsonValue::object([("op", JsonValue::from("stats"))])
    } else if shutdown {
        JsonValue::object([("op", JsonValue::from("shutdown"))])
    } else {
        let mut fields = vec![("op", JsonValue::from("run"))];
        if !keys.is_empty() {
            fields.push((
                "experiments",
                JsonValue::array(keys.iter().map(|k| JsonValue::from(k.as_str()))),
            ));
        }
        if !tags.is_empty() {
            fields.push((
                "tags",
                JsonValue::array(tags.iter().map(|t| JsonValue::from(t.as_str()))),
            ));
        }
        if !sets.is_empty() {
            fields.push((
                "set",
                JsonValue::Object(
                    sets.iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                        .collect(),
                ),
            ));
        }
        if !sweeps.is_empty() {
            fields.push((
                "sweep",
                JsonValue::array(sweeps.iter().map(|s| JsonValue::from(s.as_str()))),
            ));
        }
        if !dists.is_empty() {
            fields.push((
                "dists",
                JsonValue::array(dists.iter().map(|d| JsonValue::from(d.as_str()))),
            ));
        }
        if let Some(samples) = samples {
            fields.push(("samples", JsonValue::Integer(samples as u64)));
        }
        if let Some(seed) = seed {
            fields.push(("seed", JsonValue::Integer(seed)));
        }
        if let Some(jobs) = jobs {
            fields.push(("jobs", JsonValue::Integer(jobs as u64)));
        }
        if no_cache {
            fields.push(("no_cache", JsonValue::Bool(true)));
        }
        JsonValue::object(fields)
    };

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
    let selected = select(&options);

    if options.list {
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

    if selected.is_empty() {
        fail("no experiments match the given keys/tags");
    }

    // Monte-Carlo: distribution bindings sample the scenario instead of
    // enumerating it. One streaming run, one banded comparison report.
    if let Some(samples) = options.samples {
        let mc = MonteCarloMatrix::new(
            options.scenario.clone(),
            options.dists.clone(),
            samples,
            options.seed,
        )
        .unwrap_or_else(|e| fail(&e.to_string()));
        if options.explain {
            for line in mc::explain_lines(&selected, &mc, options.no_cache) {
                emit(line);
            }
            return;
        }
        let engine = one_shot_engine(&options);
        let config = McConfig {
            jobs: options.jobs,
            no_cache: options.no_cache,
        };
        let result = engine
            .run_mc(&selected, &mc, &config)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let report = render_mc_comparisons(&result.comparisons, &mc, options.format);
        emit_report(
            &options,
            &selected,
            "mc-comparison",
            &report,
            samples,
            [&result.run_counts, &result.disk_runs, &result.disk_hits],
        );
        return;
    }

    let matrix = ScenarioMatrix::new(options.scenario.clone(), options.sweeps.clone())
        .unwrap_or_else(|e| fail(&e.to_string()));
    let points: Vec<ScenarioPoint> = matrix.points().collect();
    let contexts: Vec<RunContext> = points
        .iter()
        .map(|p| {
            RunContext::try_from_overlay(p.overlay.clone()).unwrap_or_else(|e| fail(&e.to_string()))
        })
        .collect();

    if options.explain {
        for line in explain_lines(&selected, &points, options.no_cache) {
            emit(line);
        }
        return;
    }

    // The run/reuse accounting comes from the dependency plan (group
    // counts), so the footer is identical to what a resident engine would
    // print.
    let engine = one_shot_engine(&options);
    let config = GridConfig {
        jobs: options.jobs,
        no_cache: options.no_cache,
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
    let result = engine.run_grid(&selected, &points, &contexts, &config, render, |line| {
        emit(line);
    });

    // With an active sweep, diff every experiment's summary scalar across the
    // grid points into the comparison report.
    if matrix.is_sweep() {
        let comparisons = build_comparisons(&selected, &points, &result.scalars, &matrix)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let report = render_comparisons(&comparisons, &matrix, options.format);
        emit_report(
            &options,
            &selected,
            "comparison",
            &report,
            points.len(),
            [&result.run_counts, &result.disk_runs, &result.disk_hits],
        );
    }
}
