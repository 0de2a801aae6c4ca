//! `serve-mixed`: an open-loop load generator against a `repro serve`
//! daemon on loopback.
//!
//! One connection carries id-tagged protocol-v2 `run` frames from one
//! sender thread; one reader thread demultiplexes the replies. The mix is
//! 85% eight hot payloads (intern hit, cache hit, interned rendered
//! text), 10% `fig10` at a fresh `grid.intensity` (intern miss, cache
//! miss, model run) and 5% three-point `fig10` sweeps. Every request is
//! timed from the moment it was due, so a stall also charges the requests
//! queued behind it. Every served artifact is re-rendered in-process after
//! the run and compared byte for byte (by FNV digest).

use crate::batch::Kept;
use crate::measure::{Options, Setup, Setups, JOBS};
use crate::metrics::emit_layers;
use crate::trace::{write_spans, Tracer};
use crate::util::{cpu_seconds, fnv, fnv_extend, median, peak_rss_mb, quantile, secs, Report, Rng};
use cc_engine::artifact::{artifact_file_name, artifact_json, comparison_json};
use cc_engine::grid::build_comparisons;
use cc_engine::intern::DEFAULT_INTERN_CAPACITY;
use cc_engine::protocol::{parse_frame, RunRequest};
use cc_engine::{Format, ScenarioInterner};
use cc_report::{JsonValue, Scalar};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The eight hot payloads: experiment key plus `set` overrides.
pub const HOT: [(&str, &[(&str, &str)]); 8] = [
    ("fig10", &[]),
    ("fig10", &[("grid.intensity", "50")]),
    ("fig13", &[]),
    ("fig02", &[("grid.intensity", "200")]),
    ("fig11", &[("fleet.pue", "1.2")]),
    ("ext-facility", &[("fleet.growth", "1.3")]),
    ("ext-hetero", &[]),
    ("table3", &[]),
];

/// One request of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Hot payload `HOT[i]`.
    Hot(usize),
    /// `fig10` at a fresh `grid.intensity`.
    Fresh(String),
    /// A three-point `fig10` sweep over fresh `grid.intensity` values.
    Sweep([String; 3]),
}

fn fresh_intensity(rng: &mut Rng) -> String {
    format!("{:.3}", 20.0 + rng.unit() * 880.0)
}

/// The first `n` requests of the mix for `seed`.
#[must_use]
pub fn mix(seed: u64, n: usize) -> Vec<Kind> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            if u < 0.85 {
                Kind::Hot(rng.below(HOT.len() as u64) as usize)
            } else if u < 0.95 {
                Kind::Fresh(fresh_intensity(&mut rng))
            } else {
                Kind::Sweep([(); 3].map(|()| fresh_intensity(&mut rng)))
            }
        })
        .collect()
}

impl Kind {
    /// The request as the protocol's `run` payload.
    #[must_use]
    pub fn run_request(&self) -> RunRequest {
        let (key, sets, sweeps) = match self {
            Self::Hot(i) => (
                HOT[*i].0,
                HOT[*i]
                    .1
                    .iter()
                    .map(|&(p, v)| (p.into(), v.into()))
                    .collect(),
                Vec::new(),
            ),
            Self::Fresh(v) => (
                "fig10",
                vec![("grid.intensity".into(), v.clone())],
                Vec::new(),
            ),
            Self::Sweep(vs) => (
                "fig10",
                Vec::new(),
                vec![format!("grid.intensity={}", vs.join(","))],
            ),
        };
        RunRequest {
            keys: vec![key.to_string()],
            sets,
            sweeps,
            ..RunRequest::default()
        }
    }

    /// The wire frame for this request under `id`.
    #[must_use]
    pub fn line(&self, id: u64) -> String {
        let run = self.run_request();
        let mut fields = vec![
            ("op", JsonValue::from("run")),
            ("id", JsonValue::Integer(id)),
            (
                "experiments",
                JsonValue::array(run.keys.iter().map(|k| JsonValue::from(k.as_str()))),
            ),
        ];
        if !run.sets.is_empty() {
            fields.push((
                "set",
                JsonValue::object(
                    run.sets
                        .iter()
                        .map(|(p, v)| (p.clone(), JsonValue::from(v.as_str()))),
                ),
            ));
        }
        if !run.sweeps.is_empty() {
            fields.push((
                "sweep",
                JsonValue::array(run.sweeps.iter().map(|s| JsonValue::from(s.as_str()))),
            ));
        }
        let mut line = JsonValue::object(fields).render();
        line.push('\n');
        line
    }

    /// Digests of the artifact (and comparison) lines a correct server
    /// sends for this request, without their routing id, rendered
    /// in-process from an uncached run.
    ///
    /// # Errors
    ///
    /// A request that does not resolve, or a comparison that cannot be
    /// built.
    pub fn expected(&self) -> Result<Vec<u64>, String> {
        let run = self.run_request().resolve().map_err(|e| e.to_string())?;
        let sweeping = run.points.len() > 1;
        let line =
            |fields: Vec<(&str, JsonValue)>| fnv(JsonValue::object(fields).render().as_bytes());
        let mut digests = Vec::new();
        let mut scalars: Vec<Vec<Scalar>> = Vec::new();
        for entry in &run.entries {
            let experiment = entry.build();
            for (point, context) in run.points.iter().zip(&run.contexts) {
                let output = experiment.run(context);
                let point = sweeping.then_some(point);
                digests.push(line(vec![
                    ("type", JsonValue::from("artifact")),
                    ("key", JsonValue::from(entry.key)),
                    (
                        "name",
                        JsonValue::from(artifact_file_name(entry.key, point, Format::Json)),
                    ),
                    (
                        "artifact",
                        artifact_json(entry, experiment.as_ref(), &output, context, point),
                    ),
                ]));
                scalars.push(output.scalars);
            }
        }
        if run.matrix.is_sweep() {
            let comparisons = build_comparisons(&run.entries, &run.points, &scalars, &run.matrix)
                .map_err(|e| e.to_string())?;
            digests.push(line(vec![
                ("type", JsonValue::from("comparison")),
                ("name", JsonValue::from("comparison.json")),
                ("comparison", comparison_json(&comparisons, &run.matrix)),
            ]));
        }
        Ok(digests)
    }
}

/// Closed-loop blocks the capacity phase is split into.
const CAPACITY_BLOCKS: usize = 5;

/// Load shape. Open-loop phases run at fixed rates; the capacity phase is
/// a closed loop with a fixed window.
#[derive(Clone, Debug)]
pub struct Config {
    /// The `lo` rate, requests/s.
    pub lo_rps: f64,
    /// The `hi` rate, requests/s.
    pub hi_rps: f64,
    /// Seconds per `lo` and `hi` phase.
    pub phase_s: f64,
    /// Requests in the capacity phase.
    pub sat_requests: usize,
    /// In-flight requests in the capacity phase.
    pub window: usize,
    /// Extra ladder rates, requests/s, tried in order after `lo` and `hi`.
    pub ladder: Vec<f64>,
    /// Seconds per extra ladder rung.
    pub rung_s: f64,
    /// In-flight requests at which an open-loop sender waits (below the
    /// server's queue depth, so the generator never provokes an
    /// `overloaded` refusal itself).
    pub backlog_limit: usize,
    /// The p99 latency a ladder rung must meet, µs.
    pub p99_limit_us: f64,
    /// Sequential hot requests timed for `server.rtt_hit_us` (traced run).
    pub rtt_probes: usize,
}

impl Config {
    /// The measured configuration for a run of `seconds`.
    #[must_use]
    pub fn for_seconds(seconds: f64) -> Self {
        Self {
            lo_rps: 2_000.0,
            hi_rps: 8_000.0,
            phase_s: 0.25 * seconds,
            sat_requests: (6_000.0 * seconds) as usize,
            window: 32,
            ladder: vec![4_000.0, 16_000.0, 32_000.0],
            rung_s: 0.05 * seconds,
            backlog_limit: 48,
            p99_limit_us: 20_000.0,
            rtt_probes: 200,
        }
    }

    /// A few dozen requests, for the smoke tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            lo_rps: 400.0,
            hi_rps: 800.0,
            phase_s: 0.05,
            sat_requests: 40,
            window: 8,
            ladder: vec![1_600.0],
            rung_s: 0.02,
            backlog_limit: 48,
            p99_limit_us: 50_000.0,
            rtt_probes: 5,
        }
    }
}

/// A `repro serve` child process; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `repro serve --addr 127.0.0.1:0 --jobs 2` and waits for
    /// its `listening on` line.
    ///
    /// # Errors
    ///
    /// The binary does not start or never reports its address.
    pub fn spawn(repro: &Path, log: &Path) -> Result<Self, String> {
        let mut child = Command::new(repro)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &JOBS.to_string(),
                "--log",
            ])
            .arg(log)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not report an address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit after a `shutdown`, killing it if it
    /// has not exited within five seconds.
    ///
    /// # Errors
    ///
    /// The daemon had to be killed or exited unsuccessfully.
    pub fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the reader saw for one request id.
#[derive(Clone, Debug, Default)]
pub struct Resp {
    /// Digests of the artifact and comparison payloads, in arrival order.
    pub digests: Vec<u64>,
    /// When the terminal line arrived.
    pub done: Option<Instant>,
    /// The error category, for an `error` reply.
    pub error: Option<String>,
}

/// The FNV digest of the payload after `field` in a response line.
/// The digest of a response line without its `"id":<n>` routing field:
/// the bytes an untagged response would carry.
fn untagged_digest(line: &str) -> u64 {
    let Some(at) = line.find(",\"id\":") else {
        return fnv(line.as_bytes());
    };
    let rest = &line[at + 6..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    fnv_extend(fnv(&line.as_bytes()[..at]), &rest.as_bytes()[end..])
}

fn numeric_id(line: &str) -> Option<usize> {
    let at = line.find("\"id\":")? + 5;
    let digits: &str = &line[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

fn error_category(line: &str) -> String {
    JsonValue::parse(line)
        .ok()
        .and_then(|v| v.get("error").and_then(|e| e.as_str()).map(str::to_string))
        .unwrap_or_else(|| "unparseable".into())
}

/// The reader thread: demultiplexes replies by id until the connection
/// closes. Terminal lines bump `completed` and wake the sender; lines
/// without a numeric id (hello, stats, bye) go to `control`.
fn reader(
    stream: TcpStream,
    completed: Arc<AtomicU64>,
    sender: std::thread::Thread,
    control: mpsc::Sender<String>,
) -> Vec<Resp> {
    let mut resps: Vec<Resp> = Vec::new();
    let mut input = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let text = line.trim_end();
        let Some(id) = numeric_id(text) else {
            let _ = control.send(text.to_string());
            continue;
        };
        if resps.len() <= id {
            resps.resize(id + 1, Resp::default());
        }
        let resp = &mut resps[id];
        if text.starts_with("{\"type\":\"artifact\"")
            || text.starts_with("{\"type\":\"comparison\"")
        {
            resp.digests.push(untagged_digest(text));
        } else {
            if text.starts_with("{\"type\":\"error\"") {
                resp.error = Some(error_category(text));
            }
            resp.done = Some(Instant::now());
            completed.fetch_add(1, Ordering::SeqCst);
            sender.unpark();
        }
    }
    resps
}

/// One sent request: id, due time, and when its write started and ended.
#[derive(Clone, Copy, Debug)]
struct Sent {
    id: u64,
    due: Instant,
    start: Instant,
    end: Instant,
}

/// One phase's requests and timing.
struct Phase {
    name: &'static str,
    rate: f64,
    sent: Vec<Sent>,
    backlogged: bool,
    start: Instant,
    end: Instant,
}

/// The client side of one connection.
struct Client {
    stream: TcpStream,
    completed: Arc<AtomicU64>,
    control: mpsc::Receiver<String>,
    reader: Option<JoinHandle<Vec<Resp>>>,
    /// Every frame this connection may send, rendered before any phase.
    lines: Vec<String>,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr, kinds: &[Kind]) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        read_half
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let completed = Arc::new(AtomicU64::new(0));
        let (tx, control) = mpsc::channel();
        let reader = {
            let completed = Arc::clone(&completed);
            let me = std::thread::current();
            std::thread::spawn(move || reader(read_half, completed, me, tx))
        };
        Ok(Self {
            stream,
            completed,
            control,
            reader: Some(reader),
            lines: kinds
                .iter()
                .enumerate()
                .map(|(id, k)| k.line(id as u64))
                .collect(),
            next_id: 0,
        })
    }

    fn in_flight(&self) -> u64 {
        self.next_id - self.completed.load(Ordering::SeqCst)
    }

    /// Sends the next request of the mix, due at `due`.
    fn send(&mut self, due: Instant) -> Result<Sent, String> {
        let id = self.next_id;
        let line = self
            .lines
            .get(id as usize)
            .ok_or("request plan exhausted")?;
        let start = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.next_id += 1;
        Ok(Sent {
            id,
            due,
            start,
            end: Instant::now(),
        })
    }

    /// Waits until every sent request has its terminal line.
    fn drain(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.in_flight() > 0 {
            if Instant::now() > deadline {
                return Err(format!("{} requests never completed", self.in_flight()));
            }
            std::thread::park_timeout(Duration::from_millis(1));
        }
        Ok(())
    }

    /// An inline control request (`hello`, `stats`, `shutdown`); returns
    /// its reply line.
    fn control(&mut self, op: &str) -> Result<String, String> {
        let line = format!("{{\"op\":\"{op}\",\"id\":\"{op}\"}}\n");
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("{op}: {e}"))?;
        self.control
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| format!("{op}: no reply ({e})"))
    }

    /// An open-loop phase: requests due at `rate` for `seconds`, sent on
    /// schedule whatever the replies do. Only when `limit` requests are in
    /// flight does the sender wait (the server's queue would refuse more);
    /// the wait still counts in the late requests' latency. The phase has a
    /// growing backlog when its last request went out more than a tenth of
    /// the phase late.
    fn open_loop(
        &mut self,
        name: &'static str,
        rate: f64,
        seconds: f64,
        limit: usize,
    ) -> Result<Phase, String> {
        let planned = (rate * seconds).round().max(1.0) as usize;
        let start = Instant::now();
        let mut sent = Vec::with_capacity(planned);
        for i in 0..planned {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            while self.in_flight() >= limit as u64 {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            sent.push(self.send(due)?);
        }
        let backlogged = sent
            .last()
            .is_some_and(|s: &Sent| secs(s.start - s.due) > 0.1 * seconds);
        self.drain()?;
        Ok(Phase {
            name,
            rate,
            sent,
            backlogged,
            start,
            end: Instant::now(),
        })
    }

    /// A closed-loop phase: `n` requests, at most `window` in flight.
    fn closed_loop(
        &mut self,
        name: &'static str,
        n: usize,
        window: usize,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let mut sent = Vec::with_capacity(n);
        for _ in 0..n {
            while self.in_flight() >= window as u64 {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            let now = Instant::now();
            sent.push(self.send(now)?);
        }
        self.drain()?;
        Ok(Phase {
            name,
            rate: 0.0,
            sent,
            backlogged: false,
            start,
            end: Instant::now(),
        })
    }

    /// Closes the connection after `shutdown` and returns every reply.
    fn finish(mut self) -> Result<Vec<Resp>, String> {
        let bye = self.control("shutdown")?;
        if !bye.starts_with("{\"type\":\"bye\"") {
            return Err(format!("shutdown: unexpected reply `{bye}`"));
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        self.reader
            .take()
            .ok_or("reader already joined")?
            .join()
            .map_err(|_| "reader thread panicked".to_string())
    }
}

/// Latency and lag of one phase, from the replies.
#[derive(Clone, Debug, Default)]
struct PhaseStats {
    ok: usize,
    failed: usize,
    p50_us: f64,
    p99_us: f64,
    lag_p99_us: f64,
}

fn phase_stats(phase: &Phase, resps: &[Resp]) -> PhaseStats {
    let mut latencies = Vec::with_capacity(phase.sent.len());
    let mut lags = Vec::with_capacity(phase.sent.len());
    let mut failed = 0;
    for s in &phase.sent {
        lags.push(secs(s.start.saturating_duration_since(s.due)) * 1e6);
        match resps.get(s.id as usize) {
            Some(Resp {
                done: Some(done),
                error: None,
                ..
            }) => latencies.push(secs(done.saturating_duration_since(s.due)) * 1e6),
            _ => failed += 1,
        }
    }
    PhaseStats {
        ok: latencies.len(),
        failed,
        p50_us: median(&latencies),
        p99_us: quantile(&latencies, 0.99),
        lag_p99_us: quantile(&lags, 0.99),
    }
}

/// The parsed `stats` reply.
fn stats_values(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("stats: {e:?}"))?;
    let stats = value
        .get("stats")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("stats: unexpected reply `{line}`"))?;
    Ok(stats
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect())
}

/// Runs the full load against `addr`, shuts the server down, and checks
/// every reply. `rss_pid` is the process whose peak RSS is reported
/// (`None`: this process). With `trace`, also takes the per-layer
/// measurements and writes the client spans to `trace`.
#[must_use]
pub fn run_against(
    addr: SocketAddr,
    rss_pid: Option<u32>,
    cfg: &Config,
    opts: &Options,
    setup: Setup<'_>,
    trace: Option<&Path>,
) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(trace.is_some());
    let mut setups = Setups::new(setup);
    let result = drive(&mut report, addr, rss_pid, cfg, opts, &tracer, &mut setups);
    let setup_s = setups.median(&mut report);
    let mut values = result.unwrap_or_else(|e| {
        report.attempted = report.attempted.max(1);
        report.problem(0, e);
        BTreeMap::new()
    });
    if let Some(path) = trace {
        let record = Instant::now();
        let spans = tracer.take();
        per_layer_micro(&mut report, &mut values, opts);
        values.insert("fail_frac".into(), report.fail_frac());
        emit_layers(&mut report, &values);
        match write_spans(path, &spans) {
            Ok(()) => report.note(format!("trace {} spans -> {}", spans.len(), path.display())),
            Err(e) => report.problem(0, format!("cannot write {}: {e}", path.display())),
        }
        report.note(format!("span write {} ms", secs(record.elapsed()) * 1e3));
    } else {
        report.metric("setup_s", setup_s, "s");
        for (name, unit) in [("work_per_s", "1/s"), ("peak_rss_mb", "MB")] {
            report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
    report
}

fn drive(
    report: &mut Report,
    addr: SocketAddr,
    rss_pid: Option<u32>,
    cfg: &Config,
    opts: &Options,
    tracer: &Tracer,
    setups: &mut Setups<'_>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut values = BTreeMap::new();
    let open = |rate: f64, seconds: f64| (rate * seconds).round().max(1.0) as usize;
    let total = open(cfg.lo_rps, cfg.phase_s)
        + open(cfg.hi_rps, cfg.phase_s)
        + cfg.sat_requests
        + if tracer.enabled() { cfg.rtt_probes } else { 0 }
        + cfg
            .ladder
            .iter()
            .map(|&r| open(r, cfg.rung_s))
            .sum::<usize>();
    let kinds = mix(opts.seed, total);
    let mut client = Client::connect(addr, &kinds)?;
    let hello = client.control("hello")?;
    if !hello.starts_with("{\"type\":\"hello\"") {
        return Err(format!("hello: unexpected reply `{hello}`"));
    }
    // One set-up is timed after each phase, while the measured daemon idles.
    let lo = client.open_loop("lo", cfg.lo_rps, cfg.phase_s, cfg.backlog_limit)?;
    setups.time(report);
    let hi = client.open_loop("hi", cfg.hi_rps, cfg.phase_s, cfg.backlog_limit)?;
    setups.time(report);
    // Capacity in blocks, so one slow stretch moves one block, not the
    // reported median.
    let cpu_before = cpu_seconds(rss_pid);
    let mut blocks = Vec::new();
    for _ in 0..CAPACITY_BLOCKS {
        let block = cfg.sat_requests / CAPACITY_BLOCKS;
        blocks.push(client.closed_loop("capacity", block, cfg.window)?);
        setups.time(report);
    }
    let cpu = cpu_seconds(rss_pid)
        .zip(cpu_before)
        .map(|(after, before)| after - before)
        .ok_or("cannot read the server's CPU time")?;
    let stats = stats_values(&client.control("stats")?)?;
    let before_ladder = client.next_id;
    let rtt = if tracer.enabled() {
        Some(client.closed_loop("rtt", cfg.rtt_probes, 1)?)
    } else {
        None
    };
    let mut rungs = Vec::new();
    for &rate in &cfg.ladder {
        rungs.push(client.open_loop("rung", rate, cfg.rung_s, cfg.backlog_limit)?);
        setups.time(report);
    }
    let rss = peak_rss_mb(rss_pid).unwrap_or(0.0);
    let resps = client.finish()?;

    // Correctness, outside every timed phase: each request must have
    // completed without error and carry exactly the payloads an
    // in-process uncached run renders.
    let mut hot_expected: BTreeMap<usize, Result<Vec<u64>, String>> = BTreeMap::new();
    let mut overloaded = 0u64;
    let phases: Vec<&Phase> = [&lo, &hi]
        .into_iter()
        .chain(&blocks)
        .chain(&rtt)
        .chain(&rungs)
        .collect();
    for phase in &phases {
        report.attempted += phase.sent.len() as u64;
        for s in &phase.sent {
            let kind = &kinds[s.id as usize];
            let resp = resps.get(s.id as usize).cloned().unwrap_or_default();
            let expected = match kind {
                Kind::Hot(i) => hot_expected
                    .entry(*i)
                    .or_insert_with(|| kind.expected())
                    .clone(),
                _ => kind.expected(),
            };
            let verdict = match (&resp.error, resp.done, expected) {
                (Some(category), _, _) => {
                    overloaded += u64::from(category == "overloaded");
                    Some(format!("request {}: error `{category}`", s.id))
                }
                (None, None, _) => Some(format!("request {}: no terminal line", s.id)),
                (None, Some(_), Err(e)) => Some(format!("request {}: reference failed: {e}", s.id)),
                (None, Some(_), Ok(e)) if e != resp.digests => Some(format!(
                    "request {}: served bytes differ from the in-process render",
                    s.id
                )),
                _ => None,
            };
            if let Some(message) = verdict {
                report.failed += 1;
                if report.problems.len() < 8 {
                    report.problems.push(message);
                }
            }
        }
    }
    // The stats op counts every run request and resolves each payload
    // through the interner exactly once.
    let runs_before = before_ladder as f64;
    let stat = |k: &str| stats.get(k).copied().unwrap_or(-1.0);
    if stat("requests") != runs_before || stat("intern_hits") + stat("intern_misses") != runs_before
    {
        report.problem(
            0,
            format!("stats op disagrees with {runs_before} requests sent: {stats:?}"),
        );
    }

    let (lo_s, hi_s) = (phase_stats(&lo, &resps), phase_stats(&hi, &resps));
    // Capacity per CPU-second of the server: a request's CPU cost does not
    // depend on how fast the host wakes idle threads, which swings the
    // wall-clock rate by a third from one run to the next on a shared host.
    let served: usize = blocks.iter().map(|b| phase_stats(b, &resps).ok).sum();
    let per_cpu_s = served as f64 / cpu.max(0.01);
    values.insert("work_per_s".into(), per_cpu_s);
    let rates: Vec<f64> = blocks
        .iter()
        .map(|b| phase_stats(b, &resps).ok as f64 / secs(b.end - b.start))
        .collect();
    let capacity = median(&rates);
    values.insert("server.capacity_rps".into(), capacity);
    values.insert("peak_rss_mb".into(), rss);
    // The ladder: lo, hi and the extra rungs in rate order; the highest
    // rate whose every lower rung also passed.
    let mut ladder: Vec<(f64, &Phase, PhaseStats)> =
        vec![(lo.rate, &lo, lo_s.clone()), (hi.rate, &hi, hi_s.clone())];
    ladder.extend(rungs.iter().map(|p| (p.rate, p, phase_stats(p, &resps))));
    ladder.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut max_rps = 0.0;
    for (rate, phase, s) in &ladder {
        let pass = !phase.backlogged && s.failed == 0 && s.p99_us <= cfg.p99_limit_us;
        report.note(format!(
            "rung {rate} req/s: sent {}, p50 {:.1} us, p99 {:.1} us, lag p99 {:.1} us, {}",
            phase.sent.len(),
            s.p50_us,
            s.p99_us,
            s.lag_p99_us,
            if pass { "meets limit" } else { "misses limit" }
        ));
        if !pass {
            break;
        }
        max_rps = *rate;
    }
    let sent: usize = phases.iter().map(|p| p.sent.len()).sum();
    let lag = lo
        .sent
        .iter()
        .chain(&hi.sent)
        .map(|s| secs(s.start.saturating_duration_since(s.due)) * 1e6)
        .collect::<Vec<_>>();
    for (name, value, unit) in [
        ("lat_p50_us.lo", lo_s.p50_us, "us"),
        ("lat_p99_us.lo", lo_s.p99_us, "us"),
        ("lat_p50_us.hi", hi_s.p50_us, "us"),
        ("lat_p99_us.hi", hi_s.p99_us, "us"),
        ("max_rps", max_rps, "1/s"),
        ("loadgen.lag_p99_us", quantile(&lag, 0.99), "us"),
        ("loadgen.sent", sent as f64, "count"),
        ("server.overloaded", overloaded as f64, "count"),
    ] {
        values.insert(name.into(), value);
        report.note(format!("{name} {value} {unit}"));
    }
    report.note(format!(
        "requests_per_cpu_s {per_cpu_s} 1/s ({served} requests, {cpu} s server CPU)"
    ));
    report.note(format!(
        "requests_per_s {capacity} 1/s (median of {CAPACITY_BLOCKS} blocks {rates:?}, window {})",
        cfg.window
    ));
    report.note(format!("samples lo n={} hi n={}", lo_s.ok, hi_s.ok));
    for (k, v) in &stats {
        values.insert(format!("stats.{k}"), *v);
    }
    let lookups = stat("intern_hits") + stat("intern_misses");
    values.insert(
        "intern.hit_ratio".into(),
        stat("intern_hits") / lookups.max(1.0),
    );
    if tracer.enabled() {
        if let Some(rtt) = &rtt {
            let rtts: Vec<f64> = rtt
                .sent
                .iter()
                .filter(|s| matches!(kinds[s.id as usize], Kind::Hot(_)))
                .filter_map(|s| {
                    resps
                        .get(s.id as usize)?
                        .done
                        .map(|d| secs(d - s.start) * 1e6)
                })
                .collect();
            values.insert("server.rtt_hit_us".into(), median(&rtts));
        }
        // The client takes the same timestamps untraced; tracing adds only
        // turning them into spans, measured against the phases' wall.
        let t = Instant::now();
        record_spans(tracer, &phases, &resps);
        let wall: f64 = phases.iter().map(|p| secs(p.end - p.start)).sum();
        values.insert(
            "trace.overhead_pct".into(),
            secs(t.elapsed()) / wall * 100.0,
        );
    }
    Ok(values)
}

/// Client spans: one per phase, one per request (due → terminal line)
/// with `send` and `wait` children, all sharing the request id.
fn record_spans(tracer: &Tracer, phases: &[&Phase], resps: &[Resp]) {
    for phase in phases {
        let parent = tracer.record(phase.name, 0, phase.start, phase.end, None);
        for s in &phase.sent {
            let done = resps
                .get(s.id as usize)
                .and_then(|r| r.done)
                .unwrap_or(s.end);
            let request = tracer.record("request", s.id, s.due, done, parent);
            tracer.record("send", s.id, s.start, s.end, request);
            tracer.record("wait", s.id, s.end, done, request);
        }
    }
}

/// In-process timings of the layers a served request passes through
/// before the engine: frame parsing, request resolution, interning, the
/// disk cache and artifact writes.
fn per_layer_micro(report: &mut Report, values: &mut BTreeMap<String, f64>, opts: &Options) {
    let kinds = mix(opts.seed, 2_000);
    let lines: Vec<String> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| k.line(i as u64))
        .collect();
    let time_us = |f: &mut dyn FnMut() -> bool| {
        let t = Instant::now();
        let ok = f();
        (secs(t.elapsed()) * 1e6, ok)
    };
    let mut parse = Vec::new();
    let mut resolve = Vec::new();
    for line in &lines {
        let (us, ok) = time_us(&mut || parse_frame(line.trim_end()).is_ok());
        parse.push(us);
        let run = parse_frame(line.trim_end())
            .ok()
            .and_then(|f| match f.request {
                cc_engine::protocol::Request::Run(run) => Some(run),
                _ => None,
            });
        let Some(run) = run else {
            report.problem(1, format!("cannot parse own frame `{line}`"));
            continue;
        };
        let (us, resolved) = time_us(&mut || run.resolve().is_ok());
        resolve.push(us);
        if !(ok && resolved) {
            report.problem(1, format!("frame `{}` does not resolve", line.trim_end()));
        }
    }
    values.insert("protocol.parse_us".into(), median(&parse));
    values.insert("protocol.resolve_us".into(), median(&resolve));

    let interner = ScenarioInterner::new(DEFAULT_INTERN_CAPACITY);
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for kind in &kinds {
        let run = kind.run_request();
        let (before, _) = interner.counters();
        let (us, _) = time_us(&mut || interner.resolve(&run.sets, &run.dists).is_ok());
        let (after, _) = interner.counters();
        if after > before { &mut hit } else { &mut miss }.push(us);
    }
    values.insert("intern.resolve_hit_us".into(), median(&hit));
    values.insert("intern.resolve_miss_us".into(), median(&miss));

    // The hot payloads' outputs through the disk cache, and their
    // artifacts written as `repro client --out` would.
    let mut kept = Kept::default();
    for hot in 0..HOT.len() {
        let Ok(resolved) = Kind::Hot(hot).run_request().resolve() else {
            continue;
        };
        for entry in &resolved.entries {
            let experiment = entry.build();
            let context = &resolved.contexts[0];
            let output = Arc::new(experiment.run(context));
            let fingerprint = entry.fingerprint(&resolved.points[0].overlay);
            kept.artifacts
                .push(artifact_json(entry, experiment.as_ref(), &output, context, None).render());
            kept.outputs.push((entry.key, fingerprint, output));
        }
    }
    crate::measure::disk_and_write(report, values, &kept, &opts.scratch);
}

/// One daemon set-up: spawn `repro serve` and wait for its first `hello`
/// reply (then shut it down, untimed). Seconds.
fn daemon_setup(repro: &Path, log: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(repro, log)?;
    let mut client = Client::connect(daemon.addr, &[])?;
    client.control("hello")?;
    let ready = secs(start.elapsed());
    client.finish()?;
    daemon.wait()?;
    Ok(ready)
}

/// The measured run against a `repro serve` daemon, with daemon set-ups
/// timed between its phases.
#[must_use]
pub fn run_daemon(repro: &Path, cfg: &Config, opts: &Options, trace: Option<&Path>) -> Report {
    let log = opts.scratch.join("serve.log");
    let daemon = match Daemon::spawn(repro, &log) {
        Ok(d) => d,
        Err(e) => return Report::failure(e),
    };
    let mut setup = || daemon_setup(repro, &log);
    let mut report = run_against(
        daemon.addr,
        Some(daemon.pid()),
        cfg,
        opts,
        &mut setup,
        trace,
    );
    if let Err(e) = daemon.wait() {
        report.problem(0, e);
    }
    report
}
