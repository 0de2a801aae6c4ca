//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer's public functions: name, start, end, parent span, and a
//! request id shared by every span of one cell, sample or request. They
//! stay in memory until the run ends and are then written as JSON lines.
//! A disabled tracer records nothing, so the same replay code measures
//! both sides of the tracing overhead.

use cc_report::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `fingerprint` or `compute.fig10`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell, sample or request this span worked for.
    pub req: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// A single-threaded span recorder; parents come from the nesting of
/// [`Tracer::open`] / [`Tracer::close`] calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&self, name: &'static str, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let index = inner.spans.len();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        inner.stack.push(index);
        Some(index)
    }

    /// Closes the span `open` returned, optionally renaming it (a cache
    /// lookup learns whether it hit only once it returns).
    pub fn close(&self, span: Option<usize>, rename: Option<&'static str>) {
        let Some(index) = span else { return };
        let end_ns = self.now_ns(Instant::now());
        let mut inner = self.inner.borrow_mut();
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        let span = &mut inner.spans[index];
        span.end_ns = end_ns;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, req);
        let out = f();
        self.close(span, None);
        out
    }

    /// Records an already-finished span (used where times were captured
    /// on other threads, as in the load generator).
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(start),
            end_ns: self.now_ns(end).max(self.now_ns(start)),
            parent,
            req,
        };
        let mut inner = self.inner.borrow_mut();
        inner.spans.push(span);
        Some(inner.spans.len() - 1)
    }

    /// Removes and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: f64,
    /// Sum of their self times (duration minus the part covered by child
    /// spans), ns.
    pub self_ns: f64,
}

impl Agg {
    /// Mean duration per span, ns (0 when none was recorded).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }

    /// Mean self time per span, ns (0 when none was recorded).
    #[must_use]
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns / self.count as f64
        }
    }
}

/// Per-name [`Agg`]s, accumulated over any number of span sets.
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, Agg>);

impl Layers {
    /// Adds one span set (indices in `parent` refer into `spans`).
    pub fn add(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        for (span, kids) in spans.iter().zip(&mut children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let agg = self.0.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += duration as f64;
            agg.self_ns += duration.saturating_sub(covered(kids)) as f64;
        }
    }

    /// Totals for `name` (zero when no such span was recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> Agg {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Summed totals of every name starting with `prefix`.
    #[must_use]
    pub fn prefixed(&self, prefix: &str) -> Agg {
        self.0
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(Agg::default(), |acc, (_, a)| Agg {
                count: acc.count + a.count,
                total_ns: acc.total_ns + a.total_ns,
                self_ns: acc.self_ns + a.self_ns,
            })
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Writes `spans` as one JSON object per line.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = JsonValue::object([
            ("name", JsonValue::from(span.name)),
            ("start_ns", JsonValue::Integer(span.start_ns)),
            ("end_ns", JsonValue::Integer(span.end_ns)),
            (
                "parent",
                span.parent
                    .map_or(JsonValue::Null, |p| JsonValue::Integer(p as u64)),
            ),
            ("req", JsonValue::Integer(span.req)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        let mut layers = Layers::default();
        layers.add(&spans);
        assert_eq!(layers.get("root").self_ns, 50.0);
        assert_eq!(layers.get("a").self_ns, 30.0);
        assert_eq!(layers.get("missing"), Agg::default());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, || 5), 5);
        assert!(tracer.take().is_empty());
        let tracer = Tracer::new(true);
        tracer.span("outer", 1, || tracer.span("inner", 1, || ()));
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
