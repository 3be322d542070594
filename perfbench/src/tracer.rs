//! In-memory spans and counters for the traced run.
//!
//! A span has a name, a start, an end and the id of the span that was open
//! when it began; every span of one run carries the run's identifier.
//! Counters attach to the span open when they are recorded. Nothing is
//! written until [`Tracer::dump`] at the end of the run. A disabled tracer
//! ([`Tracer::off`]) records nothing and never reads the clock, so the
//! untraced end-to-end run pays one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Layer or stage name.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A named value recorded at a span boundary.
#[derive(Debug, Clone)]
pub struct Counter {
    /// The span open when the counter was recorded.
    pub span: Option<usize>,
    /// Counter name.
    pub name: &'static str,
    /// Counter value.
    pub value: f64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a span stays open until it is passed to Tracer::exit"]
pub struct SpanId(Option<usize>);

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    origin: Option<Instant>,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            run: String::new(),
            origin: None,
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; `run` identifies every span it records.
    pub fn on(run: String) -> Tracer {
        Tracer { run, origin: Some(Instant::now()), ..Tracer::off() }
    }

    /// True when the tracer records.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let Some(origin) = self.origin else { return SpanId(None) };
        let id = self.spans.len();
        let start_ns = Self::now_ns(origin);
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span opened inside it and left open).
    pub fn exit(&mut self, span: SpanId) {
        let (Some(origin), Some(id)) = (self.origin, span.0) else { return };
        let end_ns = Self::now_ns(origin);
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// host seconds it took (measured whether or not the tracer records).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.enter(name);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.exit(span);
        (out, secs)
    }

    /// Records a counter at the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled() {
            self.counters.push(Counter { span: self.open.last().copied(), name, value });
        }
    }

    /// Records a counter whose value is only computed when the tracer
    /// records (for readings that cost a system call).
    pub fn count_with(&mut self, name: &'static str, value: impl FnOnce() -> f64) {
        if self.enabled() {
            self.count(name, value());
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every counter recorded so far, in recording order.
    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |total, s| total + s.secs())
    }

    /// The last value of the counter named `name`, if any.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.iter().rev().find(|c| c.name == name).map(|c| c.value)
    }

    /// Self time of span `id` in nanoseconds: its duration minus the part of
    /// it that its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Total and self seconds per span name, in first-appearance order.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
        for span in &self.spans {
            let total = span.secs();
            let own = self.self_ns(span.id) as f64 / 1e9;
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(row) => {
                    row.1 += total;
                    row.2 += own;
                }
                None => out.push((span.name, total, own)),
            }
        }
        out
    }

    /// Renders every span and counter as JSON lines, one object per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.run,
                span.id,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.name,
                span.start_ns,
                span.end_ns,
                self.self_ns(span.id),
            );
        }
        for counter in &self.counters {
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"counter\":\"{}\",\"span\":{},\"value\":{}}}",
                self.run,
                counter.name,
                counter.span.map_or("null".to_string(), |p| p.to_string()),
                counter.value,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on("test".to_string());
        let root = t.enter("root");
        let child = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(child);
        t.count("n", 3.0);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(t.self_ns(1), spans[1].end_ns - spans[1].start_ns);
        assert_eq!(
            t.self_ns(0),
            (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns)
        );
        assert_eq!(t.counter("n"), Some(3.0));
        assert_eq!(t.counters()[0].span, Some(0));
        assert!(t.dump().lines().all(|l| l.contains("\"run\":\"test\"")));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("x");
        t.count("n", 1.0);
        t.exit(s);
        assert!(t.spans().is_empty() && t.counters().is_empty());
        assert_eq!(t.stage("y", || 4), 4);
    }
}
