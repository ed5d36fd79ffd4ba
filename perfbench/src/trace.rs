//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded around calls into the program's public functions
//! (the program itself is not instrumented). Each span has a name, a
//! start and end offset from the recorder's creation, the span that
//! caused it, and — for spans that belong to one job — the job's id.
//! With recording off, `open`/`close` do nothing and read no clock, so
//! the untraced run times the same code with no recorder cost.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (an index into the recorder).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: Option<u64>,
}

/// The span store of one benchmark process.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: Option<u64>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0).filter(|&p| p != usize::MAX),
            job,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0].end_ns = end;
    }

    /// Per span name, in first-seen order: how many spans, their total
    /// duration, and their total self time (duration minus the part
    /// covered by direct children; a span's children never overlap, as
    /// every span is opened and closed on the benchmark's own thread).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
    /// "parent", "job"}` (`parent`/`job` are `null` when absent).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job),
            );
        }
        out
    }
}
