//! In-memory span recorder for the traced run.
//!
//! A span covers one public call into a layer: its name, start and end
//! (nanoseconds since the recorder was created), its parent span, and the
//! trace id shared by every span of one workload's run. Spans stay in memory
//! and are written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub trace: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new trace id: the spans opened from now on belong to it.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration in
    /// milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end;
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Records an aggregate child of `parent`: work measured inside it as a
    /// sum of many short intervals, laid out from the parent's start.
    pub fn aggregate(&mut self, parent: usize, name: impl Into<String>, duration_ns: u64) {
        let start = self.spans[parent].start_ns;
        let end = (start + duration_ns).min(self.spans[parent].end_ns);
        self.spans.push(Span {
            name: name.into(),
            trace: self.spans[parent].trace,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
        });
    }

    /// Self time of span `id` in milliseconds: its duration minus the part
    /// of it that its children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = self.spans[id].start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[id].duration_ns().saturating_sub(covered) as f64 / 1e6
    }

    /// Per span name: count, total and self milliseconds, in first-seen order.
    pub fn profile(&self) -> Vec<(String, usize, f64, f64)> {
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let total = span.duration_ns() as f64 / 1e6;
            let own = self.self_ms(id);
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((span.name.clone(), 1, total, own)),
            }
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
