//! In-memory spans for the traced replay.
//!
//! A span records its name, start, end, parent and the request (group) it
//! belongs to. Spans stay in memory while the replay runs and are written
//! out as JSON lines once it ends, so writing them costs the measured
//! work nothing.

use std::fs;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

pub struct Span {
    pub name: &'static str,
    pub group: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans; `begin`/`end` nest, and the innermost open span is the
/// parent of the next one. A disabled tracer records nothing, so the same
/// replay can be timed with spans on and off.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u32,
    enabled: bool,
}

/// What `begin` returns while the tracer is disabled.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            enabled: true,
        }
    }

    /// Turns recording on or off; call it with no span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "spans must not straddle a switch");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request group: later spans share its identifier.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Ends span `id` (which must be the innermost open one).
    pub fn end(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Median duration in seconds of the spans named `name` (0 if none).
    pub fn median_s(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        crate::stats::median(&mut d)
    }

    /// Median over request groups of the summed duration, in seconds, of
    /// the spans named `name` in each group (0 if none).
    pub fn median_group_sum_s(&self, name: &str) -> f64 {
        let mut sums: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = (s.end_ns - s.start_ns) as f64 / 1e9;
            match sums.last_mut() {
                Some((g, sum)) if *g == s.group => *sum += d,
                _ => sums.push((s.group, d)),
            }
        }
        let mut d: Vec<f64> = sums.into_iter().map(|(_, d)| d).collect();
        crate::stats::median(&mut d)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id,
                "name": s.name,
                "group": s.group,
                "parent": s.parent.map_or(Value::Null, Value::from),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            });
            out.push_str(&serde_json::to_string(&line).expect("plain JSON"));
            out.push('\n');
        }
        fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
