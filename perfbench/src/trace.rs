//! Spans recorded around the benchmark's calls into the library's public
//! functions. The library itself is not instrumented: every span starts
//! and ends in the benchmark's own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span + 1, or 0
/// at the top level.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `podem.generate`.
    pub name: &'static str,
    /// Enclosing span (index + 1), 0 for a root span.
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Opaque handle returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span recorder. A disabled tracer records nothing and does
/// not read the clock, so the same replay code runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().map_or(0, |&p| p as u32 + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in order");
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-name `(count, total seconds, self seconds)`, where self time is
    /// a span's duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// Renders the trace as JSON lines: one `summary` line per span name,
    /// then the spans themselves. Spans of a name recorded more than
    /// `keep_every` × 1000 times are thinned to every `keep_every`-th, so
    /// a per-die trace stays a few hundred kilobytes.
    pub fn to_jsonl(&self, keep_every: usize) -> String {
        let mut out = String::new();
        let summary = self.summary();
        for (name, (count, total, selft)) in &summary {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_s\":{total},\"self_s\":{selft}}}"
            );
        }
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = seen.entry(s.name).or_default();
            *n += 1;
            let dense = summary[s.name].0 as usize > keep_every * 1000;
            if dense && !(*n - 1).is_multiple_of(keep_every) {
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let s = t.summary();
        assert_eq!(s["inner"].0, 1);
        assert!(s["outer"].1 >= s["inner"].1);
        assert!(s["outer"].2 < s["outer"].1);
        assert!(t.to_jsonl(1).contains(r#""parent":1,"name":"inner""#));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.summary().is_empty());
    }
}
