//! In-memory spans around the calls into each layer.
//!
//! A span is (id, parent, op, name, start, end). Spans of one benchmark
//! operation share its `op` number. Nothing is written until the run ends;
//! a layer's self time is its span minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub parent: Option<usize>,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next benchmark operation; later spans carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            op: self.op,
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Duration in milliseconds of the most recently closed span `name`.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns > 0)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Per span name: self time (duration minus children), total and calls.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let entry = table.entry(span.name.clone()).or_default();
            entry.self_ns += total.saturating_sub(child_ns[id]);
            entry.total_ns += total;
            entry.calls += 1;
        }
        table
    }

    /// Total milliseconds of all spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// The self-time table, widest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(String, SelfTime)> = self.self_times().into_iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let mut out = format!(
            "{:<34} {:>8} {:>12} {:>12}\n",
            "span", "calls", "self ms", "total ms"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<34} {:>8} {:>12.3} {:>12.3}\n",
                name,
                t.calls,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let table = t.self_times();
        let (outer, inner) = (table["outer"], table["inner"]);
        assert_eq!(outer.calls, 1);
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 1);
    }
}
