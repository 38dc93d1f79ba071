//! The traced run's span recorder: one span per public call into a layer,
//! kept in memory and written out as JSONL when the benchmark exits.
//!
//! A span records its name, layer, start, end (ns since the recorder was
//! made), its parent, and the iteration it belongs to (the shared
//! identifier of one closed-loop request). With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Starts a new iteration: later spans carry its index. Returns the
    /// index of the iteration's first span, for [`Tracer::since`].
    pub fn begin_iteration(&mut self, iteration: usize) -> usize {
        self.iteration = iteration;
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` in `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The number of spans recorded so far: the index the next one gets.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded from index `first` on.
    pub fn since(&self, first: usize) -> &[Span] {
        &self.spans[first..]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"iteration\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.iteration, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Sum of span durations named exactly `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover, summed by layer. `spans` must be a whole iteration
/// (every parent of a span in the slice is in the slice or outside it
/// entirely, as [`Tracer::since`] guarantees).
pub fn self_ns_by_layer(spans: &[Span], first_id: usize) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first_id)) {
            if p < spans.len() {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        *by_layer.entry(s.layer).or_insert(0) += s.ns().saturating_sub(covered(kids));
    }
    by_layer
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,30) and [20,50) (overlapping:
        // union 40) and a grandchild [12,14) inside the first.
        let spans = vec![
            span("perfbench", 0, 100, None),
            span("core", 10, 30, Some(0)),
            span("radio", 20, 50, Some(0)),
            span("graphs", 12, 14, Some(1)),
        ];
        let by_layer = self_ns_by_layer(&spans, 0);
        assert_eq!(by_layer["perfbench"], 60);
        assert_eq!(by_layer["core"], 18);
        assert_eq!(by_layer["radio"], 30);
        assert_eq!(by_layer["graphs"], 2);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "x", |_| 7), 7);
        assert!(t.since(0).is_empty());
        let mut t = Tracer::new(true);
        t.span("perfbench", "a", |t| t.span("core", "b", |_| ()));
        let spans = t.since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
