//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its own calls into each layer's public functions (the program
//! carries no instrumentation), kept in memory, and summarized when the
//! run ends.
//!
//! Where a layer runs inside a call the benchmark cannot split (the
//! guarantee relation a session builds lazily, the passes inside a
//! degraded `ExactEngine::analyze`, the service time inside a network
//! round trip), the benchmark re-measures that layer by calling its
//! public function on the same input outside the op, and records the
//! measured duration as a child laid at the start of the enclosing span
//! ([`Tracer::attribute`]). The enclosing span's self time is then the
//! remainder, and the re-measurement never counts toward op latency.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `engine.enumerate`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// Self time and call count of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Spans recorded under the name.
    pub calls: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and reads
/// no clock, so untraced runs pay only a branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (the innermost open span).
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id].end = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a closed top-level span that started at `start` and
    /// lasted `dur` (a round trip timed by the caller).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        dur: std::time::Duration,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start,
            end: start + dur.as_nanos() as u64,
        });
        Some(self.spans.len() - 1)
    }

    /// Renames a closed span (a query's layer is known only from its
    /// reply).
    pub fn rename(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Records a re-measured layer of `ns` nanoseconds as a child of
    /// `parent`, laid after the children already attributed at its start
    /// (see the module docs). Clipped to the parent's interval.
    pub fn attribute(&mut self, parent: Option<SpanId>, name: &'static str, ns: u64) {
        let Some(parent) = parent else { return };
        let (op, lo, hi) = {
            let p = &self.spans[parent];
            (p.op, p.start, p.end)
        };
        // Attributed children are pushed right after their parent closes,
        // so the ones already laid are the trailing run of its children.
        let start = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.parent == Some(parent))
            .map(|s| s.end)
            .fold(lo, u64::max)
            .min(hi);
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start,
            end: start.saturating_add(ns).min(hi),
        });
    }

    /// Adds `v` to a per-layer counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one JSON object per line: id, name, op,
    /// parent, start and end in nanoseconds since the tracer started.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        Ok(())
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval its children cover (overlapping children count once).
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.spans)
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered(&mut children[i], s.start, s.end);
        let t = out.entry(s.name).or_default();
        t.self_ns += (s.end - s.start).saturating_sub(covered);
        t.calls += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps `a` on 30..40
            span("c", Some(0), 90, 120), // runs past the parent's end
            span("d", Some(1), 15, 20),
        ];
        let t = self_times(&spans);
        // Children cover 10..60 and 90..100: 60 ns of the op's 100.
        assert_eq!(t["op"].self_ns, 40);
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 30);
        assert_eq!(t["d"].self_ns, 5);
        assert_eq!(t["op"].calls, 1);
    }

    #[test]
    fn attributed_children_stack_from_the_parent_start() {
        let mut tr = Tracer::new(true);
        tr.spans.push(span("engine.summary", None, 1_000, 2_000));
        tr.attribute(Some(0), "engine.statespace", 300);
        tr.attribute(Some(0), "engine.enumerate", 500);
        tr.attribute(Some(0), "too.long", 10_000);
        let t = tr.self_times();
        assert_eq!(t["engine.statespace"].self_ns, 300);
        assert_eq!(t["engine.enumerate"].self_ns, 500);
        assert_eq!(
            t["engine.summary"].self_ns, 0,
            "clipped overflow covers the rest"
        );
        assert_eq!(t["too.long"].self_ns, 200);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("op", 1);
        tr.count("x", 1.0);
        tr.end(id);
        assert!(tr.self_times().is_empty());
        assert_eq!(tr.counter("x"), 0.0);
    }
}
