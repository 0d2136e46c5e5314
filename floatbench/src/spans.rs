//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The program under test has no spans of its own yet (only the
//! `PhaseSpan` durations of `float-obs`), so every span here starts and
//! ends in the benchmark's files.

use std::time::Instant;

use serde::Serialize;

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans against one clock; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, a child of the span open around it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Lay `durations_ns` end to end inside `parent`, from its start, as
    /// child spans. `PhaseSpan` events carry a duration but no start time;
    /// the phases of one run do follow each other, so only the gaps
    /// between them (the parent's self time) are moved to its end.
    pub fn add_children(&mut self, parent: usize, durations_ns: &[(&str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in durations_ns {
            self.spans.push(Span {
                name: name.to_string(),
                parent: Some(parent),
                workload: self.workload.clone(),
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    pub fn self_ns(&self, id: usize) -> u64 {
        self_time_ns(&self.spans, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part of it its children cover: children
/// are clipped to the parent and overlapping children count once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let (lo, hi) = (spans[id].start_ns, spans[id].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for (start, end) in kids {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            parent,
            workload: "w".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with its own child 20..30; child 60..70.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 20, 30),
            span(Some(0), 60, 70),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children 10..50 and 30..70 overlap by 20; 90..120 overhangs the
        // parent's end by 20; 35..45 lies inside the first two.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 30, 70),
            span(Some(0), 10, 50),
            span(Some(0), 90, 120),
            span(Some(0), 35, 45),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_lays_out_phase_children() {
        let mut t = Tracer::new("w");
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[outer].parent, None);
        assert!(t.self_ns(outer) <= t.duration_ns(outer));
        t.add_children(outer, &[("plan", 5), ("execute", 7)]);
        let kids: Vec<_> = t.spans().iter().filter(|s| s.name != "inner").collect();
        assert_eq!(kids[1].end_ns, kids[2].start_ns);
        assert_eq!(kids[2].end_ns - kids[1].start_ns, 12);
    }
}
