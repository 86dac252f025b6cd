//! Spans recorded by the benchmark itself, around its calls into each
//! layer. Spans stay in memory for the whole traced pass and are written
//! out once at the end; nothing here touches the simulator.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover, so the self times of a well-nested trace add
//! up to the duration of its roots — the identity the traced pass
//! reports as "Σ self = traced wall".

use amo_types::JsonWriter;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran (`machine_new`, `artifact:table2`, `self:dispatch:ToHub`, …).
    pub name: String,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
}

/// The in-memory span store of one workload's traced pass.
pub struct Trace {
    /// Workload every span of this trace belongs to (their shared
    /// identifier).
    pub workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Trace {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value and the span's index.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (value, id)
    }

    /// Lay `parts` (name, nanoseconds) end to end inside span `parent`,
    /// starting at its start — how a profiler's aggregated self times
    /// become children of the span they were measured under. Parts that
    /// would overrun the parent are clipped to it.
    pub fn fill(&mut self, parent: usize, parts: &[(String, u64)]) {
        let (mut at, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for (name, ns) in parts {
            let stop = (at + ns).min(end);
            self.spans.push(Span {
                name: name.clone(),
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
            });
            at = stop;
        }
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time of span `id`: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    /// `(Σ self times, Σ root durations)` — equal for a well-nested trace.
    pub fn conservation(&self) -> (u64, u64) {
        let selfs = (0..self.spans.len()).map(|i| self.self_ns(i)).sum();
        let roots = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(|i| self.duration_ns(i))
            .sum();
        (selfs, roots)
    }

    /// Emit the spans as a JSON array member of the open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.key("spans");
        w.begin_arr();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_obj();
            w.kv_str("name", &s.name);
            w.kv_str("workload", &self.workload);
            w.kv_u64("start_ns", s.start_ns);
            w.kv_u64("end_ns", s.end_ns);
            w.kv_u64("self_ns", self.self_ns(i));
            match s.parent {
                Some(p) => w.kv_u64("parent", p as u64),
                None => {
                    w.key("parent");
                    w.raw_val("null");
                }
            }
            w.end_obj();
        }
        w.end_arr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        Trace {
            spans,
            ..Trace::new("t")
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = trace_of(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new cover.
            span("b", 30, 50, Some(0)),
            // Sticks out past the parent: clipped to 90..100.
            span("c", 90, 130, Some(0)),
            span("a.1", 15, 20, Some(1)),
        ]);
        assert_eq!(t.self_ns(0), 100 - (30 + 10 + 10));
        assert_eq!(t.self_ns(1), 30 - 5);
        assert_eq!(t.self_ns(4), 5);
        assert_eq!(t.self_ns(2), 20);
    }

    #[test]
    fn nested_scopes_conserve_time() {
        let mut t = Trace::new("t");
        let (_, outer) = t.scope("outer", |t| {
            t.scope("inner", |_| std::hint::black_box((0..1000u64).sum::<u64>()));
            t.scope("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(outer));
        let (selfs, roots) = t.conservation();
        assert_eq!(selfs, roots);
        assert_eq!(roots, t.duration_ns(outer));
    }

    #[test]
    fn fill_lays_parts_end_to_end_and_clips() {
        let mut t = trace_of(vec![span("run", 100, 200, None)]);
        t.fill(0, &[("x".into(), 30), ("y".into(), 50), ("z".into(), 40)]);
        assert_eq!(t.spans()[1], span("x", 100, 130, Some(0)));
        assert_eq!(t.spans()[2], span("y", 130, 180, Some(0)));
        assert_eq!(t.spans()[3], span("z", 180, 200, Some(0)), "clipped");
        assert_eq!(t.self_ns(0), 0);
        let (selfs, roots) = t.conservation();
        assert_eq!(selfs, roots);
    }
}
