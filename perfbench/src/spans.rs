//! Outside-in spans: one record around each call the benchmark makes into
//! the simulator, kept in memory and written out once when the run ends.
//!
//! Spans nest strictly (a stack), and a child's clock and allocation
//! readings are taken inside its parent's, so a span's self cost — its own
//! cost minus what its children cover — is never negative, and the self
//! times of all spans plus the time outside every root span add up to the
//! run's wall time.

use cdf_core::prof::alloc_counts;
use cdf_sim::json::{field, Json};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (itself for a root).
    pub root: usize,
    /// The cell (or mix) the call worked for, as an index into the run's
    /// unit labels.
    pub cell: Option<usize>,
    /// Heap allocations during the span, children included (zero unless
    /// `cdf_core::CountingAlloc` is the global allocator).
    pub allocs: u64,
    /// Bytes allocated during the span, children included.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans. See the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            root: parent.map_or(id, |p| self.spans[p].root),
            cell,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(id);
        // Read last, so the bookkeeping above is charged to the parent.
        let (allocs, bytes) = alloc_counts();
        let s = &mut self.spans[id];
        s.allocs = allocs;
        s.alloc_bytes = bytes;
        s.start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc_counts();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, cell);
        let out = f();
        self.end(id);
        out
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` — the ones a panic or an early
    /// error return left open.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open is longer than depth");
            self.end(id);
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's own cost: its time and allocations minus its children's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfCost {
    /// Self time in nanoseconds.
    pub ns: i64,
    /// Self allocation calls.
    pub allocs: i64,
    /// Self allocated bytes.
    pub bytes: i64,
}

/// Self cost of every span, index for index.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let mut costs: Vec<SelfCost> = spans
        .iter()
        .map(|s| SelfCost {
            ns: s.dur_ns() as i64,
            allocs: s.allocs as i64,
            bytes: s.alloc_bytes as i64,
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            costs[p].ns -= s.dur_ns() as i64;
            costs[p].allocs -= s.allocs as i64;
            costs[p].bytes -= s.alloc_bytes as i64;
        }
    }
    costs
}

/// Wall time outside every root span, for a run that lasted `wall_ns`.
pub fn untraced_ns(spans: &[Span], wall_ns: u64) -> i64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    wall_ns as i64 - covered as i64
}

/// The spans as a Chrome/Perfetto trace-event document: one complete (`X`)
/// event per span, its parent, cell, self cost and allocations in `args`,
/// and `other` (provenance, metrics) under `otherData`.
pub fn trace_json(spans: &[Span], cells: &[String], other: Json) -> Json {
    let costs = self_costs(spans);
    let events = spans
        .iter()
        .zip(&costs)
        .enumerate()
        .map(|(i, (s, c))| {
            let mut args = vec![field("id", i), field("parent", s.parent)];
            args.push(field("cell", s.cell.map(|c| cells[c].as_str())));
            args.push(field("self_ns", c.ns as u64));
            args.push(field("allocs", s.allocs));
            args.push(field("alloc_bytes", s.alloc_bytes));
            Json::Obj(vec![
                field("name", s.name),
                field("cat", "perfbench"),
                field("ph", "X"),
                field("ts", s.start_ns as f64 / 1e3),
                field("dur", s.dur_ns() as f64 / 1e3),
                field("pid", 1u64),
                field("tid", 1u64),
                field("args", Json::Obj(args)),
            ])
        })
        .collect::<Vec<_>>();
    Json::Obj(vec![
        field("traceEvents", Json::Arr(events)),
        field("displayTimeUnit", "ms"),
        field("otherData", other),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens and closes spans in a pseudo-random nesting, doing a little
    /// work (and allocating) inside each.
    fn random_tree(tr: &mut Tracer, seed: u64, n: usize) {
        let mut x = seed;
        let mut open = Vec::new();
        let mut sink = Vec::new();
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if open.is_empty() || !(x >> 33).is_multiple_of(3) {
                open.push(tr.begin(if open.is_empty() { "root" } else { "child" }, None));
            } else {
                tr.end(open.pop().expect("non-empty"));
            }
            sink.push(vec![x; (x % 64) as usize]);
        }
        tr.close_to(0);
        std::hint::black_box(sink);
    }

    #[test]
    fn self_costs_are_never_negative() {
        for seed in 0..20 {
            let mut tr = Tracer::new();
            random_tree(&mut tr, seed, 400);
            for (s, c) in tr.spans().iter().zip(self_costs(tr.spans())) {
                assert!(c.ns >= 0 && c.allocs >= 0 && c.bytes >= 0, "{s:?}: {c:?}");
                assert!(c.ns as u64 <= s.dur_ns());
            }
        }
    }

    #[test]
    fn self_times_and_untraced_time_add_up_to_wall() {
        let mut tr = Tracer::new();
        random_tree(&mut tr, 7, 300);
        // Time outside any root: between the roots and after the last one.
        std::hint::black_box((0..10_000).sum::<u64>());
        random_tree(&mut tr, 8, 300);
        let wall = tr.now_ns();
        let selves: i64 = self_costs(tr.spans()).iter().map(|c| c.ns).sum();
        let untraced = untraced_ns(tr.spans(), wall);
        assert!(untraced >= 0);
        assert_eq!(selves + untraced, wall as i64);
    }

    #[test]
    fn spans_record_parent_root_and_cell() {
        let mut tr = Tracer::new();
        let root = tr.begin("pass", None);
        let v = tr.time("core.run", Some(3), || 41 + 1);
        tr.end(root);
        assert_eq!(v, 42);
        let s = &tr.spans()[1];
        assert_eq!((s.parent, s.root, s.cell), (Some(0), 0, Some(3)));
        assert!(s.start_ns >= tr.spans()[0].start_ns && s.end_ns <= tr.spans()[0].end_ns);
    }
}
