//! Spans of the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer of
//! the program (none is recorded inside `crates/*`; that is a later change).
//! Spans stay in memory and are written to one file when the run ends. A
//! layer's self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One timed interval. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.execute`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The operation (iteration or job id) the span belongs to; spans of one
    /// operation share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, to close it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Count, summed duration and summed self time of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.push(name, op, self.open.last().copied());
        self.open.push(id.0);
        id
    }

    /// Open a span that is no child of the open ones and does not adopt later
    /// spans: a job in flight beside other jobs, closed by [`end`](Self::end)
    /// in any order.
    pub fn begin_detached(&mut self, name: &'static str, op: u64) -> SpanId {
        self.push(name, op, None)
    }

    fn push(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close a span and return its duration in seconds.
    ///
    /// # Panics
    /// Panics when a nested span is closed out of order — a bug in the
    /// benchmark, and one that would corrupt every self time.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        if self.open.contains(&id.0) {
            assert_eq!(self.open.pop(), Some(id.0), "nested spans must close innermost first");
        }
        self.spans[id.0].end_ns = end_ns;
        self.spans[id.0].duration_ns() as f64 * 1e-9
    }

    /// Time `f` under a span; returns its result and the duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, op);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    /// Self time of every span, by index: its duration minus its direct
    /// children's. Children lie inside their parent and do not overlap one
    /// another (nested spans come from one thread), so the subtraction is
    /// the uncovered part of the interval.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per-name totals, for the self-time table and the trace file.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The per-name totals as lines for the report: where the traced time
    /// went, each layer's own share separated from its callees'.
    pub fn self_time_table(&self) -> String {
        let mut out = format!("{:<32} {:>8} {:>14} {:>14}", "span", "count", "total ms", "self ms");
        for (name, t) in self.totals() {
            let (total_ms, self_ms) = (t.total_ns as f64 * 1e-6, t.self_ns as f64 * 1e-6);
            out.push_str(&format!("\n{name:<32} {:>8} {total_ms:>14.3} {self_ms:>14.3}", t.count));
        }
        out
    }

    /// Durations, in seconds, of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Write every span and the per-name totals to `path`.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                let mut fields = vec![
                    ("name", Value::str(s.name)),
                    ("op", Value::Num(s.op as f64)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns as f64)),
                ];
                if let Some(parent) = s.parent {
                    fields.push(("parent", Value::Num(parent as f64)));
                }
                Value::obj(fields)
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                let fields = vec![
                    ("count", Value::Num(t.count as f64)),
                    ("total_ns", Value::Num(t.total_ns as f64)),
                    ("self_ns", Value::Num(t.self_ns as f64)),
                ];
                (name, Value::obj(fields))
            })
            .collect();
        let doc = Value::obj(vec![
            ("workload", Value::str(workload)),
            ("totals", Value::obj(totals)),
            ("spans", Value::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_line())
    }
}

fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("core.plan", 5, 15, Some(0)),
            span("core.execute", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
            span("alone", 200, 230, None),
        ];
        // op: 100 - 10 - 70; execute: 70 - 20; a grandchild is charged to its parent only.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 50, 20, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans)[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_open_order_and_sums_by_name() {
        let mut t = Tracer::new();
        for op in 0..3 {
            let outer = t.begin("op", op);
            t.time("core.plan", op, || ());
            t.time("core.execute", op, || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.end(outer);
        }
        let job = t.begin_detached("job", 9);
        let (_, d) = t.time("probe", 9, || ());
        assert!(d >= 0.0);
        t.end(job);

        let totals = t.totals();
        assert_eq!(totals["op"].count, 3);
        assert_eq!(totals["core.execute"].count, 3);
        assert_eq!(
            totals["op"].self_ns,
            totals["op"].total_ns - totals["core.plan"].total_ns - totals["core.execute"].total_ns
        );
        assert!(totals["core.execute"].total_ns >= 6_000_000);
        // The detached span adopted nothing: the probe is a root and the job keeps its whole duration.
        assert_eq!(totals["job"].self_ns, totals["job"].total_ns);
        assert_eq!(t.durations_s("core.plan").len(), 3);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents[..3], [None, Some(0), Some(0)]);
        assert_eq!(parents[parents.len() - 2..], [None, None]);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_nested_spans_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 0);
        t.end(outer);
    }
}
