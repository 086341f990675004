//! The benchmark's own span recorder.
//!
//! One span wraps every call the benchmark makes into a layer of the
//! program under test: name, start, end, the span that caused it, and a
//! count of the work done inside (queries, records, probes). Spans stay in
//! memory and are written as JSON lines when the run ends; the per-layer
//! table is computed from them. The recorder lives entirely in the
//! benchmark — spans *inside* the program are a later change — so a
//! disabled recorder costs one branch per would-be span and the untraced
//! run measures the program alone.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or phase name (`set_up`, `probe.wire.decode`, ...).
    pub name: String,
    /// Start, ns from the recorder origin.
    pub start_ns: u64,
    /// End, ns from the recorder origin.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Work items processed inside the span (0 when not counted).
    pub count: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals for one span name, over every span that carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Σ self time (duration minus the part child spans cover), ns.
    pub self_ns: u64,
    /// Σ work items.
    pub count: u64,
}

impl LayerTotals {
    /// Self time per work item, ns (0.0 when nothing was counted).
    pub fn ns_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// In-memory span recorder for one workload run.
pub struct Recorder {
    workload: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `workload`; `enabled = false` records nothing.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Recorder {
            workload: workload.to_string(),
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// wall time it took — measured whether or not recording is on, so the
    /// untraced pass takes its timings from the same call. `f` returns the
    /// work-item count alongside its value; nested spans are opened by
    /// calling back into the recorder it is handed.
    pub fn span<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> (T, Duration) {
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                count: 0,
            });
            self.open.push(id);
            id
        });
        let started = Instant::now();
        let (value, count) = f(self);
        let took = started.elapsed();
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.spans[id].count = count;
            self.open.pop();
        }
        (value, took)
    }

    /// Per-name totals of self time, calls and counts.
    pub fn layers(&self) -> std::collections::BTreeMap<String, LayerTotals> {
        let selfs = self_times(&self.spans);
        let mut out = std::collections::BTreeMap::<String, LayerTotals>::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name.clone()).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
            t.count += span.count;
        }
        out
    }

    /// Totals for one name (zeros when it never ran).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as one JSON object per line to `path`, creating
    /// the directory if needed.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".to_string());
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"count\":{}}}",
                obs::json::escape(&self.workload),
                obs::json::escape(&span.name),
                span.start_ns,
                span.end_ns,
                span.count,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (interval union), so concurrent
/// children can never push a parent's self time below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) ─ a [10,60) ─ a1 [20,30)
        //              └ b [70,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        // root loses a and b (70), not a1 (already inside a); a loses a1.
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // Two children overlapping on [40,60), one sticking out past the
        // parent's end, one entirely inside another.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 90, 130, Some(0)),
            span("inner", 20, 30, Some(0)),
        ];
        // Union of children inside root: [10,80) ∪ [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
        // Children themselves have no children: self time = duration.
        assert_eq!(&self_times(&spans)[1..], &[50, 40, 40, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_totals_by_name() {
        let mut rec = Recorder::new("w", true);
        let (value, took) = rec.span("outer", |rec| {
            for _ in 0..3 {
                rec.span("inner", |_| ((), 5));
            }
            (7, 1)
        });
        assert_eq!(value, 7);
        assert!(took > Duration::ZERO);
        assert_eq!(rec.spans().len(), 4);
        assert_eq!(rec.spans()[0].parent, None);
        assert!(rec.spans()[1..].iter().all(|s| s.parent == Some(0)));
        let inner = rec.layer("inner");
        assert_eq!((inner.calls, inner.count), (3, 15));
        assert_eq!(rec.layer("outer").count, 1);
        assert_eq!(rec.layer("never"), LayerTotals::default());
        // Self times partition the root's duration.
        let total: u64 = self_times(rec.spans()).iter().sum();
        assert_eq!(total, rec.spans()[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_still_times_but_keeps_nothing() {
        let mut rec = Recorder::new("w", false);
        let (value, took) = rec.span("outer", |_| {
            std::thread::sleep(Duration::from_millis(2));
            (1, 0)
        });
        assert_eq!(value, 1);
        assert!(took >= Duration::from_millis(2));
        assert!(rec.spans().is_empty());
    }
}
