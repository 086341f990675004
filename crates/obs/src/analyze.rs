//! Trace analysis: turn the JSON-lines span traces the stack already
//! emits into per-query critical paths, a per-stage aggregate table, and
//! top-N slow-query timelines — "where did each microsecond go".
//!
//! The model: a query trace is the ordered event sequence between its
//! `query_received` root and its terminal `answered`. Every
//! microsecond between two consecutive events is attributed to the
//! *phase the earlier event opened*: the gap after a `cache_probe` is
//! cache handling, the gap after an `upstream_attempt` is upstream wait,
//! the gap after a `retry_backoff` is backoff sleep, and so on. Phase
//! totals therefore sum exactly to the query's observed latency — the
//! same additivity the folded-stack profiler guarantees — and aggregating
//! them across queries ranks the pipeline's cost centers.

use std::collections::BTreeMap;

use crate::json::{parse, Value};

/// One parsed trace event (the span envelope plus its name).
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Event time on the trace's microsecond axis.
    pub at_us: u64,
    /// Event name (e.g. `"cache_probe"`).
    pub event: String,
}

/// The phase a gap following `event` belongs to. Unknown events fall
/// into `"other"` so new taxonomy entries degrade gracefully instead of
/// breaking old analyzers.
fn phase_after(event: &str) -> &'static str {
    match event {
        "query_received" => "ingest",
        "cache_probe" => "cache_probe",
        "ecs_decision" => "ecs_decision",
        "upstream_attempt" => "upstream_wait",
        "retry_backoff" => "backoff",
        "upstream_fault" => "fault_handling",
        "ecs_withdrawn" => "withdraw",
        "tcp_fallback" | "transport_fallback" => "transport_fallback",
        "coalesced_join" => "join_wait",
        "eviction_pressure" => "eviction",
        "scan_probe" => "probe_wait",
        "rate_limited" => "rate_wait",
        "breaker_transition" => "breaker",
        _ => "other",
    }
}

/// One query's critical path: its total latency split into the phases
/// that consumed it, in first-occurrence order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Trace id.
    pub trace: u64,
    /// Root qname, when the root event carried one.
    pub qname: Option<String>,
    /// Total microseconds from root to terminal event.
    pub total_us: u64,
    /// `(phase, microseconds)` in first-occurrence order; sums to
    /// `total_us` exactly.
    pub segments: Vec<(&'static str, u64)>,
    /// The raw timeline: `(relative µs, event name)` per event.
    pub timeline: Vec<(u64, String)>,
}

/// Aggregate across every extracted critical path.
#[derive(Clone, Debug, Default)]
pub struct StageAggregate {
    /// Total microseconds attributed to the phase.
    pub total_us: u64,
    /// Gaps attributed to the phase.
    pub count: u64,
}

/// A full analysis of one trace file.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Queries analyzed (traces with a root and a terminal event).
    pub queries: usize,
    /// Traces skipped (no terminal event — still in flight when the sink
    /// closed, or a non-query root).
    pub skipped: usize,
    /// Phase totals across all queries.
    pub stages: BTreeMap<&'static str, StageAggregate>,
    /// The `--top N` slowest queries, descending by latency (trace id
    /// breaks ties ascending, so reports are deterministic).
    pub slowest: Vec<CriticalPath>,
}

/// Parses a JSON-lines trace into events. Lines that fail to parse are
/// reported as errors (the validator owns schema enforcement; the
/// analyzer refuses to guess).
pub fn parse_events(text: &str) -> Result<Vec<SpanEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let doc = parse(line).map_err(|e| format!("trace line {n}: {e}"))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| format!("trace line {n}: not an object"))?;
        let num = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Value::as_num)
                .map(|v| v as u64)
                .ok_or_else(|| format!("trace line {n}: missing numeric {key:?}"))
        };
        events.push(SpanEvent {
            trace: num("trace")?,
            span: num("span")?,
            parent: num("parent")?,
            at_us: num("at_us")?,
            event: obj
                .get("event")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("trace line {n}: missing event name"))?
                .to_string(),
        });
    }
    Ok(events)
}

/// Extracts the critical path of one trace's event list (must be the
/// events of a single trace id, in emission order). Returns `None` when
/// the trace has no terminal event (`answered` or `scan_outcome`).
fn critical_path(events: &[SpanEvent]) -> Option<CriticalPath> {
    let root = events.first()?;
    let terminal_idx = events
        .iter()
        .rposition(|e| e.event == "answered" || e.event == "scan_outcome")?;
    // Events at or before the terminal, in time order (stable: emission
    // order breaks at_us ties, which is causal order by construction).
    let mut path: Vec<&SpanEvent> = events[..=terminal_idx].iter().collect();
    path.sort_by_key(|e| e.at_us);
    let t0 = root.at_us;
    let t_end = events[terminal_idx].at_us;

    let mut segments: Vec<(&'static str, u64)> = Vec::new();
    let mut add = |phase: &'static str, us: u64| {
        if let Some(seg) = segments.iter_mut().find(|(p, _)| *p == phase) {
            seg.1 += us;
        } else {
            segments.push((phase, us));
        }
    };
    for pair in path.windows(2) {
        let gap = pair[1].at_us.saturating_sub(pair[0].at_us);
        add(phase_after(&pair[0].event), gap);
    }
    // Zero-length queries (cache hits answered at the same microsecond)
    // still get an explicit ingest segment so the table counts them.
    if path.len() == 1 {
        add(phase_after(&root.event), 0);
    }

    Some(CriticalPath {
        trace: root.trace,
        qname: None,
        total_us: t_end.saturating_sub(t0),
        segments,
        timeline: path
            .iter()
            .map(|e| (e.at_us - t0, e.event.clone()))
            .collect(),
    })
}

/// Runs the full analysis over a trace file's text: group events by
/// trace id, extract every critical path, aggregate phases, keep the
/// `top` slowest timelines.
pub fn analyze(text: &str, top: usize) -> Result<AnalysisReport, String> {
    let events = parse_events(text)?;
    if events.is_empty() {
        return Err("trace: no events".to_string());
    }
    // Group by trace id preserving emission order within each trace.
    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace).or_default().push(e);
    }
    // Qnames ride on the root event when present.
    let mut report = AnalysisReport::default();
    let mut paths: Vec<CriticalPath> = Vec::new();
    for (_, trace_events) in by_trace {
        match critical_path(&trace_events) {
            Some(cp) => paths.push(cp),
            None => report.skipped += 1,
        }
    }
    report.queries = paths.len();
    for cp in &paths {
        for (phase, us) in &cp.segments {
            let agg = report.stages.entry(phase).or_default();
            agg.total_us += us;
            agg.count += 1;
        }
    }
    paths.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.trace.cmp(&b.trace)));
    paths.truncate(top);
    report.slowest = paths;
    Ok(report)
}

impl AnalysisReport {
    /// Human-readable report: the per-stage table, then the top-N slow
    /// queries with their timelines.
    pub fn to_text(&self) -> String {
        let grand: u64 = self.stages.values().map(|s| s.total_us).sum();
        let mut out = String::new();
        out.push_str(&format!(
            "queries analyzed: {} (skipped {} without a terminal event)\n\n",
            self.queries, self.skipped
        ));
        out.push_str("stage                  total_us      gaps   share\n");
        let mut rows: Vec<(&&str, &StageAggregate)> = self.stages.iter().collect();
        rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        for (phase, agg) in rows {
            let share = if grand == 0 {
                0.0
            } else {
                agg.total_us as f64 * 100.0 / grand as f64
            };
            out.push_str(&format!(
                "{:<20} {:>10} {:>9} {:>6.1}%\n",
                phase, agg.total_us, agg.count, share
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str(&format!("\ntop {} slowest queries:\n", self.slowest.len()));
            for cp in &self.slowest {
                let segs = cp
                    .segments
                    .iter()
                    .map(|(p, us)| format!("{p}={us}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "  trace {:>6}  {:>8} us  [{segs}]\n",
                    cp.trace, cp.total_us
                ));
                for (rel, ev) in &cp.timeline {
                    out.push_str(&format!("      +{rel:>8} us  {ev}\n"));
                }
            }
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let mut stages = Vec::new();
        for (phase, agg) in &self.stages {
            stages.push(format!(
                "    \"{phase}\": {{\"total_us\": {}, \"count\": {}}}",
                agg.total_us, agg.count
            ));
        }
        let mut slow = Vec::new();
        for cp in &self.slowest {
            let segs = cp
                .segments
                .iter()
                .map(|(p, us)| format!("{{\"phase\": \"{p}\", \"us\": {us}}}"))
                .collect::<Vec<_>>()
                .join(", ");
            slow.push(format!(
                "    {{\"trace\": {}, \"total_us\": {}, \"segments\": [{segs}]}}",
                cp.trace, cp.total_us
            ));
        }
        format!(
            "{{\n  \"queries\": {},\n  \"skipped\": {},\n  \"stages\": {{\n{}\n  }},\n  \"slowest\": [\n{}\n  ]\n}}\n",
            self.queries,
            self.skipped,
            stages.join(",\n"),
            slow.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(trace: u64, span: u64, parent: u64, at: u64, event: &str) -> String {
        format!(
            "{{\"trace\":{trace},\"span\":{span},\"parent\":{parent},\"at_us\":{at},\"event\":\"{event}\"}}"
        )
    }

    /// A hand-built retrying query with fully known timings:
    /// received @1000, cache miss found @1010, ECS decided @1015,
    /// attempt 0 @1020 times out @1520 (wait 500), backoff until @1770,
    /// attempt 1 @1770 answers @1870 (wait 100). Total 870.
    fn retry_trace() -> String {
        [
            line(1, 1, 0, 1000, "query_received"),
            line(1, 2, 1, 1010, "cache_probe"),
            line(1, 3, 1, 1015, "ecs_decision"),
            line(1, 4, 1, 1020, "upstream_attempt"),
            line(1, 5, 4, 1520, "upstream_fault"),
            line(1, 6, 1, 1520, "retry_backoff"),
            line(1, 7, 1, 1770, "upstream_attempt"),
            line(1, 8, 1, 1870, "answered"),
        ]
        .join("\n")
    }

    #[test]
    fn critical_path_attributes_every_microsecond() {
        let events = parse_events(&retry_trace()).unwrap();
        let cp = critical_path(&events).expect("terminal event present");
        assert_eq!(cp.total_us, 870);
        let seg = |p: &str| {
            cp.segments
                .iter()
                .find(|(ph, _)| *ph == p)
                .map(|(_, us)| *us)
                .unwrap_or(0)
        };
        assert_eq!(seg("ingest"), 10); // 1000 → 1010
        assert_eq!(seg("cache_probe"), 5); // 1010 → 1015
        assert_eq!(seg("ecs_decision"), 5); // 1015 → 1020
        assert_eq!(seg("upstream_wait"), 600); // 1020→1520 and 1770→1870
        assert_eq!(seg("fault_handling"), 0); // fault and backoff at 1520
        assert_eq!(seg("backoff"), 250); // 1520 → 1770
        let attributed: u64 = cp.segments.iter().map(|(_, us)| us).sum();
        assert_eq!(attributed, cp.total_us, "no microsecond lost or invented");
        assert_eq!(cp.timeline.len(), 8);
        assert_eq!(cp.timeline[0], (0, "query_received".to_string()));
        assert_eq!(cp.timeline[7], (870, "answered".to_string()));
    }

    #[test]
    fn traces_without_terminal_are_skipped_not_fatal() {
        let text = [
            line(1, 1, 0, 0, "query_received"),
            line(1, 2, 1, 5, "cache_probe"),
            line(2, 3, 0, 0, "query_received"),
            line(2, 4, 2, 9, "answered"),
        ]
        .join("\n");
        let report = analyze(&text, 10).unwrap();
        assert_eq!(report.queries, 1);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn aggregate_table_sums_across_queries_and_ranks_slowest() {
        let text = [
            // Fast cache hit: 3 us.
            line(1, 1, 0, 100, "query_received"),
            line(1, 2, 1, 101, "cache_probe"),
            line(1, 3, 1, 103, "answered"),
            // Slow upstream query: 500 us.
            line(2, 4, 0, 200, "query_received"),
            line(2, 5, 4, 210, "cache_probe"),
            line(2, 6, 4, 215, "upstream_attempt"),
            line(2, 7, 4, 700, "answered"),
        ]
        .join("\n");
        let report = analyze(&text, 1).unwrap();
        assert_eq!(report.queries, 2);
        assert_eq!(report.stages.get("ingest").unwrap().total_us, 11);
        assert_eq!(report.stages.get("cache_probe").unwrap().total_us, 7);
        assert_eq!(report.stages.get("upstream_wait").unwrap().total_us, 485);
        assert_eq!(report.slowest.len(), 1);
        assert_eq!(report.slowest[0].trace, 2);
        assert_eq!(report.slowest[0].total_us, 500);
        let text_report = report.to_text();
        assert!(text_report.contains("upstream_wait"));
        assert!(text_report.contains("queries analyzed: 2"));
        let json = report.to_json();
        let doc = crate::json::parse(&json).expect("report is valid JSON");
        assert!(doc.as_object().unwrap().contains_key("stages"));
    }

    #[test]
    fn zero_length_query_still_counts() {
        let text = [
            line(7, 1, 0, 50, "query_received"),
            line(7, 2, 1, 50, "answered"),
        ]
        .join("\n");
        let report = analyze(&text, 5).unwrap();
        assert_eq!(report.queries, 1);
        assert_eq!(report.slowest[0].total_us, 0);
    }

    #[test]
    fn scan_traces_analyze_with_probe_phases() {
        let text = [
            line(3, 1, 0, 0, "scan_probe"),
            line(3, 2, 1, 40, "rate_limited"),
            line(3, 3, 1, 90, "scan_outcome"),
        ]
        .join("\n");
        let report = analyze(&text, 5).unwrap();
        assert_eq!(report.queries, 1);
        assert_eq!(report.stages.get("probe_wait").unwrap().total_us, 40);
        assert_eq!(report.stages.get("rate_wait").unwrap().total_us, 50);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(analyze("", 5).is_err());
        assert!(analyze("{nope", 5).is_err());
        assert!(analyze("{\"trace\":1}", 5).is_err());
    }
}
