//! Schema validation for exported telemetry, used by the `obs-validate`
//! binary in CI: a metrics JSON snapshot must carry its three sections and
//! every required series; a JSON-lines trace must parse line-by-line with
//! the span envelope intact and only known event names.

use crate::json::{parse, Value};
use crate::trace::EventKind;

/// The series a scanner metrics snapshot must carry (the `obs-validate
/// metrics --require-scanner` profile): every probe-outcome counter in the
/// reconciliation identity, the in-flight gauge, and the probe-latency
/// histogram.
pub const SCANNER_REQUIRED_SERIES: &[&str] = &[
    "scanner_probes_total",
    "scanner_attempts_total",
    "scanner_answered_total",
    "scanner_refused_total",
    "scanner_retries_total",
    "scanner_retry_exhausted_total",
    "scanner_shed_rate_limit_total",
    "scanner_shed_breaker_total",
    "scanner_breaker_opens_total",
    "scanner_rate_deferrals_total",
    "scanner_in_flight",
    "scanner_probe_latency_us",
];

/// The series a streaming cache-replay run must carry (the `obs-validate
/// metrics --require-stream` profile): every counter in the replay
/// reconciliation identity plus the per-shard peak-occupancy histograms
/// and the live-entry high-water gauge, as computed by
/// `CacheSimResult::to_metrics`.
pub const STREAM_REQUIRED_SERIES: &[&str] = &[
    "cache_sim_lookups_total",
    "cache_sim_hits_ecs_total",
    "cache_sim_hits_plain_total",
    "cache_sim_evictions_ecs_total",
    "cache_sim_evictions_plain_total",
    "cache_sim_peak_ecs_entries",
    "cache_sim_peak_plain_entries",
    "cache_sim_peak_live_ecs",
];

/// The series a profiled run must carry (the `obs-validate metrics
/// --require-prof` profile): the stage-profiler roll-ups exported by
/// [`crate::ProfileSnapshot::to_metrics`] plus the lock-contention
/// series the dnsd serving path records around the shared cache and the
/// flight table.
pub const PROF_REQUIRED_SERIES: &[&str] = &[
    "prof_spans_total",
    "prof_self_us_total",
    "prof_dropped_paths_total",
    "lock_cache_shard_acquisitions_total",
    "lock_cache_shard_contended_total",
    "lock_cache_shard_wait_us",
    "lock_flight_acquisitions_total",
    "lock_flight_contended_total",
    "lock_flight_wait_us",
];

/// Checks a [`crate::MetricsSnapshot::to_json`] document: the three
/// sections must be objects, and every name in `required` must appear in
/// one of them.
pub fn validate_metrics_json(text: &str, required: &[&str]) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("metrics snapshot is not valid JSON: {e}"))?;
    let obj = doc
        .as_object()
        .ok_or_else(|| "metrics snapshot: top level must be an object".to_string())?;
    let mut sections = Vec::new();
    for key in ["counters", "gauges", "histograms"] {
        match obj.get(key) {
            Some(Value::Obj(map)) => sections.push(map),
            Some(_) => return Err(format!("metrics snapshot: {key:?} must be an object")),
            None => return Err(format!("metrics snapshot: missing section {key:?}")),
        }
    }
    for name in required {
        if !sections.iter().any(|map| map.contains_key(*name)) {
            return Err(format!(
                "metrics snapshot: missing required series {name:?}"
            ));
        }
    }
    Ok(())
}

/// Checks a JSON-lines trace: at least one line; every non-empty line is
/// an object carrying numeric `trace >= 1`, `span >= 1`, `parent`,
/// `at_us`, and an `event` string from the known taxonomy, with
/// `parent != span`. Returns the number of events on success.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let doc = parse(line).map_err(|e| format!("trace line {n}: not valid JSON: {e}"))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| format!("trace line {n}: not an object"))?;
        let num = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("trace line {n}: missing numeric {key:?}"))
        };
        let trace = num("trace")?;
        let span = num("span")?;
        let parent = num("parent")?;
        num("at_us")?;
        if trace < 1.0 {
            return Err(format!("trace line {n}: trace id must be >= 1"));
        }
        if span < 1.0 {
            return Err(format!("trace line {n}: span id must be >= 1"));
        }
        if parent == span {
            return Err(format!("trace line {n}: span cannot parent itself"));
        }
        let event = obj
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace line {n}: missing event name"))?;
        if !EventKind::NAMES.contains(&event) {
            return Err(format!("trace line {n}: unknown event {event:?}"));
        }
        events += 1;
    }
    if events == 0 {
        return Err("trace: no events".to_string());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::{MemorySink, Tracer};
    use std::sync::Arc;

    #[test]
    fn accepts_real_snapshot_and_flags_missing_series() {
        let reg = MetricsRegistry::new();
        reg.counter("resolver_client_queries_total").add(3);
        reg.histogram("resolver_query_latency_us").record(1500);
        let json = reg.snapshot().to_json();
        validate_metrics_json(
            &json,
            &["resolver_client_queries_total", "resolver_query_latency_us"],
        )
        .expect("valid snapshot");
        let err = validate_metrics_json(&json, &["resolver_retries_total"]).unwrap_err();
        assert!(err.contains("resolver_retries_total"), "{err}");
    }

    #[test]
    fn scanner_profile_names_every_scanner_series() {
        let reg = MetricsRegistry::new();
        for name in SCANNER_REQUIRED_SERIES {
            assert!(name.starts_with("scanner_"), "{name}");
            match *name {
                "scanner_in_flight" => {
                    reg.gauge(name).set(0);
                }
                "scanner_probe_latency_us" => {
                    reg.histogram(name).record(1);
                }
                _ => reg.counter(name).inc(),
            }
        }
        validate_metrics_json(&reg.snapshot().to_json(), SCANNER_REQUIRED_SERIES)
            .expect("scanner profile snapshot");
        // A snapshot without the scanner series fails the profile.
        let empty = MetricsRegistry::new().snapshot().to_json();
        assert!(validate_metrics_json(&empty, SCANNER_REQUIRED_SERIES).is_err());
    }

    #[test]
    fn stream_profile_names_every_stream_series() {
        let reg = MetricsRegistry::new();
        for name in STREAM_REQUIRED_SERIES {
            assert!(name.starts_with("cache_sim_"), "{name}");
            match *name {
                "cache_sim_peak_live_ecs" => {
                    reg.gauge(name).set(1);
                }
                "cache_sim_peak_ecs_entries" | "cache_sim_peak_plain_entries" => {
                    reg.histogram(name).record(1);
                }
                _ => reg.counter(name).inc(),
            }
        }
        validate_metrics_json(&reg.snapshot().to_json(), STREAM_REQUIRED_SERIES)
            .expect("stream profile snapshot");
        let empty = MetricsRegistry::new().snapshot().to_json();
        assert!(validate_metrics_json(&empty, STREAM_REQUIRED_SERIES).is_err());
    }

    #[test]
    fn prof_profile_names_every_prof_series() {
        let reg = MetricsRegistry::new();
        for name in PROF_REQUIRED_SERIES {
            assert!(
                name.starts_with("prof_") || name.starts_with("lock_"),
                "{name}"
            );
            if name.ends_with("_wait_us") {
                reg.histogram(name).record(1);
            } else {
                reg.counter(name).inc();
            }
        }
        validate_metrics_json(&reg.snapshot().to_json(), PROF_REQUIRED_SERIES)
            .expect("prof profile snapshot");
        let empty = MetricsRegistry::new().snapshot().to_json();
        assert!(validate_metrics_json(&empty, PROF_REQUIRED_SERIES).is_err());
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(validate_metrics_json("[]", &[]).is_err());
        assert!(validate_metrics_json("{\"counters\": {}}", &[]).is_err());
        assert!(validate_metrics_json("{nope", &[]).is_err());
    }

    #[test]
    fn accepts_real_trace_and_counts_events() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        let root = t.start(0, &crate::EventKind::CacheProbe { outcome: "miss" });
        t.event(
            root,
            7,
            &crate::EventKind::Answered {
                rcode: "NOERROR".to_string(),
                latency_us: 7,
            },
        );
        let text = sink.lines().join("\n");
        assert_eq!(validate_trace(&text), Ok(2));
    }

    #[test]
    fn rejects_broken_traces() {
        assert!(validate_trace("").is_err(), "empty");
        assert!(validate_trace("{\"trace\":1}").is_err(), "missing fields");
        let bad_event = "{\"trace\":1,\"span\":1,\"parent\":0,\"at_us\":0,\"event\":\"nonsense\"}";
        assert!(validate_trace(bad_event).is_err(), "unknown event");
        let zero_trace = "{\"trace\":0,\"span\":1,\"parent\":0,\"at_us\":0,\"event\":\"shed\"}";
        assert!(validate_trace(zero_trace).is_err(), "disabled trace id");
        let self_parent = "{\"trace\":1,\"span\":2,\"parent\":2,\"at_us\":0,\"event\":\"shed\"}";
        assert!(validate_trace(self_parent).is_err(), "self-parent");
    }
}
