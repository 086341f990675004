//! Structured query tracing: typed span events with parent/child
//! causality, emitted as JSON-lines.
//!
//! A [`Tracer`] hands out [`TraceCtx`] handles. Starting a trace
//! ([`Tracer::start`]) emits the root span and returns its context;
//! [`Tracer::child`] emits an event as a child span (for phases that
//! themselves parent further events, like one upstream attempt), and
//! [`Tracer::event`] emits a leaf. Span and trace ids are allocated from
//! shared counters, so a single-threaded deterministic run always emits
//! the same ids — which is what lets the golden-file test pin the format.
//!
//! A disabled tracer (the [`Tracer::default`]) stores no sink: every call
//! is one `Option` branch and allocates nothing, so the engine's default
//! path is bit-identical with tracing off.
//!
//! One line per event:
//!
//! ```json
//! {"trace":1,"span":4,"parent":1,"at_us":2000000,"event":"upstream_attempt","attempt":1,"ecs":false}
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::escape;

/// Identifies one span within one trace. `trace == 0` means "tracing
/// disabled"; propagating a disabled context through child calls keeps
/// the whole path silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id (0 = disabled).
    pub trace: u64,
    /// This span's id within the trace stream.
    pub span: u64,
}

impl TraceCtx {
    /// The inert context: events against it are dropped.
    pub const DISABLED: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Whether events against this context will be emitted.
    pub fn is_enabled(&self) -> bool {
        self.trace != 0
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::DISABLED
    }
}

/// Where emitted JSON lines go.
pub trait TraceSink: Send + Sync {
    /// Receives one complete JSON line (no trailing newline).
    fn emit(&self, line: &str);
}

/// Collects lines in memory — tests and the experiment drivers read them
/// back with [`MemorySink::lines`].
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Everything emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace sink poisoned").clone()
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("trace sink poisoned")
            .push(line.to_string());
    }
}

/// The typed span events a resolution can emit (the event taxonomy —
/// see DESIGN.md "Telemetry").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Root span: a client query entered the resolver.
    QueryReceived {
        /// Queried name (presentation format).
        qname: String,
        /// Query type (e.g. `"A"`).
        qtype: String,
    },
    /// The cache was consulted.
    CacheProbe {
        /// `"hit"` or `"miss"`.
        outcome: &'static str,
    },
    /// What ECS the resolver decided to attach upstream.
    EcsDecision {
        /// `"forward"`, `"rewrite"`, `"strip"`, or `"none"`.
        decision: &'static str,
        /// The prefix sent, when one was.
        prefix: Option<String>,
    },
    /// One upstream send (child span: faults/retries nest under it).
    UpstreamAttempt {
        /// 0-based attempt number.
        attempt: u32,
        /// Whether the upstream query carried ECS.
        ecs: bool,
    },
    /// The retry policy scheduled another attempt after a backoff.
    RetryBackoff {
        /// The attempt being scheduled (0-based).
        attempt: u32,
        /// Backoff delay on the SimTime axis.
        delay_us: u64,
    },
    /// ECS was withdrawn from the upstream query (RFC 7871 §7.1.3).
    EcsWithdrawn {
        /// `"timeout"` or `"formerr"`.
        reason: &'static str,
    },
    /// A truncated reply triggered the RFC 7766 TCP fallback.
    TcpFallback,
    /// The transport ladder moved to its next rung (RFC 7766-style
    /// fallback generalized to the TCP/DoT ladder).
    TransportFallback {
        /// Transport the resolver was using (`"udp"`, `"tcp"`, ...).
        from: &'static str,
        /// Transport the resolver fell to.
        to: &'static str,
        /// `"truncated"` (TC bit) or `"exhausted"` (retry budget spent).
        reason: &'static str,
    },
    /// An upstream attempt failed.
    UpstreamFault {
        /// `"timeout"`, `"truncated"`, or `"rcode:<name>"`.
        kind: String,
    },
    /// This query joined an identical in-flight resolution.
    CoalescedJoin,
    /// Inserting into the cache forced evictions.
    EvictionPressure {
        /// Entries evicted by this insert.
        evicted: u64,
    },
    /// Terminal span: the client got its answer.
    Answered {
        /// Response RCODE (e.g. `"NOERROR"`, `"SERVFAIL"`).
        rcode: String,
        /// Client-observed latency on the SimTime axis.
        latency_us: u64,
    },
    /// Root span: the mass-scan pipeline launched a probe at a target.
    ScanProbe {
        /// Probed forwarder address (presentation format).
        target: String,
    },
    /// Terminal span for a probe: how it left the pipeline.
    ScanOutcome {
        /// `"answered"`, `"refused"`, `"retry_exhausted"`,
        /// `"shed_rate_limit"`, or `"shed_breaker"`.
        outcome: &'static str,
        /// Probe latency on the SimTime axis (0 for shed probes).
        latency_us: u64,
    },
    /// A per-target circuit breaker changed state.
    BreakerTransition {
        /// State left (`"closed"`, `"open"`, `"half_open"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A probe launch was deferred by a per-AS token bucket.
    RateLimited {
        /// How long the probe waited for a token.
        wait_us: u64,
    },
}

impl EventKind {
    /// The event's wire name (the `"event"` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryReceived { .. } => "query_received",
            EventKind::CacheProbe { .. } => "cache_probe",
            EventKind::EcsDecision { .. } => "ecs_decision",
            EventKind::UpstreamAttempt { .. } => "upstream_attempt",
            EventKind::RetryBackoff { .. } => "retry_backoff",
            EventKind::EcsWithdrawn { .. } => "ecs_withdrawn",
            EventKind::TcpFallback => "tcp_fallback",
            EventKind::TransportFallback { .. } => "transport_fallback",
            EventKind::UpstreamFault { .. } => "upstream_fault",
            EventKind::CoalescedJoin => "coalesced_join",
            EventKind::EvictionPressure { .. } => "eviction_pressure",
            EventKind::Answered { .. } => "answered",
            EventKind::ScanProbe { .. } => "scan_probe",
            EventKind::ScanOutcome { .. } => "scan_outcome",
            EventKind::BreakerTransition { .. } => "breaker_transition",
            EventKind::RateLimited { .. } => "rate_limited",
        }
    }

    /// Every wire name, for validators.
    pub const NAMES: &'static [&'static str] = &[
        "query_received",
        "cache_probe",
        "ecs_decision",
        "upstream_attempt",
        "retry_backoff",
        "ecs_withdrawn",
        "tcp_fallback",
        "transport_fallback",
        "upstream_fault",
        "coalesced_join",
        "eviction_pressure",
        "answered",
        "scan_probe",
        "scan_outcome",
        "breaker_transition",
        "rate_limited",
    ];

    /// The event-specific JSON fields, starting with `,` when non-empty.
    fn fields_json(&self) -> String {
        match self {
            EventKind::QueryReceived { qname, qtype } => {
                format!(
                    ",\"qname\":\"{}\",\"qtype\":\"{}\"",
                    escape(qname),
                    escape(qtype)
                )
            }
            EventKind::CacheProbe { outcome } => format!(",\"outcome\":\"{outcome}\""),
            EventKind::EcsDecision { decision, prefix } => match prefix {
                Some(p) => format!(",\"decision\":\"{decision}\",\"prefix\":\"{}\"", escape(p)),
                None => format!(",\"decision\":\"{decision}\""),
            },
            EventKind::UpstreamAttempt { attempt, ecs } => {
                format!(",\"attempt\":{attempt},\"ecs\":{ecs}")
            }
            EventKind::RetryBackoff { attempt, delay_us } => {
                format!(",\"attempt\":{attempt},\"delay_us\":{delay_us}")
            }
            EventKind::EcsWithdrawn { reason } => format!(",\"reason\":\"{reason}\""),
            EventKind::TcpFallback => String::new(),
            EventKind::TransportFallback { from, to, reason } => {
                format!(",\"from\":\"{from}\",\"to\":\"{to}\",\"reason\":\"{reason}\"")
            }
            EventKind::UpstreamFault { kind } => format!(",\"kind\":\"{}\"", escape(kind)),
            EventKind::CoalescedJoin => String::new(),
            EventKind::EvictionPressure { evicted } => format!(",\"evicted\":{evicted}"),
            EventKind::Answered { rcode, latency_us } => {
                format!(
                    ",\"rcode\":\"{}\",\"latency_us\":{latency_us}",
                    escape(rcode)
                )
            }
            EventKind::ScanProbe { target } => format!(",\"target\":\"{}\"", escape(target)),
            EventKind::ScanOutcome {
                outcome,
                latency_us,
            } => format!(",\"outcome\":\"{outcome}\",\"latency_us\":{latency_us}"),
            EventKind::BreakerTransition { from, to } => {
                format!(",\"from\":\"{from}\",\"to\":\"{to}\"")
            }
            EventKind::RateLimited { wait_us } => format!(",\"wait_us\":{wait_us}"),
        }
    }
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

/// Hands out trace contexts and emits events. Cloning shares the id
/// counters and sink. The default tracer is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that drops everything at the cost of one branch per call.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer emitting to `sink`. Ids start at 1 and are deterministic
    /// for a single-threaded run.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// Whether events will be emitted.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a new trace: emits `kind` as the root span (parent 0) and
    /// returns its context. Returns [`TraceCtx::DISABLED`] when disabled.
    pub fn start(&self, at_us: u64, kind: &EventKind) -> TraceCtx {
        let Some(inner) = &self.inner else {
            return TraceCtx::DISABLED;
        };
        let trace = inner.next_trace.fetch_add(1, Ordering::Relaxed);
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        emit(inner, trace, span, 0, at_us, kind);
        TraceCtx { trace, span }
    }

    /// Emits `kind` as a child span of `parent` and returns its context
    /// (so further events can nest under it). Silent when disabled or
    /// when `parent` is disabled.
    pub fn child(&self, parent: TraceCtx, at_us: u64, kind: &EventKind) -> TraceCtx {
        let Some(inner) = &self.inner else {
            return TraceCtx::DISABLED;
        };
        if !parent.is_enabled() {
            return TraceCtx::DISABLED;
        }
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        emit(inner, parent.trace, span, parent.span, at_us, kind);
        TraceCtx {
            trace: parent.trace,
            span,
        }
    }

    /// Emits `kind` as a leaf event under `parent`.
    pub fn event(&self, parent: TraceCtx, at_us: u64, kind: &EventKind) {
        let _ = self.child(parent, at_us, kind);
    }
}

fn emit(inner: &TracerInner, trace: u64, span: u64, parent: u64, at_us: u64, kind: &EventKind) {
    let line = format!(
        "{{\"trace\":{trace},\"span\":{span},\"parent\":{parent},\"at_us\":{at_us},\"event\":\"{}\"{}}}",
        kind.name(),
        kind.fields_json()
    );
    inner.sink.emit(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing_and_allocates_no_ids() {
        let t = Tracer::disabled();
        let ctx = t.start(
            0,
            &EventKind::QueryReceived {
                qname: "a.example".to_string(),
                qtype: "A".to_string(),
            },
        );
        assert_eq!(ctx, TraceCtx::DISABLED);
        assert!(!ctx.is_enabled());
        t.event(ctx, 1, &EventKind::CoalescedJoin);
        let child = t.child(ctx, 2, &EventKind::TcpFallback);
        assert_eq!(child, TraceCtx::DISABLED);
    }

    #[test]
    fn events_nest_with_parent_ids() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        let root = t.start(
            0,
            &EventKind::QueryReceived {
                qname: "www.example".to_string(),
                qtype: "A".to_string(),
            },
        );
        assert_eq!(root, TraceCtx { trace: 1, span: 1 });
        t.event(root, 5, &EventKind::CacheProbe { outcome: "miss" });
        let attempt = t.child(
            root,
            10,
            &EventKind::UpstreamAttempt {
                attempt: 0,
                ecs: true,
            },
        );
        t.event(
            attempt,
            20,
            &EventKind::UpstreamFault {
                kind: "timeout".to_string(),
            },
        );
        let lines = sink.lines();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"trace\":1,\"span\":1,\"parent\":0,\"at_us\":0,\"event\":\"query_received\",\"qname\":\"www.example\",\"qtype\":\"A\"}"
        );
        assert_eq!(
            lines[3],
            "{\"trace\":1,\"span\":4,\"parent\":3,\"at_us\":20,\"event\":\"upstream_fault\",\"kind\":\"timeout\"}"
        );
        // Every line is valid JSON with the envelope fields.
        for line in &lines {
            let v = crate::json::parse(line).expect("valid JSON line");
            let obj = v.as_object().unwrap();
            for key in ["trace", "span", "parent", "at_us", "event"] {
                assert!(obj.contains_key(key), "missing {key} in {line}");
            }
        }
    }

    #[test]
    fn trace_ids_advance_per_query() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::new(sink.clone());
        let a = t.start(0, &EventKind::TcpFallback);
        let b = t.start(1, &EventKind::TcpFallback);
        assert_eq!(a.trace, 1);
        assert_eq!(b.trace, 2);
        assert_eq!(sink.lines().len(), 2);
    }

    #[test]
    fn every_kind_name_is_listed() {
        let kinds = [
            EventKind::QueryReceived {
                qname: String::new(),
                qtype: String::new(),
            },
            EventKind::CacheProbe { outcome: "hit" },
            EventKind::EcsDecision {
                decision: "forward",
                prefix: None,
            },
            EventKind::UpstreamAttempt {
                attempt: 0,
                ecs: false,
            },
            EventKind::RetryBackoff {
                attempt: 1,
                delay_us: 2,
            },
            EventKind::EcsWithdrawn { reason: "timeout" },
            EventKind::TcpFallback,
            EventKind::TransportFallback {
                from: "udp",
                to: "tcp",
                reason: "truncated",
            },
            EventKind::UpstreamFault {
                kind: String::new(),
            },
            EventKind::CoalescedJoin,
            EventKind::EvictionPressure { evicted: 1 },
            EventKind::Answered {
                rcode: String::new(),
                latency_us: 0,
            },
            EventKind::ScanProbe {
                target: String::new(),
            },
            EventKind::ScanOutcome {
                outcome: "answered",
                latency_us: 0,
            },
            EventKind::BreakerTransition {
                from: "closed",
                to: "open",
            },
            EventKind::RateLimited { wait_us: 1 },
        ];
        assert_eq!(kinds.len(), EventKind::NAMES.len());
        for kind in &kinds {
            assert!(EventKind::NAMES.contains(&kind.name()), "{}", kind.name());
        }
    }
}
