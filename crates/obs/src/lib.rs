//! Unified telemetry for the ECS study.
//!
//! Every crate in the workspace records into the same three primitives:
//!
//! * **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!   log-linear histograms with cheap atomic recording. Registries are
//!   cheap to clone (shared handles), and their [`MetricsSnapshot`]s merge
//!   commutatively and associatively — counters add, gauges take the max,
//!   histograms add bucket-wise — so folding per-shard or per-resolver
//!   snapshots in any order (or from any parallelism) yields the same
//!   result.
//! * **Tracing** ([`Tracer`]): every resolution gets a trace of typed span
//!   events with parent/child causality, emitted as JSON-lines through a
//!   pluggable [`TraceSink`]. A disabled tracer ([`Tracer::disabled`], the
//!   default) costs one branch per would-be event, so the deterministic
//!   engine stays bit-identical when telemetry is off.
//! * **Exporters**: [`MetricsSnapshot::to_prometheus`] (Prometheus text
//!   exposition) and [`MetricsSnapshot::to_json`], plus the `obs-validate`
//!   binary ([`validate`]) that checks exported snapshots and trace files
//!   in CI.
//!
//! The crate is std-only (no dependencies) so every layer — including
//! `netsim` at the bottom of the stack — can record without dependency
//! cycles. Durations are recorded as plain `u64` microseconds, matching
//! the simulator's `SimTime` axis.

pub mod analyze;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod trace;
pub mod validate;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use prof::{LockMonitor, ProfileSnapshot, StackStats, StageProfiler};
pub use trace::{EventKind, MemorySink, TraceCtx, TraceSink, Tracer};
