//! ZDNS-style mass-scan harness for dataset (ii): a bounded-concurrency
//! probe pipeline with retry budgets, per-AS rate limits, and circuit
//! breakers, driven over `netsim`'s deterministic event loop or, through
//! `netsim::SocketHost`, a real socket.
//!
//! The paper's second dataset comes from probing millions of open DNS
//! forwarders on the real Internet. Reproducing that responsibly means a
//! scan engine whose *robustness controls* are first-class and tested:
//!
//! * [`slots`] — the bounded in-flight window. A fixed-size,
//!   generation-stamped slot table is the only per-probe state; there is
//!   no queue behind it, so memory is O(window), not O(probes).
//! * [`budget`] — per-probe retry/timeout budgets with exponential
//!   backoff and seeded jitter (same seed → byte-identical timers).
//! * [`ratelimit`] — per-AS GCRA token buckets. Pure integer arithmetic:
//!   a probe's launch time is *booked*, never polled.
//! * [`breaker`] — per-target circuit breakers
//!   (closed → open → half-open) tripping on consecutive
//!   timeout/REFUSED, so dead forwarders stop burning retry budget.
//! * [`pipeline`] — the [`ScannerNode`] composing the four into a
//!   `netsim::Node`, with `scanner_*` metrics and trace spans: the one
//!   implementation of the probe lifecycle, whichever loop steps it.
//! * [`topology`] — forwarder-population worlds (healthy / dead /
//!   refusing / lossy populations over the fault layer) and the sliced
//!   run loop that drains authoritative query logs into a bounded
//!   capture.
//! * [`capture`] — turning captured authoritative traffic into the same
//!   per-resolver streams the §6 classifiers consume.
//!
//! Every probe leaves through exactly one door — answered,
//! retry-exhausted, shed by rate limit, shed by breaker, or (only when a
//! live run hits its wall-clock deadline mid-window) aborted — and the
//! report reconciles `probes == answered + retry_exhausted +
//! shed_rate_limit + shed_breaker + aborted`: no silent drops.

pub mod breaker;
pub mod budget;
pub mod capture;
pub mod pipeline;
pub mod ratelimit;
pub mod slots;
pub mod topology;

pub use breaker::{BreakerState, CircuitBreaker};
pub use budget::RetryBudget;
pub use capture::ScanCapture;
pub use pipeline::{
    Probe, ProbeFeed, ProbeOutcome, ProbeTarget, RoundRobinFeed, ScanConfig, ScanStats, ScannerNode,
};
pub use ratelimit::{AsRateLimiter, TokenBucket};
pub use slots::{SlotRef, SlotTable};
pub use topology::{
    run_scan, run_scan_with, ForwarderChainSpec, ForwarderHealth, ScanReport, ScanWorld,
};
