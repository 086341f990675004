//! The probe pipeline as a [`netsim::Node`]: a ZDNS-style lookup engine
//! with a bounded in-flight window, per-probe retry budgets, per-AS rate
//! limits, and per-target circuit breakers.
//!
//! The pipeline pulls probes from a [`ProbeFeed`] only when a slot is
//! free — the slot table is the *only* per-probe state, so a 10^6-probe
//! scan holds exactly `window` probes of state at any instant. Every
//! probe leaves the pipeline through exactly one of four doors, which is
//! the accounting identity the reports reconcile against:
//!
//! ```text
//! probes = answered + retry_exhausted + shed_rate_limit + shed_breaker
//! ```

use std::collections::HashMap;
use std::io::Write as _;
use std::net::IpAddr;

use dns_wire::{Message, MessageView, Name, Question, Rcode};
use netsim::{Ctx, Node, NodeId, Packet, SimDuration, SimTime};
use obs::{EventKind, MetricValue, MetricsRegistry, MetricsSnapshot, TraceCtx, Tracer};

use crate::breaker::CircuitBreaker;
use crate::budget::RetryBudget;
use crate::ratelimit::AsRateLimiter;
use crate::slots::{SlotRef, SlotTable};

/// A probe whose rate-limit wait would exceed this is shed as rate-limited
/// instead of parking in the window forever.
const MAX_RATE_DELAY: SimDuration = SimDuration::from_secs(30);

/// One probe-able open forwarder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTarget {
    /// The forwarder's address (breaker key, and encoded into qnames).
    pub addr: IpAddr,
    /// Its simulation node.
    pub node: NodeId,
    /// The AS it sits in (rate-limit key).
    pub asn: u32,
}

/// One unit of work for the pipeline.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Where to aim.
    pub target: ProbeTarget,
    /// Explicit qname; `None` auto-generates a unique
    /// `p<seq>.x<addr>.<zone>` name.
    pub qname: Option<Name>,
    /// Do not launch before this instant (scheduled scans; `ZERO` means
    /// as soon as the window and rate limiter allow).
    pub not_before: SimTime,
}

impl Probe {
    /// An as-soon-as-possible probe with an auto-generated qname.
    pub fn at(target: ProbeTarget) -> Self {
        Probe {
            target,
            qname: None,
            not_before: SimTime::ZERO,
        }
    }
}

/// Streams probes into the pipeline. Implementations must be bounded by
/// *population* state (target lists, counters), never per-probe state —
/// the feed is pulled one probe at a time as slots free up.
pub trait ProbeFeed: 'static {
    /// The next probe, or `None` when the scan is complete.
    fn next_probe(&mut self) -> Option<Probe>;
}

impl<F: FnMut() -> Option<Probe> + 'static> ProbeFeed for F {
    fn next_probe(&mut self) -> Option<Probe> {
        self()
    }
}

/// Round-robins `total` probes across a target population — the dataset
/// (ii) shape (every open forwarder probed repeatedly) in O(population)
/// memory.
pub struct RoundRobinFeed {
    targets: Vec<ProbeTarget>,
    total: u64,
    issued: u64,
}

impl RoundRobinFeed {
    /// `total` probes spread over `targets` in round-robin order.
    pub fn new(targets: Vec<ProbeTarget>, total: u64) -> Self {
        RoundRobinFeed {
            targets,
            total,
            issued: 0,
        }
    }
}

impl ProbeFeed for RoundRobinFeed {
    fn next_probe(&mut self) -> Option<Probe> {
        if self.issued >= self.total || self.targets.is_empty() {
            return None;
        }
        let t = self.targets[(self.issued % self.targets.len() as u64) as usize];
        self.issued += 1;
        Some(Probe::at(t))
    }
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// In-flight window: the fixed slot-table size.
    pub window: usize,
    /// Per-probe retry/timeout budget.
    pub budget: RetryBudget,
    /// Per-AS launch rate (tokens per second).
    pub rate_per_sec: u64,
    /// Per-AS burst depth.
    pub burst: u64,
    /// Consecutive timeout/REFUSED failures that open a target's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before admitting a canary.
    pub breaker_cooldown: SimDuration,
    /// Probe zone apex; auto-generated qnames, one fresh name per probe,
    /// live under it.
    pub zone: String,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            window: 256,
            budget: RetryBudget::default(),
            rate_per_sec: 200,
            burst: 32,
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(120),
            zone: "scan.example".to_string(),
        }
    }
}

/// How a probe that held a slot left the pipeline. Shed probes never take
/// a slot; `fill` accounts them where it sheds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// A response arrived (any RCODE).
    Answered,
    /// Every attempt in the budget timed out.
    RetryExhausted,
}

/// Pipeline counters. `Eq` so determinism tests can compare whole runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Probes pulled from the feed (entered the pipeline).
    pub probes: u64,
    /// Datagrams sent (first attempts + retries).
    pub attempts: u64,
    /// Probes that got a response (any RCODE).
    pub answered: u64,
    /// Subset of `answered` with RCODE REFUSED (breaker failures).
    pub refused: u64,
    /// Subset of `answered` with RCODE SERVFAIL.
    pub servfail: u64,
    /// Retransmissions (attempts beyond each probe's first).
    pub retries: u64,
    /// Probes whose whole retry budget timed out.
    pub retry_exhausted: u64,
    /// Probes shed because the rate-limit wait exceeded the cap.
    pub shed_rate_limit: u64,
    /// Probes shed by an open breaker.
    pub shed_breaker: u64,
    /// Probes abandoned by a mid-window shutdown (live mode only; the
    /// simulated pipeline always drains).
    pub aborted: u64,
    /// Probes that parked in the window waiting for a token.
    pub rate_deferrals: u64,
    /// Breaker trips (transitions into open).
    pub breaker_opens: u64,
    /// High-water mark of the in-flight window.
    pub max_in_flight: u64,
}

impl ScanStats {
    /// Probes accounted through one of the terminal doors.
    pub fn accounted(&self) -> u64 {
        self.answered
            + self.retry_exhausted
            + self.shed_rate_limit
            + self.shed_breaker
            + self.aborted
    }

    /// The no-silent-drops identity. Holds exactly when the window has
    /// drained (every pulled probe reached a door).
    pub fn reconciles(&self) -> bool {
        self.probes == self.accounted()
    }
}

/// The one `scanner_*` series that has to be recorded as it happens,
/// created by [`ScannerNode::enable_metrics`]; every other series is a
/// [`ScanStats`] field read when a snapshot is asked for. Pure
/// observation: recording never touches the RNG or the event queue.
struct ScannerMetrics {
    registry: MetricsRegistry,
    latency: obs::Histogram,
}

enum SlotState {
    /// Parked: waiting for its launch instant (rate-limit token and/or
    /// `not_before` schedule).
    Waiting,
    /// Sent; the armed timer is attempt `attempt`'s timeout.
    InFlight,
}

struct ProbeSlot {
    target: ProbeTarget,
    question: Question,
    attempt: u32,
    first_sent: SimTime,
    state: SlotState,
    trace: TraceCtx,
}

/// The scan pipeline as a simulation node: adding it to a
/// [`netsim::Simulation`] schedules its first pump, then drive it with
/// `run` (or `run_until` slices — see [`crate::run_scan`]).
pub struct ScannerNode {
    cfg: ScanConfig,
    feed: Box<dyn ProbeFeed>,
    slots: SlotTable<ProbeSlot>,
    limiter: AsRateLimiter,
    breakers: HashMap<IpAddr, CircuitBreaker>,
    /// Each auto-named target's `x{addr}.{zone}` qname suffix: one entry
    /// per target ever probed, like `breakers`.
    suffixes: HashMap<IpAddr, Name>,
    stats: ScanStats,
    probe_seq: u64,
    feed_done: bool,
    metrics: Option<ScannerMetrics>,
    tracer: Tracer,
    /// Sim-time stage profiler, off until
    /// [`ScannerNode::enable_profiling`]: records on the [`SimTime`]
    /// axis, so the profile is bit-identical for a fixed seed. Pure
    /// observation, like metrics and tracing.
    profiler: obs::StageProfiler,
}

/// The pump timer token: distinct from every slot token because slot
/// generations start at 1 (tokens ≥ 2^16).
const PUMP: u64 = 0;

impl ScannerNode {
    /// A pipeline over `feed` with `cfg` knobs.
    pub fn new(cfg: ScanConfig, feed: impl ProbeFeed) -> Self {
        let window = cfg.window.max(1);
        let limiter = AsRateLimiter::new(cfg.rate_per_sec, cfg.burst);
        ScannerNode {
            slots: SlotTable::new(window),
            limiter,
            cfg,
            feed: Box::new(feed),
            breakers: HashMap::new(),
            suffixes: HashMap::new(),
            stats: ScanStats::default(),
            probe_seq: 0,
            feed_done: false,
            metrics: None,
            tracer: Tracer::disabled(),
            profiler: obs::StageProfiler::off(),
        }
    }

    /// Starts recording the probe-latency histogram; call before the run,
    /// since the counters of a snapshot are the node's cumulative
    /// [`ScanStats`].
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            let registry = MetricsRegistry::new();
            let latency = registry.histogram("scanner_probe_latency_us");
            self.metrics = Some(ScannerMetrics { registry, latency });
        }
    }

    /// Snapshot of the `scanner_*` series (empty if metrics are off): the
    /// ten counters are the [`ScanStats`] fields and the gauge is the live
    /// slot count, so the series and the struct agree by construction.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(m) = &self.metrics else {
            return MetricsSnapshot::default();
        };
        let s = &self.stats;
        let mut snap = m.registry.snapshot();
        for (name, value) in [
            ("scanner_probes_total", s.probes),
            ("scanner_attempts_total", s.attempts),
            ("scanner_answered_total", s.answered),
            ("scanner_refused_total", s.refused),
            ("scanner_retries_total", s.retries),
            ("scanner_retry_exhausted_total", s.retry_exhausted),
            ("scanner_shed_rate_limit_total", s.shed_rate_limit),
            ("scanner_shed_breaker_total", s.shed_breaker),
            ("scanner_breaker_opens_total", s.breaker_opens),
            ("scanner_rate_deferrals_total", s.rate_deferrals),
        ] {
            snap.series.insert(name.into(), MetricValue::Counter(value));
        }
        let live = self.slots.live() as u64;
        snap.series
            .insert("scanner_in_flight".into(), MetricValue::Gauge(live));
        snap
    }

    /// Emits `scan_probe`/`scan_outcome`/`breaker_transition`/
    /// `rate_limited` spans to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Starts sim-time stage profiling: probe outcomes and wait classes
    /// accumulate under `scanner;...` stacks with [`SimTime`] durations,
    /// so for a fixed seed the profile is bit-identical run to run.
    pub fn enable_profiling(&mut self) {
        if !self.profiler.is_on() {
            self.profiler = obs::StageProfiler::new();
        }
    }

    /// The accumulated stage profile (empty if profiling is off).
    pub fn profile_snapshot(&self) -> obs::ProfileSnapshot {
        self.profiler.snapshot()
    }

    /// Counters so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Probes currently holding a slot (parked + in flight).
    pub fn in_flight(&self) -> usize {
        self.slots.live()
    }

    /// Distinct ASes the rate limiter has tracked.
    pub fn ases_tracked(&self) -> usize {
        self.limiter.tracked()
    }

    /// Distinct targets with an instantiated breaker (ever probed).
    pub fn breakers_tracked(&self) -> usize {
        self.breakers.len()
    }

    /// Whether the feed is exhausted and the window has drained.
    pub fn is_done(&self) -> bool {
        self.feed_done && self.slots.live() == 0
    }

    /// Hands the node a new feed; counters stay cumulative. The next pump
    /// starts pulling from it.
    pub fn set_feed(&mut self, feed: impl ProbeFeed) {
        self.feed = Box::new(feed);
        self.feed_done = false;
    }

    /// The fifth door, for a driver that stops mid-window (a wall-clock
    /// deadline; the simulated pipeline always drains): every occupied
    /// slot, parked or in flight, is accounted `aborted` and freed
    /// without pulling the feed. Their armed timers die on the slot
    /// generation. A half-open breaker loses its canary here, so it goes
    /// back to open with the cooldown served and admits the next probe.
    pub fn abort_in_flight(&mut self, now: SimTime) {
        let live: Vec<SlotRef> = self.slots.iter().map(|(r, _)| r).collect();
        for r in live {
            let slot = self.slots.remove(r).expect("listed as live");
            self.stats.aborted += 1;
            let latency = now.since(slot.first_sent).as_micros();
            self.outcome_trace(slot.trace, now, "aborted", latency);
            self.profiler
                .record(&["scanner", "probe", "aborted"], latency);
            self.breaker_call(slot.target.addr, slot.trace, now, |b| b.release_canary());
        }
        self.note_in_flight();
    }

    fn note_in_flight(&mut self) {
        let live = self.slots.live() as u64;
        self.stats.max_in_flight = self.stats.max_in_flight.max(live);
    }

    fn breaker_call<R>(
        &mut self,
        addr: IpAddr,
        trace: TraceCtx,
        now: SimTime,
        f: impl FnOnce(&mut CircuitBreaker) -> R,
    ) -> R {
        let threshold = self.cfg.breaker_threshold;
        let cooldown = self.cfg.breaker_cooldown;
        let b = self
            .breakers
            .entry(addr)
            .or_insert_with(|| CircuitBreaker::new(threshold, cooldown));
        let (before, opens_before) = (b.state(), b.opens);
        let out = f(b);
        let (after, opens_after) = (b.state(), b.opens);
        let opened = opens_after - opens_before;
        if before != after {
            self.tracer.event(
                trace,
                now.as_micros(),
                &EventKind::BreakerTransition {
                    from: before.name(),
                    to: after.name(),
                },
            );
        }
        self.stats.breaker_opens += opened;
        out
    }

    /// The qname for the next auto-named probe at `target`, unique per
    /// probe: `p{seq}` under the target's `x{addr}.{zone}` suffix, which
    /// is built on the target's first auto-named probe.
    fn auto_qname(&mut self, target: &ProbeTarget) -> Name {
        let seq = self.probe_seq;
        self.probe_seq += 1;
        let zone = &self.cfg.zone;
        let suffix = self.suffixes.entry(target.addr).or_insert_with(|| {
            let addr = target.addr.to_string().replace(['.', ':'], "-");
            Name::from_ascii(&format!("x{addr}.{zone}")).expect("probe suffix must parse")
        });
        // `p` and at most 20 digits, written on the stack.
        let mut label = [0u8; 21];
        let mut free = &mut label[..];
        write!(free, "p{seq}").expect("a u64 label fits");
        let len = 21 - free.len();
        let label = std::str::from_utf8(&label[..len]).expect("ASCII digits");
        suffix.child(label).expect("probe qname must fit")
    }

    /// Pulls probes while slots are free, shedding or parking as the
    /// breakers and rate limiter dictate.
    fn fill(&mut self, ctx: &mut Ctx) {
        while !self.slots.is_full() {
            let Some(probe) = self.feed.next_probe() else {
                self.feed_done = true;
                return;
            };
            let now = ctx.now();
            self.stats.probes += 1;
            let trace = if self.tracer.is_enabled() {
                self.tracer.start(
                    now.as_micros(),
                    &EventKind::ScanProbe {
                        target: probe.target.addr.to_string(),
                    },
                )
            } else {
                TraceCtx::DISABLED
            };

            // Door 4: breaker open (or half-open canary already out).
            if !self.breaker_call(probe.target.addr, trace, now, |b| b.allow(now)) {
                self.stats.shed_breaker += 1;
                self.outcome_trace(trace, now, "shed_breaker", 0);
                self.profiler
                    .record(&["scanner", "probe", "shed_breaker"], 0);
                continue;
            }

            // Door 3: the per-AS token is too far out.
            let token_at = self.limiter.earliest(probe.target.asn, now);
            let launch_at = token_at.max(probe.not_before);
            if token_at.since(now) > MAX_RATE_DELAY {
                self.stats.shed_rate_limit += 1;
                self.outcome_trace(trace, now, "shed_rate_limit", 0);
                self.profiler
                    .record(&["scanner", "probe", "shed_rate_limit"], 0);
                continue;
            }
            self.limiter.reserve(probe.target.asn, now);

            let qname = match probe.qname {
                Some(n) => n,
                None => self.auto_qname(&probe.target),
            };
            let slot = ProbeSlot {
                target: probe.target,
                question: Question::a(qname),
                attempt: 0,
                first_sent: launch_at,
                state: SlotState::Waiting,
                trace,
            };
            let r = self.slots.insert(slot).expect("checked not full");
            self.note_in_flight();
            if launch_at > now {
                if token_at > now {
                    self.stats.rate_deferrals += 1;
                    self.tracer.event(
                        trace,
                        now.as_micros(),
                        &EventKind::RateLimited {
                            wait_us: token_at.since(now).as_micros(),
                        },
                    );
                    self.profiler.record(
                        &["scanner", "wait", "rate_token"],
                        token_at.since(now).as_micros(),
                    );
                }
                ctx.set_timer(launch_at.since(now), r.token());
            } else {
                self.launch(r, ctx);
            }
        }
    }

    /// Sends the slot's current attempt and arms its timeout.
    fn launch(&mut self, r: SlotRef, ctx: &mut Ctx) {
        let timeout = {
            let Some(slot) = self.slots.get(r) else {
                return;
            };
            self.cfg.budget.timeout_with_jitter(slot.attempt, ctx.rng())
        };
        let slot = self.slots.get_mut(r).expect("launch on live slot");
        slot.state = SlotState::InFlight;
        if slot.attempt == 0 {
            slot.first_sent = ctx.now();
        }
        let q = Message::query(r.index, slot.question.clone());
        let to = slot.target.node;
        self.stats.attempts += 1;
        if let Ok(bytes) = q.to_bytes() {
            ctx.send(to, bytes);
        }
        ctx.set_timer(timeout, r.token());
    }

    fn outcome_trace(&self, trace: TraceCtx, now: SimTime, outcome: &'static str, latency_us: u64) {
        self.tracer.event(
            trace,
            now.as_micros(),
            &EventKind::ScanOutcome {
                outcome,
                latency_us,
            },
        );
    }

    /// Frees the slot and runs the terminal accounting for `outcome`.
    fn finish(&mut self, r: SlotRef, outcome: ProbeOutcome, rcode: Option<Rcode>, ctx: &mut Ctx) {
        let Some(slot) = self.slots.remove(r) else {
            return;
        };
        let now = ctx.now();
        let latency = now.since(slot.first_sent);
        match outcome {
            ProbeOutcome::Answered => {
                self.stats.answered += 1;
                if let Some(m) = &self.metrics {
                    m.latency.record(latency.as_micros());
                }
                let refused = rcode == Some(Rcode::Refused);
                if refused {
                    self.stats.refused += 1;
                } else if rcode == Some(Rcode::ServFail) {
                    self.stats.servfail += 1;
                }
                let addr = slot.target.addr;
                self.breaker_call(addr, slot.trace, now, |b| {
                    if refused {
                        b.record_failure(now)
                    } else {
                        b.record_success()
                    }
                });
                self.outcome_trace(
                    slot.trace,
                    now,
                    if refused { "refused" } else { "answered" },
                    latency.as_micros(),
                );
                self.profiler.record(
                    &[
                        "scanner",
                        "probe",
                        if refused { "refused" } else { "answered" },
                    ],
                    latency.as_micros(),
                );
            }
            ProbeOutcome::RetryExhausted => {
                self.stats.retry_exhausted += 1;
                let addr = slot.target.addr;
                self.breaker_call(addr, slot.trace, now, |b| b.record_failure(now));
                self.outcome_trace(slot.trace, now, "retry_exhausted", latency.as_micros());
                self.profiler.record(
                    &["scanner", "probe", "retry_exhausted"],
                    latency.as_micros(),
                );
            }
        }
        self.note_in_flight();
        self.fill(ctx);
    }
}

impl Node for ScannerNode {
    /// Kicks the pipeline: schedules the first pump.
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, PUMP);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Ok(msg) = MessageView::parse(&pkt.payload) else {
            return;
        };
        if !msg.is_response() {
            return;
        }
        // The DNS id is the slot index, which later probes reuse, so the
        // question is the only thing that tells a late reply for an
        // earlier occupant from the current probe's: a reply must echo
        // the whole question (name, type and class), and one that carries
        // no question is rejected. The sender check rejects anyone but
        // the target that was asked.
        let Some((r, slot)) = self.slots.get_index(msg.id()) else {
            return;
        };
        if pkt.src != slot.target.node || !msg.asks(&slot.question) {
            return;
        }
        if matches!(slot.state, SlotState::Waiting) {
            return; // cannot be ours: nothing sent yet
        }
        self.finish(r, ProbeOutcome::Answered, Some(msg.rcode()), ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == PUMP {
            self.fill(ctx);
            return;
        }
        let r = SlotRef::from_token(token);
        let Some(slot) = self.slots.get_mut(r) else {
            return; // stale: the probe completed and the slot moved on
        };
        match slot.state {
            SlotState::Waiting => self.launch(r, ctx),
            SlotState::InFlight => {
                let attempt = slot.attempt + 1;
                if self.cfg.budget.allows(attempt) {
                    slot.attempt = attempt;
                    let trace = slot.trace;
                    let delay_us = self.cfg.budget.timeout_for(attempt).as_micros();
                    self.stats.retries += 1;
                    self.tracer.event(
                        trace,
                        ctx.now().as_micros(),
                        &EventKind::RetryBackoff { attempt, delay_us },
                    );
                    self.profiler
                        .record(&["scanner", "wait", "retry_backoff"], delay_us);
                    self.launch(r, ctx);
                } else {
                    self.finish(r, ProbeOutcome::RetryExhausted, None, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_feed_is_bounded_and_exact() {
        let t = |i: u8| ProbeTarget {
            addr: IpAddr::V4(std::net::Ipv4Addr::new(100, 64, i, 1)),
            node: NodeId(i as usize),
            asn: i as u32,
        };
        let mut feed = RoundRobinFeed::new(vec![t(0), t(1), t(2)], 7);
        let mut seen = Vec::new();
        while let Some(p) = feed.next_probe() {
            seen.push(p.target.node.0);
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2, 0]);
        assert!(feed.next_probe().is_none(), "stays exhausted");
    }

    fn target(node: usize) -> ProbeTarget {
        ProbeTarget {
            addr: IpAddr::V4(std::net::Ipv4Addr::new(100, 64, 0, node as u8)),
            node: NodeId(node),
            asn: 64500,
        }
    }

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    #[test]
    fn abort_in_flight_empties_the_window_through_the_aborted_door() {
        use rand::SeedableRng;
        let cfg = ScanConfig {
            window: 4,
            ..ScanConfig::default()
        };
        let forwarder = target(1);
        let mut node = ScannerNode::new(cfg, RoundRobinFeed::new(vec![forwarder], 10));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let book = netsim::AddressBook::new();
        let mut actions = Vec::new();
        let at = |s| SimTime::from_secs(s);

        let mut ctx = Ctx::new(at(0), NodeId(0), &book, &mut actions, &mut rng);
        node.on_timer(PUMP, &mut ctx);
        assert_eq!(node.in_flight(), 4, "window full");
        node.abort_in_flight(at(1));
        let stats = node.stats();
        assert_eq!((stats.probes, stats.aborted), (4, 4));
        assert!(stats.reconciles(), "{stats:?}");
        assert_eq!(node.in_flight(), 0);
        assert!(!node.is_done(), "the feed was not pulled to its end");

        // A new feed, pumped: the node carries on, counters cumulative.
        node.set_feed(RoundRobinFeed::new(vec![forwarder], 2));
        actions.clear();
        let mut ctx = Ctx::new(at(2), NodeId(0), &book, &mut actions, &mut rng);
        node.on_timer(PUMP, &mut ctx);
        let sent: Vec<Vec<u8>> = actions
            .drain(..)
            .filter_map(|a| match a {
                netsim::Action::Send { payload, .. } => Some(payload),
                netsim::Action::Timer { .. } => None,
            })
            .collect();
        assert_eq!(sent.len(), 2);
        for query in sent {
            let reply = Message::response_to(&Message::from_bytes(&query).unwrap());
            let pkt = Packet {
                src: forwarder.node,
                dst: NodeId(0),
                payload: reply.to_bytes().unwrap(),
            };
            let mut ctx = Ctx::new(at(3), NodeId(0), &book, &mut actions, &mut rng);
            node.on_packet(pkt, &mut ctx);
        }
        let stats = node.stats();
        assert_eq!((stats.probes, stats.aborted, stats.answered), (6, 4, 2));
        assert!(stats.reconciles() && node.is_done(), "{stats:?}");
    }

    #[test]
    fn auto_names_are_unique_per_probe_and_suffixes_are_one_per_target() {
        use rand::SeedableRng;
        let targets = vec![target(1), target(2), target(3)];
        // A burst that launches all 60 at once.
        let cfg = ScanConfig {
            burst: 60,
            ..ScanConfig::default()
        };
        let mut node = ScannerNode::new(cfg, RoundRobinFeed::new(targets, 60));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let book = netsim::AddressBook::new();
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(0), &book, &mut actions, &mut rng);
        node.on_timer(PUMP, &mut ctx);
        let qnames: Vec<Name> = actions
            .iter()
            .filter_map(|a| match a {
                netsim::Action::Send { payload, .. } => Some(
                    Message::from_bytes(payload).unwrap().questions[0]
                        .name
                        .clone(),
                ),
                netsim::Action::Timer { .. } => None,
            })
            .collect();
        assert_eq!(qnames.len(), 60);
        assert_eq!(qnames[0], name("p0.x100-64-0-1.scan.example"));
        assert_eq!(qnames[59], name("p59.x100-64-0-3.scan.example"));
        let distinct: std::collections::HashSet<&Name> = qnames.iter().collect();
        assert_eq!(distinct.len(), 60, "one fresh name per probe");
        assert_eq!((node.suffixes.len(), node.breakers.len()), (3, 3));
    }

    /// Answers every query it gets, half a second late. With
    /// `forge_aaaa` it first sends, at once, a REFUSED under the query's
    /// id for the same name's AAAA.
    struct SlowForwarder {
        held: Vec<(NodeId, Vec<u8>)>,
        forge_aaaa: bool,
    }

    impl Node for SlowForwarder {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            let query = Message::from_bytes(&pkt.payload).unwrap();
            if self.forge_aaaa {
                let mut aaaa = query.clone();
                aaaa.questions[0].qtype = dns_wire::RecordType::Aaaa;
                let mut forged = Message::response_to(&aaaa);
                forged.rcode = Rcode::Refused;
                ctx.send(pkt.src, forged.to_bytes().unwrap());
            }
            let reply = Message::response_to(&query);
            self.held.push((pkt.src, reply.to_bytes().unwrap()));
            ctx.set_timer(SimDuration::from_millis(500), 0);
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
            for (to, bytes) in self.held.drain(..) {
                ctx.send(to, bytes);
            }
        }
    }

    /// Sends the scanner a REFUSED for slot 0's question, unasked.
    struct Spoofer {
        scanner: NodeId,
        qname: Name,
    }

    impl Node for Spoofer {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
            let mut forged =
                Message::response_to(&Message::query(0, Question::a(self.qname.clone())));
            forged.rcode = Rcode::Refused;
            ctx.send(self.scanner, forged.to_bytes().unwrap());
        }
    }

    /// A forged reply lands while the real answer is still 400 ms away:
    /// one for the probe's question from a node that was not asked, and
    /// one from the target under the probe's id and name but for AAAA.
    /// Neither completes the A probe.
    #[test]
    fn answer_from_a_node_that_was_not_asked_is_ignored() {
        for (forgery, forge_aaaa) in [("unasked node", false), ("AAAA from the target", true)] {
            let pos = netsim::GeoPoint::new(52.37, 4.90);
            let mut sim = netsim::Simulation::new(7);
            let forwarder = SlowForwarder {
                held: Vec::new(),
                forge_aaaa,
            };
            let forwarder = sim.add_node(forwarder, target(0).addr, pos);
            let qname = name("p0.spoof.scan.example");
            let probe = Probe {
                qname: Some(qname.clone()),
                ..Probe::at(target(forwarder.0))
            };
            let mut feed = Some(probe);
            let scanner = sim.add_node(
                ScannerNode::new(ScanConfig::default(), move || feed.take()),
                "203.0.113.250".parse().unwrap(),
                pos,
            );
            if !forge_aaaa {
                let spoofer = sim.add_node(
                    Spoofer { scanner, qname },
                    "203.0.113.66".parse().unwrap(),
                    pos,
                );
                sim.inject_timer(spoofer, SimDuration::from_millis(100), 0);
            }
            sim.run_until(SimTime::from_micros(300_000));
            let node = sim.node_mut::<ScannerNode>(scanner).unwrap();
            assert_eq!(
                node.in_flight(),
                1,
                "{forgery}: the forgery completed nothing"
            );
            assert_eq!(node.stats().answered, 0, "{forgery}");

            sim.run();
            let node = sim.node_mut::<ScannerNode>(scanner).unwrap();
            let stats = node.stats();
            assert_eq!(
                (stats.answered, stats.refused),
                (1, 0),
                "{forgery}: {stats:?}"
            );
            assert_eq!(stats.attempts, 1, "{forgery}: answered before any retry");
            assert!(stats.reconciles() && node.is_done(), "{forgery}: {stats:?}");
        }
    }

    #[test]
    fn stats_reconcile_identity() {
        let s = ScanStats {
            probes: 10,
            answered: 5,
            retry_exhausted: 2,
            shed_rate_limit: 2,
            shed_breaker: 1,
            ..ScanStats::default()
        };
        assert!(s.reconciles());
        let bad = ScanStats { probes: 11, ..s };
        assert!(!bad.reconciles(), "a silent drop must be visible");
    }
}
