//! The three serving workloads: client → `dnsd` resolver pool → scripted
//! upstream → client, over loopback UDP.
//!
//! Each runs the real [`dnsd::UdpResolverServer`] with one worker, built
//! from [`ResolverConfig::anycast_service_egress`] so a client's ECS option
//! really keys the cache. They differ only in what the queries share:
//! `serve_warm` repeats 4352 pre-resolved keys (every query a hit),
//! `serve_cold` never repeats a key (every query a blocking miss), and
//! `serve_mix` offers a fixed rate of a popularity-skewed mix whose short
//! TTLs keep ≈3% of queries missing, so hits queue behind misses.

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dns_wire::{EcsOption, IpPrefix, Message, Name, Question, Record, RecordType};
use dnsd::{RecvBatch, ResolverServerHandle, SendBatch, SocketUpstream, UdpResolverServer};
use netsim::SimTime;
use resolver::{
    Admission, CacheCompliance, CacheLimits, FlightKey, FlightTable, Resolver, ResolverConfig,
    SharedEcsCache, Step, Upstream,
};

use crate::gen::{self, Catalog, Mix, Query, PROBE_QUERIES};
use crate::loadgen::{self, Checker, LoadOutcome};
use crate::report::{EndToEnd, RunReport};
use crate::spans::Recorder;
use crate::upstream::{ScriptedUpstream, UpstreamReport};
use crate::Ctx;

/// How the load generator offers queries.
#[derive(Clone, Copy)]
enum Discipline {
    /// Bursts of `burst` queries, `window` of them in flight at a time.
    Closed { window: usize, burst: usize },
    /// A fixed send rate, queries per second, and the latency limit a
    /// reply has to meet, from its scheduled send.
    Open { rate: f64, limit: Duration },
}

/// What is resolved through the server before timing starts.
#[derive(Clone, Copy)]
enum WarmUp {
    /// Every key of the mix, so the measured phase only hits; replies
    /// become byte templates for the checker.
    AllKeys,
    /// The first few queries, only to fault in code and sockets (a mix
    /// that never repeats a key has nothing to warm).
    LeadIn(u64),
    /// Every distinct key of the queries about to be measured.
    MeasuredWindow,
}

/// One serving workload's shape.
pub struct Spec {
    /// Zone label (`n<i>.<label>.bench.example`).
    label: &'static str,
    make_mix: fn(u64) -> Mix,
    /// Zone TTL of name `i`, seconds.
    ttl: fn(u32) -> u32,
    /// Scripted upstream delay.
    delay: Duration,
    discipline: Discipline,
    warm_up: WarmUp,
    /// The cache hit ratio the measured phase must show, or the workload
    /// is not the one it claims to be.
    hit_ratio: (f64, f64),
    /// Whether warm-up answers carry a seeded residual TTL in `1..=ttl`
    /// instead of the full TTL. Entries then start the measured phase with
    /// the age spread of a long-running cache, and misses arrive at their
    /// steady rate from the first second instead of after `min ttl`
    /// seconds of pure hits.
    stagger: bool,
    /// How many times an untraced run sets up (see
    /// [`crate::report::setup_time`]).
    set_ups: usize,
}

/// `serve_warm`.
pub const WARM: Spec = Spec {
    label: "warm",
    make_mix: Mix::warm,
    ttl: |_| 3600,
    delay: Duration::ZERO,
    // A burst is over in 5-7 ms: short enough that some fall between a
    // neighbour's bursts on the shared host, long enough that filling and
    // draining the 64-query pipeline is a sixteenth of it.
    discipline: Discipline::Closed {
        window: 64,
        burst: 1024,
    },
    warm_up: WarmUp::AllKeys,
    hit_ratio: (1.0, 1.0),
    stagger: false,
    set_ups: 13,
};

/// `serve_cold`.
pub const COLD: Spec = Spec {
    label: "cold",
    make_mix: Mix::cold,
    ttl: |_| 3600,
    delay: Duration::from_millis(2),
    // One window's worth: 64 misses, one at a time, 0.13 s.
    discipline: Discipline::Closed {
        window: 64,
        burst: 64,
    },
    warm_up: WarmUp::LeadIn(64),
    hit_ratio: (0.0, 0.0),
    stagger: false,
    set_ups: 13,
};

/// `serve_mix`.
pub const MIX: Spec = Spec {
    label: "mix",
    make_mix: Mix::cdn,
    ttl: |i| 4 + i % 5,
    delay: Duration::from_millis(1),
    discipline: Discipline::Open {
        rate: 5000.0,
        limit: MIX_LIMIT,
    },
    warm_up: WarmUp::MeasuredWindow,
    hit_ratio: (0.93, 0.98),
    stagger: true,
    // A second each: every key is resolved through the 1 ms upstream.
    set_ups: 5,
};

/// `serve_mix`'s latency limit: six times what a cache hit on an idle
/// server takes here (about 40 µs) and a quarter of the upstream's delay,
/// so a query meets it when it neither missed nor queued for long behind a
/// miss. `within_limit_ratio` is the value of the latency distribution at
/// this fixed limit. A percentile — the limit at a fixed share — is the
/// other way to read that distribution, and here it is the unsteady one:
/// the 90th sits on the ramp of queries queued behind a miss, where every
/// percent of sends that a stalled generator delays moves it by 60 µs, and
/// over ten runs it spread by 20-32% where the share within the limit
/// spread by 2-3%.
const MIX_LIMIT: Duration = Duration::from_micros(250);
/// Share of open-loop sends that may leave more than one send interval
/// late before the run is invalid. Not lower: on the virtual machines this
/// runs on, a thread that does nothing but spin on a CPU of its own is off
/// that CPU for 1-6% of the time, in gaps of 0.2 ms to a quarter of a
/// second, a single 100 ms stall of the generator's CPU makes 500 sends
/// late, and ten runs in a busy hour sent 3-13% of their queries late. The
/// windows such stalls fall in are the ones the reported figure leaves out
/// (see [`crate::stats::sustained`]); with a quarter of all sends late
/// there are too few others.
const LATE_LIMIT: f64 = 0.25;

fn resolver_config() -> ResolverConfig {
    ResolverConfig::anycast_service_egress(IpAddr::V4(Ipv4Addr::LOCALHOST))
}

/// A running server, its upstream, and the checked query source.
struct Rig {
    mix: Mix,
    checker: Checker,
    upstream: ScriptedUpstream,
    server: ResolverServerHandle,
    awake: crate::machine::KeepAwake,
    /// First query index the measured phase may use.
    next: u64,
}

impl Rig {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn tear_down(self) -> TornDown {
        let (snapshot, profile) = self.server.shutdown_profiled();
        self.awake.stop();
        TornDown {
            snapshot,
            profile,
            upstream: self.upstream.shutdown(),
            mix: self.mix,
        }
    }
}

/// What is left of a [`Rig`] after its threads have been joined.
struct TornDown {
    snapshot: obs::MetricsSnapshot,
    profile: obs::ProfileSnapshot,
    upstream: UpstreamReport,
    mix: Mix,
}

/// Splits the CPUs this process may use between the load generator (the
/// calling thread) and everything it spawns while `f` runs — server worker,
/// upstream and keep-awake threads inherit the mask they are created under. An open
/// loop has to send on a 200 µs schedule; sharing a core with the server it
/// drives, the busy-polling generator was descheduled for milliseconds at a
/// time and its catch-up bursts overflowed the server's socket. With fewer
/// than two CPUs nothing is pinned (and the runner has refused already).
fn with_server_cpus<T>(f: impl FnOnce() -> T) -> T {
    // The process's CPUs as found on first use: later calls run on a
    // thread already narrowed to the generator's CPU.
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let cpus = CPUS.get_or_init(crate::machine::allowed_cpus);
    if cpus.len() < 2 {
        return f();
    }
    crate::machine::pin_current_thread(&cpus[1..]);
    let out = f();
    crate::machine::pin_current_thread(&cpus[..1]);
    out
}

/// Builds zone, upstream and server, and resolves what the workload wants
/// resolved before timing.
fn set_up(spec: &Spec, seed: u64, seconds: f64, profiled: bool) -> io::Result<Rig> {
    let mix = (spec.make_mix)(seed);
    let catalog = Catalog::new(spec.label, mix.names());
    let mut auth = catalog.auth(spec.ttl);
    let staggering = Arc::new(AtomicBool::new(spec.stagger));
    let stagger = Arc::clone(&staggering);
    let answer = move |q: &Message, from: IpAddr, now: SimTime| {
        let mut resp = auth.handle(q, from, now);
        if stagger.load(Ordering::SeqCst) {
            for rec in &mut resp.answers {
                let ttl = u64::from(rec.ttl.max(1));
                rec.ttl = 1 + (gen::mix(seed, u64::from(q.id)) % ttl) as u32;
            }
        }
        resp
    };
    let (upstream, server, awake) = with_server_cpus(|| -> io::Result<_> {
        let upstream = ScriptedUpstream::spawn_with(answer, spec.delay)?;
        let mut server =
            UdpResolverServer::bind("127.0.0.1:0", upstream.addr(), resolver_config())?
                .with_workers(1);
        if profiled {
            server = server.with_profiling();
        }
        Ok((
            upstream,
            server.spawn()?,
            crate::machine::KeepAwake::spawn()?,
        ))
    })?;

    let (warm, next) = match (spec.warm_up, spec.discipline) {
        (WarmUp::AllKeys, _) => (mix.distinct(PROBE_QUERIES), 0),
        (WarmUp::LeadIn(n), _) => ((0..n).map(|i| mix.query(i)).collect(), n),
        (WarmUp::MeasuredWindow, Discipline::Open { rate, .. }) => {
            (mix.distinct((rate * seconds).round() as u64), 0)
        }
        (WarmUp::MeasuredWindow, Discipline::Closed { .. }) => {
            unreachable!("a closed loop's query count is not known in advance")
        }
    };
    let replies = loadgen::warm_up(server.local_addr(), &catalog, &warm, 64)?;
    staggering.store(false, Ordering::SeqCst);
    let mut checker = Checker::new(catalog);
    if matches!(spec.warm_up, WarmUp::AllKeys) {
        // Repeated keys at a high rate: check replies by byte template.
        for (q, reply) in warm.iter().zip(&replies) {
            checker.learn(*q, reply);
        }
    }
    Ok(Rig {
        mix,
        checker,
        upstream,
        server,
        awake,
        next,
    })
}

/// One measured phase with the server-side counters bracketing it.
struct Measured {
    load: LoadOutcome,
    hit_ratio: f64,
    upstream_per_query: f64,
    busy_ratio: f64,
}

impl Measured {
    /// Correct replies per second: the fastest burst of a closed loop,
    /// whose rate is the server's; the median window of an open one, whose
    /// rate is the schedule's.
    fn qps(&self, spec: &Spec) -> f64 {
        match spec.discipline {
            Discipline::Closed { .. } => self.load.burst_rate(),
            Discipline::Open { .. } => self.load.median_rate(),
        }
    }

    /// Median latency, µs: that of the median window.
    fn p50_us(&self) -> f64 {
        self.load.latency_us(|w| w.p50_us)
    }

    /// The workload's headline figure: throughput for a closed loop,
    /// median latency for an open one (where throughput is the offered
    /// rate by construction).
    fn primary(&self, spec: &Spec) -> f64 {
        match spec.discipline {
            Discipline::Closed { .. } => self.qps(spec),
            Discipline::Open { .. } => self.p50_us(),
        }
    }
}

/// Runs the load generator against `rig` for `seconds`, inside a span
/// called `span`.
fn measure(
    rec: &mut Recorder,
    span: &str,
    rig: &mut Rig,
    spec: &Spec,
    seconds: f64,
) -> io::Result<Measured> {
    rec.span(span, |_| {
        let m = measure_unspanned(rig, spec, seconds);
        let queries = m.as_ref().map_or(0, |m| m.load.attempted);
        (m, queries)
    })
    .0
}

fn measure_unspanned(rig: &mut Rig, spec: &Spec, seconds: f64) -> io::Result<Measured> {
    let cache_before = rig.server.cache().stats();
    let replies_before = rig.upstream.replies();
    let cpu_before = crate::machine::thread_cpu_ns("dnsd-resolver");
    let started = Instant::now();
    let load = match spec.discipline {
        Discipline::Closed { window, burst } => loadgen::closed_loop(
            rig.addr(),
            &rig.checker,
            &rig.mix,
            rig.next,
            window,
            burst,
            seconds,
        )?,
        Discipline::Open { rate, limit } => loadgen::open_loop(
            rig.addr(),
            &rig.checker,
            &rig.mix,
            rig.next,
            rate,
            limit,
            seconds,
        )?,
    };
    rig.next += load.attempted;
    let wall = started.elapsed();
    let cpu = crate::machine::thread_cpu_ns("dnsd-resolver") - cpu_before;
    let cache = rig.server.cache().stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    Ok(Measured {
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        upstream_per_query: (rig.upstream.replies() - replies_before) as f64
            / load.attempted.max(1) as f64,
        busy_ratio: cpu as f64 / wall.as_nanos() as f64,
        load,
    })
}

/// Validity guards: the run is invalid (its numbers do not mean what they
/// say) when the generator fell behind, the upstream delay drifted, or the
/// hit ratio shows the workload was not the one intended.
fn guards(spec: &Spec, m: &Measured, up: &UpstreamReport, report: &mut RunReport) {
    if m.load.late_ratio() > LATE_LIMIT {
        report.invalid.push(format!(
            "load generator sent {:.2}% of queries late (limit {:.0}%)",
            m.load.late_ratio() * 100.0,
            LATE_LIMIT * 100.0
        ));
    }
    if !up.lag_ok(spec.delay) {
        report.invalid.push(format!(
            "upstream replied after {:.0} us, configured {:.0} us",
            up.reply_lag_us,
            spec.delay.as_secs_f64() * 1e6
        ));
    }
    let (lo, hi) = spec.hit_ratio;
    // The exact-0 and exact-1 workloads may not miss (hit) even once —
    // except that a query sent again after its first copy was resolved is
    // answered from the cache.
    let resent = m.load.resends as f64 / m.load.attempted.max(1) as f64;
    if m.hit_ratio < lo || m.hit_ratio > hi + resent {
        report.invalid.push(format!(
            "server hit ratio {:.4} outside [{lo}, {hi}]: workload mis-built",
            m.hit_ratio
        ));
    }
}

fn fill_counts(rig: &Rig, m: &Measured, report: &mut RunReport) {
    report.attempted = m.load.attempted;
    report.failed = m.load.failed();
    report.correct = m.load.wrong == 0;
    report.notes.push(format!(
        "{} queries over loopback (digest of the first {PROBE_QUERIES}: {:016x}), {} re-sent, {} timeouts, {} wrong replies; one latency sample per query",
        m.load.attempted,
        gen::query_digest(rig.checker.catalog(), &rig.mix),
        m.load.resends,
        m.load.timeouts,
        m.load.wrong
    ));
    let rates: Vec<f64> = m.load.windows.iter().map(|w| w.rate).collect();
    let at = |q: f64| crate::stats::percentile(&rates, q);
    report.notes.push(format!(
        "{} windows (bursts of a closed loop): replies per second lowest {:.0}, median {:.0}, upper quartile {:.0}, 95th percentile {:.0}, highest {:.0}; median window latency p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        rates.len(),
        at(0.0),
        at(0.5),
        at(0.75),
        at(0.95),
        at(1.0),
        m.p50_us(),
        m.load.latency_us(|w| w.p90_us),
        m.load.latency_us(|w| w.p99_us)
    ));
}

/// Runs one serving workload.
pub fn run(spec: &Spec, ctx: &mut Ctx) -> io::Result<RunReport> {
    if ctx.trace {
        return run_traced(spec, ctx);
    }
    let mut report = RunReport::default();
    let mut set_ups = Vec::with_capacity(spec.set_ups);
    let mut rig: Option<Rig> = None;
    for _ in 0..spec.set_ups {
        if let Some(old) = rig.take() {
            old.tear_down();
        }
        let (built, took) = ctx.rec.span("set_up", |_| {
            (set_up(spec, ctx.seed, ctx.seconds, false), 1)
        });
        rig = Some(built?);
        set_ups.push(took.as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let m = measure(&mut ctx.rec, "measure", &mut rig, spec, ctx.seconds)?;
    let peak_rss_mib = crate::machine::peak_rss_mib();
    fill_counts(&rig, &m, &mut report);
    let up = rig.tear_down().upstream;

    guards(spec, &m, &up, &mut report);
    report.notes.push(format!(
        "server hit ratio {:.4}, {:.4} upstream queries per query, worker {:.0}% busy, upstream lag {:.0} us, generator late on {:.3}% of sends (worst {:.0} us), {:.4} of all queries within the latency limit",
        m.hit_ratio,
        m.upstream_per_query,
        m.busy_ratio * 100.0,
        up.reply_lag_us,
        m.load.late_ratio() * 100.0,
        m.load.max_late_us,
        m.load.within_limit_overall()
    ));
    report.set_end_to_end(EndToEnd {
        setup_s: crate::report::setup_time(&set_ups),
        ops_per_s: m.qps(spec),
        within_limit_ratio: match spec.discipline {
            Discipline::Closed { .. } => None,
            Discipline::Open { .. } => Some(m.load.within_limit_ratio()),
        },
        peak_rss_mib,
    });
    Ok(report)
}

/// The traced pass: a third of the time against a plain server, a third
/// against one built `.with_profiling()`, and the rest on in-process
/// probes of each serve-path layer.
fn run_traced(spec: &Spec, ctx: &mut Ctx) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    report.zero_layers();
    let third = (ctx.seconds / 3.0).max(1.0);

    let (plain, _) = ctx
        .rec
        .span("set_up", |_| (set_up(spec, ctx.seed, third, false), 1));
    let mut plain = plain?;
    let untraced = measure(&mut ctx.rec, "measure.untraced", &mut plain, spec, third)?;
    plain.tear_down();

    let (rig, _) = ctx
        .rec
        .span("set_up", |_| (set_up(spec, ctx.seed, third, true), 1));
    let mut rig = rig?;
    let m = measure(&mut ctx.rec, "measure", &mut rig, spec, third)?;
    fill_counts(&rig, &m, &mut report);
    probe_upstream_exchange(&rig, &mut ctx.rec);
    let TornDown {
        snapshot,
        profile,
        upstream: up,
        mix,
    } = rig.tear_down();
    guards(spec, &m, &up, &mut report);

    // Server-side counters of the profiled segment.
    report.layer("server.hit_ratio", m.hit_ratio);
    report.layer("server.upstream_per_query", m.upstream_per_query);
    report.layer("server.busy_ratio", m.busy_ratio);
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    report.layer(
        "server.coalesced",
        counter("resolver_coalesced_queries_total"),
    );
    report.layer(
        "server.malformed_drops",
        counter("resolverd_malformed_drops_total"),
    );
    if let Some(h) = snapshot.histogram("resolverd_handle_latency_us") {
        report.layer("server.handle_p50_us", h.quantile(0.5) as f64);
        report.layer("server.handle_p99_us", h.quantile(0.99) as f64);
    }
    let worker_us = profile.subtree_us("worker").max(1) as f64;
    for stage in ["recv", "decode", "resolve", "send"] {
        report.layer(
            &format!("server.stage_{stage}_share"),
            profile.subtree_us(&format!("worker;{stage}")) as f64 / worker_us,
        );
    }
    report.layer(
        "server.lock_shard_wait_us",
        snapshot
            .histogram("lock_cache_shard_wait_us")
            .map(|h| h.sum as f64)
            .unwrap_or(0.0),
    );
    let width = |name: &str| snapshot.histogram(name).map(|h| h.mean()).unwrap_or(0.0);
    let (recv_width, send_width) = (width("dnsd_recv_batch_size"), width("dnsd_send_batch_size"));
    report.layer("batch.recv_width", recv_width);
    report.layer("batch.send_width", send_width);
    report.layer("upstream.reply_lag_us", up.reply_lag_us);
    report.layer("client.latency_p50_us", m.p50_us());
    report.layer("client.latency_p90_us", m.load.latency_us(|w| w.p90_us));
    report.layer("client.latency_p99_us", m.load.latency_us(|w| w.p99_us));
    report.layer("loadgen.late_ratio", m.load.late_ratio());
    report.layer("loadgen.max_late_us", m.load.max_late_us);
    report.layer("loadgen.resends", m.load.resends as f64);
    // Traced over untraced, oriented so that > 1 means tracing cost
    // something: time per query for a closed loop, latency for an open one.
    let overhead = match spec.discipline {
        Discipline::Closed { .. } => untraced.primary(spec) / m.primary(spec),
        Discipline::Open { .. } => m.primary(spec) / untraced.primary(spec),
    };
    report.layer("trace.overhead_ratio", overhead);

    // In-process probes of the layers a query passes through.
    probe_layers(spec, &mix, recv_width, send_width, &mut ctx.rec)?;
    let per = |name: &str| ctx.rec.layer(name).ns_per_item();
    report.layer("wire.decode_ns", per("probe.wire.decode"));
    report.layer("wire.encode_ns", per("probe.wire.encode"));
    report.layer("shared_cache.lookup_ns", per("probe.shared_cache.lookup"));
    report.layer("shared_cache.insert_ns", per("probe.shared_cache.insert"));
    report.layer("cache.purge_ns", per("probe.cache.purge"));
    report.layer("cache.evict_ns", per("probe.cache.evict"));
    report.layer("engine.begin_hit_ns", per("probe.engine.begin_hit"));
    report.layer("engine.miss_ns", per("probe.engine.miss"));
    report.layer(
        "flight.admit_complete_ns",
        per("probe.flight.admit_complete"),
    );
    report.layer("batch.recv_ns_per_dgram", per("probe.batch.recv"));
    report.layer("batch.send_ns_per_dgram", per("probe.batch.send"));
    report.layer("auth.handle_ns", per("probe.auth.handle"));
    report.layer(
        "upstream.exchange_us",
        per("probe.upstream.exchange") / 1e3 - spec.delay.as_secs_f64() * 1e6,
    );
    let sum = per("probe.batch.recv")
        + per("probe.wire.decode")
        + per("probe.engine.begin_hit")
        + per("probe.wire.encode")
        + per("probe.batch.send");
    report.layer("layers.sum_ns_per_query", sum);
    // Share of the untraced time per query the hit-path probes account
    // for (meaningful where the worker is saturated: `serve_warm`).
    report.layer(
        "layers.coverage_ratio",
        sum / (1e9 / untraced.qps(spec).max(1.0)),
    );
    Ok(report)
}

/// Round trips through [`SocketUpstream`] to the live scripted upstream.
fn probe_upstream_exchange(rig: &Rig, rec: &mut Recorder) {
    const EXCHANGES: u64 = 64;
    let Ok(mut upstream) = SocketUpstream::new(rig.upstream.addr()) else {
        return;
    };
    let from = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let catalog = rig.checker.catalog();
    // Fresh subnets from the top of the space: never in the workload.
    let queries: Vec<Message> = (0..EXCHANGES)
        .map(|i| {
            let [a, b, c] = gen::subnet_from_index(gen::SUBNET_SPACE - 1 - i);
            let name = catalog.name((i % catalog.len() as u64) as u32).clone();
            let mut q = Message::query(i as u16 + 1, Question::a(name));
            q.set_edns(4096);
            q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(a, b, c, 0), 24));
            q
        })
        .collect();
    rec.span("probe.upstream.exchange", |_| {
        let mut answered = 0;
        for q in &queries {
            if upstream.query(q, from, SimTime::ZERO).is_ok() {
                answered += 1;
            }
        }
        ((), answered)
    });
}

/// Largest key set the miss and insert probes are run over. `serve_cold`'s
/// key set is unbounded and an insert scans its whole shard, so an
/// uncapped probe would grow quadratically.
const PROBE_KEYS: usize = 5000;
/// Responses kept for the encode probe.
const ENCODE_SAMPLE: usize = 20_000;

/// Replays the workload's own first queries through each serve-path layer
/// in this process, one span per layer.
fn probe_layers(
    spec: &Spec,
    mix: &Mix,
    recv_width: f64,
    send_width: f64,
    rec: &mut Recorder,
) -> io::Result<()> {
    let catalog = Catalog::new(spec.label, mix.names());
    let config = resolver_config();
    let from = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let now = SimTime::from_micros(1);

    // The key set (capped) and the hit replay: the first PROBE_QUERIES
    // queries when they stay inside the key set, else the keys cycled.
    let mut keys = mix.distinct(PROBE_QUERIES);
    let bounded = keys.len() <= PROBE_KEYS;
    keys.truncate(PROBE_KEYS);
    let replay: Vec<Query> = (0..PROBE_QUERIES)
        .map(|i| {
            if bounded {
                mix.query(i)
            } else {
                keys[i as usize % keys.len()]
            }
        })
        .collect();
    let wire: Vec<Vec<u8>> = replay
        .iter()
        .enumerate()
        .map(|(i, q)| catalog.encode(q, i as u16))
        .collect();

    let (decoded, _) = rec.span("probe.wire.decode", |_| {
        let msgs: Vec<Message> = wire
            .iter()
            .map(|b| Message::from_bytes(std::hint::black_box(b)).expect("generated query decodes"))
            .collect();
        let n = msgs.len() as u64;
        (msgs, n)
    });

    // Miss path: begin + the blocking upstream drive, against the zone in
    // this process, over each key once. Keeps what the upstream said, for
    // the insert probe.
    let cache = Arc::new(SharedEcsCache::for_config(&config, 4));
    let mut engine = Resolver::with_shared_cache(config.clone(), Arc::clone(&cache));
    let mut auth = catalog.auth(spec.ttl);
    let key_msgs: Vec<Message> = keys
        .iter()
        .map(|q| Message::from_bytes(&catalog.encode(q, 0)).expect("generated query decodes"))
        .collect();
    let (raws, _) = rec.span("probe.engine.miss", |_| {
        let mut raws = Vec::with_capacity(key_msgs.len());
        for q in &key_msgs {
            if let Step::NeedUpstream(pending) = engine.begin(q, from, now) {
                raws.push(engine.drive_upstream_capturing(pending, now, &mut auth).1);
            }
        }
        let n = raws.len() as u64;
        (raws, n)
    });

    rec.span("probe.engine.begin_hit", |_| {
        let mut hits = 0;
        for q in &decoded {
            if let Step::Answer(resp) = engine.begin(q, from, now) {
                std::hint::black_box(resp);
                hits += 1;
            }
        }
        ((), hits)
    });

    let responses: Vec<Message> = decoded
        .iter()
        .take(ENCODE_SAMPLE)
        .filter_map(|q| match engine.begin(q, from, now) {
            Step::Answer(resp) => Some(resp),
            Step::NeedUpstream(_) => None,
        })
        .collect();
    let (encoded, _) = rec.span("probe.wire.encode", |_| {
        let bytes: Vec<Vec<u8>> = responses
            .iter()
            .map(|r| {
                std::hint::black_box(r)
                    .to_bytes()
                    .expect("response encodes")
            })
            .collect();
        let n = bytes.len() as u64;
        (bytes, n)
    });

    // The cache on its own, keyed as the engine keys it.
    let client_of = |q: &Query| match q.subnet {
        Some([a, b, c]) => IpAddr::V4(Ipv4Addr::new(a, b, c, 0)),
        None => from,
    };
    rec.span("probe.shared_cache.lookup", |_| {
        let mut hits = 0;
        for q in &replay {
            if cache
                .lookup(catalog.name(q.name), RecordType::A, client_of(q), now)
                .is_some()
            {
                hits += 1;
            }
        }
        ((), hits)
    });
    let entries: Vec<(Name, Vec<Record>, Option<EcsOption>, u32)> = keys
        .iter()
        .zip(&raws)
        .filter_map(|(q, raw)| {
            let raw = raw.as_ref()?;
            let ttl = raw.min_answer_ttl()?;
            Some((
                catalog.name(q.name).clone(),
                raw.answers.clone(),
                raw.ecs().copied(),
                ttl,
            ))
        })
        .collect();
    rec.span("probe.shared_cache.insert", |_| {
        for (name, records, ecs, ttl) in &entries {
            cache.insert(
                name.clone(),
                RecordType::A,
                records.clone(),
                *ecs,
                *ttl,
                now,
            );
        }
        ((), entries.len() as u64)
    });
    rec.span("probe.cache.purge", |_| {
        const PURGES: u64 = 200;
        for _ in 0..PURGES {
            cache.purge(now);
        }
        ((), PURGES)
    });
    // Eviction: a cache bounded at the key-set size and filled to it, then
    // fresh keys, each pushing an old one out.
    let bounded_cache = SharedEcsCache::with_limits(
        CacheCompliance::Honor,
        CacheLimits {
            max_entries: Some(entries.len().max(1)),
            ..CacheLimits::default()
        },
        true,
        4,
    );
    for (name, records, ecs, ttl) in &entries {
        bounded_cache.insert(
            name.clone(),
            RecordType::A,
            records.clone(),
            *ecs,
            *ttl,
            now,
        );
    }
    let evictions_before = bounded_cache.stats().evictions;
    rec.span("probe.cache.evict", |_| {
        const FRESH: usize = 2000;
        for i in 0..FRESH {
            let (name, records, _, ttl) = &entries[i % entries.len()];
            let [a, b, c] = gen::subnet_from_index(gen::SUBNET_SPACE - 1 - i as u64);
            let ecs = EcsOption::from_v4(Ipv4Addr::new(a, b, c, 0), 24).with_scope(24);
            bounded_cache.insert(
                name.clone(),
                RecordType::A,
                records.clone(),
                Some(ecs),
                *ttl,
                now,
            );
        }
        ((), bounded_cache.stats().evictions - evictions_before)
    });

    // Flight table: admit as owner, publish, release.
    let flights = FlightTable::for_config(&config.overload);
    let flight_keys: Vec<FlightKey> = keys
        .iter()
        .map(|q| {
            let prefix = q
                .subnet
                .map(|[a, b, c]| IpPrefix::v4(Ipv4Addr::new(a, b, c, 0), 24).expect("24 <= 32"));
            (catalog.name(q.name).clone(), RecordType::A, prefix)
        })
        .collect();
    rec.span("probe.flight.admit_complete", |_| {
        let mut owned = 0;
        for i in 0..PROBE_QUERIES as usize {
            if let Admission::Owner(token) = flights.admit(&flight_keys[i % flight_keys.len()]) {
                token.complete(None);
                owned += 1;
            }
        }
        ((), owned)
    });

    // The zone's handler, over the same client queries.
    rec.span("probe.auth.handle", |_| {
        for q in &decoded {
            std::hint::black_box(auth.handle(q, from, now));
        }
        ((), decoded.len() as u64)
    });

    // Batched socket I/O over a loopback pair at the widths the server saw.
    probe_batch(&wire, &encoded, recv_width, send_width, rec)
}

/// Times `RecvBatch::recv` at the server's observed receive width over the
/// workload's query datagrams, and `SendBatch::flush` at its observed send
/// width over the answer datagrams.
fn probe_batch(
    queries: &[Vec<u8>],
    answers: &[Vec<u8>],
    recv_width: f64,
    send_width: f64,
    rec: &mut Recorder,
) -> io::Result<()> {
    const ROUNDS: usize = 400;
    let near = UdpSocket::bind("127.0.0.1:0")?;
    let far = UdpSocket::bind("127.0.0.1:0")?;
    near.set_read_timeout(Some(Duration::from_millis(200)))?;
    far.set_read_timeout(Some(Duration::from_millis(200)))?;
    let (near_addr, far_addr) = (near.local_addr()?, far.local_addr()?);
    let mut feeder = SendBatch::new();
    let mut sink = RecvBatch::new(64);

    // recv: `far` feeds `width` query datagrams, `near` takes them in one
    // call where it can.
    let width = (recv_width.round() as usize).clamp(1, 64);
    let mut rx = RecvBatch::new(width);
    for round in 0..ROUNDS {
        for k in 0..width {
            feeder.push(
                queries[(round * width + k) % queries.len()].clone(),
                near_addr,
            );
        }
        feeder.flush(&far)?;
        let mut got = 0;
        while got < width {
            let (n, _) = rec.span("probe.batch.recv", |_| {
                let n = rx.recv(&near).unwrap_or(0);
                (n, n as u64)
            });
            if n == 0 {
                break;
            }
            got += n;
        }
    }

    // send: `near` flushes `width` answer datagrams to `far`, which drains
    // them outside the span.
    let width = (send_width.round() as usize).clamp(1, 64);
    let mut tx = SendBatch::new();
    for round in 0..ROUNDS {
        if answers.is_empty() {
            break;
        }
        for k in 0..width {
            tx.push(
                answers[(round * width + k) % answers.len()].clone(),
                far_addr,
            );
        }
        rec.span("probe.batch.send", |_| {
            let sent = tx.flush(&near).unwrap_or(0);
            ((), sent as u64)
        });
        let mut got = 0;
        while got < width {
            let n = sink.recv(&far)?;
            if n == 0 {
                break;
            }
            got += n;
        }
    }
    Ok(())
}
