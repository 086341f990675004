//! Satellite: deterministic chaos soak of the *live* scanner pipeline
//! against a running multi-worker [`dnsd::UdpResolverServer`] with
//! standing [`resolver::TransportFaults`] on its upstream path.
//!
//! What the soak must demonstrate (ISSUE acceptance):
//! * no worker panics while faults stand — every spawned thread joins;
//! * no stuck in-flight slots — `ScanStats::reconciles()` holds at every
//!   exit, including a forced mid-window shutdown (the `aborted` door);
//! * shutdown is clean and idempotent — `shutdown()` folds metrics once
//!   and the subsequent `Drop` of the same handle is a no-op, and a
//!   scanner that aborted mid-window can immediately run again.
//!
//! Each test prints a visible `SKIP` line when the sandbox offers no
//! loopback sockets, and fails outright under `ECS_REQUIRE_LOOPBACK`
//! (the CI soak variant sets it).

use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::Name;
use dnsd::{UdpAuthServer, UdpResolverServer};
use netsim::SimDuration;
use resolver::{ResolverConfig, TransportFault, TransportFaults};
use scanner::{LiveScanner, Probe, ProbeFeed, ProbeTarget, RetryBudget, ScanConfig, ScannerNode};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

/// A scan-style authoritative: synthesizes an A record for *any* name
/// under `scan.example`, so probe qnames need no per-name zone state.
fn scan_auth() -> AuthServer {
    let mut zone = Zone::new(name("scan.example"));
    zone.set_synth_a(300, Ipv4Addr::new(198, 51, 100, 1));
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)))
}

fn qnames(tag: &'static str, n: usize) -> impl Iterator<Item = Name> {
    (0..n).map(move |i| name(&format!("p{i}.{tag}.scan.example")))
}

/// The soak knobs: short live timeouts, and a per-AS rate no window here
/// reaches, so nothing parks or sheds on the limiter.
fn soak_cfg() -> ScanConfig {
    ScanConfig {
        window: 32,
        budget: RetryBudget {
            attempts: 2,
            initial_timeout: SimDuration::from_millis(250),
            backoff_mult: 2,
            jitter_pm: 100,
        },
        rate_per_sec: 1_000_000,
        burst: 64,
        breaker_threshold: 5,
        breaker_cooldown: SimDuration::from_millis(500),
        ..ScanConfig::default()
    }
}

/// One probe per qname, all aimed at the single live target.
fn probe_feed(
    live: &mut LiveScanner,
    target: SocketAddr,
    mut qnames: impl Iterator<Item = Name> + 'static,
) -> impl ProbeFeed {
    let target = ProbeTarget {
        addr: target.ip(),
        node: live.node_for(target),
        asn: 0,
    };
    move || {
        qnames.next().map(|qname| Probe {
            qname: Some(qname),
            ..Probe::at(target)
        })
    }
}

#[test]
fn standing_refused_faults_never_hang_the_window() {
    if !dnsd::testutil::require_loopback("standing_refused_faults_never_hang_the_window") {
        return;
    }
    let auth = UdpAuthServer::bind("127.0.0.1:0", scan_auth()).expect("loopback available");
    let auth_addr = auth.local_addr().unwrap();
    let auth_handle = auth.spawn();

    // Four workers, each with a standing REFUSED fault on the UDP
    // upstream transport: every upstream exchange fails deterministically,
    // so every client answer is a definite SERVFAIL — the scan must drain
    // its whole feed through the `answered` door without a single timeout.
    let config = ResolverConfig::rfc_compliant(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, config)
        .expect("bind resolver")
        .with_workers(4)
        .with_upstream_faults(
            TransportFaults {
                udp: Some(TransportFault::Refused),
                ..TransportFaults::NONE
            },
            7,
        )
        .spawn()
        .expect("spawn pool");

    let cfg = soak_cfg();
    let mut scan = LiveScanner::bind().expect("bind scanner");
    let feed = probe_feed(&mut scan, handle.local_addr(), qnames("refused", 160));
    let mut node = ScannerNode::new(cfg.clone(), feed);
    let stats = scan.run(&mut node, Duration::from_secs(20));

    assert!(stats.reconciles(), "accounting identity broke: {stats:?}");
    assert_eq!(stats.probes, 160);
    assert_eq!(stats.answered, 160, "standing fault must not eat probes");
    assert_eq!(stats.servfail, 160, "faulted upstream answers SERVFAIL");
    assert_eq!(stats.aborted, 0, "nothing left in flight: {stats:?}");
    assert_eq!(stats.retry_exhausted, 0, "answers were definite: {stats:?}");
    assert!(stats.max_in_flight <= cfg.window as u64);

    assert_eq!(handle.in_flight(), 0, "no stuck server-side flights");
    let snap = handle.shutdown();
    let servfails = snap
        .counter("resolver_servfail_responses_total")
        .unwrap_or(0);
    assert!(
        servfails >= 160,
        "server accounting saw the fault path ({servfails} SERVFAILs)"
    );
    drop(auth_handle); // joins the auth worker; a panic would surface here
}

#[test]
fn mid_window_deadline_accounts_every_aborted_probe() {
    if !dnsd::testutil::require_loopback("mid_window_deadline_accounts_every_aborted_probe") {
        return;
    }
    // A blackhole: bound, never reads, never answers. Probes sent at it
    // sit in flight until the wall deadline forces a mid-window shutdown.
    let blackhole = UdpSocket::bind("127.0.0.1:0").expect("loopback available");
    let target = blackhole.local_addr().unwrap();

    let cfg = ScanConfig {
        window: 8,
        budget: RetryBudget {
            attempts: 2,
            initial_timeout: SimDuration::from_millis(400),
            backoff_mult: 2,
            jitter_pm: 100,
        },
        ..soak_cfg()
    };
    let mut scan = LiveScanner::bind().expect("bind scanner");
    let first = probe_feed(&mut scan, target, qnames("abort", 64));
    let mut node = ScannerNode::new(cfg, first);

    // The deadline lands before the first retry timeout: the full window
    // is still in flight when the scan is told to stop, and every one of
    // those probes must leave through the `aborted` door — not vanish.
    let started = Instant::now();
    let stats = scan.run(&mut node, Duration::from_millis(150));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "mid-window shutdown must not wait out retry budgets"
    );
    assert!(stats.reconciles(), "accounting identity broke: {stats:?}");
    assert_eq!(stats.answered, 0);
    assert_eq!(stats.aborted, 8, "the whole window was aborted: {stats:?}");
    assert_eq!(stats.probes, 8, "feed pull stops at the deadline");

    // Idempotent shutdown: the aborted scanner is immediately reusable —
    // a second run on the same socket reconciles the *cumulative* stats.
    node.set_feed(probe_feed(&mut scan, target, qnames("abort2", 64)));
    let stats = scan.run(&mut node, Duration::from_millis(150));
    assert!(
        stats.reconciles(),
        "second run broke the identity: {stats:?}"
    );
    assert_eq!(stats.aborted, 16, "second window aborted cleanly");
}

#[test]
fn server_shutdown_mid_scan_leaves_no_stuck_slots() {
    if !dnsd::testutil::require_loopback("server_shutdown_mid_scan_leaves_no_stuck_slots") {
        return;
    }
    let auth = UdpAuthServer::bind("127.0.0.1:0", scan_auth()).expect("loopback available");
    let auth_addr = auth.local_addr().unwrap();
    let auth_handle = auth.spawn();

    let config = ResolverConfig::rfc_compliant(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, config)
        .expect("bind resolver")
        .with_workers(2)
        .spawn()
        .expect("spawn pool");
    let target = handle.local_addr();

    let cfg = ScanConfig {
        window: 16,
        budget: RetryBudget {
            attempts: 2,
            initial_timeout: SimDuration::from_millis(200),
            backoff_mult: 2,
            jitter_pm: 100,
        },
        ..soak_cfg()
    };

    // Phase 1: the server is up — a short scan drains fully answered.
    let mut warm = LiveScanner::bind().expect("bind scanner");
    let feed_warm = probe_feed(&mut warm, target, qnames("warm", 20));
    let stats = warm.run(
        &mut ScannerNode::new(cfg.clone(), feed_warm),
        Duration::from_secs(10),
    );
    assert!(stats.reconciles(), "warm accounting broke: {stats:?}");
    assert_eq!(stats.answered, 20, "live server answers everything");

    // Phase 2: kill the server, then scan the dead address. `shutdown()`
    // consumes the handle and joins every worker exactly once (the Drop
    // that follows is a guarded no-op — that is the idempotency under
    // test); the scan window now straddles server death, so every probe
    // must exit via retry-exhaustion or a tripped breaker, never hang.
    drop(handle.shutdown());

    let mut cold = LiveScanner::bind().expect("bind scanner");
    let feed_cold = probe_feed(&mut cold, target, qnames("cold", 20));
    let started = Instant::now();
    let stats = cold.run(
        &mut ScannerNode::new(cfg, feed_cold),
        Duration::from_secs(20),
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "dead-server scan must converge, not hang"
    );
    assert!(stats.reconciles(), "cold accounting broke: {stats:?}");
    assert_eq!(stats.answered, 0, "nobody is listening");
    assert_eq!(stats.aborted, 0, "budget ran to completion, no abort");
    assert_eq!(
        stats.retry_exhausted + stats.shed_breaker,
        20,
        "every probe left via exhaustion or the breaker: {stats:?}"
    );
    assert!(
        stats.breaker_opens >= 1,
        "consecutive timeouts must trip the target breaker: {stats:?}"
    );
    drop(auth_handle);
}

#[test]
fn live_run_carries_the_node_telemetry_and_rate_limit() {
    if !dnsd::testutil::require_loopback("live_run_carries_the_node_telemetry_and_rate_limit") {
        return;
    }
    let auth = UdpAuthServer::bind("127.0.0.1:0", scan_auth()).expect("loopback available");
    let target = auth.local_addr().unwrap();
    let auth_handle = auth.spawn();

    // 2 tokens of burst at 200/s: the third probe on parks for its token,
    // so the live loop's timer heap carries launches as well as timeouts.
    let cfg = ScanConfig {
        rate_per_sec: 200,
        burst: 2,
        ..soak_cfg()
    };
    let mut scan = LiveScanner::bind().expect("bind scanner");
    let feed = probe_feed(&mut scan, target, qnames("telemetry", 12));
    let mut node = ScannerNode::new(cfg, feed);
    node.enable_metrics();
    let sink = std::sync::Arc::new(obs::MemorySink::new());
    node.set_tracer(obs::Tracer::new(sink.clone()));
    let stats = scan.run(&mut node, Duration::from_secs(20));

    assert!(stats.reconciles(), "accounting identity broke: {stats:?}");
    assert_eq!(stats.answered, 12, "{stats:?}");
    assert!(stats.rate_deferrals > 0, "limiter never parked: {stats:?}");

    let snap = node.metrics_snapshot();
    obs::validate::validate_metrics_json(&snap.to_json(), obs::validate::SCANNER_REQUIRED_SERIES)
        .expect("scanner series profile");
    assert_eq!(snap.counter("scanner_answered_total"), Some(12));
    assert_eq!(
        snap.counter("scanner_rate_deferrals_total"),
        Some(stats.rate_deferrals)
    );
    let latency = snap.histogram("scanner_probe_latency_us").unwrap();
    assert_eq!(latency.count, stats.answered);

    let trace = sink.lines().join("\n");
    let events = obs::validate::validate_trace(&trace).expect("well-formed trace");
    assert!(
        events >= 2 * 12,
        "a probe and an outcome span each: {events}"
    );
    assert!(trace.contains("\"event\":\"rate_limited\""), "{trace}");
    drop(auth_handle);
}
