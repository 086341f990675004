//! Engine-vs-dnsd differential run.
//!
//! The same seeded workload is played twice through identically configured
//! resolvers: once with the in-process [`authoritative::AuthServer`] as the
//! upstream, once through [`dnsd::SocketUpstream`] against a live
//! [`dnsd::UdpAuthServer`] on loopback serving an identical zone. Both
//! sides share the virtual-clock axis (each query carries its own
//! `SimTime`), so answers, cache behaviour, and metrics must agree — up to
//! a fixed whitelist of transport-timing series that legitimately drift
//! when a real datagram is lost or delayed.

use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use dnsd::SocketUpstream;
use netsim::SimTime;
use obs::MetricsSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::{
    CacheStats, Resolver, ResolverConfig, ResolverStats, Transport, TransportPolicy, Upstream,
};

use crate::report::{DifferentialReport, MetricDelta};

/// Zone apex served on both sides.
const DIFF_APEX: &str = "diff.test";
/// Distinct hostnames in the zone/workload.
const DIFF_NAMES: usize = 150;
/// Record TTL — the ~370 s workload span re-expires each name ~6 times.
const DIFF_TTL: u32 = 60;
/// Default workload size (the acceptance floor).
pub const DIFF_QUERIES: usize = 10_000;

/// Metric series allowed to differ between the in-process and socket runs.
///
/// Everything here is downstream of real-transport timing: a lost loopback
/// datagram triggers retry → timeout counters → RFC 7871 §7.1.3 ECS
/// withdrawal → changed upstream/cache traffic. `cache_*` covers every
/// cache series for the same reason (a withdrawal changes the scope the
/// answer is cached under). Client-facing series — `resolver_client_
/// queries_total`, `resolver_servfail_responses_total`, the coalesced
/// counter — are deliberately NOT whitelisted: those must match no matter
/// what the transport does.
const METRIC_WHITELIST: &[&str] = &[
    "resolver_retries_total",
    "resolver_upstream_timeouts_total",
    "resolver_ecs_withdrawals_total",
    "resolver_upstream_queries_total",
    "resolver_upstream_ecs_queries_total",
    "resolver_tcp_fallbacks_total",
    "resolver_transport_fallbacks_*",
    "resolver_query_latency_us",
    "cache_*",
];

/// True when `series` falls under [`METRIC_WHITELIST`] (exact match, or a
/// `prefix_*` glob entry).
fn is_whitelisted(series: &str) -> bool {
    METRIC_WHITELIST.iter().any(|w| match w.strip_suffix('*') {
        Some(prefix) => series.starts_with(prefix),
        None => *w == series,
    })
}

/// One client query of the seeded workload.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Queried hostname.
    pub name: Name,
    /// Client source address.
    pub client: IpAddr,
}

/// The identical zone both sides serve.
fn diff_zone() -> Zone {
    let apex = Name::from_ascii(DIFF_APEX).expect("static apex is valid");
    let mut zone = Zone::new(apex);
    for i in 0..DIFF_NAMES {
        let n = Name::from_ascii(&format!("site{i}.{DIFF_APEX}")).expect("static name is valid");
        let addr = crate::scenario::edge_addr_for(&n);
        zone.add_a(n, DIFF_TTL, addr)
            .expect("fresh names never conflict");
    }
    zone
}

fn diff_auth() -> AuthServer {
    AuthServer::new(diff_zone(), EcsHandling::open(ScopePolicy::MatchSource))
}

/// The differential subject, pinned to one transport.
fn diff_config(transport: Transport) -> ResolverConfig {
    ResolverConfig {
        transport: TransportPolicy::prefer(transport),
        ..ResolverConfig::rfc_compliant(IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9)))
    }
}

/// Generates the seeded workload: `queries` lookups over the zone's names
/// from clients spread across `100.64.0.0/10`-adjacent routable space, one
/// query every 37 ms of virtual time.
pub fn seeded_workload(queries: usize, seed: u64) -> Vec<WorkloadQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..queries)
        .map(|j| {
            let i: usize = rng.gen_range(0..DIFF_NAMES);
            let name =
                Name::from_ascii(&format!("site{i}.{DIFF_APEX}")).expect("static name is valid");
            let client = IpAddr::V4(Ipv4Addr::new(
                100,
                rng.gen_range(64u8..96),
                rng.gen_range(0u8..=255),
                rng.gen_range(1u8..=254),
            ));
            WorkloadQuery {
                at: SimTime::from_micros(j as u64 * 37_000),
                name,
                client,
            }
        })
        .collect()
}

/// Everything one side produced.
pub struct SideResult {
    /// Client-facing responses, wire-encoded, in workload order.
    pub responses: Vec<Vec<u8>>,
    /// Legacy stats snapshot.
    pub stats: ResolverStats,
    /// Cache stats snapshot.
    pub cache: CacheStats,
    /// Full metrics snapshot (resolver + cache registries).
    pub metrics: MetricsSnapshot,
}

fn run_side<U: Upstream>(
    workload: &[WorkloadQuery],
    transport: Transport,
    upstream: &mut U,
) -> SideResult {
    let mut r = Resolver::new(diff_config(transport));
    let responses = workload
        .iter()
        .enumerate()
        .map(|(j, w)| {
            let q = Message::query(j as u16, Question::a(w.name.clone()));
            r.resolve_msg(&q, w.client, w.at, upstream)
                .to_bytes()
                .expect("responses we build always encode")
        })
        .collect();
    SideResult {
        responses,
        stats: r.stats(),
        cache: r.cache_stats(),
        metrics: r.metrics_snapshot(),
    }
}

/// Runs the workload against the in-process authoritative with the
/// subject pinned to `transport`. The in-process [`AuthServer`] answers
/// every stream transport with the same framed, untruncated messages —
/// which is exactly the reference the socket side must match.
pub fn run_engine_side(workload: &[WorkloadQuery], transport: Transport) -> SideResult {
    let mut auth = diff_auth();
    run_side(workload, transport, &mut auth)
}

/// Runs the workload through real loopback sockets with the subject pinned
/// to `transport`: a spawned [`dnsd::UdpAuthServer`] served by a `workers`-wide
/// thread pool over one shared socket, queried via [`SocketUpstream`]. The
/// worker count must be behaviour-invisible: the kernel hands each
/// datagram to one worker, the zone is immutable, and the server's
/// metrics registry is shared — so answers must stay byte-identical at
/// any width. The zone is served on *both* transports from one shared
/// [`authoritative::AuthServer`]: the UDP server owns it, and a
/// [`dnsd::TcpAuthServer`] on the same port number serves the same
/// `Arc`-shared state ([`dnsd::bind_same_port`]), where the upstream's
/// stream exchanges go. Answers must stay byte-identical to the
/// in-process engine side whichever transport carries them.
fn run_socket_side(
    workload: &[WorkloadQuery],
    workers: usize,
    transport: Transport,
) -> io::Result<SideResult> {
    let (server, tcp) = dnsd::bind_same_port(diff_auth)?;
    let server = server.with_workers(workers);
    let addr = server.local_addr()?;
    let tcp_handle = tcp.spawn();
    let handle = server.spawn();
    let mut up = SocketUpstream::new(addr)?.with_timeout(Duration::from_secs(2));
    let result = run_side(workload, transport, &mut up);
    handle.shutdown();
    tcp_handle.shutdown();
    Ok(result)
}

/// Diffs the two sides into a report.
fn compare_sides(engine: &SideResult, socket: &SideResult) -> DifferentialReport {
    assert_eq!(engine.responses.len(), socket.responses.len());
    let mismatched_answers = engine
        .responses
        .iter()
        .zip(&socket.responses)
        .filter(|(a, b)| a != b)
        .count();

    let mut series: Vec<&String> = engine
        .metrics
        .series
        .keys()
        .chain(socket.metrics.series.keys())
        .collect();
    series.sort();
    series.dedup();
    let deltas: Vec<MetricDelta> = series
        .into_iter()
        .filter_map(|name| {
            let e = engine.metrics.series.get(name);
            let s = socket.metrics.series.get(name);
            if e == s {
                return None;
            }
            let render = |v: Option<&obs::MetricValue>| match v {
                Some(v) => format!("{v:?}"),
                None => "absent".to_string(),
            };
            Some(MetricDelta {
                series: name.clone(),
                engine: render(e),
                socket: render(s),
                whitelisted: is_whitelisted(name),
            })
        })
        .collect();

    DifferentialReport {
        queries: engine.responses.len(),
        mismatched_answers,
        stats_equal: engine.stats == socket.stats,
        cache_equal: engine.cache == socket.cache,
        socket_timeouts: socket.stats.upstream_timeouts,
        whitelist: METRIC_WHITELIST.to_vec(),
        deltas,
    }
}

/// The full workers × transport differential cell: seeded workload played
/// through the in-process engine and through real loopback sockets, both
/// pinned to `transport`.
pub fn run_differential(
    queries: usize,
    seed: u64,
    workers: usize,
    transport: Transport,
) -> io::Result<DifferentialReport> {
    let workload = seeded_workload(queries, seed);
    let engine = run_engine_side(&workload, transport);
    let socket = run_socket_side(&workload, workers, transport)?;
    Ok(compare_sides(&engine, &socket))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_routable() {
        let a = seeded_workload(500, 7);
        let b = seeded_workload(500, 7);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.name, y.name);
            assert_eq!(x.client, y.client);
        }
        let c = seeded_workload(500, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.client != y.client));
        // Clients stay in routable space (the resolver derives ECS from
        // them; non-routable sources would perturb the §6 oracles).
        for w in &a {
            let IpAddr::V4(v4) = w.client else {
                panic!("v4 workload")
            };
            assert!(!v4.is_private() && !v4.is_loopback());
        }
    }

    #[test]
    fn engine_side_is_reproducible() {
        let workload = seeded_workload(2_000, 42);
        let a = run_engine_side(&workload, Transport::Udp);
        let b = run_engine_side(&workload, Transport::Udp);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.metrics, b.metrics);
        // Self-diff is trivially clean.
        let d = compare_sides(&a, &b);
        assert!(d.pass());
        assert_eq!(d.mismatched_answers, 0);
        assert!(d.deltas.is_empty());
    }

    #[test]
    fn whitelist_globs_match_cache_series() {
        assert!(is_whitelisted("cache_hits_total"));
        assert!(is_whitelisted("resolver_retries_total"));
        assert!(is_whitelisted("resolver_transport_fallbacks_total"));
        assert!(is_whitelisted("resolver_transport_fallbacks_to_tcp_total"));
        assert!(!is_whitelisted("resolver_client_queries_total"));
        assert!(!is_whitelisted("resolver_servfail_responses_total"));
    }
}
