//! Cross-worker coalescing and global admission control for the
//! multi-worker resolver serving path, driven through real sockets
//! against a *scripted* upstream — a bare UDP responder with a
//! configurable answer delay, so tests can hold flights open long enough
//! for queries to pile up across workers.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dns_wire::{Message, Name, Question, Rcode, Rdata, Record};
use dnsd::UdpResolverServer;
use resolver::{ResolverConfig, Transport, TransportPolicy};

/// A scripted authoritative: answers every A query with a fixed address
/// after `delay`, counting the queries it saw. Single-threaded on
/// purpose — the *resolver pool* under test is what must limit and
/// coalesce upstream traffic.
struct ScriptedUpstream {
    addr: SocketAddr,
    queries_seen: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedUpstream {
    fn start(delay: Duration) -> Self {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind scripted upstream");
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let addr = socket.local_addr().expect("bound");
        let queries_seen = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let queries_seen = Arc::clone(&queries_seen);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while !stop.load(Ordering::SeqCst) {
                    let (n, peer) = match socket.recv_from(&mut buf) {
                        Ok(r) => r,
                        Err(_) => continue, // timeout: re-check stop
                    };
                    let Ok(query) = Message::from_bytes(&buf[..n]) else {
                        continue;
                    };
                    queries_seen.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(delay);
                    let mut resp = Message::response_to(&query);
                    if let Some(q) = query.question() {
                        resp.answers.push(Record::new(
                            q.name.clone(),
                            60,
                            Rdata::A(Ipv4Addr::new(198, 51, 100, 7)),
                        ));
                    }
                    let _ = socket.send_to(&resp.to_bytes().expect("encodes"), peer);
                }
            })
        };
        ScriptedUpstream {
            addr,
            queries_seen,
            stop,
            thread: Some(thread),
        }
    }

    fn queries_seen(&self) -> usize {
        self.queries_seen.load(Ordering::SeqCst)
    }
}

impl Drop for ScriptedUpstream {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn base_config() -> ResolverConfig {
    ResolverConfig::rfc_compliant(std::net::IpAddr::V4(Ipv4Addr::LOCALHOST))
}

/// Sends `queries` (already encoded) spaced `gap` apart, then collects
/// exactly `queries.len()` responses (any order). Panics on a dry socket.
fn send_spaced_collect(
    client: &UdpSocket,
    server: SocketAddr,
    queries: &[Vec<u8>],
    gap: Duration,
) -> Vec<Message> {
    for q in queries {
        client.send_to(q, server).expect("send");
        std::thread::sleep(gap);
    }
    let mut responses = Vec::new();
    let mut buf = [0u8; 4096];
    while responses.len() < queries.len() {
        let (n, _) = client.recv_from(&mut buf).expect("response expected");
        responses.push(Message::from_bytes(&buf[..n]).expect("decodes"));
    }
    responses
}

/// Owner, joiner, shed or cache hit: however a query left, it left one
/// sample in the latency histogram.
fn assert_every_query_has_a_latency_sample(snap: &obs::MetricsSnapshot) {
    assert_eq!(
        snap.histogram("resolver_query_latency_us").map(|h| h.count),
        snap.counter("resolver_client_queries_total")
    );
}

#[test]
fn identical_queries_across_workers_share_one_upstream_flight() {
    let upstream = ScriptedUpstream::start(Duration::from_millis(600));
    let mut config = base_config();
    config.overload.coalesce = true;

    let handle = UdpResolverServer::bind("127.0.0.1:0", upstream.addr, config)
        .expect("bind resolver")
        .with_workers(4)
        .with_upstream_timeout(Duration::from_secs(2))
        .spawn()
        .expect("spawn pool");
    let server = handle.local_addr();

    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Eight identical questions, distinct IDs, spaced so several workers
    // pick them up while the first one's 600 ms upstream flight is open.
    let queries: Vec<Vec<u8>> = (0..8u16)
        .map(|id| {
            Message::query(id, Question::a(Name::from_ascii("hot.test").unwrap()))
                .to_bytes()
                .unwrap()
        })
        .collect();
    let responses = send_spaced_collect(&client, server, &queries, Duration::from_millis(40));

    // Every client got the (identical) answer...
    let mut ids: Vec<u16> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..8).collect::<Vec<_>>(), "every query answered");
    for r in &responses {
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
    }
    // ...from exactly ONE upstream exchange: whichever worker owned the
    // flight resolved for everyone. Per-worker flight tables would have
    // sent up to 4.
    assert_eq!(
        upstream.queries_seen(),
        1,
        "flights coalesced across workers"
    );

    let snap = handle.shutdown();
    assert_every_query_has_a_latency_sample(&snap);
    assert_eq!(snap.counter("resolver_upstream_queries_total"), Some(1));
    // The 7 non-owner queries either joined the open flight (a worker was
    // free while it flew) or arrived after completion and hit the shared
    // cache — both paths avoid upstream, and they partition exactly.
    let coalesced = snap
        .counter("resolver_coalesced_queries_total")
        .unwrap_or(0);
    let hits = snap.counter("cache_hits_total").unwrap_or(0);
    assert_eq!(coalesced + hits, 7, "non-owners split join/cache-hit");
    assert!(
        coalesced >= 1,
        "at least one query joined the open flight cross-worker"
    );
    assert_eq!(snap.counter("resolver_shed_queries_total"), Some(0));
}

#[test]
fn tcp_pinned_pool_resolves_through_a_tcp_only_upstream() {
    if !dnsd::testutil::require_loopback("tcp_pinned_pool_resolves_through_a_tcp_only_upstream") {
        return;
    }
    // A TCP-only authoritative: the pool's upstream address has a TCP
    // listener and *no* UDP listener, so only a TCP-pinned transport
    // policy can resolve through it. The `UdpAuthServer` below is never
    // spawned — it exists to own the shared zone state the TCP listener
    // serves (and to read the query log back at the end).
    let mut zone = authoritative::Zone::new(Name::from_ascii("hot.test").unwrap());
    zone.add_a(
        Name::from_ascii("hot.test").unwrap(),
        60,
        Ipv4Addr::new(198, 51, 100, 7),
    )
    .expect("fresh zone");
    let auth = authoritative::AuthServer::new(
        zone,
        authoritative::EcsHandling::open(authoritative::ScopePolicy::MatchSource),
    );
    let donor = dnsd::UdpAuthServer::bind("127.0.0.1:0", auth).expect("loopback available");
    let shared = donor.auth();
    let Some(tcp) = dnsd::testutil::require_socket(
        "tcp_pinned_pool_resolves_through_a_tcp_only_upstream",
        "binding the TCP listener",
        dnsd::TcpAuthServer::bind("127.0.0.1:0", donor.auth()),
    ) else {
        return;
    };
    let tcp_addr = tcp.local_addr().expect("bound");
    let tcp_handle = tcp.spawn();
    drop(donor); // the UDP socket closes; the shared zone lives on

    let mut config = base_config();
    config.transport = TransportPolicy::prefer(Transport::Tcp);
    let handle = UdpResolverServer::bind("127.0.0.1:0", tcp_addr, config)
        .expect("bind resolver")
        .with_workers(2)
        .with_upstream_timeout(Duration::from_secs(2))
        .spawn()
        .expect("spawn pool");
    let server = handle.local_addr();

    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Four identical questions: the first resolves over TCP, the rest ride
    // the shared cache (or join the flight) — none may SERVFAIL, which is
    // what would happen if any worker tried the dead UDP path.
    let queries: Vec<Vec<u8>> = (0..4u16)
        .map(|id| {
            Message::query(id, Question::a(Name::from_ascii("hot.test").unwrap()))
                .to_bytes()
                .unwrap()
        })
        .collect();
    let responses = send_spaced_collect(&client, server, &queries, Duration::from_millis(30));

    for r in &responses {
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 7)]);
    }

    let snap = handle.shutdown();
    let upstream_queries = snap.counter("resolver_upstream_queries_total").unwrap_or(0);
    assert!(upstream_queries >= 1, "at least one exchange went upstream");
    assert_eq!(snap.counter("resolver_servfail_responses_total"), Some(0));
    // Engine accounting matches what the TCP listener actually served.
    assert_eq!(shared.lock().log().len() as u64, upstream_queries);

    tcp_handle.shutdown();
}

#[test]
fn max_in_flight_is_accounted_globally_not_per_worker() {
    let upstream = ScriptedUpstream::start(Duration::from_millis(600));
    let mut config = base_config();
    // Coalescing off so every admitted query is its own flight, cap 2.
    // Six workers make six concurrent admissions possible: a per-worker
    // cap of 2 would admit all six names; the global cap admits 2.
    config.overload.coalesce = false;
    config.overload.max_in_flight = Some(2);

    let handle = UdpResolverServer::bind("127.0.0.1:0", upstream.addr, config)
        .expect("bind resolver")
        .with_workers(6)
        .with_upstream_timeout(Duration::from_secs(3))
        .spawn()
        .expect("spawn pool");
    let server = handle.local_addr();

    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_secs(8)))
        .expect("timeout");

    // Six distinct names, spaced so each lands on a free worker while the
    // first two hold both admission slots for 600 ms.
    let queries: Vec<Vec<u8>> = (0..6u16)
        .map(|id| {
            let name = Name::from_ascii(&format!("n{id}.test")).unwrap();
            Message::query(id, Question::a(name)).to_bytes().unwrap()
        })
        .collect();
    let responses = send_spaced_collect(&client, server, &queries, Duration::from_millis(50));

    let answered = responses
        .iter()
        .filter(|r| r.rcode == Rcode::NoError && !r.answers.is_empty())
        .count();
    let refused = responses
        .iter()
        .filter(|r| r.rcode == Rcode::ServFail)
        .count();
    assert_eq!(answered + refused, 6, "every query got a definite outcome");

    let snap = handle.shutdown();
    assert_every_query_has_a_latency_sample(&snap);
    let shed = snap.counter("resolver_shed_queries_total").unwrap_or(0);
    let upstream_queries = snap.counter("resolver_upstream_queries_total").unwrap_or(0);
    assert_eq!(refused as u64, shed, "SERVFAILs are exactly the sheds");
    assert_eq!(
        upstream_queries as usize,
        upstream.queries_seen(),
        "engine accounting matches the wire"
    );
    assert_eq!(shed + upstream_queries, 6);
    // The global cap bit: with 6 workers and a per-worker cap of 2 no
    // query would ever shed. Timing decides the exact split (a late query
    // can land after an early flight freed its slot), but with both slots
    // held for 600 ms and queries 50 ms apart, most of the six must shed.
    assert!(
        shed >= 3,
        "cap of 2 admitted {upstream_queries} of 6 — accounting looks per-worker, not global"
    );
}
