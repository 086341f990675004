//! Loopback end-to-end: the resolution engine's retry and TCP-fallback
//! policy driving real sockets.
//!
//! The same `Resolver` that runs in the deterministic simulator is wired to
//! a live `UdpAuthServer`/`TcpAuthServer` pair through `SocketUpstream`,
//! with server-side fault injection (`ServerFaults`) standing in for a
//! lossy network. When the environment offers no loopback sockets, each
//! test prints a visible `SKIP` line via `dnsd::testutil` — and fails
//! outright when `ECS_REQUIRE_LOOPBACK` is set (CI sets it).

use std::net::{IpAddr, SocketAddr};
use std::time::{Duration, Instant};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use dnsd::{DigClient, DigError, ServerFaults, SocketUpstream, TcpAuthServer, UdpAuthServer};
use netsim::SimTime;
use resolver::{Resolver, ResolverConfig, Transport, TransportPolicy, Upstream, UpstreamError};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

fn demo_auth() -> AuthServer {
    let mut zone = Zone::new(name("demo.example"));
    zone.add_a(
        name("www.demo.example"),
        60,
        std::net::Ipv4Addr::new(198, 51, 100, 7),
    )
    .unwrap();
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

const RES: &str = "9.9.9.9";
const CLIENT: &str = "192.0.2.77";

fn client_query() -> Message {
    Message::query(21, Question::a(name("www.demo.example")))
}

#[test]
fn truncated_udp_falls_back_to_real_tcp() {
    if !dnsd::testutil::require_loopback("truncated_udp_falls_back_to_real_tcp") {
        return;
    }
    // Same port, same zone state, both transports.
    let Some((udp, tcp)) =
        dnsd::testutil::bind_same_port_pair("truncated_udp_falls_back_to_real_tcp", demo_auth)
    else {
        return;
    };
    let udp = udp.with_faults(ServerFaults {
        truncate_udp: true,
        ..ServerFaults::default()
    });
    let addr = udp.local_addr().unwrap();
    let udp_handle = udp.spawn();
    let tcp_handle = tcp.spawn();

    let mut up = SocketUpstream::new(addr)
        .unwrap()
        .with_timeout(Duration::from_secs(2));
    let res_addr: IpAddr = RES.parse().unwrap();
    let mut r = Resolver::new(ResolverConfig::rfc_compliant(res_addr));
    let resp = r.resolve_msg(
        &client_query(),
        CLIENT.parse().unwrap(),
        SimTime::ZERO,
        &mut up,
    );

    assert_eq!(resp.answer_addrs().len(), 1, "TCP recovered the answer");
    assert!(!resp.flags.tc);
    assert_eq!(r.stats().tcp_fallbacks, 1);
    assert_eq!(r.stats().servfail_responses, 0);
    // Both transports hit the same authoritative: one truncated UDP
    // exchange, one full TCP exchange.
    assert_eq!(udp_handle.auth.lock().log().len(), 2);

    udp_handle.shutdown();
    tcp_handle.shutdown();
}

#[test]
fn dropped_queries_are_retried_with_ecs_withdrawn() {
    if !dnsd::testutil::require_loopback("dropped_queries_are_retried_with_ecs_withdrawn") {
        return;
    }
    let udp = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
        .expect("loopback available")
        .with_faults(ServerFaults {
            drop_first: 2,
            ..ServerFaults::default()
        });
    let addr = udp.local_addr().unwrap();
    let handle = udp.spawn();

    // Short socket timeout so two swallowed attempts cost well under a
    // second of wall clock; the engine's RetryPolicy (4 attempts) retries.
    let mut up = SocketUpstream::new(addr)
        .unwrap()
        .with_timeout(Duration::from_millis(200));
    let res_addr: IpAddr = RES.parse().unwrap();
    let mut r = Resolver::new(ResolverConfig::rfc_compliant(res_addr));
    let resp = r.resolve_msg(
        &client_query(),
        CLIENT.parse().unwrap(),
        SimTime::ZERO,
        &mut up,
    );

    assert_eq!(resp.answer_addrs().len(), 1, "third attempt succeeded");
    let s = r.stats();
    assert_eq!(s.retries, 2);
    assert_eq!(s.upstream_timeouts, 2);
    assert_eq!(s.ecs_withdrawals, 1, "withdrawn once, then already absent");
    assert!(r.probing_state().marked_non_ecs);
    // Swallowed queries never reached the handler; the one answered query
    // arrived without ECS (RFC 7871 §7.1.3 retry).
    let log = handle.auth.lock().log().to_vec();
    assert_eq!(log.len(), 1);
    assert!(log[0].ecs.is_none());

    handle.shutdown();
}

#[test]
fn tcp_primary_policy_never_touches_udp() {
    if !dnsd::testutil::require_loopback("tcp_primary_policy_never_touches_udp") {
        return;
    }
    // A UDP server that swallows *everything*: if the TCP-pinned policy
    // ever sent a datagram, the test would time out into retries.
    let udp = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
        .expect("loopback available")
        .with_faults(ServerFaults {
            drop_first: u32::MAX,
            ..ServerFaults::default()
        });
    let udp_addr = udp.local_addr().unwrap();
    // The TCP listener on its own port, serving the same shared zone.
    let Some(tcp) = dnsd::testutil::require_socket(
        "tcp_primary_policy_never_touches_udp",
        "binding a separate TCP listener",
        TcpAuthServer::bind("127.0.0.1:0", udp.auth()),
    ) else {
        return;
    };
    let tcp_addr = tcp.local_addr().unwrap();
    let udp_handle = udp.spawn();
    let tcp_handle = tcp.spawn();

    let mut up = SocketUpstream::new(udp_addr)
        .unwrap()
        .with_timeout(Duration::from_secs(2))
        .with_tcp_server(tcp_addr);
    let res_addr: IpAddr = RES.parse().unwrap();
    let mut r = Resolver::new(ResolverConfig {
        transport: TransportPolicy::prefer(Transport::Tcp),
        ..ResolverConfig::rfc_compliant(res_addr)
    });
    let resp = r.resolve_msg(
        &client_query(),
        CLIENT.parse().unwrap(),
        SimTime::ZERO,
        &mut up,
    );

    assert_eq!(resp.answer_addrs().len(), 1, "served entirely over TCP");
    let s = r.stats();
    assert_eq!(
        s.upstream_timeouts, 0,
        "the hostile UDP path was never used"
    );
    assert_eq!(s.retries, 0);
    assert_eq!(s.transport_fallbacks, 0, "first rung worked; no edge taken");
    // Exactly one exchange reached the shared authoritative — through the
    // TCP listener.
    assert_eq!(udp_handle.auth.lock().log().len(), 1);

    udp_handle.shutdown();
    tcp_handle.shutdown();
}

#[test]
fn udp_truncation_climbs_the_ladder_to_the_tcp_listener() {
    if !dnsd::testutil::require_loopback("udp_truncation_climbs_the_ladder_to_the_tcp_listener") {
        return;
    }
    let udp = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
        .expect("loopback available")
        .with_faults(ServerFaults {
            truncate_udp: true,
            ..ServerFaults::default()
        });
    let udp_addr = udp.local_addr().unwrap();
    let Some(tcp) = dnsd::testutil::require_socket(
        "udp_truncation_climbs_the_ladder_to_the_tcp_listener",
        "binding a separate TCP listener",
        TcpAuthServer::bind("127.0.0.1:0", udp.auth()),
    ) else {
        return;
    };
    let tcp_addr = tcp.local_addr().unwrap();
    let udp_handle = udp.spawn();
    let tcp_handle = tcp.spawn();

    let mut up = SocketUpstream::new(udp_addr)
        .unwrap()
        .with_timeout(Duration::from_secs(2))
        .with_tcp_server(tcp_addr);
    let res_addr: IpAddr = RES.parse().unwrap();
    // An explicit UDP → TCP ladder: the TC reply takes the counted ladder
    // edge instead of the legacy inline re-query.
    let mut r = Resolver::new(ResolverConfig {
        transport: TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
        ..ResolverConfig::rfc_compliant(res_addr)
    });
    let resp = r.resolve_msg(
        &client_query(),
        CLIENT.parse().unwrap(),
        SimTime::ZERO,
        &mut up,
    );

    assert_eq!(
        resp.answer_addrs().len(),
        1,
        "TCP rung recovered the answer"
    );
    assert!(!resp.flags.tc);
    let s = r.stats();
    assert_eq!(s.tcp_fallbacks, 1, "the RFC 7766 trigger fired");
    assert_eq!(s.transport_fallbacks, 1, "…and climbed the ladder");
    assert_eq!(s.servfail_responses, 0);
    // One truncated UDP exchange plus one full TCP exchange.
    assert_eq!(udp_handle.auth.lock().log().len(), 2);

    udp_handle.shutdown();
    tcp_handle.shutdown();
}

#[test]
fn unreachable_server_ends_in_servfail_not_hang() {
    if !dnsd::testutil::require_loopback("unreachable_server_ends_in_servfail_not_hang") {
        return;
    }
    // Bind-then-drop for a (very likely) dead port.
    let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback available");
    let dead = sock.local_addr().unwrap();
    drop(sock);

    let mut up = SocketUpstream::new(dead)
        .unwrap()
        .with_timeout(Duration::from_millis(50));
    let res_addr: IpAddr = RES.parse().unwrap();
    let mut r = Resolver::new(ResolverConfig::rfc_compliant(res_addr));
    let resp = r.resolve_msg(
        &client_query(),
        CLIENT.parse().unwrap(),
        SimTime::ZERO,
        &mut up,
    );
    // Four 50 ms attempts later: a clean SERVFAIL, never silence.
    assert_eq!(resp.rcode, dns_wire::Rcode::ServFail);
    assert_eq!(r.stats().servfail_responses, 1);
    assert_eq!(r.stats().upstream_timeouts as usize, 4);
}

/// One 100 ms UDP attempt at `server`; `None` is a timeout.
type Subject = fn(SocketAddr) -> Option<Message>;

/// Everything that makes a deadline-bounded UDP attempt: the engine's
/// upstream and the dig client, both over `dnsd`'s one attempt function.
const SUBJECTS: [(&str, Subject); 2] = [
    ("SocketUpstream", |server| {
        let mut up = SocketUpstream::new(server)
            .unwrap()
            .with_timeout(Duration::from_millis(100));
        match up.query(&client_query(), RES.parse().unwrap(), SimTime::ZERO) {
            Ok(resp) => Some(resp),
            Err(UpstreamError::Timeout) => None,
            Err(e) => panic!("SocketUpstream: {e:?}"),
        }
    }),
    ("DigClient", |server| {
        let mut dig = DigClient::new().unwrap();
        dig.timeout = Duration::from_millis(100);
        dig.retries = 0;
        match dig.exchange(server, &client_query()) {
            Ok(resp) => Some(resp),
            Err(DigError::Timeout) => None,
            Err(e) => panic!("DigClient: {e}"),
        }
    }),
];

#[test]
fn chattering_upstream_cannot_stretch_an_attempt_past_its_timeout() {
    const TEST: &str = "chattering_upstream_cannot_stretch_an_attempt_past_its_timeout";
    if !dnsd::testutil::require_loopback(TEST) {
        return;
    }
    for (subject, ask) in SUBJECTS {
        // An upstream that never answers the question but sends a
        // well-formed response with the wrong id every 10 ms — for at most
        // 2 s, so an attempt whose window restarts on every datagram ends
        // too, just far too late.
        let chatter = std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback available");
        let chatter_addr = chatter.local_addr().unwrap();
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hush = std::sync::Arc::clone(&done);
        let chatterer = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = chatter.recv_from(&mut buf).unwrap();
            let mut wrong = Message::response_to(&Message::from_bytes(&buf[..n]).unwrap());
            wrong.id = wrong.id.wrapping_add(1);
            let wrong = wrong.to_bytes().unwrap();
            let until = Instant::now() + Duration::from_secs(2);
            while Instant::now() < until && !hush.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = chatter.send_to(&wrong, peer);
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        let asked = Instant::now();
        let outcome = ask(chatter_addr);
        let took = asked.elapsed();
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        chatterer.join().unwrap();
        assert!(outcome.is_none(), "{subject}: {outcome:?}");
        assert!(
            took >= Duration::from_millis(100),
            "{subject} gave up early: {took:?}"
        );
        assert!(
            took < Duration::from_millis(300),
            "{subject}: attempt took {took:?}"
        );
    }
}

#[test]
fn garbled_datagram_then_the_answer_is_the_answer() {
    if !dnsd::testutil::require_loopback("garbled_datagram_then_the_answer_is_the_answer") {
        return;
    }
    for (subject, ask) in SUBJECTS {
        // The server's first datagram is too short to be a DNS header;
        // the real answer follows it inside the same attempt window.
        let server = std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback available");
        let server_addr = server.local_addr().unwrap();
        let serving = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = server.recv_from(&mut buf).unwrap();
            let answer = Message::response_to(&Message::from_bytes(&buf[..n]).unwrap());
            server.send_to(&[0xFF; 5], peer).unwrap();
            server.send_to(&answer.to_bytes().unwrap(), peer).unwrap();
        });
        let outcome = ask(server_addr);
        serving.join().unwrap();
        let resp = outcome.unwrap_or_else(|| panic!("{subject} gave up on the garbage"));
        assert_eq!(resp.id, client_query().id, "{subject}");
        assert!(resp.is_response(), "{subject}");
    }
}
