//! The transport-fallback matrix: scripted per-transport faults pinning
//! every edge of the engine's transport ladder.
//!
//! Each cell wires a [`FaultyUpstream`] with a standing fault (lossy
//! fragmentation on UDP, REFUSED on TCP, a black-holed DoT handshake) under
//! an explicit [`TransportPolicy`] ladder and asserts three things:
//!
//! 1. the expected ladder edge is taken (legacy stats, the
//!    `resolver_transport_fallbacks_to_tcp_total` counter and the
//!    exchanges each rung carried);
//! 2. the client outcome is right (full answer after a successful fall,
//!    SERVFAIL only when every rung is broken);
//! 3. RFC 7871 §7.1.3 ECS withdrawal survives the ladder: a timeout-driven
//!    withdrawal on one rung stays withdrawn on the rung that answers.
//!
//! A table then holds every source of a truncation to one exchange path:
//! a TC datagram at the seam, one RFC 7766 fallback, the inline TCP
//! re-query and the whole answer.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use std::sync::Arc;

use dns_wire::{Message, MessageView, Name, Question, Rcode};
use netsim::{LinkFaults, PathProfile, SimTime, Transport};
use obs::MetricValue;
use resolver::{
    FaultyUpstream, InjectedFault, ProbingStrategy, Resolver, ResolverConfig, RetryPolicy,
    TransportPolicy, Upstream, UpstreamError,
};

const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 70, 1, 10));

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

/// A zone whose answer (~1 kB) overflows both a 512-byte EDNS buffer and a
/// 512-byte path MTU, but fits the engine's default 4096 advertisement.
fn big_auth() -> AuthServer {
    let mut zone = Zone::new(name("big.test"));
    for i in 0..60u8 {
        zone.add_a(name("www.big.test"), 60, Ipv4Addr::new(198, 51, 100, i))
            .unwrap();
    }
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

/// A resolver on `transport` that spends `attempts` on each rung.
fn config(transport: TransportPolicy, attempts: u8) -> ResolverConfig {
    ResolverConfig {
        probing: ProbingStrategy::Always,
        transport,
        retry: RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        },
        ..ResolverConfig::rfc_compliant(RES)
    }
}

fn counter(r: &Resolver, series: &str) -> u64 {
    match r.metrics_snapshot().series.get(series) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{series} is not a counter: {other:?}"),
    }
}

fn ask(r: &mut Resolver, up: &mut FaultyUpstream<AuthServer>) -> Message {
    let q = Message::query(1, Question::a(name("www.big.test")));
    r.resolve_msg(&q, CLIENT, SimTime::ZERO, up)
}

#[test]
fn fragment_loss_exhausts_udp_and_falls_to_tcp() {
    let mut r = Resolver::new(config(TransportPolicy::full_ladder(), 2));
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7).with_profile(PathProfile {
        mtu: 512,
        frag_loss: 1.0,
    });

    let resp = ask(&mut r, &mut up);
    assert_eq!(resp.rcode, Rcode::NoError);
    assert_eq!(resp.answers.len(), 60, "TCP rung delivered the full answer");

    let stats = r.stats();
    assert_eq!(
        stats.upstream_timeouts, 2,
        "both UDP attempts fragmented away"
    );
    assert_eq!(stats.transport_fallbacks, 1);
    assert_eq!(counter(&r, "resolver_transport_fallbacks_total"), 1);
    assert_eq!(counter(&r, "resolver_transport_fallbacks_to_tcp_total"), 1);
    assert_eq!(up.stats().transport.fragments_dropped, 2);
    assert_eq!(up.stats().transport.exchanges_over(Transport::Tcp), 1);
}

#[test]
fn truncation_jumps_to_the_next_stream_rung() {
    let policy = TransportPolicy {
        edns_buf: 512,
        ..TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp])
    };
    let mut r = Resolver::new(config(policy, RetryPolicy::default().attempts));
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7);

    let resp = ask(&mut r, &mut up);
    assert_eq!(resp.answers.len(), 60);

    let stats = r.stats();
    assert_eq!(stats.tcp_fallbacks, 1, "the RFC 7766 trigger fired");
    assert_eq!(stats.transport_fallbacks, 1, "…and took the ladder edge");
    assert_eq!(stats.upstream_timeouts, 0, "truncation is not a timeout");
    assert_eq!(counter(&r, "resolver_transport_fallbacks_to_tcp_total"), 1);
    assert_eq!(up.stats().transport.exchanges_over(Transport::Udp), 1);
    assert_eq!(up.stats().transport.exchanges_over(Transport::Tcp), 1);
}

#[test]
fn refused_tcp_falls_to_dot() {
    let mut r = Resolver::new(config(
        TransportPolicy::with_ladder([Transport::Tcp, Transport::Dot]),
        1,
    ));
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7)
        .pin(Transport::Tcp, InjectedFault::Refused);

    let resp = ask(&mut r, &mut up);
    assert_eq!(resp.rcode, Rcode::NoError);
    assert_eq!(resp.answers.len(), 60);

    let stats = r.stats();
    assert_eq!(stats.servfail_responses, 0);
    assert_eq!(stats.transport_fallbacks, 1);
    assert_eq!(counter(&r, "resolver_transport_fallbacks_to_tcp_total"), 0);
    assert_eq!(up.stats().transport.exchanges_over(Transport::Dot), 1);
}

#[test]
fn dot_timeout_withdraws_ecs_and_the_withdrawal_survives_the_fall() {
    let mut r = Resolver::new(config(
        TransportPolicy::with_ladder([Transport::Dot, Transport::Tcp]),
        2,
    ));
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7)
        .pin(Transport::Dot, InjectedFault::Timeout);

    let resp = ask(&mut r, &mut up);
    assert_eq!(resp.rcode, Rcode::NoError);
    assert_eq!(resp.answers.len(), 60);

    let stats = r.stats();
    assert_eq!(stats.upstream_timeouts, 2);
    assert_eq!(
        stats.ecs_withdrawals, 1,
        "the first DoT timeout withdrew ECS (RFC 7871 §7.1.3)"
    );
    assert_eq!(stats.transport_fallbacks, 1);
    assert_eq!(counter(&r, "resolver_transport_fallbacks_to_tcp_total"), 1);
    // The faulted DoT rung never reached the authoritative; the one
    // exchange that did — over TCP — must carry the withdrawn (absent)
    // ECS option.
    let log = up.inner().log();
    assert_eq!(log.len(), 1, "only the TCP exchange reached the server");
    assert!(
        log[0].ecs.is_none(),
        "the §7.1.3 withdrawal survived the transport fall"
    );
}

#[test]
fn all_rungs_faulted_ends_in_servfail() {
    let mut r = Resolver::new(config(
        TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
        1,
    ));
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7)
        .pin(Transport::Udp, InjectedFault::Timeout)
        .pin(Transport::Tcp, InjectedFault::Refused);

    let resp = ask(&mut r, &mut up);
    assert_eq!(resp.rcode, Rcode::ServFail);

    let stats = r.stats();
    assert_eq!(stats.servfail_responses, 1);
    assert_eq!(stats.upstream_timeouts, 1);
    assert_eq!(
        stats.transport_fallbacks, 1,
        "the one available edge was tried"
    );
    assert_eq!(up.inner().log().len(), 0, "nothing ever reached the server");
}

#[test]
fn fallback_cells_are_deterministic() {
    let run = || {
        let mut r = Resolver::new(config(TransportPolicy::full_ladder(), 2));
        let mut up =
            FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7).with_profile(PathProfile {
                mtu: 512,
                frag_loss: 1.0,
            });
        let resp = ask(&mut r, &mut up).to_bytes().unwrap();
        (resp, r.stats(), up.stats())
    };
    let (resp_a, stats_a, tstats_a) = run();
    let (resp_b, stats_b, tstats_b) = run();
    assert_eq!(resp_a, resp_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(tstats_a, tstats_b);
}

/// An upstream that notes, per exchange, the transport and whether the
/// reply it handed back had TC set.
struct Seam {
    inner: FaultyUpstream<AuthServer>,
    replies: Vec<(Transport, bool)>,
}

impl Upstream for Seam {
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let reply = self.inner.query_via(q, from, now, transport)?;
        let tc = MessageView::parse(&reply).unwrap().flags().tc;
        self.replies.push((transport, tc));
        Ok(reply)
    }
}

#[test]
fn every_truncation_source_takes_one_exchange_path() {
    let truncating_link = LinkFaults {
        truncate_replies: 1.0,
        ..LinkFaults::NONE
    };
    // (source, advertised EDNS buffer, the upstream). Only the last row's
    // answer is too big for its buffer.
    let rows = [
        (
            "scripted Truncate",
            4096,
            FaultyUpstream::scripted(big_auth(), vec![InjectedFault::Truncate]),
        ),
        (
            "truncate_replies 1.0",
            4096,
            FaultyUpstream::new(big_auth(), truncating_link, 7),
        ),
        (
            "the server's own limit",
            512,
            FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7),
        ),
    ];
    for (source, edns_buf, inner) in rows {
        let policy = TransportPolicy {
            edns_buf,
            ..TransportPolicy::udp_only()
        };
        let mut r = Resolver::new(config(policy, RetryPolicy::default().attempts));
        let sink = Arc::new(obs::MemorySink::new());
        r.set_tracer(obs::Tracer::new(sink.clone()));
        let mut up = Seam {
            inner,
            replies: Vec::new(),
        };
        let q = Message::query(1, Question::a(name("www.big.test")));
        let resp = r.resolve_msg(&q, CLIENT, SimTime::ZERO, &mut up);

        assert_eq!(
            up.replies,
            [(Transport::Udp, true), (Transport::Tcp, false)],
            "{source}: a TC datagram, then the inline TCP re-query"
        );
        assert_eq!(resp.answers.len(), 60, "{source}");
        let stats = r.stats();
        assert_eq!(stats.tcp_fallbacks, 1, "{source}");
        assert_eq!(stats.retries + stats.upstream_timeouts, 0, "{source}");
        assert_eq!(up.inner.inner().log().len(), 2, "{source}");
        let lines = sink.lines();
        let events = obs::analyze::parse_events(&lines.join("\n")).unwrap();
        let attempt = events.iter().find(|e| e.event == "upstream_attempt");
        let faults: Vec<_> = events
            .iter()
            .zip(&lines)
            .filter(|(e, _)| e.event == "upstream_fault")
            .collect();
        assert_eq!(faults.len(), 1, "{source}: one traced fault");
        let (fault, line) = faults[0];
        assert!(line.contains("\"kind\":\"truncated\""), "{source}: {line}");
        assert_eq!(Some(fault.parent), attempt.map(|a| a.span), "{source}");
    }
}
