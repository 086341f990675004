//! Integration: the classic UDP → TC → TCP fallback dance, over real
//! sockets on loopback, with both transports serving the same zone.

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Name, Rdata, Record};
use dnsd::testutil::bind_same_port_pair;
use dnsd::DigClient;
use std::net::Ipv4Addr;

fn big_auth(records: u8) -> AuthServer {
    let mut zone = Zone::new(Name::from_ascii("big.example").unwrap());
    for i in 0..records {
        zone.add(Record::new(
            Name::from_ascii("www.big.example").unwrap(),
            60,
            Rdata::A(Ipv4Addr::new(198, 51, 100, i + 1)),
        ))
        .unwrap();
    }
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

/// One TCP exchange of a built query, its reply decoded.
fn tcp_exchange(addr: std::net::SocketAddr, q: &dns_wire::Message) -> dns_wire::Message {
    let timeout = std::time::Duration::from_secs(2);
    let reply = dnsd::tcp_exchange(addr, &q.to_bytes().unwrap(), timeout).unwrap();
    dns_wire::Message::from_bytes(&reply).unwrap()
}

#[test]
fn udp_truncation_falls_back_to_tcp() {
    // One port number on both transports, so the RFC 7766 same-port
    // fallback works.
    let Some((udp, tcp)) =
        bind_same_port_pair("udp_truncation_falls_back_to_tcp", || big_auth(200))
    else {
        return;
    };
    let addr = udp.local_addr().unwrap();
    let udp_handle = udp.spawn();
    let tcp_handle = tcp.spawn();

    let mut dig = DigClient::new().unwrap();
    // Force truncation by advertising a small payload: craft the query by
    // hand so we control the EDNS size.
    let name = Name::from_ascii("www.big.example").unwrap();
    let mut q = dns_wire::Message::query(0x7777, dns_wire::Question::a(name));
    q.set_edns(512);
    q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
    let udp_resp = dig.exchange(addr, &q).unwrap();
    assert!(udp_resp.flags.tc, "200 A records cannot fit 512 bytes");
    assert!(udp_resp.answers.is_empty());

    // The TCP retry returns the whole thing.
    let tcp_resp = tcp_exchange(addr, &q);
    assert!(!tcp_resp.flags.tc);
    assert_eq!(tcp_resp.answers.len(), 200);
    assert_eq!(tcp_resp.id, 0x7777);
    // ECS still echoed with a scope over TCP.
    assert!(tcp_resp.ecs().is_some());

    udp_handle.shutdown();
    tcp_handle.shutdown();
}

#[test]
fn query_a_does_the_fallback_automatically() {
    let Some((udp, tcp)) =
        bind_same_port_pair("query_a_does_the_fallback_automatically", || big_auth(200))
    else {
        return;
    };
    let addr = udp.local_addr().unwrap();
    let udp_handle = udp.spawn();
    let tcp_handle = tcp.spawn();

    // query_a advertises 4096 bytes: 200 compressed A records (~3.2 KB)
    // fit, so this resolves over plain UDP without truncation...
    let mut dig = DigClient::new().unwrap();
    let name = Name::from_ascii("www.big.example").unwrap();
    let resp = dig.query_a(addr, &name, None).unwrap();
    assert!(!resp.flags.tc);
    assert_eq!(resp.answers.len(), 200);

    // ...and a client that can only take 512 bytes transparently ends up
    // with the full TCP answer through the same query_a path.
    let mut q = dns_wire::Message::query(0x3333, dns_wire::Question::a(name));
    q.set_edns(512);
    let udp_resp = dig.exchange(addr, &q).unwrap();
    assert!(udp_resp.flags.tc);
    let full = tcp_exchange(addr, &q);
    assert_eq!(full.answers.len(), 200);

    udp_handle.shutdown();
    tcp_handle.shutdown();
}
