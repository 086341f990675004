//! The authoritative on a socket answers through its one datagram path:
//! every reply a [`UdpAuthServer`] sends is, byte for byte, what
//! [`AuthServer::reply`] gives a twin server for the same datagram, a
//! reply the server truncated against the query's advertised buffer
//! included. The simulator's [`AuthActor`], stepped on a [`SocketHost`],
//! sends the same replies.

use std::net::{IpAddr, Ipv4Addr, UdpSocket};
use std::time::Duration;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, MessageView, Name, Question};
use dnsd::UdpAuthServer;
use netsim::{SimTime, SocketHost, Transport};
use resolver::actors::AuthActor;

/// `www.demo.example` has one A record; `big.demo.example` has 60, about
/// 1 kB, which overflows a 512-byte buffer.
fn demo_auth() -> AuthServer {
    let mut zone = Zone::new(Name::from_ascii("demo.example").unwrap());
    zone.add_a(
        Name::from_ascii("www.demo.example").unwrap(),
        60,
        Ipv4Addr::new(198, 51, 100, 1),
    )
    .unwrap();
    for i in 0..60 {
        zone.add_a(
            Name::from_ascii("big.demo.example").unwrap(),
            60,
            Ipv4Addr::new(198, 51, 101, i),
        )
        .unwrap();
    }
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)))
}

/// A plain query, an ECS query, NXDOMAIN, out-of-zone REFUSED, an empty
/// question (FORMERR) and an answer too big for its 512-byte buffer (TC),
/// each as the datagram sent.
fn queries() -> Vec<(&'static str, Vec<u8>)> {
    let query = |id, name: &str| Message::query(id, Question::a(Name::from_ascii(name).unwrap()));
    let with_edns = |mut m: Message| {
        m.set_edns(1232);
        m
    };
    let mut ecs = query(2, "www.demo.example");
    ecs.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
    let mut empty = with_edns(query(5, "www.demo.example"));
    empty.questions.clear();
    let mut oversize = query(6, "big.demo.example");
    oversize.set_edns(512);
    [
        ("plain", query(1, "www.demo.example")),
        ("ecs", ecs),
        ("nxdomain", with_edns(query(3, "nope.demo.example"))),
        ("refused", with_edns(query(4, "www.elsewhere.test"))),
        ("formerr", empty),
        ("oversize", oversize),
    ]
    .into_iter()
    .map(|(case, m)| (case, m.to_bytes().unwrap()))
    .collect()
}

#[test]
fn socket_replies_are_the_datagram_path_s_byte_for_byte() {
    if !dnsd::testutil::require_loopback("socket_replies_are_the_datagram_path_s_byte_for_byte") {
        return;
    }
    let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();
    let mut twin = demo_auth();

    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let from = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut buf = [0u8; 4096];
    let mut sent = Vec::new();
    for (case, query) in queries() {
        client.send_to(&query, addr).unwrap();
        let (n, _) = client.recv_from(&mut buf).unwrap();
        let view = MessageView::parse(&query).unwrap();
        let want = twin
            .reply(view, from, SimTime::ZERO, Transport::Udp, Vec::new())
            .expect("a query is answered");
        let tc = MessageView::parse(&want).unwrap().flags().tc;
        assert_eq!(tc, case == "oversize", "{case}");
        assert_eq!(buf[..n], want[..], "{case}");
        sent.push((case, query, want));
    }
    assert_eq!(handle.auth.lock().log().len(), twin.log().len());
    handle.shutdown();
    hosted_actor_replies_as_sent(&sent, twin.log().len());
}

/// An [`AuthActor`] on a [`SocketHost`] answers each `(case, query,
/// reply)` of `sent` with `reply`, and logs its `logged` queries from
/// 127.0.0.1, the address the host's book gives the client's id. The
/// FORMERR query logs nothing, so the queries go in reverse order: once
/// the log is full, every datagram has been read.
fn hosted_actor_replies_as_sent(sent: &[(&str, Vec<u8>, Vec<u8>)], logged: usize) {
    let mut host = SocketHost::bind("127.0.0.1:0").unwrap();
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    host.node_for(client.local_addr().unwrap());
    for (_, query, _) in sent.iter().rev() {
        client.send_to(query, host.local_addr()).unwrap();
    }
    let mut actor = AuthActor::new(demo_auth());
    let full = |a: &AuthActor| a.server().log().len() == logged;
    assert!(host.run(&mut actor, Duration::from_secs(5), full));
    let mut buf = [0u8; 4096];
    for (case, _, want) in sent.iter().rev() {
        let (n, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(buf[..n], want[..], "{case}, hosted AuthActor");
    }
    let localhost = IpAddr::V4(Ipv4Addr::LOCALHOST);
    assert!(actor.server().log().iter().all(|e| e.resolver == localhost));
}
