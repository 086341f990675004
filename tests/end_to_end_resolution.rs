//! Cross-crate integration: full packet-level resolution paths through the
//! simulator, covering the chains the paper studies.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::city;
use netsim::{SimDuration, SimTime, Simulation};
use resolver::actors::{AuthActor, ClientActor, EgressActor, RelayActor};
use resolver::{Resolver, ResolverConfig};
use topology::{CdnFootprint, EdgeServerSpec};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

/// A CDN authoritative whose edges cover the world; geodb knows the given
/// prefixes.
fn cdn_server(geo_entries: &[(IpPrefix, &str)]) -> (AuthServer, CdnFootprint) {
    let footprint = CdnFootprint {
        edges: netsim::geo::CITIES
            .iter()
            .enumerate()
            .map(|(i, c)| EdgeServerSpec {
                addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, i as u8 + 1)),
                pos: c.pos,
                city: c.name.to_string(),
            })
            .collect(),
    };
    let mut geodb = GeoDb::new();
    for (p, cname) in geo_entries {
        geodb.insert(*p, city(cname).unwrap().pos);
    }
    let server = AuthServer::new(
        Zone::new(name("cdn.example")),
        EcsHandling::open(ScopePolicy::MatchSource),
    )
    .with_cdn(CdnBehavior::cdn1(footprint.clone()), geodb);
    (server, footprint)
}

#[test]
fn whitelisted_vs_nonwhitelisted_resolvers_get_different_treatment() {
    // Two identical resolvers; the CDN whitelists only one. The whitelisted
    // one receives scoped ECS responses; the other sees no ECS at all.
    let whitelisted: IpAddr = "9.9.9.1".parse().unwrap();
    let plain: IpAddr = "9.9.9.2".parse().unwrap();
    let client: IpAddr = "100.70.1.7".parse().unwrap();

    let mut zone = Zone::new(name("cdn.example"));
    zone.add_a(name("www.cdn.example"), 20, Ipv4Addr::new(198, 51, 100, 1))
        .unwrap();
    let mut cdn = AuthServer::new(
        zone,
        EcsHandling::whitelisted(
            ScopePolicy::MatchSource,
            std::collections::HashSet::from([whitelisted]),
        ),
    );

    for (addr, expect_ecs) in [(whitelisted, true), (plain, false)] {
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(addr));
        let q = Message::query(3, Question::a(name("www.cdn.example")));
        let resp = r.resolve_msg(&q, client, SimTime::ZERO, &mut cdn);
        assert_eq!(resp.answers.len(), 1);
        let last = cdn.log().last().unwrap();
        assert!(last.ecs.is_some(), "resolver always sent ECS");
        assert_eq!(
            last.response_scope.is_some(),
            expect_ecs,
            "whitelisting must gate the response ECS"
        );
    }
}

#[test]
fn ecs_tailors_answers_per_client_subnet_through_real_packets() {
    // Two clients in different countries behind the same egress resolver;
    // with ECS the CDN gives each a nearby edge.
    let mut sim = Simulation::new(3);

    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let client_us: IpAddr = "100.70.1.7".parse().unwrap();
    let client_jp: IpAddr = "100.71.1.7".parse().unwrap();

    let (cdn, footprint) = cdn_server(&[
        (IpPrefix::new(client_us, 24).unwrap(), "Chicago"),
        (IpPrefix::new(client_jp, 24).unwrap(), "Tokyo"),
        (IpPrefix::new(egress_addr, 24).unwrap(), "Frankfurt"),
    ]);
    sim.add_node(
        AuthActor::new(cdn),
        auth_addr,
        city("Frankfurt").unwrap().pos,
    );
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("cdn.example"), auth_addr)],
        ),
        egress_addr,
        city("Frankfurt").unwrap().pos,
    );
    let q1 = Message::query(1, Question::a(name("www.cdn.example")));
    let q2 = Message::query(2, Question::a(name("www.cdn.example")));
    let us_node = sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q1)]),
        client_us,
        city("Chicago").unwrap().pos,
    );
    let jp_node = sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q2)]),
        client_jp,
        city("Tokyo").unwrap().pos,
    );
    sim.run();

    let edge_city = |addr: IpAddr| {
        footprint
            .edges
            .iter()
            .find(|e| e.addr == addr)
            .unwrap()
            .city
            .clone()
    };
    let us = sim.node_mut::<ClientActor>(us_node).unwrap();
    assert_eq!(us.responses.len(), 1);
    let us_edge = edge_city(us.responses[0].1.answer_addrs()[0]);
    let jp = sim.node_mut::<ClientActor>(jp_node).unwrap();
    assert_eq!(jp.responses.len(), 1);
    let jp_edge = edge_city(jp.responses[0].1.answer_addrs()[0]);
    assert_eq!(us_edge, "Chicago");
    assert_eq!(jp_edge, "Tokyo");
}

#[test]
fn without_ecs_all_clients_share_the_resolvers_edge() {
    // Same setup, but the resolver never sends ECS: both clients get the
    // edge near the resolver (Frankfurt) — the pre-ECS status quo.
    let mut sim = Simulation::new(3);

    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let client_us: IpAddr = "100.70.1.7".parse().unwrap();
    let client_jp: IpAddr = "100.71.1.7".parse().unwrap();

    let (cdn, footprint) = cdn_server(&[
        (IpPrefix::new(client_us, 24).unwrap(), "Chicago"),
        (IpPrefix::new(client_jp, 24).unwrap(), "Tokyo"),
        (IpPrefix::new(egress_addr, 24).unwrap(), "Frankfurt"),
    ]);
    sim.add_node(
        AuthActor::new(cdn),
        auth_addr,
        city("Frankfurt").unwrap().pos,
    );
    let mut config = ResolverConfig::rfc_compliant(egress_addr);
    config.probing = resolver::ProbingStrategy::ZoneWhitelist { zones: vec![] };
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(config),
            vec![(name("cdn.example"), auth_addr)],
        ),
        egress_addr,
        city("Frankfurt").unwrap().pos,
    );
    let q1 = Message::query(1, Question::a(name("www.cdn.example")));
    // Second query delayed past the 20 s CDN TTL so it is a fresh miss and
    // not a (correctly shared, scope-0) cache hit.
    let q2 = Message::query(2, Question::a(name("www.cdn.example")));
    let us_node = sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q1)]),
        client_us,
        city("Chicago").unwrap().pos,
    );
    let jp_node = sim.add_node(
        ClientActor::new(
            egress_node,
            vec![(SimTime::ZERO + SimDuration::from_secs(30), q2)],
        ),
        client_jp,
        city("Tokyo").unwrap().pos,
    );
    sim.run();

    let edge_city = |addr: IpAddr| {
        footprint
            .edges
            .iter()
            .find(|e| e.addr == addr)
            .unwrap()
            .city
            .clone()
    };
    for node in [us_node, jp_node] {
        let c = sim.node_mut::<ClientActor>(node).unwrap();
        assert_eq!(c.responses.len(), 1);
        assert_eq!(edge_city(c.responses[0].1.answer_addrs()[0]), "Frankfurt");
    }
}

#[test]
fn anycast_service_preserves_client_subnet_across_frontends() {
    // A front-end of the service stamps the client's full address into
    // ECS; the egress trusts that option, truncates it to /24, and the CDN
    // maps near the CLIENT even though the egress is elsewhere. The query
    // arrives as a front-end would pass it on: with the stamped option.
    let mut sim = Simulation::new(8);

    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let client_addr: IpAddr = "100.70.1.7".parse().unwrap();

    let (cdn, footprint) = cdn_server(&[
        (IpPrefix::new(client_addr, 24).unwrap(), "Sydney"),
        (IpPrefix::new(egress_addr, 24).unwrap(), "Dallas"),
    ]);
    let auth_node = sim.add_node(AuthActor::new(cdn), auth_addr, city("Dallas").unwrap().pos);
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::anycast_service_egress(egress_addr)),
            vec![(name("cdn.example"), auth_addr)],
        ),
        egress_addr,
        city("Dallas").unwrap().pos,
    );
    let mut q = Message::query(1, Question::a(name("www.cdn.example")));
    q.set_ecs(EcsOption::new(client_addr, 32));
    let client_node = sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
        "9.9.8.8".parse().unwrap(),
        city("Singapore").unwrap().pos,
    );
    sim.run();

    // The authoritative saw the client's /24, not the sender's.
    let auth = sim.node_mut::<AuthActor>(auth_node).unwrap();
    let ecs = auth.server().log()[0].ecs.unwrap();
    assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(100, 70, 1, 0)));
    assert_eq!(ecs.source_prefix_len(), 24);

    let c = sim.node_mut::<ClientActor>(client_node).unwrap();
    assert_eq!(c.responses.len(), 1);
    let edge = c.responses[0].1.answer_addrs()[0];
    let edge_city = footprint
        .edges
        .iter()
        .find(|e| e.addr == edge)
        .unwrap()
        .city
        .clone();
    assert_eq!(edge_city, "Sydney", "mapping must follow the client");
}

#[test]
fn relay_chains_preserve_transaction_ids_end_to_end() {
    // Stacked relays rewrite ids hop by hop; the client must still see its
    // own id on the answer.
    let mut sim = Simulation::new(1);

    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();

    let mut zone = Zone::new(name("probe.example"));
    zone.add_a(name("www.probe.example"), 60, Ipv4Addr::new(1, 2, 3, 4))
        .unwrap();
    let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::Zero));
    sim.add_node(AuthActor::new(auth), auth_addr, city("Paris").unwrap().pos);
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("probe.example"), auth_addr)],
        ),
        egress_addr,
        city("London").unwrap().pos,
    );
    let relay2 = sim.add_node(
        RelayActor::new(egress_node),
        "10.1.0.2".parse().unwrap(),
        city("Madrid").unwrap().pos,
    );
    let relay1 = sim.add_node(
        RelayActor::new(relay2),
        "10.1.0.1".parse().unwrap(),
        city("Milan").unwrap().pos,
    );
    let q = Message::query(0xABCD, Question::a(name("www.probe.example")));
    let client_node = sim.add_node(
        ClientActor::new(relay1, vec![(SimTime::ZERO, q)]),
        "10.1.0.9".parse().unwrap(),
        city("Milan").unwrap().pos,
    );
    sim.run();

    let c = sim.node_mut::<ClientActor>(client_node).unwrap();
    assert_eq!(c.responses.len(), 1);
    assert_eq!(c.responses[0].1.id, 0xABCD);
    assert_eq!(c.responses[0].1.answer_addrs().len(), 1);
}

#[test]
fn wire_format_survives_every_hop() {
    // Corrupted packets must be dropped without crashing any actor.
    let mut sim = Simulation::new(1);
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![],
        ),
        egress_addr,
        city("London").unwrap().pos,
    );
    let relay = sim.add_node(
        RelayActor::new(egress_node),
        "10.1.0.1".parse().unwrap(),
        city("Paris").unwrap().pos,
    );
    // Garbage payloads.
    sim.inject(relay, egress_node, vec![0xFF; 13], SimDuration::ZERO);
    sim.inject(egress_node, relay, vec![], SimDuration::ZERO);
    sim.inject(relay, egress_node, vec![1, 2, 3], SimDuration::ZERO);
    sim.run();
    // Nothing to assert beyond "no panic, all delivered".
    assert_eq!(sim.delivered(), 3);
}
