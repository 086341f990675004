//! The paper's active-scan pipeline, end to end through the simulator:
//! probe open forwarders, watch what arrives at the experimental
//! authoritative server, and find hidden resolvers in its ECS prefixes —
//! the §8.2 discovery that motivated the paper's "first glimpse into
//! hidden resolvers".

use std::net::IpAddr;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::geo::city;
use netsim::{SimTime, Simulation};
use resolver::actors::{AuthActor, ClientActor, EgressActor, RelayActor};
use resolver::{Resolver, ResolverConfig};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

/// Encodes the probed forwarder in the hostname, as the scan does.
fn scan_hostname(fwd: IpAddr) -> Name {
    name(&format!(
        "x{}.probe.example",
        fwd.to_string().replace('.', "-")
    ))
}

fn decode_forwarder(qname: &Name) -> Option<IpAddr> {
    let s = qname.to_string();
    let label = s.split('.').next()?;
    label.strip_prefix('x')?.replace('-', ".").parse().ok()
}

#[test]
fn scan_discovers_hidden_resolvers_from_ecs_prefixes() {
    let mut sim = Simulation::new(42);

    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let hidden_addr: IpAddr = "77.7.7.7".parse().unwrap();

    // Scan server: zone pre-populated with the encoded hostnames.
    let mut zone = Zone::new(name("probe.example"));
    let fwd_direct: IpAddr = "100.70.1.1".parse().unwrap(); // forwarder → egress
    let fwd_hidden: IpAddr = "100.71.1.1".parse().unwrap(); // forwarder → hidden → egress
    for fwd in [fwd_direct, fwd_hidden] {
        zone.add_a(
            scan_hostname(fwd),
            60,
            std::net::Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
    }
    let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)));
    let auth_node = sim.add_node(
        AuthActor::new(auth),
        auth_addr,
        city("Chicago").unwrap().pos,
    );

    // An egress that derives ECS from its immediate sender (anti-spoofing
    // override — the behaviour that exposes hidden resolvers).
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("probe.example"), auth_addr)],
        ),
        egress_addr,
        city("Dallas").unwrap().pos,
    );
    let hidden_node = sim.add_node(
        RelayActor::new(egress_node),
        hidden_addr,
        city("Milan").unwrap().pos,
    );

    // Forwarders: one direct, one through the hidden resolver.
    let fwd_direct_node = sim.add_node(
        RelayActor::new(egress_node),
        fwd_direct,
        city("Chicago").unwrap().pos,
    );
    let fwd_hidden_node = sim.add_node(
        RelayActor::new(hidden_node),
        fwd_hidden,
        city("Santiago").unwrap().pos,
    );

    // The scanner probes both forwarders.
    let scanner_addr: IpAddr = "129.22.150.78".parse().unwrap();
    let q1 = Message::query(1, Question::a(scan_hostname(fwd_direct)));
    let q2 = Message::query(2, Question::a(scan_hostname(fwd_hidden)));
    let scanner_node = sim.add_node(
        ClientActor::new(fwd_direct_node, vec![(SimTime::ZERO, q1)]),
        scanner_addr,
        city("Cleveland").unwrap().pos,
    );
    let scanner2_node = sim.add_node(
        ClientActor::new(fwd_hidden_node, vec![(SimTime::ZERO, q2)]),
        "129.22.150.79".parse().unwrap(),
        city("Cleveland").unwrap().pos,
    );
    sim.run();

    // Both scans were answered.
    for node in [scanner_node, scanner2_node] {
        let c = sim.node_mut::<ClientActor>(node).unwrap();
        assert_eq!(c.responses.len(), 1, "scan probe must be answered");
    }

    // The authoritative log: associate each entry with the probed
    // forwarder via the encoded hostname, and read the ECS prefix the
    // egress conveyed for it.
    let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
    let log = auth_actor.server().log();
    assert_eq!(log.len(), 2);
    let prefix_for = |fwd: IpAddr| {
        let entry = log
            .iter()
            .find(|e| decode_forwarder(&e.qname) == Some(fwd))
            .expect("each probed forwarder reaches the authoritative");
        entry.ecs.as_ref().unwrap().source_prefix()
    };

    // The hidden path's prefix is the hidden resolver's /24: it covers
    // neither the probed forwarder nor the egress (§8.2).
    let hidden = prefix_for(fwd_hidden);
    assert!(hidden.contains(hidden_addr));
    assert!(!hidden.contains(fwd_hidden));
    assert!(!hidden.contains(egress_addr));

    // And the direct probe's ECS conveyed the forwarder's own /24.
    assert!(prefix_for(fwd_direct).contains(fwd_direct));
}

#[test]
fn scan_server_returns_source_minus_4_scope() {
    // The paper's experimental server config, verified over the wire.
    let mut sim = Simulation::new(7);
    let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
    let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
    let fwd: IpAddr = "100.70.1.1".parse().unwrap();

    let mut zone = Zone::new(name("probe.example"));
    zone.add_a(
        scan_hostname(fwd),
        60,
        std::net::Ipv4Addr::new(198, 51, 100, 1),
    )
    .unwrap();
    let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)));
    let auth_node = sim.add_node(
        AuthActor::new(auth),
        auth_addr,
        city("Chicago").unwrap().pos,
    );
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("probe.example"), auth_addr)],
        ),
        egress_addr,
        city("Dallas").unwrap().pos,
    );
    let q = Message::query(5, Question::a(scan_hostname(fwd)));
    sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
        fwd,
        city("Chicago").unwrap().pos,
    );
    sim.run();

    let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
    let entry = &auth_actor.server().log()[0];
    assert_eq!(entry.ecs.unwrap().source_prefix_len(), 24);
    assert_eq!(entry.response_scope, Some(20), "L = S − 4");
}
