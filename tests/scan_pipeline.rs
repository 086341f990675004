//! The paper's active-scan pipeline, end to end through the simulator:
//! probe open forwarders, watch what arrives at the experimental
//! authoritative server, and discover hidden resolvers from ECS prefixes —
//! the §8.2 discovery that motivated the paper's "first glimpse into
//! hidden resolvers".

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use analysis::hidden::hidden_prefixes;
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::geo::city;
use netsim::{AddressBook, SimTime, Simulation};
use parking_lot::RwLock;
use resolver::actors::{AuthActor, ClientActor, EgressActor, RelayActor, SharedBook};
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
    let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
        AuthActor::new(auth, book.clone()),
        city("Chicago").unwrap().pos,
    );

    // An egress that derives ECS from its immediate sender (anti-spoofing
    // override — the behaviour that exposes hidden resolvers).
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("probe.example"), auth_addr)],
            book.clone(),
        ),
        city("Dallas").unwrap().pos,
    );
    let hidden_node = sim.add_node(RelayActor::new(egress_node), city("Milan").unwrap().pos);

    // Forwarders: one direct, one through the hidden resolver.
    let fwd_direct_node = sim.add_node(RelayActor::new(egress_node), city("Chicago").unwrap().pos);
    let fwd_hidden_node = sim.add_node(RelayActor::new(hidden_node), city("Santiago").unwrap().pos);

    // The scanner probes both forwarders.
    let scanner_addr: IpAddr = "129.22.150.78".parse().unwrap();
    let q1 = Message::query(1, Question::a(scan_hostname(fwd_direct)));
    let q2 = Message::query(2, Question::a(scan_hostname(fwd_hidden)));
    let scanner_node = sim.add_node(
        ClientActor::new(fwd_direct_node, vec![(SimTime::ZERO, q1)]),
        city("Cleveland").unwrap().pos,
    );
    let scanner2_node = sim.add_node(
        ClientActor::new(fwd_hidden_node, vec![(SimTime::ZERO, q2)]),
        city("Cleveland").unwrap().pos,
    );
    {
        let mut b = book.write();
        b.bind(auth_addr, auth_node);
        b.bind(egress_addr, egress_node);
        b.bind(hidden_addr, hidden_node);
        b.bind(fwd_direct, fwd_direct_node);
        b.bind(fwd_hidden, fwd_hidden_node);
        b.bind(scanner_addr, scanner_node);
        b.bind("129.22.150.79".parse().unwrap(), scanner2_node);
    }
    ClientActor::arm(&mut sim, scanner_node);
    ClientActor::arm(&mut sim, scanner2_node);
    sim.run();

    // Both scans were answered.
    for node in [scanner_node, scanner2_node] {
        let c = sim.node_mut::<ClientActor>(node).unwrap();
        assert_eq!(c.responses.len(), 1, "scan probe must be answered");
    }

    // The authoritative log: associate each entry with the probed
    // forwarder via the encoded hostname, then detect hidden prefixes.
    let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
    let log = auth_actor.server().log().to_vec();
    assert_eq!(log.len(), 2);

    let fwd_of: HashMap<Name, IpAddr> = log
        .iter()
        .filter_map(|e| decode_forwarder(&e.qname).map(|f| (e.qname.clone(), f)))
        .collect();
    let hidden = hidden_prefixes(&log, |e| fwd_of.get(&e.qname).copied());

    // Exactly one hidden prefix: the hidden resolver's /24. The direct
    // path's ECS prefix covers the forwarder and is not flagged.
    assert_eq!(hidden.len(), 1);
    assert!(hidden[0].contains(hidden_addr));
    assert!(!hidden[0].contains(fwd_hidden));
    assert!(!hidden[0].contains(egress_addr));

    // And the direct probe's ECS conveyed the forwarder's own /24.
    let direct_entry = log
        .iter()
        .find(|e| decode_forwarder(&e.qname) == Some(fwd_direct))
        .unwrap();
    assert!(direct_entry
        .ecs
        .as_ref()
        .unwrap()
        .source_prefix()
        .contains(fwd_direct));
}

#[test]
fn scan_server_returns_source_minus_4_scope() {
    // The paper's experimental server config, verified over the wire.
    let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
        AuthActor::new(auth, book.clone()),
        city("Chicago").unwrap().pos,
    );
    let egress_node = sim.add_node(
        EgressActor::new(
            Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
            vec![(name("probe.example"), auth_addr)],
            book.clone(),
        ),
        city("Dallas").unwrap().pos,
    );
    let q = Message::query(5, Question::a(scan_hostname(fwd)));
    let fwd_node = sim.add_node(
        ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
        city("Chicago").unwrap().pos,
    );
    {
        let mut b = book.write();
        b.bind(auth_addr, auth_node);
        b.bind(egress_addr, egress_node);
        b.bind(fwd, fwd_node);
    }
    ClientActor::arm(&mut sim, fwd_node);
    sim.run();

    let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
    let entry = &auth_actor.server().log()[0];
    assert_eq!(entry.ecs.unwrap().source_prefix_len(), 24);
    assert_eq!(entry.response_scope, Some(20), "L = S − 4");
}
