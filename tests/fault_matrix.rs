//! The failure matrix: every combination of loss rate, attempt budget,
//! reply truncation, and ECS on/off, under pinned seeds.
//!
//! Two properties are asserted for every cell:
//!
//! 1. **Classified termination** — each query ends in an answer or a
//!    SERVFAIL within the attempt budget; nothing hangs, panics, or
//!    returns an unclassified state.
//! 2. **Determinism** — running the identical cell twice (same seed)
//!    produces identical resolver stats and identical injection stats.
//!
//! The sweep runs at the engine level through `FaultyUpstream` (fast,
//! thousands of exchanges in milliseconds); a final case repeats the
//! exercise at the packet level through `netsim`'s `FaultPlan` to pin the
//! send-path integration too.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::{LinkFaults, SimTime};
use resolver::{
    FaultyUpstream, InjectionStats, ProbingStrategy, Resolver, ResolverConfig, ResolverStats,
    RetryPolicy,
};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

fn auth() -> AuthServer {
    let mut zone = Zone::new(name("matrix.example"));
    zone.add_a(
        name("www.matrix.example"),
        60,
        Ipv4Addr::new(198, 51, 100, 1),
    )
    .unwrap();
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
const QUERIES: u64 = 40;

/// One cell of the matrix: run `QUERIES` queries from distinct /24s and
/// classify every outcome. Returns the stats pair used for the determinism
/// check.
fn run_cell(
    loss: f64,
    truncate: f64,
    attempts: u8,
    timeout_secs: u64,
    ecs_on: bool,
    seed: u64,
) -> (ResolverStats, InjectionStats) {
    let faults = LinkFaults {
        loss,
        truncate_replies: truncate,
        ..LinkFaults::NONE
    };
    let mut up = FaultyUpstream::new(auth(), faults, seed);
    let mut config = ResolverConfig::rfc_compliant(RES);
    config.retry = RetryPolicy {
        attempts,
        initial_timeout: netsim::SimDuration::from_secs(timeout_secs),
        ..RetryPolicy::default()
    };
    if !ecs_on {
        // An empty whitelist never matches: the resolver simply has no
        // zone it sends ECS for.
        config.probing = ProbingStrategy::ZoneWhitelist { zones: vec![] };
    }
    let mut r = Resolver::new(config);

    let mut answered = 0u64;
    let mut servfailed = 0u64;
    for i in 0..QUERIES {
        let q = Message::query(i as u16 + 1, Question::a(name("www.matrix.example")));
        let client = IpAddr::V4(Ipv4Addr::new(100, (i >> 8) as u8, i as u8, 7));
        // Space queries far apart so each is a fresh cache miss even after
        // the worst-case backoff run of the previous one.
        let at = SimTime::from_secs(i * 10_000);
        let resp = r.resolve_msg(&q, client, at, &mut up);
        match resp.rcode {
            Rcode::NoError if !resp.answers.is_empty() => answered += 1,
            Rcode::ServFail => servfailed += 1,
            other => panic!(
                "unclassified outcome {other:?} (loss={loss} trunc={truncate} \
                 attempts={attempts} ecs={ecs_on} seed={seed} query={i})"
            ),
        }
    }
    assert_eq!(answered + servfailed, QUERIES, "every query terminated");
    let s = r.stats();
    assert_eq!(s.servfail_responses, servfailed);
    // The attempt budget bounds upstream traffic (each attempt may add one
    // TCP exchange on truncation, hence the factor 2).
    assert!(s.upstream_queries <= QUERIES * attempts as u64);
    if ecs_on {
        assert!(s.upstream_ecs_queries >= 1, "first query carries ECS");
    } else {
        assert_eq!(s.upstream_ecs_queries, 0, "ECS off must stay off");
        assert_eq!(s.ecs_withdrawals, 0, "nothing to withdraw");
    }
    (s, up.stats())
}

#[test]
fn matrix_terminates_and_classifies_every_cell() {
    for &loss in &[0.0, 0.3, 0.9, 1.0] {
        for &truncate in &[0.0, 1.0] {
            for &(attempts, timeout_secs) in &[(1u8, 2u64), (4, 2), (3, 1)] {
                for &ecs_on in &[true, false] {
                    let seed = (loss * 10.0) as u64 * 1000
                        + (truncate as u64) * 100
                        + attempts as u64 * 10
                        + ecs_on as u64;
                    run_cell(loss, truncate, attempts, timeout_secs, ecs_on, seed);
                }
            }
        }
    }
}

#[test]
fn every_cell_is_seed_deterministic() {
    for &loss in &[0.3, 0.9] {
        for &truncate in &[0.0, 1.0] {
            for &ecs_on in &[true, false] {
                let a = run_cell(loss, truncate, 4, 2, ecs_on, 77);
                let b = run_cell(loss, truncate, 4, 2, ecs_on, 77);
                assert_eq!(a, b, "same seed must replay identically");
                let c = run_cell(loss, truncate, 4, 2, ecs_on, 78);
                assert_ne!(
                    a.1, c.1,
                    "a different seed must inject a different fault pattern"
                );
            }
        }
    }
}

#[test]
fn extreme_cells_have_predictable_outcomes() {
    // No faults: everything answers, no retries.
    let (s, inj) = run_cell(0.0, 0.0, 4, 2, true, 1);
    assert_eq!(s.servfail_responses, 0);
    assert_eq!(s.retries, 0);
    assert_eq!(inj.injected(), 0);

    // Total loss: everything SERVFAILs after exactly `attempts` tries.
    let (s, inj) = run_cell(1.0, 0.0, 4, 2, true, 1);
    assert_eq!(s.servfail_responses, QUERIES);
    assert_eq!(s.upstream_timeouts, QUERIES * 4);
    assert_eq!(inj.timeouts, QUERIES * 4);
    // RFC 7871 §7.1.3: ECS withdrawn once per exchange that carried it;
    // after the first exchange the server is marked non-ECS, so only the
    // first exchange ever carries the option.
    assert_eq!(s.ecs_withdrawals, 1);

    // Certain truncation: every exchange recovers over TCP.
    let (s, inj) = run_cell(0.0, 1.0, 4, 2, true, 1);
    assert_eq!(s.servfail_responses, 0);
    assert_eq!(s.tcp_fallbacks, QUERIES);
    assert_eq!(inj.truncated, QUERIES);
    assert_eq!(inj.streams(), QUERIES);
}

/// The same matrix discipline at the packet level: a lossy `FaultPlan` on
/// the simulator's send path, actors driving the exchange, pinned seed →
/// identical fault stats and client outcomes across runs.
#[test]
fn packet_level_fault_plan_is_deterministic() {
    use netsim::{FaultPlan, Simulation};
    use resolver::actors::{AuthActor, ClientActor, EgressActor};

    fn run(seed: u64) -> (netsim::FaultStats, Vec<(SimTime, Rcode)>) {
        let mut sim = Simulation::new(seed);
        sim.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(0.25)));

        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
        sim.add_node(
            AuthActor::new(auth()),
            auth_addr,
            netsim::geo::city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
                vec![(name("matrix.example"), auth_addr)],
            ),
            egress_addr,
            netsim::geo::city("Toronto").unwrap().pos,
        );
        let script: Vec<(SimTime, Message)> = (0..8)
            .map(|i| {
                (
                    SimTime::from_secs(i * 120),
                    Message::query(i as u16 + 1, Question::a(name("www.matrix.example"))),
                )
            })
            .collect();
        let client_node = sim.add_node(
            ClientActor::new(egress_node, script),
            "100.70.1.7".parse().unwrap(),
            netsim::geo::city("Toronto").unwrap().pos,
        );
        sim.run();
        let stats = sim.fault_stats();
        let responses = sim
            .node_mut::<ClientActor>(client_node)
            .unwrap()
            .responses
            .iter()
            .map(|(at, m)| (*at, m.rcode))
            .collect();
        (stats, responses)
    }

    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "pinned seed must replay the packet-level run exactly");
    assert!(a.0.dropped_loss > 0, "the plan actually dropped packets");
    let c = run(43);
    assert_ne!(a.0, c.0, "a different seed sees different loss");
}
