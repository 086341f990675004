//! Property tests for the fault-injection layer.
//!
//! Two families of invariants:
//!
//! 1. **Robustness** — for *arbitrary* fault probabilities and seeds, the
//!    resolution engine never panics, always terminates within its attempt
//!    budget, and classifies every outcome (answer / SERVFAIL / FORMERR).
//!    A corollary is pinned exactly: a zero-fault plan is bit-identical to
//!    the bare (undecorated) upstream path.
//!
//! 2. **Delivery-timing invariance** — probing-state transitions depend on
//!    the *order* of queries and responses, never on when they arrive: the
//!    same exchange sequence replayed with arbitrary per-event jitter lands
//!    in the same `ProbingState` (and, for non-interval strategies, yields
//!    the same ECS decisions).

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::{LinkFaults, SimDuration, SimTime, Transport};
use proptest::prelude::*;
use resolver::probing::EcsDecision;
use resolver::{
    FaultyUpstream, InjectedFault, ProbingState, ProbingStrategy, Resolver, ResolverConfig,
    RetryPolicy, TransportPolicy,
};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

fn auth() -> AuthServer {
    let mut zone = Zone::new(name("prop.example"));
    zone.add_a(name("www.prop.example"), 60, Ipv4Addr::new(198, 51, 100, 1))
        .unwrap();
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

const FAULTS: [InjectedFault; 5] = [
    InjectedFault::Timeout,
    InjectedFault::Truncate,
    InjectedFault::ServFail,
    InjectedFault::FormErr,
    InjectedFault::Pass,
];

/// Five queries through `up` on an `attempts` budget: each ends in an
/// answer, SERVFAIL or FORMERR, and upstream traffic stays in budget.
fn survives(mut up: FaultyUpstream<AuthServer>, attempts: u8) {
    let mut config = ResolverConfig::rfc_compliant(RES);
    config.retry = RetryPolicy {
        attempts,
        ..RetryPolicy::default()
    };
    let mut r = Resolver::new(config);

    const QUERIES: u64 = 5;
    for i in 0..QUERIES {
        let q = Message::query(i as u16 + 1, Question::a(name("www.prop.example")));
        let client = IpAddr::V4(Ipv4Addr::new(100, 66, i as u8, 9));
        let resp = r.resolve_msg(&q, client, SimTime::from_secs(i * 10_000), &mut up);
        match resp.rcode {
            Rcode::NoError => prop_assert!(
                !resp.answers.is_empty(),
                "NoError must carry the answer (query {i})"
            ),
            // REFUSED comes back in-band when the knob rewrites a reply.
            Rcode::ServFail | Rcode::FormErr | Rcode::Refused => {}
            other => prop_assert!(false, "unclassified outcome {:?} (query {})", other, i),
        }
    }
    let s = r.stats();
    // `upstream_queries` counts UDP attempts (initial + retries); the
    // engine never exceeds its per-query budget, whatever the faults.
    prop_assert!(s.upstream_queries <= QUERIES * attempts as u64);
    prop_assert!(s.retries <= QUERIES * (attempts as u64 - 1));
    // Each TC recovery is one TCP exchange per UDP attempt at most.
    prop_assert!(s.tcp_fallbacks <= s.upstream_queries);
    // Only exhausted budgets produce engine-made SERVFAILs.
    prop_assert!(s.servfail_responses <= QUERIES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For any mix of loss/truncation/REFUSED probabilities, any blackhole
    /// setting, any script of injected faults (the only source of in-band
    /// SERVFAIL and FORMERR), any attempt budget, and any seed:
    /// `resolve_msg` terminates, the outcome is one of the classified
    /// endings, and upstream traffic stays within the attempt budget.
    #[test]
    fn engine_survives_arbitrary_fault_plans(
        // Probabilities drawn per-mille (the vendored proptest has no
        // float-range strategy), covering the full 0.0..=1.0 span.
        loss_pm in 0u32..=1000,
        truncate_pm in 0u32..=1000,
        refused_pm in 0u32..=1000,
        blackhole in any::<bool>(),
        script in proptest::collection::vec(0usize..5, 0..12),
        attempts in 1u8..=4,
        seed in any::<u64>(),
    ) {
        let faults = LinkFaults {
            loss: loss_pm as f64 / 1000.0,
            truncate_replies: truncate_pm as f64 / 1000.0,
            refused_replies: refused_pm as f64 / 1000.0,
            blackhole,
        };
        let script = script.into_iter().map(|k| FAULTS[k]).collect();
        survives(FaultyUpstream::new(auth(), faults, seed), attempts);
        survives(FaultyUpstream::scripted(auth(), script), attempts);
    }

    /// A zero-fault plan is exactly the bare path: same responses, same
    /// resolver stats, zero injections — for any seed, on every ladder
    /// (udp-only, udp+tcp, full), so the stream rungs are covered too. This
    /// pins the "decorator is free when disabled" contract bit-for-bit.
    #[test]
    fn zero_fault_plan_is_bit_identical_to_bare_path(
        seed in any::<u64>(),
        c1 in any::<u32>(),
        c2 in any::<u32>(),
        ladder in 1usize..=3,
    ) {
        let mut config = ResolverConfig::rfc_compliant(RES);
        config.transport = TransportPolicy::with_ladder(&Transport::ALL[..ladder]);
        let mut bare = auth();
        let mut wrapped = FaultyUpstream::new(auth(), LinkFaults::NONE, seed);
        let mut r_bare = Resolver::new(config.clone());
        let mut r_wrapped = Resolver::new(config);

        for (i, client) in [c1, c2, c1].into_iter().enumerate() {
            let q = Message::query(i as u16 + 1, Question::a(name("www.prop.example")));
            let addr = IpAddr::V4(Ipv4Addr::from(client));
            let at = SimTime::from_secs(i as u64);
            let a = r_bare.resolve_msg(&q, addr, at, &mut bare);
            let b = r_wrapped.resolve_msg(&q, addr, at, &mut wrapped);
            prop_assert_eq!(
                a.to_bytes().unwrap(),
                b.to_bytes().unwrap(),
                "responses must be bit-identical under a zero-fault plan"
            );
        }
        prop_assert_eq!(r_bare.stats(), r_wrapped.stats());
        prop_assert_eq!(wrapped.stats().injected(), 0);
        // Cache hits skip the upstream entirely, so "passed through" counts
        // exactly the exchanges the resolver says it made.
        prop_assert_eq!(wrapped.stats().passed, r_wrapped.stats().upstream_queries);
    }

    /// The same contract where every exchange needs a stream leg: a
    /// 60-record answer overflows the 512-byte buffer the resolver
    /// advertises, so each UDP reply comes back TC and the exchange goes on
    /// over TCP (inline on the udp-only ladder, the TCP rung otherwise).
    #[test]
    fn zero_fault_plan_is_bit_identical_on_stream_legs(
        seed in any::<u64>(),
        c1 in any::<u32>(),
        c2 in any::<u32>(),
        ladder in 1usize..=3,
    ) {
        let big = || {
            let mut zone = Zone::new(name("prop.example"));
            for i in 0..60u8 {
                zone.add_a(name("www.prop.example"), 60, Ipv4Addr::new(198, 51, 100, i))
                    .unwrap();
            }
            AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
        };
        let mut config = ResolverConfig::rfc_compliant(RES);
        config.transport = TransportPolicy {
            edns_buf: 512,
            ..TransportPolicy::with_ladder(&Transport::ALL[..ladder])
        };
        let mut bare = big();
        let mut wrapped = FaultyUpstream::new(big(), LinkFaults::NONE, seed);
        let mut r_bare = Resolver::new(config.clone());
        let mut r_wrapped = Resolver::new(config);

        for (i, client) in [c1, c2, c1].into_iter().enumerate() {
            let q = Message::query(i as u16 + 1, Question::a(name("www.prop.example")));
            let addr = IpAddr::V4(Ipv4Addr::from(client));
            let at = SimTime::from_secs(i as u64);
            let a = r_bare.resolve_msg(&q, addr, at, &mut bare);
            let b = r_wrapped.resolve_msg(&q, addr, at, &mut wrapped);
            prop_assert_eq!(a.answers.len(), 60);
            prop_assert_eq!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
        }
        prop_assert_eq!(r_bare.stats(), r_wrapped.stats());
        prop_assert_eq!(wrapped.stats().injected(), 0);
        let stream_legs = r_wrapped.stats().tcp_fallbacks;
        prop_assert!(stream_legs >= 1);
        prop_assert_eq!(wrapped.stats().streams(), stream_legs);
        prop_assert_eq!(bare.log().len(), wrapped.inner().log().len());
    }

    /// Replaying the same query/response/timeout sequence with arbitrary
    /// per-event jitter leaves the probing state in exactly the same place:
    /// `ecs_supported`, `marked_non_ecs`, and the query counter depend on
    /// event *order*, not arrival time. For strategies without a time axis
    /// the full decision sequence matches too.
    #[test]
    fn probing_state_is_delivery_timing_invariant(
        // 0 = address query (decide), 1 = reply with valid ECS,
        // 2 = reply without ECS, 3 = timeout (mark non-ECS).
        events in proptest::collection::vec(0u8..=3, 1..24),
        jitter_ms in proptest::collection::vec(0u64..5_000, 24),
        strategy_idx in 0usize..4,
        k in 2u64..6,
    ) {
        let strategy = match strategy_idx {
            0 => ProbingStrategy::Always,
            1 => ProbingStrategy::EveryKth { k },
            2 => ProbingStrategy::ZoneWhitelist { zones: vec![name("prop.example")] },
            _ => ProbingStrategy::IntervalProbe {
                period: SimDuration::from_secs(60),
                use_own_address: true,
            },
        };
        let qname = name("www.prop.example");

        let run = |jittered: bool| -> (ProbingState, Vec<EcsDecision>) {
            let mut state = ProbingState::default();
            let mut decisions = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                // Sequential delivery paces events one second apart; the
                // jittered replay shifts each event by its own offset while
                // preserving order (times stay monotonic).
                let base = SimTime::from_secs(i as u64);
                let at = if jittered {
                    base + SimDuration::from_millis(jitter_ms[i] / 5 * (i as u64 + 1))
                } else {
                    base
                };
                match ev {
                    0 => decisions.push(strategy.decide(&qname, true, false, at, &mut state)),
                    1 => strategy.record_response(true, &mut state),
                    2 => strategy.record_response(false, &mut state),
                    _ => state.mark_non_ecs(),
                }
            }
            (state, decisions)
        };

        let (seq_state, seq_decisions) = run(false);
        let (jit_state, jit_decisions) = run(true);

        prop_assert_eq!(seq_state.ecs_supported, jit_state.ecs_supported);
        prop_assert_eq!(seq_state.marked_non_ecs, jit_state.marked_non_ecs);
        prop_assert_eq!(seq_state.query_counter, jit_state.query_counter);
        if strategy_idx != 3 {
            // Everything but IntervalProbe is timing-free: identical
            // decisions, not just identical state.
            prop_assert_eq!(seq_decisions, jit_decisions);
        }
    }
}
