//! Overload-behaviour properties spanning the resolver cache, the sync
//! engine, and the §7 cache simulator:
//!
//! * a bounded [`EcsCache`] never exceeds its configured entry bound, for
//!   any insert/lookup sequence;
//! * the bounded [`CacheSimulator`] produces identical results (including
//!   eviction counts) at any `parallelism`, for any trace and capacity;
//! * the default [`OverloadConfig`] — every knob off — is bit-identical to
//!   running with the bound set to infinity, pinning the graceful-degradation
//!   machinery to zero behavioural cost when disabled.

use std::net::{IpAddr, Ipv4Addr};

use analysis::{CacheSimConfig, CacheSimulator};
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, Name, Question, Rdata, Record, RecordType};
use netsim::SimTime;
use proptest::prelude::*;
use resolver::{CacheCompliance, CacheLimits, EcsCache, Resolver, ResolverConfig};
use workload::{TraceRecord, TraceSet};

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

/// One generated trace step: which resolver queried which name when, with
/// what ECS subnet, advertised scope, and TTL.
type TraceStep = (u8, u8, u32, u8, u8, u32);

fn build_trace(steps: &[TraceStep]) -> TraceSet {
    let records = steps
        .iter()
        .map(|&(res, nm, at_secs, subnet, scope, ttl)| {
            let client = Ipv4Addr::new(10, 4, subnet, 1);
            TraceRecord {
                at_micros: u64::from(at_secs) * 1_000_000,
                resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, res + 1)),
                qname: name(&format!("h{nm}.overload.example")),
                qtype: RecordType::A,
                ecs_source: Some(EcsOption::from_v4(client, 24).source_prefix()),
                response_scope: Some(scope),
                ttl,
                client: Some(IpAddr::V4(client)),
            }
        })
        .collect();
    let mut t = TraceSet::new("prop-overload");
    t.records = records;
    t.sort_by_time();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever mixture of names, clients, scopes, and TTLs flows through a
    /// bounded cache, the live-entry count never exceeds `max_entries`, and
    /// once more inserts than the bound have happened the eviction counter
    /// reflects the overflow.
    #[test]
    fn bounded_cache_never_exceeds_entry_bound(
        ops in proptest::collection::vec(
            (0u8..6, any::<u32>(), 0u8..=32, 1u32..90),
            1..80,
        ),
        max_entries in 1usize..6,
    ) {
        let mut cache = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_entries: Some(max_entries),
            },
        );
        for (i, &(nm, client, scope, ttl)) in ops.iter().enumerate() {
            let now = SimTime::from_secs(i as u64 * 7);
            let qname = name(&format!("h{nm}.bound.example"));
            let addr = IpAddr::V4(Ipv4Addr::from(client));
            if cache.lookup(&qname, RecordType::A, addr, now).is_none() {
                let ecs = EcsOption::from_v4(Ipv4Addr::from(client), 24).with_scope(scope);
                let rec = Record::new(qname.clone(), ttl, Rdata::A(Ipv4Addr::new(198, 51, 100, 7)));
                cache.insert(qname, RecordType::A, vec![rec], Some(ecs), ttl, now);
            }
            prop_assert!(
                cache.len(now) <= max_entries,
                "step {}: {} live entries exceeds bound {}",
                i,
                cache.len(now),
                max_entries
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.max_size <= max_entries);
        // Evictions only ever happen because the bound bit; conversely, if
        // every insert survived, the totals must fit the final picture.
        prop_assert!(stats.evictions <= stats.inserts);
    }

    /// Same trace + same capacity ⇒ identical per-resolver results — max
    /// sizes, hits, AND eviction counts — at any shard parallelism. This is
    /// the determinism contract that lets the §7 experiments run bounded
    /// sweeps on however many cores the host happens to have.
    #[test]
    fn simulator_eviction_is_deterministic_at_any_parallelism(
        steps in proptest::collection::vec(
            (0u8..4, 0u8..8, 0u32..600, 0u8..20, 0u8..=32, 1u32..120),
            1..150,
        ),
        capacity in 1usize..5,
    ) {
        let trace = build_trace(&steps);
        let config = CacheSimConfig {
            capacity: Some(capacity),
            ..CacheSimConfig::default()
        };
        let sequential = CacheSimulator::new(config.clone()).run(&trace);
        for r in &sequential.per_resolver {
            prop_assert!(r.max_size_ecs <= capacity, "ECS side over bound");
            prop_assert!(r.max_size_no_ecs <= capacity, "plain side over bound");
        }
        for parallelism in [2usize, 3, 8] {
            let sharded = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..config.clone()
            })
            .run(&trace);
            prop_assert_eq!(
                &sequential.per_resolver,
                &sharded.per_resolver,
                "parallelism={} diverged",
                parallelism
            );
        }
    }

    /// The default overload knobs cost nothing: a resolver with the stock
    /// `rfc_compliant` config and one whose cache bound is set to infinity
    /// return byte-identical responses and identical counters for any query
    /// schedule — there is no "bounded mode" tax when the bound cannot bite.
    #[test]
    fn default_knobs_are_bit_identical_to_infinite_bound(
        queries in proptest::collection::vec(
            (0u8..4, any::<u32>(), 0u64..300),
            1..50,
        ),
    ) {
        let mut zone = Zone::new(name("deg.example"));
        for nm in 0..4u8 {
            zone.add_a(
                name(&format!("h{nm}.deg.example")),
                60,
                Ipv4Addr::new(198, 51, 100, nm + 1),
            )
            .unwrap();
        }
        let mut server_a = AuthServer::new(zone.clone(), EcsHandling::open(ScopePolicy::MatchSource));
        let mut server_b = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));

        let default_cfg = ResolverConfig::rfc_compliant(RES);
        let mut bounded_cfg = ResolverConfig::rfc_compliant(RES);
        bounded_cfg.overload.max_cache_entries = Some(usize::MAX);
        let mut plain = Resolver::new(default_cfg);
        let mut bounded = Resolver::new(bounded_cfg);

        let mut now = 0u64;
        for &(nm, client, gap) in &queries {
            now += gap;
            let q = Message::query(1, Question::a(name(&format!("h{nm}.deg.example"))));
            let addr = IpAddr::V4(Ipv4Addr::from(client));
            let t = SimTime::from_secs(now);
            let ra = plain.resolve_msg(&q, addr, t, &mut server_a);
            let rb = bounded.resolve_msg(&q, addr, t, &mut server_b);
            prop_assert_eq!(&ra, &rb, "responses diverged at t={}", now);
        }
        prop_assert_eq!(plain.stats(), bounded.stats());
        prop_assert_eq!(plain.cache_stats(), bounded.cache_stats());
        prop_assert_eq!(server_a.log().len(), server_b.log().len());
    }
}
