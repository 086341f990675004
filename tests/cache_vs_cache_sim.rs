//! The §7 figures come from `analysis::cache_sim`'s `ShardReplayer`, a
//! *model* of a resolver cache; §6.3's verdicts come from
//! [`resolver::EcsCache`], the cache. This differential replays one
//! generated trace through both and requires the same per-resolver hits,
//! misses and peak size — the simulator's ECS mode against a cache that
//! honours scope, and its plain mode against a cache that ignores it,
//! which is the paper's own link between §6.3 (103 resolvers ignore
//! scope) and §7 (what honouring it costs).
//!
//! First step of ROADMAP 3(iii): one trace, unbounded caches, IPv4
//! clients.

use std::collections::BTreeMap;
use std::net::IpAddr;

use analysis::{CacheSimConfig, CacheSimulator};
use dns_wire::EcsOption;
use netsim::{SimDuration, SimTime};
use resolver::{CacheCompliance, EcsCache};
use workload::stream::SubnetSpace;
use workload::{CdnStreamGen, TraceSet};

/// Per-resolver outcome of a replay: (hits, misses, peak live entries).
type Outcome = BTreeMap<IpAddr, (u64, u64, usize)>;

/// A dense fig1-shaped trace: few enough names and subnets per resolver
/// that entries are hit, shared under coarse scopes, and expire (TTL 20 s
/// over a 10-minute window) many times over.
fn trace() -> TraceSet {
    CdnStreamGen {
        resolvers: 12,
        subnets_per_resolver: 30,
        hostnames: 60,
        queries: 20_000,
        duration: SimDuration::from_secs(600),
        ttl: 20,
        seed: 7,
    }
    .source()
    .materialize()
}

/// Replays `trace` through one real cache per resolver: look up by a
/// client address inside the record's ECS source; on a miss, insert under
/// the record's scope and TTL (an empty answer section — the cache keys
/// on name, type and scope, never on the records).
fn replay_through_ecs_cache(trace: &TraceSet, compliance: CacheCompliance) -> Outcome {
    let mut caches: BTreeMap<IpAddr, (EcsCache, usize)> = BTreeMap::new();
    for rec in &trace.records {
        let (cache, peak) = caches
            .entry(rec.resolver)
            .or_insert_with(|| (EcsCache::new(compliance), 0));
        let now = SimTime::from_micros(rec.at_micros);
        let source = rec.ecs_source.expect("CDN records carry ECS");
        let client = SubnetSpace::host_in(&source, 1);
        if cache.lookup(&rec.qname, rec.qtype, client, now).is_none() {
            let scope = rec.response_scope.expect("CDN records carry a scope");
            let ecs = EcsOption::from_prefix(source).with_scope(scope);
            assert!(cache.insert(
                rec.qname.clone(),
                rec.qtype,
                Vec::new(),
                Some(ecs),
                rec.ttl,
                now
            ));
            *peak = (*peak).max(cache.len(now));
        }
    }
    caches
        .into_iter()
        .map(|(resolver, (cache, peak))| {
            let stats = cache.stats();
            assert_eq!(stats.max_size, peak, "{resolver}: max_size is the peak len");
            (resolver, (stats.hits, stats.misses, peak))
        })
        .collect()
}

/// The simulator's per-resolver outcome in its ECS and its plain mode.
fn simulated(trace: &TraceSet) -> (Outcome, Outcome) {
    let result = CacheSimulator::new(CacheSimConfig::default()).run(trace);
    let (mut ecs, mut plain) = (Outcome::new(), Outcome::new());
    for r in &result.per_resolver {
        ecs.insert(
            r.resolver,
            (r.hits_ecs, r.lookups - r.hits_ecs, r.max_size_ecs),
        );
        plain.insert(
            r.resolver,
            (r.hits_no_ecs, r.lookups - r.hits_no_ecs, r.max_size_no_ecs),
        );
    }
    (ecs, plain)
}

#[test]
fn the_trace_exercises_hits_sharing_and_expiry() {
    let trace = trace();
    let (ecs, plain) = simulated(&trace);
    assert!(ecs.len() >= 10, "{} resolvers replayed", ecs.len());
    let total = |o: &Outcome| {
        o.values()
            .fold((0, 0, 0), |acc, v| (acc.0 + v.0, acc.1 + v.1, acc.2 + v.2))
    };
    let (ecs_hits, ecs_misses, ecs_peak) = total(&ecs);
    let (plain_hits, plain_misses, plain_peak) = total(&plain);
    assert_eq!(ecs_hits + ecs_misses, 20_000);
    // Both modes hit and miss in the thousands, honouring scope costs
    // hits and entries, and far more is inserted than is ever live at
    // once — so entries expire and are re-fetched.
    assert!(
        ecs_hits > 2_000 && ecs_misses > 2_000,
        "{ecs_hits}/{ecs_misses}"
    );
    assert!(plain_hits > ecs_hits && plain_misses > 1_000);
    assert!(ecs_peak > plain_peak);
    assert!(ecs_misses > 3 * ecs_peak as u64);
}

#[test]
fn a_scope_honouring_cache_equals_the_simulators_ecs_mode() {
    let trace = trace();
    assert_eq!(
        replay_through_ecs_cache(&trace, CacheCompliance::Honor),
        simulated(&trace).0
    );
}

#[test]
fn a_scope_ignoring_cache_equals_the_simulators_plain_mode() {
    let trace = trace();
    assert_eq!(
        replay_through_ecs_cache(&trace, CacheCompliance::IgnoreScope),
        simulated(&trace).1
    );
}
