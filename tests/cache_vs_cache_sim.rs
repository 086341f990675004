//! The §7 figures come from `analysis::cache_sim`'s `ShardReplayer`, a
//! *model* of a resolver cache; §6.3's verdicts come from
//! [`resolver::EcsCache`], the cache. This differential replays generated
//! traces through both and requires the same per-resolver hits, misses and
//! peak size — the simulator's ECS mode against a cache that honours
//! scope, and its plain mode against a cache that ignores it, which is the
//! paper's own link between §6.3 (the resolvers that ignore scope) and §7
//! (what honouring it costs).
//!
//! Every cache here is unbounded. The edges covered: IPv4 clients, IPv6
//! clients beside names answered without ECS, scope 0, and scopes longer
//! than the source prefix (ROADMAP 3(iii)).

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

use analysis::{CacheSimConfig, CacheSimulator};
use dns_wire::EcsOption;
use netsim::{SimDuration, SimTime};
use resolver::{CacheCompliance, EcsCache};
use workload::stream::SubnetSpace;
use workload::{AllNamesStreamGen, CdnStreamGen, TraceRecord, TraceSet};

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

/// `trace` with `edit` applied to each record. The edits below touch only
/// the ECS fields, so the trace's interned (resolver, name) index stays
/// valid.
fn edited(mut trace: TraceSet, edit: impl Fn(usize, &mut TraceRecord)) -> TraceSet {
    for (i, rec) in trace.records.iter_mut().enumerate() {
        edit(i, rec);
    }
    trace
}

/// Replays `trace` through one real cache per resolver: look up by a
/// client address inside the record's ECS source (the record's own client
/// when it carries no ECS); on a miss, insert under the record's scope and
/// TTL, or unscoped when the record carries no ECS (an empty answer
/// section — the cache keys on name, type and scope, never on the
/// records).
fn replay_through_ecs_cache(trace: &TraceSet, compliance: CacheCompliance) -> Outcome {
    let mut caches: BTreeMap<IpAddr, (EcsCache, usize)> = BTreeMap::new();
    for rec in &trace.records {
        let (cache, peak) = caches
            .entry(rec.resolver)
            .or_insert_with(|| (EcsCache::new(compliance), 0));
        let now = SimTime::from_micros(rec.at_micros);
        let client = match rec.ecs_source {
            Some(source) => SubnetSpace::host_in(&source, 1),
            None => rec.client.expect("a record without ECS names its client"),
        };
        if cache.lookup(&rec.qname, rec.qtype, client, now).is_none() {
            let ecs = rec.ecs_source.map(|source| {
                let scope = rec.response_scope.expect("an ECS record carries a scope");
                EcsOption::from_prefix(source).with_scope(scope)
            });
            assert!(cache.insert(rec.qname.clone(), rec.qtype, Vec::new(), ecs, rec.ttl, now));
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

/// Both pairings at once: the honouring cache against the ECS mode, the
/// ignoring cache against the plain mode.
fn assert_cache_equals_model(trace: &TraceSet) {
    let (ecs, plain) = simulated(trace);
    assert_eq!(
        replay_through_ecs_cache(trace, CacheCompliance::Honor),
        ecs,
        "honouring cache vs ECS mode"
    );
    assert_eq!(
        replay_through_ecs_cache(trace, CacheCompliance::IgnoreScope),
        plain,
        "ignoring cache vs plain mode"
    );
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

/// A busy egress with IPv4 and IPv6 clients: the All-Names shape.
fn dual_stack_trace() -> TraceSet {
    AllNamesStreamGen {
        v4_subnets: 30,
        v6_subnets: 30,
        clients_per_subnet: 4,
        slds: 40,
        hostnames_per_sld: 3,
        queries: 20_000,
        duration: SimDuration::from_secs(3600),
        seed: 7,
        ..AllNamesStreamGen::default()
    }
    .source()
    .materialize()
}

/// The record as a query sent, and answered, without ECS.
fn strip_ecs(rec: &mut TraceRecord) {
    rec.ecs_source = None;
    rec.response_scope = None;
}

#[test]
fn ipv6_sources_and_names_without_ecs_agree() {
    // Every third name, in order of first appearance, is asked without
    // ECS: a whitelisting resolver's shape.
    let trace = dual_stack_trace();
    let mut names = Vec::new();
    for rec in &trace.records {
        if !names.contains(&rec.qname) {
            names.push(rec.qname.clone());
        }
    }
    let plain: BTreeSet<_> = names.into_iter().step_by(3).collect();
    let trace = edited(trace, |_, rec| {
        if plain.contains(&rec.qname) {
            strip_ecs(rec);
        }
    });
    let v6 = trace
        .records
        .iter()
        .filter(|r| r.ecs_source.is_some_and(|s| s.addr().is_ipv6()))
        .count();
    let without_ecs = trace
        .records
        .iter()
        .filter(|r| r.ecs_source.is_none())
        .count();
    assert!(
        v6 > 2_000 && without_ecs > 2_000,
        "{v6} v6, {without_ecs} without ECS"
    );
    let (ecs, plain) = simulated(&trace);
    let (hits, peak) = (
        ecs.values().map(|o| o.0).sum::<u64>(),
        ecs.values().map(|o| o.2).sum::<usize>(),
    );
    assert!(hits > 2_000 && peak > 100, "{hits} hits, peak {peak}");
    assert!(plain.values().map(|o| o.0).sum::<u64>() > hits);
    assert_cache_equals_model(&trace);
}

#[test]
#[ignore = "the model serves a lookup without ECS from unscoped entries only, the cache from any entry covering the client: ROADMAP 3(iii)"]
fn one_name_asked_with_and_without_ecs_agrees() {
    // Every third record goes without ECS, whatever its name. The cache's
    // lookup takes a client address and cannot tell such a query apart,
    // so a live entry scoped around the client answers it; the model
    // misses. The honouring cache reads 15,080 hits, 4,920 misses and a
    // peak of 226 against the model's 14,814, 5,186 and 241.
    let trace = edited(dual_stack_trace(), |i, rec| {
        if i % 3 == 0 {
            strip_ecs(rec);
        }
    });
    assert_cache_equals_model(&trace);
}

#[test]
fn scope_zero_answers_agree() {
    // Every fourth answer is scoped to /0: valid for every client, beside
    // scoped answers for the same names.
    let trace = edited(trace(), |i, rec| {
        if i % 4 == 0 {
            rec.response_scope = Some(0);
        }
    });
    assert_cache_equals_model(&trace);
}

#[test]
fn scopes_longer_than_the_source_agree() {
    // Every third answer claims a /28 or a /32 for a /24 source: both
    // sides clamp it to the source.
    let trace = edited(trace(), |i, rec| {
        if i % 3 == 0 {
            rec.response_scope = Some(if i % 2 == 0 { 32 } else { 28 });
        }
    });
    assert!(trace
        .records
        .iter()
        .any(|r| r.response_scope > r.ecs_source.map(|s| s.len())));
    assert_cache_equals_model(&trace);
}
