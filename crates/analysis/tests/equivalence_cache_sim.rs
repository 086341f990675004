//! Sharded replay must be bit-identical to sequential replay.
//!
//! The engine's correctness argument: per-resolver cache state is fully
//! independent, and a resolver's peak is sampled only at its own insert
//! times after purging everything expired at that instant, so purge
//! *interleaving* across resolvers cannot be observed. These tests check
//! the claim end to end on generated traces (with and without client
//! sampling and TTL overrides) and property-test it on arbitrary traces
//! for parallelism ∈ {1, 2, 8}.
//!
//! Sequential replay is in turn held against `seed_engine`, an
//! independent implementation, on every config that engine models — so
//! "all thread counts agree" cannot mean "all equally wrong".

use analysis::{CacheSimConfig, CacheSimulator};
use dns_wire::{IpPrefix, Name, RecordType};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};
use workload::{AllNamesTraceGen, PublicCdnTraceGen, TraceRecord, TraceSet};

fn run_at(
    trace: &TraceSet,
    parallelism: usize,
    config: &CacheSimConfig,
) -> analysis::CacheSimResult {
    CacheSimulator::new(CacheSimConfig {
        parallelism,
        ..config.clone()
    })
    .run(trace)
}

/// The original replay engine, kept as the oracle the rewritten one is
/// differenced against: per-record `Name` interning, one
/// `HashMap<Key, Vec<...>>` and expiry heap per mode, no sharding, no
/// packing. It knows nothing of TTL overrides, client sampling or a
/// capacity bound.
mod seed_engine {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use std::net::IpAddr;

    use analysis::{CacheSimResult, ResolverCacheResult};
    use dns_wire::{IpPrefix, Name, RecordType};
    use netsim::SimTime;
    use workload::TraceSet;

    type Key = (u32, u32, RecordType);
    type LiveEntry = (Option<IpPrefix>, SimTime);

    #[derive(Default)]
    struct ModeState {
        entries: HashMap<Key, Vec<LiveEntry>>,
        heap: BinaryHeap<Reverse<(SimTime, Key)>>,
        live_per_resolver: HashMap<u32, usize>,
        max_live_per_resolver: HashMap<u32, usize>,
        hits: HashMap<u32, u64>,
    }

    impl ModeState {
        fn purge(&mut self, now: SimTime) {
            while let Some(Reverse((exp, key))) = self.heap.peek().copied() {
                if exp > now {
                    break;
                }
                self.heap.pop();
                if let Some(list) = self.entries.get_mut(&key) {
                    let before = list.len();
                    list.retain(|(_, e)| *e > now);
                    let removed = before - list.len();
                    if removed > 0 {
                        *self.live_per_resolver.entry(key.0).or_default() -= removed;
                    }
                    if list.is_empty() {
                        self.entries.remove(&key);
                    }
                }
            }
        }

        fn lookup(&mut self, key: Key, source: Option<&IpPrefix>, now: SimTime) -> bool {
            let hit = self
                .entries
                .get(&key)
                .map(|list| {
                    list.iter().any(|(scope, exp)| {
                        *exp > now
                            && match (scope, source) {
                                (None, _) => true,
                                (Some(p), Some(s)) => p.is_default_route() || p.covers(s),
                                (Some(p), None) => p.is_default_route(),
                            }
                    })
                })
                .unwrap_or(false);
            if hit {
                *self.hits.entry(key.0).or_default() += 1;
            }
            hit
        }

        fn insert(&mut self, key: Key, scope: Option<IpPrefix>, expiry: SimTime) {
            self.entries.entry(key).or_default().push((scope, expiry));
            self.heap.push(Reverse((expiry, key)));
            let lr = self.live_per_resolver.entry(key.0).or_default();
            *lr += 1;
            let mx = self.max_live_per_resolver.entry(key.0).or_default();
            *mx = (*mx).max(*lr);
        }
    }

    /// Both modes over the trace, exactly as the original simulator ran
    /// them (including the per-record `qname.clone()` interning).
    pub fn run(trace: &TraceSet) -> CacheSimResult {
        let mut name_ids: HashMap<Name, u32> = HashMap::new();
        let mut resolver_ids: HashMap<IpAddr, u32> = HashMap::new();
        let mut resolvers: Vec<IpAddr> = Vec::new();
        let mut ecs_mode = ModeState::default();
        let mut plain_mode = ModeState::default();
        let mut lookups: HashMap<u32, u64> = HashMap::new();

        for rec in &trace.records {
            let rid = *resolver_ids.entry(rec.resolver).or_insert_with(|| {
                resolvers.push(rec.resolver);
                (resolvers.len() - 1) as u32
            });
            let next_name_id = name_ids.len() as u32;
            let nid = *name_ids.entry(rec.qname.clone()).or_insert(next_name_id);
            let key = (rid, nid, rec.qtype);
            let now = SimTime::from_micros(rec.at_micros);
            let expiry = now + netsim::SimDuration::from_secs(rec.ttl as u64);

            *lookups.entry(rid).or_default() += 1;

            plain_mode.purge(now);
            if !plain_mode.lookup(key, None, now) {
                plain_mode.insert(key, None, expiry);
            }

            ecs_mode.purge(now);
            let source = rec.ecs_source;
            if !ecs_mode.lookup(key, source.as_ref(), now) {
                let entry_prefix = match (source, rec.response_scope) {
                    (Some(src), Some(scope)) => Some(src.truncate(scope.min(src.len()))),
                    _ => None,
                };
                ecs_mode.insert(key, entry_prefix, expiry);
            }
        }

        let mut per_resolver: Vec<ResolverCacheResult> = resolvers
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let rid = i as u32;
                ResolverCacheResult {
                    resolver: *addr,
                    max_size_ecs: ecs_mode
                        .max_live_per_resolver
                        .get(&rid)
                        .copied()
                        .unwrap_or(0),
                    max_size_no_ecs: plain_mode
                        .max_live_per_resolver
                        .get(&rid)
                        .copied()
                        .unwrap_or(0),
                    hits_ecs: ecs_mode.hits.get(&rid).copied().unwrap_or(0),
                    hits_no_ecs: plain_mode.hits.get(&rid).copied().unwrap_or(0),
                    lookups: lookups.get(&rid).copied().unwrap_or(0),
                    // The seed engine never evicted early.
                    evictions_ecs: 0,
                    evictions_no_ecs: 0,
                }
            })
            .collect();
        per_resolver.sort_by_key(|r| r.resolver);
        CacheSimResult { per_resolver }
    }
}

/// Sequential replay, differenced against the seed engine whenever the
/// config replays every record as recorded into an unbounded cache (the
/// only replay the seed engine knows; `sample_pct` 100 keeps every record
/// whatever the seed).
fn run_sequential_checked(trace: &TraceSet, config: &CacheSimConfig) -> analysis::CacheSimResult {
    let sequential = run_at(trace, 1, config);
    if config.ttl_override.is_none() && config.capacity.is_none() && config.sample_pct >= 100 {
        assert_eq!(
            seed_engine::run(trace).per_resolver,
            sequential.per_resolver,
            "sequential replay diverged from the seed engine on '{}'",
            trace.label
        );
    }
    sequential
}

fn assert_equivalent(trace: &TraceSet, config: &CacheSimConfig) {
    let sequential = run_sequential_checked(trace, config);
    for parallelism in [2, 3, 8] {
        let sharded = run_at(trace, parallelism, config);
        assert_eq!(
            sequential.per_resolver, sharded.per_resolver,
            "parallelism={parallelism} diverged on '{}'",
            trace.label
        );
    }
}

#[test]
fn public_cdn_trace_equivalent_across_thread_counts() {
    let trace = PublicCdnTraceGen {
        resolvers: 13,
        subnets_per_resolver: 20,
        hostnames: 60,
        queries: 40_000,
        duration: netsim::SimDuration::from_secs(600),
        ..PublicCdnTraceGen::default()
    }
    .generate();
    assert_equivalent(&trace, &CacheSimConfig::default());
    assert_equivalent(
        &trace,
        &CacheSimConfig {
            ttl_override: Some(60),
            ..CacheSimConfig::default()
        },
    );
}

#[test]
fn all_names_trace_equivalent_with_sampling() {
    // Single-resolver trace with clients: exercises the sampling filter
    // and the parallelism > num_resolvers clamp.
    let trace = AllNamesTraceGen {
        v4_subnets: 80,
        v6_subnets: 20,
        slds: 60,
        queries: 30_000,
        ..AllNamesTraceGen::default()
    }
    .generate();
    for sample_pct in [100, 50, 10] {
        assert_equivalent(
            &trace,
            &CacheSimConfig {
                sample_pct,
                sample_seed: 7,
                ..CacheSimConfig::default()
            },
        );
    }
}

#[test]
fn empty_and_tiny_traces_equivalent() {
    let empty = TraceSet::new("empty");
    assert_equivalent(&empty, &CacheSimConfig::default());

    let mut one = TraceSet::new("one");
    one.records.push(TraceRecord {
        at_micros: 0,
        resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, 1)),
        qname: Name::from_ascii("a.example.com").unwrap(),
        qtype: RecordType::A,
        ecs_source: Some(IpPrefix::v4(Ipv4Addr::new(10, 0, 0, 0), 24).unwrap()),
        response_scope: Some(24),
        ttl: 20,
        client: None,
    });
    assert_equivalent(&one, &CacheSimConfig::default());
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..600_000_000,
        0u8..5,   // resolver index
        0u8..6,   // name index
        0u32..40, // subnet index
        prop_oneof![Just(0u8), Just(8), Just(16), Just(24)],
        prop_oneof![Just(20u32), Just(60), Just(300)],
        proptest::option::of(0u8..4), // some records carry no ECS
    )
        .prop_map(|(at, res, nm, subnet, scope, ttl, ecs)| {
            let subnet_addr = Ipv4Addr::from(0x0A00_0000 | (subnet << 8));
            TraceRecord {
                at_micros: at,
                resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, res + 1)),
                qname: Name::from_ascii(&format!("h{nm}.example.com")).unwrap(),
                qtype: RecordType::A,
                ecs_source: ecs.map(|_| IpPrefix::v4(subnet_addr, 24).unwrap()),
                response_scope: ecs.map(|_| scope),
                ttl,
                client: Some(IpAddr::V4(Ipv4Addr::from(u32::from(subnet_addr) | 7))),
            }
        })
}

fn arb_trace() -> impl Strategy<Value = TraceSet> {
    proptest::collection::vec(arb_record(), 1..250).prop_map(|mut records| {
        records.sort_by_key(|r| r.at_micros);
        let mut t = TraceSet::new("prop-equivalence");
        t.records = records;
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any trace, any thread count in {1, 2, 8}: identical output — and,
    /// on the unsampled third of cases, identical to the seed engine.
    #[test]
    fn sharded_replay_matches_sequential(
        trace in arb_trace(),
        parallelism in prop_oneof![Just(1usize), Just(2), Just(8)],
        pct in prop_oneof![Just(100u8), Just(60), Just(25)],
    ) {
        let config = CacheSimConfig {
            sample_pct: pct,
            sample_seed: 3,
            ..CacheSimConfig::default()
        };
        let sequential = run_sequential_checked(&trace, &config);
        let sharded = run_at(&trace, parallelism, &config);
        prop_assert_eq!(sequential.per_resolver, sharded.per_resolver);
    }
}
