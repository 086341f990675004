//! The bounded §7 replay against a flat reference model.
//!
//! The model keeps one `Vec` of entries per mode for every resolver at
//! once and does everything the slow, obvious way: it drops expired
//! entries before each record, answers from the first-inserted live entry
//! that covers the query, and evicts by scanning the whole `Vec` for the
//! resolver's lowest recency tick. [`CacheSimulator`] must agree with it on
//! every resolver's peaks, hits, lookups and evictions, at every capacity
//! and `parallelism`, over seeded random traces that mix 2–5 resolvers,
//! 3–6 names, A and AAAA, /24 and /16 scopes, IPv4 and IPv6 sources, and
//! records without ECS. A failing case names its seed.

use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use analysis::{CacheSimConfig, CacheSimResult, CacheSimulator};
use dns_wire::{IpPrefix, Name, RecordType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workload::{TraceRecord, TraceSet};

/// One cached answer of one resolver, in either mode.
struct Entry {
    resolver: IpAddr,
    name: Name,
    qtype: RecordType,
    /// ECS mode only: the scope the answer serves (`None` serves all).
    scope: Option<IpPrefix>,
    expiry: u64,
    /// The resolver's record counter at the entry's last touch.
    tick: u64,
}

/// Per-resolver counters, named as in `ResolverCacheResult`.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    max_size_ecs: usize,
    max_size_no_ecs: usize,
    hits_ecs: u64,
    hits_no_ecs: u64,
    lookups: u64,
    evictions_ecs: u64,
    evictions_no_ecs: u64,
}

/// Inserts `entry` into one mode, evicts the resolver's least recently
/// touched entries (full scans) until it holds at most `cap`, and returns
/// how many it then holds.
fn insert(
    entries: &mut Vec<Entry>,
    entry: Entry,
    cap: Option<usize>,
    evictions: &mut u64,
) -> usize {
    let resolver = entry.resolver;
    entries.push(entry);
    let held = |entries: &Vec<Entry>| entries.iter().filter(|e| e.resolver == resolver).count();
    while cap.is_some_and(|cap| held(entries) > cap) {
        let oldest = (0..entries.len())
            .filter(|&i| entries[i].resolver == resolver)
            .min_by_key(|&i| entries[i].tick)
            .expect("over capacity, so not empty");
        entries.remove(oldest);
        *evictions += 1;
    }
    held(entries)
}

fn model(trace: &TraceSet, capacity: Option<usize>) -> BTreeMap<IpAddr, Tally> {
    // A zero capacity means one entry, as in the simulator.
    let cap = capacity.map(|c| c.max(1));
    let (mut plain, mut ecs): (Vec<Entry>, Vec<Entry>) = (Vec::new(), Vec::new());
    let mut ticks: HashMap<IpAddr, u64> = HashMap::new();
    let mut tallies: BTreeMap<IpAddr, Tally> = BTreeMap::new();
    for r in &trace.records {
        let now = r.at_micros;
        plain.retain(|e| e.expiry > now);
        ecs.retain(|e| e.expiry > now);
        let tick = ticks.entry(r.resolver).or_default();
        *tick += 1;
        let tick = *tick;
        let tally = tallies.entry(r.resolver).or_default();
        tally.lookups += 1;
        let entry = |scope| Entry {
            resolver: r.resolver,
            name: r.qname.clone(),
            qtype: r.qtype,
            scope,
            expiry: now + u64::from(r.ttl) * 1_000_000,
            tick,
        };
        let same_line =
            |e: &Entry| e.resolver == r.resolver && e.name == r.qname && e.qtype == r.qtype;

        match plain.iter_mut().find(|e| same_line(e)) {
            Some(e) => {
                e.tick = tick;
                tally.hits_no_ecs += 1;
            }
            None => {
                let held = insert(&mut plain, entry(None), cap, &mut tally.evictions_no_ecs);
                tally.max_size_no_ecs = tally.max_size_no_ecs.max(held);
            }
        }

        let serves = |e: &Entry| {
            same_line(e)
                && match (&e.scope, &r.ecs_source) {
                    (None, _) => true,
                    (Some(p), Some(s)) => p.is_default_route() || p.covers(s),
                    (Some(p), None) => p.is_default_route(),
                }
        };
        match ecs.iter_mut().find(|e| serves(e)) {
            Some(e) => {
                e.tick = tick;
                tally.hits_ecs += 1;
            }
            None => {
                let scope = match (r.ecs_source, r.response_scope) {
                    (Some(src), Some(scope)) => Some(src.truncate(scope.min(src.len()))),
                    _ => None,
                };
                let held = insert(&mut ecs, entry(scope), cap, &mut tally.evictions_ecs);
                tally.max_size_ecs = tally.max_size_ecs.max(held);
            }
        }
    }
    tallies
}

fn tallies(result: &CacheSimResult) -> BTreeMap<IpAddr, Tally> {
    result
        .per_resolver
        .iter()
        .map(|r| {
            let tally = Tally {
                max_size_ecs: r.max_size_ecs,
                max_size_no_ecs: r.max_size_no_ecs,
                hits_ecs: r.hits_ecs,
                hits_no_ecs: r.hits_no_ecs,
                lookups: r.lookups,
                evictions_ecs: r.evictions_ecs,
                evictions_no_ecs: r.evictions_no_ecs,
            };
            (r.resolver, tally)
        })
        .collect()
}

/// A time-ordered trace of 40–240 records, a quarter of a second apart at
/// most, so a line is often asked again inside its 1–8 s TTL. Sources come
/// from a few /24s and /56s so that scopes both split and share entries;
/// about one record in six carries no ECS, and one in eight gets an answer
/// without a scope.
fn trace(seed: u64) -> TraceSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let resolvers = rng.gen_range(2u8..=5);
    let names = rng.gen_range(3u32..=6);
    let mut at = 0u64;
    let mut t = TraceSet::new("model");
    for _ in 0..rng.gen_range(40..=240) {
        at += rng.gen_range(0u64..=250_000);
        let subnet = rng.gen_range(0u8..6);
        let (source, client) = match rng.gen_range(0u8..6) {
            0 => (None, None),
            1 | 2 => {
                let addr = Ipv6Addr::new(0x2001, 0xdb8, u16::from(subnet) << 12, 0, 0, 0, 0, 7);
                (IpPrefix::v6(addr, 56).ok(), Some(IpAddr::V6(addr)))
            }
            _ => {
                let addr = Ipv4Addr::new(10, subnet / 3, subnet, 7);
                (IpPrefix::v4(addr, 24).ok(), Some(IpAddr::V4(addr)))
            }
        };
        let scope = match rng.gen_range(0u8..8) {
            0 => None,
            1..=3 => Some(16),
            _ => Some(24),
        };
        t.records.push(TraceRecord {
            at_micros: at,
            resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, rng.gen_range(1..=resolvers))),
            qname: Name::from_ascii(&format!("h{}.model.test", rng.gen_range(0..names)))
                .expect("valid name"),
            qtype: if rng.gen_range(0u8..4) == 0 {
                RecordType::Aaaa
            } else {
                RecordType::A
            },
            ecs_source: source,
            response_scope: source.and(scope),
            ttl: rng.gen_range(1u32..=8),
            client,
        });
    }
    t
}

#[test]
fn bounded_replay_equals_the_flat_model_at_every_capacity_and_parallelism() {
    let (mut evictions, mut hits, mut runs) = (0u64, 0u64, 0u64);
    for seed in 0..64u64 {
        let trace = trace(seed);
        for capacity in (1..=8).map(Some).chain([None]) {
            let want = model(&trace, capacity);
            for parallelism in 1..=3 {
                let config = CacheSimConfig {
                    capacity,
                    parallelism,
                    ..CacheSimConfig::default()
                };
                let got = tallies(&CacheSimulator::new(config).run(&trace));
                assert_eq!(
                    got, want,
                    "seed {seed}, capacity {capacity:?}, parallelism {parallelism}"
                );
                runs += 1;
            }
            evictions += want
                .values()
                .map(|t| t.evictions_ecs + t.evictions_no_ecs)
                .sum::<u64>();
            hits += want.values().map(|t| t.hits_ecs).sum::<u64>();
        }
    }
    // The traces exercise what the model is for: bounded caches evicting,
    // and scoped entries answering.
    assert_eq!(runs, 64 * 9 * 3);
    assert!(evictions > 10_000, "{evictions} evictions");
    assert!(hits > 10_000, "{hits} ECS-mode hits");
}
