//! `EcsCache` against a reference model, operation by operation.
//!
//! [`Model`] is the cache written the obvious way: one flat `Vec` of
//! entries in insertion order, every operation a full scan. Purging is a
//! `retain`, the live count is `len()`, and an eviction victim is
//! `min_by_key(last_used)` over everything. Whatever bookkeeping the real
//! cache keeps to avoid those scans has to produce the same return values,
//! the same [`CacheStats`] and the same `len` after every single step — so
//! eviction victims, same-scope supersedes and expiry are compared, not
//! assumed.
//!
//! Each case is one `u64` seed: 200 random steps (`insert`,
//! `insert_with_rcode`, `lookup`, `purge`, `clear`; `len` after each) over
//! three names × two types × six /24s on a clock that never goes back,
//! under each of two limit profiles (unbounded; `max_entries`) × the three
//! compliance modes — and a third profile that churns: 1,000 steps over 64
//! names, some longer than a name holds inline, with TTLs spread from 1 s
//! to 5 min, so that a name's list empties and leaves, comes back, and is
//! queued again under an earlier horizon, many times a case. A failure
//! prints its seed, and
//! `CACHE_MODEL_SEED=<seed> cargo test -p resolver --test cache_model`
//! replays exactly that case. `PROPTEST_CASES` sets how many seeds run.

use std::net::{IpAddr, Ipv4Addr};

use dns_wire::{EcsOption, IpPrefix, Name, Rcode, Rdata, Record, RecordType};
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::cache::CachedAnswer;
use resolver::{CacheCompliance, CacheLimits, CacheStats, EcsCache};

type Key = (Name, RecordType);
type Hit = Option<CachedAnswer>;

struct ModelEntry {
    key: Key,
    scope: IpPrefix,
    answer: CachedAnswer,
    expires: SimTime,
    last_used: u64,
}

/// The reference cache: today's semantics, every operation a full scan.
struct Model {
    entries: Vec<ModelEntry>,
    compliance: CacheCompliance,
    limits: CacheLimits,
    stats: CacheStats,
    tick: u64,
}

impl Model {
    fn purge(&mut self, now: SimTime) {
        self.entries.retain(|e| e.expires > now);
    }
    /// Live entries of `key` whose scope admits `client`, oldest first.
    fn fit(&self, key: &Key, client: IpAddr, now: SimTime) -> Vec<usize> {
        // A capped scope was stored capped, so only IgnoreScope matches differently.
        let open = self.compliance == CacheCompliance::IgnoreScope;
        let admits = |s: IpPrefix| open || s.is_default_route() || s.contains(client);
        let fits = |e: &ModelEntry| e.key == *key && e.expires > now && admits(e.scope);
        let all = 0..self.entries.len();
        all.filter(|&i| fits(&self.entries[i])).collect()
    }
    /// The first live entry of `key` whose scope admits `client`, marked
    /// used, record TTLs capped at its remaining lifetime.
    fn lookup(&mut self, key: &Key, client: IpAddr, now: SimTime) -> Hit {
        self.tick += 1;
        let fresh = self.fit(key, client, now);
        self.stats.hits += !fresh.is_empty() as u64;
        self.stats.misses += fresh.is_empty() as u64;
        let &i = fresh.first()?;
        self.entries[i].last_used = self.tick;
        let remaining = self.entries[i].expires.since(now).as_secs() as u32;
        let mut answer = self.entries[i].answer.clone();
        for r in &mut answer.records {
            r.ttl = r.ttl.min(remaining);
        }
        Some(answer)
    }
    /// Removes the least-recently-used entry.
    fn evict_lru(&mut self) -> bool {
        let all = 0..self.entries.len();
        let victim = all.min_by_key(|&i| self.entries[i].last_used);
        victim.map(|i| self.entries.remove(i)).is_some()
    }
    fn insert(&mut self, key: Key, answer: CachedAnswer, ttl: u32, now: SimTime) {
        let cap = match self.compliance {
            CacheCompliance::CapPrefix(cap) => cap,
            _ => u8::MAX,
        };
        let everyone = IpPrefix::v4(Ipv4Addr::UNSPECIFIED, 0).unwrap();
        let scope = answer.ecs.map_or(everyone, |opt| {
            let len = opt.scope_prefix_len().min(opt.source_prefix_len());
            opt.source_prefix().truncate(len.min(cap))
        });
        self.purge(now);
        self.tick += 1;
        self.entries.retain(|e| e.key != key || e.scope != scope);
        self.entries.push(ModelEntry {
            key: key.clone(),
            scope,
            answer,
            expires: now + SimDuration::from_secs(ttl as u64),
            last_used: self.tick,
        });
        self.stats.inserts += 1;
        let max_len = self.limits.max_entries.unwrap_or(usize::MAX);
        while self.entries.len() > max_len && self.evict_lru() {
            self.stats.evictions += 1;
        }
        self.stats.max_size = self.stats.max_size.max(self.entries.len());
    }
}

const NAMES: [&str; 3] = ["a.example", "B.example", "www.cdn.example"];
const TTLS: [u32; 6] = [0, 1, 3, 10, 40, 200];
/// Seconds the clock may advance before a step (it never goes back).
const ADVANCE: [u64; 8] = [0, 0, 0, 0, 0, 1, 1, 5];

/// TTLs of the churning profile: spread, so that a later insert often
/// falls due before everything its name's list holds.
const CHURN_TTLS: [u32; 10] = [1, 2, 4, 7, 15, 30, 60, 90, 150, 300];

/// The limits a case runs under, and the names, TTLs and step count it
/// draws from.
struct Profile {
    limits: CacheLimits,
    names: Vec<Name>,
    ttls: &'static [u32],
    steps: usize,
}

const PROFILES: usize = 3;

fn profile(which: usize) -> Profile {
    let few = || NAMES.iter().map(|n| Name::from_ascii(n).unwrap()).collect();
    let limits = match which {
        0 => CacheLimits::default(),
        1 => CacheLimits {
            max_entries: Some(3),
        },
        _ => {
            // Every eighth name is longer than 38 wire bytes.
            let churn = (0..64)
                .map(|i| {
                    let pad = if i % 8 == 0 {
                        ".a-longer-label-than-most"
                    } else {
                        ""
                    };
                    Name::from_ascii(&format!("n{i}{pad}.churn.example")).unwrap()
                })
                .collect();
            return Profile {
                limits: CacheLimits {
                    max_entries: Some(12),
                },
                names: churn,
                ttls: &CHURN_TTLS,
                steps: 1_000,
            };
        }
    };
    Profile {
        limits,
        names: few(),
        ttls: &TTLS,
        steps: 200,
    }
}

/// Subnets 0–3 share 10.0.0.0/22; 4 and 5 lie in the next /22.
fn subnet(rng: &mut SmallRng) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, rng.gen_range(0..6), 0)
}

/// One random case, fully determined by `seed`: `steps` operations on a
/// cache and the model side by side, everything observable compared after
/// each.
fn run_case(seed: u64, profile: &Profile, compliance: CacheCompliance) -> Result<Churn, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = &profile.names;
    let mut cache = EcsCache::with_limits(compliance, profile.limits.clone());
    let mut model = Model {
        entries: Vec::new(),
        compliance,
        limits: profile.limits.clone(),
        stats: CacheStats::default(),
        tick: 0,
    };
    let mut churn = Churn::default();
    let mut ever_held = std::collections::HashSet::new();
    let mut now = SimTime::from_micros(rng.gen_range(0..3_000_000));
    for step in 0..profile.steps {
        now += SimDuration::from_secs(ADVANCE[rng.gen_range(0..ADVANCE.len())]);
        let types = [
            RecordType::A,
            RecordType::A,
            RecordType::A,
            RecordType::Aaaa,
        ];
        let key = (
            names[rng.gen_range(0..names.len())].clone(),
            types[rng.gen_range(0..4)],
        );
        let (name, qtype) = (&key.0, key.1);
        let net = subnet(&mut rng).octets();
        let client = IpAddr::V4(Ipv4Addr::new(net[0], net[1], net[2], 7));
        let op = rng.gen_range(0..100);
        let diverged = if op < 45 {
            let ecs = (rng.gen_range(0..5) > 0).then(|| {
                let scope = [0, 8, 16, 22, 24, 32][rng.gen_range(0..6)];
                EcsOption::from_v4(subnet(&mut rng), [16, 24][rng.gen_range(0..2)])
                    .with_scope(scope)
            });
            let ttl = profile.ttls[rng.gen_range(0..profile.ttls.len())];
            // About every fourth insert is an RFC 2308 negative entry.
            let (rcode, answers) = if op < 34 {
                (Rcode::NoError, rng.gen_range(1..3))
            } else {
                (Rcode::NxDomain, 0)
            };
            let a = |i: u32| Rdata::A(Ipv4Addr::new(203, 0, 113, i as u8));
            let records: Vec<Record> = (0..answers)
                .map(|i| Record::new(name.clone(), ttl + i, a(i)))
                .collect();
            model.purge(now);
            let expires = now + SimDuration::from_secs(ttl as u64);
            let held = model.entries.iter().filter(|e| e.key == key);
            match held.map(|e| e.expires).min() {
                Some(due) => churn.requeued_earlier += u64::from(expires < due),
                None => churn.returned += u64::from(!ever_held.insert(key.clone())),
            }
            let cached = if rcode == Rcode::NoError && rng.gen() {
                cache.insert(name.clone(), qtype, records.clone(), ecs, ttl, now)
            } else {
                cache.insert_with_rcode(name.clone(), qtype, records.clone(), ecs, rcode, ttl, now)
            };
            model.insert(
                key.clone(),
                CachedAnswer {
                    records,
                    ecs,
                    rcode,
                },
                ttl,
                now,
            );
            (!cached).then(|| "insert refused a cacheable response".to_string())
        } else if op < 88 {
            let (got, want) = (
                cache.lookup(name, qtype, client, now),
                model.lookup(&key, client, now),
            );
            (got != want).then(|| format!("lookup returned {got:?}, model {want:?}"))
        } else if op < 97 {
            cache.purge(now);
            model.purge(now);
            None
        } else {
            cache.clear();
            model.entries.clear();
            None
        };
        // `len` purges before it counts, on both sides.
        let seen = (cache.stats(), cache.len(now));
        model.purge(now);
        let expected = (model.stats, model.entries.len());
        let diverged = diverged.or_else(|| {
            (seen != expected).then(|| format!("(stats, len) {seen:?}, model {expected:?}"))
        });
        if let Some(why) = diverged {
            return Err(format!("step {step} at {now}: {why}"));
        }
    }
    churn.stats = cache.stats();
    Ok(churn)
}

/// What a case exercised: the cache's statistics, and how often an insert
/// found its name's list gone after the name had been held before, or
/// holding only entries due after the new one.
#[derive(Default)]
struct Churn {
    stats: CacheStats,
    returned: u64,
    requeued_earlier: u64,
}

/// Every limit profile × every compliance mode for one seed; the summed
/// statistics say what the sequences exercised.
fn run_seed(seed: u64) -> CacheStats {
    let profiles = (0..PROFILES - 1).map(profile).collect::<Vec<_>>();
    run_profiles(seed, &profiles, 0).stats
}

/// Every compliance mode under each of `profiles` for one seed; the summed
/// counts say what the sequences exercised.
fn run_profiles(seed: u64, profiles: &[Profile], first: usize) -> Churn {
    let modes = [
        CacheCompliance::Honor,
        CacheCompliance::IgnoreScope,
        CacheCompliance::CapPrefix(22),
    ];
    let mut total = Churn::default();
    for (which, profile) in profiles.iter().enumerate() {
        for compliance in modes {
            match run_case(seed, profile, compliance) {
                Ok(c) => {
                    total.stats.hits += c.stats.hits;
                    total.stats.evictions += c.stats.evictions;
                    total.returned += c.returned;
                    total.requeued_earlier += c.requeued_earlier;
                }
                Err(why) => panic!(
                    "profile {}, {compliance:?}, seed {seed}: {why}\nreplay with CACHE_MODEL_SEED={seed}",
                    first + which
                ),
            }
        }
    }
    total
}

/// The churning profile alone, for one seed.
fn run_churn(seed: u64) -> Churn {
    run_profiles(seed, &[profile(PROFILES - 1)], PROFILES - 1)
}

#[test]
fn cache_agrees_with_the_flat_model_after_every_step() {
    if let Ok(replay) = std::env::var("CACHE_MODEL_SEED") {
        run_seed(replay.parse().expect("CACHE_MODEL_SEED is a u64"));
        return;
    }
    let mut rng = proptest::TestRng::for_test("cache_model");
    for _ in 0..ProptestConfig::with_cases(48).effective_cases() {
        run_seed(any::<u64>().generate(&mut rng));
    }
}

/// The same comparison under the churning profile, whose many names make
/// lists leave, return and re-queue far more often than three names can.
#[test]
fn cache_agrees_with_the_flat_model_while_names_churn() {
    if let Ok(replay) = std::env::var("CACHE_MODEL_SEED") {
        run_churn(replay.parse().expect("CACHE_MODEL_SEED is a u64"));
        return;
    }
    let mut rng = proptest::TestRng::for_test("cache_model_churn");
    for _ in 0..ProptestConfig::with_cases(16).effective_cases() {
        run_churn(any::<u64>().generate(&mut rng));
    }
}

/// The churning profile does what it is for: names come back after their
/// list left, inserts fall due before what their list holds, and the
/// bound still acts.
#[test]
fn the_churning_profile_returns_names_and_requeues_lists_earlier() {
    for seed in 0..4 {
        let c = run_churn(seed);
        let s = c.stats;
        let counts = format!(
            "{} returned, {} re-queued earlier",
            c.returned, c.requeued_earlier
        );
        assert!(
            c.returned > 500 && c.requeued_earlier > 20,
            "seed {seed}: {counts}"
        );
        assert!(s.hits > 20 && s.evictions > 40, "seed {seed}: {s:?}");
    }
}

/// The model is only a reference for what the sequences reach: hits and
/// evictions must both occur, and often.
#[test]
fn generated_sequences_reach_every_compared_behaviour() {
    for seed in 0..4 {
        let s = run_seed(seed);
        assert!(s.hits > 100, "seed {seed}: {s:?}");
        assert!(s.evictions > 60, "seed {seed}: {s:?}");
    }
}
