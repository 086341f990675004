//! `EcsCache` against a reference model, operation by operation.
//!
//! [`Model`] is the cache written the obvious way: one flat `Vec` of
//! entries in insertion order, every operation a full scan. Purging is a
//! `retain`, the live count is `len()`, the byte total is a sum, and an
//! eviction victim is `min_by_key(last_used)` over everything. Whatever
//! bookkeeping the real cache keeps to avoid those scans has to produce the
//! same return values, the same [`CacheStats`] and the same `len` /
//! `approx_bytes` after every single step — so eviction victims, same-scope
//! supersedes, per-name shedding and stale retention are compared, not
//! assumed.
//!
//! Each case is one `u64` seed: 200 random steps (`insert`,
//! `insert_with_rcode`, `lookup`, `lookup_stale`, `purge`, `clear`; `len`
//! and `approx_bytes` after each) over three names × two types × six /24s
//! on a clock that never goes back, under each of four limit profiles
//! (unbounded; `max_entries`; `max_bytes` + `per_name_cap`; `stale_ttl`
//! with `max_entries`) × the three compliance modes. A failure prints its
//! seed, and
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
        self.entries
            .retain(|e| e.expires + self.limits.stale_ttl > now);
    }
    fn bytes(&self) -> usize {
        let of = |e: &ModelEntry| 96 + e.key.0.wire_len() + 64 * e.answer.records.len();
        self.entries.iter().map(of).sum()
    }
    /// Entries of `key` whose scope admits `client` and whose expiry `when` accepts, oldest first.
    fn fit(&self, key: &Key, client: IpAddr, when: impl Fn(SimTime) -> bool) -> Vec<usize> {
        // A capped scope was stored capped, so only IgnoreScope matches differently.
        let open = self.compliance == CacheCompliance::IgnoreScope;
        let admits = |s: IpPrefix| open || s.is_default_route() || s.contains(client);
        let fits = |e: &ModelEntry| e.key == *key && when(e.expires) && admits(e.scope);
        let all = 0..self.entries.len();
        all.filter(|&i| fits(&self.entries[i])).collect()
    }
    /// Marks entry `i` used and serves it, record TTLs capped at `ttl_cap`.
    fn serve(&mut self, i: usize, ttl_cap: u32) -> CachedAnswer {
        self.entries[i].last_used = self.tick;
        let mut answer = self.entries[i].answer.clone();
        for r in &mut answer.records {
            r.ttl = r.ttl.min(ttl_cap);
        }
        answer
    }
    fn lookup(&mut self, key: &Key, client: IpAddr, now: SimTime) -> Hit {
        self.tick += 1;
        let fresh = self.fit(key, client, |at| at > now);
        self.stats.hits += !fresh.is_empty() as u64;
        self.stats.misses += fresh.is_empty() as u64;
        let &i = fresh.first()?;
        Some(self.serve(i, self.entries[i].expires.since(now).as_secs() as u32))
    }
    fn lookup_stale(&mut self, key: &Key, client: IpAddr, now: SimTime, serve_ttl: u32) -> Hit {
        self.tick += 1;
        let budget = self.limits.stale_ttl;
        let stale = self.fit(key, client, |at| at <= now && at + budget > now);
        // The least stale; among equals, the one inserted last.
        let i = stale.into_iter().max_by_key(|&i| self.entries[i].expires)?;
        self.stats.stale_hits += 1;
        Some(self.serve(i, serve_ttl))
    }
    /// Removes the least-recently-used entry among those `of` selects.
    fn shed(&mut self, of: impl Fn(&ModelEntry) -> bool) -> bool {
        let candidates = (0..self.entries.len()).filter(|&i| of(&self.entries[i]));
        let victim = candidates.min_by_key(|&i| self.entries[i].last_used);
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
        let per_name = self.limits.per_name_cap.unwrap_or(usize::MAX).max(1);
        while self.entries.iter().filter(|e| e.key == key).count() > per_name {
            self.shed(|e| e.key == key);
            self.stats.per_name_evictions += 1;
        }
        self.stats.inserts += 1;
        let max_len = self.limits.max_entries.unwrap_or(usize::MAX);
        let max_bytes = self.limits.max_bytes.unwrap_or(usize::MAX);
        while (self.entries.len() > max_len || self.bytes() > max_bytes) && self.shed(|_| true) {
            self.stats.evictions += 1;
        }
        self.stats.max_size = self.stats.max_size.max(self.entries.len());
    }
}

const NAMES: [&str; 3] = ["a.example", "B.example", "www.cdn.example"];
const TTLS: [u32; 6] = [0, 1, 3, 10, 40, 200];
/// Seconds the clock may advance before a step (it never goes back).
const ADVANCE: [u64; 8] = [0, 0, 0, 0, 0, 1, 1, 5];

fn profile(which: usize) -> CacheLimits {
    let unbounded = CacheLimits::default();
    match which {
        0 => unbounded,
        1 => CacheLimits {
            max_entries: Some(5),
            ..unbounded
        },
        2 => CacheLimits {
            max_bytes: Some(4000),
            per_name_cap: Some(2),
            ..unbounded
        },
        _ => CacheLimits {
            max_entries: Some(6),
            stale_ttl: SimDuration::from_secs(20),
            ..unbounded
        },
    }
}

/// Subnets 0–3 share 10.0.0.0/22; 4 and 5 lie in the next /22.
fn subnet(rng: &mut SmallRng) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, rng.gen_range(0..6), 0)
}

/// One random case, fully determined by `seed`: `steps` operations on a
/// cache and the model side by side, everything observable compared after
/// each.
fn run_case(
    seed: u64,
    limits: CacheLimits,
    compliance: CacheCompliance,
    steps: usize,
) -> Result<CacheStats, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names: Vec<Name> = NAMES.iter().map(|n| Name::from_ascii(n).unwrap()).collect();
    let mut cache = EcsCache::with_limits(compliance, limits.clone());
    let mut model = Model {
        entries: Vec::new(),
        compliance,
        limits,
        stats: CacheStats::default(),
        tick: 0,
    };
    let mut now = SimTime::from_micros(rng.gen_range(0..3_000_000));
    for step in 0..steps {
        now += SimDuration::from_secs(ADVANCE[rng.gen_range(0..ADVANCE.len())]);
        let types = [
            RecordType::A,
            RecordType::A,
            RecordType::A,
            RecordType::Aaaa,
        ];
        let key = (
            names[rng.gen_range(0..3)].clone(),
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
            let ttl = TTLS[rng.gen_range(0..TTLS.len())];
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
        } else if op < 75 {
            let (got, want) = (
                cache.lookup(name, qtype, client, now),
                model.lookup(&key, client, now),
            );
            (got != want).then(|| format!("lookup returned {got:?}, model {want:?}"))
        } else if op < 88 {
            let serve_ttl = [0, 3, 30][rng.gen_range(0..3)];
            let got = cache.lookup_stale(name, qtype, client, now, serve_ttl);
            let want = model.lookup_stale(&key, client, now, serve_ttl);
            (got != want).then(|| format!("lookup_stale returned {got:?}, model {want:?}"))
        } else if op < 97 {
            cache.purge(now);
            model.purge(now);
            None
        } else {
            cache.clear();
            model.entries.clear();
            None
        };
        // `len` and `approx_bytes` purge before they count, on both sides.
        let seen = (cache.stats(), cache.len(now), cache.approx_bytes(now));
        model.purge(now);
        let expected = (model.stats, model.entries.len(), model.bytes());
        let diverged = diverged.or_else(|| {
            (seen != expected).then(|| format!("(stats, len, bytes) {seen:?}, model {expected:?}"))
        });
        if let Some(why) = diverged {
            return Err(format!("step {step} at {now}: {why}"));
        }
    }
    Ok(cache.stats())
}

/// Every limit profile × every compliance mode for one seed; the summed
/// statistics say what the sequences exercised.
fn run_seed(seed: u64) -> CacheStats {
    let modes = [
        CacheCompliance::Honor,
        CacheCompliance::IgnoreScope,
        CacheCompliance::CapPrefix(22),
    ];
    let mut total = CacheStats::default();
    for which in 0..4 {
        for compliance in modes {
            match run_case(seed, profile(which), compliance, 200) {
                Ok(s) => {
                    total.hits += s.hits;
                    total.evictions += s.evictions;
                    total.per_name_evictions += s.per_name_evictions;
                    total.stale_hits += s.stale_hits;
                }
                Err(why) => panic!(
                    "profile {which}, {compliance:?}, seed {seed}: {why}\nreplay with CACHE_MODEL_SEED={seed}"
                ),
            }
        }
    }
    total
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

/// The model is only a reference for what the sequences reach: fresh hits,
/// stale hits and evictions of both kinds must all occur, and often.
#[test]
fn generated_sequences_reach_every_compared_behaviour() {
    for seed in 0..4 {
        let s = run_seed(seed);
        assert!(s.hits > 100 && s.stale_hits > 8, "seed {seed}: {s:?}");
        assert!(
            s.evictions > 60 && s.per_name_evictions > 8,
            "seed {seed}: {s:?}"
        );
    }
}
