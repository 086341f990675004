//! What an operation on `EcsCache` costs does not depend on what it holds.
//!
//! Each test does the same work on a cache holding 1,000 unexpired entries
//! and on one holding 32,000, and compares the two wall times as a ratio —
//! best of three runs each, so the machine's speed and a neighbour's burst
//! cancel. A cache that walks its entries on every insert, purge or
//! eviction reads 32× at best (the cache before its expiry queue and
//! recency index read 112–230×: what it walked no longer fitted the CPU's
//! own caches either); one that does not reads 1–2×, the larger cache only
//! missing those more often. The bar is 4×.

use std::time::{Duration, Instant};

use dns_wire::{EcsOption, Name, RecordType};
use netsim::SimTime;
use resolver::{CacheCompliance, CacheLimits, EcsCache};

const SMALL: usize = 1_000;
const LARGE: usize = 32_000;
const MAX_RATIO: f64 = 4.0;

/// Inserts one scoped entry under a name of its own — the scan's case:
/// every probe asks a fresh name. Insert `i` happens at `i` µs, so no two
/// share an expiry.
fn insert(cache: &mut EcsCache, i: usize, ttl: u32) {
    let name = Name::from_ascii(&format!("probe-{i}.scan.example")).unwrap();
    let ecs = EcsOption::from_v4([100, 64, (i >> 8) as u8, 0].into(), 24).with_scope(24);
    let now = SimTime::from_micros(i as u64);
    assert!(cache.insert(name, RecordType::A, Vec::new(), Some(ecs), ttl, now));
}

/// A cache under `limits` holding `held` entries, entry `i` living
/// `ttl(i)` seconds.
fn filled(limits: &CacheLimits, held: usize, ttl: impl Fn(usize) -> u32) -> EcsCache {
    let mut cache = EcsCache::with_limits(CacheCompliance::Honor, limits.clone());
    for i in 0..held {
        insert(&mut cache, i, ttl(i));
    }
    cache
}

/// Times `work` on a fresh cache from `build`, three times; the fastest.
fn best_of_three(build: impl Fn() -> EcsCache, work: impl Fn(&mut EcsCache)) -> Duration {
    let once = || {
        let mut cache = build();
        let start = Instant::now();
        work(&mut cache);
        start.elapsed()
    };
    (0..3).map(|_| once()).min().expect("three runs")
}

/// Runs `work` against `build(SMALL)` and `build(LARGE)` and requires the
/// larger to take at most [`MAX_RATIO`] times as long.
fn assert_flat(what: &str, build: impl Fn(usize) -> EcsCache, work: impl Fn(&mut EcsCache, usize)) {
    let small = best_of_three(|| build(SMALL), |c| work(c, SMALL));
    let large = best_of_three(|| build(LARGE), |c| work(c, LARGE));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!("{what}: {small:?} holding {SMALL}, {large:?} holding {LARGE}, ratio {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "{what} took {ratio:.1}x as long holding {LARGE} entries ({large:?}) as holding {SMALL} \
         ({small:?}); the bar is {MAX_RATIO}x"
    );
}

/// 2,000 inserts of never-seen names after the `held` the cache starts with.
fn fresh_inserts(cache: &mut EcsCache, held: usize) {
    for i in held..held + 2_000 {
        insert(cache, i, 3_600);
    }
}

#[test]
fn fresh_key_inserts_cost_the_same_whatever_the_cache_holds() {
    let unbounded = CacheLimits::default();
    assert_flat(
        "2,000 fresh-key inserts",
        |held| filled(&unbounded, held, |_| 3_600),
        |cache, held| {
            fresh_inserts(cache, held);
            assert_eq!(cache.stats().max_size, held + 2_000);
        },
    );
}

#[test]
fn evicting_inserts_cost_the_same_whatever_the_cache_holds() {
    assert_flat(
        "2,000 inserts that each evict",
        |held| {
            let at_its_bound = CacheLimits {
                max_entries: Some(held),
                ..CacheLimits::default()
            };
            filled(&at_its_bound, held, |_| 3_600)
        },
        |cache, held| {
            fresh_inserts(cache, held);
            assert_eq!(cache.stats().evictions, 2_000);
            assert_eq!(cache.stats().max_size, held);
        },
    );
}

#[test]
fn purges_cost_what_is_due_not_what_is_held() {
    // The same 320 entries — 1 % of the larger cache — live 60 s in either
    // cache, spread evenly through it; the rest live an hour. The clock
    // then walks, in 20,000 purges, across the window in which the 320
    // fall due (entry `i` at 60 s + `i` µs): most purges find nothing due,
    // the rest a single entry, whatever else the cache holds.
    const DUE: usize = LARGE / 100;
    const PURGES: usize = 20_000;
    let unbounded = CacheLimits::default();
    assert_flat(
        "20,000 purges with 320 entries falling due",
        |held| {
            let every = held / DUE;
            let short_lived = |i: usize| i.is_multiple_of(every) && i / every < DUE;
            filled(
                &unbounded,
                held,
                |i| if short_lived(i) { 60 } else { 3_600 },
            )
        },
        |cache, held| {
            for k in 1..=PURGES {
                let elapsed = (k * held / PURGES) as u64;
                cache.purge(SimTime::from_micros(60_000_000 + elapsed));
            }
            let end = SimTime::from_micros(60_000_000 + held as u64);
            assert_eq!(cache.len(end), held - DUE);
        },
    );
}
