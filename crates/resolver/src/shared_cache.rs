//! A sharded, thread-safe ECS cache shared by multiple resolver engines.
//!
//! Every [`crate::Resolver`] reads and fills one of these. An engine built
//! by [`crate::Resolver::new`] owns a one-shard instance; the multi-worker
//! serving path (`dnsd`) runs one engine per worker thread over a shared
//! instance, because cache state must be global: a record inserted by
//! worker 0 has to serve worker 3's next client, or the effective hit rate
//! divides by the worker count. [`SharedEcsCache`] wraps `N` independent
//! [`EcsCache`] shards, each behind its own [`parking_lot::Mutex`], and
//! routes every operation to the shard owning the qname — so two workers
//! only contend when they touch the *same* name's shard at the same
//! instant, not on every query.
//!
//! Sharding is by qname hash alone (not qtype): RFC 7871 scope matching
//! operates on one name's entry list, which therefore must never straddle
//! shards. The global entry bound is split evenly
//! across shards, turning the global LRU into a per-shard LRU — the
//! standard sharded-cache approximation (each shard evicts its own
//! least-recently-used entries, so a skewed shard may evict slightly
//! early). The split rounds down, so the shards' bounds never sum past the
//! global one and it still holds; the one exception is a bound below the
//! shard count, where every shard keeps a floor of one entry and the cache
//! may hold one entry per shard.
//!
//! Telemetry: every shard keeps its own `cache_*` registry. [`snapshot`]
//! merges them into one [`obs::MetricsSnapshot`]; fold it exactly once per
//! cache (not once per worker) or counters double-count —
//! [`crate::Resolver::metrics_snapshot`] therefore carries the cache's
//! series only when the engine owns its cache.
//!
//! [`snapshot`]: SharedEcsCache::snapshot

use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use dns_wire::{EcsOption, Name, Rcode, Record, RecordType};
use netsim::SimTime;
use obs::LockMonitor;
use parking_lot::{Mutex, MutexGuard};
use rustc_hash::FxHasher;

use crate::cache::{CacheCompliance, CacheLimits, CacheStats, CachedAnswer, EcsCache};
use crate::config::ResolverConfig;

/// `N` [`EcsCache`] shards behind per-shard locks, routed by qname hash.
///
/// All shards share one compliance mode and one limits profile; the
/// constructors take care of splitting global bounds. The API mirrors the
/// single-threaded [`EcsCache`] operations the engine uses, taking `&self`
/// so the cache can sit in an [`std::sync::Arc`] across worker threads.
#[derive(Debug)]
pub struct SharedEcsCache {
    shards: Vec<Mutex<EcsCache>>,
    /// Lock-contention monitor for the hot-path (lookup/insert) shard
    /// acquisitions. `None` (the default) costs nothing; enabled, an
    /// uncontended acquisition costs one counter increment and only the
    /// contended path reads the wall clock.
    contention: Option<LockMonitor>,
}

/// Splits a global bound evenly across `shards`, rounding down so the sum
/// never exceeds the requested bound (and undercuts it by at most
/// `shards - 1`), with a floor of one per shard: only a bound below the
/// shard count can be exceeded.
fn split_bound(bound: Option<usize>, shards: usize) -> Option<usize> {
    bound.map(|b| (b / shards).max(1))
}

impl SharedEcsCache {
    /// Creates an unbounded shared cache with `shards` shards (clamped to
    /// at least 1).
    pub fn new(compliance: CacheCompliance, shards: usize) -> Self {
        Self::with_limits(compliance, CacheLimits::default(), true, shards)
    }

    /// Creates a shared cache with explicit limits. `max_entries` is a
    /// global bound, split evenly across shards (rounded down, at least one
    /// each — see the module docs).
    pub fn with_limits(
        compliance: CacheCompliance,
        limits: CacheLimits,
        cache_zero_scope: bool,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let per_shard = CacheLimits {
            max_entries: split_bound(limits.max_entries, shards),
        };
        SharedEcsCache {
            shards: (0..shards)
                .map(|_| {
                    let mut c = EcsCache::with_limits(compliance, per_shard.clone());
                    c.cache_zero_scope = cache_zero_scope;
                    Mutex::new(c)
                })
                .collect(),
            contention: None,
        }
    }

    /// Turns on lock-contention telemetry: hot-path shard acquisitions
    /// record into `lock_cache_shard_*` series of `reg`. Call before the
    /// cache goes behind an `Arc`.
    pub fn enable_contention(&mut self, reg: &obs::MetricsRegistry) {
        self.contention = Some(LockMonitor::new(reg, "lock_cache_shard"));
    }

    /// Acquires shard `idx`, measuring the wait when contention telemetry
    /// is on: `try_lock` first (uncontended fast path), fall back to a
    /// timed blocking acquisition.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, EcsCache> {
        let Some(mon) = &self.contention else {
            return self.shards[idx].lock();
        };
        match self.shards[idx].try_lock() {
            Some(guard) => {
                mon.record_uncontended();
                guard
            }
            None => {
                let start = std::time::Instant::now();
                let guard = self.shards[idx].lock();
                mon.record_contended(start.elapsed().as_micros() as u64);
                guard
            }
        }
    }

    /// Creates a shared cache configured exactly as [`crate::Resolver::new`]
    /// would configure its private cache for `config` — so a worker pool
    /// sharing this cache caches the same things a single engine would.
    pub fn for_config(config: &ResolverConfig, shards: usize) -> Self {
        Self::with_limits(
            config.compliance,
            config.overload.cache_limits(),
            config.cache_zero_scope,
            shards,
        )
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard owning `qname`.
    fn shard_index(&self, qname: &Name) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h = FxHasher::default();
        qname.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// [`EcsCache::lookup`] on the owning shard.
    pub fn lookup(
        &self,
        qname: &Name,
        qtype: RecordType,
        client: IpAddr,
        now: SimTime,
    ) -> Option<CachedAnswer> {
        self.lock_shard(self.shard_index(qname))
            .lookup(qname, qtype, client, now)
    }

    /// [`EcsCache::insert`] on the owning shard.
    pub fn insert(
        &self,
        qname: Name,
        qtype: RecordType,
        records: Vec<Record>,
        ecs: Option<EcsOption>,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        let idx = self.shard_index(&qname);
        self.lock_shard(idx)
            .insert(qname, qtype, records, ecs, ttl, now)
    }

    /// [`EcsCache::insert_with_rcode`] on the owning shard.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_with_rcode(
        &self,
        qname: Name,
        qtype: RecordType,
        records: Vec<Record>,
        ecs: Option<EcsOption>,
        rcode: Rcode,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        let idx = self.shard_index(&qname);
        self.lock_shard(idx)
            .insert_with_rcode(qname, qtype, records, ecs, rcode, ttl, now)
    }

    /// Live entries across all shards at `now`.
    pub fn len(&self, now: SimTime) -> usize {
        self.shards.iter().map(|s| s.lock().len(now)).sum()
    }

    /// True when every shard is empty at `now`.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
    }

    /// Statistics summed across shards. `max_size` is the sum of per-shard
    /// high-water marks — an upper bound on the true global peak, since the
    /// shards need not have peaked at the same instant.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.hits = total.hits.saturating_add(s.hits);
            total.misses = total.misses.saturating_add(s.misses);
            total.inserts = total.inserts.saturating_add(s.inserts);
            total.max_size = total.max_size.saturating_add(s.max_size);
            total.evictions = total.evictions.saturating_add(s.evictions);
        }
        total
    }

    /// One merged snapshot of every shard's `cache_*` registry, plus the
    /// shard-imbalance gauges (`cache_shard_hits_max`/`_min`,
    /// `cache_shard_entries_max`/`_min`, `cache_shards`): a wide max/min
    /// spread means the qname hash is parking the hot names on a few
    /// shards and their locks become the serialization point. Fold this
    /// exactly once per cache when aggregating worker telemetry.
    pub fn snapshot(&self) -> obs::MetricsSnapshot {
        let mut merged = self.shard_series();
        let mut hits: Vec<u64> = Vec::with_capacity(self.shards.len());
        let mut entries: Vec<u64> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let s = shard.lock().stats();
            hits.push(s.hits);
            entries.push(s.max_size as u64);
        }
        let spread = obs::MetricsRegistry::new();
        spread.gauge("cache_shards").set(self.shards.len() as u64);
        spread
            .gauge("cache_shard_hits_max")
            .set(hits.iter().copied().max().unwrap_or(0));
        spread
            .gauge("cache_shard_hits_min")
            .set(hits.iter().copied().min().unwrap_or(0));
        spread
            .gauge("cache_shard_entries_max")
            .set(entries.iter().copied().max().unwrap_or(0));
        spread
            .gauge("cache_shard_entries_min")
            .set(entries.iter().copied().min().unwrap_or(0));
        merged.merge(&spread.snapshot());
        merged
    }

    /// Every shard's `cache_*` registry merged into one snapshot, without
    /// the shard-imbalance gauges [`SharedEcsCache::snapshot`] adds.
    pub(crate) fn shard_series(&self) -> obs::MetricsSnapshot {
        let mut merged = obs::MetricsSnapshot::default();
        for shard in &self.shards {
            merged.merge(&shard.lock().registry().snapshot());
        }
        merged
    }

    /// Drops entries past their retention horizon in every shard.
    pub fn purge(&self, now: SimTime) {
        for shard in &self.shards {
            shard.lock().purge(now);
        }
    }

    /// Clears every shard (stats survive, as in [`EcsCache::clear`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Rdata;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn a_record(n: &str, ttl: u32, addr: [u8; 4]) -> Record {
        Record::new(
            name(n),
            ttl,
            Rdata::A(Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3])),
        )
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 64, 1, 1));

    #[test]
    fn insert_on_one_handle_serves_lookup_on_another() {
        let cache = Arc::new(SharedEcsCache::new(CacheCompliance::Honor, 8));
        let t0 = SimTime::from_secs(0);
        cache.insert(
            name("www.example.com"),
            RecordType::A,
            vec![a_record("www.example.com", 60, [192, 0, 2, 1])],
            None,
            60,
            t0,
        );
        let other = Arc::clone(&cache);
        let hit = other.lookup(&name("www.example.com"), RecordType::A, CLIENT, t0);
        assert!(hit.is_some());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn names_distribute_across_shards() {
        let cache = SharedEcsCache::new(CacheCompliance::Honor, 4);
        let t0 = SimTime::from_secs(0);
        for i in 0..64 {
            let n = format!("h{i}.example.com");
            cache.insert(
                name(&n),
                RecordType::A,
                vec![a_record(&n, 60, [192, 0, 2, i as u8])],
                None,
                60,
                t0,
            );
        }
        assert_eq!(cache.len(t0), 64);
        // Every shard should have picked up some of the 64 names; a
        // degenerate hash would park them all in one shard.
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.lock().is_empty(t0))
            .count();
        assert!(occupied >= 2, "only {occupied} of 4 shards occupied");
    }

    #[test]
    fn same_name_stays_in_one_shard_for_scope_matching() {
        // Two subnets' entries for one qname must land in the same shard
        // so RFC 7871 scope matching sees both.
        let cache = SharedEcsCache::new(CacheCompliance::Honor, 8);
        let t0 = SimTime::from_secs(0);
        for third in [1u8, 2] {
            let ecs =
                EcsOption::new(IpAddr::V4(Ipv4Addr::new(100, 64, third, 0)), 24).with_scope(24);
            cache.insert(
                name("split.example.com"),
                RecordType::A,
                vec![a_record("split.example.com", 60, [192, 0, 2, third])],
                Some(ecs),
                60,
                t0,
            );
        }
        let with_entries = cache
            .shards
            .iter()
            .filter(|s| !s.lock().is_empty(t0))
            .count();
        assert_eq!(with_entries, 1, "one qname must occupy exactly one shard");
        // Each subnet is served its own scoped entry.
        let hit1 = cache
            .lookup(
                &name("split.example.com"),
                RecordType::A,
                IpAddr::V4(Ipv4Addr::new(100, 64, 1, 9)),
                t0,
            )
            .expect("subnet 1 hit");
        let hit2 = cache
            .lookup(
                &name("split.example.com"),
                RecordType::A,
                IpAddr::V4(Ipv4Addr::new(100, 64, 2, 9)),
                t0,
            )
            .expect("subnet 2 hit");
        assert_ne!(hit1.records, hit2.records);
    }

    #[test]
    fn global_bounds_split_across_shards() {
        let cache = SharedEcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_entries: Some(16),
            },
            true,
            4,
        );
        for s in &cache.shards {
            assert_eq!(s.lock().limits().max_entries, Some(4));
        }
        // Degenerate splits still leave every shard able to hold an entry.
        let tiny = SharedEcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_entries: Some(2),
            },
            true,
            8,
        );
        for s in &tiny.shards {
            assert_eq!(s.lock().limits().max_entries, Some(1));
        }
    }

    #[test]
    fn a_full_cache_holds_no_more_than_its_global_bound() {
        // 5 and 17 do not divide by 4: rounding the split up admitted 8
        // and 20.
        for bound in [5, 16, 17] {
            let cache = SharedEcsCache::with_limits(
                CacheCompliance::Honor,
                CacheLimits {
                    max_entries: Some(bound),
                },
                true,
                4,
            );
            let t0 = SimTime::from_secs(0);
            for i in 0..200 {
                let n = format!("f{i}.example.com");
                cache.insert(
                    name(&n),
                    RecordType::A,
                    vec![a_record(&n, 60, [192, 0, 2, i as u8])],
                    None,
                    60,
                    t0,
                );
                assert!(
                    cache.len(t0) <= bound,
                    "{} entries, bound {bound}",
                    cache.len(t0)
                );
            }
            // Full: every shard sits at its share.
            assert_eq!(cache.len(t0), bound / 4 * 4);
            assert!(cache.stats().evictions > 0);
        }
    }

    #[test]
    fn stats_and_snapshot_aggregate_all_shards() {
        let cache = SharedEcsCache::new(CacheCompliance::Honor, 3);
        let t0 = SimTime::from_secs(0);
        for i in 0..9 {
            let n = format!("m{i}.example.com");
            cache.insert(
                name(&n),
                RecordType::A,
                vec![a_record(&n, 60, [192, 0, 2, i as u8])],
                None,
                60,
                t0,
            );
            cache.lookup(&name(&n), RecordType::A, CLIENT, t0);
        }
        cache.lookup(&name("absent.example.com"), RecordType::A, CLIENT, t0);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 9);
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.misses, 1);
        let snap = cache.snapshot();
        assert_eq!(snap.counter("cache_inserts_total"), Some(9));
        assert_eq!(snap.counter("cache_hits_total"), Some(9));
        assert_eq!(snap.counter("cache_misses_total"), Some(1));
    }

    #[test]
    fn contention_monitor_counts_every_hot_path_acquisition() {
        let reg = obs::MetricsRegistry::new();
        let mut cache = SharedEcsCache::new(CacheCompliance::Honor, 4);
        cache.enable_contention(&reg);
        let t0 = SimTime::from_secs(0);
        cache.insert(
            name("mon.example.com"),
            RecordType::A,
            vec![a_record("mon.example.com", 60, [192, 0, 2, 1])],
            None,
            60,
            t0,
        );
        cache.lookup(&name("mon.example.com"), RecordType::A, CLIENT, t0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock_cache_shard_acquisitions_total"), Some(2));
        // Single-threaded: nothing can contend.
        assert_eq!(snap.counter("lock_cache_shard_contended_total"), Some(0));
    }

    #[test]
    fn snapshot_exposes_shard_imbalance_gauges() {
        let cache = SharedEcsCache::new(CacheCompliance::Honor, 4);
        let t0 = SimTime::from_secs(0);
        for i in 0..16 {
            let n = format!("g{i}.example.com");
            cache.insert(
                name(&n),
                RecordType::A,
                vec![a_record(&n, 60, [192, 0, 2, i as u8])],
                None,
                60,
                t0,
            );
            cache.lookup(&name(&n), RecordType::A, CLIENT, t0);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.gauge("cache_shards"), Some(4));
        let hits_max = snap.gauge("cache_shard_hits_max").unwrap();
        let hits_min = snap.gauge("cache_shard_hits_min").unwrap();
        assert!(hits_max >= hits_min);
        assert!(hits_max >= 1, "some shard served a hit");
        assert!(snap.gauge("cache_shard_entries_max").unwrap() >= 1);
    }

    #[test]
    fn concurrent_workers_share_one_cache() {
        let cache = Arc::new(SharedEcsCache::new(CacheCompliance::Honor, 8));
        let t0 = SimTime::from_secs(0);
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50u8 {
                        let n = format!("c{}.example.com", i % 25);
                        cache.insert(
                            name(&n),
                            RecordType::A,
                            vec![a_record(&n, 60, [192, 0, w, i])],
                            None,
                            60,
                            t0,
                        );
                        cache.lookup(&name(&n), RecordType::A, CLIENT, t0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.inserts, 200, "every insert lands");
        assert_eq!(stats.hits + stats.misses, 200, "every lookup counted");
        assert_eq!(cache.len(t0), 25, "25 distinct names live");
    }
}
