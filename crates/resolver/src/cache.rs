//! The ECS-aware resolver cache (RFC 7871 §7.3) and its deviant variants.
//!
//! Without ECS a cache entry is keyed by `(qname, qtype)` and serves every
//! client. With ECS, each entry additionally carries the *scope prefix* the
//! authoritative returned, and may only answer clients whose address falls
//! inside it — which is exactly why ECS blows up cache size (§7.1) and
//! depresses hit rate (§7.2).
//!
//! The cache never walks itself. Each `(qname, qtype)` list lives in a
//! slot of a slab that stays its own while the list lives, and the list
//! holds the one copy of its key the cache keeps. Beside the lists the
//! cache keeps three things, each adjusted where an entry enters or leaves
//! a list (push, same-scope supersede, expiry, eviction) and nowhere else:
//! the live count; an expiry queue of `(earliest expiry, slot)` items,
//! exactly one per list, so a purge visits the lists that hold something
//! due and no others; and — only when `max_entries` is set — a recency
//! index from last-use tick to slot, whose first item is the eviction
//! victim. DESIGN §3 has the reasoning.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use dns_wire::{EcsOption, IpPrefix, Name, OneVec, Rcode, Record, RecordType};
use netsim::{SimDuration, SimTime};
use rustc_hash::{FxHashMap, FxHasher};

/// How the resolver obeys (or disobeys) scope restrictions — the §6.3
/// classification, as implementable behaviour (the `workload` crate's
/// `COMPLIANCE_TABLE` has how many resolvers each class holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCompliance {
    /// Honor scope exactly as RFC 7871 prescribes, clamping the effective
    /// scope to the source prefix length (and never conveying more than the
    /// policy's maximum prefix upstream). The paper's correct class.
    Honor,
    /// Ignore scope entirely: any cached answer serves any client, as if
    /// the resolver did not understand ECS. The paper's ignore-scope class.
    IgnoreScope,
    /// Impose a maximum cacheable prefix length (the paper's /22-cap class
    /// caps at 22): both the effective scope and the client prefix used
    /// for matching are truncated to this length.
    CapPrefix(u8),
}

/// Statistics the §7 analyses read. All counters update with saturating
/// arithmetic, so pathological workloads degrade to pinned counters rather
/// than panicking in debug builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Inserts performed.
    pub inserts: u64,
    /// High-water mark of live entries (checked on each insert after
    /// purging expired entries and enforcing the capacity bound).
    pub max_size: usize,
    /// Entries evicted by the max-entries bound.
    pub evictions: u64,
}

/// Resource limits for [`EcsCache`]. The default is fully unbounded — the
/// exact behaviour of the unbounded cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum live entries; `None` = unbounded.
    pub max_entries: Option<usize>,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Clients inside this prefix may be served from the entry. A /0
    /// prefix (scope 0 or non-ECS answer) serves everyone.
    scope: IpPrefix,
    records: Vec<Record>,
    /// ECS option of the stored response (None for non-ECS answers).
    ecs: Option<EcsOption>,
    /// Response code (NoError for positive entries; NxDomain for RFC 2308
    /// negative entries).
    rcode: Rcode,
    expires: SimTime,
    /// Monotonic recency tick, unique per touch — LRU eviction picks the
    /// minimum, which is therefore deterministic regardless of map order.
    last_used: u64,
}

/// What a cache lookup returns on a hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// The answer records, TTLs adjusted to the remaining lifetime (empty
    /// for negative entries).
    pub records: Vec<Record>,
    /// The stored ECS option, if the response carried one.
    pub ecs: Option<EcsOption>,
    /// The stored response code.
    pub rcode: Rcode,
}

/// Registry-backed handles behind [`CacheStats`]. The registry is the
/// single source of truth; [`EcsCache::stats`] reconstructs the legacy
/// struct from counter loads, so existing readers see identical values.
#[derive(Debug)]
struct CacheMetrics {
    registry: obs::MetricsRegistry,
    hits: obs::Counter,
    misses: obs::Counter,
    inserts: obs::Counter,
    /// High-water mark of live entries.
    max_size: obs::Gauge,
    evictions: obs::Counter,
}

impl CacheMetrics {
    fn new() -> Self {
        let registry = obs::MetricsRegistry::new();
        CacheMetrics {
            hits: registry.counter("cache_hits_total"),
            misses: registry.counter("cache_misses_total"),
            inserts: registry.counter("cache_inserts_total"),
            max_size: registry.gauge("cache_max_size"),
            evictions: registry.counter("cache_evictions_total"),
            registry,
        }
    }
}

/// What the entry lists are keyed by.
type Key = (Name, RecordType);

/// Where a list lives in [`Lists::slab`].
type Slot = u32;

/// Every entry cached for one `(qname, qtype)`, in insertion order (which
/// lookups rely on: the first matching entry answers).
#[derive(Debug)]
struct NameList {
    /// The list's key: the one copy of it the cache holds.
    key: Key,
    /// `key`'s hash, under which [`Lists::heads`] leads to this list.
    hash: u64,
    /// The next list whose key has the same hash: `None` but after a
    /// 64-bit collision.
    next: Option<Slot>,
    /// The first entry is inline, so a name asked once costs no
    /// allocation of its own.
    entries: OneVec<Entry>,
    /// The horizon this list is queued under in [`Index::expiry`]. Never
    /// later than its earliest entry's, so the list is visited by the time
    /// anything in it falls due; it may be earlier when that entry has left
    /// since, which costs one visit that finds nothing.
    queued: SimTime,
}

impl NameList {
    /// `retain` that tells `index` about every entry it drops.
    fn retain(&mut self, index: &mut Index, keep: impl Fn(&Entry) -> bool) {
        self.entries.retain(|e| {
            let kept = keep(e);
            if !kept {
                index.leave(e);
            }
            kept
        });
    }
}

/// The lists, each in a slot that is its own from its first entry to its
/// last, found by key through the key's hash.
#[derive(Debug, Default)]
struct Lists {
    /// Lists by slot; a vacated slot is `None` until `free` hands it out.
    slab: Vec<Option<NameList>>,
    free: Vec<Slot>,
    /// Key hash → the first slot of the chain of lists whose keys hash so.
    heads: FxHashMap<u64, Slot>,
}

impl Lists {
    /// The Fx hash of `(qname, qtype)`: the one the shards are picked by.
    fn hash(qname: &Name, qtype: RecordType) -> u64 {
        let mut h = FxHasher::default();
        (qname, qtype).hash(&mut h);
        h.finish()
    }

    /// Live lists.
    fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    fn list(&self, slot: Slot) -> &NameList {
        self.slab[slot as usize].as_ref().expect("a live slot")
    }

    fn list_mut(&mut self, slot: Slot) -> &mut NameList {
        self.slab[slot as usize].as_mut().expect("a live slot")
    }

    /// The slot of the list of `(qname, qtype)`, if there is one.
    fn find(&self, hash: u64, qname: &Name, qtype: RecordType) -> Option<Slot> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(slot) = at {
            let list = self.list(slot);
            if list.key.1 == qtype && list.key.0 == *qname {
                return Some(slot);
            }
            at = list.next;
        }
        None
    }

    /// Gives a new, empty list for `key` (hashed to `hash`) a slot.
    fn open(&mut self, key: Key, hash: u64, queued: SimTime) -> Slot {
        let slot = self.free.pop().unwrap_or(self.slab.len() as Slot);
        let list = NameList {
            key,
            hash,
            next: self.heads.insert(hash, slot),
            entries: OneVec::new(),
            queued,
        };
        match self.slab.get_mut(slot as usize) {
            Some(vacant) => *vacant = Some(list),
            None => self.slab.push(Some(list)),
        }
        slot
    }

    /// Vacates `slot`, unlinking its list from its hash chain.
    fn close(&mut self, slot: Slot) -> NameList {
        let list = self.slab[slot as usize].take().expect("a live slot");
        if self.heads[&list.hash] == slot {
            match list.next {
                Some(next) => self.heads.insert(list.hash, next),
                None => self.heads.remove(&list.hash),
            };
        } else {
            let mut at = self.heads[&list.hash];
            while self.list(at).next != Some(slot) {
                at = self
                    .list(at)
                    .next
                    .expect("a chained slot has a predecessor");
            }
            self.list_mut(at).next = list.next;
        }
        self.free.push(slot);
        list
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.heads.clear();
    }
}

/// What the cache knows about its entries without looking at them.
#[derive(Debug)]
struct Index {
    /// Entries across all lists.
    live: usize,
    /// One item per list, under [`NameList::queued`]: removed exactly when
    /// the list goes or is re-queued, so it is as long as the slab is
    /// occupied.
    expiry: BTreeSet<(SimTime, Slot)>,
    /// `last_used` tick → slot of the list holding that entry. Ticks are
    /// unique and only grow, so the first item is the entry a scan for the
    /// minimum tick would find. `None` when `max_entries` is unset: nothing
    /// ever asks for the victim then, and a hit pays nothing to maintain it.
    recency: Option<BTreeMap<u64, Slot>>,
}

impl Index {
    /// The index of an empty cache, with a recency order if it is `bounded`.
    fn new(bounded: bool) -> Self {
        Index {
            live: 0,
            expiry: BTreeSet::new(),
            recency: bounded.then(BTreeMap::new),
        }
    }

    fn enter(&mut self, entry: &Entry, slot: Slot) {
        self.live += 1;
        if let Some(recency) = &mut self.recency {
            recency.insert(entry.last_used, slot);
        }
    }

    fn leave(&mut self, entry: &Entry) {
        self.live -= 1;
        if let Some(recency) = &mut self.recency {
            recency.remove(&entry.last_used);
        }
    }

    /// Stamps `entry` as used at `tick`.
    fn touch(&mut self, entry: &mut Entry, tick: u64) {
        if let Some(recency) = &mut self.recency {
            if let Some(slot) = recency.remove(&entry.last_used) {
                recency.insert(tick, slot);
            }
        }
        entry.last_used = tick;
    }
}

/// The cache proper.
#[derive(Debug)]
pub struct EcsCache {
    /// Found through Fx hashes, the hash [`crate::SharedEcsCache`] picks
    /// the shard by: a name is one `write` of its folded bytes either way.
    lists: Lists,
    index: Index,
    compliance: CacheCompliance,
    /// When false, responses with scope 0 are not cached at all — the
    /// misconfigured-resolver behaviour from §6.3's last bullet.
    pub cache_zero_scope: bool,
    stats: CacheMetrics,
    limits: CacheLimits,
    /// Monotonic touch counter feeding `Entry::last_used`.
    tick: u64,
}

impl EcsCache {
    /// Creates an empty cache with the given compliance mode.
    pub fn new(compliance: CacheCompliance) -> Self {
        Self::with_limits(compliance, CacheLimits::default())
    }

    /// Creates an empty cache with explicit resource limits.
    pub fn with_limits(compliance: CacheCompliance, limits: CacheLimits) -> Self {
        EcsCache {
            lists: Lists::default(),
            index: Index::new(limits.max_entries.is_some()),
            compliance,
            cache_zero_scope: true,
            stats: CacheMetrics::new(),
            limits,
            tick: 0,
        }
    }

    /// The compliance mode.
    pub fn compliance(&self) -> CacheCompliance {
        self.compliance
    }

    /// The resource limits in force.
    pub fn limits(&self) -> &CacheLimits {
        &self.limits
    }

    /// Current statistics, reconstructed from the metrics registry (which
    /// is the single source of truth behind the legacy struct API — both
    /// read the same values).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            inserts: self.stats.inserts.get(),
            max_size: self.stats.max_size.get() as usize,
            evictions: self.stats.evictions.get(),
        }
    }

    /// The cache's private metrics registry (`cache_*` series).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.stats.registry
    }

    /// Number of live entries after purging expired ones.
    pub fn len(&mut self, now: SimTime) -> usize {
        self.purge(now);
        self.index.live
    }

    /// True when empty.
    pub fn is_empty(&mut self, now: SimTime) -> bool {
        self.len(now) == 0
    }

    /// Looks up an answer for `client` (the address whose location the
    /// answer must fit). Returns the cached answer on a hit. Expired
    /// entries never match.
    pub fn lookup(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        client: IpAddr,
        now: SimTime,
    ) -> Option<CachedAnswer> {
        let compliance = self.compliance;
        self.tick += 1;
        let tick = self.tick;
        let index = &mut self.index;
        let found = self
            .lists
            .find(Lists::hash(qname, qtype), qname, qtype)
            .and_then(|slot| {
                self.lists
                    .list_mut(slot)
                    .entries
                    .iter_mut()
                    .filter(|e| e.expires > now)
                    .find(|e| scope_matches(compliance, e.scope, client))
                    .map(|e| {
                        index.touch(e, tick);
                        CachedAnswer {
                            records: adjust_ttls(&e.records, e.expires, now),
                            ecs: e.ecs,
                            rcode: e.rcode,
                        }
                    })
            });
        match found {
            Some(hit) => {
                self.stats.hits.inc();
                Some(hit)
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Inserts a positive response.
    ///
    /// * `ecs` is the ECS option from the response (None when the
    ///   authoritative ignored or lacked ECS) — its *scope* controls reuse;
    /// * `ttl` is the response TTL in seconds.
    ///
    /// Returns `true` if the response was actually cached.
    pub fn insert(
        &mut self,
        qname: Name,
        qtype: RecordType,
        records: Vec<Record>,
        ecs: Option<EcsOption>,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        self.insert_with_rcode(qname, qtype, records, ecs, Rcode::NoError, ttl, now)
    }

    /// Inserts a response with an explicit rcode — used for RFC 2308
    /// negative caching (NXDOMAIN / NODATA entries with empty records).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_with_rcode(
        &mut self,
        qname: Name,
        qtype: RecordType,
        records: Vec<Record>,
        ecs: Option<EcsOption>,
        rcode: Rcode,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        let scope_prefix = match &ecs {
            None => any_prefix_v4(),
            Some(opt) => {
                let effective = match self.compliance {
                    // RFC: scope may not exceed source; clamp.
                    CacheCompliance::Honor => opt.scope_prefix_len().min(opt.source_prefix_len()),
                    // Scope is ignored at lookup; store it anyway (purely
                    // informational — every lookup matches).
                    CacheCompliance::IgnoreScope => {
                        opt.scope_prefix_len().min(opt.source_prefix_len())
                    }
                    CacheCompliance::CapPrefix(cap) => {
                        opt.scope_prefix_len().min(opt.source_prefix_len()).min(cap)
                    }
                };
                if effective == 0 && !self.cache_zero_scope {
                    return false;
                }
                opt.source_prefix().truncate(effective)
            }
        };
        self.purge(now);
        self.tick += 1;
        let entry = Entry {
            scope: scope_prefix,
            records,
            ecs,
            rcode,
            expires: now + SimDuration::from_secs(ttl as u64),
            last_used: self.tick,
        };
        let hash = Lists::hash(&qname, qtype);
        let index = &mut self.index;
        let slot = match self.lists.find(hash, &qname, qtype) {
            Some(slot) => {
                let list = self.lists.list_mut(slot);
                if entry.expires < list.queued {
                    // Due before anything the list holds: its item moves up.
                    index.expiry.remove(&(list.queued, slot));
                    index.expiry.insert((entry.expires, slot));
                    list.queued = entry.expires;
                }
                slot
            }
            None => {
                let slot = self.lists.open((qname, qtype), hash, entry.expires);
                index.expiry.insert((entry.expires, slot));
                slot
            }
        };
        index.enter(&entry, slot);
        let list = self.lists.list_mut(slot);
        // A fresh answer supersedes any entry with the identical scope
        // prefix.
        list.retain(index, |e| e.scope != scope_prefix);
        list.entries.push(entry);
        self.stats.inserts.inc();
        self.enforce_bound();
        self.stats.max_size.set_max(self.index.live as u64);
        self.debug_assert_index_sizes();
        true
    }

    /// Removes expired entries. Visits only the lists queued at or before
    /// `now`; when nothing is due that is one look at the queue's first
    /// item.
    pub fn purge(&mut self, now: SimTime) {
        while self
            .index
            .expiry
            .first()
            .is_some_and(|(due, _)| *due <= now)
        {
            let (_, slot) = self.index.expiry.pop_first().expect("first() just saw it");
            let list = self.lists.list_mut(slot);
            list.retain(&mut self.index, |e| e.expires > now);
            match list.entries.iter().map(|e| e.expires).min() {
                Some(earliest) => {
                    list.queued = earliest;
                    self.index.expiry.insert((earliest, slot));
                }
                None => {
                    self.lists.close(slot);
                }
            }
        }
        self.debug_assert_index_sizes();
    }

    /// Clears everything (stats survive).
    pub fn clear(&mut self) {
        self.lists.clear();
        self.index = Index::new(self.index.recency.is_some());
    }

    /// Evicts least-recently-used entries until the entry bound holds.
    fn enforce_bound(&mut self) {
        loop {
            let over_entries = self.limits.max_entries.is_some_and(|m| self.index.live > m);
            if !over_entries || !self.evict_lru() {
                return;
            }
        }
    }

    /// Removes the globally least-recently-used entry: the first item of
    /// the recency index. Deterministic: every touch takes a unique
    /// monotonic tick, so the minimum is unique and independent of
    /// `HashMap` iteration order.
    fn evict_lru(&mut self) -> bool {
        let Some((tick, slot)) = self.index.recency.as_mut().and_then(BTreeMap::pop_first) else {
            return false;
        };
        let list = self.lists.list_mut(slot);
        let idx = list
            .entries
            .iter()
            .position(|e| e.last_used == tick)
            .expect("an indexed tick has an entry");
        // The recency item is already gone: only the count is left to
        // adjust.
        list.entries.remove(idx);
        self.index.live -= 1;
        self.stats.evictions.inc();
        if list.entries.is_empty() {
            let queued = list.queued;
            self.lists.close(slot);
            self.index.expiry.remove(&(queued, slot));
        }
        true
    }

    /// Both indexes are exactly as long as what they index, whatever the
    /// operation just did (checked after every mutation in debug builds).
    fn debug_assert_index_sizes(&self) {
        debug_assert_eq!(self.index.expiry.len(), self.lists.len());
        if let Some(recency) = &self.index.recency {
            debug_assert_eq!(recency.len(), self.index.live);
        }
    }
}

/// Scope admission of a lookup.
fn scope_matches(compliance: CacheCompliance, scope: IpPrefix, client: IpAddr) -> bool {
    match compliance {
        CacheCompliance::IgnoreScope => true,
        // A zero-length scope means "valid for every client", across
        // address families.
        CacheCompliance::Honor => scope.is_default_route() || scope.contains(client),
        CacheCompliance::CapPrefix(cap) => {
            let widened = scope.truncate(cap);
            widened.is_default_route() || widened.contains(client)
        }
    }
}

/// Remaining-TTL adjustment for served answers.
fn adjust_ttls(records: &[Record], expires: SimTime, now: SimTime) -> Vec<Record> {
    let remaining = expires.since(now).as_secs() as u32;
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.ttl = r.ttl.min(remaining);
            r
        })
        .collect()
}

/// The match-everything prefix used for non-ECS entries.
fn any_prefix_v4() -> IpPrefix {
    IpPrefix::v4(std::net::Ipv4Addr::UNSPECIFIED, 0).expect("0 <= 32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Rdata;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn rec(s: &str, ttl: u32) -> Vec<Record> {
        vec![Record::new(
            name(s),
            ttl,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 1)),
        )]
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn scope_24_restricts_to_subnet() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        // Same /24: hit.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.200"), t(1))
            .is_some());
        // Different /24: miss.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.3.1"), t(1))
            .is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn scope_16_serves_whole_slash16() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(16);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.99.1"), t(1))
            .is_some());
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.1.0.1"), t(1))
            .is_none());
    }

    #[test]
    fn scope_zero_serves_everyone() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(0);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("8.8.8.8"), t(1))
            .is_some());
    }

    #[test]
    fn non_ecs_answers_serve_everyone() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            None,
            60,
            t(0),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("1.1.1.1"), t(1))
            .is_some());
    }

    #[test]
    fn scope_exceeding_source_is_clamped() {
        // RFC 7871: a response whose scope is longer than the query's source
        // must be treated as scope == source for caching.
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 0, 0), 16).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        // Everything in the /16 hits, even outside what a /24 scope would allow.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.77.1"), t(1))
            .is_some());
    }

    #[test]
    fn multiple_scoped_entries_coexist() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        for third in [1u8, 2, 3] {
            let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, third, 0), 24).with_scope(24);
            c.insert(
                name("a.example"),
                RecordType::A,
                rec("a.example", 60),
                Some(ecs),
                60,
                t(0),
            );
        }
        assert_eq!(c.len(t(1)), 3);
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.9"), t(1))
            .is_some());
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.9.9"), t(1))
            .is_none());
        assert_eq!(c.stats().max_size, 3);
    }

    #[test]
    fn same_scope_replaces() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(5),
        );
        assert_eq!(c.len(t(6)), 1);
    }

    #[test]
    fn entries_expire_at_ttl() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 20),
            Some(ecs),
            20,
            t(0),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.1"), t(19))
            .is_some());
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.1"), t(20))
            .is_none());
        assert_eq!(c.len(t(20)), 0);
    }

    #[test]
    fn served_ttl_decreases() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        let answer = c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.1"), t(45))
            .unwrap();
        assert_eq!(answer.records[0].ttl, 15);
        assert_eq!(answer.rcode, Rcode::NoError);
    }

    #[test]
    fn ignore_scope_serves_any_client() {
        let mut c = EcsCache::new(CacheCompliance::IgnoreScope);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        // A client on the other side of the world still hits.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("8.8.8.8"), t(1))
            .is_some());
    }

    #[test]
    fn cap_prefix_widens_match() {
        let mut c = EcsCache::new(CacheCompliance::CapPrefix(22));
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        // 192.0.3.x is outside the /24 but inside the /22 (192.0.0.0/22).
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.3.1"), t(1))
            .is_some());
        // 192.0.4.x is outside the /22.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.4.1"), t(1))
            .is_none());
    }

    #[test]
    fn zero_scope_not_cached_when_disabled() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        c.cache_zero_scope = false;
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(0);
        assert!(!c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0)
        ));
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.1"), t(1))
            .is_none());
        // Non-zero scope still caches.
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        assert!(c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0)
        ));
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(0);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        c.lookup(&name("a.example"), RecordType::A, ip("1.1.1.1"), t(1));
        c.lookup(&name("b.example"), RecordType::A, ip("1.1.1.1"), t(1));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn qtype_distinguishes_entries() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            None,
            60,
            t(0),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::Aaaa, ip("1.1.1.1"), t(1))
            .is_none());
    }

    #[test]
    fn clear_resets_entries_not_stats() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            None,
            60,
            t(0),
        );
        c.lookup(&name("a.example"), RecordType::A, ip("1.1.1.1"), t(1));
        c.clear();
        assert_eq!(c.len(t(1)), 0);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn v6_scopes_work() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v6("2001:db8:1:2::".parse().unwrap(), 56).with_scope(48);
        c.insert(
            name("a.example"),
            RecordType::Aaaa,
            rec("a.example", 60),
            Some(ecs),
            60,
            t(0),
        );
        assert!(c
            .lookup(
                &name("a.example"),
                RecordType::Aaaa,
                ip("2001:db8:1:ffff::1"),
                t(1)
            )
            .is_some());
        assert!(c
            .lookup(
                &name("a.example"),
                RecordType::Aaaa,
                ip("2001:db8:2::1"),
                t(1)
            )
            .is_none());
    }

    #[test]
    fn max_size_high_water_mark() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        for third in 0..10u8 {
            let ecs = EcsOption::from_v4(Ipv4Addr::new(10, 0, third, 0), 24).with_scope(24);
            // Insert at staggered times with TTL 20 so earlier entries
            // expire as later ones arrive.
            c.insert(
                name("a.example"),
                RecordType::A,
                rec("a.example", 20),
                Some(ecs),
                20,
                t(third as u64 * 10),
            );
        }
        // At most two entries alive at once (20s TTL, 10s spacing).
        assert_eq!(c.stats().max_size, 2);
        assert_eq!(c.stats().inserts, 10);
    }
}

#[cfg(test)]
mod negative_cache_tests {
    use super::*;
    use netsim::SimTime;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn negative_entries_roundtrip() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        c.insert_with_rcode(
            name("gone.example"),
            RecordType::A,
            Vec::new(),
            None,
            Rcode::NxDomain,
            60,
            t(0),
        );
        let hit = c
            .lookup(
                &name("gone.example"),
                RecordType::A,
                "1.2.3.4".parse().unwrap(),
                t(1),
            )
            .unwrap();
        assert_eq!(hit.rcode, Rcode::NxDomain);
        assert!(hit.records.is_empty());
        // Expires like any entry.
        assert!(c
            .lookup(
                &name("gone.example"),
                RecordType::A,
                "1.2.3.4".parse().unwrap(),
                t(61)
            )
            .is_none());
    }

    #[test]
    fn scoped_negative_entries_respect_scope() {
        let mut c = EcsCache::new(CacheCompliance::Honor);
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(24);
        c.insert_with_rcode(
            name("gone.example"),
            RecordType::A,
            Vec::new(),
            Some(ecs),
            Rcode::NxDomain,
            60,
            t(0),
        );
        assert!(c
            .lookup(
                &name("gone.example"),
                RecordType::A,
                "192.0.2.9".parse().unwrap(),
                t(1)
            )
            .is_some());
        assert!(c
            .lookup(
                &name("gone.example"),
                RecordType::A,
                "192.0.3.9".parse().unwrap(),
                t(1)
            )
            .is_none());
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use dns_wire::Rdata;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn rec(s: &str, ttl: u32) -> Vec<Record> {
        vec![Record::new(
            name(s),
            ttl,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 1)),
        )]
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn scoped(third: u8) -> EcsOption {
        EcsOption::from_v4(Ipv4Addr::new(192, 0, third, 0), 24).with_scope(24)
    }

    fn bounded(max_entries: usize) -> EcsCache {
        EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_entries: Some(max_entries),
            },
        )
    }

    #[test]
    fn entry_bound_is_never_exceeded() {
        let mut c = bounded(3);
        for third in 0..20u8 {
            c.insert(
                name("a.example"),
                RecordType::A,
                rec("a.example", 600),
                Some(scoped(third)),
                600,
                t(third as u64),
            );
            assert!(c.len(t(third as u64)) <= 3);
        }
        assert_eq!(c.stats().max_size, 3);
        assert_eq!(c.stats().evictions, 17);
    }

    #[test]
    fn eviction_is_lru_and_touch_refreshes() {
        let mut c = bounded(2);
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 600),
            Some(scoped(1)),
            600,
            t(0),
        );
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 600),
            Some(scoped(2)),
            600,
            t(1),
        );
        // Touch the /24 for .1 so .2 becomes the LRU victim.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.1.9"), t(2))
            .is_some());
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 600),
            Some(scoped(3)),
            600,
            t(3),
        );
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.1.9"), t(4))
            .is_some());
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.9"), t(4))
            .is_none());
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.3.9"), t(4))
            .is_some());
    }

    #[test]
    fn unbounded_default_matches_plain_cache() {
        // Pinned regression: with default limits the bounded code path must
        // reproduce the unbounded cache's observable behaviour exactly.
        let mut plain = EcsCache::new(CacheCompliance::Honor);
        let mut limited = EcsCache::with_limits(CacheCompliance::Honor, CacheLimits::default());
        for c in [&mut plain, &mut limited] {
            for third in 0..10u8 {
                c.insert(
                    name("a.example"),
                    RecordType::A,
                    rec("a.example", 20),
                    Some(scoped(third)),
                    20,
                    t(third as u64 * 10),
                );
                c.lookup(
                    &name("a.example"),
                    RecordType::A,
                    ip("192.0.1.77"),
                    t(third as u64 * 10),
                );
            }
        }
        assert_eq!(plain.stats(), limited.stats());
        assert_eq!(plain.len(t(95)), limited.len(t(95)));
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    impl EcsCache {
        /// Walks every list and holds the live count, the expiry queue and
        /// the recency index to what is actually there.
        fn assert_indexes_describe_the_lists(&self) {
            let mut live = 0;
            let slab = &self.lists.slab;
            for (slot, list) in slab
                .iter()
                .enumerate()
                .filter_map(|(i, l)| Some((i as Slot, l.as_ref()?)))
            {
                assert!(!list.entries.is_empty(), "an emptied list keeps its slot");
                let (name, qtype) = &list.key;
                assert_eq!(list.hash, Lists::hash(name, *qtype));
                assert_eq!(self.lists.find(list.hash, name, *qtype), Some(slot));
                assert!(self.index.expiry.contains(&(list.queued, slot)));
                for e in list.entries.iter() {
                    assert!(list.queued <= e.expires);
                    live += 1;
                    if let Some(recency) = &self.index.recency {
                        assert_eq!(recency.get(&e.last_used), Some(&slot));
                    }
                }
            }
            assert_eq!(self.index.live, live);
            // Every vacated slot is free exactly once, and the table leads
            // only to live lists.
            let vacant = slab.iter().filter(|l| l.is_none()).count();
            let mut free = self.lists.free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!((free.len(), self.lists.free.len()), (vacant, vacant));
            assert!(free.iter().all(|&s| slab[s as usize].is_none()));
            assert!(self
                .lists
                .heads
                .values()
                .all(|&s| slab[s as usize].is_some()));
            // One queue item per list and one recency item per entry: no
            // garbage to compact, nothing left behind by a removal.
            assert_eq!(self.index.expiry.len(), self.lists.len());
            let bounded = self.limits.max_entries.is_some();
            assert_eq!(self.index.recency.is_some(), bounded);
            let indexed = self.index.recency.as_ref().map_or(0, BTreeMap::len);
            assert_eq!(indexed, if bounded { live } else { 0 });
        }
    }

    /// Lists whose keys hash alike share a chain: each is found, and
    /// closing any of them, head, middle or tail, leaves the others found.
    #[test]
    fn lists_sharing_a_hash_are_found_and_unlinked_in_any_order() {
        let key = |i: u8| {
            (
                Name::from_ascii(&format!("n{i}.example")).unwrap(),
                RecordType::A,
            )
        };
        for order in [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]] {
            let mut lists = Lists::default();
            let slots: Vec<Slot> = (0..3)
                .map(|i| lists.open(key(i), 7, SimTime::ZERO))
                .collect();
            let mut open = [true; 3];
            for gone in order {
                for i in 0..3u8 {
                    let (name, qtype) = key(i);
                    let found = lists.find(7, &name, qtype);
                    assert_eq!(found, open[i as usize].then_some(slots[i as usize]));
                }
                assert_eq!(lists.close(slots[gone]).key, key(gone as u8));
                open[gone] = false;
            }
            assert!(lists.heads.is_empty() && lists.len() == 0);
            // A freed slot is the next one handed out.
            assert_eq!(lists.open(key(9), 7, SimTime::ZERO), slots[order[2]]);
        }
    }

    #[test]
    fn indexes_stay_exact_through_random_operations_and_empty_on_clear() {
        let names =
            ["a.example", "b.example", "www.cdn.example"].map(|n| Name::from_ascii(n).unwrap());
        for max_entries in [None, Some(5)] {
            let limits = CacheLimits { max_entries };
            for seed in 0..24 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut c = EcsCache::with_limits(CacheCompliance::Honor, limits.clone());
                let mut now = SimTime::ZERO;
                for _ in 0..250 {
                    now +=
                        SimDuration::from_micros([0, 1, 400_000, 3_000_000][rng.gen_range(0..4)]);
                    let name = &names[rng.gen_range(0..names.len())];
                    let net = Ipv4Addr::new(10, 0, rng.gen_range(0..6), 0);
                    match rng.gen_range(0..10) {
                        0..=4 => {
                            let ecs = EcsOption::from_v4(net, 24)
                                .with_scope([0, 16, 24][rng.gen_range(0..3)]);
                            let ttl = [0, 1, 3, 10, 200][rng.gen_range(0..5)];
                            c.insert(name.clone(), RecordType::A, Vec::new(), Some(ecs), ttl, now);
                        }
                        5..=7 => drop(c.lookup(name, RecordType::A, net.into(), now)),
                        8 => c.purge(now),
                        _ => {
                            c.clear();
                            assert!(c.index.expiry.is_empty());
                            assert!(c.index.recency.as_ref().is_none_or(BTreeMap::is_empty));
                        }
                    }
                    c.assert_indexes_describe_the_lists();
                }
                assert!(c.stats().inserts > 50 && c.stats().hits > 0);
            }
        }
    }
}
