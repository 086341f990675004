//! The ECS-aware resolver cache (RFC 7871 §7.3) and its deviant variants.
//!
//! Without ECS a cache entry is keyed by `(qname, qtype)` and serves every
//! client. With ECS, each entry additionally carries the *scope prefix* the
//! authoritative returned, and may only answer clients whose address falls
//! inside it — which is exactly why ECS blows up cache size (§7.1) and
//! depresses hit rate (§7.2).
//!
//! The cache never walks itself. Beside the entry lists it keeps three
//! things, each adjusted where an entry enters or leaves a list (push,
//! same-scope supersede, per-name cap, expiry, eviction) and nowhere else:
//! the live count and byte total; an expiry queue ordered by retention
//! horizon with exactly one item per `(qname, qtype)` list, so a purge
//! visits the lists that hold something due and no others; and — only
//! when a global bound is set — a recency index ordered by last-use tick,
//! whose first item is the eviction victim. DESIGN §3 has the reasoning.

use std::borrow::Borrow;
use std::collections::hash_map::Entry as Slot;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use dns_wire::{EcsOption, IpPrefix, Name, Rcode, Record, RecordType};
use netsim::{SimDuration, SimTime};
use rustc_hash::FxHashMap;

/// How the resolver obeys (or disobeys) scope restrictions — the §6.3
/// classification, as implementable behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCompliance {
    /// Honor scope exactly as RFC 7871 prescribes, clamping the effective
    /// scope to the source prefix length (and never conveying more than the
    /// policy's maximum prefix upstream). The paper's 76 correct resolvers.
    Honor,
    /// Ignore scope entirely: any cached answer serves any client, as if
    /// the resolver did not understand ECS. The paper's 103 resolvers.
    IgnoreScope,
    /// Impose a maximum cacheable prefix length (the paper found 8
    /// resolvers capping at 22): both the effective scope and the client
    /// prefix used for matching are truncated to this length.
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
    /// Entries evicted by the global max-entries / max-bytes bound.
    pub evictions: u64,
    /// Entries evicted by the per-name ECS-entry cap.
    pub per_name_evictions: u64,
    /// Expired entries served under the RFC 8767 stale budget.
    pub stale_hits: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Resource limits for [`EcsCache`]. The default is fully unbounded with
/// stale retention off — the exact behaviour of the unbounded cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum live entries; `None` = unbounded.
    pub max_entries: Option<usize>,
    /// Approximate maximum resident bytes; `None` = unbounded.
    pub max_bytes: Option<usize>,
    /// Maximum entries per (qname, qtype) list; `None` = unbounded.
    pub per_name_cap: Option<usize>,
    /// RFC 8767 retention: expired entries stay resident this long past
    /// expiry, visible only to [`EcsCache::lookup_stale`]. Zero disables
    /// retention (expired entries purge immediately, as before).
    pub stale_ttl: SimDuration,
}

impl CacheLimits {
    /// True when stale retention is on.
    pub fn serve_stale(&self) -> bool {
        self.stale_ttl > SimDuration::ZERO
    }
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
    /// Approximate resident footprint, fixed at insert.
    bytes: usize,
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
    per_name_evictions: obs::Counter,
    stale_hits: obs::Counter,
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
            per_name_evictions: registry.counter("cache_per_name_evictions_total"),
            stale_hits: registry.counter("cache_stale_hits_total"),
            registry,
        }
    }
}

/// What the entry lists are keyed by.
type Key = (Name, RecordType);

/// A [`Key`] seen through a borrowed name. The map is asked for
/// `&dyn KeyRef`, so a lookup hashes and compares the caller's `&Name`
/// where it lies instead of cloning it into an owned key first. Both
/// implementors hash and compare as the same `(name, qtype)` pair, which is
/// the agreement [`Borrow`] demands.
trait KeyRef {
    fn key(&self) -> (&Name, RecordType);
}

impl KeyRef for Key {
    fn key(&self) -> (&Name, RecordType) {
        (&self.0, self.1)
    }
}

impl KeyRef for (&Name, RecordType) {
    fn key(&self) -> (&Name, RecordType) {
        *self
    }
}

impl<'a> Borrow<dyn KeyRef + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyRef + 'a) {
        self
    }
}

impl Hash for dyn KeyRef + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for dyn KeyRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn KeyRef + '_ {}

/// Every entry cached for one `(qname, qtype)`, in insertion order (which
/// lookups rely on: the first matching entry answers).
#[derive(Debug)]
struct NameList {
    entries: Vec<Entry>,
    /// The horizon this list is queued under in [`Index::expiry`]. Never
    /// later than its earliest entry's, so the list is visited by the time
    /// anything in it falls due; it may be earlier when that entry has left
    /// since, which costs one visit that finds nothing.
    queued: SimTime,
}

impl NameList {
    /// `Vec::retain` that tells `index` about every entry it drops.
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

/// What the cache knows about its entries without looking at them.
#[derive(Debug)]
struct Index {
    /// Entries across all lists.
    live: usize,
    /// Sum of their [`Entry::bytes`].
    bytes: usize,
    /// One item per list, under [`NameList::queued`]: removed exactly when
    /// the list goes or is re-queued, so it is as long as the list map.
    expiry: BTreeSet<(SimTime, Key)>,
    /// `last_used` tick → key of the list holding that entry. Ticks are
    /// unique and only grow, so the first item is the entry a scan for the
    /// minimum tick would find. `None` when no global bound is set: nothing
    /// ever asks for the victim then, and a hit pays nothing to maintain it.
    recency: Option<BTreeMap<u64, Key>>,
}

impl Index {
    /// The index of an empty cache, with a recency order if it is `bounded`.
    fn new(bounded: bool) -> Self {
        Index {
            live: 0,
            bytes: 0,
            expiry: BTreeSet::new(),
            recency: bounded.then(BTreeMap::new),
        }
    }

    fn enter(&mut self, entry: &Entry, key: &Key) {
        self.live += 1;
        self.bytes += entry.bytes;
        if let Some(recency) = &mut self.recency {
            recency.insert(entry.last_used, key.clone());
        }
    }

    fn leave(&mut self, entry: &Entry) {
        self.uncount(entry);
        if let Some(recency) = &mut self.recency {
            recency.remove(&entry.last_used);
        }
    }

    /// The counting half of [`Index::leave`], for an entry whose recency
    /// item is already gone.
    fn uncount(&mut self, entry: &Entry) {
        self.live -= 1;
        self.bytes -= entry.bytes;
    }

    /// Stamps `entry` as used at `tick`.
    fn touch(&mut self, entry: &mut Entry, tick: u64) {
        if let Some(recency) = &mut self.recency {
            if let Some(key) = recency.remove(&entry.last_used) {
                recency.insert(tick, key);
            }
        }
        entry.last_used = tick;
    }
}

/// The cache proper.
#[derive(Debug)]
pub struct EcsCache {
    /// Hashed with Fx, the hash [`crate::SharedEcsCache`] picks the shard
    /// by: a name is one `write` of its folded bytes either way.
    entries: FxHashMap<Key, NameList>,
    /// Boxed so that the cache itself stays small enough to sit inline in
    /// the engine's owned-or-shared slot.
    index: Box<Index>,
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
        let bounded = limits.max_entries.is_some() || limits.max_bytes.is_some();
        EcsCache {
            entries: FxHashMap::default(),
            index: Box::new(Index::new(bounded)),
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
            per_name_evictions: self.stats.per_name_evictions.get(),
            stale_hits: self.stats.stale_hits.get(),
        }
    }

    /// The cache's private metrics registry (`cache_*` series).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.stats.registry
    }

    /// Number of retained entries after purging: unexpired entries, plus —
    /// when stale retention is on — expired entries still inside the stale
    /// budget (they occupy memory and count against the capacity bound).
    pub fn len(&mut self, now: SimTime) -> usize {
        self.purge(now);
        self.index.live
    }

    /// Approximate resident bytes after purging.
    pub fn approx_bytes(&mut self, now: SimTime) -> usize {
        self.purge(now);
        self.index.bytes
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
            .entries
            .get_mut(&(qname, qtype) as &dyn KeyRef)
            .and_then(|list| {
                list.entries
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

    /// RFC 8767 last-resort lookup: an expired-but-retained entry whose
    /// scope matches `client` (under the same compliance rules as `lookup`)
    /// and whose expiry is within the stale budget, record TTLs stamped to
    /// at most `serve_ttl`. Returns `None` when stale retention is off.
    /// Counts a stale hit but never a miss — the caller already took the
    /// miss in `lookup`.
    pub fn lookup_stale(
        &mut self,
        qname: &Name,
        qtype: RecordType,
        client: IpAddr,
        now: SimTime,
        serve_ttl: u32,
    ) -> Option<CachedAnswer> {
        if !self.limits.serve_stale() {
            return None;
        }
        let compliance = self.compliance;
        let budget = self.limits.stale_ttl;
        self.tick += 1;
        let tick = self.tick;
        let index = &mut self.index;
        let found = self
            .entries
            .get_mut(&(qname, qtype) as &dyn KeyRef)
            .and_then(|list| {
                list.entries
                    .iter_mut()
                    .filter(|e| e.expires <= now && e.expires + budget > now)
                    .filter(|e| scope_matches(compliance, e.scope, client))
                    // The least-stale matching entry (ties broken by list
                    // position, which is insertion order — deterministic).
                    .max_by_key(|e| e.expires)
                    .map(|e| {
                        index.touch(e, tick);
                        CachedAnswer {
                            records: e
                                .records
                                .iter()
                                .map(|r| {
                                    let mut r = r.clone();
                                    r.ttl = r.ttl.min(serve_ttl);
                                    r
                                })
                                .collect(),
                            ecs: e.ecs,
                            rcode: e.rcode,
                        }
                    })
            });
        if found.is_some() {
            self.stats.stale_hits.inc();
        }
        found
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
            bytes: approx_entry_bytes(&qname, &records),
            records,
            ecs,
            rcode,
            expires: now + SimDuration::from_secs(ttl as u64),
            last_used: self.tick,
        };
        let horizon = entry.expires + self.limits.stale_ttl;
        let key = (qname, qtype);
        let index = &mut *self.index;
        index.enter(&entry, &key);
        let list = match self.entries.entry(key) {
            Slot::Occupied(mut slot) => {
                if horizon < slot.get().queued {
                    // Due before anything the list holds: its item moves up.
                    let mut item = (slot.get().queued, slot.key().clone());
                    index.expiry.remove(&item);
                    item.0 = horizon;
                    index.expiry.insert(item);
                    slot.get_mut().queued = horizon;
                }
                slot.into_mut()
            }
            Slot::Vacant(slot) => {
                index.expiry.insert((horizon, slot.key().clone()));
                slot.insert(NameList {
                    // Room for the one entry and no more: a scan asks each
                    // name once, and `push` on an empty `Vec` reserves four.
                    entries: Vec::with_capacity(1),
                    queued: horizon,
                })
            }
        };
        // A fresh answer supersedes any entry with the identical scope
        // prefix, stale-retained ones included.
        list.retain(index, |e| e.scope != scope_prefix);
        list.entries.push(entry);
        // Per-name cap: the name sheds its own least-recently-used entries,
        // so one name's scope explosion cannot evict the long tail.
        if let Some(cap) = self.limits.per_name_cap {
            while list.entries.len() > cap.max(1) {
                let idx = list
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("list is non-empty");
                index.leave(&list.entries.remove(idx));
                self.stats.per_name_evictions.inc();
            }
        }
        self.stats.inserts.inc();
        self.enforce_bound();
        self.stats.max_size.set_max(self.index.live as u64);
        self.debug_assert_index_sizes();
        true
    }

    /// Removes entries past their retention horizon: expiry, plus the stale
    /// budget when RFC 8767 retention is on. Visits only the lists queued
    /// at or before `now`; when nothing is due that is one look at the
    /// queue's first item.
    pub fn purge(&mut self, now: SimTime) {
        let keep_until = self.limits.stale_ttl;
        while self
            .index
            .expiry
            .first()
            .is_some_and(|(due, _)| *due <= now)
        {
            let (_, key) = self.index.expiry.pop_first().expect("first() just saw it");
            let list = self.entries.get_mut(&key).expect("a queued key has a list");
            list.retain(&mut self.index, |e| e.expires + keep_until > now);
            match list.entries.iter().map(|e| e.expires + keep_until).min() {
                Some(earliest) => {
                    list.queued = earliest;
                    self.index.expiry.insert((earliest, key));
                }
                None => {
                    self.entries.remove(&key);
                }
            }
        }
        self.debug_assert_index_sizes();
    }

    /// Clears everything (stats survive).
    pub fn clear(&mut self) {
        self.entries.clear();
        *self.index = Index::new(self.index.recency.is_some());
    }

    /// Evicts least-recently-used entries until the global bounds hold.
    fn enforce_bound(&mut self) {
        loop {
            let over_entries = self.limits.max_entries.is_some_and(|m| self.index.live > m);
            let over_bytes = self.limits.max_bytes.is_some_and(|m| self.index.bytes > m);
            if !(over_entries || over_bytes) || !self.evict_lru() {
                return;
            }
        }
    }

    /// Removes the globally least-recently-used entry: the first item of
    /// the recency index. Deterministic: every touch takes a unique
    /// monotonic tick, so the minimum is unique and independent of
    /// `HashMap` iteration order.
    fn evict_lru(&mut self) -> bool {
        let Some((tick, key)) = self.index.recency.as_mut().and_then(BTreeMap::pop_first) else {
            return false;
        };
        let list = self
            .entries
            .get_mut(&key)
            .expect("an indexed key has a list");
        let idx = list
            .entries
            .iter()
            .position(|e| e.last_used == tick)
            .expect("an indexed tick has an entry");
        self.index.uncount(&list.entries.remove(idx));
        self.stats.evictions.inc();
        if list.entries.is_empty() {
            let queued = list.queued;
            self.entries.remove(&key);
            self.index.expiry.remove(&(queued, key));
        }
        true
    }

    /// Both indexes are exactly as long as what they index, whatever the
    /// operation just did (checked after every mutation in debug builds).
    fn debug_assert_index_sizes(&self) {
        debug_assert_eq!(self.index.expiry.len(), self.entries.len());
        if let Some(recency) = &self.index.recency {
            debug_assert_eq!(recency.len(), self.index.live);
        }
    }
}

/// Scope admission shared by fresh and stale lookups.
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

/// Rough resident footprint of one entry — fixed bookkeeping plus owned
/// record data. Only feeds the *approximate* byte bound.
fn approx_entry_bytes(qname: &Name, records: &[Record]) -> usize {
    const ENTRY_OVERHEAD: usize = 96;
    const RECORD_OVERHEAD: usize = 64;
    ENTRY_OVERHEAD + qname.wire_len() + records.len() * RECORD_OVERHEAD
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
        assert_eq!(c.stats().hit_rate(), 0.0);
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
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
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
    fn stale_negative_entries_serve_after_expiry() {
        let mut c = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                stale_ttl: netsim::SimDuration::from_secs(600),
                ..CacheLimits::default()
            },
        );
        c.insert_with_rcode(
            name("gone.example"),
            RecordType::A,
            Vec::new(),
            None,
            Rcode::NxDomain,
            60,
            t(0),
        );
        let client: IpAddr = "1.2.3.4".parse().unwrap();
        assert!(c
            .lookup(&name("gone.example"), RecordType::A, client, t(120))
            .is_none());
        let stale = c
            .lookup_stale(&name("gone.example"), RecordType::A, client, t(120), 30)
            .unwrap();
        assert_eq!(stale.rcode, Rcode::NxDomain);
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
    use netsim::SimDuration;
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
                ..CacheLimits::default()
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
    fn per_name_cap_protects_the_long_tail() {
        let mut c = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_entries: Some(10),
                per_name_cap: Some(2),
                ..CacheLimits::default()
            },
        );
        // An unrelated tail name cached first (and least recently used).
        c.insert(
            name("tail.example"),
            RecordType::A,
            rec("tail.example", 600),
            None,
            600,
            t(0),
        );
        // A popular name explodes across scopes.
        for third in 0..8u8 {
            c.insert(
                name("hot.example"),
                RecordType::A,
                rec("hot.example", 600),
                Some(scoped(third)),
                600,
                t(1 + third as u64),
            );
        }
        // The hot name holds at most 2 entries; the tail entry survived
        // even though it is globally the LRU.
        assert_eq!(c.len(t(9)), 3);
        assert_eq!(c.stats().per_name_evictions, 6);
        assert_eq!(c.stats().evictions, 0);
        assert!(c
            .lookup(&name("tail.example"), RecordType::A, ip("8.8.8.8"), t(9))
            .is_some());
    }

    #[test]
    fn byte_bound_evicts() {
        let mut c = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                max_bytes: Some(400),
                ..CacheLimits::default()
            },
        );
        for third in 0..6u8 {
            c.insert(
                name("a.example"),
                RecordType::A,
                rec("a.example", 600),
                Some(scoped(third)),
                600,
                t(third as u64),
            );
        }
        assert!(c.approx_bytes(t(6)) <= 400);
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn stale_lookup_respects_budget_and_scope() {
        let mut c = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                stale_ttl: SimDuration::from_secs(100),
                ..CacheLimits::default()
            },
        );
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(scoped(2)),
            60,
            t(0),
        );
        // Fresh lookups stop at expiry.
        assert!(c
            .lookup(&name("a.example"), RecordType::A, ip("192.0.2.9"), t(61))
            .is_none());
        // A stale /24 entry serves only matching clients...
        let stale = c
            .lookup_stale(
                &name("a.example"),
                RecordType::A,
                ip("192.0.2.9"),
                t(61),
                30,
            )
            .unwrap();
        assert_eq!(stale.records[0].ttl, 30);
        assert!(c
            .lookup_stale(
                &name("a.example"),
                RecordType::A,
                ip("192.0.3.9"),
                t(61),
                30
            )
            .is_none());
        // ...and only inside the budget (expiry 60 + budget 100 = 160).
        assert!(c
            .lookup_stale(
                &name("a.example"),
                RecordType::A,
                ip("192.0.2.9"),
                t(160),
                30
            )
            .is_none());
        assert_eq!(c.stats().stale_hits, 1);
    }

    #[test]
    fn stale_retention_off_purges_immediately() {
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
            .lookup_stale(&name("a.example"), RecordType::A, ip("1.1.1.1"), t(61), 30)
            .is_none());
        assert_eq!(c.len(t(61)), 0);
    }

    #[test]
    fn fresh_insert_supersedes_stale_twin() {
        let mut c = EcsCache::with_limits(
            CacheCompliance::Honor,
            CacheLimits {
                stale_ttl: SimDuration::from_secs(600),
                ..CacheLimits::default()
            },
        );
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(scoped(2)),
            60,
            t(0),
        );
        // Re-resolved after expiry: the stale twin is replaced, not kept.
        c.insert(
            name("a.example"),
            RecordType::A,
            rec("a.example", 60),
            Some(scoped(2)),
            60,
            t(120),
        );
        assert_eq!(c.len(t(120)), 1);
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
        /// Walks every list and holds the counters, the expiry queue and
        /// the recency index to what is actually there.
        fn assert_indexes_describe_the_lists(&self) {
            let (mut live, mut bytes) = (0, 0);
            for (key, list) in &self.entries {
                assert!(!list.entries.is_empty(), "an emptied list stays mapped");
                assert!(self.index.expiry.contains(&(list.queued, key.clone())));
                for e in &list.entries {
                    assert!(list.queued <= e.expires + self.limits.stale_ttl);
                    live += 1;
                    bytes += e.bytes;
                    if let Some(recency) = &self.index.recency {
                        assert_eq!(recency.get(&e.last_used), Some(key));
                    }
                }
            }
            assert_eq!((self.index.live, self.index.bytes), (live, bytes));
            // One queue item per list and one recency item per entry: no
            // garbage to compact, nothing left behind by a removal.
            assert_eq!(self.index.expiry.len(), self.entries.len());
            let bounded = self.limits.max_entries.is_some() || self.limits.max_bytes.is_some();
            assert_eq!(self.index.recency.is_some(), bounded);
            let indexed = self.index.recency.as_ref().map_or(0, BTreeMap::len);
            assert_eq!(indexed, if bounded { live } else { 0 });
        }
    }

    #[test]
    fn indexes_stay_exact_through_random_operations_and_empty_on_clear() {
        let stale = SimDuration::from_secs(20);
        let profiles = [
            (None, None, None, SimDuration::ZERO),
            (Some(5), None, None, SimDuration::ZERO),
            (None, Some(1_500), Some(2), SimDuration::ZERO),
            (Some(6), None, None, stale),
        ];
        let names =
            ["a.example", "b.example", "www.cdn.example"].map(|n| Name::from_ascii(n).unwrap());
        for (max_entries, max_bytes, per_name_cap, stale_ttl) in profiles {
            let limits = CacheLimits {
                max_entries,
                max_bytes,
                per_name_cap,
                stale_ttl,
            };
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
                        5..=6 => drop(c.lookup(name, RecordType::A, net.into(), now)),
                        7 => drop(c.lookup_stale(name, RecordType::A, net.into(), now, 30)),
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
