//! Trace-driven cache simulation (§7).
//!
//! Replays a [`TraceSet`] in two modes at once — ignoring ECS (any cached
//! answer serves any client, as a pre-ECS resolver would) and obeying the
//! source/scope prefixes from the trace — and reports, per resolver, the
//! peak cache size in each mode (the *blow-up factor* is their ratio,
//! Figure 1/2) and the hit rates (Figure 3).
//!
//! The simulation follows the paper's assumptions: resolvers honor
//! authoritative TTLs exactly and never evict early.
//!
//! # Engine
//!
//! Replay is sharded by resolver: resolver `rid` belongs to shard
//! `rid % parallelism`, and one loop (`CacheSimulator::replay`) runs every
//! shard — inline when there is one, otherwise one scoped thread each —
//! then merges the per-shard accumulators into per-resolver results sorted
//! by address. Resolver caches are independent — no record touches another
//! resolver's entries, and a resolver's peak is only sampled at its own
//! insert times, after expiring everything dead at that instant — so the
//! merged result is *bit-identical* for every `parallelism` value
//! (`crates/analysis/tests/equivalence_cache_sim.rs` checks this).
//!
//! Within a shard, both modes share a single flat slot arena: one hash
//! lookup of the interned `(local resolver index, name id, qtype)` key
//! finds the slot holding the plain-mode and ECS-mode entries for that
//! cache line, and compact expiry heaps of `(expiry, slot)` pairs drive
//! TTL eviction.
//!
//! The loop does not know where a shard's records come from; a *feed*
//! pushes them, already packed, into the shard's `ShardReplayer`. There
//! are two:
//!
//! - [`CacheSimulator::run`] feeds a materialized [`TraceSet`]. A single
//!   partition pass walks the full trace once, resolving sampling, TTL
//!   overrides, and interned ids (from the trace's
//!   [`workload::TraceIndex`]) up front, and splits it into per-shard
//!   packed streams; each shard is fed only its own. (Having every
//!   worker rescan the whole trace with a `rid % shards` filter makes
//!   memory traffic grow linearly with the worker count, and throughput
//!   *falls* as threads are added.)
//! - [`CacheSimulator::run_streaming`] feeds a
//!   [`workload::TraceStreamSource`]: each shard pulls its own
//!   deterministic substream (`source.open_shard(w, n)`) one generated
//!   chunk at a time, packing each record on the stack and stepping it at
//!   once, so a 100M-record run holds the model tables plus one chunk
//!   buffer per worker — never the trace.
//!
//! Chunk boundaries are invisible to the replayer, so the two feeds give
//! bit-identical results at every `parallelism`
//! (`crates/analysis/tests/stream_equivalence.rs` pins this).
//!
//! Telemetry is not a mode of the run: every `cache_sim_*` series is a
//! function of the per-resolver results, so [`CacheSimResult::to_metrics`]
//! computes the snapshot after the fact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::IpAddr;

use dns_wire::{IpPrefix, RecordType};
use netsim::{SimDuration, SimTime};
use rustc_hash::FxHashMap;
use workload::stream::{StreamRecord, TraceStreamSource, WorkloadModel};
use workload::{TraceIndex, TraceRecord, TraceSet};

/// Configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct CacheSimConfig {
    /// Override every record's TTL (Figure 1 sweeps 20/40/60 s). `None`
    /// keeps trace TTLs.
    pub ttl_override: Option<u32>,
    /// Keep only records whose client passes this percentage-based sample
    /// (hash of client address + `sample_seed`, kept if `< sample_pct`).
    /// 100 keeps everything. Records without a client are always kept.
    pub sample_pct: u8,
    /// Seed for the client sample hash.
    pub sample_seed: u64,
    /// Worker threads to shard resolvers across. `0` and `1` both mean
    /// sequential; results are identical for every value.
    pub parallelism: usize,
    /// Per-resolver, per-mode cap on live entries. Exceeding it evicts the
    /// least-recently-used entry (touch = hit or insert), modelling a
    /// memory-bounded resolver; eviction order is deterministic at any
    /// `parallelism` because each resolver's records replay in trace order
    /// within its shard. `None` never evicts early (the paper's assumption).
    pub capacity: Option<usize>,
}

impl Default for CacheSimConfig {
    fn default() -> Self {
        CacheSimConfig {
            ttl_override: None,
            sample_pct: 100,
            sample_seed: 0,
            parallelism: 1,
            capacity: None,
        }
    }
}

/// A reasonable `parallelism` for experiment configs: the machine's
/// available parallelism, capped at 8 (replay is memory-bound well before
/// that on wide machines).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Per-resolver outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverCacheResult {
    /// The resolver.
    pub resolver: IpAddr,
    /// Peak live entries obeying ECS.
    pub max_size_ecs: usize,
    /// Peak live entries ignoring ECS.
    pub max_size_no_ecs: usize,
    /// Hits/lookups obeying ECS.
    pub hits_ecs: u64,
    /// Hits/lookups ignoring ECS.
    pub hits_no_ecs: u64,
    /// Total lookups (same in both modes).
    pub lookups: u64,
    /// LRU evictions forced by [`CacheSimConfig::capacity`], ECS mode.
    pub evictions_ecs: u64,
    /// LRU evictions forced by [`CacheSimConfig::capacity`], plain mode.
    pub evictions_no_ecs: u64,
}

impl ResolverCacheResult {
    /// `max_size_ecs / max_size_no_ecs` (the Figure-1 metric). 1.0 when the
    /// denominator is zero.
    pub fn blowup_factor(&self) -> f64 {
        if self.max_size_no_ecs == 0 {
            1.0
        } else {
            self.max_size_ecs as f64 / self.max_size_no_ecs as f64
        }
    }

    /// Hit rate obeying ECS.
    pub fn hit_rate_ecs(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits_ecs as f64 / self.lookups as f64
        }
    }

    /// Hit rate ignoring ECS.
    pub fn hit_rate_no_ecs(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits_no_ecs as f64 / self.lookups as f64
        }
    }
}

/// Whole-trace outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSimResult {
    /// Per-resolver results, in resolver-address order.
    pub per_resolver: Vec<ResolverCacheResult>,
}

impl CacheSimResult {
    /// All blow-up factors.
    pub fn blowup_factors(&self) -> Vec<f64> {
        self.per_resolver
            .iter()
            .map(|r| r.blowup_factor())
            .collect()
    }

    /// Aggregate hit rate obeying ECS.
    pub fn overall_hit_rate_ecs(&self) -> f64 {
        let (h, l) = self
            .per_resolver
            .iter()
            .fold((0u64, 0u64), |(h, l), r| (h + r.hits_ecs, l + r.lookups));
        if l == 0 {
            0.0
        } else {
            h as f64 / l as f64
        }
    }

    /// Aggregate hit rate ignoring ECS.
    pub fn overall_hit_rate_no_ecs(&self) -> f64 {
        let (h, l) = self
            .per_resolver
            .iter()
            .fold((0u64, 0u64), |(h, l), r| (h + r.hits_no_ecs, l + r.lookups));
        if l == 0 {
            0.0
        } else {
            h as f64 / l as f64
        }
    }

    /// The run's telemetry: lookup/hit/eviction counters summed over the
    /// resolvers, one observation per resolver in each peak-size
    /// histogram, and the largest ECS peak as a high-water gauge. All eight
    /// `cache_sim_*` series are present even for an empty result. Like the
    /// result it is computed from, the snapshot is identical at every
    /// `parallelism` and for both feeds.
    pub fn to_metrics(&self) -> obs::MetricsSnapshot {
        let reg = obs::MetricsRegistry::new();
        let sum = |field: fn(&ResolverCacheResult) -> u64| -> u64 {
            self.per_resolver.iter().map(field).sum()
        };
        reg.counter("cache_sim_lookups_total")
            .add(sum(|r| r.lookups));
        reg.counter("cache_sim_hits_ecs_total")
            .add(sum(|r| r.hits_ecs));
        reg.counter("cache_sim_hits_plain_total")
            .add(sum(|r| r.hits_no_ecs));
        reg.counter("cache_sim_evictions_ecs_total")
            .add(sum(|r| r.evictions_ecs));
        reg.counter("cache_sim_evictions_plain_total")
            .add(sum(|r| r.evictions_no_ecs));
        let peaks_ecs = reg.histogram("cache_sim_peak_ecs_entries");
        let peaks_plain = reg.histogram("cache_sim_peak_plain_entries");
        let high_water = reg.gauge("cache_sim_peak_live_ecs");
        for r in &self.per_resolver {
            peaks_ecs.record(r.max_size_ecs as u64);
            peaks_plain.record(r.max_size_no_ecs as u64);
            high_water.set_max(r.max_size_ecs as u64);
        }
        reg.snapshot()
    }
}

/// Interned cache key: (shard-local resolver index, name id, qtype).
type Key = (u32, u32, RecordType);

/// One entry of a shard's packed replay stream.
///
/// Packing resolves everything that does not depend on cache state —
/// client sampling, TTL override, timestamp→expiry arithmetic, interned
/// name ids, the shard-local resolver index — so the replay loop streams
/// a compact array containing only the bytes it will actually touch.
struct PackedRecord {
    /// Record timestamp on the SimTime axis.
    now: SimTime,
    /// `now + ttl`, with [`CacheSimConfig::ttl_override`] already applied.
    expiry: SimTime,
    /// Shard-local resolver index.
    local: u32,
    /// Interned qname id: the [`TraceIndex`]'s, or the stream model's.
    name_id: u32,
    /// Query type.
    qtype: RecordType,
    /// ECS source prefix sent upstream, if any.
    ecs_source: Option<IpPrefix>,
    /// Scope prefix length from the response, if any.
    response_scope: Option<u8>,
}

/// Packs one kept record of resolver `rid` for its shard
/// (`rid % num_shards`). The one place both feeds turn a record into what
/// the replayer sees.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pack(
    config: &CacheSimConfig,
    num_shards: usize,
    rid: u32,
    name_id: u32,
    at_micros: u64,
    ttl: u32,
    qtype: RecordType,
    ecs_source: Option<IpPrefix>,
    response_scope: Option<u8>,
) -> PackedRecord {
    let now = SimTime::from_micros(at_micros);
    let ttl = config.ttl_override.unwrap_or(ttl);
    PackedRecord {
        now,
        expiry: now + SimDuration::from_secs(ttl as u64),
        local: (rid as usize / num_shards) as u32,
        name_id,
        qtype,
        ecs_source,
        response_scope,
    }
}

/// Splits the trace into per-shard packed replay streams in one pass.
///
/// Records keep trace order within their shard, which is all bit-identical
/// replay needs: resolver caches are independent and `rid % num_shards`
/// pins every resolver to exactly one shard, so cross-shard interleaving
/// can never be observed. This pass is the only place the full
/// [`TraceRecord`] array is scanned — workers see just their own stream.
fn partition_records(
    records: &[TraceRecord],
    index: &TraceIndex,
    config: &CacheSimConfig,
    num_shards: usize,
) -> Vec<Vec<PackedRecord>> {
    let mut shards: Vec<Vec<PackedRecord>> = (0..num_shards)
        .map(|_| Vec::with_capacity(records.len() / num_shards + 1))
        .collect();
    let resolver_ids = index.resolver_ids();
    for (i, rec) in records.iter().enumerate() {
        if !keep_client(config, rec.client) {
            continue;
        }
        let rid = resolver_ids[i];
        shards[rid as usize % num_shards].push(pack(
            config,
            num_shards,
            rid,
            index.name_id(i),
            rec.at_micros,
            rec.ttl,
            rec.qtype,
            rec.ecs_source,
            rec.response_scope,
        ));
    }
    shards
}

/// One cached line — both modes' live entries for a key, in one arena slot
/// found by a single hash lookup per record.
///
/// Every entry carries the per-resolver recency tick of its last touch
/// (insert or hit) so a capacity bound can evict deterministic LRU order.
struct Slot {
    /// Shard-local resolver index.
    resolver: u32,
    /// Plain-mode entries: (expiry, last-touch tick).
    plain: Vec<(SimTime, u64)>,
    /// ECS-mode entries: scope prefix (`None` serves everyone), expiry,
    /// last-touch tick.
    ecs: Vec<(Option<IpPrefix>, SimTime, u64)>,
}

/// Per-resolver accumulators for one shard, indexed by shard-local
/// resolver index.
struct ShardStats {
    live_plain: Vec<usize>,
    max_plain: Vec<usize>,
    live_ecs: Vec<usize>,
    max_ecs: Vec<usize>,
    hits_plain: Vec<u64>,
    hits_ecs: Vec<u64>,
    lookups: Vec<u64>,
    evictions_plain: Vec<u64>,
    evictions_ecs: Vec<u64>,
}

impl ShardStats {
    fn new(locals: usize) -> Self {
        ShardStats {
            live_plain: vec![0; locals],
            max_plain: vec![0; locals],
            live_ecs: vec![0; locals],
            max_ecs: vec![0; locals],
            hits_plain: vec![0; locals],
            hits_ecs: vec![0; locals],
            lookups: vec![0; locals],
            evictions_plain: vec![0; locals],
            evictions_ecs: vec![0; locals],
        }
    }
}

/// Number of resolver ids mapped to `shard` out of `num_resolvers` under
/// `rid % num_shards` assignment.
fn shard_width(num_resolvers: usize, shard: usize, num_shards: usize) -> usize {
    (num_resolvers + num_shards - 1 - shard) / num_shards
}

/// Drops every entry expiring at or before `now` from one mode's listing.
///
/// `slot_entries` projects the mode's entry list out of a slot;
/// `live` is that mode's per-resolver live counter.
fn purge<E>(
    heap: &mut BinaryHeap<Reverse<(SimTime, u32)>>,
    slots: &mut [Slot],
    live: &mut [usize],
    now: SimTime,
    slot_entries: impl Fn(&mut Slot) -> &mut Vec<E>,
    expiry_of: impl Fn(&E) -> SimTime,
) {
    while let Some(&Reverse((exp, slot_idx))) = heap.peek() {
        if exp > now {
            break;
        }
        heap.pop();
        let slot = &mut slots[slot_idx as usize];
        let entries = slot_entries(slot);
        let before = entries.len();
        entries.retain(|e| expiry_of(e) > now);
        let removed = before - entries.len();
        if removed > 0 {
            live[slot.resolver as usize] -= removed;
        }
    }
}

/// Removes one resolver's least-recently-touched entry in one mode.
///
/// `slot_list` is every slot the resolver ever created — one per (name,
/// qtype) it was asked, never removed, most of them empty once the cache
/// sits at its capacity — so the scan is O(slots ever created + live
/// entries) per eviction, *not* bounded by the capacity it enforces (up to
/// 150 slots at capacity 64 on the benchmark's `replay_bounded` trace).
/// Ticks are unique per (resolver, mode) — each replayed record touches
/// at most one entry per mode — so the minimum is unique and eviction
/// order is deterministic.
fn evict_lru<E>(
    slots: &mut [Slot],
    slot_list: &[u32],
    entries_of: impl Fn(&mut Slot) -> &mut Vec<E>,
    tick_of: impl Fn(&E) -> u64,
) -> bool {
    let mut best: Option<(u64, u32, usize)> = None;
    for &si in slot_list {
        for (ei, e) in entries_of(&mut slots[si as usize]).iter().enumerate() {
            let t = tick_of(e);
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, si, ei));
            }
        }
    }
    match best {
        Some((_, si, ei)) => {
            entries_of(&mut slots[si as usize]).remove(ei);
            true
        }
        None => false,
    }
}

/// The stateful single-shard replay engine: all cache state for one
/// shard's resolvers, fed packed records in trace order, both modes in a
/// single pass.
///
/// Both feeds drive this same engine — the materialized one hands over the
/// whole partitioned stream at once, the streaming one steps each record
/// of a generated chunk as it packs it — so they share the cache logic
/// *by construction*: chunk boundaries are invisible to it.
struct ShardReplayer {
    stats: ShardStats,
    slots: Vec<Slot>,
    slot_ids: FxHashMap<Key, u32>,
    heap_plain: BinaryHeap<Reverse<(SimTime, u32)>>,
    heap_ecs: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Per-resolver recency clock and slot registry (for LRU scans under a
    /// capacity bound).
    ticks: Vec<u64>,
    resolver_slots: Vec<Vec<u32>>,
    capacity: Option<usize>,
}

impl ShardReplayer {
    fn new(locals: usize, config: &CacheSimConfig) -> Self {
        ShardReplayer {
            stats: ShardStats::new(locals),
            slots: Vec::new(),
            slot_ids: FxHashMap::default(),
            heap_plain: BinaryHeap::new(),
            heap_ecs: BinaryHeap::new(),
            ticks: vec![0; locals],
            resolver_slots: vec![Vec::new(); locals],
            // A zero capacity would evict the entry just inserted forever;
            // clamp to one entry, the smallest cache that can function.
            capacity: config.capacity.map(|c| c.max(1)),
        }
    }

    fn feed(&mut self, packed: &[PackedRecord]) {
        for rec in packed {
            self.step(rec);
        }
    }

    // Two callers, one per feed, each once per record: left out of line
    // (as it is without the attribute) the materialized feed pays a call
    // and reloads the replayer's fields every record — 3 % of
    // `replay_bounded`.
    #[inline(always)]
    fn step(&mut self, rec: &PackedRecord) {
        let ShardReplayer {
            stats,
            slots,
            slot_ids,
            heap_plain,
            heap_ecs,
            ticks,
            resolver_slots,
            capacity,
        } = self;
        let capacity = *capacity;

        let local = rec.local;
        let now = rec.now;
        let expiry = rec.expiry;

        stats.lookups[local as usize] += 1;
        ticks[local as usize] += 1;
        let tick = ticks[local as usize];

        let slot_idx = *slot_ids
            .entry((local, rec.name_id, rec.qtype))
            .or_insert_with(|| {
                slots.push(Slot {
                    resolver: local,
                    plain: Vec::new(),
                    ecs: Vec::new(),
                });
                resolver_slots[local as usize].push((slots.len() - 1) as u32);
                (slots.len() - 1) as u32
            });

        purge(
            heap_plain,
            slots,
            &mut stats.live_plain,
            now,
            |s| &mut s.plain,
            |&(e, _)| e,
        );
        purge(
            heap_ecs,
            slots,
            &mut stats.live_ecs,
            now,
            |s| &mut s.ecs,
            |e| e.1,
        );

        let slot = &mut slots[slot_idx as usize];

        // Plain mode: ECS ignored entirely, any live entry serves.
        if let Some(e) = slot.plain.iter_mut().find(|(exp, _)| *exp > now) {
            e.1 = tick;
            stats.hits_plain[local as usize] += 1;
        } else {
            slot.plain.push((expiry, tick));
            heap_plain.push(Reverse((expiry, slot_idx)));
            stats.live_plain[local as usize] += 1;
            if let Some(cap) = capacity {
                while stats.live_plain[local as usize] > cap
                    && evict_lru(
                        slots,
                        &resolver_slots[local as usize],
                        |s| &mut s.plain,
                        |&(_, t)| t,
                    )
                {
                    stats.live_plain[local as usize] -= 1;
                    stats.evictions_plain[local as usize] += 1;
                }
            }
            let lv = stats.live_plain[local as usize];
            let mx = &mut stats.max_plain[local as usize];
            *mx = (*mx).max(lv);
        }

        // ECS mode: obey source/scope from the trace.
        let source = rec.ecs_source;
        let slot = &mut slots[slot_idx as usize];
        let hit = slot.ecs.iter_mut().find(|(scope, exp, _)| {
            *exp > now
                && match (scope, source.as_ref()) {
                    (None, _) => true, // non-ECS entry serves all
                    (Some(p), Some(s)) => p.is_default_route() || p.covers(s),
                    (Some(p), None) => p.is_default_route(),
                }
        });
        if let Some(e) = hit {
            e.2 = tick;
            stats.hits_ecs[local as usize] += 1;
        } else {
            let entry_prefix = match (source, rec.response_scope) {
                (Some(src), Some(scope)) => Some(src.truncate(scope.min(src.len()))),
                // Query carried ECS, response did not: cacheable for
                // everyone per RFC 7871 §7.3.
                (Some(_), None) => None,
                (None, _) => None,
            };
            slot.ecs.push((entry_prefix, expiry, tick));
            heap_ecs.push(Reverse((expiry, slot_idx)));
            stats.live_ecs[local as usize] += 1;
            if let Some(cap) = capacity {
                while stats.live_ecs[local as usize] > cap
                    && evict_lru(
                        slots,
                        &resolver_slots[local as usize],
                        |s| &mut s.ecs,
                        |e| e.2,
                    )
                {
                    stats.live_ecs[local as usize] -= 1;
                    stats.evictions_ecs[local as usize] += 1;
                }
            }
            let lv = stats.live_ecs[local as usize];
            let mx = &mut stats.max_ecs[local as usize];
            *mx = (*mx).max(lv);
        }
    }
}

fn keep_client(config: &CacheSimConfig, client: Option<IpAddr>) -> bool {
    if config.sample_pct >= 100 {
        return true;
    }
    match client {
        None => true,
        Some(client) => {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            client.hash(&mut h);
            config.sample_seed.hash(&mut h);
            (h.finish() % 100) < config.sample_pct as u64
        }
    }
}

/// The simulator.
pub struct CacheSimulator {
    config: CacheSimConfig,
}

impl CacheSimulator {
    /// Creates a simulator.
    pub fn new(config: CacheSimConfig) -> Self {
        CacheSimulator { config }
    }

    /// Runs both modes over the trace, sharded across
    /// `config.parallelism` workers.
    pub fn run(&self, trace: &TraceSet) -> CacheSimResult {
        let built;
        let index = match trace.index() {
            Some(idx) => idx,
            None => {
                built = TraceIndex::build(&trace.records);
                &built
            }
        };
        let num_shards = self.num_shards(index.num_resolvers());
        let packed = partition_records(&trace.records, index, &self.config, num_shards);
        self.replay(index.resolvers(), num_shards, |w, replayer| {
            replayer.feed(&packed[w])
        })
    }

    /// Runs both modes over a streamed workload: each shard worker pulls
    /// its own deterministic substream from `source` and replays it
    /// chunk-by-chunk, so peak memory is the model tables plus one chunk
    /// buffer per worker — never the full trace.
    ///
    /// The result is bit-identical to materializing the same source and
    /// calling [`CacheSimulator::run`], at every `parallelism`
    /// (`crates/analysis/tests/stream_equivalence.rs` pins this): shard
    /// assignment uses the model's resolver ids instead of the trace
    /// index's first-appearance ids, but resolver caches are independent,
    /// each resolver's records replay in stream order inside exactly one
    /// shard, and the merge sorts by resolver address for both feeds.
    pub fn run_streaming<M: WorkloadModel>(&self, source: &TraceStreamSource<M>) -> CacheSimResult {
        let config = &self.config;
        let resolver_addrs = source.model().resolver_addrs();
        let num_shards = self.num_shards(resolver_addrs.len());
        self.replay(resolver_addrs, num_shards, |w, replayer| {
            let mut stream = source.open_shard(w, num_shards);
            // One chunk buffer per worker, reused across the whole
            // substream, is the entire per-worker footprint: each record is
            // packed on the stack and stepped at once.
            let mut chunk: Vec<StreamRecord> = Vec::with_capacity(source.chunk_size());
            while stream.next_chunk_into(&mut chunk) {
                for r in &chunk {
                    if !keep_client(config, r.client) {
                        continue;
                    }
                    replayer.step(&pack(
                        config,
                        num_shards,
                        r.resolver_id,
                        r.name_id,
                        r.at_micros,
                        r.ttl,
                        r.qtype,
                        r.ecs_source,
                        r.response_scope,
                    ));
                }
            }
        })
    }

    /// Shard count for `num_resolvers` resolvers: `config.parallelism`,
    /// but at least one and never more shards than resolvers.
    fn num_shards(&self, num_resolvers: usize) -> usize {
        self.config.parallelism.clamp(1, num_resolvers.max(1))
    }

    /// The one shard loop. Resolver `rid` (an index into `resolver_addrs`)
    /// lives in shard `rid % num_shards`; `feed(w, replayer)` pushes shard
    /// `w`'s packed records, in order. Runs the single shard inline, or
    /// one scoped thread per shard, then merges.
    fn replay(
        &self,
        resolver_addrs: &[IpAddr],
        num_shards: usize,
        feed: impl Fn(usize, &mut ShardReplayer) + Sync,
    ) -> CacheSimResult {
        let worker = |w: usize| -> ShardStats {
            let locals = shard_width(resolver_addrs.len(), w, num_shards);
            let mut replayer = ShardReplayer::new(locals, &self.config);
            feed(w, &mut replayer);
            replayer.stats
        };
        let shards: Vec<ShardStats> = if num_shards == 1 {
            vec![worker(0)]
        } else {
            let worker = &worker;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..num_shards)
                    .map(|w| scope.spawn(move || worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("cache-sim shard worker panicked"))
                    .collect()
            })
        };

        // Deterministic merge: walk resolvers in id order, then sort by
        // address as the public contract requires.
        let mut per_resolver: Vec<ResolverCacheResult> = Vec::with_capacity(resolver_addrs.len());
        for (rid, &addr) in resolver_addrs.iter().enumerate() {
            let stats = &shards[rid % num_shards];
            let local = rid / num_shards;
            let lookups = stats.lookups[local];
            if lookups == 0 {
                // Never queried (a stream's Zipf tail) or fully sampled
                // out: the resolver never replayed, so it has no result.
                continue;
            }
            per_resolver.push(ResolverCacheResult {
                resolver: addr,
                max_size_ecs: stats.max_ecs[local],
                max_size_no_ecs: stats.max_plain[local],
                hits_ecs: stats.hits_ecs[local],
                hits_no_ecs: stats.hits_plain[local],
                lookups,
                evictions_ecs: stats.evictions_ecs[local],
                evictions_no_ecs: stats.evictions_plain[local],
            });
        }
        per_resolver.sort_by_key(|r| r.resolver);
        CacheSimResult { per_resolver }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Name;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn prefix(s: &str, len: u8) -> IpPrefix {
        IpPrefix::v4(s.parse().unwrap(), len).unwrap()
    }

    fn rec(at_secs: u64, name_s: &str, subnet: &str, scope: u8, ttl: u32) -> TraceRecord {
        TraceRecord {
            at_micros: at_secs * 1_000_000,
            resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9)),
            qname: name(name_s),
            qtype: RecordType::A,
            ecs_source: Some(prefix(subnet, 24)),
            response_scope: Some(scope),
            ttl,
            client: Some(IpAddr::V4(subnet.parse().unwrap())),
        }
    }

    fn run(records: Vec<TraceRecord>) -> CacheSimResult {
        let mut t = TraceSet::new("t");
        t.records = records;
        t.sort_by_time();
        CacheSimulator::new(CacheSimConfig::default()).run(&t)
    }

    /// 400 records over five resolvers, 13 names and 31 subnets with mixed
    /// scopes and TTLs: enough to spread over several shards and to
    /// overflow a small capacity in both modes.
    fn five_resolver_trace() -> TraceSet {
        let mut t = TraceSet::new("t");
        t.records = (0..400)
            .map(|i| {
                let mut r = rec(
                    i / 7,
                    &format!("h{}.example.com", i % 13),
                    &format!("10.2.{}.0", i % 31),
                    if i % 3 == 0 { 16 } else { 24 },
                    20 + (i as u32 % 4) * 20,
                );
                r.resolver = IpAddr::V4(Ipv4Addr::new(9, 9, 9, (i % 5) as u8 + 1));
                r
            })
            .collect();
        t.sort_by_time();
        t
    }

    #[test]
    fn ecs_splits_cache_by_subnet() {
        // Three subnets query the same name within one TTL window.
        let r = run(vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 60),
            rec(1, "a.example.com", "10.1.2.0", 24, 60),
            rec(2, "a.example.com", "10.1.3.0", 24, 60),
        ]);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_no_ecs, 1);
        assert_eq!(res.max_size_ecs, 3);
        assert!((res.blowup_factor() - 3.0).abs() < 1e-9);
        // Plain mode: 2 hits; ECS mode: 0 hits.
        assert_eq!(res.hits_no_ecs, 2);
        assert_eq!(res.hits_ecs, 0);
        assert_eq!(res.lookups, 3);
    }

    #[test]
    fn coarse_scope_shares_across_subnets() {
        // Scope 16: both /24s in the same /16 share the entry.
        let r = run(vec![
            rec(0, "a.example.com", "10.1.1.0", 16, 60),
            rec(1, "a.example.com", "10.1.2.0", 16, 60),
        ]);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_ecs, 1);
        assert_eq!(res.hits_ecs, 1);
    }

    #[test]
    fn entries_expire_and_shrink_peak() {
        // Second query arrives after the first expired: no concurrency.
        let r = run(vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 20),
            rec(30, "a.example.com", "10.1.2.0", 24, 20),
        ]);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_ecs, 1);
        assert_eq!(res.max_size_no_ecs, 1);
        assert_eq!(res.hits_ecs, 0);
        assert_eq!(res.hits_no_ecs, 0);
    }

    #[test]
    fn ttl_override_changes_concurrency() {
        let records = vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 20),
            rec(30, "a.example.com", "10.1.2.0", 24, 20),
        ];
        let mut t = TraceSet::new("t");
        t.records = records;
        let r = CacheSimulator::new(CacheSimConfig {
            ttl_override: Some(60),
            ..CacheSimConfig::default()
        })
        .run(&t);
        // With 60s TTL the two entries now overlap.
        assert_eq!(r.per_resolver[0].max_size_ecs, 2);
    }

    #[test]
    fn same_subnet_hits_in_both_modes() {
        let r = run(vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 60),
            rec(5, "a.example.com", "10.1.1.0", 24, 60),
        ]);
        let res = &r.per_resolver[0];
        assert_eq!(res.hits_ecs, 1);
        assert_eq!(res.hits_no_ecs, 1);
        assert_eq!(res.max_size_ecs, 1);
    }

    #[test]
    fn distinct_names_never_share() {
        let r = run(vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 60),
            rec(1, "b.example.com", "10.1.1.0", 24, 60),
        ]);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_ecs, 2);
        assert_eq!(res.max_size_no_ecs, 2);
    }

    #[test]
    fn non_ecs_records_shared_in_ecs_mode() {
        let mut a = rec(0, "a.example.com", "10.1.1.0", 24, 60);
        a.ecs_source = None;
        a.response_scope = None;
        let mut b = rec(1, "a.example.com", "10.1.2.0", 24, 60);
        b.ecs_source = None;
        b.response_scope = None;
        let r = run(vec![a, b]);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_ecs, 1);
        assert_eq!(res.hits_ecs, 1);
    }

    #[test]
    fn client_sampling_filters() {
        let records: Vec<TraceRecord> = (0..100)
            .map(|i| rec(i, "a.example.com", &format!("10.1.{}.0", i % 250), 24, 60))
            .collect();
        let mut t = TraceSet::new("t");
        t.records = records;
        let full = CacheSimulator::new(CacheSimConfig::default()).run(&t);
        let half = CacheSimulator::new(CacheSimConfig {
            sample_pct: 50,
            ..CacheSimConfig::default()
        })
        .run(&t);
        let full_lookups = full.per_resolver[0].lookups;
        let half_lookups = half.per_resolver[0].lookups;
        assert_eq!(full_lookups, 100);
        assert!(half_lookups < 75 && half_lookups > 25, "{half_lookups}");
    }

    #[test]
    fn multiple_resolvers_tracked_separately() {
        let mut a = rec(0, "a.example.com", "10.1.1.0", 24, 60);
        let mut b = rec(1, "a.example.com", "10.1.2.0", 24, 60);
        a.resolver = IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1));
        b.resolver = IpAddr::V4(Ipv4Addr::new(2, 2, 2, 2));
        let r = run(vec![a, b]);
        assert_eq!(r.per_resolver.len(), 2);
        assert!(r.per_resolver.iter().all(|res| res.max_size_ecs == 1));
    }

    #[test]
    fn parallelism_does_not_change_results() {
        let t = five_resolver_trace();
        let sequential = CacheSimulator::new(CacheSimConfig::default()).run(&t);
        for parallelism in [2, 3, 8, 64] {
            let sharded = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..CacheSimConfig::default()
            })
            .run(&t);
            assert_eq!(
                sequential.per_resolver, sharded.per_resolver,
                "parallelism={parallelism}"
            );
        }
    }

    #[test]
    fn capacity_bounds_peak_and_counts_evictions() {
        // Three concurrent subnet entries for one name, capacity 2: the
        // third ECS insert evicts the LRU first entry.
        let records = vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 600),
            rec(1, "a.example.com", "10.1.2.0", 24, 600),
            rec(2, "a.example.com", "10.1.3.0", 24, 600),
        ];
        let mut t = TraceSet::new("t");
        t.records = records;
        t.sort_by_time();
        let r = CacheSimulator::new(CacheSimConfig {
            capacity: Some(2),
            ..CacheSimConfig::default()
        })
        .run(&t);
        let res = &r.per_resolver[0];
        assert_eq!(res.max_size_ecs, 2, "bound never exceeded");
        assert_eq!(res.evictions_ecs, 1);
        // Plain mode never held more than one entry: no pressure.
        assert_eq!(res.max_size_no_ecs, 1);
        assert_eq!(res.evictions_no_ecs, 0);
    }

    #[test]
    fn eviction_is_lru_with_hits_refreshing_recency() {
        // Warm 10.1.1.0 and 10.1.2.0, re-touch 10.1.1.0, then insert a
        // third subnet under capacity 2: the LRU victim is 10.1.2.0, so a
        // final 10.1.1.0 query still hits.
        let records = vec![
            rec(0, "a.example.com", "10.1.1.0", 24, 600),
            rec(1, "a.example.com", "10.1.2.0", 24, 600),
            rec(2, "a.example.com", "10.1.1.0", 24, 600), // hit: refresh
            rec(3, "a.example.com", "10.1.3.0", 24, 600), // evicts 10.1.2.0
            rec(4, "a.example.com", "10.1.1.0", 24, 600), // still cached
            rec(5, "a.example.com", "10.1.2.0", 24, 600), // evicted: miss
        ];
        let mut t = TraceSet::new("t");
        t.records = records;
        t.sort_by_time();
        let r = CacheSimulator::new(CacheSimConfig {
            capacity: Some(2),
            ..CacheSimConfig::default()
        })
        .run(&t);
        let res = &r.per_resolver[0];
        assert_eq!(res.hits_ecs, 2, "t=2 and t=4 hit");
        assert_eq!(res.evictions_ecs, 2, "t=3 evicts .2, t=5 evicts LRU again");
        assert_eq!(res.max_size_ecs, 2);
    }

    #[test]
    fn unbounded_capacity_matches_default_exactly() {
        let records: Vec<TraceRecord> = (0..200)
            .map(|i| {
                rec(
                    i / 5,
                    &format!("h{}.example.com", i % 7),
                    &format!("10.3.{}.0", i % 23),
                    24,
                    40,
                )
            })
            .collect();
        let mut t = TraceSet::new("t");
        t.records = records;
        t.sort_by_time();
        let plain = CacheSimulator::new(CacheSimConfig::default()).run(&t);
        let huge = CacheSimulator::new(CacheSimConfig {
            capacity: Some(usize::MAX),
            ..CacheSimConfig::default()
        })
        .run(&t);
        assert_eq!(plain.per_resolver, huge.per_resolver);
        assert!(plain.per_resolver.iter().all(|r| r.evictions_ecs == 0));
    }

    #[test]
    fn capacity_is_deterministic_at_any_parallelism() {
        let t = five_resolver_trace();
        let config = CacheSimConfig {
            capacity: Some(3),
            ..CacheSimConfig::default()
        };
        let sequential = CacheSimulator::new(config.clone()).run(&t);
        assert!(
            sequential.per_resolver.iter().any(|r| r.evictions_ecs > 0),
            "the bound must actually bite for this to test anything"
        );
        assert!(sequential
            .per_resolver
            .iter()
            .all(|r| r.max_size_ecs <= 3 && r.max_size_no_ecs <= 3));
        for parallelism in [2, 3, 8, 64] {
            let sharded = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..config.clone()
            })
            .run(&t);
            assert_eq!(
                sequential.per_resolver, sharded.per_resolver,
                "parallelism={parallelism}"
            );
        }
    }

    #[test]
    fn instrumented_snapshot_matches_results_at_any_parallelism() {
        let t = five_resolver_trace();
        let result = CacheSimulator::new(CacheSimConfig::default()).run(&t);
        let sequential = result.to_metrics();
        // The snapshot agrees with the public result.
        let lookups: u64 = result.per_resolver.iter().map(|r| r.lookups).sum();
        let hits_ecs: u64 = result.per_resolver.iter().map(|r| r.hits_ecs).sum();
        assert_eq!(sequential.counter("cache_sim_lookups_total"), Some(lookups));
        assert_eq!(
            sequential.counter("cache_sim_hits_ecs_total"),
            Some(hits_ecs)
        );
        let peaks = sequential.histogram("cache_sim_peak_ecs_entries").unwrap();
        assert_eq!(peaks.count, result.per_resolver.len() as u64);
        assert_eq!(
            peaks.max,
            result
                .per_resolver
                .iter()
                .map(|r| r.max_size_ecs as u64)
                .max()
                .unwrap()
        );
        // Sharding never changes the merged snapshot.
        for parallelism in [2, 3, 8, 64] {
            let sharded = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..CacheSimConfig::default()
            })
            .run(&t)
            .to_metrics();
            assert_eq!(sharded, sequential, "parallelism={parallelism}");
        }
    }

    #[test]
    fn snapshot_series_are_sums_and_peaks_of_a_capacity_bound_result() {
        let t = five_resolver_trace();
        let result = CacheSimulator::new(CacheSimConfig {
            capacity: Some(3),
            parallelism: 2,
            ..CacheSimConfig::default()
        })
        .run(&t);
        let snap = result.to_metrics();
        let sum = |field: fn(&ResolverCacheResult) -> u64| -> u64 {
            result.per_resolver.iter().map(field).sum()
        };
        assert!(sum(|r| r.evictions_ecs) > 0 && sum(|r| r.evictions_no_ecs) > 0);
        assert_eq!(
            snap.counter("cache_sim_hits_plain_total"),
            Some(sum(|r| r.hits_no_ecs))
        );
        assert_eq!(
            snap.counter("cache_sim_evictions_ecs_total"),
            Some(sum(|r| r.evictions_ecs))
        );
        assert_eq!(
            snap.counter("cache_sim_evictions_plain_total"),
            Some(sum(|r| r.evictions_no_ecs))
        );
        let peaks_plain = snap.histogram("cache_sim_peak_plain_entries").unwrap();
        assert_eq!(peaks_plain.count, result.per_resolver.len() as u64);
        assert_eq!(peaks_plain.sum, sum(|r| r.max_size_no_ecs as u64));
        assert_eq!(snap.gauge("cache_sim_peak_live_ecs"), Some(3));
    }

    #[test]
    fn empty_result_still_carries_every_required_series() {
        let result = CacheSimulator::new(CacheSimConfig::default()).run(&TraceSet::new("empty"));
        assert!(result.per_resolver.is_empty());
        let snap = result.to_metrics();
        let required = obs::validate::STREAM_REQUIRED_SERIES;
        assert_eq!(snap.series.len(), required.len());
        for name in required {
            assert!(snap.series.contains_key(*name), "{name} missing");
        }
        assert_eq!(snap.counter("cache_sim_lookups_total"), Some(0));
        assert_eq!(snap.gauge("cache_sim_peak_live_ecs"), Some(0));
        assert_eq!(
            snap.histogram("cache_sim_peak_ecs_entries").unwrap().count,
            0
        );
    }

    #[test]
    fn streaming_matches_materialized_bit_identically() {
        let source = workload::CdnStreamGen {
            resolvers: 9,
            subnets_per_resolver: 6,
            hostnames: 60,
            queries: 20_000,
            duration: netsim::SimDuration::from_secs(600),
            ttl: 20,
            seed: 11,
        }
        .source();
        let trace = source.materialize();
        for parallelism in [1, 2, 4, 8] {
            let sim = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..CacheSimConfig::default()
            });
            let streamed = sim.run_streaming(&source);
            let materialized = sim.run(&trace);
            assert_eq!(
                streamed.per_resolver, materialized.per_resolver,
                "parallelism={parallelism}"
            );
        }
    }

    #[test]
    fn streaming_snapshot_and_options_match_materialized() {
        let source = workload::AllNamesStreamGen {
            v4_subnets: 40,
            v6_subnets: 10,
            clients_per_subnet: 3,
            slds: 50,
            hostnames_per_sld: 3,
            queries: 15_000,
            ..workload::AllNamesStreamGen::default()
        }
        .source();
        let trace = source.materialize();
        for config in [
            CacheSimConfig {
                parallelism: 4,
                ..CacheSimConfig::default()
            },
            CacheSimConfig {
                ttl_override: Some(60),
                sample_pct: 40,
                sample_seed: 7,
                ..CacheSimConfig::default()
            },
            CacheSimConfig {
                capacity: Some(50),
                ..CacheSimConfig::default()
            },
        ] {
            let sim = CacheSimulator::new(config.clone());
            let streamed = sim.run_streaming(&source);
            let materialized = sim.run(&trace);
            assert_eq!(
                streamed.per_resolver, materialized.per_resolver,
                "{config:?}"
            );
            assert_eq!(
                streamed.to_metrics(),
                materialized.to_metrics(),
                "{config:?}"
            );
        }
    }

    #[test]
    fn shard_widths_cover_all_resolvers() {
        for resolvers in 0..20 {
            for shards in 1..8 {
                let total: usize = (0..shards).map(|w| shard_width(resolvers, w, shards)).sum();
                assert_eq!(total, resolvers, "R={resolvers} n={shards}");
            }
        }
    }

    #[test]
    fn blowup_factor_of_empty_resolver_is_one() {
        let res = ResolverCacheResult {
            resolver: IpAddr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            max_size_ecs: 0,
            max_size_no_ecs: 0,
            hits_ecs: 0,
            hits_no_ecs: 0,
            lookups: 0,
            evictions_ecs: 0,
            evictions_no_ecs: 0,
        };
        assert_eq!(res.blowup_factor(), 1.0);
        assert_eq!(res.hit_rate_ecs(), 0.0);
    }
}
