//! Streaming workload generation: the §7 traces as bounded-memory record
//! streams instead of materialized [`TraceSet`]s.
//!
//! The materialize-then-replay pipeline caps §7 runs at about a million
//! records: every [`TraceRecord`] carries a heap-allocated [`Name`] and the
//! whole trace (plus its index) must fit in memory before the first record
//! replays. A [`TraceStreamSource`] instead *computes* record `i` on
//! demand from a seeded counter-based RNG, so a 100M-record fig1 run needs
//! memory only for the model tables (names, scopes, resolver addresses —
//! kilobytes to a few megabytes) and one chunk buffer per worker.
//!
//! Three properties make streaming a drop-in replacement for the
//! materialized path (`crates/workload/tests/prop_stream.rs` and
//! `crates/analysis/tests/stream_equivalence.rs` pin all of them):
//!
//! * **Chunk invariance** — record `i` is a pure function of
//!   `(model, i)`; its per-record RNG is seeded by a splitmix64 mix of the
//!   model seed and `i`, never by stream position, so chunk size and chunk
//!   boundaries cannot change content.
//! * **Shard partition** — [`TraceStreamSource::open_shard`]`(s, n)` yields
//!   exactly the records whose resolver id satisfies `rid % n == s`, in
//!   index order. Each [`crate::TraceSet`]-free cache-sim shard pulls its
//!   own deterministic substream; the union over shards is the full stream
//!   and the assignment matches the materialized engine's
//!   partition-once replay.
//! * **Monotone time** — record `i` draws its timestamp inside the
//!   stratified window `[i·d/t, (i+1)·d/t)`, so the stream is
//!   non-decreasing in time *by construction* and
//!   [`TraceStreamSource::materialize`] never needs a global sort.
//!
//! Name synthesis goes through a [`NameTable`] arena: every hostname lives
//! in one contiguous `String`, the hot loop works on `u32` name ids only,
//! and a [`Name`] is parsed out of the arena only when materializing.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use dns_wire::{IpPrefix, Name, RecordType};
use netsim::SimDuration;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::names::NameUniverse;
use crate::trace::{TraceRecord, TraceSet};
use crate::zipf::Zipf;

/// Default records per chunk. A chunk buffer is 65,536 × 72 B = 4.5 MiB per
/// worker — larger than a core's private caches, so the replay loop reads
/// each record back from the shared cache or memory. It stays because
/// smaller measured slower: a 1,024-record chunk (72 KiB, L2-resident) took
/// 13–15 % longer per unit of the benchmark's `replay_stream` (DESIGN §13).
pub const DEFAULT_CHUNK: usize = 65_536;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: the standard statistically-strong 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic per-entity draw: mixes a model seed, a purpose salt, and
/// an entity index into one well-distributed u64.
fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    splitmix64(seed ^ salt.rotate_left(17) ^ i.wrapping_mul(GOLDEN))
}

/// The per-record RNG. Seeding from `(seed, i)` — never from stream
/// position — is what makes records independent of chunking and lets a
/// shard skip foreign records without consuming RNG state.
fn record_rng(seed: u64, i: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed, 0x5EED_CAFE, i))
}

/// Draws record `i`'s timestamp inside its stratified window
/// `[i·d/t, (i+1)·d/t)` (windows clamp to ≥ 1 µs), making the stream
/// non-decreasing in time without a sort.
///
/// With `d = q·t + r` the next window starts `q` further on, plus one when
/// the two remainders carry — one division of the `u128` product `i·d`
/// gives both bounds.
fn stratified_at(rng: &mut SmallRng, i: u64, total: u64, dur_us: u64) -> u64 {
    let d = dur_us.max(1);
    let t = total.max(1);
    let (q, r) = ((d / t) as u128, (d % t) as u128);
    let (id, t) = (i as u128 * d as u128, t as u128);
    let start = id / t;
    let end = start + q + u128::from(id - start * t + r >= t);
    let (start, end) = (start as u64, end as u64);
    rng.gen_range(start..end.max(start + 1))
}

/// Response scopes an authoritative hands IPv6 (/48) client subnets.
const V6_SCOPE_MENU: &[u8] = &[48, 48, 48, 56, 40, 32];

/// One response scope per name, each drawn uniformly from `menu`.
fn scope_table(rng: &mut SmallRng, names: usize, menu: &[u8]) -> Vec<u8> {
    (0..names)
        .map(|_| *menu.choose(rng).expect("non-empty"))
        .collect()
}

// ---------------------------------------------------------------------------
// Name arena
// ---------------------------------------------------------------------------

/// Arena-backed name table: all hostnames in one contiguous `String` with
/// `(offset, len)` spans, per-name TTLs, and a Zipf popularity sampler.
///
/// The generator hot loop deals in `u32` name ids exclusively; parsing a
/// [`Name`] (per-label heap allocation) happens only on
/// [`NameTable::name`], i.e. when materializing.
#[derive(Debug, Clone)]
pub struct NameTable {
    arena: String,
    spans: Vec<(u32, u32)>,
    ttls: Vec<u32>,
    popularity: Zipf,
}

impl NameTable {
    /// Builds the arena from a generated universe, with popularity
    /// exponent `s` (the universe's own sampler is not reused so the
    /// exponent is explicit at the call site).
    pub fn from_universe(universe: &NameUniverse, s: f64) -> Self {
        let mut arena = String::new();
        let mut spans = Vec::with_capacity(universe.len());
        let mut ttls = Vec::with_capacity(universe.len());
        for i in 0..universe.len() {
            let text = universe.name(i).to_string();
            let off = arena.len() as u32;
            arena.push_str(&text);
            spans.push((off, text.len() as u32));
            ttls.push(universe.ttl(i));
        }
        NameTable {
            arena,
            spans,
            ttls,
            popularity: Zipf::new(universe.len().max(1), s),
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the table holds no names.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The ascii text of name `id`, borrowed from the arena.
    pub fn get_str(&self, id: u32) -> &str {
        let (off, len) = self.spans[id as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Parses name `id` out of the arena (allocates; materialize-only).
    pub fn name(&self, id: u32) -> Name {
        Name::from_ascii(self.get_str(id)).expect("arena holds valid names")
    }

    /// Authoritative TTL of name `id`.
    pub fn ttl(&self, id: u32) -> u32 {
        self.ttls[id as usize]
    }

    /// Samples a name id by popularity.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        self.popularity.sample(rng) as u32
    }
}

// ---------------------------------------------------------------------------
// Arithmetic address space
// ---------------------------------------------------------------------------

/// O(1) arithmetic addressing for client subnets and resolver addresses —
/// no materialized pools, which is what admits 50M-client runs.
///
/// IPv4 `/24`s are indexed through a table of usable first octets (every
/// octet whose whole `/8` is free of reserved space:
/// loopback, RFC1918, CGN, link-local, 192/198 special-use, multicast),
/// giving ~14.1M blocks; client indices past that roll over to IPv6 `/48`s
/// in the same `2400::`-style space [`topology::AddrAllocator`] uses.
/// Resolver addresses come from the *top* of the IPv4 table so they can
/// never collide with client subnets.
#[derive(Debug, Clone)]
pub struct SubnetSpace {
    valid_octets: Vec<u8>,
    v4_cap: u64,
    reserved_top: u64,
}

impl SubnetSpace {
    /// Creates the space, reserving `reserved_top` IPv4 `/24`s at the top
    /// of the table for resolver addresses.
    pub fn new(reserved_top: u64) -> Self {
        let valid_octets: Vec<u8> = (1u8..=223)
            .filter(|o| !matches!(o, 10 | 100 | 127 | 169 | 172 | 192 | 198))
            .collect();
        let v4_cap = valid_octets.len() as u64 * 65_536;
        assert!(reserved_top < v4_cap, "too many resolvers for v4 space");
        SubnetSpace {
            valid_octets,
            v4_cap,
            reserved_top,
        }
    }

    /// Number of IPv4 `/24`s available to clients.
    pub fn v4_client_cap(&self) -> u64 {
        self.v4_cap - self.reserved_top
    }

    /// The IPv4 `/24` at table index `idx` (`idx < v4_cap`).
    fn v4_block(&self, idx: u64) -> IpPrefix {
        debug_assert!(idx < self.v4_cap);
        let o0 = self.valid_octets[(idx / 65_536) as usize] as u32;
        let rest = (idx % 65_536) as u32;
        IpPrefix::v4(Ipv4Addr::from((o0 << 24) | (rest << 8)), 24).expect("24 <= 32")
    }

    /// The IPv6 `/48` at index `idx`.
    fn v6_block(&self, idx: u64) -> IpPrefix {
        let block = 0x2400_0000_0000u64.wrapping_add(idx);
        IpPrefix::v6(Ipv6Addr::from((block as u128) << 80), 48).expect("48 <= 128")
    }

    /// Client subnet `g`: IPv4 `/24`s first, IPv6 `/48`s past the cap.
    pub fn client_subnet(&self, g: u64) -> IpPrefix {
        let avail = self.v4_client_cap();
        if g < avail {
            self.v4_block(g)
        } else {
            self.v6_block(g - avail)
        }
    }

    /// A specific host inside `subnet` (`host` ≥ 1; ≤ 254 for IPv4).
    pub fn host_in(subnet: &IpPrefix, host: u64) -> IpAddr {
        match subnet.addr() {
            IpAddr::V4(a) => {
                debug_assert!((1..=254).contains(&host));
                IpAddr::V4(Ipv4Addr::from(u32::from(a) | host as u32))
            }
            IpAddr::V6(a) => IpAddr::V6(Ipv6Addr::from(u128::from(a) | host as u128)),
        }
    }

    /// Resolver `r`'s address: host `.1` of the `r`-th `/24` from the top
    /// of the IPv4 table (`r < reserved_top`).
    pub fn resolver_addr(&self, r: u64) -> IpAddr {
        debug_assert!(r < self.reserved_top);
        Self::host_in(&self.v4_block(self.v4_cap - 1 - r), 1)
    }
}

// ---------------------------------------------------------------------------
// Stream records and the model trait
// ---------------------------------------------------------------------------

/// One interned record of a streamed trace. The `resolver_id`/`name_id`
/// pair indexes the model's [`WorkloadModel::resolver_addrs`] /
/// [`WorkloadModel::names`] tables; no heap allocation per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRecord {
    /// Position in the full stream (stable across shards and chunk sizes).
    pub index: u64,
    /// Timestamp, microseconds from trace start (non-decreasing in
    /// `index`).
    pub at_micros: u64,
    /// Resolver id into [`WorkloadModel::resolver_addrs`].
    pub resolver_id: u32,
    /// Name id into [`WorkloadModel::names`].
    pub name_id: u32,
    /// Query type.
    pub qtype: RecordType,
    /// ECS source prefix sent upstream, if any.
    pub ecs_source: Option<IpPrefix>,
    /// Scope prefix length from the response, if any.
    pub response_scope: Option<u8>,
    /// Authoritative TTL.
    pub ttl: u32,
    /// Client address behind the resolver, when the dataset records one.
    pub client: Option<IpAddr>,
}

/// A seeded workload shape that can compute any record on demand.
///
/// `record(i)` must be a pure function of `(self, i)`, and `resolver_of(i)`
/// must return `record(i).resolver_id` while doing as little work as
/// possible — it is the shard filter, evaluated for *every* index by
/// *every* shard. Models guarantee that the resolver draw is the first
/// draw of the per-record RNG so the cheap path stays consistent with the
/// full one.
pub trait WorkloadModel: Send + Sync {
    /// Trace label (dataset name).
    fn label(&self) -> &str;
    /// Total records in the stream.
    fn total(&self) -> u64;
    /// Resolver id → address table.
    fn resolver_addrs(&self) -> &[IpAddr];
    /// The name arena.
    fn names(&self) -> &NameTable;
    /// Resolver id of record `i` (cheap shard filter).
    fn resolver_of(&self, i: u64) -> u32;
    /// The full record `i`.
    fn record(&self, i: u64) -> StreamRecord;
}

// ---------------------------------------------------------------------------
// CDN model (fig1 shape)
// ---------------------------------------------------------------------------

/// Streaming counterpart of [`crate::PublicCdnTraceGen`]: many egress
/// resolvers of a whitelisted public service, Zipf resolver volume,
/// per-resolver client-subnet pools, fixed TTL, no client addresses.
#[derive(Debug, Clone)]
pub struct CdnStreamGen {
    /// Number of egress resolvers (paper: 2370).
    pub resolvers: usize,
    /// Mean client `/24` pool size per resolver (spread 1..2× like the
    /// materialized generator).
    pub subnets_per_resolver: usize,
    /// Distinct CDN hostnames.
    pub hostnames: usize,
    /// Total records in the stream.
    pub queries: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Fixed authoritative TTL.
    pub ttl: u32,
    /// Model seed.
    pub seed: u64,
}

impl Default for CdnStreamGen {
    fn default() -> Self {
        CdnStreamGen {
            resolvers: 120,
            subnets_per_resolver: 40,
            hostnames: 400,
            queries: 400_000,
            duration: SimDuration::from_secs(3 * 3600),
            ttl: 20,
            seed: 0,
        }
    }
}

impl CdnStreamGen {
    /// Builds the model tables (names, scopes, pool layout, addresses).
    pub fn build(&self) -> CdnStreamModel {
        let mut universe =
            NameUniverse::generate((self.hostnames / 4).max(1), 4, 1.0, self.seed ^ 0x5EED);
        universe.set_uniform_ttl(self.ttl);
        let names = NameTable::from_universe(&universe, 1.0);
        let mut scope_rng = SmallRng::seed_from_u64(mix(self.seed, 0x5C09E, 0));
        let v4_scopes = scope_table(
            &mut scope_rng,
            names.len(),
            &[24, 24, 24, 24, 24, 16, 16, 8],
        );
        // Subnets past the IPv4 cap are /48s and need scopes of their own
        // family: a /24 scope folds every `2400:…` client into one entry.
        // Its own salted RNG, so the IPv4 table — and every stream below
        // the cap — does not depend on it.
        let mut v6_scope_rng = SmallRng::seed_from_u64(mix(self.seed, 0x5C09E6, 0));
        let v6_scopes = scope_table(&mut v6_scope_rng, names.len(), V6_SCOPE_MENU);
        let space = SubnetSpace::new(self.resolvers as u64);
        let resolver_addrs: Vec<IpAddr> = (0..self.resolvers as u64)
            .map(|r| space.resolver_addr(r))
            .collect();
        // Pool sizes spread 1..2× around the mean, laid out as prefix sums
        // over one global subnet index space: resolver r owns subnets
        // [pool_base[r], pool_base[r+1]).
        let mut pool_base: Vec<u64> = Vec::with_capacity(self.resolvers + 1);
        let mut acc = 0u64;
        for r in 0..self.resolvers as u64 {
            pool_base.push(acc);
            let n = if self.subnets_per_resolver <= 1 {
                1
            } else {
                1 + mix(self.seed, 0xB001, r) % (2 * self.subnets_per_resolver as u64 - 1)
            };
            acc += n;
        }
        pool_base.push(acc);
        CdnStreamModel {
            config: self.clone(),
            names,
            v4_scopes,
            v6_scopes,
            resolver_addrs,
            pool_base,
            volume: Zipf::new(self.resolvers.max(1), 0.8),
            space,
            dur_us: self.duration.as_micros(),
            label: "public-resolver/cdn-stream".to_string(),
        }
    }

    /// Convenience: build and wrap in a source with the default chunk
    /// size.
    pub fn source(&self) -> TraceStreamSource<CdnStreamModel> {
        TraceStreamSource::new(self.build())
    }
}

/// Built CDN stream model. See [`CdnStreamGen`].
#[derive(Debug, Clone)]
pub struct CdnStreamModel {
    config: CdnStreamGen,
    names: NameTable,
    v4_scopes: Vec<u8>,
    v6_scopes: Vec<u8>,
    resolver_addrs: Vec<IpAddr>,
    pool_base: Vec<u64>,
    volume: Zipf,
    space: SubnetSpace,
    dur_us: u64,
    label: String,
}

impl WorkloadModel for CdnStreamModel {
    fn label(&self) -> &str {
        &self.label
    }

    fn total(&self) -> u64 {
        self.config.queries
    }

    fn resolver_addrs(&self) -> &[IpAddr] {
        &self.resolver_addrs
    }

    fn names(&self) -> &NameTable {
        &self.names
    }

    fn resolver_of(&self, i: u64) -> u32 {
        let mut rng = record_rng(self.config.seed, i);
        self.volume.sample(&mut rng) as u32
    }

    fn record(&self, i: u64) -> StreamRecord {
        let mut rng = record_rng(self.config.seed, i);
        let r = self.volume.sample(&mut rng);
        let at_micros = stratified_at(&mut rng, i, self.config.queries, self.dur_us);
        let pool_len = self.pool_base[r + 1] - self.pool_base[r];
        let p = rng.gen_range(0..pool_len);
        let subnet = self.space.client_subnet(self.pool_base[r] + p);
        let n = self.names.sample(&mut rng);
        let scopes = if subnet.is_v4() {
            &self.v4_scopes
        } else {
            &self.v6_scopes
        };
        StreamRecord {
            index: i,
            at_micros,
            resolver_id: r as u32,
            name_id: n,
            qtype: RecordType::A,
            ecs_source: Some(subnet),
            response_scope: Some(scopes[n as usize]),
            ttl: self.config.ttl,
            client: None,
        }
    }
}

// ---------------------------------------------------------------------------
// All-Names model (fig2/fig3 shape)
// ---------------------------------------------------------------------------

/// Streaming counterpart of [`crate::AllNamesTraceGen`]: one busy egress
/// resolver, v4+v6 client subnets with recorded client addresses, real TTL
/// mix and per-family scopes.
///
/// One deliberate simplification versus the materialized generator: every
/// subnet holds exactly `clients_per_subnet` clients (the materialized one
/// spreads 1..2×), which keeps client addressing O(1) in memory. The
/// fig2/fig3 shapes depend on the subnet count and popularity mix, not on
/// that spread.
#[derive(Debug, Clone)]
pub struct AllNamesStreamGen {
    /// IPv4 client `/24` subnets.
    pub v4_subnets: u64,
    /// IPv6 client `/48` subnets.
    pub v6_subnets: u64,
    /// Clients per subnet (exact; 1–254).
    pub clients_per_subnet: u32,
    /// Second-level domains.
    pub slds: usize,
    /// Hostnames per SLD (1..2× spread).
    pub hostnames_per_sld: usize,
    /// Total records in the stream.
    pub queries: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Zipf exponent of name popularity.
    pub zipf_exponent: f64,
    /// Model seed.
    pub seed: u64,
}

impl Default for AllNamesStreamGen {
    fn default() -> Self {
        AllNamesStreamGen {
            v4_subnets: 1230,
            v6_subnets: 280,
            clients_per_subnet: 5,
            slds: 1900,
            hostnames_per_sld: 7,
            queries: 1_500_000,
            duration: SimDuration::from_secs(24 * 3600),
            zipf_exponent: 1.25,
            seed: 0,
        }
    }
}

impl AllNamesStreamGen {
    /// Builds the model tables.
    pub fn build(&self) -> AllNamesStreamModel {
        assert!(
            (1..=254).contains(&self.clients_per_subnet),
            "clients_per_subnet must be 1–254"
        );
        let universe = NameUniverse::generate(
            self.slds,
            self.hostnames_per_sld,
            self.zipf_exponent,
            self.seed ^ 0xA11,
        );
        let names = NameTable::from_universe(&universe, self.zipf_exponent);
        let mut scope_rng = SmallRng::seed_from_u64(mix(self.seed, 0x5C09E, 1));
        let v4_scopes = scope_table(
            &mut scope_rng,
            names.len(),
            &[24, 24, 24, 24, 20, 16, 16, 12],
        );
        let v6_scopes = scope_table(&mut scope_rng, names.len(), V6_SCOPE_MENU);
        let space = SubnetSpace::new(1);
        let resolver_addrs = vec![space.resolver_addr(0)];
        AllNamesStreamModel {
            config: self.clone(),
            names,
            v4_scopes,
            v6_scopes,
            resolver_addrs,
            space,
            total_clients: (self.v4_subnets + self.v6_subnets)
                .max(1)
                .saturating_mul(self.clients_per_subnet as u64),
            dur_us: self.duration.as_micros(),
            label: "all-names-stream".to_string(),
        }
    }

    /// Convenience: build and wrap in a source with the default chunk
    /// size.
    pub fn source(&self) -> TraceStreamSource<AllNamesStreamModel> {
        TraceStreamSource::new(self.build())
    }
}

/// Built All-Names stream model. See [`AllNamesStreamGen`].
#[derive(Debug, Clone)]
pub struct AllNamesStreamModel {
    config: AllNamesStreamGen,
    names: NameTable,
    v4_scopes: Vec<u8>,
    v6_scopes: Vec<u8>,
    resolver_addrs: Vec<IpAddr>,
    space: SubnetSpace,
    total_clients: u64,
    dur_us: u64,
    label: String,
}

impl WorkloadModel for AllNamesStreamModel {
    fn label(&self) -> &str {
        &self.label
    }

    fn total(&self) -> u64 {
        self.config.queries
    }

    fn resolver_addrs(&self) -> &[IpAddr] {
        &self.resolver_addrs
    }

    fn names(&self) -> &NameTable {
        &self.names
    }

    fn resolver_of(&self, _i: u64) -> u32 {
        0
    }

    fn record(&self, i: u64) -> StreamRecord {
        let mut rng = record_rng(self.config.seed, i);
        let at_micros = stratified_at(&mut rng, i, self.config.queries, self.dur_us);
        let g = rng.gen_range(0..self.total_clients);
        let n = self.names.sample(&mut rng);
        let subnet_idx = g / self.config.clients_per_subnet as u64;
        let host = 1 + g % self.config.clients_per_subnet as u64;
        let (subnet, qtype, scope) = if subnet_idx < self.config.v4_subnets {
            // Client indices use the space's *client* range directly: with
            // one reserved top block the resolver can never collide.
            let block = self.space.client_subnet(subnet_idx);
            (block, RecordType::A, self.v4_scopes[n as usize])
        } else {
            let block = self
                .space
                .client_subnet(self.space.v4_client_cap() + (subnet_idx - self.config.v4_subnets));
            (block, RecordType::Aaaa, self.v6_scopes[n as usize])
        };
        StreamRecord {
            index: i,
            at_micros,
            resolver_id: 0,
            name_id: n,
            qtype,
            ecs_source: Some(subnet),
            response_scope: Some(scope),
            ttl: self.names.ttl(n),
            client: Some(SubnetSpace::host_in(&subnet, host)),
        }
    }
}

// ---------------------------------------------------------------------------
// Source and stream cursors
// ---------------------------------------------------------------------------

/// A shareable handle over a [`WorkloadModel`]: opens full streams,
/// per-shard substreams, and (for cross-checks) a materialized
/// [`TraceSet`]. `Arc`-backed, cheap to clone across worker threads.
#[derive(Debug)]
pub struct TraceStreamSource<M> {
    model: Arc<M>,
    chunk_size: usize,
}

impl<M> Clone for TraceStreamSource<M> {
    fn clone(&self) -> Self {
        TraceStreamSource {
            model: Arc::clone(&self.model),
            chunk_size: self.chunk_size,
        }
    }
}

impl<M: WorkloadModel> TraceStreamSource<M> {
    /// Wraps a model with the default chunk size.
    pub fn new(model: M) -> Self {
        TraceStreamSource {
            model: Arc::new(model),
            chunk_size: DEFAULT_CHUNK,
        }
    }

    /// Overrides the chunk size (clamped to ≥ 1). Content never depends on
    /// it.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Records per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Total records in the stream.
    pub fn total(&self) -> u64 {
        self.model.total()
    }

    /// Opens the full stream.
    pub fn open(&self) -> TraceStream<M> {
        self.open_shard(0, 1)
    }

    /// Opens shard `shard` of `num_shards`: the substream of records whose
    /// resolver id satisfies `rid % num_shards == shard`, in index order.
    pub fn open_shard(&self, shard: usize, num_shards: usize) -> TraceStream<M> {
        assert!(num_shards >= 1, "num_shards must be >= 1");
        assert!(shard < num_shards, "shard out of range");
        TraceStream {
            model: Arc::clone(&self.model),
            chunk_size: self.chunk_size,
            next: 0,
            shard: shard as u32,
            num_shards: num_shards as u32,
        }
    }

    /// Materializes the whole stream as a classic [`TraceSet`] (index
    /// built, already time-ordered by construction). For cross-checks and
    /// small runs only — this is exactly the allocation streaming exists
    /// to avoid.
    pub fn materialize(&self) -> TraceSet {
        let names = self.model.names();
        let parsed: Vec<Name> = (0..names.len()).map(|i| names.name(i as u32)).collect();
        let addrs = self.model.resolver_addrs();
        let mut set = TraceSet::new(self.model.label());
        set.records.reserve(self.total() as usize);
        let mut stream = self.open();
        let mut buf = Vec::with_capacity(self.chunk_size);
        while stream.next_chunk_into(&mut buf) {
            for r in &buf {
                set.records.push(TraceRecord {
                    at_micros: r.at_micros,
                    resolver: addrs[r.resolver_id as usize],
                    qname: parsed[r.name_id as usize].clone(),
                    qtype: r.qtype,
                    ecs_source: r.ecs_source,
                    response_scope: r.response_scope,
                    ttl: r.ttl,
                    client: r.client,
                });
            }
        }
        debug_assert!(set
            .records
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros));
        set.build_index();
        set
    }
}

/// A cursor over one (sub)stream. Pull chunks with
/// [`TraceStream::next_chunk_into`], reusing one buffer.
#[derive(Debug)]
pub struct TraceStream<M> {
    model: Arc<M>,
    chunk_size: usize,
    next: u64,
    shard: u32,
    num_shards: u32,
}

impl<M: WorkloadModel> TraceStream<M> {
    /// Fills `buf` with the next chunk (clearing it first). Returns `false`
    /// at end of stream. `buf` never exceeds the source's chunk size, so a
    /// caller reusing one buffer holds memory for exactly one chunk.
    pub fn next_chunk_into(&mut self, buf: &mut Vec<StreamRecord>) -> bool {
        buf.clear();
        let total = self.model.total();
        if self.num_shards == 1 {
            while self.next < total && buf.len() < self.chunk_size {
                buf.push(self.model.record(self.next));
                self.next += 1;
            }
        } else {
            while self.next < total && buf.len() < self.chunk_size {
                let i = self.next;
                self.next += 1;
                if self.model.resolver_of(i) % self.num_shards == self.shard {
                    buf.push(self.model.record(i));
                }
            }
        }
        !buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdn_small() -> CdnStreamGen {
        CdnStreamGen {
            resolvers: 7,
            subnets_per_resolver: 5,
            hostnames: 40,
            queries: 4000,
            duration: SimDuration::from_secs(600),
            ttl: 20,
            seed: 3,
        }
    }

    fn all_names_small() -> AllNamesStreamGen {
        AllNamesStreamGen {
            v4_subnets: 50,
            v6_subnets: 10,
            clients_per_subnet: 3,
            slds: 60,
            hostnames_per_sld: 3,
            queries: 5000,
            ..AllNamesStreamGen::default()
        }
    }

    fn collect_all<M: WorkloadModel>(source: &TraceStreamSource<M>) -> Vec<StreamRecord> {
        let mut stream = source.open();
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while stream.next_chunk_into(&mut buf) {
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn chunk_size_never_changes_content() {
        let model = cdn_small();
        let baseline = collect_all(&TraceStreamSource::new(model.build()));
        assert_eq!(baseline.len(), 4000);
        for chunk in [1usize, 17, 1000, 65_536] {
            let alt = collect_all(&TraceStreamSource::new(model.build()).with_chunk_size(chunk));
            assert_eq!(alt, baseline, "chunk={chunk}");
        }
    }

    #[test]
    fn shards_partition_the_stream() {
        let source = cdn_small().source();
        let full = collect_all(&source);
        for num_shards in [1usize, 2, 3, 5] {
            let mut merged: Vec<StreamRecord> = Vec::new();
            for shard in 0..num_shards {
                let mut stream = source.open_shard(shard, num_shards);
                let mut buf = Vec::new();
                while stream.next_chunk_into(&mut buf) {
                    for r in &buf {
                        assert_eq!(r.resolver_id as usize % num_shards, shard);
                    }
                    merged.extend_from_slice(&buf);
                }
            }
            merged.sort_by_key(|r| r.index);
            assert_eq!(merged, full, "shards={num_shards}");
        }
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let a = collect_all(&cdn_small().source());
        let b = collect_all(&cdn_small().source());
        assert_eq!(a, b);
        let c = collect_all(
            &CdnStreamGen {
                seed: 4,
                ..cdn_small()
            }
            .source(),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_are_monotone_and_bounded() {
        for total in [100u64, 4000] {
            let source = CdnStreamGen {
                queries: total,
                ..cdn_small()
            }
            .source();
            let records = collect_all(&source);
            assert!(records.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
            let dur = cdn_small().duration.as_micros();
            assert!(records.iter().all(|r| r.at_micros < dur));
            // Stratification spreads records across the window.
            assert!(records.last().unwrap().at_micros > dur / 2);
        }
    }

    #[test]
    fn cdn_materialize_matches_stream() {
        let source = cdn_small().source().with_chunk_size(333);
        let records = collect_all(&source);
        let set = source.materialize();
        assert_eq!(set.len(), records.len());
        let model = source.model();
        for (rec, mat) in records.iter().zip(&set.records) {
            assert_eq!(mat.at_micros, rec.at_micros);
            assert_eq!(
                mat.resolver,
                model.resolver_addrs()[rec.resolver_id as usize]
            );
            assert_eq!(mat.qname, model.names().name(rec.name_id));
            assert_eq!(mat.ecs_source, rec.ecs_source);
            assert_eq!(mat.response_scope, rec.response_scope);
            assert_eq!(mat.ttl, rec.ttl);
        }
        assert!(set.index().is_some(), "materialize builds the index");
    }

    #[test]
    fn all_names_shape() {
        let source = all_names_small().source();
        let records = collect_all(&source);
        assert_eq!(records.len(), 5000);
        assert!(records.iter().all(|r| r.resolver_id == 0));
        // Mixed families, each with the right qtype, client inside subnet.
        assert!(records.iter().any(|r| r.qtype == RecordType::A));
        assert!(records.iter().any(|r| r.qtype == RecordType::Aaaa));
        for r in &records {
            let subnet = r.ecs_source.expect("all records carry ECS");
            let client = r.client.expect("all records carry a client");
            assert!(subnet.contains(client), "{client} not in {subnet}");
            match client {
                IpAddr::V4(_) => assert_eq!(r.qtype, RecordType::A),
                IpAddr::V6(_) => assert_eq!(r.qtype, RecordType::Aaaa),
            }
            assert!(r.response_scope.unwrap() > 0);
        }
        // TTL mix is diverse (universe buckets).
        let ttls: std::collections::HashSet<u32> = records.iter().map(|r| r.ttl).collect();
        assert!(ttls.len() >= 3);
    }

    #[test]
    fn subnet_space_is_collision_free() {
        let space = SubnetSpace::new(32);
        let mut seen = std::collections::HashSet::new();
        for g in 0..5000u64 {
            let p = space.client_subnet(g);
            assert!(!p.is_non_routable(), "{p}");
            assert!(seen.insert(p), "duplicate {p}");
        }
        // Rollover to v6 past the v4 client cap.
        let v6 = space.client_subnet(space.v4_client_cap() + 7);
        assert!(!v6.is_v4());
        assert!(seen.insert(v6));
        // Resolver addresses never collide with client subnets.
        for r in 0..32u64 {
            let addr = space.resolver_addr(r);
            assert!(
                (0..5000u64).all(|g| !space.client_subnet(g).contains(addr)),
                "resolver {addr} inside client space"
            );
        }
    }

    #[test]
    fn overflow_v6_subnets_keep_v6_scopes() {
        // DESIGN §13's 50M-client shape: 40 × 1.25M subnets is 3.5× the
        // IPv4 cap, so most client subnets are /48s.
        let model = CdnStreamGen {
            resolvers: 40,
            subnets_per_resolver: 1_250_000,
            hostnames: 150,
            queries: 60_000,
            ..CdnStreamGen::default()
        }
        .build();
        let mut v6_subnets = std::collections::HashSet::new();
        let mut v6_cache_scopes = std::collections::HashSet::new();
        for i in 0..model.total() {
            let r = model.record(i);
            let (src, scope) = (r.ecs_source.unwrap(), r.response_scope.unwrap());
            if src.is_v4() {
                assert!(scope <= 24, "v4 scope {scope}");
            } else {
                assert!((32..=56).contains(&scope), "v6 scope {scope}");
                v6_subnets.insert(src);
                // What the replay caches under (cache_sim's truncation).
                v6_cache_scopes.insert(src.truncate(scope.min(src.len())));
            }
        }
        assert!(v6_subnets.len() > 10_000, "{}", v6_subnets.len());
        assert!(
            v6_cache_scopes.len() * 2 >= v6_subnets.len(),
            "{} /48s collapse into {} cache scopes",
            v6_subnets.len(),
            v6_cache_scopes.len()
        );
    }

    #[test]
    fn name_table_roundtrips_universe() {
        let universe = NameUniverse::generate(30, 4, 1.0, 9);
        let table = NameTable::from_universe(&universe, 1.0);
        assert_eq!(table.len(), universe.len());
        for i in 0..universe.len() {
            assert_eq!(&table.name(i as u32), universe.name(i));
            assert_eq!(table.ttl(i as u32), universe.ttl(i));
        }
        assert!(!table.is_empty());
    }

    #[test]
    fn resolver_of_matches_record() {
        let source = cdn_small().source();
        let model = source.model();
        for i in 0..500u64 {
            assert_eq!(model.resolver_of(i), model.record(i).resolver_id);
        }
        let an = all_names_small().build();
        for i in 0..100u64 {
            assert_eq!(an.resolver_of(i), an.record(i).resolver_id);
        }
    }
}
