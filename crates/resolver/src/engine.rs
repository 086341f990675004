//! The synchronous resolution engine.
//!
//! [`Resolver::resolve_msg`] runs one full client interaction: cache
//! lookup, ECS decision, upstream query, cache insert, client response.
//! The upstream side is abstracted by [`Upstream`] so experiments can wire
//! a single [`AuthServer`], a routing table over many ([`ZoneRouter`]), or
//! a recorded trace.

use std::net::IpAddr;

use authoritative::AuthServer;
use dns_wire::{Message, Name, Rcode};
use netsim::SimTime;
use obs::{EventKind, TraceCtx, Tracer};

use crate::cache::{CacheStats, EcsCache};
use crate::config::ResolverConfig;
use crate::exchange::Action;
use crate::probing::{EcsDecision, ProbingState};

/// Why an upstream exchange failed at the transport layer.
///
/// In-band DNS failures (SERVFAIL, FORMERR, REFUSED arriving as parseable
/// messages) are *not* errors at this level — they come back as `Ok`
/// messages, exactly as a socket would deliver them. The error variants
/// cover the cases where no usable message arrived at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpstreamError {
    /// No (matching) reply before the transport timeout — the lost-packet
    /// case RFC 7871 §7.1.3 tells resolvers to treat as possible ECS
    /// intolerance.
    Timeout,
    /// The reply arrived truncated (TC) and unusable over UDP; carries the
    /// truncated message so callers can inspect it before retrying over
    /// TCP.
    Truncated(Box<Message>),
    /// The transport itself failed and the failure is best classified by
    /// an RCODE (e.g. an ICMP-unreachable mapped to SERVFAIL by a stub).
    Rcode(Rcode),
}

impl std::fmt::Display for UpstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpstreamError::Timeout => write!(f, "upstream query timed out"),
            UpstreamError::Truncated(_) => write!(f, "upstream reply truncated"),
            UpstreamError::Rcode(rc) => write!(f, "upstream transport failure ({rc:?})"),
        }
    }
}

impl std::error::Error for UpstreamError {}

/// Where a resolver sends its upstream queries.
///
/// The contract is fallible: transports that can lose packets or truncate
/// replies surface those as [`UpstreamError`]s, and the engine's retry
/// policy ([`crate::config::RetryPolicy`]) decides what happens next.
/// In-process upstreams (an [`AuthServer`], a [`ZoneRouter`]) are
/// infallible and always return `Ok`.
pub trait Upstream {
    /// Performs one upstream exchange: the resolver at `from` sends `q`,
    /// the authoritative side answers.
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError>;

    /// Retries an exchange over TCP after a truncated UDP reply (RFC 7766).
    /// Defaults to [`Upstream::query`] — correct for upstreams that never
    /// truncate; socket-backed implementations override this with a real
    /// TCP exchange.
    fn query_tcp(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        self.query(q, from, now)
    }

    /// Performs one exchange over an explicit transport (the ladder rungs
    /// of [`crate::TransportPolicy`]). The default maps the datagram
    /// transport to [`Upstream::query`] and every stream transport (TCP,
    /// DoT, DoH) to [`Upstream::query_tcp`] — correct for upstreams that
    /// don't model transports; transport-aware implementations
    /// ([`crate::TransportUpstream`]) override this.
    fn query_via(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
        transport: netsim::Transport,
    ) -> Result<Message, UpstreamError> {
        match transport {
            netsim::Transport::Udp => self.query(q, from, now),
            _ => self.query_tcp(q, from, now),
        }
    }
}

impl Upstream for AuthServer {
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError> {
        Ok(self.handle(q, from, now))
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        Ok(self.handle_stream(q, from, now))
    }
}

/// Routes upstream queries to the authoritative server whose zone apex
/// contains the question name (longest apex wins). Unmatched queries get
/// REFUSED.
#[derive(Default)]
pub struct ZoneRouter {
    routes: Vec<(Name, AuthServer)>,
}

impl ZoneRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a server; its zone apex becomes the route key.
    pub fn add(&mut self, server: AuthServer) {
        let apex = server.zone().apex().clone();
        self.routes.push((apex, server));
        // Longest apex first so the most specific zone wins.
        self.routes
            .sort_by_key(|(apex, _)| std::cmp::Reverse(apex.label_count()));
    }

    /// The server responsible for a name, if any.
    pub fn server_for(&mut self, name: &Name) -> Option<&mut AuthServer> {
        self.routes
            .iter_mut()
            .find(|(apex, _)| name.is_subdomain_of(apex))
            .map(|(_, s)| s)
    }

    /// Immutable access for assertions in tests/experiments.
    pub fn servers(&self) -> impl Iterator<Item = &AuthServer> {
        self.routes.iter().map(|(_, s)| s)
    }

    /// Answers `q` from the server responsible for its name, through
    /// `serve`; REFUSED when no zone matches, FORMERR without a question.
    fn route(&mut self, q: &Message, serve: impl FnOnce(&mut AuthServer) -> Message) -> Message {
        let rcode = match q.question() {
            Some(qq) => match self.server_for(&qq.name) {
                Some(server) => return serve(server),
                None => Rcode::Refused,
            },
            None => Rcode::FormErr,
        };
        let mut resp = Message::response_to(q);
        resp.rcode = rcode;
        resp
    }
}

impl Upstream for ZoneRouter {
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError> {
        Ok(self.route(q, |server| server.handle(q, from, now)))
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        Ok(self.route(q, |server| server.handle_stream(q, from, now)))
    }
}

/// Counters for one resolver's upstream traffic. All counters update with
/// saturating arithmetic — overload is exactly when they get hammered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries handled.
    pub client_queries: u64,
    /// Queries sent upstream (cache misses + probe bypasses + retries).
    pub upstream_queries: u64,
    /// Upstream queries that carried an ECS option.
    pub upstream_ecs_queries: u64,
    /// Retransmissions after a failed attempt.
    pub retries: u64,
    /// Attempts that ended in a transport timeout.
    pub upstream_timeouts: u64,
    /// ECS options withdrawn from a retry (RFC 7871 §7.1.3 or the FORMERR
    /// downgrade).
    pub ecs_withdrawals: u64,
    /// TC-bit replies that triggered a TCP re-query (RFC 7766).
    pub tcp_fallbacks: u64,
    /// Transport-ladder edges taken: exchanges that moved to the next
    /// rung of the [`crate::TransportPolicy`] ladder (truncation jumps
    /// and exhausted-budget falls).
    pub transport_fallbacks: u64,
    /// Client queries answered SERVFAIL after the attempt budget ran out.
    pub servfail_responses: u64,
    /// Client queries shed by admission control (in-flight cap).
    pub shed_queries: u64,
    /// Client queries that joined an existing upstream flight.
    pub coalesced_queries: u64,
    /// Client queries answered from expired cache entries (RFC 8767).
    pub stale_answers: u64,
}

/// Registry-backed handles behind [`ResolverStats`]. The registry is the
/// single source of truth; [`Resolver::stats`] reconstructs the legacy
/// struct from counter loads, so existing readers see identical values.
#[derive(Debug)]
pub(crate) struct ResolverMetrics {
    registry: obs::MetricsRegistry,
    client_queries: obs::Counter,
    pub(crate) upstream_queries: obs::Counter,
    pub(crate) upstream_ecs_queries: obs::Counter,
    pub(crate) retries: obs::Counter,
    pub(crate) upstream_timeouts: obs::Counter,
    pub(crate) ecs_withdrawals: obs::Counter,
    pub(crate) tcp_fallbacks: obs::Counter,
    pub(crate) transport_fallbacks: obs::Counter,
    pub(crate) fallbacks_to_tcp: obs::Counter,
    pub(crate) fallbacks_to_dot: obs::Counter,
    pub(crate) fallbacks_to_doh: obs::Counter,
    servfail_responses: obs::Counter,
    shed_queries: obs::Counter,
    coalesced_queries: obs::Counter,
    stale_answers: obs::Counter,
    /// Client-observed resolution latency on the SimTime axis.
    query_latency: obs::Histogram,
}

impl ResolverMetrics {
    fn new() -> Self {
        let registry = obs::MetricsRegistry::new();
        ResolverMetrics {
            client_queries: registry.counter("resolver_client_queries_total"),
            upstream_queries: registry.counter("resolver_upstream_queries_total"),
            upstream_ecs_queries: registry.counter("resolver_upstream_ecs_queries_total"),
            retries: registry.counter("resolver_retries_total"),
            upstream_timeouts: registry.counter("resolver_upstream_timeouts_total"),
            ecs_withdrawals: registry.counter("resolver_ecs_withdrawals_total"),
            tcp_fallbacks: registry.counter("resolver_tcp_fallbacks_total"),
            // Ladder counters are registered eagerly (not on first edge) so
            // differential snapshots of fallback-free runs stay exactly
            // equal across subjects.
            transport_fallbacks: registry.counter("resolver_transport_fallbacks_total"),
            fallbacks_to_tcp: registry.counter("resolver_transport_fallbacks_to_tcp_total"),
            fallbacks_to_dot: registry.counter("resolver_transport_fallbacks_to_dot_total"),
            fallbacks_to_doh: registry.counter("resolver_transport_fallbacks_to_doh_total"),
            servfail_responses: registry.counter("resolver_servfail_responses_total"),
            shed_queries: registry.counter("resolver_shed_queries_total"),
            coalesced_queries: registry.counter("resolver_coalesced_queries_total"),
            stale_answers: registry.counter("resolver_stale_answers_total"),
            query_latency: registry.histogram("resolver_query_latency_us"),
            registry,
        }
    }
}

/// Where a resolver's cache state lives.
///
/// `Owned` is the historical single-threaded arrangement: the engine holds
/// its [`EcsCache`] directly and every call compiles to the same code as
/// before the multi-worker refactor. `Shared` points the engine at a
/// [`SharedEcsCache`] owned jointly by a worker pool — lookups and inserts
/// route through per-shard locks, and everything else about the engine
/// (probing state, stats, retry policy) stays worker-private.
enum CacheSlot {
    Owned(EcsCache),
    Shared(std::sync::Arc<crate::shared_cache::SharedEcsCache>),
}

impl CacheSlot {
    fn lookup(
        &mut self,
        qname: &Name,
        qtype: dns_wire::RecordType,
        client: IpAddr,
        now: SimTime,
    ) -> Option<crate::cache::CachedAnswer> {
        match self {
            CacheSlot::Owned(c) => c.lookup(qname, qtype, client, now),
            CacheSlot::Shared(c) => c.lookup(qname, qtype, client, now),
        }
    }

    fn lookup_stale(
        &mut self,
        qname: &Name,
        qtype: dns_wire::RecordType,
        client: IpAddr,
        now: SimTime,
        serve_ttl: u32,
    ) -> Option<crate::cache::CachedAnswer> {
        match self {
            CacheSlot::Owned(c) => c.lookup_stale(qname, qtype, client, now, serve_ttl),
            CacheSlot::Shared(c) => c.lookup_stale(qname, qtype, client, now, serve_ttl),
        }
    }

    fn insert(
        &mut self,
        qname: Name,
        qtype: dns_wire::RecordType,
        records: Vec<dns_wire::Record>,
        ecs: Option<dns_wire::EcsOption>,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        match self {
            CacheSlot::Owned(c) => c.insert(qname, qtype, records, ecs, ttl, now),
            CacheSlot::Shared(c) => c.insert(qname, qtype, records, ecs, ttl, now),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_with_rcode(
        &mut self,
        qname: Name,
        qtype: dns_wire::RecordType,
        records: Vec<dns_wire::Record>,
        ecs: Option<dns_wire::EcsOption>,
        rcode: Rcode,
        ttl: u32,
        now: SimTime,
    ) -> bool {
        match self {
            CacheSlot::Owned(c) => c.insert_with_rcode(qname, qtype, records, ecs, rcode, ttl, now),
            CacheSlot::Shared(c) => {
                c.insert_with_rcode(qname, qtype, records, ecs, rcode, ttl, now)
            }
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            CacheSlot::Owned(c) => c.stats(),
            CacheSlot::Shared(c) => c.stats(),
        }
    }
}

/// A recursive resolver instance.
pub struct Resolver {
    pub(crate) config: ResolverConfig,
    cache: CacheSlot,
    pub(crate) probing_state: ProbingState,
    pub(crate) stats: ResolverMetrics,
    pub(crate) tracer: Tracer,
    /// Per-SLD learned authoritative scope (see
    /// [`ResolverConfig::adaptive_prefix`]).
    scope_memory: std::collections::HashMap<Name, u8>,
    next_id: u16,
}

impl Resolver {
    /// Creates a resolver from a configuration.
    pub fn new(config: ResolverConfig) -> Self {
        let mut cache = EcsCache::with_limits(
            config.compliance,
            crate::cache::CacheLimits {
                max_entries: config.overload.max_cache_entries,
                max_bytes: config.overload.max_cache_bytes,
                per_name_cap: config.overload.per_name_cap,
                stale_ttl: config.overload.serve_stale_ttl,
            },
        );
        cache.cache_zero_scope = config.cache_zero_scope;
        Resolver {
            config,
            cache: CacheSlot::Owned(cache),
            probing_state: ProbingState::default(),
            stats: ResolverMetrics::new(),
            tracer: Tracer::disabled(),
            scope_memory: std::collections::HashMap::new(),
            next_id: 1,
        }
    }

    /// Creates a resolver whose cache state lives in `cache`, shared with
    /// other engines in a worker pool. The overload cache-bound knobs in
    /// `config` are ignored here — the shared cache carries its own limits
    /// (see [`crate::shared_cache::SharedEcsCache::for_config`]); probing
    /// state, stats, and retry behaviour remain engine-private.
    ///
    /// [`Resolver::metrics_snapshot`] on such an engine excludes the
    /// cache's `cache_*` series: fold
    /// [`crate::shared_cache::SharedEcsCache::snapshot`] exactly once per
    /// pool instead, or the shared counters multiply by the worker count.
    pub fn with_shared_cache(
        config: ResolverConfig,
        cache: std::sync::Arc<crate::shared_cache::SharedEcsCache>,
    ) -> Self {
        Resolver {
            config,
            cache: CacheSlot::Shared(cache),
            probing_state: ProbingState::default(),
            stats: ResolverMetrics::new(),
            tracer: Tracer::disabled(),
            scope_memory: std::collections::HashMap::new(),
            next_id: 1,
        }
    }

    /// The scope learned for a zone so far (adaptive mode).
    pub fn learned_scope(&self, qname: &Name) -> Option<u8> {
        self.scope_memory
            .get(&qname.second_level_domain().unwrap_or_else(|| qname.clone()))
            .copied()
    }

    /// The configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Upstream-traffic statistics, reconstructed from the metrics
    /// registry (which is the single source of truth behind the legacy
    /// struct API — both read the same values).
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            client_queries: self.stats.client_queries.get(),
            upstream_queries: self.stats.upstream_queries.get(),
            upstream_ecs_queries: self.stats.upstream_ecs_queries.get(),
            retries: self.stats.retries.get(),
            upstream_timeouts: self.stats.upstream_timeouts.get(),
            ecs_withdrawals: self.stats.ecs_withdrawals.get(),
            tcp_fallbacks: self.stats.tcp_fallbacks.get(),
            transport_fallbacks: self.stats.transport_fallbacks.get(),
            servfail_responses: self.stats.servfail_responses.get(),
            shed_queries: self.stats.shed_queries.get(),
            coalesced_queries: self.stats.coalesced_queries.get(),
            stale_answers: self.stats.stale_answers.get(),
        }
    }

    /// The resolver's private metrics registry (counters plus the
    /// `resolver_query_latency_us` histogram). Each resolver owns its own
    /// registry; merge [`obs::MetricsSnapshot`]s externally to aggregate
    /// across resolvers.
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.stats.registry
    }

    /// One merged snapshot of the resolver's and its cache's registries.
    ///
    /// With a shared cache ([`Resolver::with_shared_cache`]) only the
    /// engine-private series are included — the pool folds the cache's
    /// registries once via
    /// [`crate::shared_cache::SharedEcsCache::snapshot`].
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        let mut snap = self.stats.registry.snapshot();
        if let CacheSlot::Owned(cache) = &self.cache {
            snap.merge(&cache.registry().snapshot());
        }
        snap
    }

    /// Installs a tracer: every subsequent resolution emits structured
    /// span events to its sink. The default tracer is disabled and costs
    /// one branch per site.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits a trace event against `parent` at `at` (one branch when
    /// tracing is off).
    pub(crate) fn trace_event(&self, parent: TraceCtx, at: SimTime, kind: &EventKind) {
        if parent.is_enabled() {
            self.tracer.event(parent, at.as_micros(), kind);
        }
    }

    /// The probing state (per-server ECS-capability memory), for assertions
    /// in tests and experiments.
    pub fn probing_state(&self) -> &ProbingState {
        &self.probing_state
    }

    /// Handles one client query synchronously.
    ///
    /// * `query` — the client's message (may carry ECS);
    /// * `client_src` — the immediate sender's address (a client, a
    ///   forwarder, or a hidden resolver — the resolver cannot tell!);
    /// * `upstream` — the authoritative side.
    ///
    /// Failed upstream attempts are retried per the configured
    /// [`crate::config::RetryPolicy`]; when every attempt fails the client
    /// gets SERVFAIL (never silence, never a hang).
    pub fn resolve_msg<U: Upstream>(
        &mut self,
        query: &Message,
        client_src: IpAddr,
        now: SimTime,
        upstream: &mut U,
    ) -> Message {
        match self.begin(query, client_src, now) {
            Step::Answer(resp) => resp,
            Step::NeedUpstream(pending) => self.drive_upstream_capturing(pending, now, upstream).0,
        }
    }

    /// The blocking driver of the [`crate::exchange`] machine: runs the
    /// upstream exchange for `pending` to completion against `upstream` and
    /// returns the client answer plus the raw upstream response it completed
    /// with (`None` when the exchange failed and the answer is
    /// stale/SERVFAIL).
    ///
    /// Time is virtual: each timed-out send advances the local clock by the
    /// timeout the machine asked for, so cache inserts and probing-state
    /// updates happen at the moment the answer would really have arrived.
    ///
    /// Multi-worker front ends publish the raw response to the flight's
    /// coalesced joiners, who hand it to [`Resolver::answer_joiner`]; only
    /// the flight owner caches.
    pub fn drive_upstream_capturing<U: Upstream + ?Sized>(
        &mut self,
        pending: PendingQuery,
        now: SimTime,
        upstream: &mut U,
    ) -> (Message, Option<Message>) {
        let (mut ex, mut action) = self.start_exchange(pending, now);
        let mut at = now;
        loop {
            match action {
                Action::Done { answer, raw } => return (answer, raw),
                Action::Send { transport, timeout } => {
                    let outcome =
                        upstream.query_via(ex.upstream_query(), self.config.addr, at, transport);
                    if matches!(outcome, Err(UpstreamError::Timeout)) {
                        at += timeout;
                    }
                    action = self.step_exchange(&mut ex, outcome, at);
                }
            }
        }
    }

    /// Records that `pending` rides an identical outstanding flight instead
    /// of going upstream: counts the coalesce and emits `coalesced_join`.
    /// The driver keeps `pending` and hands it back to
    /// [`Resolver::answer_joiner`] when the flight ends.
    pub fn join(&mut self, pending: &PendingQuery, now: SimTime) {
        self.stats.coalesced_queries.inc();
        self.trace_event(pending.trace, now, &EventKind::CoalescedJoin);
    }

    /// Answers a party that waited on a flight it did not drive, once the
    /// flight has ended with `upstream` (`None`: it failed) — a coalesced
    /// joiner, or a miss its driver found no way to send at all. Each party
    /// is answered against its *own* query and address, so joiners with
    /// different client options or scopes than the owner's are still right.
    pub fn answer_joiner(
        &mut self,
        pending: &PendingQuery,
        upstream: Option<&Message>,
        now: SimTime,
    ) -> Message {
        self.exit(pending, upstream, now)
    }

    /// Sheds a query under admission control: counts the shed and builds
    /// the SERVFAIL refusal.
    pub fn shed(&mut self, pending: &PendingQuery) -> Message {
        self.stats.shed_queries.inc();
        // Shed queries are refused on arrival: zero client-observed wait.
        let at = pending.started;
        self.trace_event(pending.trace, at, &EventKind::Shed);
        self.close(pending.trace, at, at, Rcode::ServFail);
        self.client_answer(&pending.client_query, Rcode::ServFail, Vec::new(), None)
    }

    /// The one exit of a miss: every party that waited on a flight — its
    /// owner or a joiner — leaves here, with the upstream response the
    /// flight ended with or, when it ended with none, a stale answer per
    /// RFC 8767 (serve-stale on and a matching expired entry inside the
    /// stale budget and the party's scope) or SERVFAIL. The SERVFAIL is
    /// counted and nothing is cached: the failure is transient, not a
    /// property of the name.
    pub(crate) fn exit(
        &mut self,
        party: &PendingQuery,
        upstream: Option<&Message>,
        now: SimTime,
    ) -> Message {
        let stale = if upstream.is_none() && self.config.overload.serve_stale_enabled() {
            self.cache.lookup_stale(
                &party.question.name,
                party.question.qtype,
                party.client_addr,
                now,
                self.config.overload.stale_answer_ttl,
            )
        } else {
            None
        };
        let query = &party.client_query;
        let resp = match (upstream, stale) {
            (Some(up), _) => {
                self.client_answer(query, up.rcode, up.answers.clone(), up.ecs().copied())
            }
            (None, Some(stale)) => {
                self.stats.stale_answers.inc();
                self.trace_event(party.trace, now, &EventKind::StaleServe);
                self.client_answer(query, stale.rcode, stale.records, stale.ecs)
            }
            (None, None) => {
                self.stats.servfail_responses.inc();
                self.client_answer(query, Rcode::ServFail, Vec::new(), None)
            }
        };
        self.close(party.trace, party.started, now, resp.rcode);
        resp
    }

    /// Builds the message a client gets from an answer's parts. The one
    /// place the RFC 7871 scope echo is written: the client's own option,
    /// carrying the scope of the answer it is given.
    fn client_answer(
        &self,
        client_query: &Message,
        rcode: Rcode,
        answers: Vec<dns_wire::Record>,
        answer_ecs: Option<dns_wire::EcsOption>,
    ) -> Message {
        let mut resp = Message::response_to(client_query);
        resp.rcode = rcode;
        resp.answers = answers;
        if self.config.echo_ecs_to_client {
            if let (Some(client_opt), Some(ecs)) = (client_query.ecs(), answer_ecs) {
                resp.set_ecs(client_opt.with_scope(ecs.scope_prefix_len()));
            }
        }
        resp
    }

    /// Closes a client query that arrived at `started` and is answered
    /// `rcode` at `now`: its one `resolver_query_latency_us` sample and its
    /// one `answered` event.
    fn close(&mut self, trace: TraceCtx, started: SimTime, now: SimTime, rcode: Rcode) {
        let latency_us = now.since(started).as_micros();
        self.stats.query_latency.record(latency_us);
        if trace.is_enabled() {
            self.tracer.event(
                trace,
                now.as_micros(),
                &EventKind::Answered {
                    rcode: format!("{rcode:?}"),
                    latency_us,
                },
            );
        }
    }

    /// Phase one: cache lookup and ECS decision. Returns either an
    /// immediate answer or the upstream query to send.
    pub fn begin(&mut self, query: &Message, client_src: IpAddr, now: SimTime) -> Step {
        self.stats.client_queries.inc();
        let question = match query.question() {
            Some(q) => q,
            None => {
                self.close(TraceCtx::DISABLED, now, now, Rcode::FormErr);
                return Step::Answer(self.client_answer(query, Rcode::FormErr, Vec::new(), None));
            }
        };

        let trace = if self.tracer.is_enabled() {
            self.tracer.start(
                now.as_micros(),
                &EventKind::QueryReceived {
                    qname: question.name.to_string(),
                    qtype: format!("{:?}", question.qtype),
                },
            )
        } else {
            TraceCtx::DISABLED
        };

        // Whose location is this query about? Trusted incoming ECS wins,
        // otherwise the immediate sender.
        let client_ecs = if self.config.accept_client_ecs {
            query.ecs().copied()
        } else {
            None
        };
        let effective_client: IpAddr = client_ecs.as_ref().map(|e| e.addr()).unwrap_or(client_src);

        // Cache lookup (unless the probing strategy bypasses the cache for
        // this name).
        let bypass = self.config.probing.bypasses_cache(&question.name);
        let cached = if bypass {
            None
        } else {
            self.cache
                .lookup(&question.name, question.qtype, effective_client, now)
        };
        if trace.is_enabled() {
            let outcome = if bypass {
                "bypass"
            } else if cached.is_some() {
                "hit"
            } else {
                "miss"
            };
            self.tracer
                .event(trace, now.as_micros(), &EventKind::CacheProbe { outcome });
        }

        if let Some(answer) = cached {
            self.close(trace, now, now, answer.rcode);
            return Step::Answer(self.client_answer(
                query,
                answer.rcode,
                answer.records,
                answer.ecs,
            ));
        }

        // Miss: decide ECS and build the upstream query.
        let decision = self.config.probing.decide(
            &question.name,
            question.qtype.is_address(),
            false,
            now,
            &mut self.probing_state,
        );
        let mut upstream_q = Message::query(self.take_id(), question.clone());
        upstream_q.set_edns(self.config.transport.edns_buf);
        match decision {
            EcsDecision::SendClientEcs => {
                let mut opt = self.config.prefix_policy.build(
                    effective_client,
                    client_ecs.as_ref(),
                    self.config.addr,
                );
                if self.config.adaptive_prefix {
                    if let Some(learned) = self.learned_scope(&question.name) {
                        if learned < opt.source_prefix_len() {
                            opt = dns_wire::EcsOption::new(opt.addr(), learned);
                        }
                    }
                }
                upstream_q.set_ecs(opt);
            }
            EcsDecision::SendLoopbackProbe => {
                upstream_q.set_ecs(crate::prefix_policy::PrefixPolicy::Loopback.build(
                    effective_client,
                    None,
                    self.config.addr,
                ));
            }
            EcsDecision::SendOwnAddress => {
                upstream_q.set_ecs(crate::prefix_policy::PrefixPolicy::ResolverOwn.build(
                    effective_client,
                    None,
                    self.config.addr,
                ));
            }
            EcsDecision::Omit => {}
        }
        if trace.is_enabled() {
            let label = match decision {
                EcsDecision::SendClientEcs => "client_ecs",
                EcsDecision::SendLoopbackProbe => "loopback_probe",
                EcsDecision::SendOwnAddress => "own_address",
                EcsDecision::Omit => "omit",
            };
            self.tracer.event(
                trace,
                now.as_micros(),
                &EventKind::EcsDecision {
                    decision: label,
                    prefix: upstream_q.ecs().map(|e| e.source_prefix().to_string()),
                },
            );
        }
        Step::NeedUpstream(PendingQuery {
            client_query: query.clone(),
            question: question.clone(),
            upstream_query: upstream_q,
            client_addr: effective_client,
            started: now,
            trace,
        })
    }

    /// Phase two, the owner's half: ingest the upstream response (probing
    /// state, learned scope, cache insert), then leave through
    /// [`Resolver::exit`] like every other party of the flight.
    pub(crate) fn complete(
        &mut self,
        pending: &PendingQuery,
        upstream_resp: &Message,
        now: SimTime,
    ) -> Message {
        self.config
            .probing
            .record_response(upstream_resp.ecs().is_some(), &mut self.probing_state);

        // Adaptive mode: remember the largest non-zero scope the zone's
        // authoritative has used.
        if self.config.adaptive_prefix {
            if let Some(ecs) = upstream_resp.ecs() {
                let scope = ecs.scope_prefix_len().min(ecs.source_prefix_len());
                if scope > 0 {
                    let key = pending
                        .question
                        .name
                        .second_level_domain()
                        .unwrap_or_else(|| pending.question.name.clone());
                    let entry = self.scope_memory.entry(key).or_insert(scope);
                    *entry = (*entry).max(scope);
                }
            }
        }

        let evictions_before = if pending.trace.is_enabled() {
            let s = self.cache.stats();
            s.evictions.saturating_add(s.per_name_evictions)
        } else {
            0
        };

        // Cache the upstream answer (even probe-bypass responses are
        // cached; the bypass only skips the lookup).
        let ttl = upstream_resp
            .min_answer_ttl()
            .unwrap_or(self.config.negative_ttl);
        if upstream_resp.rcode.is_ok() && !upstream_resp.answers.is_empty() {
            self.cache.insert(
                pending.question.name.clone(),
                pending.question.qtype,
                upstream_resp.answers.clone(),
                upstream_resp.ecs().copied(),
                ttl,
                now,
            );
        } else if matches!(upstream_resp.rcode, Rcode::NxDomain)
            || (upstream_resp.rcode.is_ok() && upstream_resp.answers.is_empty())
        {
            // RFC 2308 negative caching: NXDOMAIN and NODATA responses are
            // cached (with their ECS scope, if any) for the negative TTL.
            self.cache.insert_with_rcode(
                pending.question.name.clone(),
                pending.question.qtype,
                Vec::new(),
                upstream_resp.ecs().copied(),
                upstream_resp.rcode,
                self.config.negative_ttl,
                now,
            );
        }

        if pending.trace.is_enabled() {
            let s = self.cache.stats();
            let evicted = s
                .evictions
                .saturating_add(s.per_name_evictions)
                .saturating_sub(evictions_before);
            if evicted > 0 {
                self.tracer.event(
                    pending.trace,
                    now.as_micros(),
                    &EventKind::EvictionPressure { evicted },
                );
            }
        }
        self.exit(pending, Some(upstream_resp), now)
    }

    fn take_id(&mut self) -> u16 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }
}

/// Outcome of [`Resolver::begin`].
// A `NeedUpstream` is destructured and moved into the caller's flight
// table immediately, so the size skew between variants never costs a copy
// on a hot path.
#[allow(clippy::large_enum_variant)]
pub enum Step {
    /// The query was answered immediately (cache hit or error).
    Answer(Message),
    /// An upstream exchange is required.
    NeedUpstream(PendingQuery),
}

/// State carried between [`Resolver::begin`] and the end of its [`crate::Exchange`].
pub struct PendingQuery {
    /// The original client message.
    pub client_query: Message,
    /// The question being resolved.
    pub question: dns_wire::Question,
    /// The query to send upstream.
    pub upstream_query: Message,
    /// The effective client address (trusted incoming ECS, else the
    /// immediate sender) — what scope matching is about.
    pub client_addr: IpAddr,
    /// When the client query entered [`Resolver::begin`] — the zero point
    /// of the `resolver_query_latency_us` histogram.
    pub started: SimTime,
    /// Trace context of this resolution's root span
    /// ([`TraceCtx::DISABLED`] when tracing is off).
    pub trace: TraceCtx,
}

/// The coalescing identity of an upstream flight: lookups with identical
/// (qname, qtype, effective-ECS-prefix) may share one upstream exchange.
pub type FlightKey = (Name, dns_wire::RecordType, Option<dns_wire::IpPrefix>);

impl PendingQuery {
    /// This flight's coalescing key.
    pub fn flight_key(&self) -> FlightKey {
        (
            self.question.name.clone(),
            self.question.qtype,
            self.upstream_query.ecs().map(|e| e.source_prefix()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{EcsOption, Question};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn auth() -> AuthServer {
        let mut zone = Zone::new(name("example.com"));
        zone.add_a(name("www.example.com"), 60, Ipv4Addr::new(198, 51, 100, 1))
            .unwrap();
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    fn client_query(qname: &str) -> Message {
        Message::query(9, Question::a(name(qname)))
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn resolves_and_caches() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(r.stats().upstream_queries, 1);
        // Second query from the same client: cache hit, no upstream.
        let resp2 = r.resolve_msg(&client_query("www.example.com"), CLIENT, t(1), &mut auth);
        assert_eq!(resp2.answers.len(), 1);
        assert_eq!(r.stats().upstream_queries, 1);
        assert_eq!(r.cache_stats().hits, 1);
    }

    #[test]
    fn scope_respected_across_clients() {
        let mut auth = auth(); // scope = source = 24
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        // Client in another /24 misses and triggers a second upstream query.
        let other: IpAddr = "192.0.3.1".parse().unwrap();
        r.resolve_msg(&client_query("www.example.com"), other, t(1), &mut auth);
        assert_eq!(r.stats().upstream_queries, 2);
        // Client in the first /24 hits.
        let near: IpAddr = "192.0.2.200".parse().unwrap();
        r.resolve_msg(&client_query("www.example.com"), near, t(2), &mut auth);
        assert_eq!(r.stats().upstream_queries, 2);
    }

    #[test]
    fn upstream_query_carries_truncated_prefix() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        let log = auth.log();
        assert_eq!(log.len(), 1);
        let ecs = log[0].ecs.unwrap();
        assert_eq!(ecs.source_prefix_len(), 24);
        assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(log[0].resolver, RES);
    }

    #[test]
    fn ignore_scope_resolver_shares_across_subnets() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::jammed_full(RES, 1));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        let other: IpAddr = "203.0.113.5".parse().unwrap();
        r.resolve_msg(&client_query("www.example.com"), other, t(1), &mut auth);
        // One upstream query: the second client was served the cached answer
        // despite being outside the scope.
        assert_eq!(r.stats().upstream_queries, 1);
    }

    #[test]
    fn echo_ecs_scope_to_client() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::anycast_service_egress(RES));
        let mut q = client_query("www.example.com");
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 77), 32));
        let resp = r.resolve_msg(&q, CLIENT, t(0), &mut auth);
        let echoed = resp.ecs().unwrap();
        assert_eq!(echoed.scope_prefix_len(), 24); // authoritative matched source (/24)
    }

    #[test]
    fn trusted_client_ecs_drives_identity() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::anycast_service_egress(RES));
        // Frontend stamps the real client's /32; resolver truncates to /24.
        let mut q = client_query("www.example.com");
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(100, 1, 2, 3), 32));
        let frontend: IpAddr = "10.0.0.1".parse().unwrap();
        r.resolve_msg(&q, frontend, t(0), &mut auth);
        let ecs = auth.log()[0].ecs.unwrap();
        assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(100, 1, 2, 0)));
        assert_eq!(ecs.source_prefix_len(), 24);
    }

    #[test]
    fn untrusted_client_ecs_overridden_with_sender() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let mut q = client_query("www.example.com");
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(100, 1, 2, 3), 32));
        let hidden: IpAddr = "77.7.7.7".parse().unwrap();
        r.resolve_msg(&q, hidden, t(0), &mut auth);
        let ecs = auth.log()[0].ecs.unwrap();
        // The HIDDEN RESOLVER's /24 is conveyed — the §8.2 phenomenon.
        assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(77, 7, 7, 0)));
    }

    #[test]
    fn zone_router_routes_by_apex() {
        let mut router = ZoneRouter::new();
        router.add(auth());
        let mut zone2 = Zone::new(name("other.net"));
        zone2
            .add_a(name("www.other.net"), 60, Ipv4Addr::new(198, 51, 100, 9))
            .unwrap();
        router.add(AuthServer::new(zone2, EcsHandling::open(ScopePolicy::Zero)));
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let a = r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut router);
        assert_eq!(a.answer_addrs()[0].to_string(), "198.51.100.1");
        let b = r.resolve_msg(&client_query("www.other.net"), CLIENT, t(0), &mut router);
        assert_eq!(b.answer_addrs()[0].to_string(), "198.51.100.9");
        let c = r.resolve_msg(&client_query("www.unknown.org"), CLIENT, t(0), &mut router);
        assert_eq!(c.rcode, Rcode::Refused);
    }

    #[test]
    fn truncated_answer_is_re_asked_whole_through_a_zone_router() {
        // 200 A records do not fit the 512 bytes the resolver advertises:
        // the datagram reply is TC and the RFC 7766 re-ask must come back
        // whole, through a router exactly as from the server itself.
        let big = || {
            let mut zone = Zone::new(name("big.example"));
            for i in 0..200 {
                zone.add_a(name("www.big.example"), 60, Ipv4Addr::new(198, 51, 100, i))
                    .unwrap();
            }
            AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
        };
        let mut config = ResolverConfig::rfc_compliant(RES);
        config.transport.edns_buf = 512;
        let q = client_query("www.big.example");
        let want = Resolver::new(config.clone()).resolve_msg(&q, CLIENT, t(0), &mut big());
        assert_eq!(want.answers.len(), 200);

        let mut router = ZoneRouter::new();
        router.add(big());
        let mut r = Resolver::new(config);
        assert_eq!(r.resolve_msg(&q, CLIENT, t(0), &mut router), want);
        assert_eq!(r.stats().tcp_fallbacks, 1);
        // The whole answer was cached, not the empty truncated one.
        let again = r.resolve_msg(&q, CLIENT, t(1), &mut router);
        assert_eq!(again.answers.len(), 200);
        assert_eq!(r.stats().upstream_queries, 1);
        assert_eq!(r.cache_stats().hits, 1);
    }

    #[test]
    fn ttl_counts_down_in_cached_answers() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        let resp = r.resolve_msg(&client_query("www.example.com"), CLIENT, t(45), &mut auth);
        assert_eq!(resp.answers[0].ttl, 15);
        // After expiry: upstream again.
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(61), &mut auth);
        assert_eq!(r.stats().upstream_queries, 2);
    }

    #[test]
    fn non_ecs_upstream_cached_globally() {
        let mut zone = Zone::new(name("plain.org"));
        zone.add_a(name("www.plain.org"), 60, Ipv4Addr::new(1, 2, 3, 4))
            .unwrap();
        let mut auth = AuthServer::new(zone, EcsHandling::disabled());
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.plain.org"), CLIENT, t(0), &mut auth);
        let far: IpAddr = "203.0.113.200".parse().unwrap();
        r.resolve_msg(&client_query("www.plain.org"), far, t(1), &mut auth);
        assert_eq!(r.stats().upstream_queries, 1, "shared across all clients");
    }

    #[test]
    fn stats_count_ecs_queries() {
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        assert_eq!(r.stats().upstream_ecs_queries, 1);
        assert_eq!(r.stats().client_queries, 1);
    }

    #[test]
    fn legacy_stats_read_the_registry_values() {
        // Back-compat: the struct accessor and the registry snapshot are
        // two views of the same counters.
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(1), &mut auth);
        let s = r.stats();
        let snap = r.registry().snapshot();
        assert_eq!(
            snap.counter("resolver_client_queries_total"),
            Some(s.client_queries)
        );
        assert_eq!(
            snap.counter("resolver_upstream_queries_total"),
            Some(s.upstream_queries)
        );
        assert_eq!(
            snap.counter("resolver_upstream_ecs_queries_total"),
            Some(s.upstream_ecs_queries)
        );
        // Every resolution records one latency sample (the cache hit at 0).
        let latency = snap.histogram("resolver_query_latency_us").unwrap();
        assert_eq!(latency.count, 2);
        // The merged snapshot also carries the cache's series.
        let merged = r.metrics_snapshot();
        assert_eq!(
            merged.counter("cache_hits_total"),
            Some(r.cache_stats().hits)
        );
        assert_eq!(
            merged.counter("cache_misses_total"),
            Some(r.cache_stats().misses)
        );
    }

    #[test]
    fn traced_resolution_emits_span_events() {
        use std::sync::Arc;
        let sink = Arc::new(obs::MemorySink::new());
        let mut auth = auth();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.set_tracer(obs::Tracer::new(sink.clone()));
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(0), &mut auth);
        r.resolve_msg(&client_query("www.example.com"), CLIENT, t(1), &mut auth);
        let text = sink.lines().join("\n");
        let events = obs::validate::validate_trace(&text).expect("valid trace");
        // Miss: received, probe, decision, attempt, answered (5);
        // hit: received, probe, answered (3).
        assert_eq!(events, 8);
        assert!(text.contains("\"event\":\"cache_probe\",\"outcome\":\"miss\""));
        assert!(text.contains("\"event\":\"cache_probe\",\"outcome\":\"hit\""));
        assert!(text.contains("\"event\":\"ecs_decision\""));
        assert!(text.contains("\"event\":\"upstream_attempt\""));
        assert!(text.contains("\"event\":\"answered\""));
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use std::collections::VecDeque;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    /// What a scripted upstream does on one UDP attempt.
    enum Act {
        /// Answer normally from the inner zone.
        Answer,
        /// Answer with the TC bit set and no records (in-band truncation).
        Tc,
        /// Fail with this transport error.
        Fail(UpstreamError),
    }

    /// Pops one `Act` per UDP query; once the script runs dry it answers
    /// normally. TCP always answers from the zone.
    struct Scripted {
        inner: AuthServer,
        script: VecDeque<Act>,
        /// (carried ECS?, virtual time) per UDP attempt.
        udp_log: Vec<(bool, SimTime)>,
        tcp_calls: u32,
    }

    impl Scripted {
        fn new(script: Vec<Act>) -> Self {
            let mut zone = Zone::new(name("example.com"));
            zone.add_a(name("www.example.com"), 60, Ipv4Addr::new(198, 51, 100, 1))
                .unwrap();
            Scripted {
                inner: AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource)),
                script: VecDeque::from(script),
                udp_log: Vec::new(),
                tcp_calls: 0,
            }
        }
    }

    impl Upstream for Scripted {
        fn query(
            &mut self,
            q: &Message,
            from: IpAddr,
            now: SimTime,
        ) -> Result<Message, UpstreamError> {
            self.udp_log.push((q.ecs().is_some(), now));
            match self.script.pop_front() {
                Some(Act::Fail(e)) => Err(e),
                Some(Act::Tc) => {
                    let mut resp = Message::response_to(q);
                    resp.flags.tc = true;
                    Ok(resp)
                }
                Some(Act::Answer) | None => Ok(self.inner.handle(q, from, now)),
            }
        }

        fn query_tcp(
            &mut self,
            q: &Message,
            from: IpAddr,
            now: SimTime,
        ) -> Result<Message, UpstreamError> {
            self.tcp_calls += 1;
            Ok(self.inner.handle(q, from, now))
        }
    }

    fn q() -> Message {
        Message::query(9, Question::a(name("www.example.com")))
    }

    #[test]
    fn timeout_retries_without_ecs_and_marks_server() {
        let mut up = Scripted::new(vec![Act::Fail(UpstreamError::Timeout), Act::Answer]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.udp_log.len(), 2);
        assert!(up.udp_log[0].0, "first attempt carries ECS");
        assert!(!up.udp_log[1].0, "retry withdrew ECS (RFC 7871 §7.1.3)");
        // The retry happens after the first attempt's 2 s timeout elapsed.
        assert_eq!(up.udp_log[1].1, SimTime::from_secs(2));
        assert!(r.probing_state().marked_non_ecs);
        let s = r.stats();
        assert_eq!(
            (s.retries, s.upstream_timeouts, s.ecs_withdrawals),
            (1, 1, 1)
        );
        assert_eq!(s.upstream_queries, 2);
        assert_eq!(s.upstream_ecs_queries, 1);
    }

    #[test]
    fn attempt_budget_exhaustion_yields_servfail_with_backoff() {
        let mut up = Scripted::new(vec![
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
        ]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert!(resp.answers.is_empty());
        // 4 attempts at t = 0, 2, 6, 14 (exponential backoff: 2, 4, 8 s).
        let times: Vec<u64> = up
            .udp_log
            .iter()
            .map(|(_, t)| t.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![0, 2, 6, 14]);
        assert_eq!(r.stats().servfail_responses, 1);
        assert_eq!(r.stats().retries, 3);
        // SERVFAIL is not cached: the next query goes upstream again.
        r.resolve_msg(&q(), CLIENT, SimTime::from_secs(20), &mut up);
        assert_eq!(up.udp_log.len(), 5);
    }

    #[test]
    fn truncated_error_falls_back_to_tcp() {
        let mut up = Scripted::new(vec![Act::Fail(UpstreamError::Truncated(Box::new(
            Message::response_to(&q()),
        )))]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.tcp_calls, 1);
        assert_eq!(r.stats().tcp_fallbacks, 1);
        assert_eq!(r.stats().servfail_responses, 0);
    }

    #[test]
    fn tc_bit_reply_falls_back_to_tcp() {
        let mut up = Scripted::new(vec![Act::Tc]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.tcp_calls, 1);
        assert_eq!(r.stats().tcp_fallbacks, 1);
    }

    #[test]
    fn formerr_downgrade_is_opt_in_and_withdraws_ecs() {
        // Default policy: FORMERR passes through to the client untouched.
        let mut up = Scripted::new(vec![Act::Fail(UpstreamError::Rcode(Rcode::ServFail))]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1, "Rcode error consumed one attempt");
        assert_eq!(r.stats().retries, 1);
    }

    #[test]
    fn fault_free_paths_leave_new_counters_at_zero() {
        // Bit-identical guarantee: with an infallible upstream the engine
        // takes the exact pre-fault path and the new counters stay zero.
        let mut up = Scripted::new(vec![]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        let s = r.stats();
        assert_eq!(s.upstream_queries, 1);
        assert_eq!(
            (
                s.retries,
                s.upstream_timeouts,
                s.ecs_withdrawals,
                s.tcp_fallbacks,
                s.servfail_responses
            ),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(
            (s.shed_queries, s.coalesced_queries, s.stale_answers),
            (0, 0, 0)
        );
        assert!(!r.probing_state().marked_non_ecs);
    }

    fn stale_config() -> ResolverConfig {
        let mut config = ResolverConfig::rfc_compliant(RES);
        config.overload.serve_stale_ttl = netsim::SimDuration::from_secs(3600);
        config
    }

    #[test]
    fn timed_out_upstream_serves_stale_instead_of_servfail() {
        let mut r = Resolver::new(stale_config());
        // Warm the cache, then let the entry expire (TTL 60).
        let mut up = Scripted::new(vec![]);
        r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        // At t=120 the entry is stale; the upstream times out every attempt.
        let mut dead = Scripted::new(vec![
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
        ]);
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::from_secs(120), &mut dead);
        assert_eq!(resp.rcode, Rcode::NoError, "stale answer beats SERVFAIL");
        assert_eq!(resp.answers.len(), 1);
        assert!(resp.answers[0].ttl <= 30, "stale TTL stamped down");
        let s = r.stats();
        assert_eq!(s.stale_answers, 1);
        assert_eq!(s.servfail_responses, 0);
    }

    #[test]
    fn stale_answer_respects_ecs_scope() {
        let mut r = Resolver::new(stale_config());
        let mut up = Scripted::new(vec![]);
        // Warmed by a /24 client → entry scoped to 192.0.2.0/24.
        r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        let mut dead = Scripted::new(vec![
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
        ]);
        // A client outside the stale entry's /24 must NOT get the stale
        // answer — SERVFAIL is the honest response.
        let other: IpAddr = "198.18.5.5".parse().unwrap();
        let resp = r.resolve_msg(&q(), other, SimTime::from_secs(120), &mut dead);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(r.stats().stale_answers, 0);
        assert_eq!(r.stats().servfail_responses, 1);
    }

    #[test]
    fn stale_budget_expiry_falls_back_to_servfail() {
        let mut r = Resolver::new(stale_config());
        let mut up = Scripted::new(vec![]);
        r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        let mut dead = Scripted::new(vec![
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
            Act::Fail(UpstreamError::Timeout),
        ]);
        // Far past expiry + stale budget (60 + 3600): no stale answer.
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::from_secs(10_000), &mut dead);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(r.stats().stale_answers, 0);
    }

    #[test]
    fn upstream_servfail_serves_stale_when_enabled() {
        let mut r = Resolver::new(stale_config());
        let mut up = Scripted::new(vec![]);
        r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        // The upstream answers — with an in-band SERVFAIL (a parseable
        // message, not a transport error). RFC 8767 treats that as a
        // failure to paper over too.
        struct ServFailer;
        impl Upstream for ServFailer {
            fn query(
                &mut self,
                q: &Message,
                _from: IpAddr,
                _now: SimTime,
            ) -> Result<Message, UpstreamError> {
                let mut resp = Message::response_to(q);
                resp.rcode = Rcode::ServFail;
                Ok(resp)
            }
        }
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::from_secs(120), &mut ServFailer);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(r.stats().stale_answers, 1);
    }
}

#[cfg(test)]
mod chasing_tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use std::net::{IpAddr, Ipv4Addr};

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 70, 1, 7));

    /// customer zone: www.customer.com CNAME ex.cdn.net.
    fn world() -> ZoneRouter {
        let mut router = ZoneRouter::new();
        let mut customer = Zone::new(name("customer.com"));
        customer
            .add_cname(name("www.customer.com"), 300, name("ex.cdn.net"))
            .unwrap();
        router.add(AuthServer::new(
            customer,
            EcsHandling::open(ScopePolicy::Zero),
        ));
        router
    }

    #[test]
    fn negative_answers_are_cached() {
        let mut router = world();
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let q = Message::query(7, Question::a(name("missing.customer.com")));
        let resp = r.resolve_msg(&q, CLIENT, SimTime::ZERO, &mut router);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(r.stats().upstream_queries, 1);
        // Within the negative TTL the NXDOMAIN is served from cache.
        let resp = r.resolve_msg(&q, CLIENT, SimTime::from_secs(30), &mut router);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(r.stats().upstream_queries, 1);
        // After the negative TTL it goes upstream again.
        r.resolve_msg(&q, CLIENT, SimTime::from_secs(61), &mut router);
        assert_eq!(r.stats().upstream_queries, 2);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use std::net::{IpAddr, Ipv4Addr};

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    #[test]
    fn learns_zone_scope_and_truncates_future_prefixes() {
        // An authoritative that maps at /20 granularity.
        let mut zone = Zone::new(name("coarse.example"));
        zone.add_a(
            name("www.coarse.example"),
            20,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::Fixed(20)));
        let mut r = Resolver::new(ResolverConfig {
            adaptive_prefix: true,
            ..ResolverConfig::rfc_compliant(RES)
        });
        let q = Message::query(1, Question::a(name("www.coarse.example")));
        // First query: nothing learned yet → RFC /24.
        r.resolve_msg(
            &q,
            "100.70.1.1".parse().unwrap(),
            SimTime::from_secs(0),
            &mut auth,
        );
        assert_eq!(auth.log()[0].ecs.unwrap().source_prefix_len(), 24);
        assert_eq!(r.learned_scope(&name("www.coarse.example")), Some(20));
        // Second query (other subnet, past TTL): learned /20 applies.
        r.resolve_msg(
            &q,
            "100.80.1.1".parse().unwrap(),
            SimTime::from_secs(30),
            &mut auth,
        );
        assert_eq!(auth.log()[1].ecs.unwrap().source_prefix_len(), 20);
    }

    #[test]
    fn zero_scope_never_poisons_the_zone() {
        let mut zone = Zone::new(name("z.example"));
        zone.add_a(name("www.z.example"), 20, Ipv4Addr::new(198, 51, 100, 1))
            .unwrap();
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::Zero));
        let mut r = Resolver::new(ResolverConfig {
            adaptive_prefix: true,
            ..ResolverConfig::rfc_compliant(RES)
        });
        let q = Message::query(1, Question::a(name("www.z.example")));
        r.resolve_msg(
            &q,
            "100.70.1.1".parse().unwrap(),
            SimTime::from_secs(0),
            &mut auth,
        );
        // Scope 0 is not learned; future queries stay at /24.
        assert_eq!(r.learned_scope(&name("www.z.example")), None);
        r.resolve_msg(
            &q,
            "100.80.1.1".parse().unwrap(),
            SimTime::from_secs(30),
            &mut auth,
        );
        assert_eq!(auth.log()[1].ecs.unwrap().source_prefix_len(), 24);
    }

    #[test]
    fn learned_scope_is_max_across_names_in_sld() {
        // Two hostnames in one SLD with different scopes: the finer (max)
        // one must win so no name in the zone is under-served.
        let mut zone = Zone::new(name("mix.example"));
        zone.add_a(name("a.mix.example"), 20, Ipv4Addr::new(198, 51, 100, 1))
            .unwrap();
        zone.add_a(name("b.mix.example"), 20, Ipv4Addr::new(198, 51, 100, 2))
            .unwrap();
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::Fixed(16)));
        let mut r = Resolver::new(ResolverConfig {
            adaptive_prefix: true,
            ..ResolverConfig::rfc_compliant(RES)
        });
        let qa = Message::query(1, Question::a(name("a.mix.example")));
        r.resolve_msg(
            &qa,
            "100.70.1.1".parse().unwrap(),
            SimTime::from_secs(0),
            &mut auth,
        );
        assert_eq!(r.learned_scope(&name("a.mix.example")), Some(16));
        // Server policy shifts finer (Fixed(24)-like via a new server).
        let mut zone2 = Zone::new(name("mix.example"));
        zone2
            .add_a(name("b.mix.example"), 20, Ipv4Addr::new(198, 51, 100, 2))
            .unwrap();
        let mut auth24 = AuthServer::new(zone2, EcsHandling::open(ScopePolicy::MatchSource));
        let qb = Message::query(2, Question::a(name("b.mix.example")));
        r.resolve_msg(
            &qb,
            "100.70.1.1".parse().unwrap(),
            SimTime::from_secs(1),
            &mut auth24,
        );
        // learned = max(16, 24-ish). The /16-learned state truncated the
        // outgoing prefix to 16, so the response scope echoes 16 and the
        // memory stays at 16 — the known one-way ratchet of adaptation.
        assert_eq!(r.learned_scope(&name("b.mix.example")), Some(16));
    }
}
