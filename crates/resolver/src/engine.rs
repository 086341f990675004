//! The synchronous resolution engine.
//!
//! [`Resolver::resolve_msg`] runs one full client interaction: cache
//! lookup, ECS decision, upstream query, cache insert, client response.
//! The upstream side is abstracted by [`Upstream`] so experiments can wire
//! a single [`AuthServer`], a routing table over many ([`ZoneRouter`]), or
//! a recorded trace.

use std::net::IpAddr;
use std::sync::Arc;

use authoritative::AuthServer;
use dns_wire::{Message, MessageView, Name, QueryHead, Rcode};
use netsim::{SimTime, Transport};
use obs::{EventKind, TraceCtx, Tracer};

use crate::cache::CacheStats;
use crate::config::ResolverConfig;
use crate::exchange::Action;
use crate::parts::{ClientAnswer, UpstreamReply};
use crate::probing::{EcsDecision, ProbingState};
use crate::shared_cache::SharedEcsCache;

/// TTL of a cached answer that carries no records to take one from
/// (RFC 2308 NXDOMAIN / NODATA).
const NEGATIVE_TTL: u32 = 60;

/// Why an upstream exchange failed at the transport layer.
///
/// In-band DNS failures (SERVFAIL, FORMERR, REFUSED arriving as parseable
/// messages) are *not* errors at this level — they come back as `Ok`
/// messages, exactly as a socket would deliver them; so does a truncated
/// reply, a datagram with TC set, whoever truncated it. The error variants
/// cover the cases where no usable message arrived at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpstreamError {
    /// No (matching) reply before the transport timeout — the lost-packet
    /// case RFC 7871 §7.1.3 tells resolvers to treat as possible ECS
    /// intolerance.
    Timeout,
    /// The transport itself failed and the failure is best classified by
    /// an RCODE (e.g. an ICMP-unreachable mapped to SERVFAIL by a stub).
    Rcode(Rcode),
}

impl std::fmt::Display for UpstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpstreamError::Timeout => write!(f, "upstream query timed out"),
            UpstreamError::Rcode(rc) => write!(f, "upstream transport failure ({rc:?})"),
        }
    }
}

impl std::error::Error for UpstreamError {}

/// Where a resolver sends its upstream queries.
///
/// The seam is the datagram the simulated egress sends too: the query's
/// bytes in, the accepted reply's bytes out. The contract is fallible:
/// transports that can lose packets surface that as an [`UpstreamError`],
/// and the engine's retry policy ([`crate::config::RetryPolicy`]) decides
/// what happens next.
pub trait Upstream {
    /// Performs one upstream exchange over `transport` (a rung of the
    /// [`crate::TransportPolicy`] ladder): the resolver at `from` sends
    /// datagram `q`, the authoritative side answers. Upstreams that do not
    /// model transports serve every stream transport (TCP, DoT) alike, as
    /// a framed exchange that is never truncated (RFC 7766).
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError>;

    /// One exchange over UDP of a built message, its reply decoded (else
    /// FORMERR): for tests, and the benchmark package until ROADMAP item 1.
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError> {
        let formerr = |_| UpstreamError::Rcode(Rcode::FormErr);
        let reply = self.query_via(&q.to_bytes().map_err(formerr)?, from, now, Transport::Udp)?;
        Message::from_bytes(&reply).map_err(formerr)
    }
}

/// [`AuthServer::reply`] at a byte edge (`AuthActor`'s and the TCP
/// server's too): one parse, one buffer of `WireWriter::new`'s starting
/// capacity, and a dropped query times out.
impl Upstream for AuthServer {
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let query = MessageView::parse(q).map_err(|_| UpstreamError::Timeout)?;
        self.reply(query, from, now, transport, Vec::with_capacity(512))
            .ok_or(UpstreamError::Timeout)
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
    fn server_for(&mut self, name: &Name) -> Option<&mut AuthServer> {
        self.routes
            .iter_mut()
            .find(|(apex, _)| name.is_subdomain_of(apex))
            .map(|(_, s)| s)
    }
}

impl Upstream for ZoneRouter {
    /// Answers `q` from the server responsible for its name; REFUSED when
    /// no zone matches, FORMERR without a question.
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let query = MessageView::parse(q).map_err(|_| UpstreamError::Timeout)?;
        let Some(question) = query.questions().next() else {
            return rcode_reply(&query, Rcode::FormErr);
        };
        match self.server_for(&question.name) {
            Some(server) => server
                .reply(query, from, now, transport, Vec::with_capacity(512))
                .ok_or(UpstreamError::Timeout),
            None => rcode_reply(&query, Rcode::Refused),
        }
    }
}

/// The reply to query `q` that carries `rcode` alone, as a server refuses.
pub fn rcode_reply(q: &MessageView<'_>, rcode: Rcode) -> Result<Vec<u8>, UpstreamError> {
    let reply = ClientAnswer::new(QueryHead::from(*q), rcode, Vec::new(), None);
    reply.to_bytes().map_err(|_| UpstreamError::Timeout)
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
    /// Client queries that joined an existing upstream flight.
    pub coalesced_queries: u64,
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
    servfail_responses: obs::Counter,
    coalesced_queries: obs::Counter,
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
            servfail_responses: registry.counter("resolver_servfail_responses_total"),
            coalesced_queries: registry.counter("resolver_coalesced_queries_total"),
            query_latency: registry.histogram("resolver_query_latency_us"),
            registry,
        }
    }
}

/// A recursive resolver instance.
pub struct Resolver {
    pub(crate) config: ResolverConfig,
    /// The cache lookups and inserts go to: a one-shard cache of the
    /// engine's own ([`Resolver::new`]), or a worker pool's
    /// ([`Resolver::with_shared_cache`]).
    cache: Arc<SharedEcsCache>,
    /// Whether `cache` is this engine's alone, so its `cache_*` series
    /// belong in [`Resolver::metrics_snapshot`].
    owns_cache: bool,
    pub(crate) probing_state: ProbingState,
    pub(crate) stats: ResolverMetrics,
    pub(crate) tracer: Tracer,
    /// Per-SLD learned authoritative scope (see
    /// [`ResolverConfig::adaptive_prefix`]).
    scope_memory: std::collections::HashMap<Name, u8>,
    next_id: u16,
    /// The wall clock's epoch and the µs spent in cache inserts since the
    /// last [`Resolver::take_insert_us`]; `None`, and inserts untimed,
    /// until a profiling driver first asks.
    insert_clock: Option<(std::time::Instant, u64)>,
}

impl Resolver {
    /// Creates a resolver from a configuration, with a cache of its own.
    pub fn new(config: ResolverConfig) -> Self {
        let cache = Arc::new(SharedEcsCache::for_config(&config, 1));
        Self::over(config, cache, true)
    }

    /// Creates a resolver whose cache state lives in `cache`, shared with
    /// other engines in a worker pool. The overload cache-bound knobs in
    /// `config` are ignored here — the shared cache carries its own limits
    /// (see [`SharedEcsCache::for_config`]); probing state, stats, and
    /// retry behaviour remain engine-private.
    ///
    /// [`Resolver::metrics_snapshot`] on such an engine excludes the
    /// cache's `cache_*` series: fold [`SharedEcsCache::snapshot`] exactly
    /// once per pool instead, or the shared counters multiply by the
    /// worker count.
    pub fn with_shared_cache(config: ResolverConfig, cache: Arc<SharedEcsCache>) -> Self {
        Self::over(config, cache, false)
    }

    fn over(config: ResolverConfig, cache: Arc<SharedEcsCache>, owns_cache: bool) -> Self {
        Resolver {
            config,
            cache,
            owns_cache,
            probing_state: ProbingState::default(),
            stats: ResolverMetrics::new(),
            tracer: Tracer::disabled(),
            scope_memory: std::collections::HashMap::new(),
            next_id: 1,
            insert_clock: None,
        }
    }

    /// The scope learned for a zone so far (adaptive mode).
    fn learned_scope(&self, qname: &Name) -> Option<u8> {
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
            coalesced_queries: self.stats.coalesced_queries.get(),
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
    /// registries once via [`SharedEcsCache::snapshot`].
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        let mut snap = self.stats.registry.snapshot();
        if self.owns_cache {
            snap.merge(&self.cache.shard_series());
        }
        snap
    }

    /// The wall µs spent in cache inserts since the last call, for a
    /// profiling driver's `cache insert` stage. The first call turns the
    /// timing on and reads 0.
    pub(crate) fn take_insert_us(&mut self) -> u64 {
        let (_, spent) = self
            .insert_clock
            .get_or_insert_with(|| (std::time::Instant::now(), 0));
        std::mem::take(spent)
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
            Step::NeedUpstream(p) => self.drive_upstream(p, now, upstream).0.into_message(),
        }
    }

    /// [`Resolver::drive_upstream`] with the answer built and the raw
    /// reply decoded.
    pub fn drive_upstream_capturing<U: Upstream + ?Sized>(
        &mut self,
        pending: PendingQuery,
        now: SimTime,
        upstream: &mut U,
    ) -> (Message, Option<Message>) {
        let (answer, raw) = self.drive_upstream(pending, now, upstream);
        (
            answer.into_message(),
            raw.and_then(|reply| Message::from_bytes(&reply).ok()),
        )
    }

    /// The blocking driver of the [`crate::exchange`] machine: runs the
    /// upstream exchange for `pending` to completion against `upstream` and
    /// returns the client answer, as the parts the caller writes, plus the
    /// bytes of the raw upstream reply
    /// it completed with (`None` when the exchange failed and the answer
    /// is SERVFAIL). Each reply is read in place, as the packet driver
    /// reads it; one [`MessageView::is_reply_to`] rejects is a timeout.
    ///
    /// Time is virtual: each timed-out send advances the local clock by the
    /// timeout the machine asked for, so cache inserts and probing-state
    /// updates happen at the moment the answer would really have arrived.
    ///
    /// Multi-worker front ends publish the raw reply to the flight's
    /// coalesced joiners, who read it with [`UpstreamReply::read`] and hand
    /// it to [`Resolver::answer_joiner`]; only the flight owner caches.
    pub fn drive_upstream<U: Upstream + ?Sized>(
        &mut self,
        pending: PendingQuery,
        now: SimTime,
        upstream: &mut U,
    ) -> (ClientAnswer, Option<Vec<u8>>) {
        let id = pending.upstream_query.id;
        let (mut ex, mut action) = self.start_exchange(pending, now);
        ex.keep_reply(false); // the raw reply goes back as its bytes
        let mut at = now;
        // The reply the last step read: a `Done` right after it ends on it.
        let mut last = None;
        loop {
            match action {
                Action::Done { answer, .. } => return (answer, last),
                Action::Send { transport, timeout } => {
                    let question = Some(ex.pending().question());
                    last = None;
                    let outcome = upstream
                        .query_via(ex.upstream_query(), self.config.addr, at, transport)
                        .and_then(|reply| {
                            let view = MessageView::parse(&reply).ok();
                            let view = view.filter(|v| v.is_reply_to(id, question));
                            let read = view.map(|v| UpstreamReply::read(&v));
                            last = read.is_some().then_some(reply);
                            read.ok_or(UpstreamError::Timeout)
                        });
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
        upstream: Option<&UpstreamReply>,
        now: SimTime,
    ) -> ClientAnswer {
        let upstream = upstream.map(|up| (up.rcode, up.answers.clone(), up.ecs));
        self.exit(pending, upstream, now)
    }

    /// The one exit of a miss: every party that waited on a flight — its
    /// owner or a joiner — leaves here, with the rcode, answers and ECS
    /// option of the upstream response the flight ended with (the owner's
    /// answers by move, each joiner's a copy) or, when it ended with none,
    /// SERVFAIL. The SERVFAIL is counted and nothing is cached: the failure
    /// is transient, not a property of the name.
    pub(crate) fn exit(
        &mut self,
        party: &PendingQuery,
        upstream: Option<(Rcode, Vec<dns_wire::Record>, Option<dns_wire::EcsOption>)>,
        now: SimTime,
    ) -> ClientAnswer {
        let head = party.head.clone();
        let resp = match upstream {
            Some((rcode, answers, ecs)) => ClientAnswer::new(head, rcode, answers, ecs),
            None => {
                self.stats.servfail_responses.inc();
                ClientAnswer::new(head, Rcode::ServFail, Vec::new(), None)
            }
        };
        self.close(party.trace, party.started, now, resp.rcode);
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
    ///
    /// The query is read for its [`QueryHead`] and nothing else: decoded
    /// (`&Message`) or in place (a [`dns_wire::MessageView`]) alike.
    pub fn begin(&mut self, query: impl Into<QueryHead>, client_src: IpAddr, now: SimTime) -> Step {
        self.stats.client_queries.inc();
        let head: QueryHead = query.into();
        let Some(question) = head.questions.first() else {
            self.close(TraceCtx::DISABLED, now, now, Rcode::FormErr);
            let refusal = ClientAnswer::new(head, Rcode::FormErr, Vec::new(), None);
            return Step::Answer(refusal.into_message());
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
            head.ecs
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
            let hit = ClientAnswer::new(head, answer.rcode, answer.records, answer.ecs);
            return Step::Answer(hit.into_message());
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
            head,
            upstream_query: upstream_q,
            started: now,
            trace,
        })
    }

    /// Phase two, the owner's half: ingest the upstream response (probing
    /// state, learned scope, cache insert), then leave through
    /// [`Resolver::exit`] like every other party of the flight. Returns the
    /// owner's answer and, when `keep_reply`, the response itself for the
    /// flight's joiners; otherwise its answers move into the owner's
    /// answer rather than being copied.
    pub(crate) fn complete(
        &mut self,
        pending: &PendingQuery,
        mut upstream_resp: UpstreamReply,
        keep_reply: bool,
        now: SimTime,
    ) -> (ClientAnswer, Option<UpstreamReply>) {
        self.config
            .probing
            .record_response(upstream_resp.ecs.is_some(), &mut self.probing_state);

        // Adaptive mode: remember the largest non-zero scope the zone's
        // authoritative has used.
        if self.config.adaptive_prefix {
            if let Some(ecs) = upstream_resp.ecs {
                let scope = ecs.scope_prefix_len().min(ecs.source_prefix_len());
                if scope > 0 {
                    let name = &pending.question().name;
                    let key = name.second_level_domain().unwrap_or_else(|| name.clone());
                    let entry = self.scope_memory.entry(key).or_insert(scope);
                    *entry = (*entry).max(scope);
                }
            }
        }

        let evictions_before = if pending.trace.is_enabled() {
            self.cache.stats().evictions
        } else {
            0
        };

        let insert_from = self
            .insert_clock
            .map(|(epoch, _)| epoch.elapsed().as_micros() as u64);
        // Cache the upstream answer (even probe-bypass responses are
        // cached; the bypass only skips the lookup).
        let ttl = upstream_resp.min_answer_ttl().unwrap_or(NEGATIVE_TTL);
        let question = pending.question();
        if upstream_resp.rcode.is_ok() && !upstream_resp.answers.is_empty() {
            self.cache.insert(
                question.name.clone(),
                question.qtype,
                upstream_resp.answers.clone(),
                upstream_resp.ecs,
                ttl,
                now,
            );
        } else if matches!(upstream_resp.rcode, Rcode::NxDomain)
            || (upstream_resp.rcode.is_ok() && upstream_resp.answers.is_empty())
        {
            // RFC 2308 negative caching: NXDOMAIN and NODATA responses are
            // cached (with their ECS scope, if any) for the negative TTL.
            self.cache.insert_with_rcode(
                question.name.clone(),
                question.qtype,
                Vec::new(),
                upstream_resp.ecs,
                upstream_resp.rcode,
                NEGATIVE_TTL,
                now,
            );
        }
        if let (Some(from), Some((epoch, spent))) = (insert_from, &mut self.insert_clock) {
            *spent += epoch.elapsed().as_micros() as u64 - from;
        }

        if pending.trace.is_enabled() {
            let evicted = self
                .cache
                .stats()
                .evictions
                .saturating_sub(evictions_before);
            if evicted > 0 {
                self.tracer.event(
                    pending.trace,
                    now.as_micros(),
                    &EventKind::EvictionPressure { evicted },
                );
            }
        }
        let answers = if keep_reply {
            upstream_resp.answers.clone()
        } else {
            std::mem::take(&mut upstream_resp.answers)
        };
        let upstream = (upstream_resp.rcode, answers, upstream_resp.ecs);
        let answer = self.exit(pending, Some(upstream), now);
        (answer, keep_reply.then_some(upstream_resp))
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
    /// What the client's answer repeats of its query; [`Resolver::begin`]
    /// only makes a pending query of one that has a question.
    pub head: QueryHead,
    /// The query to send upstream.
    pub upstream_query: Message,
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
    /// The question being resolved: the client query's first.
    pub fn question(&self) -> &dns_wire::Question {
        &self.head.questions[0]
    }

    /// This flight's coalescing key.
    pub fn flight_key(&self) -> FlightKey {
        (
            self.question().name.clone(),
            self.question().qtype,
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

    /// The scripted upstream decodes the query it is given and encodes
    /// the reply it builds.
    impl Upstream for Scripted {
        fn query_via(
            &mut self,
            q: &[u8],
            from: IpAddr,
            now: SimTime,
            transport: Transport,
        ) -> Result<Vec<u8>, UpstreamError> {
            let q = Message::from_bytes(q).expect("the engine sends DNS");
            let resp = if transport.is_stream() {
                self.tcp_calls += 1;
                self.inner.handle(&q, from, now)
            } else {
                self.udp_log.push((q.ecs().is_some(), now));
                match self.script.pop_front() {
                    Some(Act::Fail(e)) => return Err(e),
                    Some(Act::Tc) => {
                        let mut resp = Message::response_to(&q);
                        resp.flags.tc = true;
                        resp
                    }
                    Some(Act::Answer) | None => self.inner.handle(&q, from, now),
                }
            };
            Ok(resp.to_bytes().expect("encodes"))
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
    fn tc_bit_reply_falls_back_to_tcp() {
        let mut up = Scripted::new(vec![Act::Tc]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.tcp_calls, 1);
        assert_eq!(r.stats().tcp_fallbacks, 1);
        assert_eq!(r.stats().servfail_responses, 0);
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
        assert_eq!(s.coalesced_queries, 0);
        assert!(!r.probing_state().marked_non_ecs);
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

#[cfg(test)]
mod overload_tests {
    //! The bounded cache on one workload: eight names under
    //! `load.example` with a 30 s TTL, answered per /24.
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use std::net::Ipv4Addr;

    const NAMES: u64 = 8;
    const TTL: u64 = 30;
    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    fn load_auth() -> AuthServer {
        let apex = Name::from_ascii("load.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        for h in 0..NAMES {
            zone.add_a(
                apex.child(&format!("h{h}")).unwrap(),
                TTL as u32,
                Ipv4Addr::new(198, 51, 100, h as u8 + 1),
            )
            .unwrap();
        }
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        auth.set_logging(false);
        auth
    }

    fn query(i: u64) -> Message {
        let qname = Name::from_ascii(&format!("h{}.load.example", i % NAMES)).unwrap();
        Message::query(i as u16, Question::a(qname))
    }

    #[test]
    fn a_tighter_entry_bound_never_hits_more() {
        // 400 queries cycling every (name, /24) pair of 8 names × 6 /24s
        // at two a second: the 48 pairs cycle in 24 s, inside the TTL, so
        // the unbounded cache hits on every revisit and evicts nothing,
        // while a bound of 16 or 4 must evict live entries to admit more.
        let mut previous_hits = u64::MAX;
        for cap in [None, Some(16), Some(4)] {
            let mut config = ResolverConfig::rfc_compliant(RES);
            config.overload.max_cache_entries = cap;
            let mut r = Resolver::new(config);
            let mut auth = load_auth();
            for i in 0..400 {
                let subnet = (i / NAMES) % 6;
                let client = IpAddr::V4(Ipv4Addr::new(10, 0, subnet as u8, 9));
                r.resolve_msg(
                    &query(i),
                    client,
                    SimTime::from_micros(i * 500_000),
                    &mut auth,
                );
            }
            let s = r.cache_stats();
            assert!(s.hits <= previous_hits, "cap {cap:?}: {s:?}");
            match cap {
                None => assert_eq!((s.max_size, s.evictions), (48, 0), "{s:?}"),
                Some(cap) => assert!(s.max_size <= cap && s.evictions > 0, "{s:?}"),
            }
            previous_hits = s.hits;
        }
        assert_eq!(previous_hits, 0, "four entries never hold a revisit");
    }
}
