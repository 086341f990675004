//! The multi-worker recursive serving path: the crate's worker pool
//! (`pool.rs`: the socket loop, its accounting and its shutdown contract)
//! with one [`resolver::Resolver`] engine per worker, all sharing one
//! sharded [`SharedEcsCache`] and one [`FlightTable`].
//!
//! Division of labour:
//!
//! * **Per-worker**: the resolution *engine* (probing state, retry policy,
//!   stats, upstream socket). Engines never synchronise on the hot path —
//!   a cache hit takes exactly one shard lock.
//! * **Shared**: the ECS *cache* (sharded by qname, so RFC 7871 scope
//!   matching sees a name's full entry list) and the *flight table* (so
//!   coalescing holds globally, not per worker).
//!
//! Telemetry is folded, not shared: each worker returns its engine's
//! metrics snapshot when it exits, and [`ResolverServerHandle::shutdown`]
//! merges them with the shared cache's registries (counted once — the
//! cache is shared, its counters are not per-worker) and the socket-level
//! counters. The fold is exact because it happens after the join.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use dns_wire::wire::WireWriter;
use dns_wire::MessageView;
use netsim::{LinkFaults, SimTime};
use resolver::{
    Admission, ClientAnswer, FaultyUpstream, FlightTable, InjectedFault, PendingQuery, Resolver,
    ResolverConfig, SharedEcsCache, Step, Transport, Upstream, UpstreamReply,
};

use crate::pool::{Handler, Pool, PoolHandle};
use crate::upstream::SocketUpstream;

/// A recursive resolver behind a UDP socket, served by a pool of worker
/// threads (see the module docs for the architecture).
pub struct UdpResolverServer {
    pool: Pool,
    upstream_addr: SocketAddr,
    config: ResolverConfig,
    upstream_timeout: Duration,
    upstream_faults: Vec<(Transport, InjectedFault)>,
}

impl UdpResolverServer {
    /// Binds to `addr` (port 0 picks one) with upstream exchanges aimed at
    /// `upstream_addr`. One worker, default batch width; scale with
    /// [`UdpResolverServer::with_workers`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        upstream_addr: SocketAddr,
        config: ResolverConfig,
    ) -> io::Result<Self> {
        Ok(UdpResolverServer {
            pool: Pool::bind(addr, "resolverd", "worker", "dnsd-resolver")?,
            upstream_addr,
            config,
            upstream_timeout: Duration::from_millis(500),
            upstream_faults: Vec::new(),
        })
    }

    /// Turns on the profiling/diagnosis layer: per-worker stage profilers
    /// (folded after the join into a flamegraph-ready
    /// [`obs::ProfileSnapshot`]), lock-contention telemetry on the shared
    /// cache shards and the flight table, and the recv/send batch-size
    /// histograms. Off by default; the serving path then pays one branch
    /// per stage.
    pub fn with_profiling(mut self) -> Self {
        self.pool.profile = true;
        self
    }

    /// Scan/soak mode: every worker's upstream is wrapped in a
    /// [`FaultyUpstream`] with each `(transport, fault)` pinned as a
    /// standing fault. A standing fault draws nothing, so the wrapper needs
    /// no seed. Without this call the serving path is untouched (no
    /// wrapper, bit-identical to before the scan mode existed).
    pub fn with_upstream_faults(mut self, faults: &[(Transport, InjectedFault)]) -> Self {
        self.upstream_faults = faults.to_vec();
        self
    }

    /// Sets how many worker threads [`UdpResolverServer::spawn`] starts
    /// (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool.workers = workers.max(1);
        self
    }

    /// Sets the per-attempt upstream socket timeout.
    pub fn with_upstream_timeout(mut self, timeout: Duration) -> Self {
        self.upstream_timeout = timeout;
        self
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.pool.local_addr()
    }

    /// The socket-level metrics registry (live; clones share series).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.pool.registry
    }

    /// Starts the worker pool and returns its handle.
    pub fn spawn(self) -> io::Result<ResolverServerHandle> {
        // The shard count follows the worker count, with a floor of 4 so a
        // narrow pool's cache is not one lock.
        let mut cache = SharedEcsCache::for_config(&self.config, self.pool.workers.max(4));
        let mut flights = FlightTable::for_config(&self.config.overload);
        if self.pool.profile {
            cache.enable_contention(&self.pool.registry);
            flights.enable_contention(&self.pool.registry);
        }
        let cache = Arc::new(cache);
        let flights = Arc::new(flights);
        // A joiner waits as long as its flight's owner could legitimately
        // take: every retry attempt may burn one UDP and one TCP timeout.
        let attempts = self.config.retry.attempts.max(1) as u32;
        let join_wait = self.upstream_timeout * (2 * attempts) + Duration::from_millis(100);

        let pool = self.pool.spawn(|_| {
            let plain =
                SocketUpstream::new(self.upstream_addr)?.with_timeout(self.upstream_timeout);
            // Boxed rather than wrapped unconditionally, so the default
            // path stays byte-identical to the pre-scan-mode server (the
            // differential tests compare it against the event-driven
            // engine); the vtable call sits next to a socket round trip.
            let upstream: Box<dyn Upstream + Send> = if self.upstream_faults.is_empty() {
                Box::new(plain)
            } else {
                let up = FaultyUpstream::new(plain, LinkFaults::NONE, 0);
                Box::new(
                    self.upstream_faults
                        .iter()
                        .fold(up, |up, &(transport, fault)| up.pin(transport, fault)),
                )
            };
            Ok(ResolverHandler {
                engine: Resolver::with_shared_cache(self.config.clone(), Arc::clone(&cache)),
                upstream,
                flights: Arc::clone(&flights),
                join_wait,
            })
        })?;
        Ok(ResolverServerHandle {
            pool,
            cache,
            flights,
        })
    }
}

/// Handle to a running resolver worker pool.
///
/// [`ResolverServerHandle::shutdown`] (or dropping the handle) stops and
/// joins every worker; shutdown additionally folds the per-worker engine
/// snapshots with the shared cache's and the socket front end's metrics
/// into one exact, post-join [`obs::MetricsSnapshot`].
pub struct ResolverServerHandle {
    pool: PoolHandle<obs::MetricsSnapshot>,
    cache: Arc<SharedEcsCache>,
    flights: Arc<FlightTable>,
}

impl ResolverServerHandle {
    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.pool.local_addr
    }

    /// Worker threads still attached (0 after shutdown).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The shared cache (for inspection in tests and benchmarks).
    pub fn cache(&self) -> &SharedEcsCache {
        &self.cache
    }

    /// Outstanding owner flights right now.
    pub fn in_flight(&self) -> usize {
        self.flights.in_flight()
    }

    /// The socket-level metrics registry (live while workers run).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.pool.registry
    }

    /// Stops and joins every worker, then returns the complete folded
    /// metrics: every engine's counters, the shared cache's (counted once
    /// — the cache registries are shared, not per-worker), and the socket
    /// front end's.
    pub fn shutdown(self) -> obs::MetricsSnapshot {
        self.shutdown_profiled().0
    }

    /// Like [`ResolverServerHandle::shutdown`], additionally returning
    /// the folded per-worker stage profile. Empty unless the server was
    /// built [`UdpResolverServer::with_profiling`]; the profile's stage
    /// totals are also exported into the metrics snapshot as `prof_*`
    /// counters ([`obs::ProfileSnapshot::to_metrics`]).
    pub fn shutdown_profiled(self) -> (obs::MetricsSnapshot, obs::ProfileSnapshot) {
        let front_end = self.pool.registry.clone();
        let (engines, profile) = self.pool.finish();
        let mut folded = obs::MetricsSnapshot::default();
        for engine in &engines {
            folded.merge(engine);
        }
        folded.merge(&self.cache.snapshot());
        if !profile.is_empty() {
            let reg = obs::MetricsRegistry::new();
            profile.to_metrics(&reg);
            folded.merge(&reg.snapshot());
        }
        folded.merge(&front_end.snapshot());
        (folded, profile)
    }
}

/// One worker's resolver: its own engine and upstream, the shared flight
/// table.
struct ResolverHandler {
    engine: Resolver,
    upstream: Box<dyn Upstream + Send>,
    flights: Arc<FlightTable>,
    join_wait: Duration,
}

impl Handler for ResolverHandler {
    type Exit = obs::MetricsSnapshot;

    /// Resolves one client query, routing any upstream exchange through
    /// the shared flight table, and writes the answer into `buf`. The
    /// admission order matches the event-driven actor path exactly: join,
    /// else own.
    #[inline]
    fn handle(
        &mut self,
        query: MessageView<'_>,
        peer: SocketAddr,
        now: SimTime,
        prof: &mut obs::StageProfiler,
        buf: Vec<u8>,
    ) -> Option<Vec<u8>> {
        let mut w = WireWriter::with_buffer(buf);
        prof.enter("resolve");
        let written = match self.engine.begin(query, peer.ip(), now) {
            Step::Answer(resp) => {
                // Cache hit / refusal / local answer: no upstream leg.
                prof.enter("local");
                prof.exit();
                prof.exit();
                resp.write(&mut w)
            }
            Step::NeedUpstream(pending) => {
                let answer = self.admit(pending, now, prof);
                prof.exit();
                answer.write(&mut w)
            }
        };
        written.ok()?;
        w.finish().ok()
    }

    fn finish(self) -> obs::MetricsSnapshot {
        self.engine.metrics_snapshot()
    }
}

impl ResolverHandler {
    /// The miss path: one upstream exchange per flight, whoever owns it.
    fn admit(
        &mut self,
        pending: PendingQuery,
        now: SimTime,
        prof: &mut obs::StageProfiler,
    ) -> ClientAnswer {
        match self.flights.admit(&pending.flight_key()) {
            Admission::Joiner(flight) => {
                prof.enter("join_wait");
                // Ride the identical outstanding flight: wait for the
                // owner's raw response (`None`: it failed, or the wait
                // timed out) and be answered from it.
                self.engine.join(&pending, now);
                let raw = flight.wait(self.join_wait);
                let view = raw
                    .as_deref()
                    .and_then(|reply| MessageView::parse(reply).ok());
                let reply = view.map(|v| UpstreamReply::read(&v));
                let resp = self.engine.answer_joiner(&pending, reply.as_ref(), now);
                prof.exit();
                resp
            }
            Admission::Owner(token) => {
                prof.enter("own_upstream");
                let (answer, raw) = self
                    .engine
                    .drive_upstream(pending, now, &mut *self.upstream);
                // Publish before answering our own client: joiners are
                // other workers' clients and should not wait on our send.
                token.complete(raw);
                prof.exit();
                answer
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::UdpAuthServer;
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use dns_wire::{EcsOption, Message, Name, Question};
    use std::net::{Ipv4Addr, UdpSocket};

    fn cfg() -> ResolverConfig {
        ResolverConfig::rfc_compliant(std::net::IpAddr::V4(Ipv4Addr::new(127, 0, 0, 1)))
    }

    fn demo_auth() -> AuthServer {
        let mut zone = Zone::new(Name::from_ascii("demo.example").unwrap());
        zone.add_a(
            Name::from_ascii("www.demo.example").unwrap(),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)))
    }

    fn ask(client: &UdpSocket, addr: SocketAddr, id: u16, name: &str) -> Message {
        let q = Message::query(id, Question::a(Name::from_ascii(name).unwrap()));
        client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
        let mut buf = [0u8; 4096];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        Message::from_bytes(&buf[..n]).unwrap()
    }

    #[test]
    fn resolves_through_real_upstream_and_caches() {
        let auth = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let auth_addr = auth.local_addr().unwrap();
        let auth_handle = auth.spawn();

        let server = UdpResolverServer::bind("127.0.0.1:0", auth_addr, cfg())
            .unwrap()
            .with_workers(2);
        let handle = server.spawn().unwrap();
        let addr = handle.local_addr();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let first = ask(&client, addr, 1, "www.demo.example");
        assert_eq!(first.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
        let second = ask(&client, addr, 2, "www.demo.example");
        assert_eq!(second.answer_addrs(), first.answer_addrs());

        let snap = handle.shutdown();
        auth_handle.shutdown();
        assert_eq!(snap.counter("resolverd_queries_total"), Some(2));
        assert_eq!(snap.counter("resolver_client_queries_total"), Some(2));
        // The second query hit the shared cache: exactly one upstream
        // exchange happened.
        assert_eq!(snap.counter("resolver_upstream_queries_total"), Some(1));
        assert_eq!(snap.counter("cache_hits_total"), Some(1));
    }

    #[test]
    fn cross_worker_cache_sharing_spans_the_pool() {
        // Many sequential queries for one name through a 4-worker pool:
        // whichever worker took the first query populated the shared
        // cache, so exactly one upstream exchange total — a per-worker
        // cache would show up to 4.
        let auth = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let auth_addr = auth.local_addr().unwrap();
        let auth_handle = auth.spawn();

        let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, cfg())
            .unwrap()
            .with_workers(4)
            .spawn()
            .unwrap();
        let addr = handle.local_addr();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        for i in 0..24u16 {
            let resp = ask(&client, addr, i, "www.demo.example");
            assert_eq!(resp.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
        }
        let snap = handle.shutdown();
        auth_handle.shutdown();
        assert_eq!(snap.counter("resolver_client_queries_total"), Some(24));
        assert_eq!(snap.counter("resolver_upstream_queries_total"), Some(1));
        assert_eq!(snap.counter("cache_hits_total"), Some(23));
    }

    #[test]
    fn echoes_ecs_scope_from_upstream() {
        let auth = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let auth_addr = auth.local_addr().unwrap();
        let auth_handle = auth.spawn();

        let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, cfg())
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.local_addr();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut q = Message::query(
            9,
            Question::a(Name::from_ascii("www.demo.example").unwrap()),
        );
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
        let mut buf = [0u8; 4096];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        let resp = Message::from_bytes(&buf[..n]).unwrap();
        assert_eq!(resp.id, 9);
        // SourceMinusK(4) on a /24: the authoritative answers scope /20 and
        // the resolver echoes it to the client.
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 20);
        handle.shutdown();
        auth_handle.shutdown();
    }

    #[test]
    fn profiled_serving_yields_reconciled_folded_stacks_and_lock_series() {
        let auth = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let auth_addr = auth.local_addr().unwrap();
        let auth_handle = auth.spawn();

        let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, cfg())
            .unwrap()
            .with_workers(2)
            .with_profiling()
            .spawn()
            .unwrap();
        let addr = handle.local_addr();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        for i in 0..8u16 {
            ask(&client, addr, i, "www.demo.example");
        }
        let (snap, profile) = handle.shutdown_profiled();
        auth_handle.shutdown();

        assert!(!profile.is_empty(), "profiling on must capture spans");
        let folded = profile.to_folded();
        assert!(folded.contains("worker;recv"), "{folded}");
        assert!(folded.contains("worker;resolve"), "{folded}");
        // Folded stage totals reconcile with the exported prof_* series:
        // same accumulators, two serializations.
        assert_eq!(
            snap.counter("prof_self_us_total"),
            Some(profile.total_self_us())
        );
        assert_eq!(
            snap.counter("prof_spans_total"),
            Some(profile.total_calls())
        );
        // Lock telemetry was live: the 8 queries (1 miss + 7 hits) each
        // took at least one shard acquisition.
        assert!(snap.counter("lock_cache_shard_acquisitions_total").unwrap() >= 8);
        assert!(snap.counter("lock_flight_acquisitions_total").unwrap() >= 2);
        assert_eq!(snap.gauge("flight_in_flight_depth"), Some(1));
        // Batch-size histograms recorded under profiling.
        assert!(snap.histogram("dnsd_recv_batch_size").is_some());
        // The export contract `obs-validate metrics --require-prof` checks.
        obs::validate::validate_metrics_json(&snap.to_json(), obs::validate::PROF_REQUIRED_SERIES)
            .expect("profiled export carries every prof_*/lock_* series");
    }

    /// An upstream that answers only once the test lets it, holding its
    /// owner's flight open.
    struct Gated {
        gate: std::sync::mpsc::Receiver<()>,
        auth: AuthServer,
    }

    impl Upstream for Gated {
        fn query_via(
            &mut self,
            q: &[u8],
            from: std::net::IpAddr,
            now: SimTime,
            transport: resolver::Transport,
        ) -> Result<Vec<u8>, resolver::UpstreamError> {
            self.gate.recv().expect("released");
            self.auth.query_via(q, from, now, transport)
        }
    }

    #[test]
    fn joiners_in_the_pool_get_a_latency_sample_and_a_traced_join_each() {
        // Three workers' handlers over one flight table and one trace
        // sink (the pool itself has no tracer to install): one owns the
        // flight, two join it on their own threads.
        let mut config = cfg();
        config.overload.coalesce = true;
        let cache = Arc::new(SharedEcsCache::for_config(&config, 4));
        let flights = Arc::new(FlightTable::for_config(&config.overload));
        let sink = Arc::new(obs::MemorySink::new());
        let tracer = obs::Tracer::new(sink.clone());
        let ask = |id: u16, upstream: Box<dyn Upstream + Send>| {
            let mut engine = Resolver::with_shared_cache(config.clone(), Arc::clone(&cache));
            engine.set_tracer(tracer.clone());
            let mut handler = ResolverHandler {
                engine,
                upstream,
                flights: Arc::clone(&flights),
                join_wait: Duration::from_secs(5),
            };
            std::thread::spawn(move || {
                let q = Message::query(
                    id,
                    Question::a(Name::from_ascii("www.demo.example").unwrap()),
                )
                .to_bytes()
                .unwrap();
                let query = MessageView::parse(&q).unwrap();
                let peer = SocketAddr::from(([127, 0, 0, 1], 5300 + id));
                let prof = &mut obs::StageProfiler::off();
                let resp = handler
                    .handle(query, peer, SimTime::ZERO, prof, Vec::new())
                    .expect("never silence");
                (Message::from_bytes(&resp).unwrap(), handler.finish())
            })
        };
        let count = |name: &str| {
            let events = obs::analyze::parse_events(&sink.lines().join("\n")).unwrap();
            events.iter().filter(|e| e.event == name).count()
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !done() {
                assert!(std::time::Instant::now() < deadline, "no {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        let (release, gate) = std::sync::mpsc::channel();
        let auth = demo_auth();
        let mut asks = vec![ask(1, Box::new(Gated { gate, auth }))];
        wait_for("owner", &|| flights.in_flight() == 1);
        asks.push(ask(2, Box::new(demo_auth())));
        asks.push(ask(3, Box::new(demo_auth())));
        wait_for("joiners", &|| count("coalesced_join") == 2);
        release.send(()).unwrap();

        let mut folded = obs::MetricsSnapshot::default();
        for asked in asks {
            let (resp, engine) = asked.join().unwrap();
            assert_eq!(resp.answer_addrs(), vec![Ipv4Addr::new(198, 51, 100, 1)]);
            folded.merge(&engine);
        }
        let c = |name: &str| folded.counter(name).unwrap();
        assert_eq!(c("resolver_client_queries_total"), 3);
        assert_eq!(c("resolver_coalesced_queries_total"), 2);
        assert_eq!(c("resolver_upstream_queries_total"), 1);
        let latency = folded.histogram("resolver_query_latency_us").unwrap();
        assert_eq!(latency.count, 3);
        assert_eq!(count("query_received"), 3);
        assert_eq!(count("answered"), 3);
        assert_eq!(count("coalesced_join"), 2);
    }

    #[test]
    fn drops_garbage_and_responses() {
        let upstream = "127.0.0.1:1".parse().unwrap(); // never queried
        let handle = UdpResolverServer::bind("127.0.0.1:0", upstream, cfg())
            .unwrap()
            .spawn()
            .unwrap();
        crate::pool::testing::send_unanswerable_trio(handle.local_addr());
        let snap = handle.shutdown();
        crate::pool::testing::assert_trio_accounted(&snap, "resolverd");
        assert_eq!(snap.counter("resolver_client_queries_total"), Some(0));
    }

    #[test]
    fn eight_worker_burst_answers_every_query_and_accounts_for_it() {
        const NAMES: usize = 256;
        const QUERIES: usize = 5_000;
        const WINDOW: usize = 64;
        const MAX_RESENDS: u32 = 8;
        // The last /24 is the first one again: the two share a cache entry.
        let subnets = [
            [192, 0, 2, 0],
            [198, 51, 100, 0],
            [203, 0, 113, 0],
            [192, 0, 2, 128],
        ];

        let mut zone = Zone::new(Name::from_ascii("burst.example").unwrap());
        let mut templates = Vec::with_capacity(NAMES * (1 + subnets.len()));
        for i in 0..NAMES {
            let name = Name::from_ascii(&format!("www{i}.burst.example")).unwrap();
            // Long TTL: nothing expires mid-run.
            zone.add_a(name.clone(), 3600, Ipv4Addr::new(198, 51, 100, 1))
                .unwrap();
            templates.push(Message::query(0, Question::a(name.clone())));
            for net in subnets {
                let mut q = Message::query(0, Question::a(name.clone()));
                q.set_ecs(EcsOption::from_v4(Ipv4Addr::from(net), 24));
                templates.push(q);
            }
        }
        let templates: Vec<Vec<u8>> = templates.iter().map(|q| q.to_bytes().unwrap()).collect();

        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let auth = UdpAuthServer::bind("127.0.0.1:0", auth).unwrap();
        let auth_addr = auth.local_addr().unwrap();
        let auth_handle = auth.spawn();
        let handle = UdpResolverServer::bind("127.0.0.1:0", auth_addr, cfg())
            .unwrap()
            .with_workers(8)
            .with_profiling()
            .spawn()
            .unwrap();
        let addr = handle.local_addr();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(250)))
            .unwrap();

        // splitmix64: the mix is the same sequence on every run.
        let mut state = 0x0EC5_u64;
        let mut draw = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };

        // Closed loop, WINDOW in flight; query `n` carries wire id `n`.
        let mut outstanding = std::collections::HashMap::new();
        let mut distinct = std::collections::HashSet::new();
        let (mut sent, mut completed, mut resent) = (0usize, 0usize, 0u64);
        let mut buf = [0u8; 4096];
        while completed < QUERIES {
            while sent < QUERIES && outstanding.len() < WINDOW {
                // A quarter of the mix carries one of the /24s.
                let variant = if draw(4) == 0 {
                    1 + draw(subnets.len())
                } else {
                    0
                };
                let template = draw(NAMES) * (1 + subnets.len()) + variant;
                distinct.insert(template);
                let mut q = templates[template].clone();
                q[0..2].copy_from_slice(&(sent as u16).to_be_bytes());
                client.send_to(&q, addr).unwrap();
                outstanding.insert(sent as u16, (q, 0u32));
                sent += 1;
            }
            match client.recv_from(&mut buf) {
                // A second answer to a re-sent query finds nothing to remove.
                Ok((n, _)) => {
                    assert!(n >= 2, "runt reply");
                    let id = u16::from_be_bytes([buf[0], buf[1]]);
                    completed += usize::from(outstanding.remove(&id).is_some());
                }
                Err(_) => {
                    for (id, (q, resends)) in outstanding.iter_mut() {
                        *resends += 1;
                        assert!(*resends <= MAX_RESENDS, "query {id} never answered");
                        client.send_to(q, addr).unwrap();
                        resent += 1;
                    }
                }
            }
        }
        let snap = handle.shutdown();
        auth_handle.shutdown();

        crate::pool::testing::assert_accounted(&snap, "resolverd");
        let c = |name: &str| snap.counter(name).unwrap();
        assert!(c("resolverd_responses_total") >= QUERIES as u64);
        assert!(c("resolverd_queries_total") <= QUERIES as u64 + resent);
        assert_eq!(
            c("resolverd_queries_total"),
            c("resolver_client_queries_total")
        );
        // One upstream exchange per cache entry at most, however the eight
        // workers raced for it: the flight table coalesces the rest.
        assert!(
            c("resolver_upstream_queries_total") <= distinct.len() as u64,
            "{} upstream queries for {} distinct (name, /24) templates",
            c("resolver_upstream_queries_total"),
            distinct.len()
        );
        // Every query took a shard lock, and the monitors saw it.
        assert!(c("lock_cache_shard_acquisitions_total") >= QUERIES as u64);
    }

    #[test]
    fn profiling_off_leaves_no_prof_series() {
        let upstream = "127.0.0.1:1".parse().unwrap(); // never queried
        let handle = UdpResolverServer::bind("127.0.0.1:0", upstream, cfg())
            .unwrap()
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let (snap, profile) = handle.shutdown_profiled();
        assert!(profile.is_empty());
        assert_eq!(snap.counter("prof_spans_total"), None);
        assert_eq!(snap.counter("lock_cache_shard_acquisitions_total"), None);
    }

    #[test]
    fn shutdown_joins_all_workers_and_frees_the_port() {
        let upstream = "127.0.0.1:1".parse().unwrap(); // never queried
        let server = UdpResolverServer::bind("127.0.0.1:0", upstream, cfg())
            .unwrap()
            .with_workers(3);
        let handle = server.spawn().unwrap();
        let addr = handle.local_addr();
        assert_eq!(handle.workers(), 3);
        // `benchmark/src/serve.rs` finds the workers' CPU time by this name
        // (which a thread gives itself, so it can lag the spawn).
        #[cfg(target_os = "linux")]
        {
            let named = || {
                std::fs::read_dir("/proc/self/task")
                    .unwrap()
                    .flatten()
                    .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                    .any(|comm| comm.trim_end() == "dnsd-resolver-2")
            };
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while !named() {
                assert!(std::time::Instant::now() < deadline, "no dnsd-resolver-2");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let _ = handle.shutdown();
        let rebound = UdpResolverServer::bind(addr, upstream, cfg());
        assert!(rebound.is_ok(), "port still held after shutdown");
    }
}
