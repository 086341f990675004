//! The multi-worker recursive serving path: N worker threads behind one
//! UDP socket, each running its own [`resolver::Resolver`] engine, all
//! sharing one sharded [`SharedEcsCache`] and one [`FlightTable`].
//!
//! Architecture (one box per thread):
//!
//! ```text
//!                        ┌───────────────────────────┐
//!   clients ── UDP ────► │ shared socket (kernel     │
//!                        │ hands each datagram to    │
//!                        │ exactly one worker)       │
//!                        └─────┬─────────┬───────────┘
//!                        worker 0  …  worker N-1        each:
//!                        ┌─────────┐ ┌─────────┐        · RecvBatch/SendBatch
//!                        │ engine  │ │ engine  │        · Resolver engine
//!                        │ +socket │ │ +socket │        · own SocketUpstream
//!                        └────┬────┘ └────┬────┘
//!                             │           │
//!                   ┌─────────▼───────────▼─────────┐
//!                   │ Arc<SharedEcsCache> (sharded) │  one insert, all hit
//!                   │ Arc<FlightTable>              │  join/shed globally
//!                   └───────────────────────────────┘
//! ```
//!
//! Division of labour:
//!
//! * **Per-worker**: the resolution *engine* (probing state, retry policy,
//!   stats, upstream socket). Engines never synchronise on the hot path —
//!   a cache hit takes exactly one shard lock.
//! * **Shared**: the ECS *cache* (sharded by qname, so RFC 7871 scope
//!   matching and per-name caps see a name's full entry list) and the
//!   *flight table* (so coalescing and `max_in_flight` hold globally, not
//!   per worker).
//! * **Batched I/O**: workers pull up to [`crate::DEFAULT_BATCH`] datagrams
//!   per syscall ([`RecvBatch`]) and flush replies in one
//!   ([`SendBatch`]) — the syscall cost amortises across the queue depth
//!   under load and degenerates to one-per-datagram when idle.
//!
//! Telemetry is folded, not shared: each worker returns its engine's
//! metrics snapshot when it exits, and [`ResolverServerHandle::shutdown`]
//! merges them with the shared cache's registries (counted once — the
//! cache is shared, its counters are not per-worker) and the socket-level
//! counters. The fold is exact because it happens after the join.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dns_wire::Message;
use netsim::SimTime;
use resolver::{
    Admission, FlightTable, Resolver, ResolverConfig, SharedEcsCache, Step, TransportFaults,
    TransportUpstream, Upstream, UpstreamError,
};

use crate::batch::{RecvBatch, SendBatch, DEFAULT_BATCH};
use crate::upstream::SocketUpstream;

/// Socket-level counters, shared by every worker (registry clones share
/// series; increments are atomic).
#[derive(Clone)]
struct FrontEndMetrics {
    registry: obs::MetricsRegistry,
    queries: obs::Counter,
    responses: obs::Counter,
    malformed_drops: obs::Counter,
    handle_latency: obs::Histogram,
    /// Datagrams pulled per recv syscall / flushed per send syscall.
    /// Recorded only when profiling is on (they measure queue depth under
    /// load — exactly what the 4→8-worker investigation needs).
    recv_batch: obs::Histogram,
    send_batch: obs::Histogram,
}

impl FrontEndMetrics {
    fn new() -> Self {
        let registry = obs::MetricsRegistry::new();
        FrontEndMetrics {
            queries: registry.counter("resolverd_queries_total"),
            responses: registry.counter("resolverd_responses_total"),
            malformed_drops: registry.counter("resolverd_malformed_drops_total"),
            handle_latency: registry.histogram("resolverd_handle_latency_us"),
            recv_batch: registry.histogram("dnsd_recv_batch_size"),
            send_batch: registry.histogram("dnsd_send_batch_size"),
            registry,
        }
    }
}

/// A recursive resolver behind a UDP socket, served by a pool of worker
/// threads (see the module docs for the architecture).
pub struct UdpResolverServer {
    socket: UdpSocket,
    upstream_addr: SocketAddr,
    config: ResolverConfig,
    workers: usize,
    cache_shards: usize,
    upstream_timeout: Duration,
    upstream_faults: Option<(TransportFaults, u64)>,
    metrics: FrontEndMetrics,
    profile: bool,
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
        let socket = UdpSocket::bind(addr)?;
        // The read timeout bounds both shutdown latency and the recv batch
        // wait for the *first* datagram of a batch.
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(UdpResolverServer {
            socket,
            upstream_addr,
            config,
            workers: 1,
            cache_shards: 0, // 0 = follow the worker count
            upstream_timeout: Duration::from_millis(500),
            upstream_faults: None,
            metrics: FrontEndMetrics::new(),
            profile: false,
        })
    }

    /// Turns on the profiling/diagnosis layer: per-worker stage profilers
    /// (folded after the join into a flamegraph-ready
    /// [`obs::ProfileSnapshot`]), lock-contention telemetry on the shared
    /// cache shards and the flight table, and the recv/send batch-size
    /// histograms. Off by default; the serving path is untouched when off.
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Scan/soak mode: every worker's upstream is wrapped in a
    /// [`resolver::TransportUpstream`] carrying `faults` as standing
    /// per-transport faults, seeded with `seed + worker index` so each
    /// worker draws an independent deterministic fault stream. Without
    /// this call the serving path is untouched (no wrapper, bit-identical
    /// to before the scan mode existed).
    pub fn with_upstream_faults(mut self, faults: TransportFaults, seed: u64) -> Self {
        self.upstream_faults = Some((faults, seed));
        self
    }

    /// Sets how many worker threads [`UdpResolverServer::spawn`] starts
    /// (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the shared cache's shard count explicitly. The default follows
    /// the worker count (with a floor of 4 so a briefly-single-threaded
    /// server doesn't serialise a later, wider pool).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Sets the per-attempt upstream socket timeout.
    pub fn with_upstream_timeout(mut self, timeout: Duration) -> Self {
        self.upstream_timeout = timeout;
        self
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The socket-level metrics registry (live; clones share series).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.metrics.registry
    }

    /// Starts the worker pool and returns its handle.
    pub fn spawn(self) -> io::Result<ResolverServerHandle> {
        let local_addr = self.socket.local_addr()?;
        let shards = if self.cache_shards == 0 {
            self.workers.max(4)
        } else {
            self.cache_shards
        };
        let mut cache = SharedEcsCache::for_config(&self.config, shards);
        let mut flights = FlightTable::for_config(&self.config.overload);
        if self.profile {
            cache.enable_contention(&self.metrics.registry);
            flights.enable_contention(&self.metrics.registry);
        }
        let cache = Arc::new(cache);
        let flights = Arc::new(flights);
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        // A joiner waits as long as its flight's owner could legitimately
        // take: every retry attempt may burn one UDP and one TCP timeout.
        let attempts = self.config.retry.attempts.max(1) as u32;
        let join_wait = self.upstream_timeout * (2 * attempts) + Duration::from_millis(100);

        let mut threads = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let socket = self.socket.try_clone()?;
            let plain =
                SocketUpstream::new(self.upstream_addr)?.with_timeout(self.upstream_timeout);
            let upstream = match self.upstream_faults {
                None => WorkerUpstream::Plain(plain),
                Some((faults, seed)) => WorkerUpstream::Faulted(Box::new(
                    TransportUpstream::new(plain, seed.wrapping_add(w as u64)).with_faults(faults),
                )),
            };
            let engine = Resolver::with_shared_cache(self.config.clone(), Arc::clone(&cache));
            let worker = Worker {
                socket,
                engine,
                upstream,
                flights: Arc::clone(&flights),
                stop: Arc::clone(&stop),
                metrics: self.metrics.clone(),
                started,
                join_wait,
                profiler: self.profile.then(obs::StageProfiler::new),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dnsd-resolver-{w}"))
                    .spawn(move || worker.run())
                    .map_err(io::Error::other)?,
            );
        }
        Ok(ResolverServerHandle {
            stop,
            threads,
            local_addr,
            cache,
            flights,
            metrics: self.metrics,
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
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<(obs::MetricsSnapshot, Option<obs::ProfileSnapshot>)>>,
    local_addr: SocketAddr,
    cache: Arc<SharedEcsCache>,
    flights: Arc<FlightTable>,
    metrics: FrontEndMetrics,
}

impl ResolverServerHandle {
    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Worker threads still attached (0 after shutdown).
    pub fn workers(&self) -> usize {
        self.threads.len()
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
        &self.metrics.registry
    }

    fn stop_and_join(&mut self) -> (obs::MetricsSnapshot, obs::ProfileSnapshot) {
        self.stop.store(true, Ordering::SeqCst);
        let mut folded = obs::MetricsSnapshot::default();
        let mut profile = obs::ProfileSnapshot::default();
        for t in self.threads.drain(..) {
            if let Ok((snap, prof)) = t.join() {
                folded.merge(&snap);
                if let Some(prof) = prof {
                    profile.merge(&prof);
                }
            }
        }
        (folded, profile)
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
    pub fn shutdown_profiled(mut self) -> (obs::MetricsSnapshot, obs::ProfileSnapshot) {
        let (mut folded, profile) = self.stop_and_join();
        folded.merge(&self.cache.snapshot());
        if !profile.is_empty() {
            let reg = obs::MetricsRegistry::new();
            profile.to_metrics(&reg);
            folded.merge(&reg.snapshot());
        }
        folded.merge(&self.metrics.registry.snapshot());
        (folded, profile)
    }
}

impl Drop for ResolverServerHandle {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// A worker's upstream: the bare socket, or — in scan/soak mode — the
/// same socket behind a [`TransportUpstream`] injecting standing
/// per-transport faults. An enum rather than an unconditional wrapper so
/// the default path stays byte-identical to the pre-scan-mode server
/// (the differential tests compare it against the event-driven engine).
enum WorkerUpstream {
    Plain(SocketUpstream),
    Faulted(Box<TransportUpstream<SocketUpstream>>),
}

impl Upstream for WorkerUpstream {
    fn query(
        &mut self,
        q: &Message,
        from: std::net::IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        match self {
            WorkerUpstream::Plain(u) => u.query(q, from, now),
            WorkerUpstream::Faulted(u) => u.query(q, from, now),
        }
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        from: std::net::IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        match self {
            WorkerUpstream::Plain(u) => u.query_tcp(q, from, now),
            WorkerUpstream::Faulted(u) => u.query_tcp(q, from, now),
        }
    }

    fn query_via(
        &mut self,
        q: &Message,
        from: std::net::IpAddr,
        now: SimTime,
        transport: netsim::Transport,
    ) -> Result<Message, UpstreamError> {
        match self {
            WorkerUpstream::Plain(u) => u.query_via(q, from, now, transport),
            WorkerUpstream::Faulted(u) => u.query_via(q, from, now, transport),
        }
    }
}

/// One worker thread's state.
struct Worker {
    socket: UdpSocket,
    engine: Resolver,
    upstream: WorkerUpstream,
    flights: Arc<FlightTable>,
    stop: Arc<AtomicBool>,
    metrics: FrontEndMetrics,
    started: Instant,
    join_wait: Duration,
    /// Per-worker stage profiler (profiling mode only); folded into one
    /// [`obs::ProfileSnapshot`] after the join, like the metrics.
    profiler: Option<obs::StageProfiler>,
}

impl Worker {
    /// The serve loop. Returns this worker's engine metrics snapshot (and
    /// its stage profile when profiling) so the handle can fold them
    /// after the join.
    fn run(mut self) -> (obs::MetricsSnapshot, Option<obs::ProfileSnapshot>) {
        let mut rx = RecvBatch::new(DEFAULT_BATCH);
        let mut tx = SendBatch::new();
        let mut prof = self.profiler.take();
        while !self.stop.load(Ordering::SeqCst) {
            if let Some(p) = prof.as_mut() {
                p.enter("worker");
                p.enter("recv");
            }
            let n = match rx.recv(&self.socket) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("ecs-dnsd resolver worker: socket error: {e}");
                    if let Some(p) = prof.as_mut() {
                        p.exit();
                        p.exit();
                    }
                    break;
                }
            };
            if let Some(p) = prof.as_mut() {
                p.exit(); // recv
                if n > 0 {
                    self.metrics.recv_batch.record(n as u64);
                }
            }
            if n == 0 {
                // Read timeout: close the worker span and re-check stop.
                if let Some(p) = prof.as_mut() {
                    p.exit();
                }
                continue;
            }
            for i in 0..n {
                let (payload, peer) = rx.datagram(i);
                let received = self.started.elapsed();
                if let Some(p) = prof.as_mut() {
                    p.enter("decode");
                }
                let decoded = Message::from_bytes(payload);
                if let Some(p) = prof.as_mut() {
                    p.exit();
                }
                let Ok(query) = decoded else {
                    self.metrics.malformed_drops.inc();
                    continue;
                };
                if query.is_response() {
                    continue;
                }
                self.metrics.queries.inc();
                let now = SimTime::from_micros(received.as_micros() as u64);
                let resp = self.handle_query(&query, peer, now, &mut prof);
                if let Ok(bytes) = resp.to_bytes() {
                    tx.push(bytes, peer);
                    self.metrics.responses.inc();
                    self.metrics
                        .handle_latency
                        .record((self.started.elapsed() - received).as_micros() as u64);
                }
            }
            if let Some(p) = prof.as_mut() {
                self.metrics.send_batch.record(tx.len() as u64);
                p.enter("send");
            }
            let flushed = tx.flush(&self.socket);
            if let Some(p) = prof.as_mut() {
                p.exit(); // send
                p.exit(); // worker
            }
            if flushed.is_err() {
                break;
            }
        }
        (self.engine.metrics_snapshot(), prof.map(|p| p.snapshot()))
    }

    /// Resolves one client query, routing any upstream exchange through
    /// the shared flight table. The admission order matches the
    /// event-driven actor path exactly: join, then shed, then own.
    fn handle_query(
        &mut self,
        query: &Message,
        peer: SocketAddr,
        now: SimTime,
        prof: &mut Option<obs::StageProfiler>,
    ) -> Message {
        if let Some(p) = prof.as_mut() {
            p.enter("resolve");
        }
        let resp = self.handle_query_inner(query, peer, now, prof);
        if let Some(p) = prof.as_mut() {
            p.exit();
        }
        resp
    }

    fn handle_query_inner(
        &mut self,
        query: &Message,
        peer: SocketAddr,
        now: SimTime,
        prof: &mut Option<obs::StageProfiler>,
    ) -> Message {
        let pending = match self.engine.begin(query, peer.ip(), now) {
            Step::Answer(resp) => {
                // Cache hit / refusal / local answer: no upstream leg.
                if let Some(p) = prof.as_mut() {
                    p.enter("local");
                    p.exit();
                }
                return resp;
            }
            Step::NeedUpstream(pending) => pending,
        };
        match self.flights.admit(&pending.flight_key()) {
            Admission::Joiner(flight) => {
                if let Some(p) = prof.as_mut() {
                    p.enter("join_wait");
                }
                // Ride the identical outstanding flight: retract the
                // upstream send `begin` counted, wait for the owner's raw
                // response, and build this client's own answer from it.
                self.engine.note_coalesced(&pending.upstream_query);
                let resp = match flight.wait(self.join_wait) {
                    Some(up) => self.engine.joiner_response(&pending.client_query, &up),
                    // Owner failed (or timed out): each joiner falls back
                    // to its own serve-stale/SERVFAIL decision.
                    None => self.engine.stale_or_servfail(
                        &pending.client_query,
                        &pending.question.name,
                        pending.question.qtype,
                        pending.client_addr,
                        now,
                    ),
                };
                if let Some(p) = prof.as_mut() {
                    p.exit();
                }
                resp
            }
            Admission::Shed => {
                if let Some(p) = prof.as_mut() {
                    p.enter("shed");
                    p.exit();
                }
                self.engine.shed(&pending)
            }
            Admission::Owner(token) => {
                if let Some(p) = prof.as_mut() {
                    p.enter("own_upstream");
                }
                let (answer, raw) =
                    self.engine
                        .drive_upstream_capturing(pending, now, &mut self.upstream);
                // Publish before answering our own client: joiners are
                // other workers' clients and should not wait on our send.
                token.complete(raw);
                if let Some(p) = prof.as_mut() {
                    p.exit();
                }
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
    use dns_wire::{EcsOption, Name, Question};
    use std::net::Ipv4Addr;

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
        let _ = handle.shutdown();
        let rebound = UdpResolverServer::bind(addr, upstream, cfg());
        assert!(rebound.is_ok(), "port still held after shutdown");
    }
}
