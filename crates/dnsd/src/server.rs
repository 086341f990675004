//! The UDP server: an [`AuthServer`] behind a real socket, served by the
//! crate's one worker pool (`pool.rs`: the loop, its accounting and its
//! shutdown contract).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use authoritative::AuthServer;
use dns_wire::MessageView;
use netsim::{SimTime, Transport};
use parking_lot::Mutex;

use crate::pool::{Handler, Pool, PoolHandle};

/// Deterministic fault knobs for a [`UdpAuthServer`], for exercising client
/// and resolver failure paths against a real socket without any randomness:
/// the first `drop_first` queries are swallowed (the client sees timeouts).
/// A truncation comes from an answer too big for the query's advertised
/// buffer, which [`AuthServer::reply`] truncates by itself.
#[derive(Debug, Default)]
pub struct ServerFaults {
    /// How many initial queries to swallow without replying.
    pub drop_first: u32,
}

/// An authoritative DNS server bound to a UDP socket.
///
/// The server maps wall-clock time onto the [`SimTime`] axis the
/// authoritative logic uses (microseconds since the socket was bound), so
/// TTL bookkeeping and query logs behave identically to the simulator.
///
/// [`UdpAuthServer::spawn`] runs [`UdpAuthServer::with_workers`] serve
/// threads over *one shared socket*: every worker blocks in a batched
/// receive on the same descriptor and the kernel hands each datagram to
/// exactly one of them — the shared-socket sibling of an `SO_REUSEPORT`
/// group, with no userspace dispatch queue to balance. All workers write
/// the same registry-backed metrics (clones share series), so telemetry is
/// parallelism-invariant by construction.
pub struct UdpAuthServer {
    pool: Pool,
    /// What every worker serves with (clones share the server and the
    /// fault budget).
    handler: AuthHandler,
}

/// Handle to a spawned server's worker threads.
///
/// Both [`ServerHandle::shutdown`] and dropping the handle stop the serve
/// loops and join **every** worker exactly once; running both is safe.
/// Stopping can lag by up to the socket's 50 ms read timeout.
pub struct ServerHandle {
    pool: PoolHandle<()>,
    /// Shared access to the server state (query log inspection).
    pub auth: Arc<Mutex<AuthServer>>,
}

impl ServerHandle {
    /// Signals the serve loops to stop and joins all workers.
    pub fn shutdown(self) {
        self.pool.finish();
    }

    /// Like [`ServerHandle::shutdown`], additionally returning the folded
    /// per-worker stage profile (empty unless the server was built
    /// [`UdpAuthServer::with_profiling`]).
    pub fn shutdown_profiled(self) -> obs::ProfileSnapshot {
        self.pool.finish().1
    }

    /// Worker threads still attached to this handle (0 after shutdown).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Datagrams dropped so far because they failed to decode. Reads the
    /// registry-backed counter the serve loop increments.
    pub fn malformed_drops(&self) -> u64 {
        malformed_drops(&self.pool.registry)
    }

    /// The server's metrics registry (shared with the serve loop), for
    /// snapshotting or serving over the metrics HTTP endpoint.
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.pool.registry
    }
}

fn malformed_drops(registry: &obs::MetricsRegistry) -> u64 {
    registry.counter("dnsd_malformed_drops_total").get()
}

impl UdpAuthServer {
    /// Binds to an address (e.g. `"127.0.0.1:5353"`; port 0 picks one).
    pub fn bind<A: ToSocketAddrs>(addr: A, auth: AuthServer) -> io::Result<Self> {
        let pool = Pool::bind(addr, "dnsd", "auth", "dnsd-auth")?;
        let handler = AuthHandler {
            auth: Arc::new(Mutex::new(auth)),
            drop_remaining: Arc::new(AtomicU32::new(0)),
            fault_drops: pool.registry.counter("dnsd_fault_drops_total"),
        };
        Ok(UdpAuthServer { pool, handler })
    }

    /// Turns on per-worker stage profiling. Off by default; the serve
    /// loop then pays one branch per stage. Retrieve the folded profile
    /// with [`ServerHandle::shutdown_profiled`].
    pub fn with_profiling(mut self) -> Self {
        self.pool.profile = true;
        self
    }

    /// Arms deterministic fault injection (see [`ServerFaults`]).
    pub fn with_faults(mut self, faults: ServerFaults) -> Self {
        self.handler.drop_remaining = Arc::new(AtomicU32::new(faults.drop_first));
        self
    }

    /// Sets how many serve threads [`UdpAuthServer::spawn`] starts
    /// (clamped to ≥ 1; the default is 1, the historical single-threaded
    /// server).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.pool.workers = workers.max(1);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.pool.local_addr()
    }

    /// Shared access to the wrapped authoritative server.
    pub fn auth(&self) -> Arc<Mutex<AuthServer>> {
        self.handler.auth.clone()
    }

    /// Datagrams dropped so far because they failed to decode.
    pub fn malformed_drops(&self) -> u64 {
        malformed_drops(&self.pool.registry)
    }

    /// The server's metrics registry, for snapshotting or serving over the
    /// metrics HTTP endpoint (clones share the live series).
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.pool.registry
    }

    /// Runs [`UdpAuthServer::with_workers`] serve loops over the shared
    /// socket until [`ServerHandle::shutdown`]. Everything the workers
    /// share is already thread-safe (`auth` behind its mutex, the fault
    /// budget an atomic countdown).
    pub fn spawn(self) -> ServerHandle {
        let pool = self
            .pool
            .spawn(|_| Ok(self.handler.clone()))
            .expect("spawn dnsd worker thread");
        ServerHandle {
            pool,
            auth: self.handler.auth,
        }
    }
}

/// One worker's view of the authoritative: the shared server and the
/// shared fault budget.
#[derive(Clone)]
struct AuthHandler {
    auth: Arc<Mutex<AuthServer>>,
    /// Remaining queries to drop (counts down from
    /// [`ServerFaults::drop_first`] across all workers).
    drop_remaining: Arc<AtomicU32>,
    fault_drops: obs::Counter,
}

impl Handler for AuthHandler {
    type Exit = ();

    /// Answers through [`AuthServer::reply`], the one datagram path, into
    /// the lent buffer.
    #[inline]
    fn handle(
        &mut self,
        query: MessageView<'_>,
        peer: SocketAddr,
        now: SimTime,
        prof: &mut obs::StageProfiler,
        buf: Vec<u8>,
    ) -> Option<Vec<u8>> {
        // Fault injection: swallow the first N queries (the client times
        // out, exactly as if the reply was lost in the network).
        if self
            .drop_remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            self.fault_drops.inc();
            return None;
        }
        prof.enter("handle");
        let resp = self
            .auth
            .lock()
            .reply(query, peer.ip(), now, Transport::Udp, buf);
        prof.exit();
        resp
    }

    fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{EcsOption, Message, Name, Question};
    use std::net::{Ipv4Addr, UdpSocket};
    use std::time::Duration;

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

    #[test]
    fn serves_over_loopback() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut q = Message::query(
            0x4242,
            Question::a(Name::from_ascii("www.demo.example").unwrap()),
        );
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        client.send_to(&q.to_bytes().unwrap(), addr).unwrap();

        let mut buf = [0u8; 4096];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        let resp = Message::from_bytes(&buf[..n]).unwrap();
        assert_eq!(resp.id, 0x4242);
        assert_eq!(resp.answer_addrs().len(), 1);
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 20);

        // Query log captured the client.
        assert_eq!(handle.auth.lock().log().len(), 1);
        handle.shutdown();
    }

    #[test]
    fn drops_garbage_and_responses() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        crate::pool::testing::send_unanswerable_trio(addr);
        // Exactly the two undecodable datagrams counted; the well-formed
        // response was ignored, not counted as malformed.
        assert_eq!(handle.malformed_drops(), 2);
        let registry = handle.registry().clone();
        handle.shutdown();
        crate::pool::testing::assert_trio_accounted(&registry.snapshot(), "dnsd");
    }

    #[test]
    fn multi_worker_pool_serves_and_counts_once() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
            .unwrap()
            .with_workers(4);
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();
        assert_eq!(handle.workers(), 4);

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 4096];
        for i in 0..32u16 {
            let q = Message::query(
                i,
                Question::a(Name::from_ascii("www.demo.example").unwrap()),
            );
            client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
            let (n, _) = client.recv_from(&mut buf).unwrap();
            let resp = Message::from_bytes(&buf[..n]).unwrap();
            assert_eq!(resp.id, i);
        }
        // The shared registry saw each query exactly once regardless of
        // which worker picked it up. Snapshot after the join: a worker
        // increments the response counter *after* sending, so the client
        // can hold reply #32 before the counter reads 32.
        let registry = handle.registry().clone();
        handle.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("dnsd_queries_total"), Some(32));
        assert_eq!(snap.counter("dnsd_responses_total"), Some(32));
    }

    #[test]
    fn profiled_auth_serving_folds_worker_stacks() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
            .unwrap()
            .with_workers(2)
            .with_profiling();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 4096];
        for i in 0..4u16 {
            let q = Message::query(
                i,
                Question::a(Name::from_ascii("www.demo.example").unwrap()),
            );
            client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
            client.recv_from(&mut buf).unwrap();
        }
        let profile = handle.shutdown_profiled();
        assert!(!profile.is_empty());
        let folded = profile.to_folded();
        assert!(folded.contains("auth;recv"), "{folded}");
        assert!(folded.contains("auth;handle"), "{folded}");
        // 4 queries handled → at least 4 handle spans across the pool.
        assert!(profile.subtree_us("auth") <= profile.total_self_us());
    }

    #[test]
    fn multi_worker_shutdown_joins_all_workers_idempotently() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth())
            .unwrap()
            .with_workers(3);
        let addr = server.local_addr().unwrap();
        let mut handle = server.spawn();
        assert_eq!(handle.workers(), 3);

        // First stop path: the internal stop-and-join drains all threads.
        handle.pool.stop_and_join();
        assert_eq!(handle.workers(), 0, "every worker joined");
        // Second stop path (what Drop will also run): finds nothing left
        // to join and must not hang or panic.
        handle.pool.stop_and_join();
        assert_eq!(handle.workers(), 0);
        drop(handle);

        // The socket is released: a fresh server can bind the same port.
        let rebound = UdpAuthServer::bind(addr, demo_auth());
        assert!(rebound.is_ok(), "port still held after shutdown");
    }
}
