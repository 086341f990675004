//! The one UDP serving loop: N worker threads behind one socket, each
//! running the same batched recv → read in place → handle → send loop
//! around its own [`Handler`], which gets a [`MessageView`] and returns
//! bytes. [`crate::UdpAuthServer`] and
//! [`crate::UdpResolverServer`] are two handlers over this pool.
//!
//! ```text
//!                        ┌───────────────────────────┐
//!   clients ── UDP ────► │ shared socket (kernel     │
//!                        │ hands each datagram to    │
//!                        │ exactly one worker)       │
//!                        └─────┬─────────┬───────────┘
//!                        worker 0  …  worker N-1        each:
//!                        ┌─────────┐ ┌─────────┐        · RecvBatch/SendBatch
//!                        │ handler │ │ handler │        · its own Handler
//!                        └────┬────┘ └────┬────┘        · its own StageProfiler
//!                             │           │
//!                   ┌─────────▼───────────▼─────────┐
//!                   │ whatever the handlers share   │  the AuthServer mutex, or
//!                   │ (the pool does not know)      │  SharedEcsCache + FlightTable
//!                   └───────────────────────────────┘
//! ```
//!
//! * **Batched I/O**: a worker pulls up to [`DEFAULT_BATCH`] datagrams per
//!   syscall ([`RecvBatch`]) and flushes the replies in one
//!   ([`SendBatch`]) — the syscall cost amortises across the queue depth
//!   under load and degenerates to one-per-datagram when idle. Each
//!   handler is lent a buffer the last flush handed back
//!   ([`SendBatch::spare`]) to write its reply into, so a reply written
//!   there allocates nothing once the first batches have gone out.
//! * **Exact accounting** ([`accounted`]): every datagram pulled lands in
//!   one of `<prefix>_{queries,malformed_drops,ignored_responses}_total`,
//!   every query in one of `<prefix>_{responses,unanswered,send_failures}_total`
//!   (`unanswered`: the handler chose silence or the reply would not
//!   encode; `send_failures`: the kernel refused the datagram).
//!   `<prefix>_handle_latency_us` runs from a datagram's arrival in
//!   userspace to its reply being queued.
//! * **Fold after join**: a worker returns its [`Handler::Exit`] and its
//!   stage profile when it exits, so shutdown totals are exact at any
//!   worker count. With profiling off it holds [`obs::StageProfiler::off`]
//!   and the batch-width histograms are not even registered.
//! * **Shutdown**: [`PoolHandle::finish`] and dropping the handle both
//!   stop and join **every** worker exactly once (whichever runs first
//!   drains the thread list). A worker sees the stop flag only when its
//!   blocking receive returns, so shutdown can lag by the socket's 50 ms
//!   read timeout (the price of no self-pipe or non-blocking poll loop).
//! * **Nothing from outside ends a worker**: unparseable datagrams,
//!   responses, unsendable replies and interrupted receives are counted
//!   and served past; any other socket error is logged and ends it.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dns_wire::MessageView;
use netsim::SimTime;

use crate::batch::{RecvBatch, SendBatch, DEFAULT_BATCH};

/// What a worker does with one query, read in place. One handler per
/// worker thread, so `&mut self` state needs no synchronisation.
pub(crate) trait Handler: Send + 'static {
    /// What the worker hands back when it exits (folded after the join).
    type Exit: Send + 'static;

    /// Answers `query`, received from `peer` at `now` (microseconds since
    /// the pool was bound, on the [`SimTime`] axis the engines use), with
    /// the reply's bytes, best written into the lent `buf`. `None` is
    /// deliberate silence. Stages opened on `prof` nest under the pool's
    /// root stage.
    fn handle(
        &mut self,
        query: MessageView<'_>,
        peer: SocketAddr,
        now: SimTime,
        prof: &mut obs::StageProfiler,
        buf: Vec<u8>,
    ) -> Option<Vec<u8>>;

    /// Consumes the handler once its worker has left the loop.
    fn finish(self) -> Self::Exit;
}

/// True when `snap` satisfies both accounting identities of the module
/// docs for the pool whose series carry `prefix`.
pub(crate) fn accounted(snap: &obs::MetricsSnapshot, prefix: &str) -> bool {
    let c = |name: &str| snap.counter(&format!("{prefix}_{name}_total")).unwrap_or(0);
    c("datagrams") == c("queries") + c("malformed_drops") + c("ignored_responses")
        && c("queries") == c("responses") + c("unanswered") + c("send_failures")
}

/// What the workers of one pool share: the socket, the stop flag and the
/// front-end series (clones share all three; increments are atomic).
#[derive(Clone)]
struct Shared {
    socket: Arc<UdpSocket>,
    stop: Arc<AtomicBool>,
    /// Zero of the [`SimTime`] axis handlers see.
    started: Instant,
    /// Root profiler stage: `<root>;recv`, `<root>;decode` (the view), `<root>;send`.
    root: &'static str,
    datagrams: obs::Counter,
    queries: obs::Counter,
    responses: obs::Counter,
    malformed_drops: obs::Counter,
    ignored_responses: obs::Counter,
    unanswered: obs::Counter,
    send_failures: obs::Counter,
    handle_latency: obs::Histogram,
    /// Datagrams per recv / per send syscall (`dnsd_{recv,send}_batch_size`):
    /// queue depth under load, registered and recorded only when profiling.
    batch_sizes: Option<(obs::Histogram, obs::Histogram)>,
}

/// A bound socket and its telemetry, not yet serving.
pub(crate) struct Pool {
    shared: Shared,
    prefix: &'static str,
    thread: &'static str,
    /// The front-end registry (live; clones share series).
    pub registry: obs::MetricsRegistry,
    /// Worker threads [`Pool::spawn`] starts (≥ 1).
    pub workers: usize,
    /// Per-worker stage profiling and batch-width histograms.
    pub profile: bool,
}

impl Pool {
    /// Binds `addr` (port 0 picks one) with the 50 ms read timeout that
    /// bounds shutdown latency and the wait for the *first* datagram of a
    /// batch. Series are named `<prefix>_…`, stages `<root>;…`, threads
    /// `<thread>-<index>` (the benchmark finds a worker's CPU time by that
    /// name). One worker, profiling off.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        prefix: &'static str,
        root: &'static str,
        thread: &'static str,
    ) -> io::Result<Pool> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let registry = obs::MetricsRegistry::new();
        let counter = |name: &str| registry.counter(&format!("{prefix}_{name}_total"));
        let shared = Shared {
            socket: Arc::new(socket),
            stop: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            root,
            datagrams: counter("datagrams"),
            queries: counter("queries"),
            responses: counter("responses"),
            malformed_drops: counter("malformed_drops"),
            ignored_responses: counter("ignored_responses"),
            unanswered: counter("unanswered"),
            send_failures: counter("send_failures"),
            handle_latency: registry.histogram(&format!("{prefix}_handle_latency_us")),
            batch_sizes: None,
        };
        Ok(Pool {
            shared,
            prefix,
            thread,
            registry,
            workers: 1,
            profile: false,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.shared.socket.local_addr()
    }

    /// Starts the workers, worker `w` serving with `make(w)`. If a handler
    /// or a thread cannot be made, the workers already started are stopped
    /// and joined before the error is returned.
    pub fn spawn<H: Handler>(
        mut self,
        mut make: impl FnMut(usize) -> io::Result<H>,
    ) -> io::Result<PoolHandle<H::Exit>> {
        if self.profile {
            self.shared.batch_sizes = Some((
                self.registry.histogram("dnsd_recv_batch_size"),
                self.registry.histogram("dnsd_send_batch_size"),
            ));
        }
        let mut handle = PoolHandle {
            stop: Arc::clone(&self.shared.stop),
            threads: Vec::with_capacity(self.workers),
            local_addr: self.shared.socket.local_addr()?,
            prefix: self.prefix,
            registry: self.registry,
        };
        for w in 0..self.workers {
            let worker = Worker {
                shared: self.shared.clone(),
                handler: make(w)?,
                prof: if self.profile {
                    obs::StageProfiler::new()
                } else {
                    obs::StageProfiler::off()
                },
            };
            let thread = std::thread::Builder::new()
                .name(format!("{}-{w}", self.thread))
                .spawn(move || worker.run())?;
            handle.threads.push(thread);
        }
        Ok(handle)
    }
}

/// Handle to a running pool's worker threads (see the module docs for the
/// shutdown contract).
pub(crate) struct PoolHandle<E> {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<(E, obs::ProfileSnapshot)>>,
    /// The bound address.
    pub local_addr: SocketAddr,
    prefix: &'static str,
    /// The front-end registry (live while workers run).
    pub registry: obs::MetricsRegistry,
}

impl<E> PoolHandle<E> {
    /// Worker threads still attached (0 after the join).
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Signals the workers to stop and joins every one of them; returns
    /// what each handler finished with and the folded stage profile (empty
    /// unless the pool was profiling). Idempotent: a second call (or the
    /// [`Drop`] after it) finds the thread list drained and folds nothing.
    pub fn stop_and_join(&mut self) -> (Vec<E>, obs::ProfileSnapshot) {
        self.stop.store(true, Ordering::SeqCst);
        let mut folded = (Vec::new(), obs::ProfileSnapshot::default());
        for t in self.threads.drain(..) {
            // A worker that panicked has said so on stderr and folds nothing.
            if let Ok((exit, prof)) = t.join() {
                folded.0.push(exit);
                folded.1.merge(&prof);
            }
        }
        folded
    }

    /// The explicit shutdown: [`PoolHandle::stop_and_join`], plus (in debug
    /// builds) the check that the joined front end is [`accounted`].
    pub fn finish(mut self) -> (Vec<E>, obs::ProfileSnapshot) {
        let folded = self.stop_and_join();
        debug_assert!(
            accounted(&self.registry.snapshot(), self.prefix),
            "{} front end lost count of a datagram",
            self.prefix
        );
        folded
    }
}

impl<E> Drop for PoolHandle<E> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker thread's state.
struct Worker<H> {
    shared: Shared,
    handler: H,
    prof: obs::StageProfiler,
}

impl<H: Handler> Worker<H> {
    fn run(mut self) -> (H::Exit, obs::ProfileSnapshot) {
        let mut rx = RecvBatch::new(DEFAULT_BATCH);
        let mut tx = SendBatch::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            self.prof.enter(self.shared.root);
            let served = self.serve_batch(&mut rx, &mut tx);
            self.prof.exit();
            if let Err(e) = served {
                eprintln!("ecs-dnsd: {} worker: socket error: {e}", self.shared.root);
                break;
            }
        }
        (self.handler.finish(), self.prof.snapshot())
    }

    /// One receive window: pull, answer, flush. `Err` is a socket this
    /// worker cannot serve any more.
    fn serve_batch(&mut self, rx: &mut RecvBatch, tx: &mut SendBatch) -> io::Result<()> {
        let (prof, shared) = (&mut self.prof, &self.shared);
        prof.enter("recv");
        let got = rx.recv(&shared.socket);
        prof.exit();
        let n = match got {
            // A signal — SIGCONT after SIGSTOP, no handler needed — ends a
            // receive blocked under SO_RCVTIMEO with EINTR. It is as
            // transient as the timeout: re-check the stop flag and go on.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            other => other?,
        };
        if n == 0 {
            return Ok(());
        }
        shared.datagrams.add(n as u64);
        if let Some((recv_width, _)) = &shared.batch_sizes {
            recv_width.record(n as u64);
        }
        for i in 0..n {
            let (payload, peer) = rx.datagram(i);
            let received = shared.started.elapsed();
            prof.enter("decode");
            let read = MessageView::parse(payload);
            prof.exit();
            // Malformed packets are dropped, as real servers drop them.
            let Ok(query) = read else {
                shared.malformed_drops.inc();
                continue;
            };
            if query.is_response() {
                shared.ignored_responses.inc();
                continue;
            }
            shared.queries.inc();
            let now = SimTime::from_micros(received.as_micros() as u64);
            let reply = self.handler.handle(query, peer, now, prof, tx.spare());
            match reply {
                Some(bytes) => {
                    tx.push(bytes, peer);
                    let took = shared.started.elapsed() - received;
                    shared.handle_latency.record(took.as_micros() as u64);
                }
                None => shared.unanswered.inc(),
            }
        }
        let queued = tx.len();
        if let Some((_, send_width)) = &shared.batch_sizes {
            send_width.record(queued as u64);
        }
        prof.enter("send");
        let flushed = tx.flush(&shared.socket);
        prof.exit();
        let sent = *flushed.as_ref().unwrap_or(&0);
        shared.responses.add(sent as u64);
        shared.send_failures.add((queued - sent) as u64);
        flushed.map(|_| ())
    }
}

/// Checks shared by the pool's tests and both servers' tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use dns_wire::{Message, Name, Question};

    /// The accounting identities, with the numbers in the failure message.
    pub fn assert_accounted(snap: &obs::MetricsSnapshot, prefix: &str) {
        assert!(
            accounted(snap, prefix),
            "{prefix} front end lost count of a datagram: {}",
            snap.to_json()
        );
    }

    /// Sends three datagrams no DNS server may answer — garbage, a hostile
    /// header (a valid 12-byte frame claiming 65535 records in every
    /// section, which the bounded decoder rejects without allocating) and
    /// a well-formed *response* — and requires silence.
    pub fn send_unanswerable_trio(addr: SocketAddr) {
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        client.send_to(&[0xFF, 0x00, 0x01], addr).unwrap();
        let mut hostile = vec![0u8; 12];
        hostile[4..].fill(0xFF);
        client.send_to(&hostile, addr).unwrap();
        let q = Message::query(1, Question::a(Name::from_ascii("x.demo.example").unwrap()));
        let mut resp = Message::response_to(&q);
        resp.flags.qr = true;
        client.send_to(&resp.to_bytes().unwrap(), addr).unwrap();
        let mut buf = [0u8; 512];
        assert!(client.recv_from(&mut buf).is_err(), "no reply expected");
    }

    /// What a joined pool that saw only [`send_unanswerable_trio`] counted.
    pub fn assert_trio_accounted(snap: &obs::MetricsSnapshot, prefix: &str) {
        assert_accounted(snap, prefix);
        let c = |name: &str| snap.counter(&format!("{prefix}_{name}_total"));
        assert_eq!(c("datagrams"), Some(3));
        assert_eq!(c("malformed_drops"), Some(2));
        assert_eq!(c("ignored_responses"), Some(1));
        assert_eq!(c("queries"), Some(0));
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use dns_wire::{Message, Name, Question};

    /// The query id the echo handler stays silent for.
    const SILENT: u16 = 0xDEAD;

    /// Answers every query with itself, QR set, written into the lent
    /// buffer; counts what it saw.
    struct Echo(u64);

    impl Handler for Echo {
        type Exit = u64;

        fn handle(
            &mut self,
            query: MessageView<'_>,
            _: SocketAddr,
            _: SimTime,
            prof: &mut obs::StageProfiler,
            mut buf: Vec<u8>,
        ) -> Option<Vec<u8>> {
            self.0 += 1;
            prof.enter("echo_back");
            let resp = (query.id() != SILENT).then(|| {
                buf.extend_from_slice(query.bytes());
                buf[2] |= 0x80; // QR
                buf
            });
            prof.exit();
            resp
        }

        fn finish(self) -> u64 {
            self.0
        }
    }

    fn echo_pool(workers: usize, profile: bool) -> PoolHandle<u64> {
        let mut pool = Pool::bind("127.0.0.1:0", "echod", "echo", "echod").unwrap();
        pool.workers = workers;
        pool.profile = profile;
        pool.spawn(|_| Ok(Echo(0))).unwrap()
    }

    /// Sends queries `0..n` one at a time, each answered, then one the
    /// handler stays silent for.
    fn drive(addr: SocketAddr, n: u16) {
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let name = Name::from_ascii("www.demo.example").unwrap();
        let mut buf = [0u8; 512];
        for id in 0..n {
            let q = Message::query(id, Question::a(name.clone()));
            client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
            let (len, _) = client.recv_from(&mut buf).unwrap();
            let reply = MessageView::parse(&buf[..len]).unwrap();
            assert!(reply.is_response() && reply.id() == id);
        }
        let q = Message::query(SILENT, Question::a(name));
        client.send_to(&q.to_bytes().unwrap(), addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        assert!(client.recv_from(&mut buf).is_err(), "silence expected");
    }

    #[test]
    fn every_datagram_and_every_query_is_counted_once() {
        let handle = echo_pool(3, false);
        assert_eq!(handle.workers(), 3);
        drive(handle.local_addr, 5);
        send_unanswerable_trio(handle.local_addr);
        let registry = handle.registry.clone();
        let (exits, profile) = handle.finish();
        assert_eq!(exits.len(), 3, "one exit per worker");
        assert_eq!(exits.iter().sum::<u64>(), 6, "handlers saw queries only");
        assert!(profile.is_empty(), "profiling was off");

        let snap = registry.snapshot();
        assert_accounted(&snap, "echod");
        let c = |name: &str| snap.counter(&format!("echod_{name}_total"));
        assert_eq!(c("datagrams"), Some(9));
        assert_eq!(c("queries"), Some(6));
        assert_eq!(c("responses"), Some(5));
        assert_eq!(c("unanswered"), Some(1));
        assert_eq!(c("send_failures"), Some(0));
        assert_eq!(snap.histogram("echod_handle_latency_us").unwrap().count, 5);
        assert!(snap.histogram("dnsd_recv_batch_size").is_none());
    }

    #[test]
    fn profiling_roots_the_stages_and_records_batch_widths() {
        let handle = echo_pool(1, true);
        drive(handle.local_addr, 2);
        let registry = handle.registry.clone();
        let (_, profile) = handle.finish();
        let folded = profile.to_folded();
        for stack in [
            "echo;recv ",
            "echo;decode ",
            "echo;echo_back ",
            "echo;send ",
        ] {
            assert!(folded.contains(stack), "{stack:?} missing from:\n{folded}");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("dnsd_recv_batch_size").unwrap().sum, 3);
        assert_eq!(snap.histogram("dnsd_send_batch_size").unwrap().sum, 2);
    }

    #[test]
    fn stop_and_join_is_idempotent_and_drop_frees_the_port() {
        let mut handle = echo_pool(3, false);
        let addr = handle.local_addr;
        assert_eq!(handle.stop_and_join().0.len(), 3, "one exit per worker");
        assert_eq!(handle.workers(), 0, "every worker joined");
        assert!(handle.stop_and_join().0.is_empty(), "nothing left to join");
        drop(handle);
        assert!(
            Pool::bind(addr, "echod", "echo", "echod").is_ok(),
            "port still held"
        );
    }

    #[test]
    fn a_handler_that_cannot_be_made_stops_the_workers_already_started() {
        let mut pool = Pool::bind("127.0.0.1:0", "echod", "echo", "echod").unwrap();
        pool.workers = 3;
        let addr = pool.local_addr().unwrap();
        let spawned = pool.spawn(|w| {
            if w == 2 {
                return Err(io::Error::other("no third handler"));
            }
            Ok(Echo(0))
        });
        assert!(spawned.is_err());
        assert!(
            Pool::bind(addr, "echod", "echo", "echod").is_ok(),
            "workers 0 and 1 still serve"
        );
    }
}
