//! DNS over TCP (RFC 7766): the fallback path for truncated UDP answers.
//!
//! Framing is a two-octet big-endian length prefix per message. The server
//! handles one query per connection (as classic DNS servers do for
//! fallback traffic); the client connects, sends, reads one response.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use authoritative::AuthServer;
use dns_wire::framing::read_tcp_frame;
use dns_wire::MessageView;
use netsim::{SimTime, Transport};
use parking_lot::Mutex;
use resolver::Upstream;

/// Writes one length-prefixed DNS message to a stream. Framing comes from
/// [`dns_wire::framing::frame_tcp`].
fn write_framed(stream: &mut impl Write, msg: &[u8]) -> io::Result<()> {
    let framed = dns_wire::framing::frame_tcp(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    stream.write_all(&framed)?;
    stream.flush()
}

/// An authoritative DNS server on a TCP listener. TCP responses are never
/// truncated (the 64 KiB frame limit is the only bound): queries go through
/// [`AuthServer::reply`] over [`Transport::Tcp`].
pub struct TcpAuthServer {
    listener: TcpListener,
    auth: Arc<Mutex<AuthServer>>,
    started: Instant,
    stop: Arc<AtomicBool>,
}

/// Handle to a spawned TCP server thread.
///
/// [`TcpServerHandle::shutdown`] and dropping the handle both stop the
/// accept loop and join its thread exactly once. The loop polls a
/// non-blocking listener with a 10 ms sleep between empty polls, so an idle
/// server shuts down within ~10 ms; a server mid-connection first finishes
/// that exchange, bounded by the 2 s per-connection read timeout.
pub struct TcpServerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Shared access to the server state.
    pub auth: Arc<Mutex<AuthServer>>,
}

impl TcpServerHandle {
    /// Signals the accept loop to stop and joins the thread. Idempotent
    /// with [`Drop`]: whichever runs first does the work.
    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Signals the accept loop to stop and joins the thread (see the type
    /// docs for the shutdown-latency bound).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds a UDP and a TCP authoritative on one loopback port number, the
/// RFC 7766 same-port fallback pair, each try over a fresh `auth()`, the
/// TCP one serving the UDP one's shared state. UDP picks the port, and
/// TCP can find that number taken — the port spaces are disjoint, and a
/// `TIME_WAIT` leftover of an earlier TCP exchange or a parallel server
/// may hold it — so `AddrInUse` retries with a fresh UDP port, 16 tries
/// at most. Both servers are bound before the caller learns the address.
pub fn bind_same_port(
    auth: impl Fn() -> AuthServer,
) -> io::Result<(crate::UdpAuthServer, TcpAuthServer)> {
    let mut tries = 0;
    loop {
        let udp = crate::UdpAuthServer::bind("127.0.0.1:0", auth())?;
        tries += 1;
        match TcpAuthServer::bind(udp.local_addr()?, udp.auth()) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && tries < 16 => continue,
            tcp => return tcp.map(|tcp| (udp, tcp)),
        }
    }
}

impl TcpAuthServer {
    /// Binds a listener. Pass the `Arc<Mutex<AuthServer>>` shared with a
    /// [`crate::UdpAuthServer`] to serve the same zone on both transports.
    pub fn bind<A: ToSocketAddrs>(addr: A, auth: Arc<Mutex<AuthServer>>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpAuthServer {
            listener,
            auth,
            started: Instant::now(),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves one connection if one is pending.
    fn serve_once(&self) -> io::Result<bool> {
        let (mut stream, peer) = match self.listener.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        let Ok(raw) = read_tcp_frame(&mut stream) else {
            return Ok(false);
        };
        let now = SimTime::from_micros(self.started.elapsed().as_micros() as u64);
        let Ok(reply) = self
            .auth
            .lock()
            .query_via(&raw, peer.ip(), now, Transport::Tcp)
        else {
            return Ok(false);
        };
        let _ = write_framed(&mut stream, &reply);
        Ok(true)
    }

    /// Runs the accept loop on a thread.
    pub fn spawn(self) -> TcpServerHandle {
        let stop = self.stop.clone();
        let auth = self.auth.clone();
        let thread = std::thread::spawn(move || {
            while !self.stop.load(Ordering::SeqCst) {
                if let Err(e) = self.serve_once() {
                    eprintln!("ecs-dnsd(tcp): {e}");
                    break;
                }
            }
        });
        TcpServerHandle {
            stop,
            thread: Some(thread),
            auth,
        }
    }
}

/// One TCP exchange: send `query`, return the framed reply if it
/// [`MessageView::is_reply_to`] it; else [`crate::DigError::Timeout`].
pub fn tcp_exchange(
    server: SocketAddr,
    query: &[u8],
    timeout: Duration,
) -> Result<Vec<u8>, crate::DigError> {
    let asked = MessageView::parse(query).map_err(crate::DigError::Malformed)?;
    let mut stream = TcpStream::connect_timeout(&server, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_framed(&mut stream, query)?;
    let raw = read_tcp_frame(&mut stream)?;
    let reply = MessageView::parse(&raw).map_err(crate::DigError::Malformed)?;
    if !reply.is_reply_to(asked.id(), asked.questions().next().as_ref()) {
        return Err(crate::DigError::Timeout);
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Message, Name, Question, Rdata, Record};
    use std::net::Ipv4Addr;

    fn big_auth(records: u8) -> AuthServer {
        let mut zone = Zone::new(Name::from_ascii("big.example").unwrap());
        for i in 0..records {
            zone.add(Record::new(
                Name::from_ascii("www.big.example").unwrap(),
                60,
                Rdata::A(Ipv4Addr::new(198, 51, 100, i + 1)),
            ))
            .unwrap();
        }
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    #[test]
    fn framing_roundtrip() {
        let mut buf = Vec::new();
        write_framed(&mut buf, &[1, 2, 3, 4]).unwrap();
        assert_eq!(buf, vec![0, 4, 1, 2, 3, 4]);
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_tcp_frame(&mut cursor).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn framing_rejects_oversize() {
        let huge = vec![0u8; 70_000];
        let mut out = Vec::new();
        assert!(write_framed(&mut out, &huge).is_err());
    }

    #[test]
    fn tcp_serves_untruncated_answers() {
        let auth = Arc::new(Mutex::new(big_auth(100)));
        let server = TcpAuthServer::bind("127.0.0.1:0", auth).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        // Over TCP the 100-record answer (>512 bytes) arrives whole.
        let mut q = Message::query(9, Question::a(Name::from_ascii("www.big.example").unwrap()));
        q.edns = None; // a plain client that would be truncated over UDP
        let resp = tcp_exchange(addr, &q.to_bytes().unwrap(), Duration::from_secs(2)).unwrap();
        let resp = Message::from_bytes(&resp).unwrap();
        assert!(!resp.flags.tc);
        assert_eq!(resp.answers.len(), 100);
        handle.shutdown();
    }
}
