//! DNS over TCP (RFC 7766): the fallback path for truncated UDP answers.
//!
//! Framing is a two-octet big-endian length prefix per message. The server
//! handles one query per connection (as classic DNS servers do for
//! fallback traffic); the client connects, sends, reads one response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use authoritative::AuthServer;
use dns_wire::Message;
use netsim::SimTime;
use parking_lot::Mutex;

/// Reads one length-prefixed DNS message from a stream.
pub fn read_framed(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let n = u16::from_be_bytes(len) as usize;
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

/// Writes one length-prefixed DNS message to a stream. Framing comes from
/// [`dns_wire::framing::frame_tcp`].
pub fn write_framed(stream: &mut impl Write, msg: &[u8]) -> io::Result<()> {
    let framed = dns_wire::framing::frame_tcp(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    stream.write_all(&framed)?;
    stream.flush()
}

/// An authoritative DNS server on a TCP listener. TCP responses are never
/// truncated (the 64 KiB frame limit is the only bound): queries go through
/// [`AuthServer::handle_stream`].
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
    pub fn serve_once(&self) -> io::Result<bool> {
        let (mut stream, peer) = match self.listener.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        let Ok(raw) = read_framed(&mut stream) else {
            return Ok(false);
        };
        let Ok(query) = Message::from_bytes(&raw) else {
            return Ok(false);
        };
        if query.is_response() {
            return Ok(false);
        }
        let now = SimTime::from_micros(self.started.elapsed().as_micros() as u64);
        let resp = self.auth.lock().handle_stream(&query, peer.ip(), now);
        if let Ok(bytes) = resp.to_bytes() {
            let _ = write_framed(&mut stream, &bytes);
        }
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

/// One TCP exchange: connect, send, read one response.
pub fn tcp_exchange(
    server: SocketAddr,
    query: &Message,
    timeout: Duration,
) -> Result<Message, crate::DigError> {
    let mut stream = TcpStream::connect_timeout(&server, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let bytes = query.to_bytes().map_err(crate::DigError::Malformed)?;
    write_framed(&mut stream, &bytes)?;
    let raw = read_framed(&mut stream)?;
    Message::from_bytes(&raw).map_err(crate::DigError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Name, Question, Rdata, Record};
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
        assert_eq!(read_framed(&mut cursor).unwrap(), vec![1, 2, 3, 4]);
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
        let resp = tcp_exchange(addr, &q, Duration::from_secs(2)).unwrap();
        assert!(!resp.flags.tc);
        assert_eq!(resp.answers.len(), 100);
        handle.shutdown();
    }
}
