//! The resolution engine over real sockets.
//!
//! [`SocketUpstream`] implements [`resolver::Upstream`] against a live DNS
//! server address: over UDP one datagram per attempt, surfacing lost
//! replies as [`UpstreamError::Timeout`] and TC answers as
//! [`UpstreamError::Truncated`]; over a stream transport a real RFC 7766
//! framed TCP exchange (the DoT rung too: with no real crypto in the study
//! it carries the same length-prefixed stream). It neither encodes nor
//! decodes: it sends the query datagram the engine hands it and returns
//! the reply datagram it accepted, by the rule the simulated egress
//! applies ([`dns_wire::MessageView::is_reply_to`]). This closes the loop
//! between the deterministic engine and the `dnsd` servers: the same
//! retry/backoff/ECS-withdrawal policy that runs in the simulator drives
//! real packets on loopback.
//!
//! Retrying is the *engine's* job: each [`resolver::Upstream::query_via`]
//! call is a single attempt bounded by a single deadline, so the engine's
//! [`resolver::RetryPolicy`] decides how many attempts happen and what each
//! one carries.

use std::io;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::time::Duration;

use dns_wire::{wire::WireReader, Header, Rcode};
use netsim::{SimTime, Transport};
use resolver::{Upstream, UpstreamError};

/// A single-server upstream over real UDP/TCP sockets.
pub struct SocketUpstream {
    server: SocketAddr,
    /// Where stream exchanges go; defaults to `server` (the classic
    /// same-port RFC 7766 arrangement). A separately-bound
    /// [`crate::TcpAuthServer`] can be pointed at via
    /// [`SocketUpstream::with_tcp_server`].
    tcp_server: Option<SocketAddr>,
    socket: UdpSocket,
    /// Per-attempt socket timeout (also the TCP connect/read timeout).
    pub timeout: Duration,
}

impl SocketUpstream {
    /// Creates an upstream aimed at `server`, on an ephemeral local port,
    /// with a 500 ms per-attempt timeout.
    pub fn new(server: SocketAddr) -> io::Result<Self> {
        let socket = UdpSocket::bind(("0.0.0.0", 0))?;
        Ok(SocketUpstream {
            server,
            tcp_server: None,
            socket,
            timeout: Duration::from_millis(500),
        })
    }

    /// Sets the per-attempt timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sends stream exchanges to `addr` instead of the UDP server's
    /// address — for pairing a [`crate::UdpAuthServer`] with a
    /// [`crate::TcpAuthServer`] bound on its own port.
    pub fn with_tcp_server(mut self, addr: SocketAddr) -> Self {
        self.tcp_server = Some(addr);
        self
    }
}

impl Upstream for SocketUpstream {
    fn query_via(
        &mut self,
        q: &[u8],
        _from: IpAddr,
        _now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let reply = if transport.is_stream() {
            let server = self.tcp_server.unwrap_or(self.server);
            crate::tcp::tcp_exchange(server, q, self.timeout)
        } else {
            crate::client::udp_attempt(&self.socket, self.server, q, self.timeout)
        };
        match reply {
            Ok(reply) if transport.is_stream() => Ok(reply),
            Ok(reply) if Header::read(&mut WireReader::new(&reply)).is_ok_and(|h| h.flags.tc) => {
                Err(UpstreamError::Truncated)
            }
            Ok(reply) => Ok(reply),
            Err(crate::DigError::Timeout) => Err(UpstreamError::Timeout),
            Err(crate::DigError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(UpstreamError::Timeout)
            }
            Err(_) => Err(UpstreamError::Rcode(Rcode::ServFail)),
        }
    }
}
