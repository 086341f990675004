//! The resolution engine over real sockets.
//!
//! [`SocketUpstream`] implements [`resolver::Upstream`] against a live DNS
//! server address: over UDP one datagram per attempt, surfacing lost
//! replies as [`UpstreamError::Timeout`]; over a stream transport a real
//! RFC 7766 framed TCP exchange to the same address (the DoT rung too:
//! with no real crypto in the study it carries the same length-prefixed
//! stream). It neither encodes nor decodes: it sends the query datagram
//! the engine hands it and returns the reply datagram it accepted, by the
//! rule the simulated egress applies
//! ([`dns_wire::MessageView::is_reply_to`]), a TC reply as any other. This closes the loop
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

use dns_wire::Rcode;
use netsim::{SimTime, Transport};
use resolver::{Upstream, UpstreamError};

/// A single-server upstream over real UDP/TCP sockets.
pub struct SocketUpstream {
    server: SocketAddr,
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
            socket,
            timeout: Duration::from_millis(500),
        })
    }

    /// Sets the per-attempt timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
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
            crate::tcp::tcp_exchange(self.server, q, self.timeout)
        } else {
            crate::client::udp_attempt(&self.socket, self.server, q, self.timeout)
        };
        reply.map_err(|e| match e {
            crate::DigError::Timeout => UpstreamError::Timeout,
            crate::DigError::Io(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                UpstreamError::Timeout
            }
            _ => UpstreamError::Rcode(Rcode::ServFail),
        })
    }
}
