//! The resolution engine over real sockets.
//!
//! [`SocketUpstream`] implements [`resolver::Upstream`] against a live DNS
//! server address: one UDP datagram per attempt, surfacing lost replies as
//! [`UpstreamError::Timeout`] and TC answers as [`UpstreamError::Truncated`],
//! with [`resolver::Upstream::query_tcp`] doing a real RFC 7766 framed TCP
//! exchange (the DoT and DoH rungs land there too, through the trait's
//! default `query_via`: with no real crypto in the study they carry the
//! same length-prefixed stream). This closes the loop between the deterministic engine and the
//! `dnsd` servers: the same retry/backoff/ECS-withdrawal policy that runs
//! in the simulator drives real packets on loopback.
//!
//! Retrying is the *engine's* job: each [`SocketUpstream::query`] call is a
//! single attempt bounded by a single deadline, so the engine's
//! [`resolver::RetryPolicy`] decides how many attempts happen and what each
//! one carries.

use std::io;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::time::Duration;

use dns_wire::{Message, Rcode};
use netsim::SimTime;
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
    fn query(
        &mut self,
        q: &Message,
        _from: IpAddr,
        _now: SimTime,
    ) -> Result<Message, UpstreamError> {
        let bytes = q
            .to_bytes()
            .map_err(|_| UpstreamError::Rcode(Rcode::FormErr))?;
        let resp =
            crate::client::udp_attempt(&self.socket, self.server, &bytes, q.id, self.timeout)
                .map_err(|e| match e {
                    crate::DigError::Timeout => UpstreamError::Timeout,
                    _ => UpstreamError::Rcode(Rcode::ServFail),
                })?;
        if resp.flags.tc {
            return Err(UpstreamError::Truncated(Box::new(resp)));
        }
        Ok(resp)
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        _from: IpAddr,
        _now: SimTime,
    ) -> Result<Message, UpstreamError> {
        let server = self.tcp_server.unwrap_or(self.server);
        match crate::tcp::tcp_exchange(server, q, self.timeout) {
            Ok(resp) => Ok(resp),
            Err(crate::DigError::Timeout) => Err(UpstreamError::Timeout),
            Err(crate::DigError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(UpstreamError::Timeout)
            }
            Err(_) => Err(UpstreamError::Rcode(Rcode::ServFail)),
        }
    }
}
