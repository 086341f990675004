//! A minimal dig-style UDP client with ECS support and retransmission.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use dns_wire::{EcsOption, Message, Name, Question, RecordClass, RecordType};

/// Errors a query can end in.
#[derive(Debug)]
pub enum DigError {
    /// Socket-level failure.
    Io(io::Error),
    /// No (valid) response arrived within all retries.
    Timeout,
    /// The query did not encode, or a TCP response did not parse (a
    /// garbled datagram is not an answer: the UDP attempt listens on).
    Malformed(dns_wire::WireError),
}

impl std::fmt::Display for DigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DigError::Io(e) => write!(f, "socket error: {e}"),
            DigError::Timeout => write!(f, "query timed out"),
            DigError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for DigError {}

impl From<io::Error> for DigError {
    fn from(e: io::Error) -> Self {
        DigError::Io(e)
    }
}

/// One UDP attempt, shared by [`DigClient`] and
/// [`crate::SocketUpstream`]: send `query` (the encoding of a message
/// with id `id`) to `server`, then wait for a response from `server` with
/// that id until `timeout` after the send. The deadline is fixed once:
/// datagrams that are not the answer (strays, wrong ids, garbage) use the
/// window up, they do not restart it or end the attempt. A lapsed window
/// is [`DigError::Timeout`], a socket failure [`DigError::Io`].
pub(crate) fn udp_attempt(
    socket: &UdpSocket,
    server: SocketAddr,
    query: &[u8],
    id: u16,
    timeout: Duration,
) -> Result<Message, DigError> {
    socket.send_to(query, server)?;
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(DigError::Timeout);
        }
        socket.set_read_timeout(Some(left))?;
        match socket.recv_from(&mut buf) {
            Ok((n, from)) if from == server => {
                if let Ok(resp) = Message::from_bytes(&buf[..n]) {
                    if resp.id == id && resp.is_response() {
                        return Ok(resp);
                    }
                }
                // Garbled or mismatched: keep listening in this window.
            }
            Ok(_) => {} // stray sender
            // Lapsed or interrupted by a signal: the deadline decides.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(DigError::Io(e)),
        }
    }
}

/// A reusable UDP DNS client.
pub struct DigClient {
    socket: UdpSocket,
    /// Per-attempt timeout.
    pub timeout: Duration,
    /// Retransmissions after the first attempt.
    pub retries: u32,
    next_id: u16,
}

impl DigClient {
    /// Creates a client on an ephemeral local port.
    pub fn new() -> io::Result<Self> {
        let socket = UdpSocket::bind(("0.0.0.0", 0))?;
        Ok(DigClient {
            socket,
            timeout: Duration::from_secs(2),
            retries: 2,
            next_id: 0x1000,
        })
    }

    /// Sends `query` to `server`, retrying on timeout, and returns the
    /// first response whose id matches.
    pub fn exchange(&mut self, server: SocketAddr, query: &Message) -> Result<Message, DigError> {
        let bytes = query.to_bytes().map_err(DigError::Malformed)?;
        for _attempt in 0..=self.retries {
            match udp_attempt(&self.socket, server, &bytes, query.id, self.timeout) {
                Err(DigError::Timeout) => {} // retransmit
                done => return done,
            }
        }
        Err(DigError::Timeout)
    }

    /// Convenience: A-query for `name` with an optional ECS option. When
    /// the UDP answer comes back truncated (TC), retries over TCP on the
    /// same port, as stub resolvers do (RFC 7766).
    pub fn query_a(
        &mut self,
        server: SocketAddr,
        name: &Name,
        ecs: Option<EcsOption>,
    ) -> Result<Message, DigError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let mut q = Message::query(
            id,
            Question::new(name.clone(), RecordType::A, RecordClass::In),
        );
        q.set_edns(4096);
        if let Some(e) = ecs {
            q.set_ecs(e);
        }
        let resp = self.exchange(server, &q)?;
        if resp.flags.tc {
            return crate::tcp::tcp_exchange(server, &q, self.timeout);
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::UdpAuthServer;
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use std::net::Ipv4Addr;

    fn demo_auth() -> AuthServer {
        let mut zone = Zone::new(Name::from_ascii("demo.example").unwrap());
        zone.add_a(
            Name::from_ascii("www.demo.example").unwrap(),
            60,
            Ipv4Addr::new(198, 51, 100, 7),
        )
        .unwrap();
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    #[test]
    fn end_to_end_query_with_ecs() {
        let server = UdpAuthServer::bind("127.0.0.1:0", demo_auth()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn();

        let mut dig = DigClient::new().unwrap();
        let name = Name::from_ascii("www.demo.example").unwrap();
        let resp = dig
            .query_a(
                addr,
                &name,
                Some(EcsOption::from_v4(Ipv4Addr::new(203, 0, 113, 0), 24)),
            )
            .unwrap();
        assert_eq!(
            resp.answer_addrs(),
            vec![std::net::IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7))]
        );
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 24);

        // NXDOMAIN path.
        let gone = Name::from_ascii("missing.demo.example").unwrap();
        let resp = dig.query_a(addr, &gone, None).unwrap();
        assert_eq!(resp.rcode, dns_wire::Rcode::NxDomain);
        handle.shutdown();
    }

    #[test]
    fn timeout_against_dead_port() {
        // Bind-then-drop to get a port with (almost certainly) no listener.
        let dead = {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.local_addr().unwrap()
        };
        let mut dig = DigClient::new().unwrap();
        dig.timeout = Duration::from_millis(60);
        dig.retries = 1;
        let name = Name::from_ascii("x.example").unwrap();
        let err = dig.query_a(dead, &name, None).unwrap_err();
        assert!(matches!(err, DigError::Timeout | DigError::Io(_)));
    }
}
