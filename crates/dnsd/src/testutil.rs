//! Shared loopback-availability helpers for socket-backed tests.
//!
//! Sandboxed CI runners sometimes offer no loopback networking; socket
//! tests must then skip *visibly* rather than silently pass. Setting
//! `ECS_REQUIRE_LOOPBACK` in the environment (CI does) turns every skip
//! into a hard failure, so a misconfigured runner cannot fake green.

/// True when a loopback UDP socket can be bound.
pub fn loopback_available() -> bool {
    std::net::UdpSocket::bind("127.0.0.1:0").is_ok()
}

/// Gate for socket tests: returns `true` when loopback sockets work.
/// Otherwise prints a visible `SKIP` line and returns `false` — or panics
/// when `ECS_REQUIRE_LOOPBACK` is set, so environments that promise
/// sockets cannot skip silently.
pub fn require_loopback(test: &str) -> bool {
    if loopback_available() {
        return true;
    }
    if std::env::var_os("ECS_REQUIRE_LOOPBACK").is_some() {
        panic!("{test}: loopback sockets unavailable but ECS_REQUIRE_LOOPBACK is set");
    }
    eprintln!("SKIP {test}: no loopback UDP socket available");
    false
}

/// Gate for secondary socket resources (e.g. a TCP listener on the port a
/// UDP server picked): unwraps `Ok`, otherwise skips like
/// [`require_loopback`] — visible line, or panic under
/// `ECS_REQUIRE_LOOPBACK`.
pub fn require_socket<T, E: std::fmt::Display>(
    test: &str,
    what: &str,
    result: Result<T, E>,
) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            if std::env::var_os("ECS_REQUIRE_LOOPBACK").is_some() {
                panic!("{test}: {what} failed ({e}) but ECS_REQUIRE_LOOPBACK is set");
            }
            eprintln!("SKIP {test}: {what} failed ({e})");
            None
        }
    }
}

/// Binds a UDP and a TCP authoritative on one port number (the RFC 7766
/// same-port fallback pair), each try over a fresh `auth()`. UDP picks the
/// port, and TCP can find that number taken — the port spaces are
/// disjoint, and a `TIME_WAIT` leftover of an earlier TCP exchange or a
/// parallel test may hold it — so `AddrInUse` retries with a fresh UDP
/// port. Both servers are bound before the caller learns the address; any
/// other failure, or 16 taken ports in a row, skips like
/// [`require_socket`].
pub fn bind_same_port_pair(
    test: &str,
    auth: impl Fn() -> authoritative::AuthServer,
) -> Option<(crate::UdpAuthServer, crate::TcpAuthServer)> {
    let mut tries = 0;
    loop {
        let udp = crate::UdpAuthServer::bind("127.0.0.1:0", auth())
            .and_then(|udp| udp.local_addr().map(|addr| (udp, addr)));
        let (udp, addr) = require_socket(test, "binding UDP on loopback", udp)?;
        tries += 1;
        match crate::TcpAuthServer::bind(addr, udp.auth()) {
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && tries < 16 => continue,
            tcp => {
                return require_socket(test, "binding TCP on the UDP port", tcp)
                    .map(|tcp| (udp, tcp))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_port_pair_shares_one_port_number() {
        let zone = authoritative::Zone::new(dns_wire::Name::from_ascii("pair.example").unwrap());
        let auth = || {
            authoritative::AuthServer::new(
                zone.clone(),
                authoritative::EcsHandling::open(authoritative::ScopePolicy::MatchSource),
            )
        };
        let Some((udp, tcp)) = bind_same_port_pair("same_port_pair", auth) else {
            return;
        };
        assert_eq!(udp.local_addr().unwrap(), tcp.local_addr().unwrap());
    }

    #[test]
    fn require_socket_passes_ok_through() {
        let v: Option<u32> = require_socket("t", "op", Ok::<u32, String>(7));
        assert_eq!(v, Some(7));
    }
}
