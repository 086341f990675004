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

/// [`crate::bind_same_port`] for a test: the same-port UDP/TCP pair, or a
/// skip like [`require_socket`] when it cannot be bound.
pub fn bind_same_port_pair(
    test: &str,
    auth: impl Fn() -> authoritative::AuthServer,
) -> Option<(crate::UdpAuthServer, crate::TcpAuthServer)> {
    require_socket(
        test,
        "binding a same-port UDP/TCP pair",
        crate::bind_same_port(auth),
    )
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
