//! Per-link transport models: UDP, TCP, DoT.
//!
//! The ECS study's simulated resolvers exchange `dns_wire`-level messages
//! directly, so "transport" here is not sockets or crypto — it is the two
//! things a transport choice changes about a DNS exchange:
//!
//! 1. **Cost.** Stream transports pay handshake round-trips before the
//!    first byte of DNS flows: TCP pays one RTT (SYN/SYN-ACK), TLS adds
//!    another (1-RTT TLS 1.3 handshake), and a resumed TLS session pays
//!    only the TCP round-trip. Warm connections inside a 10 s idle window
//!    pay nothing. [`TransportModel::exchange_cost`] does this accounting on
//!    the [`SimTime`] axis.
//! 2. **Datagram fate.** UDP answers larger than the path MTU fragment —
//!    with a configurable probability that the fragments never arrive
//!    (middleboxes dropping fragments are the fallback paper's central
//!    villain). [`TransportModel::datagram_fate`] decides deliver/drop for
//!    one answer. Truncation is not a path fate: the server that writes an
//!    answer truncates it against the advertised EDNS buffer, and a
//!    faulted link truncates it through [`crate::PacketFate::Truncated`]. Stream
//!    transports carry any size and never consult it.
//!
//! Determinism follows the `fault` module's discipline: fate endpoints
//! (`frag_loss` of `0.0` or `1.0`) never draw from the RNG, so a lossless
//! profile is bit-identical to no transport model at all, and a
//! deterministic test can force every fragment lost without perturbing
//! any other random stream.

use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// A DNS transport, ordered roughly by the classic fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// Plain UDP datagrams (RFC 1035 §4.2.1).
    Udp,
    /// DNS over TCP with two-byte length framing (RFC 1035 §4.2.2 /
    /// RFC 7766).
    Tcp,
    /// DNS over TLS (RFC 7858): TCP framing inside a TLS session.
    Dot,
}

impl Transport {
    /// Every transport, in ladder order.
    pub const ALL: [Transport; 3] = [Transport::Udp, Transport::Tcp, Transport::Dot];

    /// True for connection-oriented transports (everything but UDP).
    /// Streams carry messages of any size: no truncation, no fragments.
    pub const fn is_stream(self) -> bool {
        !matches!(self, Transport::Udp)
    }

    /// True when the transport runs inside TLS.
    const fn is_encrypted(self) -> bool {
        matches!(self, Transport::Dot)
    }

    /// Stable lowercase label for metrics, traces and reports.
    pub const fn label(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
            Transport::Dot => "dot",
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Round-trips a cold connect on `transport` costs, given whether a TLS
/// session is available for resumption: the TCP three-way handshake is one
/// (the request can ride the ACK), a full TLS 1.3 handshake one more, and a
/// resumed one nothing more (session tickets, as in TLS 1.3 0-RTT). UDP
/// connects for free.
const fn rtts(transport: Transport, resumed: bool) -> u32 {
    match transport {
        Transport::Udp => 0,
        Transport::Tcp => 1,
        Transport::Dot => {
            if resumed {
                1
            } else {
                2
            }
        }
    }
}

/// How long an idle connection stays warm before the next exchange pays a
/// fresh handshake (RFC 7766 recommends an idle timeout of seconds).
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Path properties that decide the fate of UDP answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Path MTU in bytes: UDP answers above this fragment. Default 1500.
    pub mtu: usize,
    /// Probability that a fragmented answer is lost in transit (dropped
    /// fragments look like a timeout to the querier). `0.0` and `1.0`
    /// are deterministic and draw no randomness.
    pub frag_loss: f64,
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile {
            mtu: 1500,
            frag_loss: 0.0,
        }
    }
}

/// What happened to one UDP answer on its way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Arrived whole.
    Deliver,
    /// Exceeded the path MTU and the fragments were lost: the querier
    /// sees silence (a timeout).
    FragmentDrop,
}

/// Counters a [`TransportModel`] keeps while accounting exchanges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Exchanges attempted per transport, in [`Transport::ALL`] order.
    pub exchanges: [u64; 3],
    /// Cold connects that paid a full or resumed handshake.
    pub handshakes: u64,
    /// Cold connects that found a cached TLS session (resumed subset of
    /// `handshakes`).
    pub resumed_handshakes: u64,
    /// Exchanges that rode an existing warm connection for free.
    pub reused_connections: u64,
    /// Total round-trips spent on handshakes (the cost-model ledger).
    pub handshake_rtts: u64,
    /// UDP answers lost to dropped fragments.
    pub fragments_dropped: u64,
}

impl TransportStats {
    /// Exchanges attempted over `transport`.
    pub fn exchanges_over(&self, transport: Transport) -> u64 {
        self.exchanges[transport as usize]
    }
}

/// Stateful per-link transport model: connection/session memory, cost
/// accounting, and datagram fate.
#[derive(Debug, Clone, Default)]
pub struct TransportModel {
    /// Path MTU / fragment-loss knobs.
    pub profile: PathProfile,
    /// Last instant each stream transport's connection carried traffic.
    last_used: HashMap<Transport, SimTime>,
    /// Whether a TLS handshake has completed at least once, so DoT holds a
    /// resumable session ticket.
    tls_session: bool,
    stats: TransportStats,
}

impl TransportModel {
    /// A model over a path with `profile`.
    pub fn new(profile: PathProfile) -> Self {
        TransportModel {
            profile,
            ..TransportModel::default()
        }
    }

    /// Accounts one exchange over `transport` at `now` and returns the
    /// setup delay it pays before the query can be sent: zero on UDP or a
    /// warm connection, otherwise `rtt × handshake-round-trips`.
    pub fn exchange_cost(
        &mut self,
        transport: Transport,
        rtt: SimDuration,
        now: SimTime,
    ) -> SimDuration {
        self.stats.exchanges[transport as usize] += 1;
        if !transport.is_stream() {
            return SimDuration::ZERO;
        }
        if let Some(&last) = self.last_used.get(&transport) {
            if now.since(last) <= IDLE_TIMEOUT {
                self.last_used.insert(transport, now);
                self.stats.reused_connections += 1;
                return SimDuration::ZERO;
            }
        }
        let resumed = transport.is_encrypted() && self.tls_session;
        let rtts = rtts(transport, resumed);
        self.stats.handshakes += 1;
        if resumed {
            self.stats.resumed_handshakes += 1;
        }
        self.stats.handshake_rtts += u64::from(rtts);
        if transport.is_encrypted() {
            self.tls_session = true;
        }
        let cost = rtt.mul(u64::from(rtts));
        self.last_used.insert(transport, now + cost);
        cost
    }

    /// Decides the fate of one UDP answer of `wire_len` bytes, a TC
    /// reply as any other, against this path's MTU. `roll` is only
    /// invoked when the outcome is genuinely probabilistic
    /// (`0 < frag_loss < 1` *and* the answer fragments), preserving the
    /// crate's zero-probability-draws-no-RNG discipline.
    pub fn datagram_fate(&mut self, wire_len: usize, roll: impl FnOnce() -> f64) -> DatagramFate {
        if wire_len > self.profile.mtu {
            let lost = if self.profile.frag_loss <= 0.0 {
                false
            } else if self.profile.frag_loss >= 1.0 {
                true
            } else {
                roll() < self.profile.frag_loss
            };
            if lost {
                self.stats.fragments_dropped += 1;
                return DatagramFate::FragmentDrop;
            }
        }
        DatagramFate::Deliver
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: SimDuration = SimDuration::from_millis(40);

    #[test]
    fn ladder_order_and_labels() {
        assert_eq!(Transport::ALL.map(Transport::label), ["udp", "tcp", "dot"]);
        assert!(!Transport::Udp.is_stream());
        assert!(Transport::Tcp.is_stream() && !Transport::Tcp.is_encrypted());
        assert!(Transport::Dot.is_encrypted());
        assert_eq!(Transport::Dot.to_string(), "dot");
    }

    #[test]
    fn udp_costs_nothing_and_keeps_no_state() {
        let mut m = TransportModel::default();
        for i in 0..3 {
            let cost = m.exchange_cost(Transport::Udp, RTT, SimTime::from_secs(i));
            assert_eq!(cost, SimDuration::ZERO);
        }
        assert_eq!(m.stats().exchanges_over(Transport::Udp), 3);
        assert_eq!(m.stats().handshakes, 0);
        assert_eq!(m.stats().reused_connections, 0);
    }

    #[test]
    fn tcp_pays_one_rtt_cold_then_reuses_within_idle_window() {
        let mut m = TransportModel::default();
        let t0 = SimTime::from_secs(100);
        assert_eq!(m.exchange_cost(Transport::Tcp, RTT, t0), RTT);
        // 5 s later: inside the 10 s idle window, free.
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(m.exchange_cost(Transport::Tcp, RTT, t1), SimDuration::ZERO);
        // 11 s after that: idle expired, pay the handshake again.
        let t2 = t1 + SimDuration::from_secs(11);
        assert_eq!(m.exchange_cost(Transport::Tcp, RTT, t2), RTT);
        let s = m.stats();
        assert_eq!(s.handshakes, 2);
        assert_eq!(s.reused_connections, 1);
        assert_eq!(s.resumed_handshakes, 0);
        assert_eq!(s.handshake_rtts, 2);
    }

    #[test]
    fn tls_costs_two_rtts_cold_and_discounts_resumption() {
        let mut m = TransportModel::default();
        let t0 = SimTime::from_secs(0);
        // Cold DoT: TCP (1) + full TLS (1) = 2 RTTs.
        assert_eq!(m.exchange_cost(Transport::Dot, RTT, t0), RTT.mul(2));
        // Reconnect long after idle expiry: TCP (1) + resumed TLS (0).
        let t1 = t0 + SimDuration::from_secs(1_000);
        assert_eq!(m.exchange_cost(Transport::Dot, RTT, t1), RTT);
        let s = m.stats();
        assert_eq!(s.handshakes, 2);
        assert_eq!(s.resumed_handshakes, 1);
        assert_eq!(s.handshake_rtts, 3);
    }

    #[test]
    fn datagram_fate_drops_only_what_fragments() {
        let mut m = TransportModel::new(PathProfile {
            mtu: 1500,
            frag_loss: 1.0,
        });
        let no_roll = || panic!("deterministic endpoint must not draw RNG");
        // Past the MTU it fragments, and every fragment is lost.
        assert_eq!(m.datagram_fate(1600, no_roll), DatagramFate::FragmentDrop);
        // Answers within the MTU sail through, whatever their size.
        assert_eq!(m.datagram_fate(1500, no_roll), DatagramFate::Deliver);
        assert_eq!(m.datagram_fate(100, no_roll), DatagramFate::Deliver);
        assert_eq!(m.stats().fragments_dropped, 1);
    }

    #[test]
    fn deterministic_endpoints_draw_no_rng_and_midpoint_rolls() {
        let mut lossless = TransportModel::default(); // frag_loss 0.0
        assert_eq!(
            lossless.datagram_fate(1600, || panic!("rolled at 0.0")),
            DatagramFate::Deliver
        );
        let mut coin = TransportModel::new(PathProfile {
            mtu: 1500,
            frag_loss: 0.5,
        });
        assert_eq!(
            coin.datagram_fate(1600, || 0.25),
            DatagramFate::FragmentDrop
        );
        assert_eq!(coin.datagram_fate(1600, || 0.75), DatagramFate::Deliver);
    }
}
