//! The per-upstream transport policy and the transport-modelling
//! [`Upstream`] decorator.
//!
//! Two pieces live here:
//!
//! * [`TransportPolicy`] — configuration: the fallback **ladder** (which
//!   transports the engine may use, in preference order), the per-rung
//!   retry budget, and the EDNS buffer size the engine advertises. The
//!   engine climbs the ladder on two triggers: a TC-bit/truncated reply
//!   jumps straight to the next *stream* rung (RFC 7766 generalized), and
//!   an exhausted retry budget falls to the next rung whatever it is.
//! * [`TransportUpstream`] — a decorator in the mold of
//!   [`crate::FaultyUpstream`] that gives any inner upstream a
//!   [`netsim::TransportModel`]: handshake RTT costs shift the virtual
//!   arrival time of stream exchanges, UDP answers are subjected to the
//!   EDNS-buffer/path-MTU datagram fate (truncation and fragment loss),
//!   and standing per-transport faults ([`TransportFaults`]) let tests
//!   refuse or blackhole individual rungs deterministically.
//!
//! With the default policy (UDP-only ladder) and a default model (1500-byte
//! MTU, no fragment loss) both pieces are transparent: the engine takes
//! exactly the legacy code path and the decorator delivers every answer
//! unmodified, drawing nothing from its RNG.

use std::net::IpAddr;

use dns_wire::Message;
use netsim::transport::{DatagramFate, PathProfile, TransportModel};
use netsim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use netsim::transport::{Transport, TransportStats};

use crate::engine::{Upstream, UpstreamError};

/// Which transports an upstream exchange may use, in fallback order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportPolicy {
    /// The preference ladder, tried left to right. Empty is treated as
    /// `[Udp]`.
    pub ladder: Vec<Transport>,
    /// Attempts spent on each rung before falling to the next. `None`
    /// uses the [`crate::RetryPolicy::attempts`] budget per rung.
    pub attempts_per_transport: Option<u8>,
    /// EDNS buffer size (RFC 6891 `udp_payload_size`) advertised on
    /// upstream queries. Answers larger than this come back truncated.
    pub edns_buf: u16,
}

impl Default for TransportPolicy {
    fn default() -> Self {
        TransportPolicy::udp_only()
    }
}

impl TransportPolicy {
    /// The legacy behaviour: plain UDP with the engine's historical
    /// 4096-byte EDNS buffer, TC handled by an inline RFC 7766 TCP
    /// re-query.
    pub fn udp_only() -> Self {
        TransportPolicy {
            ladder: vec![Transport::Udp],
            attempts_per_transport: None,
            edns_buf: 4096,
        }
    }

    /// A single-transport ladder pinned to `transport`.
    pub fn prefer(transport: Transport) -> Self {
        TransportPolicy {
            ladder: vec![transport],
            ..TransportPolicy::udp_only()
        }
    }

    /// An explicit ladder.
    pub fn with_ladder(ladder: impl Into<Vec<Transport>>) -> Self {
        TransportPolicy {
            ladder: ladder.into(),
            ..TransportPolicy::udp_only()
        }
    }

    /// The full UDP → TCP → DoT → DoH ladder.
    pub fn full_ladder() -> Self {
        TransportPolicy::with_ladder(Transport::ALL)
    }

    /// The advertised buffer, for building upstream queries.
    pub fn edns_buf(&self) -> u16 {
        self.edns_buf
    }
}

/// A standing fault pinned to one transport of a [`TransportUpstream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Exchanges over the transport never complete (lost datagrams, or a
    /// handshake that hangs until the timeout). Surfaces as
    /// [`UpstreamError::Timeout`].
    Timeout,
    /// The server actively refuses the transport (RST / REFUSED).
    /// Surfaces as [`UpstreamError::Rcode`] with
    /// [`dns_wire::Rcode::Refused`].
    Refused,
}

/// Per-transport standing faults: unlike [`crate::InjectedFault`] scripts
/// these don't tick down — the transport stays broken, which is how
/// blocked ports and broken middleboxes present in the fallback papers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFaults {
    /// Fault on plain UDP.
    pub udp: Option<TransportFault>,
    /// Fault on TCP.
    pub tcp: Option<TransportFault>,
    /// Fault on DoT.
    pub dot: Option<TransportFault>,
    /// Fault on DoH.
    pub doh: Option<TransportFault>,
}

impl TransportFaults {
    /// No faults anywhere.
    pub const NONE: TransportFaults = TransportFaults {
        udp: None,
        tcp: None,
        dot: None,
        doh: None,
    };

    /// The standing fault on `transport`, if any.
    pub fn on(&self, transport: Transport) -> Option<TransportFault> {
        match transport {
            Transport::Udp => self.udp,
            Transport::Tcp => self.tcp,
            Transport::Dot => self.dot,
            Transport::Doh => self.doh,
        }
    }
}

/// The upstream round trip handshakes are priced in.
const UPSTREAM_RTT: SimDuration = SimDuration::from_millis(40);

/// An [`Upstream`] decorator that models transports for the inner
/// upstream: handshake costs on the SimTime axis, UDP datagram fate
/// against the advertised EDNS buffer and path MTU, and standing
/// per-transport faults.
pub struct TransportUpstream<U> {
    inner: U,
    model: TransportModel,
    faults: TransportFaults,
    rng: SmallRng,
}

impl<U: Upstream> TransportUpstream<U> {
    /// Wraps `inner` with a default model: 1500-byte MTU, no fragment
    /// loss, default handshake costs, 40 ms upstream RTT. Small answers
    /// pass through untouched and the RNG is never drawn.
    pub fn new(inner: U, seed: u64) -> Self {
        TransportUpstream {
            inner,
            model: TransportModel::default(),
            faults: TransportFaults::NONE,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// An entirely transparent wrapper (infinite MTU, no loss, no
    /// faults): transport *selection* still routes and is cost-accounted,
    /// but no answer is ever degraded.
    pub fn ideal(inner: U) -> Self {
        let mut t = TransportUpstream::new(inner, 0);
        t.model = TransportModel::ideal();
        t
    }

    /// Replaces the path profile (MTU / fragment loss).
    pub fn with_profile(mut self, profile: PathProfile) -> Self {
        self.model.profile = profile;
        self
    }

    /// Installs standing per-transport faults.
    pub fn with_faults(mut self, faults: TransportFaults) -> Self {
        self.faults = faults;
        self
    }

    /// The wrapped upstream.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    /// Transport counters (exchanges per transport, handshakes, reuse,
    /// truncations, fragment drops).
    pub fn stats(&self) -> TransportStats {
        self.model.stats()
    }

    fn exchange(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Message, UpstreamError> {
        if let Some(fault) = self.faults.on(transport) {
            return Err(match fault {
                TransportFault::Timeout => UpstreamError::Timeout,
                TransportFault::Refused => UpstreamError::Rcode(dns_wire::Rcode::Refused),
            });
        }
        // Handshakes delay the exchange: the inner upstream sees the query
        // arrive after the setup round-trips have been paid.
        let at = now + self.model.exchange_cost(transport, UPSTREAM_RTT, now);
        if transport.is_stream() {
            // Streams carry any size; simulated DoT/DoH differ from TCP
            // only in handshake cost, so all three use the framed path.
            return self.inner.query_tcp(q, from, at);
        }
        let resp = self.inner.query(q, from, at)?;
        if resp.flags.tc {
            // The inner upstream already truncated (e.g. against a smaller
            // server-side limit) — nothing further to model.
            return Ok(resp);
        }
        let wire_len = resp.to_bytes().map(|b| b.len()).unwrap_or(0);
        let advertised = q
            .edns
            .as_ref()
            .map(|e| e.udp_payload_size as usize)
            .unwrap_or(512);
        let model = &mut self.model;
        let rng = &mut self.rng;
        match model.datagram_fate(wire_len, advertised, || rng.gen::<f64>()) {
            DatagramFate::Deliver => Ok(resp),
            DatagramFate::Truncate => {
                let mut tc = resp;
                tc.flags.tc = true;
                tc.answers.clear();
                Err(UpstreamError::Truncated(Box::new(tc)))
            }
            DatagramFate::FragmentDrop => Err(UpstreamError::Timeout),
        }
    }
}

impl<U: Upstream> Upstream for TransportUpstream<U> {
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError> {
        self.exchange(q, from, now, Transport::Udp)
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        self.exchange(q, from, now, Transport::Tcp)
    }

    fn query_via(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Message, UpstreamError> {
        self.exchange(q, from, now, transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Name, Question, Rcode};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn auth_with_records(n: usize) -> AuthServer {
        let mut zone = Zone::new(name("big.example"));
        for i in 0..n {
            zone.add_a(
                name("www.big.example"),
                60,
                Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8),
            )
            .unwrap();
        }
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    fn query(buf: u16) -> Message {
        let mut q = Message::query(1, Question::a(name("www.big.example")));
        q.set_edns(buf);
        q
    }

    #[test]
    fn policy_defaults_and_builders() {
        assert_eq!(TransportPolicy::default(), TransportPolicy::udp_only());
        assert_eq!(TransportPolicy::default().edns_buf(), 4096);
        assert_eq!(
            TransportPolicy::prefer(Transport::Dot).ladder,
            vec![Transport::Dot]
        );
        assert_eq!(TransportPolicy::full_ladder().ladder.len(), 4);
    }

    #[test]
    fn small_answers_pass_untouched_over_udp() {
        let mut up = TransportUpstream::new(auth_with_records(1), 7);
        let resp = up.query(&query(4096), RES, SimTime::ZERO).unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.stats().exchanges_over(Transport::Udp), 1);
        assert_eq!(up.stats().truncated, 0);
    }

    /// An upstream that ignores the advertised EDNS buffer entirely and
    /// always answers with `n` A records — so truncation decisions are
    /// the decorator's alone (a real [`AuthServer`] truncates for itself).
    struct OversizeAnswerer(usize);
    impl Upstream for OversizeAnswerer {
        fn query(
            &mut self,
            q: &Message,
            _from: IpAddr,
            _now: SimTime,
        ) -> Result<Message, UpstreamError> {
            let mut resp = Message::response_to(q);
            for i in 0..self.0 {
                resp.answers.push(dns_wire::Record::new(
                    name("www.big.example"),
                    60,
                    dns_wire::Rdata::A(Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8)),
                ));
            }
            Ok(resp)
        }
    }

    #[test]
    fn oversize_answers_truncate_against_the_advertised_buffer() {
        // 60 A records ≈ 960+ bytes of rdata: bigger than a 512 buffer.
        let mut up = TransportUpstream::new(OversizeAnswerer(60), 7);
        let err = up.query(&query(512), RES, SimTime::ZERO).unwrap_err();
        let UpstreamError::Truncated(tc) = err else {
            panic!("expected truncation, got {err:?}");
        };
        assert!(tc.flags.tc);
        assert!(tc.answers.is_empty());
        assert_eq!(up.stats().truncated, 1);
        // The same answer fits a 4096 buffer (and the 1500 MTU is only
        // fragmentation, which is lossless by default).
        let resp = up.query(&query(4096), RES, SimTime::ZERO).unwrap();
        assert_eq!(resp.answers.len(), 60);
    }

    #[test]
    fn server_side_truncation_passes_through_as_tc() {
        // A real AuthServer truncates against the advertised buffer by
        // itself; the decorator must hand that TC through untouched for
        // the engine's RFC 7766 arm, not double-handle it.
        let mut up = TransportUpstream::new(auth_with_records(60), 7);
        let resp = up.query(&query(512), RES, SimTime::ZERO).unwrap();
        assert!(resp.flags.tc);
        assert_eq!(up.stats().truncated, 0, "decorator did not re-truncate");
    }

    #[test]
    fn fragment_loss_turns_big_answers_into_timeouts() {
        let mut up = TransportUpstream::new(auth_with_records(60), 7).with_profile(PathProfile {
            mtu: 512,
            frag_loss: 1.0,
        });
        assert_eq!(
            up.query(&query(4096), RES, SimTime::ZERO).unwrap_err(),
            UpstreamError::Timeout
        );
        // The stream side of the same path is immune.
        let resp = up.query_tcp(&query(4096), RES, SimTime::ZERO).unwrap();
        assert_eq!(resp.answers.len(), 60);
        assert_eq!(up.stats().fragments_dropped, 1);
    }

    #[test]
    fn standing_faults_break_exactly_their_transport() {
        let mut up = TransportUpstream::new(auth_with_records(1), 7).with_faults(TransportFaults {
            tcp: Some(TransportFault::Refused),
            dot: Some(TransportFault::Timeout),
            ..TransportFaults::NONE
        });
        assert!(up.query(&query(4096), RES, SimTime::ZERO).is_ok());
        assert_eq!(
            up.query_via(&query(4096), RES, SimTime::ZERO, Transport::Tcp)
                .unwrap_err(),
            UpstreamError::Rcode(Rcode::Refused)
        );
        assert_eq!(
            up.query_via(&query(4096), RES, SimTime::ZERO, Transport::Dot)
                .unwrap_err(),
            UpstreamError::Timeout
        );
        assert!(up
            .query_via(&query(4096), RES, SimTime::ZERO, Transport::Doh)
            .is_ok());
    }

    #[test]
    fn stream_exchanges_arrive_after_the_handshake_cost() {
        // An upstream that records when queries reach it.
        struct ArrivalProbe(Vec<u64>);
        impl Upstream for ArrivalProbe {
            fn query(
                &mut self,
                q: &Message,
                _from: IpAddr,
                now: SimTime,
            ) -> Result<Message, UpstreamError> {
                self.0.push(now.as_micros());
                Ok(Message::response_to(q))
            }
        }
        let rtt = UPSTREAM_RTT;
        let mut up = TransportUpstream::new(ArrivalProbe(Vec::new()), 7);
        // Cold DoT: 2 RTTs of setup before the inner upstream sees it.
        up.query_via(&query(4096), RES, SimTime::ZERO, Transport::Dot)
            .unwrap();
        // Warm follow-up 1 s later: no setup.
        up.query_via(&query(4096), RES, SimTime::from_secs(1), Transport::Dot)
            .unwrap();
        assert_eq!(
            up.inner().0,
            vec![rtt.mul(2).as_micros(), SimTime::from_secs(1).as_micros()]
        );
        assert_eq!(up.stats().handshakes, 1);
        assert_eq!(up.stats().reused_connections, 1);
    }
}
