//! Fault injection at the [`Upstream`] seam.
//!
//! [`FaultyUpstream`] wraps any upstream and makes the path to it misbehave
//! the way real authoritative paths do: lost queries and replies
//! (timeouts), truncated UDP replies, refused and in-band SERVFAIL/FORMERR
//! answers, handshake costs and fragments lost on a small path MTU. Four
//! deterministic sources decide an exchange's fate, in this order:
//!
//! 1. a **standing fault** pinned to one transport ([`FaultyUpstream::pin`]):
//!    unlike a script it never ticks down — the rung stays broken, which is
//!    how blocked ports and broken middleboxes present in the fallback
//!    papers;
//! 2. a **script** of [`InjectedFault`]s consumed one per UDP attempt, for
//!    tests that need an exact failure sequence ("time out twice, then
//!    answer") — the only source of in-band SERVFAIL and FORMERR;
//! 3. the packet-level simulator's [`LinkFaults`] knobs, decided once per
//!    UDP attempt by [`LinkFaults::fate`] — the decision
//!    [`netsim::FaultPlan`] makes for each simulated packet — from a seeded
//!    [`SmallRng`];
//! 4. the [`TransportModel`]: handshake round trips delay a stream
//!    exchange's arrival on the SimTime axis, and a UDP answer, TC or not,
//!    meets the path-MTU fate ([`FaultyUpstream::with_profile`]); the EDNS
//!    buffer is the server's to enforce.
//!
//! Stream transports (TCP, DoT) model RFC 7766: truncation and UDP loss do
//! not apply (the stream either works or the host is unreachable), so of
//! the script and the knobs only a blackhole reaches them.
//!
//! Every knob at zero draws nothing from the RNG: with no standing fault,
//! an empty script, [`LinkFaults::NONE`] and a lossless path the decorator
//! hands back exactly what the inner upstream answers.
//! Replies stay bytes: a truncating or REFUSED fault rewrites the inner
//! upstream's reply with the simulator's [`PacketFate::rewrite`], so a
//! truncation reaches the engine as a TC datagram; in-band errors are
//! written by [`rcode_reply`].

use std::collections::VecDeque;
use std::net::IpAddr;

use dns_wire::{MessageView, Rcode};
use netsim::{
    DatagramFate, LinkFaults, PacketFate, PathProfile, SimDuration, SimTime, Transport,
    TransportModel, TransportStats,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{rcode_reply, Upstream, UpstreamError};

/// One injected fault: an entry of a script, applied to a single UDP
/// attempt, or a standing fault pinned to a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The attempt goes unanswered (query or reply lost, or a handshake
    /// that hangs): the inner upstream is not consulted at all.
    Timeout,
    /// The server answers (and logs) the query, and its reply comes back
    /// truncated: TC set, records stripped ([`PacketFate::Truncated`]).
    Truncate,
    /// The server answers SERVFAIL in-band (records stripped).
    ServFail,
    /// The server answers FORMERR in-band, as a pre-EDNS/ECS-intolerant
    /// server would (records and EDNS stripped).
    FormErr,
    /// The server refuses the exchange (RST / REFUSED) without consulting
    /// the inner upstream, surfaced as [`UpstreamError::Rcode`] with
    /// [`Rcode::Refused`]: the engine spends the attempt.
    Refused,
    /// The attempt succeeds normally (useful to interleave successes in a
    /// script: `[Timeout, Pass, Timeout]`).
    Pass,
}

/// Counters for what one [`FaultyUpstream`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Attempts turned into timeouts (standing, scripted and knob faults;
    /// fragment drops count in `transport`).
    pub timeouts: u64,
    /// Replies truncated by the script or the knobs.
    pub truncated: u64,
    /// Replies rewritten to SERVFAIL.
    pub servfail: u64,
    /// Replies rewritten to FORMERR.
    pub formerr: u64,
    /// Exchanges refused, and replies the knobs rewrote to REFUSED.
    pub refused: u64,
    /// UDP attempts that passed the fault stages unharmed.
    pub passed: u64,
    /// The transport model's ledger over the exchanges that reached the
    /// server: per-transport counts, handshakes, datagram fate.
    pub transport: TransportStats,
}

impl InjectionStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.timeouts + self.truncated + self.servfail + self.formerr + self.refused
    }

    /// Stream (TCP, DoT) exchanges served.
    pub fn streams(&self) -> u64 {
        self.transport.exchanges_over(Transport::Tcp)
            + self.transport.exchanges_over(Transport::Dot)
    }
}

/// The upstream round trip handshakes are priced in.
const UPSTREAM_RTT: SimDuration = SimDuration::from_millis(40);

/// An [`Upstream`] decorator that injects deterministic faults and models
/// transports (see the module docs for the order they apply in).
pub struct FaultyUpstream<U> {
    inner: U,
    faults: LinkFaults,
    rng: SmallRng,
    script: VecDeque<InjectedFault>,
    standing: [Option<InjectedFault>; 3],
    model: TransportModel,
    stats: InjectionStats,
}

impl<U: Upstream> FaultyUpstream<U> {
    /// Wraps `inner` with probabilistic faults `faults` on a default path
    /// (1500-byte MTU, no fragment loss), all randomness seeded from
    /// `seed`.
    pub fn new(inner: U, faults: LinkFaults, seed: u64) -> Self {
        FaultyUpstream {
            inner,
            faults,
            rng: SmallRng::seed_from_u64(seed),
            script: VecDeque::new(),
            standing: [None; 3],
            model: TransportModel::default(),
            stats: InjectionStats::default(),
        }
    }

    /// Wraps `inner` with no probabilistic faults; only scripted faults
    /// fire.
    pub fn scripted(inner: U, script: Vec<InjectedFault>) -> Self {
        let mut s = Self::new(inner, LinkFaults::NONE, 0);
        s.script = VecDeque::from(script);
        s
    }

    /// Pins a standing fault to `transport`: every exchange over it fails
    /// with `fault` (typically [`InjectedFault::Timeout`] or
    /// [`InjectedFault::Refused`]).
    pub fn pin(mut self, transport: Transport, fault: InjectedFault) -> Self {
        self.standing[transport as usize] = Some(fault);
        self
    }

    /// Replaces the path profile (MTU / fragment loss).
    pub fn with_profile(mut self, profile: PathProfile) -> Self {
        self.model.profile = profile;
        self
    }

    /// What has been injected and carried so far.
    pub fn stats(&self) -> InjectionStats {
        InjectionStats {
            transport: self.model.stats(),
            ..self.stats
        }
    }

    /// The wrapped upstream.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    /// One exchange with the inner upstream, which sees the query arrive
    /// after the transport's handshake round trips have been paid.
    fn exchange(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let at = now + self.model.exchange_cost(transport, UPSTREAM_RTT, now);
        self.inner.query_via(q, from, at, transport)
    }

    /// The path-MTU datagram fate of a UDP answer.
    fn datagram(&mut self, resp: Vec<u8>) -> Result<Vec<u8>, UpstreamError> {
        let rng = &mut self.rng;
        match self.model.datagram_fate(resp.len(), || rng.gen::<f64>()) {
            DatagramFate::Deliver => Ok(resp),
            DatagramFate::FragmentDrop => Err(UpstreamError::Timeout),
        }
    }
}

impl<U: Upstream> Upstream for FaultyUpstream<U> {
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let query = MessageView::parse(q).map_err(|_| UpstreamError::Timeout)?;
        let fault = if let Some(fault) = self.standing[transport as usize] {
            fault
        } else if transport.is_stream() {
            // RFC 7766: the stream is immune to UDP loss and truncation;
            // only a blackholed host stays unreachable.
            if self.faults.blackhole {
                InjectedFault::Timeout
            } else {
                InjectedFault::Pass
            }
        } else if let Some(fault) = self.script.pop_front() {
            fault
        } else {
            match self.faults.fate(true, &mut self.rng) {
                PacketFate::Deliver => InjectedFault::Pass,
                PacketFate::Blackholed | PacketFate::Lost => InjectedFault::Timeout,
                PacketFate::Truncated => InjectedFault::Truncate,
                fate @ PacketFate::Refused => {
                    // As the simulator rewrites the reply: the server
                    // answers (and logs) the query; its reply comes back
                    // REFUSED with its records stripped.
                    self.stats.refused += 1;
                    let mut resp = self.exchange(q, from, now, transport)?;
                    fate.rewrite(&mut resp);
                    return Ok(resp);
                }
            }
        };
        match fault {
            InjectedFault::Timeout => {
                self.stats.timeouts += 1;
                Err(UpstreamError::Timeout)
            }
            InjectedFault::Refused => {
                self.stats.refused += 1;
                Err(UpstreamError::Rcode(Rcode::Refused))
            }
            InjectedFault::Truncate => {
                // The server answers (and logs) the query; the link
                // truncates its reply.
                self.stats.truncated += 1;
                let mut resp = self.exchange(q, from, now, transport)?;
                PacketFate::Truncated.rewrite(&mut resp);
                Ok(resp)
            }
            InjectedFault::ServFail => {
                self.stats.servfail += 1;
                rcode_reply(&query, Rcode::ServFail)
            }
            InjectedFault::FormErr => {
                self.stats.formerr += 1;
                rcode_reply(&query, Rcode::FormErr)
            }
            InjectedFault::Pass if transport.is_stream() => {
                // Streams carry any size; simulated DoT differs from TCP
                // only in handshake cost.
                self.exchange(q, from, now, transport)
            }
            InjectedFault::Pass => {
                self.stats.passed += 1;
                let resp = self.exchange(q, from, now, transport)?;
                self.datagram(resp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResolverConfig;
    use crate::engine::Resolver;
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Message, Name, Question};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn auth() -> AuthServer {
        auth_with_records(1)
    }

    fn auth_with_records(n: usize) -> AuthServer {
        let mut zone = Zone::new(name("example.com"));
        for i in 0..n {
            zone.add_a(
                name("www.example.com"),
                60,
                Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8),
            )
            .unwrap();
        }
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    fn q() -> Message {
        Message::query(7, Question::a(name("www.example.com")))
    }

    fn query(buf: u16) -> Message {
        let mut q = q();
        q.set_edns(buf);
        q
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    /// One exchange of `q` over `transport`, its reply decoded.
    fn via<U: Upstream>(
        up: &mut U,
        q: &Message,
        now: SimTime,
        transport: Transport,
    ) -> Result<Message, UpstreamError> {
        let reply = up.query_via(&q.to_bytes().unwrap(), RES, now, transport)?;
        Ok(Message::from_bytes(&reply).unwrap())
    }

    #[test]
    fn fault_free_wrapper_is_transparent() {
        let mut bare = auth();
        let mut wrapped = FaultyUpstream::new(auth(), LinkFaults::NONE, 42);
        let mut r1 = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let mut r2 = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let a = r1.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut bare);
        let b = r2.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut wrapped);
        assert_eq!(a.to_bytes(), b.to_bytes(), "bit-identical answers");
        assert_eq!(r1.stats(), r2.stats());
        assert_eq!(wrapped.stats().injected(), 0);
        assert_eq!(wrapped.stats().passed, 1);
        assert_eq!(wrapped.stats().transport.exchanges_over(Transport::Udp), 1);
    }

    #[test]
    fn scripted_faults_fire_in_order() {
        let mut up =
            FaultyUpstream::scripted(auth(), vec![InjectedFault::Timeout, InjectedFault::Pass]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.stats().timeouts, 1);
        assert_eq!(up.stats().passed, 1);
        assert_eq!(r.stats().retries, 1);
    }

    #[test]
    fn truncation_surfaces_and_tcp_recovers() {
        let mut up = FaultyUpstream::scripted(auth(), vec![InjectedFault::Truncate]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.answers.len(), 1, "TCP fallback recovered the answer");
        assert_eq!(up.stats().truncated, 1);
        assert_eq!(up.stats().streams(), 1);
        assert_eq!(r.stats().tcp_fallbacks, 1);
    }

    #[test]
    fn blackhole_defeats_tcp_too_and_yields_servfail() {
        let mut up = FaultyUpstream::new(
            auth(),
            LinkFaults {
                blackhole: true,
                ..LinkFaults::NONE
            },
            1,
        );
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(r.stats().servfail_responses, 1);
        assert_eq!(up.stats().streams(), 0);
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut up = FaultyUpstream::new(auth(), LinkFaults::lossy(0.4), seed);
            let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
            for i in 0..50u64 {
                let mut query = q();
                query.id = i as u16 + 1;
                r.resolve_msg(
                    &query,
                    IpAddr::V4(Ipv4Addr::new(10, (i / 256) as u8, (i % 256) as u8, 1)),
                    SimTime::from_secs(i * 100),
                    &mut up,
                );
            }
            (up.stats(), r.stats())
        };
        assert_eq!(run(9), run(9), "same seed, same faults, same stats");
        assert_ne!(run(9).0, run(10).0, "different seed, different faults");
    }

    #[test]
    fn in_band_servfail_passes_through_to_client() {
        let mut up = FaultyUpstream::scripted(auth(), vec![InjectedFault::ServFail]);
        let mut r = Resolver::new(ResolverConfig::rfc_compliant(RES));
        let resp = r.resolve_msg(&q(), CLIENT, SimTime::ZERO, &mut up);
        // In-band SERVFAIL is a server answer, not a transport failure: no
        // retry, the client sees it directly.
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(r.stats().retries, 0);
        assert_eq!(r.stats().servfail_responses, 0);
    }

    #[test]
    fn the_refused_knob_refuses_every_udp_attempt_and_no_stream_leg() {
        let mut up = FaultyUpstream::new(
            auth(),
            LinkFaults {
                refused_replies: 1.0,
                ..LinkFaults::NONE
            },
            3,
        );
        for _ in 0..4 {
            let resp = up.query(&query(4096), RES, SimTime::ZERO).unwrap();
            assert_eq!(resp.rcode, Rcode::Refused);
            assert!(
                resp.answers.is_empty() && resp.edns.is_none(),
                "records stripped"
            );
        }
        for transport in [Transport::Tcp, Transport::Dot] {
            let resp = via(&mut up, &query(4096), SimTime::ZERO, transport).unwrap();
            assert_eq!((resp.rcode, resp.answers.len()), (Rcode::NoError, 1));
        }
        // The server answered, and logged, every exchange.
        assert_eq!(up.inner().log().len(), 6);
        assert_eq!(up.stats().refused, 4);
        assert_eq!(up.stats().passed, 0);
    }

    #[test]
    fn small_answers_pass_untouched_over_udp() {
        let mut up = FaultyUpstream::new(auth_with_records(1), LinkFaults::NONE, 7);
        let resp = up.query(&query(4096), RES, SimTime::ZERO).unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(up.stats().transport.exchanges_over(Transport::Udp), 1);
    }

    #[test]
    fn server_side_truncation_passes_through_as_tc() {
        // The AuthServer decides truncation against the advertised buffer
        // by itself; the decorator hands its reply through as it is, TC or
        // whole. Rows: (A records, advertised buffer, TC expected).
        // 60 records (about 1 kB) overflow 512 bytes. 20 records (about
        // 360 bytes) overflow a 256-byte advertisement, which RFC 6891
        // §6.2.5 reads as 512, so the server sends them whole.
        for (records, advertised, tc) in [(60, 512, true), (20, 256, false)] {
            let mut up = FaultyUpstream::new(auth_with_records(records), LinkFaults::NONE, 7);
            let resp = up.query(&query(advertised), RES, SimTime::ZERO).unwrap();
            let len = resp.to_bytes().unwrap().len();
            assert_eq!(resp.flags.tc, tc, "{records} records, {len} bytes");
            assert_eq!(resp.answers.len(), if tc { 0 } else { records });
            assert!(tc || (advertised.into()..512).contains(&len), "{len} bytes");
        }
    }

    #[test]
    fn fragment_loss_turns_big_answers_into_timeouts() {
        let mut up = FaultyUpstream::new(auth_with_records(60), LinkFaults::NONE, 7).with_profile(
            PathProfile {
                mtu: 512,
                frag_loss: 1.0,
            },
        );
        assert_eq!(
            up.query(&query(4096), RES, SimTime::ZERO).unwrap_err(),
            UpstreamError::Timeout
        );
        // The stream side of the same path is immune.
        let resp = via(&mut up, &query(4096), SimTime::ZERO, Transport::Tcp).unwrap();
        assert_eq!(resp.answers.len(), 60);
        assert_eq!(up.stats().transport.fragments_dropped, 1);
    }

    #[test]
    fn standing_faults_break_exactly_their_transport() {
        let mut up = FaultyUpstream::new(auth(), LinkFaults::NONE, 7)
            .pin(Transport::Tcp, InjectedFault::Refused)
            .pin(Transport::Dot, InjectedFault::Timeout);
        assert!(up.query(&query(4096), RES, SimTime::ZERO).is_ok());
        assert_eq!(
            via(&mut up, &query(4096), SimTime::ZERO, Transport::Tcp).unwrap_err(),
            UpstreamError::Rcode(Rcode::Refused)
        );
        assert_eq!(
            via(&mut up, &query(4096), SimTime::ZERO, Transport::Dot).unwrap_err(),
            UpstreamError::Timeout
        );
    }

    #[test]
    fn stream_exchanges_arrive_after_the_handshake_cost() {
        // An upstream that records when queries reach it.
        struct ArrivalProbe(Vec<u64>);
        impl Upstream for ArrivalProbe {
            fn query_via(
                &mut self,
                q: &[u8],
                _from: IpAddr,
                now: SimTime,
                _transport: Transport,
            ) -> Result<Vec<u8>, UpstreamError> {
                self.0.push(now.as_micros());
                let resp = Message::response_to(&Message::from_bytes(q).unwrap());
                Ok(resp.to_bytes().unwrap())
            }
        }
        let rtt = UPSTREAM_RTT;
        let mut up = FaultyUpstream::new(ArrivalProbe(Vec::new()), LinkFaults::NONE, 7);
        // Cold DoT: 2 RTTs of setup before the inner upstream sees it.
        via(&mut up, &query(4096), SimTime::ZERO, Transport::Dot).unwrap();
        // Warm follow-up 1 s later: no setup.
        via(&mut up, &query(4096), SimTime::from_secs(1), Transport::Dot).unwrap();
        assert_eq!(
            up.inner().0,
            vec![rtt.mul(2).as_micros(), SimTime::from_secs(1).as_micros()]
        );
        assert_eq!(up.stats().transport.handshakes, 1);
        assert_eq!(up.stats().transport.reused_connections, 1);
    }
}
