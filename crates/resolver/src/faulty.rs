//! Fault injection at the [`Upstream`] seam.
//!
//! [`FaultyUpstream`] wraps any upstream and makes it misbehave the way
//! real authoritative paths do: lost queries and replies (timeouts),
//! truncated UDP replies, and in-band SERVFAIL/FORMERR answers. Faults come
//! from two sources, both deterministic:
//!
//! * a **script** of [`InjectedFault`]s consumed one per UDP attempt, for
//!   tests that need an exact failure sequence ("time out twice, then
//!   answer");
//! * the same probabilistic [`LinkFaults`] knobs the packet-level simulator
//!   uses, driven by a seeded [`SmallRng`], for statistical sweeps.
//!
//! The scripted queue is consulted first; only when it is empty do the
//! probabilistic knobs apply. As in [`netsim::FaultPlan`], a knob with
//! probability zero never draws from the RNG, so a `FaultyUpstream` with
//! [`LinkFaults::NONE`] and an empty script behaves *bit-identically* to
//! the bare inner upstream.
//!
//! TCP ([`Upstream::query_tcp`]) models RFC 7766 semantics: truncation and
//! UDP loss do not apply (the stream either works or the host is
//! unreachable), so only a blackhole affects it.

use std::collections::VecDeque;
use std::net::IpAddr;

use dns_wire::{Message, Rcode};
use netsim::{LinkFaults, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Upstream, UpstreamError};

/// One scripted fault, applied to a single UDP attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The attempt goes unanswered (query or reply lost): the inner
    /// upstream is not consulted at all.
    Timeout,
    /// The reply comes back truncated: TC set, records stripped, surfaced
    /// as [`UpstreamError::Truncated`].
    Truncate,
    /// The server answers SERVFAIL in-band (records stripped).
    ServFail,
    /// The server answers FORMERR in-band, as a pre-EDNS/ECS-intolerant
    /// server would (records and EDNS stripped).
    FormErr,
    /// The attempt succeeds normally (useful to interleave successes in a
    /// script: `[Timeout, Pass, Timeout]`).
    Pass,
}

/// Counters for the faults actually injected by one [`FaultyUpstream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Attempts turned into timeouts (scripted + probabilistic).
    pub timeouts: u64,
    /// Replies truncated.
    pub truncated: u64,
    /// Replies rewritten to SERVFAIL.
    pub servfail: u64,
    /// Replies rewritten to FORMERR.
    pub formerr: u64,
    /// UDP attempts that passed through unharmed.
    pub passed: u64,
    /// TCP exchanges served.
    pub tcp: u64,
}

impl InjectionStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.timeouts + self.truncated + self.servfail + self.formerr
    }
}

/// An [`Upstream`] decorator that injects deterministic faults.
pub struct FaultyUpstream<U> {
    inner: U,
    faults: LinkFaults,
    rng: SmallRng,
    script: VecDeque<InjectedFault>,
    stats: InjectionStats,
}

impl<U: Upstream> FaultyUpstream<U> {
    /// Wraps `inner` with probabilistic faults `faults`, all randomness
    /// seeded from `seed`.
    pub fn new(inner: U, faults: LinkFaults, seed: u64) -> Self {
        FaultyUpstream {
            inner,
            faults,
            rng: SmallRng::seed_from_u64(seed),
            script: VecDeque::new(),
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

    /// What has been injected so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// The wrapped upstream.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    /// The fault to apply to this attempt: scripted first, then the
    /// probabilistic knobs (zero-probability knobs never touch the RNG).
    fn next_fault(&mut self) -> InjectedFault {
        if let Some(f) = self.script.pop_front() {
            return f;
        }
        let f = &self.faults;
        if f.blackhole {
            return InjectedFault::Timeout;
        }
        if f.loss > 0.0 && self.rng.gen::<f64>() < f.loss {
            return InjectedFault::Timeout;
        }
        if f.truncate_replies > 0.0 && self.rng.gen::<f64>() < f.truncate_replies {
            return InjectedFault::Truncate;
        }
        if f.servfail_replies > 0.0 && self.rng.gen::<f64>() < f.servfail_replies {
            return InjectedFault::ServFail;
        }
        if f.formerr_replies > 0.0 && self.rng.gen::<f64>() < f.formerr_replies {
            return InjectedFault::FormErr;
        }
        InjectedFault::Pass
    }
}

impl<U: Upstream> Upstream for FaultyUpstream<U> {
    fn query(&mut self, q: &Message, from: IpAddr, now: SimTime) -> Result<Message, UpstreamError> {
        match self.next_fault() {
            InjectedFault::Timeout => {
                self.stats.timeouts += 1;
                Err(UpstreamError::Timeout)
            }
            InjectedFault::Truncate => {
                self.stats.truncated += 1;
                let mut resp = self.inner.query(q, from, now)?;
                resp.flags.tc = true;
                resp.answers.clear();
                Err(UpstreamError::Truncated(Box::new(resp)))
            }
            InjectedFault::ServFail => {
                self.stats.servfail += 1;
                let mut resp = Message::response_to(q);
                resp.rcode = Rcode::ServFail;
                Ok(resp)
            }
            InjectedFault::FormErr => {
                self.stats.formerr += 1;
                // A pre-EDNS server echoes no OPT at all.
                let mut resp = Message::response_to(q);
                resp.rcode = Rcode::FormErr;
                resp.clear_ecs();
                Ok(resp)
            }
            InjectedFault::Pass => {
                self.stats.passed += 1;
                self.inner.query(q, from, now)
            }
        }
    }

    fn query_tcp(
        &mut self,
        q: &Message,
        from: IpAddr,
        now: SimTime,
    ) -> Result<Message, UpstreamError> {
        // RFC 7766: the stream is immune to UDP loss and truncation; only a
        // blackholed host stays unreachable.
        if self.faults.blackhole {
            self.stats.timeouts += 1;
            return Err(UpstreamError::Timeout);
        }
        self.stats.tcp += 1;
        self.inner.query_tcp(q, from, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResolverConfig;
    use crate::engine::Resolver;
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Name, Question};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn auth() -> AuthServer {
        let mut zone = Zone::new(name("example.com"));
        zone.add_a(name("www.example.com"), 60, Ipv4Addr::new(198, 51, 100, 1))
            .unwrap();
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    fn q() -> Message {
        Message::query(7, Question::a(name("www.example.com")))
    }

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

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
        assert_eq!(up.stats().tcp, 1);
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
        assert_eq!(up.stats().tcp, 0);
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
}
