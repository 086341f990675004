//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes, per directed link (with a plan-wide default),
//! which failures packets experience: probabilistic loss, extra latency
//! jitter, a silent blackhole, and — for DNS-shaped reply payloads —
//! truncation (TC bit) and RCODE rewriting (SERVFAIL/FORMERR/REFUSED). The
//! plan is
//! consulted on [`crate::Simulation`]'s send path, draws all randomness
//! from the simulation's single seeded RNG, and counts every injected
//! fault in [`FaultStats`], so two runs with the same seed inject exactly
//! the same faults.
//!
//! Crucially, a link with [`LinkFaults::NONE`] never touches the RNG, so a
//! simulation carrying an all-zero plan is *bit-identical* to one carrying
//! no plan at all.
//!
//! The payload manglers assume the DNS wire format this project puts in
//! [`crate::Packet::payload`] (the simulator itself stays byte-oriented:
//! a packet that is not a well-formed DNS reply is left untouched by the
//! message-level faults).

use std::collections::HashMap;

use rand::Rng;

use crate::sim::NodeId;

/// Faults applied on one directed link (or plan-wide, as the default).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability each packet is dropped, on top of the latency model's
    /// own loss.
    pub loss: f64,
    /// Maximum extra uniform jitter per packet, in milliseconds.
    pub extra_jitter_ms: f64,
    /// Silently drop every packet (a routing blackhole). Unlike `loss =
    /// 1.0` this consumes no randomness.
    pub blackhole: bool,
    /// Probability a DNS *reply* is truncated: TC set, answer/authority/
    /// additional sections stripped.
    pub truncate_replies: f64,
    /// Probability a DNS reply's RCODE is rewritten to SERVFAIL (records
    /// stripped).
    pub servfail_replies: f64,
    /// Probability a DNS reply's RCODE is rewritten to FORMERR (records
    /// stripped, as a pre-EDNS server would answer).
    pub formerr_replies: f64,
    /// Probability a DNS reply's RCODE is rewritten to REFUSED (records
    /// stripped, as a policy-refusing forwarder answers) — the signal the
    /// scanner's circuit breakers trip on.
    pub refused_replies: f64,
}

impl LinkFaults {
    /// A fault-free link.
    pub const NONE: LinkFaults = LinkFaults {
        loss: 0.0,
        extra_jitter_ms: 0.0,
        blackhole: false,
        truncate_replies: 0.0,
        servfail_replies: 0.0,
        formerr_replies: 0.0,
        refused_replies: 0.0,
    };

    /// Pure packet loss at probability `p`.
    pub fn lossy(p: f64) -> Self {
        LinkFaults {
            loss: p,
            ..LinkFaults::NONE
        }
    }

    /// Whether every fault is disabled.
    pub fn is_none(&self) -> bool {
        *self == LinkFaults::NONE
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// Counters for the faults a plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped by probabilistic loss.
    pub dropped_loss: u64,
    /// Packets swallowed by a blackholed link.
    pub dropped_blackhole: u64,
    /// Replies truncated (TC set, sections stripped).
    pub truncated: u64,
    /// Replies whose RCODE was rewritten (SERVFAIL or FORMERR).
    pub rcode_injected: u64,
    /// Packets that received extra jitter.
    pub delayed: u64,
}

impl FaultStats {
    /// Total packets the plan removed from the network.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_blackhole
    }
}

/// A seeded, deterministic description of which links fail and how.
///
/// Randomness is *not* stored here: the plan is pure data, and every draw
/// comes from the RNG the caller passes to [`FaultPlan::apply`] (the
/// simulation's own seeded RNG), which is what makes runs reproducible.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    default: LinkFaults,
    links: HashMap<(NodeId, NodeId), LinkFaults>,
}

impl FaultPlan {
    /// A plan injecting no faults anywhere.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan applying `faults` to every link.
    pub fn uniform(faults: LinkFaults) -> Self {
        FaultPlan {
            default: faults,
            links: HashMap::new(),
        }
    }

    /// Sets the faults for the directed link `src → dst` (overrides the
    /// default for that link only).
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> &mut Self {
        self.links.insert((src, dst), faults);
        self
    }

    /// The faults in effect on `src → dst`.
    pub fn faults_for(&self, src: NodeId, dst: NodeId) -> &LinkFaults {
        self.links.get(&(src, dst)).unwrap_or(&self.default)
    }

    /// Whether the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.default.is_none() && self.links.values().all(LinkFaults::is_none)
    }

    /// Applies the plan to one packet about to traverse `src → dst`,
    /// possibly mangling `payload` in place and counting what happened in
    /// `stats`. Returns `None` when the packet is dropped, otherwise the
    /// extra delay to add on top of the latency model's.
    ///
    /// A fault-free link returns immediately without drawing from `rng`.
    pub fn apply<R: Rng>(
        &self,
        src: NodeId,
        dst: NodeId,
        payload: &mut Vec<u8>,
        rng: &mut R,
        stats: &mut FaultStats,
    ) -> Option<crate::SimDuration> {
        let f = self.faults_for(src, dst);
        if f.is_none() {
            return Some(crate::SimDuration::ZERO);
        }
        if f.blackhole {
            stats.dropped_blackhole += 1;
            return None;
        }
        if f.loss > 0.0 && rng.gen::<f64>() < f.loss {
            stats.dropped_loss += 1;
            return None;
        }
        if dns_is_reply(payload) {
            if f.truncate_replies > 0.0 && rng.gen::<f64>() < f.truncate_replies {
                dns_truncate(payload);
                stats.truncated += 1;
            } else if f.servfail_replies > 0.0 && rng.gen::<f64>() < f.servfail_replies {
                dns_set_rcode(payload, 2); // SERVFAIL
                stats.rcode_injected += 1;
            } else if f.formerr_replies > 0.0 && rng.gen::<f64>() < f.formerr_replies {
                dns_set_rcode(payload, 1); // FORMERR
                stats.rcode_injected += 1;
            } else if f.refused_replies > 0.0 && rng.gen::<f64>() < f.refused_replies {
                dns_set_rcode(payload, 5); // REFUSED
                stats.rcode_injected += 1;
            }
        }
        let extra = if f.extra_jitter_ms > 0.0 {
            stats.delayed += 1;
            crate::SimDuration::from_millis_f64(rng.gen::<f64>() * f.extra_jitter_ms)
        } else {
            crate::SimDuration::ZERO
        };
        Some(extra)
    }
}

/// Whether `payload` looks like a DNS response (QR bit set).
fn dns_is_reply(payload: &[u8]) -> bool {
    payload.len() >= 12 && payload[2] & 0x80 != 0
}

/// End of the question section, if the payload parses far enough: walks
/// the first QNAME's labels and skips QTYPE/QCLASS.
fn dns_question_end(payload: &[u8]) -> Option<usize> {
    let qdcount = u16::from_be_bytes([payload[4], payload[5]]) as usize;
    let mut i = 12;
    for _ in 0..qdcount {
        loop {
            let len = *payload.get(i)? as usize;
            if len == 0 {
                i += 1;
                break;
            }
            if len & 0xC0 != 0 {
                i += 2; // compression pointer terminates the name
                break;
            }
            i += 1 + len;
        }
        i += 4; // QTYPE + QCLASS
        if i > payload.len() {
            return None;
        }
    }
    Some(i)
}

/// Truncates a reply in place: sets TC, zeroes the record counts, and
/// chops everything after the question section (as a size-limited UDP
/// server does). If the question section does not parse, only TC is set.
fn dns_truncate(payload: &mut Vec<u8>) {
    payload[2] |= 0x02; // TC
    if let Some(end) = dns_question_end(payload) {
        for b in &mut payload[6..12] {
            *b = 0; // ANCOUNT, NSCOUNT, ARCOUNT
        }
        payload.truncate(end);
    }
}

/// Rewrites a reply's RCODE in place (stripping records like a failing
/// server that never assembled an answer). `rcode` is the 4-bit header
/// value.
fn dns_set_rcode(payload: &mut Vec<u8>, rcode: u8) {
    payload[3] = (payload[3] & 0xF0) | (rcode & 0x0F);
    if let Some(end) = dns_question_end(payload) {
        for b in &mut payload[6..12] {
            *b = 0;
        }
        payload.truncate(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn node(i: usize) -> NodeId {
        NodeId(i)
    }

    /// A minimal DNS reply: header with QR set, one question `a.` A/IN,
    /// ANCOUNT advertising one (absent) record.
    fn reply_bytes() -> Vec<u8> {
        let mut b = vec![
            0x12, 0x34, // id
            0x80, 0x00, // QR=1
            0x00, 0x01, // QDCOUNT=1
            0x00, 0x01, // ANCOUNT=1
            0x00, 0x00, 0x00, 0x00,
        ];
        b.extend_from_slice(&[1, b'a', 0]); // qname "a."
        b.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // A IN
        b.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]); // fake record bytes
        b
    }

    #[test]
    fn fault_free_plan_draws_no_randomness() {
        let plan = FaultPlan::none();
        let mut rng1 = SmallRng::seed_from_u64(1);
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut stats = FaultStats::default();
        let mut payload = reply_bytes();
        let d = plan.apply(node(0), node(1), &mut payload, &mut rng1, &mut stats);
        assert_eq!(d, Some(crate::SimDuration::ZERO));
        assert_eq!(stats, FaultStats::default());
        assert_eq!(payload, reply_bytes(), "payload untouched");
        // The RNG stream was not consumed.
        assert_eq!(rng1.gen::<u64>(), rng2.gen::<u64>());
    }

    #[test]
    fn blackhole_swallows_everything_deterministically() {
        let plan = FaultPlan::uniform(LinkFaults {
            blackhole: true,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(1);
        let mut stats = FaultStats::default();
        for _ in 0..10 {
            let mut p = reply_bytes();
            assert!(plan
                .apply(node(0), node(1), &mut p, &mut rng, &mut stats)
                .is_none());
        }
        assert_eq!(stats.dropped_blackhole, 10);
    }

    #[test]
    fn loss_is_seed_deterministic() {
        let run = |seed| {
            let plan = FaultPlan::uniform(LinkFaults::lossy(0.5));
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut stats = FaultStats::default();
            for _ in 0..100 {
                let mut p = reply_bytes();
                plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats);
            }
            stats
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).dropped_loss > 20);
        assert!(run(7).dropped_loss < 80);
    }

    #[test]
    fn truncation_sets_tc_and_strips_records() {
        let plan = FaultPlan::uniform(LinkFaults {
            truncate_replies: 1.0,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        let mut p = reply_bytes();
        plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats)
            .unwrap();
        assert_eq!(stats.truncated, 1);
        assert!(p[2] & 0x02 != 0, "TC set");
        assert_eq!(&p[6..12], &[0; 6], "record counts zeroed");
        assert_eq!(p.len(), 12 + 3 + 4, "chopped after the question");
    }

    #[test]
    fn rcode_injection_rewrites_servfail_and_formerr() {
        for (spec, want) in [
            (
                LinkFaults {
                    servfail_replies: 1.0,
                    ..LinkFaults::NONE
                },
                2,
            ),
            (
                LinkFaults {
                    formerr_replies: 1.0,
                    ..LinkFaults::NONE
                },
                1,
            ),
            (
                LinkFaults {
                    refused_replies: 1.0,
                    ..LinkFaults::NONE
                },
                5,
            ),
        ] {
            let plan = FaultPlan::uniform(spec);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut stats = FaultStats::default();
            let mut p = reply_bytes();
            plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats)
                .unwrap();
            assert_eq!(p[3] & 0x0F, want);
            assert_eq!(stats.rcode_injected, 1);
        }
    }

    #[test]
    fn queries_are_not_mangled() {
        let plan = FaultPlan::uniform(LinkFaults {
            truncate_replies: 1.0,
            servfail_replies: 1.0,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        let mut q = reply_bytes();
        q[2] &= !0x80; // clear QR: a query
        let before = q.clone();
        plan.apply(node(0), node(1), &mut q, &mut rng, &mut stats)
            .unwrap();
        assert_eq!(q, before);
        assert_eq!(stats.truncated + stats.rcode_injected, 0);
    }

    #[test]
    fn per_link_overrides_beat_the_default() {
        let mut plan = FaultPlan::uniform(LinkFaults::lossy(1.0));
        plan.set_link(node(0), node(1), LinkFaults::NONE);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        let mut p = reply_bytes();
        // The overridden link delivers...
        assert!(plan
            .apply(node(0), node(1), &mut p, &mut rng, &mut stats)
            .is_some());
        // ...the reverse direction uses the lossy default.
        assert!(plan
            .apply(node(1), node(0), &mut p, &mut rng, &mut stats)
            .is_none());
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn extra_jitter_is_bounded_and_counted() {
        let plan = FaultPlan::uniform(LinkFaults {
            extra_jitter_ms: 10.0,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        for _ in 0..50 {
            let mut p = reply_bytes();
            let d = plan
                .apply(node(0), node(1), &mut p, &mut rng, &mut stats)
                .unwrap();
            assert!(d.as_millis_f64() <= 10.0);
        }
        assert_eq!(stats.delayed, 50);
    }
}
