//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes, per directed link (with a plan-wide default),
//! which failures packets experience: probabilistic loss, a silent
//! blackhole, and — for DNS-shaped reply payloads — truncation (TC bit) and
//! RCODE rewriting to REFUSED. [`LinkFaults::fate`] is the one place that
//! decides which of these a packet meets; the resolver's upstream
//! decorator asks it too. The plan is consulted on
//! [`crate::Simulation`]'s send path, draws all randomness from the
//! simulation's single seeded RNG, and counts every injected fault in
//! [`FaultStats`], so two runs with the same seed inject exactly the same
//! faults.
//!
//! Crucially, a link with [`LinkFaults::NONE`] never touches the RNG, so a
//! simulation carrying an all-zero plan is *bit-identical* to one carrying
//! no plan at all.
//!
//! The payload rewrite, [`PacketFate::rewrite`], assumes the DNS wire
//! format this project puts in [`crate::Packet::payload`] (the simulator
//! itself stays byte-oriented: a packet that is not a well-formed DNS
//! reply is left untouched by the message-level faults).

use rand::Rng;

use crate::sim::{NodeId, PairMap};

/// Faults applied on one directed link (or plan-wide, as the default).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability each packet is dropped. The simulator's only loss
    /// model: the latency model delays, it never drops.
    pub loss: f64,
    /// Silently drop every packet (a routing blackhole). Unlike `loss =
    /// 1.0` this consumes no randomness.
    pub blackhole: bool,
    /// Probability a DNS *reply* is truncated: TC set, answer/authority/
    /// additional sections stripped.
    pub truncate_replies: f64,
    /// Probability a DNS reply's RCODE is rewritten to REFUSED (records
    /// stripped, as a policy-refusing forwarder answers) — the signal the
    /// scanner's circuit breakers trip on.
    pub refused_replies: f64,
}

impl LinkFaults {
    /// A fault-free link.
    pub const NONE: LinkFaults = LinkFaults {
        loss: 0.0,
        blackhole: false,
        truncate_replies: 0.0,
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

    /// Decides one packet's fate on this link, in a fixed order: blackhole,
    /// then loss, then — for a `reply` only — truncation, then REFUSED. A
    /// knob at zero draws nothing from `rng`.
    pub fn fate<R: Rng>(&self, reply: bool, rng: &mut R) -> PacketFate {
        let mut draw = |p: f64| p > 0.0 && rng.gen::<f64>() < p;
        if self.blackhole {
            PacketFate::Blackholed
        } else if draw(self.loss) {
            PacketFate::Lost
        } else if !reply {
            PacketFate::Deliver
        } else if draw(self.truncate_replies) {
            PacketFate::Truncated
        } else if draw(self.refused_replies) {
            PacketFate::Refused
        } else {
            PacketFate::Deliver
        }
    }
}

/// What a link does to one packet: [`LinkFaults::fate`]'s verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Arrives as sent.
    Deliver,
    /// Swallowed by a blackholed link.
    Blackholed,
    /// Dropped by probabilistic loss.
    Lost,
    /// A reply arrives truncated: TC set, records stripped.
    Truncated,
    /// A reply arrives with its RCODE rewritten to REFUSED, records
    /// stripped.
    Refused,
}

impl PacketFate {
    /// Rewrites DNS reply `payload` in place as this fate delivers it: a
    /// [`PacketFate::Truncated`] reply gets TC, a [`PacketFate::Refused`]
    /// one RCODE REFUSED, and either loses everything after its question
    /// section, as a size-limited or policy-refusing server sends it.
    /// Every other fate, and a payload shorter than a DNS header, is left
    /// as it is. The simulator's send path and the resolver's upstream
    /// decorator both rewrite through here.
    pub fn rewrite(self, payload: &mut Vec<u8>) {
        if payload.len() < 12 {
            return;
        }
        match self {
            PacketFate::Truncated => payload[2] |= 0x02, // TC
            PacketFate::Refused => payload[3] = (payload[3] & 0xF0) | 5, // REFUSED
            _ => return,
        }
        if let Some(end) = dns_question_end(payload) {
            for b in &mut payload[6..12] {
                *b = 0; // ANCOUNT, NSCOUNT, ARCOUNT
            }
            payload.truncate(end);
        }
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
    /// Replies whose RCODE was rewritten to REFUSED.
    pub rcode_injected: u64,
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
    links: PairMap<LinkFaults>,
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
            links: PairMap::default(),
        }
    }

    /// Sets the faults for the directed link `src → dst` (overrides the
    /// default for that link only).
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> &mut Self {
        self.links.insert((src, dst), faults);
        self
    }

    /// The faults in effect on `src → dst`.
    fn faults_for(&self, src: NodeId, dst: NodeId) -> &LinkFaults {
        self.links.get(&(src, dst)).unwrap_or(&self.default)
    }

    /// Whether the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.default.is_none() && self.links.values().all(LinkFaults::is_none)
    }

    /// Applies the plan to one packet about to traverse `src → dst`,
    /// possibly mangling `payload` in place and counting what happened in
    /// `stats`. Returns `false` when the packet is dropped.
    ///
    /// A fault-free link returns immediately without drawing from `rng`.
    pub fn apply<R: Rng>(
        &self,
        src: NodeId,
        dst: NodeId,
        payload: &mut Vec<u8>,
        rng: &mut R,
        stats: &mut FaultStats,
    ) -> bool {
        let f = self.faults_for(src, dst);
        if f.is_none() {
            return true;
        }
        let fate = f.fate(dns_is_reply(payload), rng);
        match fate {
            PacketFate::Deliver => return true,
            PacketFate::Blackholed => stats.dropped_blackhole += 1,
            PacketFate::Lost => stats.dropped_loss += 1,
            PacketFate::Truncated => stats.truncated += 1,
            PacketFate::Refused => stats.rcode_injected += 1,
        }
        fate.rewrite(payload);
        matches!(fate, PacketFate::Truncated | PacketFate::Refused)
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
        assert!(plan.apply(node(0), node(1), &mut payload, &mut rng1, &mut stats));
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
            assert!(!plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats));
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
        assert!(plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats));
        assert_eq!(stats.truncated, 1);
        assert!(p[2] & 0x02 != 0, "TC set");
        assert_eq!(&p[6..12], &[0; 6], "record counts zeroed");
        assert_eq!(p.len(), 12 + 3 + 4, "chopped after the question");
        // Called directly, a rewrite leaves a datagram shorter than a
        // header as it is.
        for fate in [PacketFate::Truncated, PacketFate::Refused] {
            for len in [0, 1, 3, 11] {
                let mut short = reply_bytes();
                short.truncate(len);
                let before = short.clone();
                fate.rewrite(&mut short);
                assert_eq!(short, before, "{fate:?} on {len} bytes");
            }
        }
    }

    #[test]
    fn rcode_injection_rewrites_refused_and_strips_records() {
        let plan = FaultPlan::uniform(LinkFaults {
            refused_replies: 1.0,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        let mut p = reply_bytes();
        assert!(plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats));
        assert_eq!(p[3] & 0x0F, 5);
        assert_eq!(&p[6..12], &[0; 6], "record counts zeroed");
        assert_eq!(stats.rcode_injected, 1);
    }

    #[test]
    fn queries_are_not_mangled() {
        let plan = FaultPlan::uniform(LinkFaults {
            truncate_replies: 1.0,
            refused_replies: 1.0,
            ..LinkFaults::NONE
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = FaultStats::default();
        let mut q = reply_bytes();
        q[2] &= !0x80; // clear QR: a query
        let before = q.clone();
        assert!(plan.apply(node(0), node(1), &mut q, &mut rng, &mut stats));
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
        assert!(plan.apply(node(0), node(1), &mut p, &mut rng, &mut stats));
        // ...the reverse direction uses the lossy default.
        assert!(!plan.apply(node(1), node(0), &mut p, &mut rng, &mut stats));
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
    }
}
