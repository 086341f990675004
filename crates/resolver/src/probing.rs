//! ECS probing strategies (§6.1): when does a resolver attach the option?
//!
//! RFC 7871 tells resolvers not to send ECS blindly — they should probe for
//! support or keep a whitelist. The paper classified what deployed
//! resolvers actually do into five patterns; each is a variant here (the
//! `workload` crate's `PROBING_TABLE` has how many resolvers each holds).

use std::collections::{HashMap, HashSet};

use dns_wire::Name;
use netsim::{SimDuration, SimTime};

/// The decision produced by a probing strategy for one outgoing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcsDecision {
    /// Attach the client-derived ECS option.
    SendClientEcs,
    /// Attach an ECS option carrying the loopback address (the
    /// interval-loopback class's behaviour).
    SendLoopbackProbe,
    /// Attach an ECS option carrying the resolver's own address — the
    /// paper's *recommended* probing prefix.
    SendOwnAddress,
    /// Send no ECS option.
    Omit,
}

/// Strategy for deciding ECS inclusion per query.
#[derive(Debug, Clone)]
pub enum ProbingStrategy {
    /// Send ECS on every A/AAAA query (the always-ECS class).
    Always,
    /// Send ECS consistently, but only for a fixed set of probe hostnames —
    /// and for those hostnames bypass the cache, re-querying within TTL
    /// (the hostname-probe class).
    HostnameProbe {
        /// The probe hostnames.
        hostnames: HashSet<Name>,
    },
    /// Send a loopback-ECS probe for a single query string at multiples of
    /// `period` (30 minutes in the wild), non-ECS queries otherwise (the
    /// interval-loopback class). When `use_own_address` is true this
    /// becomes the paper's recommended variant.
    IntervalProbe {
        /// Probe period.
        period: SimDuration,
        /// Send the resolver's own address instead of loopback.
        use_own_address: bool,
    },
    /// Send ECS for specific hostnames, but only on a cache miss (the
    /// on-miss class).
    OnMiss {
        /// The hostnames that get ECS.
        hostnames: HashSet<Name>,
    },
    /// Maintain a per-zone whitelist (OpenDNS style): ECS only for queries
    /// under whitelisted zones.
    ZoneWhitelist {
        /// Whitelisted zone apexes.
        zones: Vec<Name>,
    },
    /// Send ECS on every `k`-th address query, regardless of name — the
    /// "no discernible pattern" (mixed) class: the same name is seen both
    /// with and without ECS.
    EveryKth {
        /// Period of the pattern (k ≥ 1; 1 degenerates to `Always`).
        k: u64,
    },
}

/// Mutable probing state kept per authoritative nameserver.
#[derive(Debug, Clone, Default)]
pub struct ProbingState {
    /// Last time an interval probe was sent, per strategy bookkeeping.
    last_probe: HashMap<&'static str, SimTime>,
    /// Whether the last probe response carried a valid ECS option.
    pub ecs_supported: Option<bool>,
    /// Address-query counter (drives [`ProbingStrategy::EveryKth`]).
    pub query_counter: u64,
    /// RFC 7871 §7.1.3: set after an ECS query to this server timed out
    /// (or FORMERR'd, when that downgrade is enabled). While set, every
    /// strategy omits ECS; a later response carrying a valid ECS option
    /// clears it.
    pub marked_non_ecs: bool,
}

impl ProbingState {
    /// Remembers the server as non-ECS (RFC 7871 §7.1.3). Cleared by
    /// [`ProbingStrategy::record_response`] on the next valid ECS reply.
    pub fn mark_non_ecs(&mut self) {
        self.marked_non_ecs = true;
    }
}

impl ProbingStrategy {
    /// Decides ECS handling for a query.
    ///
    /// * `qname` — the name being queried upstream;
    /// * `is_address_query` — A/AAAA (others never get client ECS);
    /// * `cache_hit` — whether the resolver could have answered from cache
    ///   (drives [`ProbingStrategy::OnMiss`]);
    /// * `now` — virtual time (drives [`ProbingStrategy::IntervalProbe`]).
    pub fn decide(
        &self,
        qname: &Name,
        is_address_query: bool,
        cache_hit: bool,
        now: SimTime,
        state: &mut ProbingState,
    ) -> EcsDecision {
        if !is_address_query {
            return EcsDecision::Omit;
        }
        if state.marked_non_ecs {
            // The server is remembered as non-ECS after an unanswered (or
            // rejected) ECS query; keep traffic plain until it recovers.
            return EcsDecision::Omit;
        }
        match self {
            ProbingStrategy::Always => EcsDecision::SendClientEcs,
            ProbingStrategy::HostnameProbe { hostnames } => {
                if hostnames.contains(qname) {
                    EcsDecision::SendClientEcs
                } else {
                    EcsDecision::Omit
                }
            }
            ProbingStrategy::IntervalProbe {
                period,
                use_own_address,
            } => {
                let due = match state.last_probe.get("interval") {
                    None => true,
                    Some(last) => now.since(*last) >= *period,
                };
                if due {
                    state.last_probe.insert("interval", now);
                    if *use_own_address {
                        EcsDecision::SendOwnAddress
                    } else {
                        EcsDecision::SendLoopbackProbe
                    }
                } else if state.ecs_supported == Some(true) {
                    // Once support is confirmed, real client ECS flows.
                    EcsDecision::SendClientEcs
                } else {
                    EcsDecision::Omit
                }
            }
            ProbingStrategy::OnMiss { hostnames } => {
                if hostnames.contains(qname) && !cache_hit {
                    EcsDecision::SendClientEcs
                } else {
                    EcsDecision::Omit
                }
            }
            ProbingStrategy::ZoneWhitelist { zones } => {
                if zones.iter().any(|z| qname.is_subdomain_of(z)) {
                    EcsDecision::SendClientEcs
                } else {
                    EcsDecision::Omit
                }
            }
            ProbingStrategy::EveryKth { k } => {
                let i = state.query_counter;
                state.query_counter += 1;
                if *k <= 1 || i.is_multiple_of(*k) {
                    EcsDecision::SendClientEcs
                } else {
                    EcsDecision::Omit
                }
            }
        }
    }

    /// Whether this strategy disables caching for the given probe hostname
    /// (the paper's second class re-queries probe names within TTL).
    pub fn bypasses_cache(&self, qname: &Name) -> bool {
        match self {
            ProbingStrategy::HostnameProbe { hostnames } => hostnames.contains(qname),
            _ => false,
        }
    }

    /// Records the outcome of a probe (a response carrying / not carrying a
    /// valid ECS option). A valid ECS reply also clears a non-ECS mark left
    /// by an earlier timeout: the server evidently supports the option now.
    pub fn record_response(&self, had_valid_ecs: bool, state: &mut ProbingState) {
        state.ecs_supported = Some(had_valid_ecs);
        if had_valid_ecs {
            state.marked_non_ecs = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn always_sends_on_address_queries_only() {
        let s = ProbingStrategy::Always;
        let mut st = ProbingState::default();
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(0), &mut st),
            EcsDecision::SendClientEcs
        );
        assert_eq!(
            s.decide(&name("a.example"), false, false, t(0), &mut st),
            EcsDecision::Omit
        );
    }

    #[test]
    fn hostname_probe_limits_to_set_and_bypasses_cache() {
        let s = ProbingStrategy::HostnameProbe {
            hostnames: HashSet::from([name("probe.example")]),
        };
        let mut st = ProbingState::default();
        assert_eq!(
            s.decide(&name("probe.example"), true, true, t(0), &mut st),
            EcsDecision::SendClientEcs
        );
        assert_eq!(
            s.decide(&name("other.example"), true, false, t(0), &mut st),
            EcsDecision::Omit
        );
        assert!(s.bypasses_cache(&name("probe.example")));
        assert!(!s.bypasses_cache(&name("other.example")));
    }

    #[test]
    fn interval_probe_fires_on_schedule() {
        let s = ProbingStrategy::IntervalProbe {
            period: SimDuration::from_secs(1800),
            use_own_address: false,
        };
        let mut st = ProbingState::default();
        // First query probes with loopback.
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(0), &mut st),
            EcsDecision::SendLoopbackProbe
        );
        // Within the period, no ECS (support not yet confirmed).
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(60), &mut st),
            EcsDecision::Omit
        );
        // At the period boundary, probes again.
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(1800), &mut st),
            EcsDecision::SendLoopbackProbe
        );
        // Confirm support: now client ECS flows between probes.
        s.record_response(true, &mut st);
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(1900), &mut st),
            EcsDecision::SendClientEcs
        );
        // Probes still fire on schedule.
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(3600), &mut st),
            EcsDecision::SendLoopbackProbe
        );
    }

    #[test]
    fn interval_probe_own_address_variant() {
        let s = ProbingStrategy::IntervalProbe {
            period: SimDuration::from_secs(1800),
            use_own_address: true,
        };
        let mut st = ProbingState::default();
        assert_eq!(
            s.decide(&name("a.example"), true, false, t(0), &mut st),
            EcsDecision::SendOwnAddress
        );
    }

    #[test]
    fn on_miss_only_fires_on_misses() {
        let s = ProbingStrategy::OnMiss {
            hostnames: HashSet::from([name("x.example")]),
        };
        let mut st = ProbingState::default();
        assert_eq!(
            s.decide(&name("x.example"), true, false, t(0), &mut st),
            EcsDecision::SendClientEcs
        );
        assert_eq!(
            s.decide(&name("x.example"), true, true, t(0), &mut st),
            EcsDecision::Omit
        );
        assert_eq!(
            s.decide(&name("y.example"), true, false, t(0), &mut st),
            EcsDecision::Omit
        );
    }

    #[test]
    fn non_ecs_mark_suppresses_every_strategy_until_cleared() {
        let mut st = ProbingState::default();
        st.mark_non_ecs();
        for s in [
            ProbingStrategy::Always,
            ProbingStrategy::EveryKth { k: 1 },
            ProbingStrategy::IntervalProbe {
                period: SimDuration::from_secs(1800),
                use_own_address: true,
            },
        ] {
            assert_eq!(
                s.decide(&name("a.example"), true, false, t(0), &mut st),
                EcsDecision::Omit,
                "{s:?} must omit while marked non-ECS"
            );
        }
        // A reply carrying valid ECS clears the mark; ECS flows again.
        ProbingStrategy::Always.record_response(true, &mut st);
        assert!(!st.marked_non_ecs);
        assert_eq!(
            ProbingStrategy::Always.decide(&name("a.example"), true, false, t(1), &mut st),
            EcsDecision::SendClientEcs
        );
        // A non-ECS reply does NOT clear the mark.
        st.mark_non_ecs();
        ProbingStrategy::Always.record_response(false, &mut st);
        assert!(st.marked_non_ecs);
    }

    #[test]
    fn zone_whitelist_matches_subdomains() {
        let s = ProbingStrategy::ZoneWhitelist {
            zones: vec![name("cdn.example")],
        };
        let mut st = ProbingState::default();
        assert_eq!(
            s.decide(&name("img.cdn.example"), true, false, t(0), &mut st),
            EcsDecision::SendClientEcs
        );
        assert_eq!(
            s.decide(&name("cdn.example"), true, false, t(0), &mut st),
            EcsDecision::SendClientEcs
        );
        assert_eq!(
            s.decide(&name("other.example"), true, false, t(0), &mut st),
            EcsDecision::Omit
        );
    }
}

#[cfg(test)]
mod every_kth_tests {
    use super::*;

    #[test]
    fn every_kth_alternates() {
        let s = ProbingStrategy::EveryKth { k: 3 };
        let mut st = ProbingState::default();
        let n = Name::from_ascii("a.example").unwrap();
        let decisions: Vec<_> = (0..6)
            .map(|i| s.decide(&n, true, false, SimTime::from_secs(i), &mut st))
            .collect();
        assert_eq!(decisions[0], EcsDecision::SendClientEcs);
        assert_eq!(decisions[1], EcsDecision::Omit);
        assert_eq!(decisions[2], EcsDecision::Omit);
        assert_eq!(decisions[3], EcsDecision::SendClientEcs);
        // k=1 always sends.
        let s = ProbingStrategy::EveryKth { k: 1 };
        let mut st = ProbingState::default();
        assert!((0..5).all(|i| {
            s.decide(&n, true, false, SimTime::from_secs(i), &mut st) == EcsDecision::SendClientEcs
        }));
    }
}
