//! The scenario DSL: scripted authoritative ECS behaviours.
//!
//! A [`Scenario`] is a table row describing how the authoritative side of a
//! conformance run behaves — which scope it advertises, whether it admits
//! ECS at all, whether it rejects ECS queries with FORMERR, whether the
//! probed name sits behind a CNAME. Building a
//! scenario yields a [`ScenarioUpstream`]: an [`resolver::Upstream`] whose
//! zone auto-materialises any in-zone name deterministically, so drivers can
//! probe unlimited fresh hostnames (the paper's methodology) without
//! pre-declaring them.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, QueryLogEntry, ScopePolicy, Zone};
use dns_wire::{MessageView, Name, Rcode};
use netsim::SimTime;
use resolver::{rcode_reply, Transport, Upstream, UpstreamError};

/// How the scripted authoritative treats ECS options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcsStance {
    /// ECS for everybody, scoped by the policy.
    Open(ScopePolicy),
    /// ECS is understood, but the subject resolver is *not* on the
    /// whitelist — it sees a non-ECS server (the major CDN's stance toward
    /// unknown resolvers, the backdrop of the §6.1 probing classes).
    NonWhitelisted,
    /// The server does not implement ECS at all; options are ignored.
    Disabled,
    /// ECS-intolerant middlebox: FORMERR on queries carrying ECS, normal
    /// answers otherwise — the behaviour RFC 7871 §7.1.3 withdrawal guards
    /// against.
    FormerrOnEcs,
}

/// One scripted authoritative behaviour, table-driven.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Short kebab-case identifier (appears in reports).
    pub name: &'static str,
    /// Zone apex the scenario serves.
    pub apex: &'static str,
    /// TTL stamped on auto-materialised records.
    pub ttl: u32,
    /// ECS stance of the server.
    pub stance: EcsStance,
    /// When set, every auto-materialised hostname resolves through a CNAME
    /// hop (`<name>` → `edge.<apex>`), the flattening-CNAME layout CDN
    /// onboarding uses (§8.4).
    pub cname: bool,
}

impl Scenario {
    /// RFC-compliant authoritative: open ECS, scope mirrors source.
    pub fn honors_scope() -> Self {
        Scenario {
            name: "honors-scope",
            apex: "conf.test",
            ttl: 300,
            stance: EcsStance::Open(ScopePolicy::MatchSource),
            cname: false,
        }
    }

    /// Always answers with a fixed /24 scope regardless of source.
    pub fn fixed_scope24() -> Self {
        Scenario {
            name: "fixed-scope-24",
            stance: EcsStance::Open(ScopePolicy::Fixed(24)),
            ..Self::honors_scope()
        }
    }

    /// Always answers with a fixed /16 scope.
    pub fn fixed_scope16() -> Self {
        Scenario {
            name: "fixed-scope-16",
            stance: EcsStance::Open(ScopePolicy::Fixed(16)),
            ..Self::honors_scope()
        }
    }

    /// Always answers scope /0 — "one answer fits all".
    pub fn always_zero() -> Self {
        Scenario {
            name: "always-scope-0",
            stance: EcsStance::Open(ScopePolicy::Zero),
            ..Self::honors_scope()
        }
    }

    /// The subject resolver is not whitelisted: the server looks non-ECS.
    pub fn non_whitelisted() -> Self {
        Scenario {
            name: "non-whitelisted",
            stance: EcsStance::NonWhitelisted,
            ..Self::honors_scope()
        }
    }

    /// ECS-oblivious server.
    pub fn no_ecs() -> Self {
        Scenario {
            name: "no-ecs",
            stance: EcsStance::Disabled,
            ..Self::honors_scope()
        }
    }

    /// FORMERR only on ECS-bearing queries.
    pub fn formerr_on_ecs() -> Self {
        Scenario {
            name: "formerr-on-ecs",
            stance: EcsStance::FormerrOnEcs,
            ..Self::honors_scope()
        }
    }

    /// The zone apex as a [`Name`].
    fn apex_name(&self) -> Name {
        Name::from_ascii(self.apex).expect("static apex is valid")
    }

    /// Materialises the scenario into a live upstream.
    pub fn build(&self) -> ScenarioUpstream {
        ScenarioUpstream::new(*self)
    }

    /// Builds a plain [`AuthServer`] for this scenario with `names`
    /// pre-registered — the form the socket-backed subject needs (the UDP
    /// server cannot auto-materialise names once it owns the zone). Only
    /// stances expressible by `AuthServer` alone are supported here;
    /// [`EcsStance::FormerrOnEcs`] needs the in-process wrapper.
    pub fn build_auth(&self, names: &[Name]) -> AuthServer {
        assert!(
            self.stance != EcsStance::FormerrOnEcs,
            "FormerrOnEcs is only expressible in-process"
        );
        let mut upstream = ScenarioUpstream::new(*self);
        for n in names {
            upstream.ensure_name(n);
        }
        upstream.auth
    }
}

/// Deterministic edge address for an auto-materialised hostname: a stable
/// function of the name's bytes, inside 198.51.0.0/16 (TEST-NET-adjacent
/// space no workload client uses).
pub fn edge_addr_for(name: &Name) -> Ipv4Addr {
    // FNV-1a over the canonical name string.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ipv4Addr::new(198, 51, (h >> 8) as u8, (h as u8).max(1))
}

/// A scripted authoritative behind the [`Upstream`] trait.
///
/// Wraps an [`AuthServer`] whose zone grows on demand: any queried in-zone
/// name gains a deterministic A record (plus a CNAME hop when the scenario
/// says so) the first time it is seen, so oracle drivers can use unlimited
/// fresh hostnames. The scripted FORMERR-on-ECS behaviour lives here, above
/// the `AuthServer`, with rejected queries captured in a side log so the
/// analysis oracles still see the complete upstream query stream.
pub struct ScenarioUpstream {
    scenario: Scenario,
    auth: AuthServer,
    apex: Name,
    /// Queries rejected with FORMERR before reaching the `AuthServer`
    /// (only the [`EcsStance::FormerrOnEcs`] stance populates this).
    rejected: Vec<QueryLogEntry>,
}

impl ScenarioUpstream {
    fn new(scenario: Scenario) -> Self {
        let apex = scenario.apex_name();
        let ecs = match scenario.stance {
            EcsStance::Open(policy) => EcsHandling::open(policy),
            // An empty whitelist admits nobody: the server understands ECS
            // but never applies it for our subject.
            EcsStance::NonWhitelisted => {
                EcsHandling::whitelisted(ScopePolicy::MatchSource, std::collections::HashSet::new())
            }
            EcsStance::Disabled => EcsHandling::disabled(),
            // FORMERR interception happens in `query`; ECS-free queries that
            // get through are answered normally (scope policy irrelevant).
            EcsStance::FormerrOnEcs => EcsHandling::disabled(),
        };
        let auth = AuthServer::new(Zone::new(apex.clone()), ecs);
        ScenarioUpstream {
            scenario,
            auth,
            apex,
            rejected: Vec::new(),
        }
    }

    /// The scenario this upstream was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Registers `name` in the zone if it is in-zone and unknown:
    /// a deterministic A record, behind a CNAME hop when the scenario
    /// flattens.
    fn ensure_name(&mut self, name: &Name) {
        if !name.is_subdomain_of(&self.apex) || self.auth.zone().name_exists(name) {
            return;
        }
        let ttl = self.scenario.ttl;
        let addr = edge_addr_for(name);
        if self.scenario.cname {
            let target = Name::from_ascii(&format!("edge.{}", self.scenario.apex))
                .expect("static target is valid");
            self.auth
                .zone_mut()
                .add_cname(name.clone(), ttl, target.clone())
                .expect("fresh name cannot conflict");
            if !self.auth.zone().name_exists(&target) {
                self.auth
                    .zone_mut()
                    .add_a(target, ttl, addr)
                    .expect("edge target is in-zone");
            }
        } else {
            self.auth
                .zone_mut()
                .add_a(name.clone(), ttl, addr)
                .expect("fresh name cannot conflict");
        }
    }

    /// The full captured upstream stream: queries the `AuthServer` logged
    /// plus any FORMERR-rejected ECS queries, in arrival order.
    pub fn captured_log(&self) -> Vec<QueryLogEntry> {
        // Rejected entries first: a FORMERR'd ECS query precedes its
        // same-instant plain retry, and the sort is stable.
        let mut log: Vec<QueryLogEntry> = self
            .rejected
            .iter()
            .chain(self.auth.log().iter())
            .cloned()
            .collect();
        log.sort_by_key(|e| e.at);
        log
    }

    /// Direct access to the wrapped server (zone edits, log drains).
    pub fn auth_mut(&mut self) -> &mut AuthServer {
        &mut self.auth
    }
}

impl Upstream for ScenarioUpstream {
    /// Answers each transport at its own limit (truncated over UDP only).
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        let query = MessageView::parse(q).map_err(|_| UpstreamError::Timeout)?;
        if let Some(question) = query.questions().next() {
            self.ensure_name(&question.name);
            if self.scenario.stance == EcsStance::FormerrOnEcs {
                if let Some(ecs) = query.ecs().copied() {
                    self.rejected.push(QueryLogEntry {
                        at: now,
                        resolver: from,
                        qname: question.name,
                        qtype: question.qtype,
                        ecs: Some(ecs),
                        response_scope: None,
                        answers: Vec::new(),
                    });
                    return rcode_reply(&query, Rcode::FormErr);
                }
            }
        }
        self.auth.query_via(q, from, now, transport)
    }
}

/// Convenience for drivers: a scenario-scoped hostname.
pub fn host(label: &str, scenario: &Scenario) -> Name {
    Name::from_ascii(&format!("{label}.{}", scenario.apex)).expect("label is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{EcsOption, Message};

    const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

    fn a_query(id: u16, qname: &Name) -> Message {
        Message::query(id, dns_wire::Question::a(qname.clone()))
    }

    fn ecs_query(id: u16, qname: &Name) -> Message {
        let mut q = a_query(id, qname);
        q.set_edns(4096);
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(100, 70, 1, 0), 24));
        q
    }

    /// An answer that outgrows the query's UDP advertisement is truncated
    /// over UDP and whole over TCP.
    #[test]
    fn each_transport_is_answered_at_its_own_limit() {
        let s = Scenario::honors_scope();
        let mut up = s.build();
        let n = host("wide", &s);
        for i in 1..=40 {
            up.auth_mut()
                .zone_mut()
                .add_a(n.clone(), s.ttl, Ipv4Addr::new(198, 51, 100, i))
                .unwrap();
        }
        let mut q = a_query(1, &n);
        q.set_edns(512);
        let q = q.to_bytes().unwrap();
        let via = |up: &mut ScenarioUpstream, transport| {
            let reply = up.query_via(&q, RES, SimTime::ZERO, transport).unwrap();
            Message::from_bytes(&reply).unwrap()
        };
        let udp = via(&mut up, Transport::Udp);
        assert!(udp.flags.tc && udp.answers.is_empty(), "{udp:?}");
        let tcp = via(&mut up, Transport::Tcp);
        assert!(!tcp.flags.tc);
        assert_eq!(tcp.answers.len(), 40);
    }

    #[test]
    fn auto_materialises_fresh_names_deterministically() {
        let s = Scenario::honors_scope();
        let mut up = s.build();
        let n = host("alpha", &s);
        let r1 = up.query(&ecs_query(1, &n), RES, SimTime::ZERO).unwrap();
        let mut up2 = s.build();
        let r2 = up2.query(&ecs_query(1, &n), RES, SimTime::ZERO).unwrap();
        assert_eq!(r1.answer_addrs(), r2.answer_addrs());
        assert_eq!(r1.answer_addrs().len(), 1);
        // Distinct names get distinct edges (with overwhelming likelihood
        // for these fixed labels).
        let m = host("beta", &s);
        let r3 = up.query(&ecs_query(2, &m), RES, SimTime::ZERO).unwrap();
        assert_ne!(r1.answer_addrs(), r3.answer_addrs());
    }

    #[test]
    fn honors_scope_echoes_source_as_scope() {
        let s = Scenario::honors_scope();
        let mut up = s.build();
        let resp = up
            .query(&ecs_query(1, &host("a", &s)), RES, SimTime::ZERO)
            .unwrap();
        let ecs = resp.ecs().unwrap();
        assert_eq!(ecs.source_prefix_len(), 24);
        assert_eq!(ecs.scope_prefix_len(), 24);
    }

    #[test]
    fn always_zero_answers_scope_zero() {
        let s = Scenario::always_zero();
        let mut up = s.build();
        let resp = up
            .query(&ecs_query(1, &host("a", &s)), RES, SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 0);
    }

    #[test]
    fn non_whitelisted_never_returns_ecs() {
        let s = Scenario::non_whitelisted();
        let mut up = s.build();
        let resp = up
            .query(&ecs_query(1, &host("a", &s)), RES, SimTime::ZERO)
            .unwrap();
        assert!(resp.ecs().is_none());
        assert_eq!(resp.answer_addrs().len(), 1);
    }

    #[test]
    fn formerr_on_ecs_rejects_then_answers_plain() {
        let s = Scenario::formerr_on_ecs();
        let mut up = s.build();
        let n = host("a", &s);
        let resp = up.query(&ecs_query(1, &n), RES, SimTime::ZERO).unwrap();
        assert_eq!(resp.rcode, Rcode::FormErr);
        assert!(resp.answers.is_empty());
        let mut plain = a_query(2, &n);
        plain.set_edns(4096);
        let resp = up.query(&plain, RES, SimTime::from_secs(1)).unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answer_addrs().len(), 1);
        // Both exchanges appear in the captured stream, rejected one first.
        let log = up.captured_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].ecs.is_some());
        assert!(log[1].ecs.is_none());
    }

    #[test]
    fn flattening_cname_serves_chain() {
        // The layout the harness's flattening cells build.
        let s = Scenario {
            cname: true,
            ..Scenario::honors_scope()
        };
        let mut up = s.build();
        let resp = up
            .query(&ecs_query(1, &host("www", &s)), RES, SimTime::ZERO)
            .unwrap();
        // CNAME + A in one answer (in-zone flattening).
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(resp.answer_addrs().len(), 1);
    }

    #[test]
    fn build_auth_preregisters_names() {
        let s = Scenario::honors_scope();
        let names = vec![host("x", &s), host("y", &s)];
        let auth = s.build_auth(&names);
        assert!(auth.zone().name_exists(&names[0]));
        assert!(auth.zone().name_exists(&names[1]));
    }

    #[test]
    fn scope_exceeds_source_is_expressible() {
        let s = Scenario {
            stance: EcsStance::Open(ScopePolicy::SourcePlusK(8)),
            ..Scenario::honors_scope()
        };
        let mut up = s.build();
        let resp = up
            .query(&ecs_query(1, &host("a", &s)), RES, SimTime::ZERO)
            .unwrap();
        let ecs = resp.ecs().unwrap();
        assert_eq!(ecs.source_prefix_len(), 24);
        assert_eq!(ecs.scope_prefix_len(), 32);
    }
}
