//! The authoritative server: query handling, ECS gating, logging.

use std::collections::HashSet;
use std::net::IpAddr;

use dns_wire::{EcsOption, Message, Name, Rcode, Rdata, Record, RecordType};
use netsim::SimTime;

use crate::cdn::CdnBehavior;
use crate::geodb::GeoDb;
use crate::zone::Zone;

/// How the server computes the scope prefix length it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopePolicy {
    /// Always the same scope (clamped to the source prefix length per
    /// RFC 7871 §7.2.1 for cacheability).
    Fixed(u8),
    /// `max(source − k, 0)` — the paper's experimental nameserver used
    /// `k = 4`.
    SourceMinusK(u8),
    /// Echo the source prefix length.
    MatchSource,
    /// Always zero (answer valid for all clients).
    Zero,
    /// Deliberately non-compliant: scope GREATER than source by `k` — used
    /// to test resolver handling of the RFC 7871 stipulation that scope in
    /// a cached answer must not exceed source.
    SourcePlusK(u8),
}

impl ScopePolicy {
    /// Computes the advertised scope for a source prefix length.
    pub fn scope_for(&self, source: u8, family_max: u8) -> u8 {
        match self {
            ScopePolicy::Fixed(s) => (*s).min(family_max),
            ScopePolicy::SourceMinusK(k) => source.saturating_sub(*k),
            ScopePolicy::MatchSource => source,
            ScopePolicy::Zero => 0,
            ScopePolicy::SourcePlusK(k) => (source + k).min(family_max),
        }
    }
}

/// ECS stance of the server.
#[derive(Debug, Clone)]
pub struct EcsHandling {
    /// Whether the server understands ECS at all. When false, incoming ECS
    /// options are ignored and responses never carry one (the stance the
    /// major CDN presents to non-whitelisted resolvers).
    pub enabled: bool,
    /// When set, only these resolver addresses receive ECS treatment;
    /// everyone else is handled as if `enabled` were false. Models the
    /// major CDN's whitelisting.
    pub whitelist: Option<HashSet<IpAddr>>,
    /// Scope policy for non-CDN answers (CDN answers derive scope from the
    /// edge-selection path).
    pub scope_policy: ScopePolicy,
}

impl EcsHandling {
    /// ECS for everybody with a given scope policy.
    pub fn open(scope_policy: ScopePolicy) -> Self {
        EcsHandling {
            enabled: true,
            whitelist: None,
            scope_policy,
        }
    }

    /// ECS only for whitelisted resolvers.
    pub fn whitelisted(scope_policy: ScopePolicy, resolvers: HashSet<IpAddr>) -> Self {
        EcsHandling {
            enabled: true,
            whitelist: Some(resolvers),
            scope_policy,
        }
    }

    /// No ECS support at all.
    pub fn disabled() -> Self {
        EcsHandling {
            enabled: false,
            whitelist: None,
            scope_policy: ScopePolicy::Zero,
        }
    }

    /// Whether a given resolver gets ECS treatment.
    pub fn admits(&self, resolver: IpAddr) -> bool {
        self.enabled
            && self
                .whitelist
                .as_ref()
                .map(|w| w.contains(&resolver))
                .unwrap_or(true)
    }
}

/// One logged query/response pair — the unit of all passive analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLogEntry {
    /// Arrival time.
    pub at: SimTime,
    /// Query source (the egress resolver).
    pub resolver: IpAddr,
    /// Question name.
    pub qname: Name,
    /// Question type.
    pub qtype: RecordType,
    /// ECS option as received (before any gating).
    pub ecs: Option<EcsOption>,
    /// Scope returned, when the response carried an ECS option.
    pub response_scope: Option<u8>,
    /// Answer addresses returned.
    pub answers: Vec<IpAddr>,
}

/// An authoritative nameserver.
#[derive(Debug)]
pub struct AuthServer {
    zone: Zone,
    ecs: EcsHandling,
    cdn: Option<CdnBehavior>,
    geodb: GeoDb,
    /// When false the server predates EDNS0 entirely and answers any query
    /// containing an OPT record with FORMERR (RFC 6891 §7) — the buggy-
    /// server failure mode ECS probing guards against.
    edns_supported: bool,
    log: Vec<QueryLogEntry>,
    logging: bool,
}

impl AuthServer {
    /// Creates a server for a zone.
    pub fn new(zone: Zone, ecs: EcsHandling) -> Self {
        AuthServer {
            zone,
            ecs,
            cdn: None,
            geodb: GeoDb::new(),
            edns_supported: true,
            log: Vec::new(),
            logging: true,
        }
    }

    /// Attaches CDN behaviour: A/AAAA queries under the zone apex are
    /// answered with edge selection instead of static records.
    pub fn with_cdn(mut self, cdn: CdnBehavior, geodb: GeoDb) -> Self {
        self.cdn = Some(cdn);
        self.geodb = geodb;
        self
    }

    /// Makes the server pre-EDNS (FORMERR on any OPT).
    pub fn without_edns(mut self) -> Self {
        self.edns_supported = false;
        self
    }

    /// Disables query logging (for long benchmark runs).
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// The query log.
    pub fn log(&self) -> &[QueryLogEntry] {
        &self.log
    }

    /// Drains the query log.
    pub fn take_log(&mut self) -> Vec<QueryLogEntry> {
        std::mem::take(&mut self.log)
    }

    /// The zone served.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// Mutable zone access (experiments add records on the fly).
    pub fn zone_mut(&mut self) -> &mut Zone {
        &mut self.zone
    }

    /// Handles one query, producing the response message.
    pub fn handle(&mut self, query: &Message, src: IpAddr, now: SimTime) -> Message {
        let question = match query.question() {
            Some(q) => q.clone(),
            None => {
                let mut resp = Message::response_to(query);
                resp.rcode = Rcode::FormErr;
                return resp;
            }
        };

        // Pre-EDNS servers reject any OPT outright.
        if !self.edns_supported && query.edns.is_some() {
            let mut resp = Message::response_to(query);
            resp.rcode = Rcode::FormErr;
            if self.logging {
                self.log.push(QueryLogEntry {
                    at: now,
                    resolver: src,
                    qname: question.name.clone(),
                    qtype: question.qtype,
                    ecs: query.ecs().copied(),
                    response_scope: None,
                    answers: Vec::new(),
                });
            }
            return resp;
        }

        let mut resp = Message::response_to(query);
        resp.flags.aa = true;
        if query.edns.is_some() {
            resp.set_edns(4096);
        }

        let admits_ecs = self.ecs.admits(src);
        let effective_ecs = if admits_ecs {
            query.ecs().copied()
        } else {
            None
        };

        let mut response_scope = None;
        let mut answer_addrs = Vec::new();

        let in_zone = question.name.is_subdomain_of(self.zone.apex());
        if !in_zone {
            resp.rcode = Rcode::Refused;
        } else if question.qtype.is_address() && self.cdn.is_some() {
            let cdn = self.cdn.as_ref().expect("checked");
            let (addrs, scope) = cdn.select(effective_ecs.as_ref(), src, &self.geodb);
            let want_v4 = question.qtype == RecordType::A;
            for a in addrs {
                match (want_v4, a) {
                    (true, IpAddr::V4(v4)) => {
                        resp.answers.push(Record::new(
                            question.name.clone(),
                            cdn.edge_ttl,
                            Rdata::A(v4),
                        ));
                        answer_addrs.push(a);
                    }
                    (false, IpAddr::V6(v6)) => {
                        resp.answers.push(Record::new(
                            question.name.clone(),
                            cdn.edge_ttl,
                            Rdata::Aaaa(v6),
                        ));
                        answer_addrs.push(a);
                    }
                    // CDN footprints in this study are single-family; a
                    // v6 query against a v4-only footprint gets NODATA.
                    _ => {}
                }
            }
            // Only signal ECS usage when the query carried ECS and the
            // resolver is admitted.
            if let (Some(opt), Some(s)) = (effective_ecs.as_ref(), scope) {
                response_scope = Some(s);
                resp.set_ecs(opt.with_scope(s));
            }
        } else {
            // Static zone answer.
            let records = self.zone.lookup(&question.name, question.qtype);
            if records.is_empty() && !self.zone.name_exists(&question.name) {
                resp.rcode = Rcode::NxDomain;
            }
            for r in &records {
                if let Rdata::A(a) = &r.rdata {
                    answer_addrs.push(IpAddr::V4(*a));
                }
                if let Rdata::Aaaa(a) = &r.rdata {
                    answer_addrs.push(IpAddr::V6(*a));
                }
            }
            resp.answers = records;
            if let Some(opt) = effective_ecs.as_ref() {
                // RFC 7871 recommends zero scope for queries that are not
                // tailored (e.g. NS); address queries get the policy scope.
                let scope = if question.qtype.is_address() {
                    self.ecs
                        .scope_policy
                        .scope_for(opt.source_prefix_len(), opt.family().max_prefix_len())
                } else {
                    0
                };
                response_scope = Some(scope);
                resp.set_ecs(opt.with_scope(scope));
            }
        }

        if self.logging {
            self.log.push(QueryLogEntry {
                at: now,
                resolver: src,
                qname: question.name,
                qtype: question.qtype,
                ecs: query.ecs().copied(),
                response_scope,
                answers: answer_addrs,
            });
        }
        self.truncate_if_needed(query, resp)
    }

    /// Handles one query that arrived over a stream transport. Stream
    /// responses are never truncated (RFC 7766): when the handler
    /// truncated against the advertised UDP buffer, the query is handled
    /// again with the maximum advertisement.
    pub fn handle_stream(&mut self, query: &Message, src: IpAddr, now: SimTime) -> Message {
        let resp = self.handle(query, src, now);
        if !resp.flags.tc {
            return resp;
        }
        let mut big = query.clone();
        big.set_edns(u16::MAX);
        self.handle(&big, src, now)
    }

    /// RFC 1035 §4.2.1 / RFC 6891 §6.2.5: when a response exceeds the
    /// requestor's advertised UDP payload size (512 bytes without EDNS),
    /// the answer sections are emptied and TC is set so the client retries
    /// over TCP (which the simulation models as a follow-up exchange).
    fn truncate_if_needed(&self, query: &Message, resp: Message) -> Message {
        let limit = query
            .edns
            .as_ref()
            .map(|o| o.udp_payload_size.max(512))
            .unwrap_or(512) as usize;
        match resp.to_bytes() {
            Ok(bytes) if bytes.len() <= limit => resp,
            // Over the limit (or unencodable, which only happens beyond
            // 64 KiB): strip the payload and signal truncation.
            _ => {
                let mut t = resp;
                t.answers.clear();
                t.authorities.clear();
                t.additionals.clear();
                t.flags.tc = true;
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::Question;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn scan_server() -> AuthServer {
        // The paper's experimental nameserver: open ECS, scope = source − 4.
        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)))
    }

    fn query(qname: &str, ecs: Option<EcsOption>) -> Message {
        let mut m = Message::query(7, Question::a(name(qname)));
        m.set_edns(4096);
        if let Some(e) = ecs {
            m.set_ecs(e);
        }
        m
    }

    const SRC: IpAddr = IpAddr::V4(Ipv4Addr::new(5, 6, 7, 8));

    #[test]
    fn answers_static_zone() {
        let mut s = scan_server();
        let resp = s.handle(&query("www.probe.example", None), SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        assert!(resp.ecs().is_none(), "no ECS in query, none in response");
    }

    #[test]
    fn scope_is_source_minus_4() {
        let mut s = scan_server();
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24);
        let resp = s.handle(&query("www.probe.example", Some(ecs)), SRC, SimTime::ZERO);
        let out = resp.ecs().unwrap();
        assert_eq!(out.source_prefix_len(), 24);
        assert_eq!(out.scope_prefix_len(), 20);
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let mut s = scan_server();
        let resp = s.handle(&query("nope.probe.example", None), SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn refused_outside_zone() {
        let mut s = scan_server();
        let resp = s.handle(&query("www.other.org", None), SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn whitelisting_gates_ecs() {
        let whitelisted: IpAddr = "8.8.8.8".parse().unwrap();
        let mut zone = Zone::new(name("cdn.example"));
        zone.add_a(name("www.cdn.example"), 20, Ipv4Addr::new(198, 51, 100, 1))
            .unwrap();
        let mut s = AuthServer::new(
            zone,
            EcsHandling::whitelisted(ScopePolicy::MatchSource, HashSet::from([whitelisted])),
        );
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24);
        // Non-whitelisted: ECS silently ignored, no ECS in response.
        let resp = s.handle(&query("www.cdn.example", Some(ecs)), SRC, SimTime::ZERO);
        assert!(resp.ecs().is_none());
        assert_eq!(resp.answers.len(), 1);
        // Whitelisted: ECS echoed with scope.
        let resp = s.handle(
            &query("www.cdn.example", Some(ecs)),
            whitelisted,
            SimTime::ZERO,
        );
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 24);
    }

    #[test]
    fn pre_edns_server_formerrs() {
        let mut zone = Zone::new(name("old.example"));
        zone.add_a(name("www.old.example"), 60, Ipv4Addr::new(1, 2, 3, 4))
            .unwrap();
        let mut s = AuthServer::new(zone, EcsHandling::disabled()).without_edns();
        let resp = s.handle(&query("www.old.example", None), SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::FormErr);
        assert!(resp.edns.is_none());
        // Without OPT the same server answers fine.
        let mut plain = Message::query(7, Question::a(name("www.old.example")));
        plain.edns = None;
        let resp = s.handle(&plain, SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::NoError);
    }

    #[test]
    fn ns_queries_get_zero_scope() {
        let mut zone = Zone::new(name("probe.example"));
        zone.add(Record::new(
            name("probe.example"),
            3600,
            Rdata::Ns(name("ns1.probe.example")),
        ))
        .unwrap();
        let mut s = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let mut q = Message::query(
            9,
            Question::new(
                name("probe.example"),
                RecordType::Ns,
                dns_wire::RecordClass::In,
            ),
        );
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert_eq!(resp.ecs().unwrap().scope_prefix_len(), 0);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn log_captures_queries() {
        let mut s = scan_server();
        let ecs = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24);
        s.handle(
            &query("www.probe.example", Some(ecs)),
            SRC,
            SimTime::from_secs(5),
        );
        s.handle(
            &query("www.probe.example", None),
            SRC,
            SimTime::from_secs(6),
        );
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.log()[0].ecs.unwrap().source_prefix_len(), 24);
        assert_eq!(s.log()[0].response_scope, Some(20));
        assert!(s.log()[1].ecs.is_none());
        assert_eq!(s.log()[1].response_scope, None);
        let drained = s.take_log();
        assert_eq!(drained.len(), 2);
        assert!(s.log().is_empty());
    }

    #[test]
    fn logging_can_be_disabled() {
        let mut s = scan_server();
        s.set_logging(false);
        s.handle(&query("www.probe.example", None), SRC, SimTime::ZERO);
        assert!(s.log().is_empty());
    }

    #[test]
    fn scope_policies() {
        assert_eq!(ScopePolicy::Fixed(16).scope_for(24, 32), 16);
        assert_eq!(ScopePolicy::Fixed(64).scope_for(24, 32), 32);
        assert_eq!(ScopePolicy::SourceMinusK(4).scope_for(24, 32), 20);
        assert_eq!(ScopePolicy::SourceMinusK(4).scope_for(2, 32), 0);
        assert_eq!(ScopePolicy::MatchSource.scope_for(25, 32), 25);
        assert_eq!(ScopePolicy::Zero.scope_for(24, 32), 0);
        assert_eq!(ScopePolicy::SourcePlusK(8).scope_for(24, 32), 32);
        assert_eq!(ScopePolicy::SourcePlusK(8).scope_for(16, 32), 24);
    }

    #[test]
    fn empty_question_is_formerr() {
        let mut s = scan_server();
        let mut q = Message::query(1, Question::a(name("x.probe.example")));
        q.questions.clear();
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert_eq!(resp.rcode, Rcode::FormErr);
    }
}

#[cfg(test)]
mod truncation_tests {
    use super::*;
    use dns_wire::{Question, Rdata, Record};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    const SRC: IpAddr = IpAddr::V4(Ipv4Addr::new(5, 6, 7, 8));

    fn big_zone(records: usize) -> AuthServer {
        let mut zone = Zone::new(name("big.example"));
        for i in 0..records {
            zone.add(Record::new(
                name("www.big.example"),
                60,
                Rdata::A(Ipv4Addr::new(198, 51, (i / 250) as u8, (i % 250) as u8 + 1)),
            ))
            .unwrap();
        }
        AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
    }

    #[test]
    fn small_response_not_truncated() {
        let mut s = big_zone(4);
        let mut q = Message::query(1, Question::a(name("www.big.example")));
        q.set_edns(4096);
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert!(!resp.flags.tc);
        assert_eq!(resp.answers.len(), 4);
    }

    #[test]
    fn plain_udp_limit_is_512() {
        // ~40 A records ≈ 600+ bytes: over 512 without EDNS, under 4096
        // with it.
        let mut s = big_zone(40);
        let mut q = Message::query(1, Question::a(name("www.big.example")));
        q.edns = None;
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert!(resp.flags.tc, "non-EDNS response must truncate at 512");
        assert!(resp.answers.is_empty());

        let mut q = Message::query(2, Question::a(name("www.big.example")));
        q.set_edns(4096);
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert!(!resp.flags.tc, "EDNS 4096 fits 40 records");
        assert_eq!(resp.answers.len(), 40);
    }

    #[test]
    fn tiny_advertised_payload_is_clamped_to_512() {
        let mut s = big_zone(2);
        let mut q = Message::query(1, Question::a(name("www.big.example")));
        q.set_edns(1); // absurd advertisement; RFC clamps to 512 minimum
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert!(!resp.flags.tc);
    }

    #[test]
    fn truncated_response_still_carries_edns() {
        let mut s = big_zone(400);
        let mut q = Message::query(1, Question::a(name("www.big.example")));
        q.set_edns(512);
        let resp = s.handle(&q, SRC, SimTime::ZERO);
        assert!(resp.flags.tc);
        assert!(resp.edns.is_some(), "OPT survives truncation");
        // And the truncated response itself fits the limit.
        assert!(resp.to_bytes().unwrap().len() <= 512);
    }
}
