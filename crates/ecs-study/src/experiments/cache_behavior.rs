//! §6.3: cache-compliance classification via the paired-probe methodology.
//!
//! For each resolver in a population planted with the paper's §6.3 class
//! counts (76 correct / 103 scope-ignoring / 15 long-prefix / 8 /22-capped
//! / 1 private-leaking, scaled), we run the paper's experiment: pairs of
//! queries appearing to come from different /24s in the same /16 (and the
//! same /22, which is what exposes the /22 cap as scope-ignoring-like),
//! against fresh hostnames whose authoritative returns scope 24, 16, and
//! 0; plus arbitrary-prefix probes at /32 and /25. The observations feed
//! the classifier and the recovered counts are compared to the planted
//! ones.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::{classify_compliance, ComplianceObservation, ComplianceVerdict};
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, Name, Question};
use netsim::SimTime;
use resolver::Resolver;
use workload::{ComplianceClass, PrefixClass, ProbingClass, ResolverSpec};

use crate::behavior::resolver_config_for;
use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's §6.3 counts.
    pub scale: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: 1 }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Verdict counts.
    pub counts: HashMap<ComplianceVerdict, usize>,
    /// Planted counts.
    pub planted: HashMap<ComplianceClass, usize>,
    /// Classification accuracy.
    pub accuracy: f64,
}

/// Builds the §6.3 population (compliance classes with paper counts).
fn population(scale: usize) -> Vec<ResolverSpec> {
    let rows = [
        (ComplianceClass::Correct, 76usize),
        (ComplianceClass::IgnoresScope, 103),
        (ComplianceClass::AcceptsLong, 15),
        (ComplianceClass::Cap22, 8),
        (ComplianceClass::PrivateLeak, 1),
    ];
    let mut out = Vec::new();
    let mut i = 0u32;
    for (class, n) in rows {
        for _ in 0..n.div_ceil(scale) {
            out.push(ResolverSpec {
                addr: IpAddr::V4(Ipv4Addr::from(0x0900_0000 + i)),
                probing: ProbingClass::Always,
                prefix: match class {
                    ComplianceClass::AcceptsLong | ComplianceClass::Cap22 => {
                        PrefixClass::Slash24 // overridden by compliance mapping
                    }
                    _ => PrefixClass::Slash24,
                },
                compliance: class,
                dominant_as: false,
                whitelisted: false,
            });
            i += 1;
        }
    }
    out
}

/// Runs the paired-probe methodology against one resolver and returns the
/// raw observations. `pair_base` is a /22-aligned base address; the two
/// simulated forwarders live in its first and second /24.
pub fn probe_resolver(
    resolver: &mut Resolver,
    pair_base: u32,
    trial_tag: &str,
) -> ComplianceObservation {
    let fwd_a = IpAddr::V4(Ipv4Addr::from(pair_base + 1));
    let fwd_b = IpAddr::V4(Ipv4Addr::from(pair_base + 256 + 1));
    let ecs_a = EcsOption::from_v4(Ipv4Addr::from(pair_base), 24);
    let ecs_b = EcsOption::from_v4(Ipv4Addr::from(pair_base + 256), 24);

    let apex = Name::from_ascii("trial.example").expect("valid");
    let mut second_arrived = [false; 3];
    for (i, scope) in [24u8, 16, 0].into_iter().enumerate() {
        let mut zone = Zone::new(apex.clone());
        let hostname = apex.child(&format!("s{scope}-{trial_tag}")).expect("valid");
        zone.add_a(hostname.clone(), 300, Ipv4Addr::new(198, 51, 100, 1))
            .expect("in zone");
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::Fixed(scope)));

        let mut q1 = Message::query(1, Question::a(hostname.clone()));
        q1.set_ecs(ecs_a);
        resolver.resolve_msg(&q1, fwd_a, SimTime::from_secs(0), &mut auth);
        let mut q2 = Message::query(2, Question::a(hostname));
        q2.set_ecs(ecs_b);
        resolver.resolve_msg(&q2, fwd_b, SimTime::from_secs(5), &mut auth);
        second_arrived[i] = auth.log().len() == 2;
    }

    // Arbitrary-prefix probes: /32 and /25.
    let mut conveyed_for_32 = None;
    let mut conveyed_for_25 = None;
    let mut echoed_long_prefix = false;
    let mut sent_private_prefix = false;
    {
        let mut zone = Zone::new(apex.clone());
        let h32 = apex.child(&format!("p32-{trial_tag}")).expect("valid");
        let h25 = apex.child(&format!("p25-{trial_tag}")).expect("valid");
        zone.add_a(h32.clone(), 300, Ipv4Addr::new(198, 51, 100, 2))
            .expect("in zone");
        zone.add_a(h25.clone(), 300, Ipv4Addr::new(198, 51, 100, 3))
            .expect("in zone");
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let supplied_32 = Ipv4Addr::from(pair_base + 77);
        let mut q = Message::query(3, Question::a(h32));
        q.set_ecs(EcsOption::from_v4(supplied_32, 32));
        resolver.resolve_msg(&q, fwd_a, SimTime::from_secs(100), &mut auth);
        let mut q = Message::query(4, Question::a(h25));
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::from(pair_base + 128), 25));
        resolver.resolve_msg(&q, fwd_a, SimTime::from_secs(101), &mut auth);
        for e in auth.log() {
            if let Some(ecs) = &e.ecs {
                if ecs.is_non_routable() {
                    sent_private_prefix = true;
                }
                if e.qname.to_string().starts_with("p32") {
                    conveyed_for_32 = Some(ecs.source_prefix_len());
                    // A /32 that carries OUR address (not a self-derived or
                    // jammed one) means the resolver forwards client
                    // prefixes verbatim.
                    echoed_long_prefix = ecs.source_prefix_len() > 24
                        && ecs.source_prefix().contains(supplied_32.into());
                } else if e.qname.to_string().starts_with("p25") {
                    conveyed_for_25 = Some(ecs.source_prefix_len());
                }
            }
        }
    }

    ComplianceObservation {
        second_arrived_scope24: second_arrived[0],
        second_arrived_scope16: second_arrived[1],
        second_arrived_scope0: second_arrived[2],
        conveyed_for_32,
        conveyed_for_25,
        echoed_long_prefix,
        sent_private_prefix,
    }
}

fn matches_class(class: ComplianceClass, verdict: ComplianceVerdict) -> bool {
    matches!(
        (class, verdict),
        (ComplianceClass::Correct, ComplianceVerdict::Correct)
            | (
                ComplianceClass::IgnoresScope,
                ComplianceVerdict::IgnoresScope
            )
            | (ComplianceClass::AcceptsLong, ComplianceVerdict::AcceptsLong)
            | (ComplianceClass::Cap22, ComplianceVerdict::Cap22)
            | (
                ComplianceClass::PrivateLeak,
                ComplianceVerdict::PrivateMisconfig
            )
    )
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let pop = population(config.scale);
    let mut counts: HashMap<ComplianceVerdict, usize> = HashMap::new();
    let mut planted: HashMap<ComplianceClass, usize> = HashMap::new();
    let mut correct = 0usize;

    for (i, spec) in pop.iter().enumerate() {
        *planted.entry(spec.compliance).or_default() += 1;
        let mut resolver = Resolver::new(resolver_config_for(spec, &[]));
        // /22-aligned probe base, disjoint per resolver.
        let pair_base = 0x1400_0000u32 + (i as u32) * 0x400;
        let obs = probe_resolver(&mut resolver, pair_base, &format!("r{i}"));
        let verdict = classify_compliance(&obs);
        *counts.entry(verdict).or_default() += 1;
        if matches_class(spec.compliance, verdict) {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / pop.len() as f64;

    let mut report = Report::new("cache-behavior", "§6.3 cache-compliance classes");
    for (label, paper, class, verdict) in [
        (
            "correct",
            76usize,
            ComplianceClass::Correct,
            ComplianceVerdict::Correct,
        ),
        (
            "ignore scope",
            103,
            ComplianceClass::IgnoresScope,
            ComplianceVerdict::IgnoresScope,
        ),
        (
            "accept >24-bit prefixes",
            15,
            ComplianceClass::AcceptsLong,
            ComplianceVerdict::AcceptsLong,
        ),
        (
            "/22 cap",
            8,
            ComplianceClass::Cap22,
            ComplianceVerdict::Cap22,
        ),
        (
            "private-prefix misconfig",
            1,
            ComplianceClass::PrivateLeak,
            ComplianceVerdict::PrivateMisconfig,
        ),
    ] {
        let p = planted.get(&class).copied().unwrap_or(0);
        let m = counts.get(&verdict).copied().unwrap_or(0);
        report.row(
            format!("{label} resolvers"),
            format!("{paper} (scaled: {p})"),
            m,
            m == p,
        );
    }
    report.row(
        "classification accuracy",
        "n/a (closed loop)",
        format!("{:.1}%", accuracy * 100.0),
        accuracy >= 0.99,
    );
    (
        Outcome {
            counts,
            planted,
            accuracy,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_recovered_exactly() {
        let (out, report) = run(&Config { scale: 1 });
        assert!(out.accuracy >= 0.99, "{report}");
        assert!(report.all_hold(), "{report}");
        assert_eq!(out.counts[&ComplianceVerdict::Correct], 76);
        assert_eq!(out.counts[&ComplianceVerdict::IgnoresScope], 103);
        assert_eq!(out.counts[&ComplianceVerdict::AcceptsLong], 15);
        assert_eq!(out.counts[&ComplianceVerdict::Cap22], 8);
        assert_eq!(out.counts[&ComplianceVerdict::PrivateMisconfig], 1);
    }
}
