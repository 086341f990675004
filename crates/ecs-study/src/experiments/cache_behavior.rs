//! §6.3: cache-compliance classification via the paired-probe methodology.
//!
//! For each resolver in a population planted with the paper's §6.3 class
//! counts (76 correct / 103 scope-ignoring / 15 long-prefix / 8 /22-capped
//! / 1 private-leaking, scaled), we run the paper's experiment —
//! [`conformance::harness::observe_compliance`], the one paired probe the
//! conformance matrix also runs: pairs of queries from different /24s in
//! the same /16 (and the same /22, which is what exposes the /22 cap as
//! scope-ignoring-like), against fresh hostnames whose authoritative
//! returns scope 24, 16, and 0; plus arbitrary-prefix probes at /32 and
//! /25. The observations feed the classifier and the recovered counts are
//! compared to the planted ones.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::{classify_compliance, ComplianceVerdict};
use conformance::harness::observe_compliance;
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
                // AcceptsLong and Cap22 override this in the compliance mapping.
                prefix: PrefixClass::Slash24,
                compliance: class,
                dominant_as: false,
                whitelisted: false,
            });
            i += 1;
        }
    }
    out
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

    for spec in &pop {
        *planted.entry(spec.compliance).or_default() += 1;
        let mut resolver = Resolver::new(resolver_config_for(spec, &[]));
        let verdict = classify_compliance(&observe_compliance(&mut resolver, 300, false));
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
