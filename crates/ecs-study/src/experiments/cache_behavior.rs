//! §6.3: cache-compliance classification via the paired-probe methodology.
//!
//! For each resolver in a population planted with the counts of
//! [`workload::COMPLIANCE_TABLE`], scaled, we run the paper's experiment —
//! [`conformance::harness::observe_compliance`], the one paired probe the
//! conformance matrix also runs: pairs of queries from different /24s in
//! the same /16 (and the same /22, which is what exposes the /22 cap as
//! scope-ignoring-like), against fresh hostnames whose authoritative
//! returns scope 24, 16, and 0; plus arbitrary-prefix probes at /32 and
//! /25. The observations feed the classifier and the recovered counts are
//! compared to the planted ones.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::classify_compliance;
use conformance::harness::observe_compliance;
use resolver::Resolver;
use workload::{ComplianceClass, PrefixClass, ProbingClass, ResolverSpec, COMPLIANCE_TABLE};

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
    /// Verdict counts (`None`: unclassified).
    pub counts: HashMap<Option<ComplianceClass>, usize>,
    /// Classification accuracy.
    pub accuracy: f64,
}

/// Builds the §6.3 population ([`COMPLIANCE_TABLE`]'s counts, scaled).
fn population(scale: usize) -> Vec<ResolverSpec> {
    let mut out = Vec::new();
    let mut i = 0u32;
    for &(class, n, _) in COMPLIANCE_TABLE {
        for _ in 0..n.div_ceil(scale) {
            out.push(ResolverSpec {
                addr: IpAddr::V4(Ipv4Addr::from(0x0900_0000 + i)),
                probing: ProbingClass::Always,
                // AcceptsLong, Cap22 and PrivateMisconfig ignore this: their
                // resolver presets set their own prefix policy.
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

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let pop = population(config.scale);
    let mut counts: HashMap<Option<ComplianceClass>, usize> = HashMap::new();
    let mut correct = 0usize;

    for spec in &pop {
        let mut resolver = Resolver::new(resolver_config_for(spec, &[]));
        let verdict = classify_compliance(&observe_compliance(&mut resolver, 300, false));
        *counts.entry(verdict).or_default() += 1;
        if verdict == Some(spec.compliance) {
            correct += 1;
        }
    }
    let accuracy = correct as f64 / pop.len() as f64;

    let mut report = Report::new("cache-behavior", "§6.3 cache-compliance classes");
    for &(class, paper, label) in COMPLIANCE_TABLE {
        let p = pop.iter().filter(|spec| spec.compliance == class).count();
        let m = counts.get(&Some(class)).copied().unwrap_or(0);
        report.row(label, format!("{paper} (scaled: {p})"), m, m == p);
    }
    report.row(
        "classification accuracy",
        "n/a (closed loop)",
        format!("{:.1}%", accuracy * 100.0),
        accuracy >= 0.99,
    );
    (Outcome { counts, accuracy }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_recovered_exactly() {
        let (out, report) = run(&Config { scale: 1 });
        assert!(out.accuracy >= 0.99, "{report}");
        assert!(report.all_hold(), "{report}");
        for &(class, paper, _) in COMPLIANCE_TABLE {
            assert_eq!(out.counts[&Some(class)], paper, "{class:?}");
        }
    }
}
