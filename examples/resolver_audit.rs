//! An auditor's view: probe an unknown resolver and classify its ECS
//! behaviour — the paper's §6.3 methodology as a reusable tool.
//!
//! We build five resolvers with different (undisclosed to the auditor)
//! configurations, run the paired-probe methodology against each, and
//! print the classifier's verdicts.
//!
//! Run with: `cargo run --example resolver_audit`

use std::net::IpAddr;

use analysis::cache_compliance::{classify_compliance, verdict_name};
use conformance::harness::observe_compliance;
use resolver::{Resolver, ResolverConfig};

fn main() {
    let addr: IpAddr = "9.9.9.9".parse().unwrap();
    let suspects: Vec<(&str, ResolverConfig)> = vec![
        ("resolver A", ResolverConfig::rfc_compliant(addr)),
        ("resolver B", ResolverConfig::jammed_full(addr, 0x01)),
        ("resolver C", ResolverConfig::long_prefix_acceptor(addr)),
        ("resolver D", ResolverConfig::cap22(addr)),
        ("resolver E", ResolverConfig::private_leaker(addr)),
    ];

    println!("{:<12} {:<20} observations", "suspect", "verdict");
    for (label, config) in suspects {
        let mut resolver = Resolver::new(config);
        let obs = observe_compliance(&mut resolver, 300, false);
        let verdict = classify_compliance(&obs);
        println!(
            "{label:<12} {:<20} scope24-requeried={} scope16-requeried={} conveyed(/32)={:?} private={}",
            verdict_name(verdict),
            obs.second_arrived_scope24,
            obs.second_arrived_scope16,
            obs.conveyed_for_32,
            obs.sent_private_prefix,
        );
    }
    println!();
    println!("Methodology (paper §6.3): two queries that appear to come from");
    println!("different /24s in the same /16, against fresh hostnames whose");
    println!("authoritative returns scope 24, 16, and 0; plus arbitrary-prefix");
    println!("probes at /32 and /25 to expose conveyed-prefix limits.");
}
