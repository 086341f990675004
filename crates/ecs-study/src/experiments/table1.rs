//! §6.2 Table 1: ECS source prefix lengths, via the active-scan pipeline.
//!
//! We instantiate the Scan-dataset egress population with its ground-truth
//! prefix policies, "scan" each resolver through its open forwarders
//! (queries carry no ECS — the resolvers add it), and tabulate what the
//! experimental authoritative nameserver saw, exactly as Table 1 does —
//! including the jammed-last-byte detection.

use analysis::PrefixLengthTable;
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::SimTime;
use resolver::Resolver;
use topology::AddrAllocator;
use workload::{PrefixClass, ScanDatasetGen, PREFIX_TABLE};

use crate::behavior::resolver_config_for;
use crate::report::Report;

/// Open forwarders per egress resolver.
const FORWARDERS_PER_RESOLVER: usize = 3;
/// RNG seed of the population.
const SEED: u64 = 0;

/// Parameters: the one a caller sets. The rest are the constants above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's counts.
    pub scale: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: 4 }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tabulated Table 1.
    pub table: PrefixLengthTable,
}

/// Encodes a forwarder address into the scan hostname, as the paper's scan
/// does (so the authoritative can associate ingress with egress).
pub fn scan_hostname(apex: &Name, fwd: std::net::IpAddr) -> Name {
    let label = format!("x{}", fwd.to_string().replace(['.', ':'], "-"));
    apex.child(&label).expect("valid label")
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let population = ScanDatasetGen::scaled(config.scale, SEED).generate();
    let apex = Name::from_ascii("probe.example").expect("valid");
    // The paper's experimental nameserver answers ECS queries with scope
    // L = S − 4.
    let mut auth = AuthServer::new(
        Zone::new(apex.clone()),
        EcsHandling::open(ScopePolicy::SourceMinusK(4)),
    );

    let mut alloc = AddrAllocator::new();
    for spec in &population {
        let mut resolver = Resolver::new(resolver_config_for(spec, &[]));
        let v6 = matches!(
            spec.prefix,
            PrefixClass::V6Slash56 | PrefixClass::V6Slash48 | PrefixClass::V6Slash128
        );
        for _ in 0..FORWARDERS_PER_RESOLVER {
            let fwd = if v6 {
                AddrAllocator::host_in(&alloc.alloc_v6_block(), 1)
            } else {
                AddrAllocator::host_in(&alloc.alloc_v4_block(), 1)
            };
            let hostname = scan_hostname(&apex, fwd);
            auth.zone_mut()
                .add_a(
                    hostname.clone(),
                    60,
                    std::net::Ipv4Addr::new(198, 51, 100, 1),
                )
                .expect("in zone");
            // The scan probe: a plain A query (no ECS) from the forwarder.
            let q = Message::query(1, Question::a(hostname));
            resolver.resolve_msg(&q, fwd, SimTime::ZERO, &mut auth);
        }
    }

    let table = PrefixLengthTable::build(auth.log());
    let mut report = Report::new("table1", "§6.2 Table 1: source prefix lengths");
    // The IPv6 /48 row is planted and tested but not reported.
    for &(class, paper, label) in PREFIX_TABLE
        .iter()
        .filter(|r| r.0 != PrefixClass::V6Slash48)
    {
        let planted = population.iter().filter(|r| r.prefix == class).count();
        let found = table.count(class);
        report.row(
            label,
            format!("{paper} (scaled: {planted})"),
            found,
            found == planted,
        );
    }
    // The paper's headline: almost half of non-Google v4 resolvers do not
    // truncate at all (the jammed /32s); overall most follow /24.
    let compliant = table.profiles.iter().filter(|p| p.rfc_compliant()).count();
    report.row(
        "majority follows RFC /24",
        "vast majority (Google-dominated)",
        format!("{compliant}/{} compliant", table.resolver_count()),
        compliant * 2 > table.resolver_count(),
    );

    let mut detail = String::from("Table 1 rows (label → resolvers):\n");
    for (label, count) in &table.rows {
        detail.push_str(&format!("  {label:<28} {count}\n"));
    }
    report.detail = detail;
    (Outcome { table }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_recovers_planted_prefix_classes() {
        let config = Config { scale: 20 };
        let (out, report) = run(&config);
        assert!(report.all_hold(), "{report}");
        assert!(out.table.resolver_count() > 0);
        // Every planted class is detected exactly, the unreported /48 too.
        let population = ScanDatasetGen::scaled(config.scale, SEED).generate();
        for &(class, ..) in PREFIX_TABLE {
            let planted = population.iter().filter(|r| r.prefix == class).count();
            assert_eq!(out.table.count(class), planted, "{class:?}");
        }
    }

    #[test]
    fn scan_hostname_encodes_address() {
        let apex = Name::from_ascii("probe.example").unwrap();
        let n = scan_hostname(&apex, "100.70.1.9".parse().unwrap());
        assert_eq!(n.to_string(), "x100-70-1-9.probe.example.");
    }
}
