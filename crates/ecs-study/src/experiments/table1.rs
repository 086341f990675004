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
use workload::{PrefixClass, ScanDatasetGen};

use crate::behavior::resolver_config_for;
use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's counts.
    pub scale: usize,
    /// Open forwarders per egress resolver.
    pub forwarders_per_resolver: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 4,
            forwarders_per_resolver: 3,
            seed: 0,
        }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tabulated Table 1.
    pub table: PrefixLengthTable,
    /// Ground-truth class counts.
    pub truth_counts: Vec<(PrefixClass, usize)>,
}

/// Encodes a forwarder address into the scan hostname, as the paper's scan
/// does (so the authoritative can associate ingress with egress).
pub fn scan_hostname(apex: &Name, fwd: std::net::IpAddr) -> Name {
    let label = format!("x{}", fwd.to_string().replace(['.', ':'], "-"));
    apex.child(&label).expect("valid label")
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let population = ScanDatasetGen::scaled(config.scale, config.seed).generate();
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
        for _ in 0..config.forwarders_per_resolver {
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
    let truth_counts: Vec<(PrefixClass, usize)> = [
        PrefixClass::Slash24,
        PrefixClass::Slash32Jammed,
        PrefixClass::Slash22,
        PrefixClass::Slash25,
        PrefixClass::Slash16,
        PrefixClass::V6Slash56,
        PrefixClass::V6Slash48,
        PrefixClass::V6Slash128,
    ]
    .into_iter()
    .map(|c| (c, population.iter().filter(|r| r.prefix == c).count()))
    .collect();

    let mut report = Report::new("table1", "§6.2 Table 1: source prefix lengths");
    let row_count = |label: &str| table.rows.get(label).copied().unwrap_or(0);
    let truth = |c: PrefixClass| {
        truth_counts
            .iter()
            .find(|(cc, _)| *cc == c)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    report.row(
        "/24 resolvers (scan)",
        format!("1384 (scaled: {})", truth(PrefixClass::Slash24)),
        row_count("24"),
        row_count("24") == truth(PrefixClass::Slash24),
    );
    report.row(
        "/32 jammed-last-byte resolvers",
        format!("130 (scaled: {})", truth(PrefixClass::Slash32Jammed)),
        table.jammed_count(),
        table.jammed_count() == truth(PrefixClass::Slash32Jammed),
    );
    report.row(
        "/22-capped resolvers",
        format!("8 (scaled: {})", truth(PrefixClass::Slash22)),
        row_count("22"),
        row_count("22") == truth(PrefixClass::Slash22),
    );
    report.row(
        "/25 resolvers",
        format!("1 (scaled: {})", truth(PrefixClass::Slash25)),
        row_count("25"),
        row_count("25") == truth(PrefixClass::Slash25),
    );
    report.row(
        "/16 resolvers",
        format!("3 (scaled: {})", truth(PrefixClass::Slash16)),
        row_count("16"),
        row_count("16") == truth(PrefixClass::Slash16),
    );
    let v6_56 = row_count("56 (IPv6)");
    report.row(
        "IPv6 /56 resolvers",
        format!("5 (scaled: {})", truth(PrefixClass::V6Slash56)),
        v6_56,
        v6_56 == truth(PrefixClass::V6Slash56),
    );
    let v6_128 = row_count("128 (IPv6)");
    report.row(
        "IPv6 /128 resolvers",
        format!("2 (scaled: {})", truth(PrefixClass::V6Slash128)),
        v6_128,
        v6_128 == truth(PrefixClass::V6Slash128),
    );
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
    (
        Outcome {
            table,
            truth_counts,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_recovers_planted_prefix_classes() {
        let (out, report) = run(&Config {
            scale: 20,
            ..Config::default()
        });
        assert!(report.all_hold(), "{report}");
        assert!(out.table.resolver_count() > 0);
        // Jammed resolvers detected exactly.
        let planted = out
            .truth_counts
            .iter()
            .find(|(c, _)| *c == PrefixClass::Slash32Jammed)
            .unwrap()
            .1;
        assert_eq!(out.table.jammed_count(), planted);
    }

    #[test]
    fn scan_hostname_encodes_address() {
        let apex = Name::from_ascii("probe.example").unwrap();
        let n = scan_hostname(&apex, "100.70.1.9".parse().unwrap());
        assert_eq!(n.to_string(), "x100-70-1-9.probe.example.");
    }
}
