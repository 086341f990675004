//! Extension experiment (§8.3 discussion / §9 future work): per-zone
//! adaptive source prefix lengths.
//!
//! The paper observes that blindly sending /24 everywhere leaks more client
//! bits than some CDNs need (CDN-2 maps at /21), while tracking the needed
//! length per CDN "can get complicated very quickly". This experiment
//! implements that tracking ([`resolver::ResolverConfig::adaptive_prefix`])
//! and quantifies the trade: bits leaked per query and mapping quality,
//! with adaptation on and off, against both CDN models.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::MappingQuality;
use dns_wire::{Message, Question};
use netsim::geo::CITIES;
use netsim::{LatencyModel, SimTime};
use resolver::{Resolver, ResolverConfig};

use crate::experiments::fig67::{sample, testbed, CdnModel};
use crate::experiments::table2::world_footprint;
use crate::report::Report;

/// Queries per probe (adaptation needs repeat traffic).
const QUERIES_PER_PROBE: usize = 3;

/// Parameters: the ones a caller sets. The rest is the constant above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Probes (client subnets) per CDN.
    pub probes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            probes: 300,
            seed: 0,
        }
    }
}

/// Per-condition outcome.
#[derive(Debug, Clone)]
pub struct Condition {
    /// Mean source prefix bits conveyed per query.
    pub mean_bits_leaked: f64,
    /// Mapping quality over all answers.
    pub quality: MappingQuality,
}

/// Outcome: (cdn, adaptive?) → condition.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Keyed by (cdn label, adaptive flag).
    pub conditions: BTreeMap<(String, bool), Condition>,
}

fn run_condition(cdn_model: CdnModel, adaptive: bool, config: &Config) -> Condition {
    let footprint = world_footprint();
    let latency = LatencyModel::default();
    let resolver_addr: IpAddr = "9.9.9.9".parse().expect("valid");
    let anchor = (resolver_addr, CITIES[0].pos);
    let (probes, mut server, qname) = testbed(cdn_model, config.probes, config.seed, 41, anchor);

    let mut resolver = Resolver::new(ResolverConfig {
        adaptive_prefix: adaptive,
        ..ResolverConfig::rfc_compliant(resolver_addr)
    });

    let mut bits = 0u64;
    let mut queries = 0u64;
    let mut samples = Vec::new();
    for round in 0..QUERIES_PER_PROBE {
        for (i, (addr, pos)) in probes.iter().enumerate() {
            // Fresh client per query within the probe's /24.
            let client = IpAddr::V4(Ipv4Addr::new(
                addr.octets()[0],
                addr.octets()[1],
                addr.octets()[2],
                (i % 200) as u8 + 1,
            ));
            let q = Message::query(1, Question::a(qname.clone()));
            // Space queries past the 20 s CDN TTL so every one goes
            // upstream and conveys a prefix.
            let at = SimTime::from_secs((round * config.probes + i) as u64 * 30);
            let resp = resolver.resolve_msg(&q, client, at, &mut server);
            samples.push(sample(&footprint, *pos, resp.answer_addrs()[0]));
        }
    }
    for e in server.log() {
        if let Some(ecs) = &e.ecs {
            bits += ecs.source_prefix_len() as u64;
            queries += 1;
        }
    }
    Condition {
        mean_bits_leaked: bits as f64 / queries.max(1) as f64,
        quality: MappingQuality::from_samples(&samples, &latency),
    }
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let mut conditions = BTreeMap::new();
    for (label, model) in [("CDN-1", CdnModel::Cdn1), ("CDN-2", CdnModel::Cdn2)] {
        for adaptive in [false, true] {
            conditions.insert(
                (label.to_string(), adaptive),
                run_condition(model, adaptive, config),
            );
        }
    }

    let mut report = Report::new(
        "adaptive",
        "per-zone adaptive prefix lengths (§9 extension)",
    );
    let c1_off = &conditions[&("CDN-1".to_string(), false)];
    let c1_on = &conditions[&("CDN-1".to_string(), true)];
    let c2_off = &conditions[&("CDN-2".to_string(), false)];
    let c2_on = &conditions[&("CDN-2".to_string(), true)];

    report.row(
        "CDN-2: bits leaked per query (static /24)",
        "24 (RFC blanket policy)",
        format!("{:.2}", c2_off.mean_bits_leaked),
        (c2_off.mean_bits_leaked - 24.0).abs() < 0.01,
    );
    report.row(
        "CDN-2: bits leaked per query (adaptive)",
        "21 would suffice (§8.3)",
        format!("{:.2}", c2_on.mean_bits_leaked),
        c2_on.mean_bits_leaked < 22.0,
    );
    report.row(
        "CDN-2: adaptation keeps mapping quality",
        "no penalty at /21",
        format!(
            "median {:.0} ms vs {:.0} ms",
            c2_on.quality.median_ms, c2_off.quality.median_ms
        ),
        c2_on.quality.median_ms <= c2_off.quality.median_ms * 1.2,
    );
    report.row(
        "CDN-1: adaptation cannot shrink below /24",
        "CDN-1 needs /24",
        format!("{:.2} bits leaked", c1_on.mean_bits_leaked),
        (c1_on.mean_bits_leaked - c1_off.mean_bits_leaked).abs() < 0.5,
    );
    report.row(
        "CDN-1: quality unchanged",
        "flat",
        format!(
            "median {:.0} ms vs {:.0} ms",
            c1_on.quality.median_ms, c1_off.quality.median_ms
        ),
        (c1_on.quality.median_ms - c1_off.quality.median_ms).abs()
            < c1_off.quality.median_ms * 0.2 + 1.0,
    );
    (Outcome { conditions }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_saves_bits_on_cdn2_without_quality_loss() {
        let (out, report) = run(&Config {
            probes: 120,
            seed: 1,
        });
        let off = &out.conditions[&("CDN-2".to_string(), false)];
        let on = &out.conditions[&("CDN-2".to_string(), true)];
        assert!(on.mean_bits_leaked < off.mean_bits_leaked - 1.0, "{report}");
        assert!(
            on.quality.median_ms <= off.quality.median_ms * 1.2,
            "{report}"
        );
        // CDN-1: no shrink possible.
        let c1_on = &out.conditions[&("CDN-1".to_string(), true)];
        assert!((c1_on.mean_bits_leaked - 24.0).abs() < 0.5, "{report}");
    }
}
