//! §8.3 pitfall promoted to a first-class experiment: the minimum usable
//! ECS source prefix length per CDN (the machinery behind Figures 6–7).
//!
//! Where `fig6`/`fig7` each sweep one CDN and eyeball the cliff, this
//! experiment derives the *minimum usable length* for both CDNs from the
//! same probe population — the smallest length whose median connect time
//! stays within 1.5× of the /24 baseline — and checks the paper's
//! answers: CDN-1 needs the full /24, CDN-2 works from /21 up. The
//! authoritative's query log is kept on, and the resulting prefix-length
//! table must show exactly the lengths the sweep sent.
//!
//! Scale knob: `ECS_MINPREFIX_PROBES=N` overrides the probe count.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::{ConnectTimeSample, MappingQuality, PrefixLengthTable};
use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::{city, CITIES};
use netsim::{GeoPoint, LatencyModel, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::asn::jitter_position;

use crate::experiments::fig67::CdnModel;
use crate::experiments::table2::world_footprint;
use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of probes (paper: 800).
    pub probes: usize,
    /// Source prefix lengths to sweep.
    pub lengths: Vec<u8>,
    /// Degradation tolerance: the minimum usable length is the smallest
    /// whose median connect time is ≤ `tolerance` × the /24 median.
    pub tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            probes: 800,
            lengths: (16..=24).collect(),
            tolerance: 1.5,
            seed: 0,
        }
    }
}

/// Per-CDN outcome.
#[derive(Debug, Clone)]
pub struct CdnOutcome {
    /// Which CDN.
    pub cdn: CdnModel,
    /// Length → quality summary.
    pub by_length: BTreeMap<u8, MappingQuality>,
    /// The smallest usable length under the tolerance.
    pub min_usable: u8,
    /// The prefix-length table built from the authoritative's query log.
    pub log_table: PrefixLengthTable,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// CDN-1 then CDN-2.
    pub cdns: Vec<CdnOutcome>,
}

fn sweep_cdn(
    cdn: CdnModel,
    probes: &[(Ipv4Addr, GeoPoint)],
    lengths: &[u8],
    tolerance: f64,
) -> CdnOutcome {
    let footprint = world_footprint();
    let mut geodb = GeoDb::new();
    let lab_addr: IpAddr = "129.22.150.78".parse().expect("valid");
    let lab_pos = city("Cleveland").expect("known").pos;
    geodb.insert(IpPrefix::new(lab_addr, 24).expect("<=32"), lab_pos);
    for (addr, pos) in probes {
        for len in 16..=24u8 {
            geodb.insert(IpPrefix::v4(*addr, len).expect("<=32"), *pos);
        }
    }
    let behavior = match cdn {
        CdnModel::Cdn1 => CdnBehavior::cdn1(footprint.clone()),
        CdnModel::Cdn2 => CdnBehavior::cdn2(footprint.clone()),
    };
    let apex = Name::from_ascii("cdn.example").expect("valid");
    let qname = apex.child("www").expect("valid");
    // Logging stays ON: the prefix-length table below is built from what
    // the authoritative actually saw, exactly like the paper's Table 1
    // pipeline — a cross-check that the sweep sent what it claims.
    let mut server = AuthServer::new(Zone::new(apex), EcsHandling::open(ScopePolicy::MatchSource))
        .with_cdn(behavior, geodb);

    let latency = LatencyModel::default();
    let mut by_length = BTreeMap::new();
    for &len in lengths {
        let mut samples = Vec::with_capacity(probes.len());
        for (addr, pos) in probes {
            let mut q = Message::query(1, Question::a(qname.clone()));
            q.set_ecs(EcsOption::from_v4(*addr, len));
            let resp = server.handle(&q, lab_addr, SimTime::ZERO);
            let first = resp.answer_addrs()[0];
            let edge = footprint
                .edges
                .iter()
                .find(|e| e.addr == first)
                .expect("answer from footprint");
            samples.push(ConnectTimeSample {
                probe: *pos,
                edge_addr: first,
                edge: edge.pos,
            });
        }
        by_length.insert(len, MappingQuality::from_samples(&samples, &latency));
    }

    let baseline = by_length[&24].median_ms;
    let min_usable = by_length
        .iter()
        .filter(|(_, q)| q.median_ms <= baseline * tolerance)
        .map(|(len, _)| *len)
        .min()
        .unwrap_or(24);
    CdnOutcome {
        cdn,
        by_length,
        min_usable,
        log_table: PrefixLengthTable::build(server.log()),
    }
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let mut config = config.clone();
    if let Some(probes) = crate::env_u64("ECS_MINPREFIX_PROBES") {
        config.probes = (probes as usize).max(1);
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Same probe layout as fig6/fig7: world-spread, /21-aligned blocks so
    // the geolocation database is collision-free at every swept length.
    let probes: Vec<(Ipv4Addr, GeoPoint)> = (0..config.probes)
        .map(|i| {
            let c = CITIES[rng.gen_range(0..CITIES.len())];
            let pos = jitter_position(c.pos, 300.0, &mut rng);
            let addr = Ipv4Addr::new(39, (i / 31) as u8, ((i % 31) * 8) as u8, 7);
            (addr, pos)
        })
        .collect();

    let cdns = vec![
        sweep_cdn(CdnModel::Cdn1, &probes, &config.lengths, config.tolerance),
        sweep_cdn(CdnModel::Cdn2, &probes, &config.lengths, config.tolerance),
    ];

    let mut report = Report::new("minprefix", "minimum usable ECS prefix length per CDN");
    for (outcome, (label, paper_min)) in cdns.iter().zip([("CDN-1", 24u8), ("CDN-2", 21)]) {
        report.row(
            format!("{label} minimum usable prefix length"),
            format!("/{paper_min}"),
            format!("/{}", outcome.min_usable),
            outcome.min_usable == paper_min,
        );
        let expected_rows = config.lengths.len();
        let logged_lengths: usize = outcome
            .log_table
            .rows
            .keys()
            .map(|row| row.split(',').count())
            .max()
            .unwrap_or(0);
        report.row(
            format!("{label} log covers the sweep"),
            format!("{expected_rows} lengths"),
            format!("{logged_lengths} lengths"),
            logged_lengths == expected_rows,
        );
    }
    let mut detail = String::new();
    for (outcome, label) in cdns.iter().zip(["CDN-1", "CDN-2"]) {
        detail.push_str(&format!("{label}  (min usable /{}):\n", outcome.min_usable));
        detail.push_str("  len  median(ms)  unique-answers\n");
        for (len, q) in &outcome.by_length {
            detail.push_str(&format!(
                "  /{len:<3} {:>8.0}  {}\n",
                q.median_ms, q.unique_first_answers
            ));
        }
    }
    report.detail = detail;
    (Outcome { cdns }, report)
}

/// Default-parameter entry point.
pub fn run_default() -> Report {
    run(&Config::default()).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_minimums_are_recovered() {
        let (out, report) = run(&Config {
            probes: 300,
            ..Config::default()
        });
        assert_eq!(out.cdns[0].min_usable, 24, "CDN-1\n{report}");
        assert_eq!(out.cdns[1].min_usable, 21, "CDN-2\n{report}");
        assert!(report.all_hold(), "{report}");
    }

    #[test]
    fn log_table_reflects_the_sweep() {
        let (out, _) = run(&Config {
            probes: 60,
            lengths: vec![20, 24],
            ..Config::default()
        });
        for outcome in &out.cdns {
            // One behaviour row covering both lengths, every probe query.
            let max_lengths = outcome
                .log_table
                .rows
                .keys()
                .map(|row| row.split(',').count())
                .max()
                .unwrap();
            assert_eq!(max_lengths, 2);
        }
    }
}
