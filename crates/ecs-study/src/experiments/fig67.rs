//! §8.3 Figures 6–7: mapping quality vs ECS source prefix length.
//!
//! 800 simulated RIPE-Atlas-style probes spread across the world; a lab
//! machine submits queries directly to each CDN's authoritative server
//! with ECS prefixes derived from the probes' addresses, truncated to each
//! length in the sweep. For every response we measure the probe→edge
//! connect time (one RTT). CDN-1 only uses prefixes of ≥ 24 bits (below
//! that: a small fixed edge set — 5–14 distinct answers vs 400); CDN-2
//! needs ≥ 21 bits (below that: resolver-based mapping, a single answer).
//!
//! Both CDNs sweep /16–/24, and each figure also reports the CDN's
//! minimum usable length: the smallest whose median connect time stays
//! within 1.5× of the /24 median (paper: CDN-1 /24, CDN-2 /21).

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::{ConnectTimeSample, MappingQuality};
use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::{city, CITIES};
use netsim::{GeoPoint, LatencyModel, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::asn::jitter_position;
use topology::CdnFootprint;

use crate::experiments::table2::{world_footprint, LAB};
use crate::report::Report;

/// Which CDN model to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdnModel {
    /// CDN-1: /24 minimum, coarse-set fallback.
    Cdn1,
    /// CDN-2: /21 minimum, resolver-based fallback.
    Cdn2,
}

/// Source prefix lengths swept, for both CDNs.
const LENGTHS: std::ops::RangeInclusive<u8> = 16..=24;
/// RNG seed of the probe placement.
const SEED: u64 = 0;
/// Degradation tolerance: the minimum usable length is the smallest whose
/// median connect time is at most this many times the /24 median.
const TOLERANCE: f64 = 1.5;

/// Parameters: the ones a caller sets. The rest are the constants above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which CDN.
    pub cdn: CdnModel,
    /// Number of probes (paper: 800).
    pub probes: usize,
}

impl Config {
    /// Figure 6 defaults.
    pub fn fig6() -> Self {
        Config {
            cdn: CdnModel::Cdn1,
            probes: 800,
        }
    }

    /// Figure 7 defaults.
    pub fn fig7() -> Self {
        Config {
            cdn: CdnModel::Cdn2,
            ..Config::fig6()
        }
    }
}

/// Outcome: per prefix length, the mapping quality.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Length → quality summary.
    pub by_length: BTreeMap<u8, MappingQuality>,
    /// The smallest usable length: the shortest whose median connect time
    /// stays within 1.5× of the /24 median.
    pub min_usable: u8,
}

/// A CDN-mapping testbed: `count` world-spread probes on /21-aligned
/// blocks of `net`.0.0.0/8 (no two share a prefix the CDNs use for
/// proximity, ≥ /21, so the geolocation database is collision-free); the
/// database, knowing every probe at /16–/24 (a real geo DB aggregates, but
/// the probes are /24-homogeneous so coarser entries are exact) and the
/// querying host at `anchor`; and `cdn`'s logging authoritative for the
/// returned name.
pub(crate) fn testbed(
    cdn: CdnModel,
    count: usize,
    seed: u64,
    net: u8,
    anchor: (IpAddr, GeoPoint),
) -> (Vec<(Ipv4Addr, GeoPoint)>, AuthServer, Name) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let probes: Vec<(Ipv4Addr, GeoPoint)> = (0..count)
        .map(|i| {
            let c = CITIES[rng.gen_range(0..CITIES.len())];
            let pos = jitter_position(c.pos, 300.0, &mut rng);
            let addr = Ipv4Addr::new(net, (i / 31) as u8, ((i % 31) * 8) as u8, 7);
            (addr, pos)
        })
        .collect();

    let mut geodb = GeoDb::new();
    geodb.insert(IpPrefix::new(anchor.0, 24).expect("<=32"), anchor.1);
    for (addr, pos) in &probes {
        for len in 16..=24u8 {
            geodb.insert(IpPrefix::v4(*addr, len).expect("<=32"), *pos);
        }
    }

    let behavior = match cdn {
        CdnModel::Cdn1 => CdnBehavior::cdn1(world_footprint()),
        CdnModel::Cdn2 => CdnBehavior::cdn2(world_footprint()),
    };
    let apex = Name::from_ascii("cdn.example").expect("valid");
    let qname = apex.child("www").expect("valid");
    let server = AuthServer::new(Zone::new(apex), EcsHandling::open(ScopePolicy::MatchSource))
        .with_cdn(behavior, geodb);
    (probes, server, qname)
}

/// The connect-time sample of `probe` being answered with `first`, an
/// edge of `footprint`.
pub(crate) fn sample(
    footprint: &CdnFootprint,
    probe: GeoPoint,
    first: IpAddr,
) -> ConnectTimeSample {
    let edge = footprint.edges.iter().find(|e| e.addr == first);
    ConnectTimeSample {
        probe,
        edge_addr: first,
        edge: edge.expect("answer from footprint").pos,
    }
}

/// Runs the experiment: the probe → authoritative → per-length sampling
/// loop, then the figure read off it.
pub fn run(config: &Config) -> (Outcome, Report) {
    let lab = (IpAddr::V4(LAB.0), city(LAB.1).expect("known").pos);
    let (probes, mut server, qname) = testbed(config.cdn, config.probes, SEED, 39, lab);
    server.set_logging(false);
    let footprint = world_footprint();

    let latency = LatencyModel::default();
    let mut by_length = BTreeMap::new();
    for len in LENGTHS {
        let mut samples = Vec::with_capacity(probes.len());
        for (addr, pos) in &probes {
            let mut q = Message::query(1, Question::a(qname.clone()));
            q.set_ecs(EcsOption::from_v4(*addr, len));
            let resp = server.handle(&q, lab.0, SimTime::ZERO);
            samples.push(sample(&footprint, *pos, resp.answer_addrs()[0]));
        }
        by_length.insert(len, MappingQuality::from_samples(&samples, &latency));
    }
    let min_usable = min_usable(&by_length);

    let (id, title) = match config.cdn {
        CdnModel::Cdn1 => ("fig6", "mapping quality vs prefix length (CDN-1)"),
        CdnModel::Cdn2 => ("fig7", "mapping quality vs prefix length (CDN-2)"),
    };
    let mut report = Report::new(id, title);
    let q24 = &by_length[&24];
    let (cliff_len, paper_min) = match config.cdn {
        CdnModel::Cdn1 => (23, 24),
        CdnModel::Cdn2 => (20, 21),
    };
    let q_below = &by_length[&cliff_len];
    report.row(
        "unique first answers at /24",
        match config.cdn {
            CdnModel::Cdn1 => "400",
            CdnModel::Cdn2 => "41-42",
        },
        q24.unique_first_answers,
        q24.unique_first_answers > 20,
    );
    report.row(
        format!("unique first answers at /{cliff_len}"),
        match config.cdn {
            CdnModel::Cdn1 => "5-14",
            CdnModel::Cdn2 => "1",
        },
        q_below.unique_first_answers,
        q_below.unique_first_answers < q24.unique_first_answers / 2,
    );
    report.row(
        format!(
            "median connect time cliff /{} → /{cliff_len}",
            cliff_len + 1
        ),
        "huge degradation",
        format!("{:.0} ms → {:.0} ms", q24.median_ms, q_below.median_ms),
        q_below.median_ms > q24.median_ms * 2.0,
    );
    // No further degradation below the cliff.
    let (shortest_len, shortest) = by_length.first_key_value().expect("non-empty sweep");
    report.row(
        "no visible change below the cliff",
        "flat",
        format!(
            "median {:.0} ms at /{} vs {:.0} ms at /{}",
            shortest.median_ms, shortest_len, q_below.median_ms, cliff_len
        ),
        (shortest.median_ms - q_below.median_ms).abs() < q_below.median_ms * 0.5,
    );
    report.row(
        "minimum usable prefix length",
        format!("/{paper_min}"),
        format!("/{min_usable}"),
        min_usable == paper_min,
    );
    let mut detail = String::from("len  median(ms)  p90(ms)  unique-answers\n");
    for (len, q) in &by_length {
        detail.push_str(&format!(
            "/{len:<3} {:>8.0}  {:>8.0}  {}\n",
            q.median_ms,
            q.connect_cdf.quantile(0.9),
            q.unique_first_answers
        ));
    }
    report.detail = detail;
    (
        Outcome {
            by_length,
            min_usable,
        },
        report,
    )
}

/// The smallest swept length whose median connect time stays within
/// [`TOLERANCE`] of the /24 median.
fn min_usable(by_length: &BTreeMap<u8, MappingQuality>) -> u8 {
    let baseline = by_length[&24].median_ms;
    by_length
        .iter()
        .find(|(_, q)| q.median_ms <= baseline * TOLERANCE)
        .map_or(24, |(len, _)| *len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdn1_cliff_below_24() {
        let (out, report) = run(&Config {
            probes: 300,
            ..Config::fig6()
        });
        let m24 = out.by_length[&24].median_ms;
        let m23 = out.by_length[&23].median_ms;
        let m16 = out.by_length[&16].median_ms;
        assert!(m23 > m24 * 2.0, "cliff missing: {m24} vs {m23}\n{report}");
        // Flat below the cliff.
        assert!((m16 - m23).abs() < m23 * 0.5, "{m16} vs {m23}");
        // Answer-set collapse.
        assert!(out.by_length[&24].unique_first_answers > 30);
        assert!(out.by_length[&23].unique_first_answers <= 14);
        assert_eq!(out.min_usable, 24, "{report}");
        assert!(report.all_hold(), "{report}");
    }

    #[test]
    fn cdn2_cliff_below_21() {
        let (out, report) = run(&Config {
            probes: 300,
            ..Config::fig7()
        });
        let m21 = out.by_length[&21].median_ms;
        let m20 = out.by_length[&20].median_ms;
        assert!(m20 > m21 * 2.0, "cliff missing: {m21} vs {m20}\n{report}");
        // /21 through /24 are equally good.
        let m24 = out.by_length[&24].median_ms;
        assert!((m21 - m24).abs() < m24 * 0.3, "{m21} vs {m24}");
        // Single answer below the cliff (resolver-based).
        assert_eq!(out.by_length[&20].unique_first_answers, 1);
        assert_eq!(out.min_usable, 21, "{report}");
        // The below-cliff row reads the sweep's shortest length, not the
        // cliff itself.
        let flat = report
            .rows
            .iter()
            .find(|r| r.metric == "no visible change below the cliff")
            .expect("row");
        assert!(flat.measured.contains("at /16 vs"), "{report}");
        assert!(flat.measured.ends_with("at /20"), "{report}");
        assert!(report.all_hold(), "{report}");
    }
}
