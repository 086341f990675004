//! §8.1 Table 2: what unroutable ECS prefixes do to mapping quality.
//!
//! A lab machine (Cleveland) queries a large CDN's authoritative server
//! directly with five ECS variants: none, the /24 of its own address, and
//! the three unroutable prefixes the paper observed in the wild
//! (127.0.0.1/32, 127.0.0.0/24, 169.254.252.0/24). The CDN implements the
//! non-RFC behaviour ([`authoritative::UnroutablePolicy::Arbitrary`]) that the paper
//! caught: meaningless prefixes hash to arbitrary edges. We report the
//! first answer's deployment city and the ping RTT from the lab machine,
//! mirroring Table 2's columns.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::{city, CITIES};
use netsim::{LatencyModel, SimTime};
use topology::{CdnFootprint, EdgeServerSpec};

use crate::report::Report;

/// The lab machine that queries the CDNs directly, here and in
/// Figures 6–7: its address and its city.
pub(crate) const LAB: (Ipv4Addr, &str) = (Ipv4Addr::new(129, 22, 150, 78), "Cleveland");

/// One Table-2 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The ECS variant label.
    pub ecs_label: String,
    /// First answer address.
    pub first_answer: IpAddr,
    /// Deployment city of the first answer.
    pub location: String,
    /// Ping RTT from the lab machine in ms.
    pub rtt_ms: f64,
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Rows in the paper's order.
    pub rows: Vec<Row>,
}

/// Builds a world-spanning CDN footprint for the experiment.
pub fn world_footprint() -> CdnFootprint {
    CdnFootprint {
        edges: CITIES
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                (0..4u8).map(move |k| EdgeServerSpec {
                    addr: IpAddr::V4(Ipv4Addr::new(
                        203,
                        0,
                        (i / 60) as u8,
                        (i % 60) as u8 * 4 + k + 1,
                    )),
                    pos: c.pos,
                    city: c.name.to_string(),
                })
            })
            .collect(),
    }
}

/// Runs the experiment.
pub fn run() -> (Outcome, Report) {
    let (lab_addr, lab_city) = (IpAddr::V4(LAB.0), LAB.1);
    // Like the paper's setup (whose lab in Cleveland mapped to Chicago at
    // best), the CDN has no edge in the lab's own city.
    let mut footprint = world_footprint();
    footprint.edges.retain(|e| e.city != lab_city);
    let lab_pos = city(lab_city).expect("known city").pos;
    let mut geodb = GeoDb::new();
    geodb.insert(IpPrefix::new(lab_addr, 24).expect("24 <= 32"), lab_pos);

    let apex = Name::from_ascii("cdn.example").expect("valid");
    let qname = apex.child("www").expect("valid");
    let mut server = AuthServer::new(Zone::new(apex), EcsHandling::open(ScopePolicy::MatchSource))
        .with_cdn(CdnBehavior::table2_cdn(footprint.clone()), geodb);

    let latency = LatencyModel::default();
    let variants: Vec<(String, Option<EcsOption>)> = vec![
        ("None".to_string(), None),
        (
            "/24 of src addr".to_string(),
            Some(EcsOption::new(lab_addr, 24)),
        ),
        (
            "127.0.0.1/32".to_string(),
            Some(EcsOption::from_v4(Ipv4Addr::new(127, 0, 0, 1), 32)),
        ),
        (
            "127.0.0.0/24".to_string(),
            Some(EcsOption::from_v4(Ipv4Addr::new(127, 0, 0, 0), 24)),
        ),
        (
            "169.254.252.0/24".to_string(),
            Some(EcsOption::from_v4(Ipv4Addr::new(169, 254, 252, 0), 24)),
        ),
    ];

    let mut rows = Vec::new();
    for (label, ecs) in variants {
        let mut q = Message::query(7, Question::a(qname.clone()));
        q.set_edns(4096);
        if let Some(e) = ecs {
            q.set_ecs(e);
        }
        let resp = server.handle(&q, lab_addr, SimTime::ZERO);
        let first = resp.answer_addrs()[0];
        let edge = footprint
            .edges
            .iter()
            .find(|e| e.addr == first)
            .expect("answer from footprint");
        rows.push(Row {
            ecs_label: label,
            first_answer: first,
            location: edge.city.clone(),
            rtt_ms: latency.rtt_ms(&lab_pos, &edge.pos),
        });
    }

    let mut report = Report::new("table2", "§8.1 Table 2: unroutable ECS prefixes");
    let near_rtt = rows[0].rtt_ms.max(rows[1].rtt_ms);
    report.row(
        "no-ECS mapping is near",
        "35 ms (Chicago)",
        format!("{:.0} ms ({})", rows[0].rtt_ms, rows[0].location),
        rows[0].rtt_ms < 60.0,
    );
    report.row(
        "own-/24 mapping is near",
        "35 ms (Chicago)",
        format!("{:.0} ms ({})", rows[1].rtt_ms, rows[1].location),
        rows[1].rtt_ms < 60.0,
    );
    report.row(
        "no-ECS and own-/24 agree",
        "same 16-address set",
        format!("{} vs {}", rows[0].location, rows[1].location),
        rows[0].location == rows[1].location,
    );
    let far = rows[2..].iter().map(|r| r.rtt_ms).fold(0.0f64, f64::max);
    report.row(
        "worst unroutable mapping is far",
        "285 ms (South Africa)",
        format!("{far:.0} ms"),
        far > near_rtt * 2.0,
    );
    let distinct: std::collections::HashSet<&str> =
        rows[2..].iter().map(|r| r.location.as_str()).collect();
    report.row(
        "unroutable prefixes map to distinct places",
        "Switzerland / Mountain View / South Africa",
        format!("{} distinct locations", distinct.len()),
        distinct.len() >= 2,
    );
    let mut detail = String::from("ECS Prefix          First answer      RTT       Location\n");
    for r in &rows {
        detail.push_str(&format!(
            "{:<19} {:<17} {:>6.0} ms  {}\n",
            r.ecs_label, r.first_answer, r.rtt_ms, r.location
        ));
    }
    report.detail = detail;
    (Outcome { rows }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unroutable_prefixes_degrade_mapping() {
        let (out, report) = run();
        assert_eq!(out.rows.len(), 5);
        // Baselines are near.
        assert!(out.rows[0].rtt_ms < 60.0, "{report}");
        assert!(out.rows[1].rtt_ms < 60.0, "{report}");
        // At least one unroutable variant lands much farther away than the
        // resolver-based baseline.
        let near = out.rows[0].rtt_ms.max(out.rows[1].rtt_ms);
        let worst = out.rows[2..]
            .iter()
            .map(|r| r.rtt_ms)
            .fold(0.0f64, f64::max);
        assert!(
            worst > near * 2.0 && worst > 60.0,
            "worst unroutable RTT {worst} vs baseline {near}\n{report}"
        );
    }

    #[test]
    fn footprint_covers_all_cities() {
        let f = world_footprint();
        assert_eq!(f.edges.len(), CITIES.len() * 4);
        let mut addrs: Vec<_> = f.edges.iter().map(|e| e.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), f.edges.len(), "edge addresses must be unique");
    }
}
