//! §8.4 Figure 8: the CNAME-flattening penalty, end to end.
//!
//! The case study: `customer.com` is hosted at a DNS provider whose
//! authoritative server flattens the apex onto a CDN *without forwarding
//! ECS*, so the CDN maps the client by the provider's backend location.
//! The client (behind an ECS-enabled public resolver) therefore first
//! lands on a distant edge E1, which answers with an HTTP redirect to
//! `www.customer.com`; the www path preserves ECS and lands on a nearby
//! edge E2. We account every message leg with the geographic latency model
//! and compare the apex's total time-to-content against direct www access.
//!
//! Paper: 125 ms TCP handshake to E1 and 650 ms total elapsed before the
//! client even starts the correct download, vs a 45 ms handshake to E2.

use std::net::IpAddr;

use authoritative::{
    AuthServer, CdnBehavior, EcsHandling, FlatteningServer, GeoDb, ScopePolicy, Zone,
};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::city;
use netsim::{GeoPoint, LatencyModel, SimTime};

use crate::experiments::table2::world_footprint;
use crate::report::Report;

/// Client city (paper: a Cleveland lab machine).
const CLIENT_CITY: &str = "Cleveland";
/// Public resolver city.
const RESOLVER_CITY: &str = "Toronto";
/// DNS provider backend city (where flattened queries appear to be from).
const PROVIDER_CITY: &str = "Mountain View";

/// Parameters: the one a caller sets. The rest are the constants above.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Whether the provider forwards ECS on the backend (the fix).
    pub forward_ecs: bool,
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// TCP handshake time to the apex-resolved edge E1 (ms).
    pub apex_handshake_ms: f64,
    /// Total elapsed from first DNS step until the client has completed
    /// the redirect dance and the correct handshake (ms).
    pub apex_total_ms: f64,
    /// TCP handshake time to the www-resolved edge E2 (ms).
    pub www_handshake_ms: f64,
    /// E1 deployment city.
    pub e1_city: String,
    /// E2 deployment city.
    pub e2_city: String,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let footprint = world_footprint();
    let latency = LatencyModel::default();

    let client_pos = city(CLIENT_CITY).expect("known").pos;
    let resolver_pos = city(RESOLVER_CITY).expect("known").pos;
    let provider_pos = city(PROVIDER_CITY).expect("known").pos;

    let client_addr: IpAddr = "100.80.1.7".parse().expect("valid");
    let resolver_addr: IpAddr = "8.8.8.8".parse().expect("valid");
    let provider_backend: IpAddr = "198.18.200.1".parse().expect("valid");

    let mut geodb = GeoDb::new();
    geodb.insert(IpPrefix::new(client_addr, 24).expect("<=32"), client_pos);
    geodb.insert(
        IpPrefix::new(resolver_addr, 24).expect("<=32"),
        resolver_pos,
    );
    geodb.insert(
        IpPrefix::new(provider_backend, 24).expect("<=32"),
        provider_pos,
    );

    let cdn_apex = Name::from_ascii("cdn.net").expect("valid");
    let mut cdn = AuthServer::new(
        Zone::new(cdn_apex.clone()),
        EcsHandling::open(ScopePolicy::MatchSource),
    )
    .with_cdn(CdnBehavior::cdn1(footprint.clone()), geodb);

    let mut provider = FlatteningServer::new(
        Name::from_ascii("customer.com").expect("valid"),
        cdn_apex.child("ex").expect("valid"),
        provider_backend,
    );
    provider.forward_ecs = config.forward_ecs;

    let edge_pos = |addr: IpAddr| -> (GeoPoint, String) {
        let e = footprint
            .edges
            .iter()
            .find(|e| e.addr == addr)
            .expect("edge in footprint");
        (e.pos, e.city.clone())
    };

    // The public resolver stamps the client's /24 (it is ECS-whitelisted
    // with the CDN, and the provider zone accepts ECS too).
    let client_ecs = EcsOption::new(client_addr, 24);

    // --- Apex access (steps 1–8 of Figure 8) ---
    // Steps 1-2: client → resolver → provider authoritative (apex query,
    // flattened on the backend: steps 3-4 are provider ↔ CDN).
    let mut apex_q = Message::query(
        1,
        Question::a(Name::from_ascii("customer.com").expect("ok")),
    );
    apex_q.set_ecs(client_ecs);
    let apex_resp = provider.handle(&apex_q, resolver_addr, SimTime::ZERO, &mut cdn);
    let e1 = apex_resp.answer_addrs()[0];
    let (e1_pos, e1_city) = edge_pos(e1);

    // DNS latency: client→resolver→provider (+provider→CDN backend)→back.
    let dns_apex_ms = latency.rtt_ms(&client_pos, &resolver_pos)
        + latency.rtt_ms(&resolver_pos, &provider_pos)
        + latency.rtt_ms(&provider_pos, &provider_pos) // backend CDN auth colocated w/ provider POP
        ;
    // Steps 7-8: TCP handshake to E1 (1 RTT) + HTTP request/redirect (1 RTT).
    let apex_handshake_ms = latency.rtt_ms(&client_pos, &e1_pos);
    let redirect_ms = latency.rtt_ms(&client_pos, &e1_pos);

    // --- Steps 9–14: resolve www.customer.com (ECS preserved) ---
    let mut www_q = Message::query(
        2,
        Question::a(Name::from_ascii("www.customer.com").expect("ok")),
    );
    www_q.set_ecs(client_ecs);
    let www_resp = provider.handle(&www_q, resolver_addr, SimTime::ZERO, &mut cdn);
    let e2 = www_resp.answer_addrs()[0];
    let (e2_pos, e2_city) = edge_pos(e2);
    let dns_www_ms =
        latency.rtt_ms(&client_pos, &resolver_pos) + latency.rtt_ms(&resolver_pos, &provider_pos);
    let www_handshake_ms = latency.rtt_ms(&client_pos, &e2_pos);

    let apex_total_ms =
        dns_apex_ms + apex_handshake_ms + redirect_ms + dns_www_ms + www_handshake_ms;

    let outcome = Outcome {
        apex_handshake_ms,
        apex_total_ms,
        www_handshake_ms,
        e1_city: e1_city.clone(),
        e2_city: e2_city.clone(),
    };

    let mut report = Report::new("fig8", "CNAME flattening penalty");
    report.row(
        "E1 handshake (flattened apex)",
        "125 ms",
        format!("{:.0} ms ({})", apex_handshake_ms, e1_city),
        if config.forward_ecs {
            apex_handshake_ms <= www_handshake_ms + 1.0
        } else {
            apex_handshake_ms > www_handshake_ms * 2.0
        },
    );
    report.row(
        "E2 handshake (www, ECS preserved)",
        "45 ms",
        format!("{:.0} ms ({})", www_handshake_ms, e2_city),
        www_handshake_ms < 60.0,
    );
    report.row(
        "apex total incl. redirect dance",
        "650 ms",
        format!("{apex_total_ms:.0} ms"),
        if config.forward_ecs {
            // With E1 = E2 the redirect dance (handshake, redirect, second
            // handshake) costs at most three round trips to E2.
            apex_total_ms - dns_apex_ms - dns_www_ms <= 3.0 * www_handshake_ms + 1.0
        } else {
            apex_total_ms > www_handshake_ms * 4.0
        },
    );
    report.row(
        "E1 maps to the provider's location, not the client's",
        "yes (absence of ECS on backend)",
        format!("E1 in {e1_city}, E2 in {e2_city}"),
        if config.forward_ecs {
            e1_city == e2_city
        } else {
            e1_city != e2_city
        },
    );
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattening_without_ecs_is_expensive() {
        let (out, report) = run(&Config::default());
        assert!(
            out.apex_handshake_ms > out.www_handshake_ms * 2.0,
            "E1 {} vs E2 {}\n{report}",
            out.apex_handshake_ms,
            out.www_handshake_ms
        );
        assert!(out.apex_total_ms > 100.0);
        assert_ne!(out.e1_city, out.e2_city);
        assert!(report.all_hold(), "{report}");
    }

    #[test]
    fn forwarding_ecs_fixes_the_apex() {
        let (out, report) = run(&Config { forward_ecs: true });
        assert!(report.all_hold(), "{report}");
        assert_eq!(out.e1_city, out.e2_city, "{report}");
        assert!((out.apex_handshake_ms - out.www_handshake_ms).abs() < 1.0);
    }
}
