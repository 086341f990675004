//! Extension experiment: transport fallback ladders on fragmenting paths.
//!
//! The paper's resolver measurements all ride plain UDP; the encrypted and
//! stream transports (RFC 7766 TCP, RFC 7858 DoT, RFC 8484 DoH) exist in
//! part because large EDNS answers die on paths that drop fragments. This
//! sweep sends an identical big-answer workload (an answer that overflows a
//! 512-byte path MTU but fits the 4096-byte EDNS buffer) through three
//! transport policies — UDP-only, UDP→TCP, and the full
//! UDP→TCP→DoT→DoH ladder — at increasing fragment-loss rates, and
//! reports how each policy degrades. The headline ordering the harness
//! pins: UDP-only fails strictly worse than any ladder-enabled policy once
//! fragments are lost, because every stream rung is immune to datagram
//! fate. Every cell is seeded and replayable.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::transport::PathProfile;
use netsim::SimTime;
use resolver::{Resolver, ResolverConfig, Transport, TransportPolicy, TransportUpstream};

use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client queries per cell.
    pub queries: u64,
    /// Fragment-loss rates swept (one cell row each).
    pub frag_loss_rates: Vec<f64>,
    /// Path MTU; answers above this fragment (and risk the loss rate).
    pub mtu: usize,
    /// A records on the answered name — sized to overflow `mtu`.
    pub answer_records: usize,
    /// Zone TTL.
    pub ttl: u32,
    /// RNG seed (datagram fate only; the workload is fixed).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            queries: 300,
            frag_loss_rates: vec![0.0, 0.5, 1.0],
            mtu: 512,
            answer_records: 60,
            ttl: 60,
            seed: 11,
        }
    }
}

/// The swept transport policies, in strictly-more-capable order.
pub fn policies() -> Vec<(&'static str, TransportPolicy)> {
    vec![
        ("udp-only", TransportPolicy::udp_only()),
        (
            "udp+tcp",
            TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
        ),
        ("full-ladder", TransportPolicy::full_ladder()),
    ]
}

/// One sweep cell's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Queries that ended in an answer.
    pub answered: u64,
    /// Queries that exhausted every rung (SERVFAIL to the client).
    pub servfailed: u64,
    /// Attempts lost to the path (fragment drops surface as timeouts).
    pub timeouts: u64,
    /// Ladder edges taken (UDP rung exhausted → a stream rung).
    pub transport_fallbacks: u64,
    /// ECS options withdrawn on retry (RFC 7871 §7.1.3).
    pub ecs_withdrawals: u64,
    /// Datagrams the path model dropped in fragments.
    pub fragments_dropped: u64,
}

/// Outcome: one row per fragment-loss rate, one [`Cell`] per policy,
/// aligned with [`policies`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// (fragment-loss rate, cells in `policies()` order).
    pub by_loss: Vec<(f64, Vec<Cell>)>,
}

fn drive(frag_loss: f64, policy: &TransportPolicy, config: &Config) -> Cell {
    let apex = Name::from_ascii("big.test").expect("valid");
    let mut zone = Zone::new(apex.clone());
    let qname = apex.child("www").expect("valid");
    for i in 0..config.answer_records {
        zone.add_a(
            qname.clone(),
            config.ttl,
            Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8),
        )
        .expect("in zone");
    }
    let mut inner = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
    inner.set_logging(false);
    let mut up = TransportUpstream::new(inner, config.seed).with_profile(PathProfile {
        mtu: config.mtu,
        frag_loss,
    });

    let mut resolver_config = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    resolver_config.transport = policy.clone();
    let mut r = Resolver::new(resolver_config);

    let mut answered = 0u64;
    for i in 0..config.queries {
        let q = Message::query(i as u16, Question::a(qname.clone()));
        let client = IpAddr::V4(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 7));
        // Spaced past the TTL and the worst-case backoff run, so every
        // query is a fresh cache miss and faces the path anew.
        let resp = r.resolve_msg(&q, client, SimTime::from_secs(i * 600), &mut up);
        if resp.rcode == Rcode::NoError && !resp.answers.is_empty() {
            answered += 1;
        }
    }
    let s = r.stats();
    Cell {
        answered,
        servfailed: s.servfail_responses,
        timeouts: s.upstream_timeouts,
        transport_fallbacks: s.transport_fallbacks,
        ecs_withdrawals: s.ecs_withdrawals,
        fragments_dropped: up.stats().fragments_dropped,
    }
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let policy_set = policies();
    let by_loss: Vec<(f64, Vec<Cell>)> = config
        .frag_loss_rates
        .iter()
        .map(|&loss| {
            let cells = policy_set
                .iter()
                .map(|(_, policy)| drive(loss, policy, config))
                .collect();
            (loss, cells)
        })
        .collect();
    let outcome = Outcome { by_loss };

    let mut report = Report::new(
        "transports",
        "transport fallback ladders on fragmenting paths (extension)",
    );
    for (loss, cells) in &outcome.by_loss {
        let answered: Vec<u64> = cells.iter().map(|c| c.answered).collect();
        // The ordering claim: each extra rung can only help.
        let ordered = answered.windows(2).all(|w| w[0] <= w[1]);
        report.row(
            format!("answered @ frag loss {loss:.1}"),
            "udp-only ≤ udp+tcp ≤ full-ladder (stream rungs are immune)",
            policy_set
                .iter()
                .zip(cells)
                .map(|((name, _), c)| format!("{name} {}/{}", c.answered, config.queries))
                .collect::<Vec<_>>()
                .join(", "),
            ordered,
        );
    }
    if let Some((_, clean)) = outcome.by_loss.iter().find(|(l, _)| *l == 0.0) {
        report.row(
            "lossless fragmentation baseline",
            "every policy answers everything without a single ladder edge",
            format!(
                "answered {:?}, ladder edges {:?}",
                clean.iter().map(|c| c.answered).collect::<Vec<_>>(),
                clean
                    .iter()
                    .map(|c| c.transport_fallbacks)
                    .collect::<Vec<_>>()
            ),
            clean
                .iter()
                .all(|c| c.answered == config.queries && c.transport_fallbacks == 0),
        );
    }
    if let Some((_, dead)) = outcome.by_loss.iter().find(|(l, _)| *l >= 1.0) {
        let udp_only = dead[0];
        let laddered = &dead[1..];
        report.row(
            "total fragment loss",
            "udp-only loses every big answer; any stream rung recovers all",
            format!(
                "udp-only {}/{} ({} SERVFAIL), laddered {:?}",
                udp_only.answered,
                config.queries,
                udp_only.servfailed,
                laddered.iter().map(|c| c.answered).collect::<Vec<_>>()
            ),
            udp_only.answered == 0
                && udp_only.servfailed == config.queries
                && laddered
                    .iter()
                    .all(|c| c.answered == config.queries && c.servfailed == 0),
        );
        report.row(
            "ECS withdrawal survives the fall",
            "fragment-drop timeouts withdraw ECS before the ladder edge (§7.1.3)",
            format!(
                "{} withdrawals, {} ladder edges on the udp+tcp policy",
                laddered[0].ecs_withdrawals, laddered[0].transport_fallbacks
            ),
            laddered[0].ecs_withdrawals >= 1 && laddered[0].transport_fallbacks >= 1,
        );
    }
    report.detail = format!(
        "{} queries per cell over a {}-record answer (~1 kB: past the {}-byte\npath MTU, inside the 4096-byte EDNS buffer), seed {}. Fragment loss\nkills whole datagrams, so the UDP rung sees pure timeouts; stream rungs\nreassemble and never fragment.\n",
        config.queries, config.answer_records, config.mtu, config.seed
    );
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            queries: 60,
            ..Config::default()
        }
    }

    #[test]
    fn ladder_policies_beat_udp_only_under_fragment_loss() {
        let (out, report) = run(&small());
        assert!(report.all_hold(), "{report}");
        let (_, dead) = out
            .by_loss
            .iter()
            .find(|(l, _)| *l >= 1.0)
            .expect("total-loss row swept");
        assert_eq!(dead[0].answered, 0, "udp-only loses everything");
        assert_eq!(dead[1].answered, 60, "udp+tcp recovers everything");
        assert_eq!(dead[2].answered, 60, "full ladder recovers everything");
        assert!(dead[1].timeouts > 0, "the UDP rung burned its budget first");
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.by_loss, b.by_loss);
    }
}
