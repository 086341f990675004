//! §6 oracle drivers.
//!
//! Each driver configures a *subject* resolver with a known ground-truth
//! behaviour, runs it through a scripted scenario, captures the upstream
//! query stream the scenario's authoritative saw, and feeds that stream to
//! the corresponding `analysis` classifier. The classifier is the oracle:
//! a cell passes when the measured class equals the configured one.
//!
//! Every matrix driver takes the [`Transport`] its subjects are pinned to
//! ([`TransportPolicy::prefer`]; `Transport::Udp` is the resolver's
//! default policy), and the scripted authoritative is reached through an
//! ideal [`TransportUpstream`]. ECS behaviour is a resolver *policy*
//! decision, so the §6 verdict matrix must be byte-identical whichever
//! transport carries the queries — the transport-invariance property
//! `tests/transport_matrix.rs` pins.

use std::collections::HashSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use analysis::{
    classify_compliance, classify_probing, ComplianceObservation, ComplianceVerdict,
    PrefixLengthTable, ProbingVerdict,
};
use authoritative::QueryLogEntry;
use dns_wire::{EcsOption, Message, Name, Question};
use netsim::{SimDuration, SimTime};
use resolver::{
    PrefixPolicy, ProbingStrategy, Resolver, ResolverConfig, Transport, TransportPolicy,
    TransportUpstream,
};

use crate::report::CellResult;
use crate::scenario::{host, Scenario};

/// The paper's one-minute threshold separating cache-bypassing probes from
/// on-miss probes.
pub const SHORT_WINDOW_SECS: u64 = 60;

/// The subject resolver's public address in every cell.
pub fn subject_addr() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9))
}

fn base_config(probing: ProbingStrategy, transport: Transport) -> ResolverConfig {
    ResolverConfig {
        probing,
        transport: TransportPolicy::prefer(transport),
        ..ResolverConfig::rfc_compliant(subject_addr())
    }
}

/// Two simulated hours of client traffic against one authoritative: a
/// `probe.<apex>` name asked every 30 s by one client (TTL 300 s, so cache
/// misses repeat at 300 s — beyond the short window), and four `siteN`
/// names asked on a 97 s lattice by rotating routable clients (per-name
/// spacing 388 s, so every site query is a cache miss).
pub fn probing_workload(scenario: &Scenario) -> Vec<(SimTime, Name, IpAddr)> {
    let probe = host("probe", scenario);
    let prober = IpAddr::V4(Ipv4Addr::new(100, 70, 0, 9));
    // (time, tie-break tag, name, client)
    let mut events: Vec<(SimTime, u8, Name, IpAddr)> = Vec::new();
    for k in 0..240u64 {
        events.push((SimTime::from_secs(k * 30), 0, probe.clone(), prober));
    }
    for i in 0..60u64 {
        let name = host(&format!("site{}", i % 4), scenario);
        let client = IpAddr::V4(Ipv4Addr::new(100, 70, 1 + (i % 8) as u8, 10 + i as u8));
        events.push((SimTime::from_secs(i * 97 + 5), 1, name, client));
    }
    events.sort_by_key(|e| (e.0, e.1));
    events.into_iter().map(|(t, _, n, c)| (t, n, c)).collect()
}

/// Runs one probing subject, pinned to `transport`, through the workload
/// and returns the captured upstream stream.
pub fn drive_probing(strategy: ProbingStrategy, transport: Transport) -> Vec<QueryLogEntry> {
    let scenario = Scenario::non_whitelisted();
    let mut up = TransportUpstream::ideal(scenario.build());
    let mut r = Resolver::new(base_config(strategy, transport));
    for (id, (at, name, client)) in probing_workload(&scenario).into_iter().enumerate() {
        let q = Message::query(id as u16, Question::a(name));
        r.resolve_msg(&q, client, at, &mut up);
    }
    up.inner().captured_log()
}

/// The §6.1 cells: cell name, subject strategy, class it must land in.
pub fn probing_cells() -> Vec<(&'static str, ProbingStrategy, ProbingVerdict)> {
    let probe = host("probe", &Scenario::non_whitelisted());
    vec![
        ("always", ProbingStrategy::Always, ProbingVerdict::Always),
        (
            "hostname-probe",
            ProbingStrategy::HostnameProbe {
                hostnames: HashSet::from([probe.clone()]),
            },
            ProbingVerdict::HostnameProbe,
        ),
        (
            "interval-loopback",
            ProbingStrategy::IntervalProbe {
                period: SimDuration::from_secs(1800),
                use_own_address: false,
            },
            ProbingVerdict::IntervalLoopback,
        ),
        (
            "on-miss",
            ProbingStrategy::OnMiss {
                hostnames: HashSet::from([probe]),
            },
            ProbingVerdict::OnMiss,
        ),
        (
            "mixed",
            ProbingStrategy::EveryKth { k: 2 },
            ProbingVerdict::Mixed,
        ),
        (
            "no-ecs",
            ProbingStrategy::ZoneWhitelist { zones: vec![] },
            ProbingVerdict::NoEcs,
        ),
    ]
}

/// Runs every §6.1 cell, plus the narrow-capture-window regression: a
/// window containing *only* a loopback interval probe must classify as
/// `IntervalLoopback`, not `Always` (ECS on 100% of a one-query window).
pub fn run_probing_matrix(transport: Transport) -> Vec<CellResult> {
    let mut cells = Vec::new();
    for (cell, strategy, expected) in probing_cells() {
        let config = format!("{strategy:?}");
        let log = drive_probing(strategy, transport);
        let observed = classify_probing(&log, SHORT_WINDOW_SECS);
        cells.push(CellResult {
            section: "6.1-probing",
            cell: cell.into(),
            config,
            scenario: Scenario::non_whitelisted().name.into(),
            expected: format!("{expected:?}"),
            observed: format!("{observed:?}"),
        });
    }

    let scenario = Scenario::non_whitelisted();
    let mut up = TransportUpstream::ideal(scenario.build());
    let mut r = Resolver::new(base_config(
        ProbingStrategy::IntervalProbe {
            period: SimDuration::from_secs(1800),
            use_own_address: false,
        },
        transport,
    ));
    let q = Message::query(1, Question::a(host("probe", &scenario)));
    r.resolve_msg(
        &q,
        IpAddr::V4(Ipv4Addr::new(100, 70, 0, 9)),
        SimTime::ZERO,
        &mut up,
    );
    let observed = classify_probing(&up.inner().captured_log(), SHORT_WINDOW_SECS);
    cells.push(CellResult {
        section: "6.1-probing",
        cell: "interval-loopback-narrow-window".into(),
        config: "IntervalProbe { period: 1800s, use_own_address: false }".into(),
        scenario: scenario.name.into(),
        expected: format!("{:?}", ProbingVerdict::IntervalLoopback),
        observed: format!("{observed:?}"),
    });
    cells
}

fn prefix_row(expected_row: &str, compliant: bool) -> String {
    format!(
        "{expected_row} [{}]",
        if compliant {
            "rfc-compliant"
        } else {
            "non-compliant"
        }
    )
}

/// Runs the §6.2 / Table-1 cells: six subjects, each probed by six clients
/// asking fresh names, tabulated by [`PrefixLengthTable`].
pub fn run_prefix_matrix(transport: Transport) -> Vec<CellResult> {
    let v4_clients: Vec<IpAddr> = (0..6u8)
        .map(|i| IpAddr::V4(Ipv4Addr::new(100, 70, 1 + i, 20 + i)))
        .collect();
    let v6_clients: Vec<IpAddr> = (0..6u16)
        .map(|i| IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, i, 0, 0, 0, 0, 1)))
        .collect();
    let cells: Vec<(&'static str, PrefixPolicy, &Vec<IpAddr>, &'static str, bool)> = vec![
        (
            "truncate-24",
            PrefixPolicy::rfc_recommended(),
            &v4_clients,
            "24",
            true,
        ),
        (
            "truncate-16",
            PrefixPolicy::Truncate { v4: 16, v6: 56 },
            &v4_clients,
            "16",
            true,
        ),
        (
            "truncate-25",
            PrefixPolicy::Truncate { v4: 25, v6: 56 },
            &v4_clients,
            "25",
            false,
        ),
        ("full-32", PrefixPolicy::Full, &v4_clients, "32", false),
        (
            "jammed-32",
            PrefixPolicy::JammedFull { jam: 1 },
            &v4_clients,
            "32/jammed last byte",
            false,
        ),
        (
            "v6-56",
            PrefixPolicy::rfc_recommended(),
            &v6_clients,
            "56 (IPv6)",
            true,
        ),
    ];
    cells
        .into_iter()
        .map(|(cell, policy, clients, row, compliant)| {
            let scenario = Scenario::honors_scope();
            let mut up = TransportUpstream::ideal(scenario.build());
            let mut r = Resolver::new(ResolverConfig {
                prefix_policy: policy,
                transport: TransportPolicy::prefer(transport),
                ..ResolverConfig::rfc_compliant(subject_addr())
            });
            for (i, client) in clients.iter().enumerate() {
                let q = Message::query(i as u16, Question::a(host(&format!("pfx{i}"), &scenario)));
                r.resolve_msg(&q, *client, SimTime::from_secs(i as u64), &mut up);
            }
            let table = PrefixLengthTable::build(&up.inner().captured_log());
            let observed = match table.profiles.first() {
                Some(p) => prefix_row(&p.row_label(), p.rfc_compliant()),
                None => "no-ecs-observed".to_string(),
            };
            CellResult {
                section: "6.2-prefix",
                cell: cell.into(),
                config: format!("{policy:?}"),
                scenario: scenario.name.into(),
                expected: prefix_row(row, compliant),
                observed,
            }
        })
        .collect()
}

/// The §6.3 paired-probe methodology against one subject, as an auditor
/// runs it: one resolver, a fresh hostname per trial. Three scope trials
/// (authoritative answering scope 24 / 16 / 0; the second query comes from
/// a different /24 in the same /16 and the same /22, which is what exposes
/// a /22 cap) and two conveyed-prefix trials (a forwarder submitting client
/// ECS at /32 and /25), assembled into a [`ComplianceObservation`]. The
/// subject's own transport policy carries the queries.
pub fn observe_compliance(
    subject: &mut Resolver,
    answer_ttl: u32,
    flatten_cname: bool,
) -> ComplianceObservation {
    let client_a = IpAddr::V4(Ipv4Addr::new(100, 80, 4, 1));
    let client_b = IpAddr::V4(Ipv4Addr::new(100, 80, 5, 1));
    let forwarder = IpAddr::V4(Ipv4Addr::new(100, 90, 1, 1));
    let probe_c = Ipv4Addr::new(100, 81, 6, 7);

    let mut obs = ComplianceObservation::default();
    let mut sent_private = false;

    let mut scope_results = [false; 3];
    let trials = [
        Scenario::fixed_scope24(),
        Scenario::fixed_scope16(),
        Scenario::always_zero(),
    ];
    for (slot, base) in trials.into_iter().enumerate() {
        let scenario = Scenario {
            ttl: answer_ttl,
            cname: flatten_cname,
            ..base
        };
        let mut up = TransportUpstream::ideal(scenario.build());
        let n = host(&format!("pair{slot}"), &scenario);
        let at = SimTime::from_secs(10 * slot as u64);
        let q1 = Message::query(1, Question::a(n.clone()));
        subject.resolve_msg(&q1, client_a, at, &mut up);
        let q2 = Message::query(2, Question::a(n.clone()));
        subject.resolve_msg(&q2, client_b, at + SimDuration::from_secs(5), &mut up);
        let log = up.inner().captured_log();
        scope_results[slot] = log.iter().filter(|e| e.qname == n).count() >= 2;
        sent_private |= log
            .iter()
            .any(|e| e.ecs.as_ref().map(|o| o.is_non_routable()).unwrap_or(false));
    }
    obs.second_arrived_scope24 = scope_results[0];
    obs.second_arrived_scope16 = scope_results[1];
    obs.second_arrived_scope0 = scope_results[2];

    for (label, len, at) in [("conv32", 32u8, 100), ("conv25", 25u8, 101)] {
        let scenario = Scenario {
            ttl: answer_ttl,
            cname: flatten_cname,
            ..Scenario::honors_scope()
        };
        let mut up = TransportUpstream::ideal(scenario.build());
        let n = host(label, &scenario);
        let mut q = Message::query(3, Question::a(n.clone()));
        q.set_edns(4096);
        q.set_ecs(EcsOption::from_v4(probe_c, len));
        subject.resolve_msg(&q, forwarder, SimTime::from_secs(at), &mut up);
        let log = up.inner().captured_log();
        if let Some(opt) = log
            .iter()
            .find(|e| e.qname == n)
            .and_then(|e| e.ecs.as_ref())
        {
            if len == 32 {
                obs.conveyed_for_32 = Some(opt.source_prefix_len());
                obs.echoed_long_prefix =
                    opt.source_prefix_len() > 24 && opt.to_v4() == Some(probe_c);
            } else {
                obs.conveyed_for_25 = Some(opt.source_prefix_len());
            }
            sent_private |= opt.is_non_routable();
        }
    }
    obs.sent_private_prefix = sent_private;
    obs
}

/// The §6.3 cells: cell name, preset name, subject config, answer TTL,
/// CNAME flattening, class it must land in.
#[allow(clippy::type_complexity)]
pub fn compliance_cells() -> Vec<(
    &'static str,
    &'static str,
    ResolverConfig,
    u32,
    bool,
    ComplianceVerdict,
)> {
    let a = subject_addr();
    vec![
        (
            "correct",
            "rfc_compliant",
            ResolverConfig::rfc_compliant(a),
            300,
            false,
            ComplianceVerdict::Correct,
        ),
        (
            "correct-flattening-cname",
            "rfc_compliant",
            ResolverConfig::rfc_compliant(a),
            300,
            true,
            ComplianceVerdict::Correct,
        ),
        (
            "ignores-scope",
            "jammed_full",
            ResolverConfig::jammed_full(a, 1),
            300,
            false,
            ComplianceVerdict::IgnoresScope,
        ),
        (
            "accepts-long",
            "long_prefix_acceptor",
            ResolverConfig::long_prefix_acceptor(a),
            300,
            false,
            ComplianceVerdict::AcceptsLong,
        ),
        (
            "cap22",
            "cap22",
            ResolverConfig::cap22(a),
            300,
            false,
            ComplianceVerdict::Cap22,
        ),
        (
            "private-misconfig",
            "private_leaker",
            ResolverConfig::private_leaker(a),
            300,
            false,
            ComplianceVerdict::PrivateMisconfig,
        ),
        // Zero-TTL answers are uncacheable: every second query re-arrives,
        // which must land in Unclassified — not be mistaken for Correct.
        (
            "zero-ttl-uncacheable",
            "rfc_compliant",
            ResolverConfig::rfc_compliant(a),
            0,
            false,
            ComplianceVerdict::Unclassified,
        ),
    ]
}

/// Runs every §6.3 cell, its subject pinned to `transport`, through the
/// paired-probe driver and classifier.
pub fn run_compliance_matrix(transport: Transport) -> Vec<CellResult> {
    compliance_cells()
        .into_iter()
        .map(|(cell, preset, config, ttl, cname, expected)| {
            let mut subject = Resolver::new(ResolverConfig {
                transport: TransportPolicy::prefer(transport),
                ..config
            });
            let obs = observe_compliance(&mut subject, ttl, cname);
            let observed = classify_compliance(&obs);
            CellResult {
                section: "6.3-compliance",
                cell: cell.into(),
                config: preset.into(),
                scenario: if cname {
                    "paired-probe+flattening-cname".into()
                } else {
                    format!("paired-probe (ttl {ttl})")
                },
                expected: format!("{expected:?}"),
                observed: format!("{observed:?}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_sorted_and_sized() {
        let w = probing_workload(&Scenario::non_whitelisted());
        assert_eq!(w.len(), 300);
        assert!(w.windows(2).all(|p| p[0].0 <= p[1].0));
    }

    #[test]
    fn observation_for_default_engine_is_fully_populated() {
        let mut subject = Resolver::new(ResolverConfig::rfc_compliant(subject_addr()));
        let obs = observe_compliance(&mut subject, 300, false);
        assert!(obs.second_arrived_scope24);
        assert!(!obs.second_arrived_scope16);
        assert!(!obs.second_arrived_scope0);
        assert_eq!(obs.conveyed_for_32, Some(24));
        assert_eq!(obs.conveyed_for_25, Some(24));
        assert!(!obs.echoed_long_prefix);
        assert!(!obs.sent_private_prefix);
    }
}
