//! Negative / mutation tests for the §6 classifiers.
//!
//! A classifier that returns its class for *every* input is useless as an
//! oracle. Here each §6.1 probing class and each §6.3 compliance class gets
//! one canonical input stream, and every classifier is run against every
//! stream: the diagonal must match, everything off-diagonal must not. A
//! mutation sweep then flips one aspect of each stream and checks the
//! verdict moves.

use std::net::{IpAddr, Ipv4Addr};

use analysis::cache_compliance::{classify_compliance, ComplianceObservation};
use analysis::prefix_lengths::PrefixLengthTable;
use analysis::probing::classify_probing;
use analysis::{ComplianceClass, PrefixClass, ProbingClass};
use authoritative::QueryLogEntry;
use dns_wire::{EcsOption, Name, RecordType};
use netsim::SimTime;

const RESOLVER: IpAddr = IpAddr::V4(Ipv4Addr::new(5, 5, 5, 5));
const SHORT_WINDOW: u64 = 60;

fn entry(at_secs: u64, qname: &str, ecs: Option<EcsOption>) -> QueryLogEntry {
    QueryLogEntry {
        at: SimTime::from_secs(at_secs),
        resolver: RESOLVER,
        qname: Name::from_ascii(qname).unwrap(),
        qtype: RecordType::A,
        ecs,
        response_scope: None,
        answers: Vec::new(),
    }
}

fn client_ecs() -> Option<EcsOption> {
    Some(EcsOption::from_v4(Ipv4Addr::new(100, 1, 2, 0), 24))
}

fn loopback_ecs() -> Option<EcsOption> {
    Some(EcsOption::from_v4(Ipv4Addr::new(127, 0, 0, 1), 32))
}

/// One canonical stream per §6.1 class.
fn probing_streams() -> Vec<(Option<ProbingClass>, Vec<QueryLogEntry>)> {
    let always = (0..10)
        .map(|i| entry(i, &format!("h{i}.example.com"), client_ecs()))
        .collect();

    let mut hostname_probe = Vec::new();
    for i in 0..6 {
        hostname_probe.push(entry(i * 10, "probe.example.com", client_ecs()));
        hostname_probe.push(entry(i * 10 + 1, "other.example.com", None));
    }

    let mut interval_loopback = Vec::new();
    for i in 0..4 {
        interval_loopback.push(entry(i * 1800, "probe.example.com", loopback_ecs()));
    }
    for i in 0..20 {
        interval_loopback.push(entry(i * 100 + 7, "site.example.com", None));
    }

    let mut on_miss = Vec::new();
    for i in 0..5 {
        on_miss.push(entry(i * 300, "x.example.com", client_ecs()));
        on_miss.push(entry(i * 300 + 2, "y.example.com", None));
    }

    let mixed = vec![
        entry(0, "a.example.com", client_ecs()),
        entry(10, "a.example.com", None),
        entry(20, "b.example.com", None),
    ];

    let no_ecs = (0..10).map(|i| entry(i, "a.example.com", None)).collect();

    vec![
        (Some(ProbingClass::Always), always),
        (Some(ProbingClass::HostnameProbe), hostname_probe),
        (Some(ProbingClass::IntervalLoopback), interval_loopback),
        (Some(ProbingClass::OnMiss), on_miss),
        (Some(ProbingClass::Mixed), mixed),
        (None, no_ecs),
    ]
}

#[test]
fn probing_classifier_diagonal_only() {
    let streams = probing_streams();
    for (expected, stream) in &streams {
        let got = classify_probing(stream, SHORT_WINDOW);
        assert_eq!(got, *expected, "canonical {expected:?} stream misread");
    }
    // Off-diagonal: the class assigned to stream i is never assigned to
    // stream j — i.e. no class swallows a stream crafted for another.
    for (i, (expected_i, _)) in streams.iter().enumerate() {
        for (j, (_, stream_j)) in streams.iter().enumerate() {
            if i == j {
                continue;
            }
            assert_ne!(
                classify_probing(stream_j, SHORT_WINDOW),
                *expected_i,
                "{expected_i:?} also claimed stream #{j}"
            );
        }
    }
}

#[test]
fn probing_mutations_move_the_verdict() {
    // Always → drop ECS from one query: no longer 100%.
    let mut s = probing_streams().remove(0).1;
    s[3].ecs = None;
    assert_ne!(
        classify_probing(&s, SHORT_WINDOW),
        Some(ProbingClass::Always)
    );

    // HostnameProbe → space the probes beyond the short window: OnMiss.
    let mut s = Vec::new();
    for i in 0..6 {
        s.push(entry(i * 300, "probe.example.com", client_ecs()));
        s.push(entry(i * 300 + 1, "other.example.com", None));
    }
    assert_eq!(
        classify_probing(&s, SHORT_WINDOW),
        Some(ProbingClass::OnMiss)
    );

    // IntervalLoopback → make one probe routable: the all-non-routable
    // signature breaks and per-name consistency decides instead.
    let mut s = probing_streams().remove(2).1;
    s[0].ecs = client_ecs();
    assert_ne!(
        classify_probing(&s, SHORT_WINDOW),
        Some(ProbingClass::IntervalLoopback)
    );

    // OnMiss → re-query the probed name within the window: HostnameProbe.
    let mut s = probing_streams().remove(3).1;
    s.push(entry(10, "x.example.com", client_ecs()));
    assert_eq!(
        classify_probing(&s, SHORT_WINDOW),
        Some(ProbingClass::HostnameProbe)
    );

    // Mixed → drop the plain duplicate: names become consistent.
    let s = vec![
        entry(0, "a.example.com", client_ecs()),
        entry(20, "b.example.com", None),
    ];
    assert_ne!(
        classify_probing(&s, SHORT_WINDOW),
        Some(ProbingClass::Mixed)
    );

    // NoEcs → a single ECS query flips it.
    let mut s = probing_streams().remove(5).1;
    s.push(entry(99, "a.example.com", client_ecs()));
    assert_ne!(classify_probing(&s, SHORT_WINDOW), None);
}

/// One canonical observation per §6.3 class.
fn compliance_observations() -> Vec<(Option<ComplianceClass>, ComplianceObservation)> {
    vec![
        (
            Some(ComplianceClass::Correct),
            ComplianceObservation {
                second_arrived_scope24: true,
                conveyed_for_32: Some(24),
                conveyed_for_25: Some(24),
                ..ComplianceObservation::default()
            },
        ),
        (
            Some(ComplianceClass::IgnoresScope),
            ComplianceObservation {
                conveyed_for_32: Some(24),
                conveyed_for_25: Some(24),
                ..ComplianceObservation::default()
            },
        ),
        (
            Some(ComplianceClass::AcceptsLong),
            ComplianceObservation {
                second_arrived_scope24: true,
                conveyed_for_32: Some(32),
                conveyed_for_25: Some(25),
                echoed_long_prefix: true,
                ..ComplianceObservation::default()
            },
        ),
        (
            Some(ComplianceClass::Cap22),
            ComplianceObservation {
                conveyed_for_32: Some(22),
                conveyed_for_25: Some(22),
                ..ComplianceObservation::default()
            },
        ),
        (
            Some(ComplianceClass::PrivateMisconfig),
            ComplianceObservation {
                sent_private_prefix: true,
                ..ComplianceObservation::default()
            },
        ),
        (
            None,
            ComplianceObservation {
                second_arrived_scope24: true,
                second_arrived_scope16: true,
                second_arrived_scope0: true,
                ..ComplianceObservation::default()
            },
        ),
    ]
}

#[test]
fn compliance_classifier_diagonal_only() {
    let obs = compliance_observations();
    for (expected, o) in &obs {
        assert_eq!(
            classify_compliance(o),
            *expected,
            "canonical {expected:?} observation misread"
        );
    }
    for (i, (expected_i, _)) in obs.iter().enumerate() {
        for (j, (_, o_j)) in obs.iter().enumerate() {
            if i == j {
                continue;
            }
            assert_ne!(
                classify_compliance(o_j),
                *expected_i,
                "{expected_i:?} also claimed observation #{j}"
            );
        }
    }
}

#[test]
fn compliance_mutations_move_the_verdict() {
    // Correct → stop honoring /24 scope: IgnoresScope.
    let mut o = compliance_observations()[0].1;
    o.second_arrived_scope24 = false;
    assert_eq!(classify_compliance(&o), Some(ComplianceClass::IgnoresScope));

    // AcceptsLong without the echo is NOT AcceptsLong (jammed /32 claims
    // the length but forwards nothing).
    let mut o = compliance_observations()[2].1;
    o.echoed_long_prefix = false;
    assert_ne!(classify_compliance(&o), Some(ComplianceClass::AcceptsLong));

    // Cap22 requires the cap on BOTH the /32 and /25 trials.
    let mut o = compliance_observations()[3].1;
    o.conveyed_for_25 = Some(24);
    assert_ne!(classify_compliance(&o), Some(ComplianceClass::Cap22));

    // A private prefix dominates everything else.
    let mut o = compliance_observations()[0].1;
    o.sent_private_prefix = true;
    assert_eq!(
        classify_compliance(&o),
        Some(ComplianceClass::PrivateMisconfig)
    );
}

#[test]
fn prefix_rows_are_mutually_exclusive() {
    let ecs32 = |a: [u8; 4]| Some(EcsOption::from_v4(Ipv4Addr::from(a), 32));
    let mut e24 = entry(0, "a.example.com", client_ecs());
    e24.resolver = RESOLVER;

    // A true-/32 resolver (distinct last octets) is not the jammed row,
    // and a jammed resolver (constant last octet) is not the "32" row.
    let full = vec![
        entry(0, "a.example.com", ecs32([100, 1, 2, 7])),
        entry(1, "b.example.com", ecs32([100, 1, 3, 9])),
    ];
    let jammed = vec![
        entry(0, "a.example.com", ecs32([100, 1, 2, 1])),
        entry(1, "b.example.com", ecs32([100, 1, 3, 1])),
    ];
    let t_full = PrefixLengthTable::build(&full);
    let t_jam = PrefixLengthTable::build(&jammed);
    let t_24 = PrefixLengthTable::build(&[e24]);
    assert_eq!(t_full.profiles[0].row_label(), "32");
    assert_eq!(t_jam.profiles[0].row_label(), "32/jammed last byte");
    assert_eq!(t_24.profiles[0].row_label(), "24");
    assert_eq!(t_full.count(PrefixClass::Slash32Jammed), 0);
    assert_eq!(t_jam.count(PrefixClass::Slash32Jammed), 1);
    // Only the ≤24 row is RFC-compliant.
    assert!(t_24.profiles[0].rfc_compliant());
    assert!(!t_full.profiles[0].rfc_compliant());
    assert!(!t_jam.profiles[0].rfc_compliant());
}
