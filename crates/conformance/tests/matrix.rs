//! The full §6 conformance matrix as a test suite: every probing, prefix,
//! and compliance cell must land in its configured class, and the stock
//! RFC-compliant engine must land in the compliant row/class of every
//! table. A behavioural FORMERR-withdrawal test exercises the scenario
//! DSL's `formerr_on_ecs` stance end to end.

use std::net::{IpAddr, Ipv4Addr};

use conformance::harness::{
    run_compliance_matrix, run_prefix_matrix, run_probing_matrix, subject_addr,
};
use conformance::run_matrix;
use conformance::scenario::{host, Scenario};
use dns_wire::{Message, Question, Rcode};
use netsim::SimTime;
use resolver::{Resolver, ResolverConfig, Transport};

fn assert_all_pass(cells: &[conformance::report::CellResult]) {
    let failures: Vec<String> = cells
        .iter()
        .filter(|c| !c.pass())
        .map(|c| {
            format!(
                "{}/{}: expected {}, observed {}",
                c.section, c.cell, c.expected, c.observed
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "failing cells:\n{}",
        failures.join("\n")
    );
}

#[test]
fn probing_matrix_every_cell_lands_in_its_class() {
    let cells = run_probing_matrix(Transport::Udp);
    assert_all_pass(&cells);
    // All five paper classes plus NoEcs are present.
    for want in [
        "always",
        "hostname-probe",
        "interval-loopback",
        "on-miss",
        "mixed",
        "no-ecs",
        "interval-loopback-narrow-window",
    ] {
        assert!(
            cells.iter().any(|c| c.cell == want),
            "missing probing cell {want}"
        );
    }
}

#[test]
fn prefix_matrix_every_cell_lands_in_its_row() {
    let cells = run_prefix_matrix(Transport::Udp);
    assert_all_pass(&cells);
    assert!(cells.len() >= 4, "need at least four §6.2 behaviours");
    // The stock engine's row is the RFC-compliant /24 truncation.
    let stock = cells.iter().find(|c| c.cell == "truncate-24").unwrap();
    assert!(stock.observed.contains("rfc-compliant"));
    // The jammed-/32 detector fires only for the jammed subject.
    let jammed: Vec<_> = cells
        .iter()
        .filter(|c| c.observed.contains("jammed"))
        .collect();
    assert_eq!(jammed.len(), 1);
    assert_eq!(jammed[0].cell, "jammed-32");
}

#[test]
fn compliance_matrix_every_cell_lands_in_its_class() {
    let cells = run_compliance_matrix(Transport::Udp);
    assert_all_pass(&cells);
    for want in [
        "correct",
        "correct-flattening-cname",
        "ignores-scope",
        "accepts-long",
        "cap22",
        "private-misconfig",
        "zero-ttl-uncacheable",
    ] {
        assert!(
            cells.iter().any(|c| c.cell == want),
            "missing compliance cell {want}"
        );
    }
}

#[test]
fn stock_engine_is_compliant_in_every_section() {
    // The default engine appears exactly once per table, always in the
    // compliant cell: Always-probing is fine, /24 truncation is the
    // recommended prefix, Correct is the §6.3 target class.
    let report = run_matrix(Transport::Udp);
    assert!(report.passed(), "failures: {:?}", report.failures());
    let json = report.to_json();
    assert!(json.contains("\"cells\""));
    assert!(json.contains("6.2-prefix"));
}

/// The whole report as `conformance --skip-differential --out` writes it,
/// pinned by an FNV-1a 64 digest: whichever driver names produce the 20
/// cells, these are the bytes.
#[test]
fn matrix_report_json_is_pinned() {
    let json = run_matrix(Transport::Udp).to_json();
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(digest, 0x80a2_5445_b348_2c3c, "digest {digest:#018x}");
}

#[test]
fn formerr_on_ecs_scenario_triggers_withdrawal() {
    // An ECS-intolerant authoritative FORMERRs the first (ECS-bearing)
    // query; with the §7.1.3 downgrade enabled the engine re-asks without
    // the option and still answers the client.
    let scenario = Scenario::formerr_on_ecs();
    let mut up = scenario.build();
    let mut config = ResolverConfig::rfc_compliant(subject_addr());
    config.retry.withdraw_ecs_on_formerr = true;
    let mut r = Resolver::new(config);

    let client = IpAddr::V4(Ipv4Addr::new(100, 70, 3, 3));
    let q = Message::query(7, Question::a(host("www", &scenario)));
    let resp = r.resolve_msg(&q, client, SimTime::ZERO, &mut up);

    assert_eq!(resp.rcode, Rcode::NoError);
    assert_eq!(resp.answer_addrs().len(), 1);
    assert!(r.probing_state().marked_non_ecs);
    // Captured stream: the rejected ECS query, then the plain retry.
    let log = up.captured_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].ecs.is_some(), "first attempt carried ECS");
    assert!(log[1].ecs.is_none(), "retry withdrew the option");

    // Without the downgrade, the stock engine surfaces the FORMERR.
    let mut up = scenario.build();
    let mut r = Resolver::new(ResolverConfig::rfc_compliant(subject_addr()));
    let resp = r.resolve_msg(&q, client, SimTime::ZERO, &mut up);
    assert_ne!(resp.rcode, Rcode::NoError);
}
