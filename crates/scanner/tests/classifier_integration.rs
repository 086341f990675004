//! Satellite: scanner-captured streams land in the same §6 oracle cells
//! as the conformance harness.
//!
//! The conformance harness drives `probing_workload` straight into a
//! `Resolver` and classifies the upstream log it captures. Here the same
//! workload travels the *scan path* instead — scanner node → open
//! forwarder → egress resolver → scenario authoritative, over `netsim`
//! with real latencies, retries, and the bounded window — and the
//! [`scanner::ScanCapture`] classification must land every strategy in
//! the exact cell the harness's matrix pins. That is the contract that
//! makes dataset-(ii) scan output a valid input to the §6.1 classifiers.

use conformance::harness::{probing_cells, probing_workload, subject_addr, SHORT_WINDOW_SECS};
use conformance::Scenario;
use netsim::SimDuration;
use resolver::{ProbingStrategy, ResolverConfig};
use scanner::{
    run_scan, ForwarderChainSpec, ForwarderHealth, Probe, ProbeTarget, ScanCapture, ScanConfig,
};

/// Runs the conformance probing workload through the scan path against a
/// subject egress configured with `strategy`, returning the capture.
fn scan_with_strategy(strategy: ProbingStrategy, seed: u64) -> (ScanCapture, scanner::ScanReport) {
    let scenario = Scenario::non_whitelisted();
    // The §6 workload: 240 probe queries on a 30 s cadence plus 60 site
    // queries on a 97 s lattice, scheduled onto the scanner's window via
    // `not_before`. The workload's client addresses stay behind the
    // forwarder — the classifiers only read the egress-to-auth stream.
    let workload = probing_workload(&scenario);
    let events = workload.len();
    // Every name the workload will ask, pre-registered in the scenario
    // authoritative (it cannot auto-materialise once built).
    let mut names: Vec<_> = workload.iter().map(|(_, n, _)| n.clone()).collect();
    names.sort();
    names.dedup();

    let cfg = ScanConfig {
        // Window holds the whole scheduled workload; high per-AS rate so
        // the limiter never perturbs the §6 timing lattice.
        window: events + 8,
        rate_per_sec: 10_000,
        burst: 64,
        zone: scenario.apex.to_string(),
        ..ScanConfig::default()
    };
    let subject = ResolverConfig {
        probing: strategy,
        ..ResolverConfig::rfc_compliant(subject_addr())
    };
    let mut world = ForwarderChainSpec::new(seed)
        .group(1, ForwarderHealth::Healthy, 64500)
        .egress(subject)
        .with_auth(scenario.build_auth(&names))
        .build(cfg, |targets: &[ProbeTarget]| {
            let target = targets[0];
            let mut events = workload.into_iter();
            move || {
                events.next().map(|(at, name, _client)| Probe {
                    target,
                    qname: Some(name),
                    not_before: at,
                })
            }
        });
    let mut capture = ScanCapture::new(4096);
    let report = run_scan(&mut world, SimDuration::from_secs(600), &mut capture);
    (capture, report)
}

#[test]
fn scan_streams_land_in_the_conformance_oracle_cells() {
    for (cell, strategy, expected) in probing_cells() {
        let (capture, report) = scan_with_strategy(strategy, 71);
        assert!(
            report.reconciled,
            "[{cell}] scan must reconcile: {report:?}"
        );
        assert!(!report.stuck, "[{cell}] scan stalled: {report:?}");
        assert_eq!(
            report.stats.probes, 300,
            "[{cell}] whole workload must be probed"
        );
        assert_eq!(
            report.stats.answered, 300,
            "[{cell}] healthy chain answers everything: {report:?}"
        );

        let verdicts = capture.classify(SHORT_WINDOW_SECS);
        assert_eq!(
            verdicts.len(),
            1,
            "[{cell}] exactly one subject resolver reaches the auth"
        );
        let (resolver, verdict) = verdicts.iter().next().unwrap();
        assert_eq!(
            *resolver,
            subject_addr(),
            "[{cell}] the egress is the classified party"
        );
        assert_eq!(
            *verdict, expected,
            "[{cell}] scan-path stream must classify like the harness"
        );
    }
}

/// The scan JSON of every oracle cell at seed 71, pinned by an FNV-1a 64
/// digest: counters, resolver key and the verdict's snake-case wire name.
#[test]
fn scan_json_per_cell_is_pinned() {
    let measured: Vec<(&str, u64)> = probing_cells()
        .into_iter()
        .map(|(cell, strategy, _)| {
            let (capture, _) = scan_with_strategy(strategy, 71);
            let json = capture.to_json(SHORT_WINDOW_SECS);
            let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (cell, digest)
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(cell, digest)| format!("        (\"{cell}\", 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(
        measured,
        [
            ("always", 0x28affab6ce18f2ca),
            ("hostname-probe", 0xb966c43d2b24be03),
            ("interval-loopback", 0x06a9fcde8361746e),
            ("on-miss", 0x6572aec5930c7a2f),
            ("mixed", 0xdc101534848db359),
            ("no-ecs", 0x029d60ddae923aee),
        ],
        "measured digests:\n{table}"
    );
}

#[test]
fn scan_path_classification_is_seed_invariant() {
    // The §6 verdict is a property of the subject's policy, not of the
    // world's latency draws: a different simulation seed (different link
    // jitter) must land every cell in the same oracle class.
    for (cell, strategy, expected) in probing_cells() {
        let (capture, report) = scan_with_strategy(strategy, 1213);
        assert!(
            report.reconciled,
            "[{cell}] scan must reconcile: {report:?}"
        );
        let verdicts = capture.classify(SHORT_WINDOW_SECS);
        assert_eq!(
            verdicts.get(&subject_addr()),
            Some(&expected),
            "[{cell}] verdict must not depend on the seed"
        );
    }
}
