//! Differential test: the in-process engine and the dnsd socket path must
//! give byte-identical answers on an identical seeded workload, with any
//! metric drift restricted to the whitelisted transport series.
//!
//! Needs loopback sockets; skips visibly (or fails under
//! `ECS_REQUIRE_LOOPBACK`) when the environment has none.

use conformance::differential::run_differential;
use resolver::Transport;

#[test]
fn engine_and_dnsd_agree_on_seeded_workload() {
    if !dnsd::testutil::require_loopback("engine_and_dnsd_agree_on_seeded_workload") {
        return;
    }
    let report =
        run_differential(10_000, 1, 1, Transport::Udp).expect("socket side bound on loopback");
    assert_eq!(report.queries, 10_000);
    assert_eq!(
        report.mismatched_answers, 0,
        "answers must be byte-identical"
    );
    let off_whitelist: Vec<_> = report.unexpected_deltas().collect();
    assert!(
        off_whitelist.is_empty(),
        "off-whitelist metric drift: {off_whitelist:?}"
    );
    assert!(report.pass());
    if report.socket_timeouts == 0 {
        // A loss-free loopback run must be *exactly* equal, not merely
        // whitelist-equal: identical caches and identical stats.
        assert!(report.deltas.is_empty(), "deltas: {:?}", report.deltas);
        assert!(report.stats_equal);
        assert!(report.cache_equal);
    }
}

#[test]
fn engine_and_multiworker_dnsd_agree_at_one_and_four_workers() {
    if !dnsd::testutil::require_loopback(
        "engine_and_multiworker_dnsd_agree_at_one_and_four_workers",
    ) {
        return;
    }
    // The worker count of the dnsd pool must be invisible in the answers:
    // the engine side is the oracle, and the socket side must match it
    // byte-for-byte whether one thread or four serve the shared socket.
    for workers in [1usize, 4] {
        let report = run_differential(4_000, 1, workers, Transport::Udp)
            .expect("socket side bound on loopback");
        assert_eq!(report.queries, 4_000);
        assert_eq!(
            report.mismatched_answers, 0,
            "answers must be byte-identical at {workers} worker(s)"
        );
        let off_whitelist: Vec<_> = report.unexpected_deltas().collect();
        assert!(
            off_whitelist.is_empty(),
            "off-whitelist metric drift at {workers} worker(s): {off_whitelist:?}"
        );
        assert!(report.pass(), "differential failed at {workers} worker(s)");
    }
}

#[test]
fn engine_and_dnsd_agree_across_the_workers_by_transport_matrix() {
    if !dnsd::testutil::require_loopback(
        "engine_and_dnsd_agree_across_the_workers_by_transport_matrix",
    ) {
        return;
    }
    // Workers {1, 4} × transport {UDP, TCP}: the transport carrying the
    // upstream exchanges must be as invisible in the answers as the worker
    // count. The TCP cells run a smaller workload — the accept loop serves
    // one connection at a time, so each query costs a real connect —
    // while UDP keeps the wide workload.
    for workers in [1usize, 4] {
        for (transport, queries) in [(Transport::Udp, 2_000), (Transport::Tcp, 400)] {
            let report = run_differential(queries, 1, workers, transport)
                .expect("socket side bound on loopback");
            let cell = format!("{workers} worker(s) over {transport}");
            assert_eq!(report.queries, queries);
            assert_eq!(
                report.mismatched_answers, 0,
                "answers must be byte-identical at {cell}"
            );
            let off_whitelist: Vec<_> = report.unexpected_deltas().collect();
            assert!(
                off_whitelist.is_empty(),
                "off-whitelist metric drift at {cell}: {off_whitelist:?}"
            );
            assert!(report.pass(), "differential failed at {cell}");
            if report.socket_timeouts == 0 {
                assert!(
                    report.deltas.is_empty(),
                    "loss-free run must be exactly equal at {cell}: {:?}",
                    report.deltas
                );
                assert!(report.stats_equal, "stats diverged at {cell}");
                assert!(report.cache_equal, "caches diverged at {cell}");
            }
        }
    }
}
