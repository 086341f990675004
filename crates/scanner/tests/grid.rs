//! The robustness grid: forwarder population × loss × per-AS rate limit,
//! each cell a seeded scan over healthy, lossy, dead and refusing
//! forwarders in four ASes. Every cell reconciles, never stalls and never
//! exceeds its window, and its exact counters are pinned: however the
//! pipeline is kept, these eight scans count this.

use netsim::SimDuration;
use scanner::{run_scan_with, ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanConfig};

const PROBES: u64 = 2_000;
const WINDOW: usize = 64;

/// Splits a population across the four health groups, one AS each:
/// 60% healthy, 20% lossy, 10% dead, 10% refusing.
fn groups(population: usize, loss: f64) -> [(usize, ForwarderHealth, u32); 4] {
    let dead = (population / 10).max(1);
    let refusing = (population / 10).max(1);
    let lossy = (population / 5).max(1);
    let healthy = population.saturating_sub(dead + refusing + lossy).max(1);
    [
        (healthy, ForwarderHealth::Healthy, 64500),
        (lossy, ForwarderHealth::Lossy(loss), 64501),
        (dead, ForwarderHealth::Dead, 64502),
        (refusing, ForwarderHealth::Refusing, 64503),
    ]
}

#[test]
fn every_cell_reconciles_and_counts_what_it_is_pinned_to() {
    // (population, loss, rate) → probes, answered, retry-exhausted,
    // shed by rate limit, shed by breaker, breaker opens, max in flight.
    let pinned: [((usize, f64, u64), [u64; 7]); 8] = [
        ((24, 0.0, 50), [2000, 1675, 64, 0, 261, 4, 64]),
        ((24, 0.0, 400), [2000, 1677, 64, 0, 259, 4, 64]),
        ((24, 0.25, 50), [2000, 1648, 81, 0, 271, 5, 64]),
        ((24, 0.25, 400), [2000, 1654, 79, 0, 267, 8, 64]),
        ((72, 0.0, 50), [2000, 1643, 72, 0, 285, 14, 64]),
        ((72, 0.0, 400), [2000, 1644, 70, 0, 286, 14, 64]),
        ((72, 0.25, 50), [2000, 1613, 94, 0, 293, 15, 64]),
        ((72, 0.25, 400), [2000, 1615, 85, 0, 300, 15, 64]),
    ];
    let (mut opens, mut captured) = (0, 0);
    for (seed, ((population, loss, rate), expected)) in (22..).zip(pinned) {
        let mut spec = ForwarderChainSpec::new(seed);
        for (count, health, asn) in groups(population, loss) {
            spec = spec.group(count, health, asn);
        }
        let cfg = ScanConfig {
            window: WINDOW,
            rate_per_sec: rate,
            burst: 16,
            ..ScanConfig::default()
        };
        let mut world = spec.build(cfg, |targets| RoundRobinFeed::new(targets.to_vec(), PROBES));
        let report = run_scan_with(&mut world, SimDuration::from_secs(60), |log| {
            captured += log.len()
        });
        let cell = format!("pop={population} loss={loss:.2} rate={rate}/s");
        assert!(report.reconciled && !report.stuck, "{cell}: {report:?}");
        let s = report.stats;
        assert!(s.max_in_flight <= WINDOW as u64, "{cell}: {s:?}");
        let measured = [
            s.probes,
            s.answered,
            s.retry_exhausted,
            s.shed_rate_limit,
            s.shed_breaker,
            s.breaker_opens,
            s.max_in_flight,
        ];
        assert_eq!(measured, expected, "{cell}");
        opens += s.breaker_opens;
    }
    assert!(opens > 0, "breakers trip on the dead and refusing groups");
    assert!(captured > 0, "probes reach the authoritative");
}
