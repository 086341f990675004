//! Smoke tests: every experiment runs at reduced scale and its qualitative
//! claims hold. (Full-scale runs are exercised by the `ecs-study` binary
//! and the benches.)

use ecs_study::experiments::*;

#[test]
fn probing_scaled() {
    let (out, report) = probing::run(&probing::Config {
        scale: 80,
        queries_per_resolver: 220,
    });
    assert!(out.accuracy >= 0.75, "{report}");
}

#[test]
fn table1_scaled() {
    let (_, report) = table1::run(&table1::Config { scale: 30 });
    assert!(report.all_hold(), "{report}");
}

#[test]
fn cache_behavior_scaled() {
    let (out, report) = cache_behavior::run(&cache_behavior::Config { scale: 4 });
    assert!(out.accuracy >= 0.99, "{report}");
}

#[test]
fn fig1_scaled() {
    let config = fig1::Config {
        stream: workload::CdnStreamGen {
            resolvers: 12,
            subnets_per_resolver: 40,
            hostnames: 100,
            queries: 150_000,
            duration: netsim::SimDuration::from_secs(600),
            ..workload::CdnStreamGen::default()
        },
        ttls: vec![20, 60],
        parallelism: 4,
        crosscheck_records: 40_000,
    };
    let (out, _) = fig1::run(&config, &mut ecs_study::Session::new(false));
    assert!(out.series[0].cdf.quantile(0.5) > 1.3);
    assert!(out.series[1].cdf.max() >= out.series[0].cdf.max());
    assert!(out.crosscheck_ok, "streaming must match materialized");
}

#[test]
fn fig2_and_fig3_scaled() {
    let stream = workload::AllNamesStreamGen {
        v4_subnets: 250,
        v6_subnets: 50,
        slds: 250,
        queries: 150_000,
        ..workload::AllNamesStreamGen::default()
    };
    let (out2, _) = fig2::run(&fig2::Config {
        stream: stream.clone(),
        fractions: vec![20, 100],
        samples: 2,
        parallelism: 2,
    });
    assert!(out2.points[1].1 > out2.points[0].1, "blow-up grows");
    let (out3, _) = fig3::run(&fig3::Config {
        stream,
        fractions: vec![100],
        samples: 2,
        parallelism: 2,
    });
    let (_, no_ecs, with_ecs) = out3.points[0];
    assert!(with_ecs < no_ecs * 0.7, "{no_ecs} vs {with_ecs}");
}

/// FNV-1a 64 over a rendered artifact.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares every `(label, digest)` against its pin and, on a mismatch,
/// prints the whole measured table so it can be pasted back.
fn assert_pinned(measured: &[(&str, u64)], pinned: &[(&str, u64)]) {
    let table: String = measured
        .iter()
        .map(|(label, digest)| format!("        (\"{label}\", 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(measured, pinned, "measured digests:\n{table}");
}

/// The rendered reports of the figures that share a measurement
/// (fig2/fig3, fig4/fig5) and of the two §8.3 sweeps (fig6, fig7), one
/// reduced config each, pinned byte for byte: whatever computes them, they
/// print this.
#[test]
fn shared_measurement_reports_are_pinned() {
    let population = fig2::Config {
        stream: workload::AllNamesStreamGen {
            v4_subnets: 250,
            v6_subnets: 50,
            slds: 250,
            queries: 150_000,
            ..workload::AllNamesStreamGen::default()
        },
        fractions: vec![20, 60, 100],
        samples: 2,
        parallelism: 2,
    };
    let fig3_config = fig3::Config {
        stream: population.stream.clone(),
        fractions: population.fractions.clone(),
        samples: population.samples,
        parallelism: population.parallelism,
    };
    let mut fig4 = fig45::Config::fig4();
    fig4.world.forwarders = 600;
    let mut fig5 = fig45::Config::fig5();
    fig5.world.forwarders = 600;
    let rendered = [
        ("fig2", fig2::run(&population).1),
        ("fig3", fig3::run(&fig3_config).1),
        ("fig4", fig45::run(&fig4).1),
        ("fig5", fig45::run(&fig5).1),
        (
            "fig6",
            fig67::run(&fig67::Config {
                probes: 150,
                ..fig67::Config::fig6()
            })
            .1,
        ),
        (
            "fig7",
            fig67::run(&fig67::Config {
                probes: 150,
                ..fig67::Config::fig7()
            })
            .1,
        ),
    ];
    let measured: Vec<(&str, u64)> = rendered
        .iter()
        .map(|(id, report)| (*id, fnv(report.to_string().as_bytes())))
        .collect();
    assert_pinned(
        &measured,
        &[
            ("fig2", 0x6ae0d0cdad2e6a3d),
            ("fig3", 0xec25af6c4fdb7eec),
            ("fig4", 0xdfc6e018dd172018),
            ("fig5", 0x3694b43c69a400e6),
            // Re-pinned when each §8.3 figure gained its "minimum usable
            // prefix length" row and fig7 began sweeping /16–/24 like fig6.
            ("fig6", 0xc4b53ad9278842fa),
            ("fig7", 0xfde4a94eb33f54f2),
        ],
    );
}

/// The three §6 class-table reports at the smoke tests' reduced configs,
/// pinned byte for byte: however the tables are declared, they print this.
#[test]
fn section6_reports_are_pinned() {
    let rendered = [
        (
            "probing",
            probing::run(&probing::Config {
                scale: 80,
                queries_per_resolver: 220,
            })
            .1,
        ),
        ("table1", table1::run(&table1::Config { scale: 30 }).1),
        (
            "cache_behavior",
            cache_behavior::run(&cache_behavior::Config { scale: 4 }).1,
        ),
    ];
    let measured: Vec<(&str, u64)> = rendered
        .iter()
        .map(|(id, report)| (*id, fnv(report.to_string().as_bytes())))
        .collect();
    assert_pinned(
        &measured,
        &[
            ("probing", 0x4ab124435a58174a),
            ("table1", 0xb5c53ca1b089db2a),
            ("cache_behavior", 0xd7dfb583e4d60c08),
        ],
    );
}

/// `faults` under capture: the report with its latency row and its
/// transport-ladder rows, the JSON snapshot and the trace lines (the loss
/// cells' alone: the ladder cells record nothing), pinned byte for byte.
#[test]
fn faults_telemetry_artifacts_are_pinned() {
    let mut session = ecs_study::Session::new(true);
    let config = faults::Config {
        queries: 80,
        loss_rates: vec![0.0, 0.5, 0.9],
        ..faults::Config::default()
    };
    let (_, report) = faults::run(&config, &mut session);
    let telemetry = session.take_telemetry().expect("capturing");
    let measured = [
        ("report", fnv(report.to_string().as_bytes())),
        ("metrics_json", fnv(telemetry.snapshot.to_json().as_bytes())),
        ("trace_jsonl", fnv(telemetry.trace_jsonl.as_bytes())),
    ];
    assert_pinned(
        &measured,
        &[
            ("report", 0xdfc08227d7841ec4),
            ("metrics_json", 0xdebedf9a73e22230),
            ("trace_jsonl", 0xc7e36e2eda628a15),
        ],
    );
}

/// The `scanner_*` and `netsim_*` series after one seeded 600-probe scan
/// over healthy, lossy, dead and refusing forwarders with metrics on,
/// pinned byte for byte: however the counters are kept, a snapshot reads
/// this.
#[test]
fn scan_metrics_snapshots_are_pinned() {
    use scanner::{ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanCapture, ScanConfig};
    let cfg = ScanConfig {
        window: 16,
        rate_per_sec: 50,
        burst: 16,
        ..ScanConfig::default()
    };
    let mut world = ForwarderChainSpec::new(7)
        .group(14, ForwarderHealth::Healthy, 64500)
        .group(4, ForwarderHealth::Lossy(0.25), 64501)
        .group(3, ForwarderHealth::Dead, 64502)
        .group(3, ForwarderHealth::Refusing, 64503)
        .build(cfg, |targets| RoundRobinFeed::new(targets.to_vec(), 600));
    world.scanner_mut().enable_metrics();
    world.sim.enable_metrics();
    let mut capture = ScanCapture::new(64);
    let report = scanner::run_scan(&mut world, netsim::SimDuration::from_secs(60), &mut capture);
    assert!(report.reconciled, "{report:?}");
    let s = report.stats;
    assert!(
        s.refused > 0 && s.retries > 0 && s.retry_exhausted > 0 && s.shed_breaker > 0,
        "the scan must move every door it pins: {s:?}"
    );
    let scanner_json = world.scanner_mut().metrics_snapshot().to_json();
    let netsim_json = world.sim.metrics_snapshot().expect("enabled").to_json();
    let measured = [
        ("scanner_metrics_json", fnv(scanner_json.as_bytes())),
        ("netsim_metrics_json", fnv(netsim_json.as_bytes())),
    ];
    assert_pinned(
        &measured,
        &[
            ("scanner_metrics_json", 0x7611f5f70255a2d2),
            ("netsim_metrics_json", 0x63b864a1d06f215e),
        ],
    );
}

/// The resolver's default upstream timeouts in µs, through the saturated
/// tail (2 s × 2^44 no longer fits a `u64` of microseconds).
#[test]
fn retry_policy_timeouts_are_pinned() {
    let policy = resolver::RetryPolicy::default();
    let measured: Vec<(u8, u64)> = (0..=8)
        .chain([44, 45, 60, 255])
        .map(|a| (a, policy.timeout_for(a).as_micros()))
        .collect();
    assert_eq!(
        measured,
        [
            (0, 2_000_000),
            (1, 4_000_000),
            (2, 8_000_000),
            (3, 16_000_000),
            (4, 32_000_000),
            (5, 64_000_000),
            (6, 128_000_000),
            (7, 256_000_000),
            (8, 512_000_000),
            (44, u64::MAX),
            (45, u64::MAX),
            (60, u64::MAX),
            (255, u64::MAX),
        ]
    );
}

/// The scanner's default per-attempt base timeouts, through the
/// multiplier's `checked_pow` saturation at attempt 32.
#[test]
fn retry_budget_timeouts_are_pinned() {
    let budget = scanner::RetryBudget::default();
    let measured: Vec<u64> = (0..=40)
        .map(|a| budget.timeout_for(a).as_micros())
        .collect();
    // 2 s doubled per attempt until 2^32 overflows the `u32` multiplier,
    // which then saturates at `u32::MAX`.
    let pinned: Vec<u64> = (0..=40)
        .map(|a| {
            if a < 32 {
                2_000_000 << a
            } else {
                8_589_934_590_000_000
            }
        })
        .collect();
    assert_eq!(measured, pinned);
}

/// The default transport model's handshake ledger at 40 ms RTT: every
/// cost it returns and the counters it ends with.
#[test]
fn transport_model_ledger_is_pinned() {
    use netsim::{SimDuration, SimTime, Transport, TransportModel, TransportStats};
    let rtt = SimDuration::from_millis(40);
    let mut model = TransportModel::default();
    let steps = [
        (Transport::Tcp, 100), // cold
        (Transport::Tcp, 105), // 5 s later: warm
        (Transport::Tcp, 116), // 11 s idle: cold again
        (Transport::Dot, 117), // cold, full TLS
        (Transport::Dot, 128), // 11 s idle: resumed TLS
    ];
    let costs: Vec<u64> = steps
        .iter()
        .map(|&(t, s)| {
            model
                .exchange_cost(t, rtt, SimTime::from_secs(s))
                .as_micros()
        })
        .collect();
    assert_eq!(costs, [40_000, 0, 40_000, 80_000, 40_000]);
    assert_eq!(
        model.stats(),
        TransportStats {
            exchanges: [0, 3, 2],
            handshakes: 4,
            resumed_handshakes: 1,
            reused_connections: 1,
            handshake_rtts: 5,
            fragments_dropped: 0,
        }
    );
}

/// The default latency model: three jitter-free one-way delays, bit for
/// bit, and a digest of 64 seeded jittered samples.
#[test]
fn latency_model_is_pinned() {
    use rand::SeedableRng;
    let m = netsim::LatencyModel::default();
    let at = |name| netsim::geo::city(name).expect("known city").pos;
    let one_way: Vec<(&str, u64)> = [
        ("Cleveland-Chicago", "Cleveland", "Chicago"),
        ("Cleveland-Zurich", "Cleveland", "Zurich"),
        ("Tokyo-Sydney", "Tokyo", "Sydney"),
    ]
    .into_iter()
    .map(|(label, a, b)| (label, m.one_way_ms(&at(a), &at(b)).to_bits()))
    .collect();
    // `sample` returns `Option<SimDuration>` or `SimDuration`; both convert.
    fn micros(d: impl Into<Option<netsim::SimDuration>>) -> u64 {
        d.into()
            .expect("the default model loses nothing")
            .as_micros()
    }
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2019);
    let (a, b) = (at("Cleveland"), at("Zurich"));
    let samples: Vec<u8> = (0..64)
        .flat_map(|_| micros(m.sample(&a, &b, &mut rng)).to_le_bytes())
        .collect();
    let mut measured = one_way;
    measured.push(("samples", fnv(&samples)));
    assert_pinned(
        &measured,
        &[
            ("Cleveland-Chicago", 0x40140cebc297ae6b),
            ("Cleveland-Zurich", 0x4048ccd236b17924),
            ("Tokyo-Sydney", 0x404c8526b770bd7b),
            ("samples", 0xe0bdd05e9b2c8b5f),
        ],
    );
}

#[test]
fn table2_runs() {
    let (_, report) = table2::run();
    assert!(report.all_hold(), "{report}");
}

#[test]
fn fig45_scaled() {
    let mut config = fig45::Config::fig4();
    config.world.forwarders = 600;
    let (_, report) = fig45::run(&config);
    assert!(report.all_hold(), "{report}");
}

#[test]
fn fig67_scaled() {
    let (out6, _) = fig67::run(&fig67::Config {
        probes: 150,
        ..fig67::Config::fig6()
    });
    assert!(out6.by_length[&23].median_ms > out6.by_length[&24].median_ms * 2.0);
    let (out7, _) = fig67::run(&fig67::Config {
        probes: 150,
        ..fig67::Config::fig7()
    });
    assert!(out7.by_length[&20].median_ms > out7.by_length[&21].median_ms * 2.0);
}

#[test]
fn fig8_runs() {
    let (out, report) = fig8::run(&fig8::Config::default());
    assert!(out.apex_total_ms > out.www_handshake_ms * 3.0, "{report}");
}

#[test]
fn discovery_runs() {
    let (out, report) = discovery::run(&discovery::Config { scale: 10 });
    assert!(
        out.overlap.passive_total() > out.overlap.active_total(),
        "{report}"
    );
}

#[test]
fn registry_ids_are_unique_and_complete() {
    let reg = registry();
    let mut ids: Vec<&str> = reg.iter().map(|(id, ..)| *id).collect();
    ids.sort();
    let mut deduped = ids.clone();
    deduped.dedup();
    assert_eq!(ids, deduped);
    for required in [
        "probing",
        "table1",
        "cache-behavior",
        "fig1",
        "fig2",
        "fig3",
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "discovery",
    ] {
        assert!(ids.contains(&required), "missing {required}");
    }
}

#[test]
fn design_doc_indexes_every_experiment() {
    // DESIGN.md's per-experiment index must mention every registered
    // experiment id, so the documentation cannot silently drift.
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at workspace root");
    for (id, ..) in registry() {
        assert!(
            design.contains(&format!("`{id}`")),
            "DESIGN.md does not index experiment '{id}'"
        );
    }
}

#[test]
fn experiments_doc_exists_with_core_sections() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md at workspace root");
    for needle in [
        "Table 1",
        "Table 2",
        "Figure 1",
        "Figure 3",
        "Figures 4–5",
        "Figures 6–7",
        "Figure 8",
        "Extension experiments",
    ] {
        assert!(text.contains(needle), "EXPERIMENTS.md missing '{needle}'");
    }
}
