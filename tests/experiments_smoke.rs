//! Smoke tests: every experiment runs at reduced scale and its qualitative
//! claims hold. (Full-scale runs are exercised by the `ecs-study` binary
//! and the benches.)

use ecs_study::experiments::*;

#[test]
fn probing_scaled() {
    let (out, report) = probing::run(&probing::Config {
        scale: 80,
        queries_per_resolver: 220,
        ..probing::Config::default()
    });
    assert!(out.accuracy >= 0.75, "{report}");
}

#[test]
fn table1_scaled() {
    let (_, report) = table1::run(&table1::Config {
        scale: 30,
        ..table1::Config::default()
    });
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

#[test]
fn hidden_scaled() {
    let mut config = hidden::Config::default();
    config.world.forwarders = 600;
    let (out, report) = hidden::run(&config);
    assert_eq!(out.populations.len(), 2);
    for pop in &out.populations {
        assert!(pop.report.total() > 0, "{}\n{report}", pop.label);
    }
}

#[test]
fn minprefix_scaled() {
    let (out, report) = minprefix::run(&minprefix::Config {
        probes: 150,
        ..minprefix::Config::default()
    });
    assert_eq!(out.cdns[0].min_usable, 24, "{report}");
    assert_eq!(out.cdns[1].min_usable, 21, "{report}");
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

/// The rendered reports of the experiments that share a measurement
/// (fig2/fig3, fig4/fig5/hidden, fig6/fig7/minprefix), one reduced config
/// each, pinned byte for byte: whatever computes them, they print this.
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
    let mut hidden_config = hidden::Config::default();
    hidden_config.world.forwarders = 600;
    let rendered = [
        ("fig2", fig2::run(&population).1),
        ("fig3", fig3::run(&fig3_config).1),
        ("fig4", fig45::run(&fig4).1),
        ("fig5", fig45::run(&fig5).1),
        ("hidden", hidden::run(&hidden_config).1),
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
        (
            "minprefix",
            minprefix::run(&minprefix::Config {
                probes: 150,
                ..minprefix::Config::default()
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
            ("hidden", 0x0d1e15cac17809f9),
            ("fig6", 0xae887fced4cbac39),
            ("fig7", 0x81f7b0700953216a),
            ("minprefix", 0x69defb6ba7e69dfd),
        ],
    );
}

/// `faults` under capture: the report with its latency row, the JSON
/// snapshot and the trace lines, pinned byte for byte.
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
            ("report", 0x7d5237730726fbad),
            ("metrics_json", 0x286f4909761c894a),
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
            ("netsim_metrics_json", 0x6a028a5a640d3278),
        ],
    );
}

#[test]
fn table2_runs() {
    let (_, report) = table2::run(&table2::Config::default());
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
    let (out, report) = discovery::run(&discovery::Config {
        scale: 10,
        ..discovery::Config::default()
    });
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
        "hidden",
        "minprefix",
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
