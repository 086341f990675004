//! Streaming-vs-materialized equivalence for the fig1–fig3 pipelines, plus
//! golden-file pins for one small hidden-resolver cell and one
//! minimum-prefix cell.
//!
//! The fig tests are the refactor safety net the tentpole rides on: every
//! figure-shaped configuration must produce *bit-identical*
//! [`CacheSimResult`]s whether the trace is materialized first or streamed
//! shard-by-shard, at parallelism 1, 4, and 8. The golden files pin the
//! §8.2/§8.3 analysis outputs for fixed seeds, so refactors of the
//! streaming engine cannot silently shift the pitfall experiments either.

use analysis::{
    CacheSimConfig, CacheSimulator, ConnectTimeSample, HiddenAnalysis, MappingQuality,
    PrefixLengthTable,
};
use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question};
use netsim::geo::city;
use netsim::{LatencyModel, SimDuration, SimTime};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use topology::{CdnFootprint, EdgeServerSpec, World, WorldConfig};
use workload::stream::{NameTable, StreamRecord};
use workload::{AllNamesStreamGen, CdnStreamGen, TraceStreamSource, WorkloadModel};

fn assert_stream_equals_materialized<M: workload::WorkloadModel>(
    source: &workload::TraceStreamSource<M>,
    config: &CacheSimConfig,
    label: &str,
) {
    let trace = source.materialize();
    for parallelism in [1usize, 4, 8] {
        let sim = CacheSimulator::new(CacheSimConfig {
            parallelism,
            ..config.clone()
        });
        let streamed = sim.run_streaming(source);
        let materialized = sim.run(&trace);
        assert_eq!(
            streamed.per_resolver, materialized.per_resolver,
            "{label} parallelism={parallelism}"
        );
        assert!(
            !streamed.per_resolver.is_empty(),
            "{label}: empty result proves nothing"
        );
    }
}

#[test]
fn fig1_shape_streaming_is_bit_identical() {
    // Figure 1: CDN trace, TTL sweep via ttl_override.
    let source = CdnStreamGen {
        resolvers: 24,
        subnets_per_resolver: 12,
        hostnames: 80,
        queries: 60_000,
        duration: SimDuration::from_secs(900),
        ttl: 20,
        seed: 0,
    }
    .source();
    for ttl in [20u32, 60] {
        let config = CacheSimConfig {
            ttl_override: Some(ttl),
            ..CacheSimConfig::default()
        };
        assert_stream_equals_materialized(&source, &config, &format!("fig1 ttl={ttl}"));
    }
}

#[test]
fn fig2_shape_streaming_is_bit_identical() {
    // Figure 2: All-Names trace, client-fraction sampling sweep.
    let source = AllNamesStreamGen {
        v4_subnets: 120,
        v6_subnets: 30,
        clients_per_subnet: 4,
        slds: 120,
        hostnames_per_sld: 4,
        queries: 50_000,
        ..AllNamesStreamGen::default()
    }
    .source();
    for pct in [30u8, 100] {
        let config = CacheSimConfig {
            sample_pct: pct,
            sample_seed: 1,
            ..CacheSimConfig::default()
        };
        assert_stream_equals_materialized(&source, &config, &format!("fig2 pct={pct}"));
    }
}

#[test]
fn fig3_shape_streaming_hit_rates_match() {
    // Figure 3 consumes the same runs as Figure 2 but reads hit rates;
    // pin the aggregate rates across the parallelism sweep too.
    let source = AllNamesStreamGen {
        v4_subnets: 100,
        v6_subnets: 25,
        clients_per_subnet: 3,
        slds: 100,
        hostnames_per_sld: 4,
        queries: 40_000,
        ..AllNamesStreamGen::default()
    }
    .source();
    let trace = source.materialize();
    let base = CacheSimulator::new(CacheSimConfig::default()).run(&trace);
    for parallelism in [1usize, 4, 8] {
        let sim = CacheSimulator::new(CacheSimConfig {
            parallelism,
            ..CacheSimConfig::default()
        });
        let streamed = sim.run_streaming(&source);
        assert_eq!(streamed.per_resolver, base.per_resolver);
        assert!(
            (streamed.overall_hit_rate_no_ecs() - base.overall_hit_rate_no_ecs()).abs() == 0.0
                && (streamed.overall_hit_rate_ecs() - base.overall_hit_rate_ecs()).abs() == 0.0,
            "hit rates must be bit-identical, parallelism={parallelism}"
        );
    }
}

#[test]
fn streaming_snapshot_equals_materialized_snapshot() {
    let source = CdnStreamGen {
        resolvers: 10,
        subnets_per_resolver: 6,
        hostnames: 60,
        queries: 20_000,
        duration: SimDuration::from_secs(600),
        ttl: 20,
        seed: 5,
    }
    .source();
    let trace = source.materialize();
    for parallelism in [1usize, 4, 8] {
        let sim = CacheSimulator::new(CacheSimConfig {
            parallelism,
            ..CacheSimConfig::default()
        });
        let stream_snap = sim.run_streaming(&source).to_metrics();
        let mat_snap = sim.run(&trace).to_metrics();
        assert_eq!(stream_snap, mat_snap, "parallelism={parallelism}");
    }
}

/// A three-resolver stream for the edges the one shard loop must get right
/// whichever feed drives it.
fn edge_gen(queries: u64) -> CdnStreamGen {
    CdnStreamGen {
        resolvers: 3,
        subnets_per_resolver: 4,
        hostnames: 20,
        queries,
        duration: SimDuration::from_secs(120),
        ttl: 20,
        seed: 9,
    }
}

fn sim_at(parallelism: usize) -> CacheSimulator {
    CacheSimulator::new(CacheSimConfig {
        parallelism,
        ..CacheSimConfig::default()
    })
}

#[test]
fn both_feeds_return_nothing_for_zero_records() {
    // The stream still knows its three resolvers (so it shards three ways
    // and skips all of them); the empty trace knows none.
    let source = edge_gen(0).source();
    let trace = source.materialize();
    assert!(trace.is_empty());
    for parallelism in [1usize, 4] {
        let sim = sim_at(parallelism);
        assert!(sim.run_streaming(&source).per_resolver.is_empty());
        assert!(sim.run(&trace).per_resolver.is_empty());
    }
}

#[test]
fn both_feeds_agree_with_more_workers_than_resolvers_and_one_record_chunks() {
    let source = edge_gen(2_000).source().with_chunk_size(1);
    let trace = source.materialize();
    let reference = sim_at(1).run(&trace);
    assert_eq!(reference.per_resolver.len(), 3);
    for parallelism in [1usize, 3, 64] {
        let sim = sim_at(parallelism);
        assert_eq!(
            sim.run_streaming(&source).per_resolver,
            reference.per_resolver,
            "streaming feed, parallelism={parallelism}"
        );
        assert_eq!(
            sim.run(&trace).per_resolver,
            reference.per_resolver,
            "materialized feed, parallelism={parallelism}"
        );
    }
}

/// A model that counts what a consumer asks of it, and panics when asked
/// for record `panic_at`.
struct Observed<M> {
    inner: M,
    records: AtomicU64,
    filters: AtomicU64,
    panic_at: u64,
}

impl<M> Observed<M> {
    fn new(inner: M, panic_at: u64) -> Self {
        Observed {
            inner,
            records: AtomicU64::new(0),
            filters: AtomicU64::new(0),
            panic_at,
        }
    }
}

impl<M: WorkloadModel> WorkloadModel for Observed<M> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn total(&self) -> u64 {
        self.inner.total()
    }

    fn resolver_addrs(&self) -> &[IpAddr] {
        self.inner.resolver_addrs()
    }

    fn names(&self) -> &NameTable {
        self.inner.names()
    }

    fn resolver_of(&self, i: u64) -> u32 {
        self.filters.fetch_add(1, Ordering::Relaxed);
        self.inner.resolver_of(i)
    }

    fn record(&self, i: u64) -> StreamRecord {
        assert_ne!(i, self.panic_at, "record {i} is set to panic");
        self.records.fetch_add(1, Ordering::Relaxed);
        self.inner.record(i)
    }
}

/// Ten resolvers, so every parallelism up to 8 really runs that many
/// shards; 4,321 records, so 1,000-record chunks end on a partial one.
fn ten_resolver_gen() -> CdnStreamGen {
    CdnStreamGen {
        resolvers: 10,
        subnets_per_resolver: 6,
        hostnames: 40,
        queries: 4_321,
        duration: SimDuration::from_secs(300),
        ttl: 20,
        seed: 4,
    }
}

#[test]
fn run_streaming_generates_each_index_once_and_never_filters() {
    for parallelism in [1usize, 2, 4, 8] {
        let source = TraceStreamSource::new(Observed::new(ten_resolver_gen().build(), u64::MAX))
            .with_chunk_size(1_000);
        let result = sim_at(parallelism).run_streaming(&source);
        assert_eq!(result.per_resolver.len(), 10);
        let model = source.model();
        assert_eq!(
            model.records.load(Ordering::Relaxed),
            source.total(),
            "record calls, parallelism={parallelism}"
        );
        assert_eq!(
            model.filters.load(Ordering::Relaxed),
            0,
            "resolver_of calls, parallelism={parallelism}"
        );
    }
}

#[test]
fn a_worker_that_panics_ends_the_run_in_a_panic_not_a_hang() {
    // Chunk [2000, 3000) splits four ways; record 2,500 opens the third
    // worker's slice, so it panics while the other three generate.
    let source = TraceStreamSource::new(Observed::new(ten_resolver_gen().build(), 2_500))
        .with_chunk_size(1_000);
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let result = sim_at(4).run_streaming(&source);
        done.send(result.per_resolver.len())
            .expect("the test waits for the send");
    });
    // A panic drops `done` unsent; a hang sends nothing and drops nothing.
    assert_eq!(
        finished.recv_timeout(Duration::from_secs(10)),
        Err(RecvTimeoutError::Disconnected),
        "the run must end, and in a panic"
    );
    assert!(run.join().is_err(), "the panic must reach the caller");
}

/// Streams `source` at every chunk split — one record, fewer records than
/// shards, a few chunks with a partial last one, one chunk holding the
/// whole stream — and parallelism {2, 3, 8}, against the materialized
/// replay.
fn assert_chunk_splits_match<M: WorkloadModel>(
    source: &TraceStreamSource<M>,
    config: &CacheSimConfig,
    label: &str,
) {
    let reference = CacheSimulator::new(config.clone()).run(&source.materialize());
    assert!(!reference.per_resolver.is_empty(), "{label}: empty trace");
    for chunk in [1, 7, 1_000, source.total() as usize + 1] {
        let source = source.clone().with_chunk_size(chunk);
        for parallelism in [2usize, 3, 8] {
            let sim = CacheSimulator::new(CacheSimConfig {
                parallelism,
                ..config.clone()
            });
            assert_eq!(
                sim.run_streaming(&source).per_resolver,
                reference.per_resolver,
                "{label} chunk={chunk} parallelism={parallelism}"
            );
        }
    }
}

#[test]
fn chunk_splits_at_every_edge_match_materialized() {
    assert_chunk_splits_match(
        &ten_resolver_gen().source(),
        &CacheSimConfig::default(),
        "fig1",
    );
    let all_names = AllNamesStreamGen {
        v4_subnets: 40,
        v6_subnets: 10,
        clients_per_subnet: 3,
        slds: 40,
        hostnames_per_sld: 3,
        queries: 3_000,
        ..AllNamesStreamGen::default()
    };
    assert_chunk_splits_match(
        &all_names.source(),
        &CacheSimConfig {
            sample_pct: 30,
            sample_seed: 2,
            ..CacheSimConfig::default()
        },
        "all-names pct=30",
    );
}

/// Golden pin for one small hidden-resolver cell (§8.2, Figures 4–5
/// machinery): a fixed seeded world, combos extracted exactly the way the
/// `hidden` experiment does, summary pinned to a checked-in file.
#[test]
fn hidden_cell_matches_golden() {
    let world = World::generate(&WorldConfig {
        seed: 7,
        forwarders: 60,
        hidden_resolvers: 12,
        misplaced_hidden_fraction: 0.25,
        hidden_chain_fraction: 1.0,
        ..WorldConfig::default()
    });
    let mut mp = Vec::new();
    let mut nonmp = Vec::new();
    for fwd in &world.forwarders {
        let chain = &world.chains[fwd.chain];
        let Some(hidden_idx) = chain.hidden else {
            continue;
        };
        let egress = &world.egress_resolvers[chain.egress];
        let combo = analysis::DistanceCombo {
            forwarder: fwd.pos,
            hidden: world.hidden_resolvers[hidden_idx].pos,
            recursive: egress.pos,
            via_public_service: egress.public_service,
        };
        if egress.public_service {
            mp.push(combo);
        } else {
            nonmp.push(combo);
        }
    }
    let analysis = HiddenAnalysis::default();
    let mut actual = String::from("hidden cell (seed=7 forwarders=60 hidden=12 misplaced=0.25)\n");
    for (label, combos) in [("mp", &mp), ("nonmp", &nonmp)] {
        let r = analysis.analyze(combos);
        actual.push_str(&format!(
            "{label}: combos={} below={} on={} above={} f_h_p50={:.0}km f_r_p50={:.0}km\n",
            r.total(),
            r.below_diagonal,
            r.on_diagonal,
            r.above_diagonal,
            r.f_h_cdf.quantile(0.5),
            r.f_r_cdf.quantile(0.5),
        ));
    }
    let expected = include_str!("golden/hidden_cell.txt");
    assert_eq!(actual, expected, "actual:\n{actual}");
}

/// Golden pin for one small minimum-prefix cell (§8.3, Figures 6–7
/// machinery): fixed probes against a CDN-1-style authoritative, mapping
/// quality per length plus the prefix-length table the server logged.
#[test]
fn minprefix_cell_matches_golden() {
    let cities = [
        "Cleveland",
        "Chicago",
        "Paris",
        "London",
        "Tokyo",
        "Seoul",
        "Sydney",
        "Johannesburg",
    ];
    let footprint = CdnFootprint {
        edges: cities
            .iter()
            .enumerate()
            .map(|(i, c)| EdgeServerSpec {
                addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, i as u8 + 1)),
                pos: city(c).expect("known city").pos,
                city: c.to_string(),
            })
            .collect(),
    };
    // Probes colocated with a subset of the cities, /21-aligned apart.
    let probes: Vec<(Ipv4Addr, &str)> = (0..cities.len())
        .map(|i| (Ipv4Addr::new(39, 0, (i as u8) * 8, 7), cities[i]))
        .collect();
    let mut geodb = GeoDb::new();
    let lab_addr: IpAddr = "129.22.150.78".parse().expect("valid");
    geodb.insert(
        IpPrefix::new(lab_addr, 24).expect("<=32"),
        city("Cleveland").expect("known").pos,
    );
    for (addr, c) in &probes {
        for len in 16..=24u8 {
            geodb.insert(
                IpPrefix::v4(*addr, len).expect("<=32"),
                city(c).expect("known").pos,
            );
        }
    }
    let apex = Name::from_ascii("cdn.example").expect("valid");
    let qname = apex.child("www").expect("valid");
    let mut server = AuthServer::new(Zone::new(apex), EcsHandling::open(ScopePolicy::MatchSource))
        .with_cdn(CdnBehavior::cdn1(footprint.clone()), geodb);

    let latency = LatencyModel::default();
    let mut actual = String::from("minprefix cell (cdn1, 8 probes, lengths 20/23/24)\n");
    for len in [20u8, 23, 24] {
        let mut samples = Vec::new();
        for (addr, c) in &probes {
            let mut q = Message::query(1, Question::a(qname.clone()));
            q.set_ecs(EcsOption::from_v4(*addr, len));
            let resp = server.handle(&q, lab_addr, SimTime::ZERO);
            let first = resp.answer_addrs()[0];
            let edge = footprint
                .edges
                .iter()
                .find(|e| e.addr == first)
                .expect("answer from footprint");
            samples.push(ConnectTimeSample {
                probe: city(c).expect("known").pos,
                edge_addr: first,
                edge: edge.pos,
            });
        }
        let q = MappingQuality::from_samples(&samples, &latency);
        actual.push_str(&format!(
            "/{len}: unique={} median={:.0}ms\n",
            q.unique_first_answers, q.median_ms
        ));
    }
    let table = PrefixLengthTable::build(server.log());
    actual.push_str("log rows:\n");
    for (row, count) in &table.rows {
        actual.push_str(&format!("  {row}: {count}\n"));
    }
    let expected = include_str!("golden/minprefix_cell.txt");
    assert_eq!(actual, expected, "actual:\n{actual}");
}
