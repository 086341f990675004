//! Replay-throughput harness for the §7 cache simulator.
//!
//! Times the current engine (single-pass dual-mode, interned keys, sharded
//! by resolver) at 1/2/8 threads against a faithful replica of the
//! original engine (two passes' worth of state, per-record `Name` cloning
//! and SipHash interning, `HashMap<Key, Vec<...>>` bookkeeping), checks
//! that every configuration produces identical results, and writes
//! `BENCH_cache_sim.json` to the current directory.
//!
//! Harness stages are themselves timed with [`obs::timer!`] and reported
//! as `stage_wall_us`.
//!
//! A streaming section runs *first*, before any trace is materialized:
//! `run_streaming` replays `--stream-queries` records (default 10× the
//! materialized size) straight from the generator at 1/2/8 threads under
//! the [`bench::alloc::CountingAlloc`] high-water mark, then cross-checks
//! a bounded prefix-sized clone against the materialized engine for
//! bit-identity and end-to-end throughput. The `streaming` JSON section
//! feeds `ci/bench_baseline_stream.json`: peak allocator bytes stay under
//! a pinned budget no matter how many records stream past.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p bench --bin bench_cache_sim
//! cargo run --release -p bench --bin bench_cache_sim -- --queries 50000 --out /tmp/smoke.json
//! ```
//!
//! Flags: `--queries N` trace size (default 1000000), `--stream-queries N`
//! streaming record count (default 10× `--queries`), `--out PATH` for the
//! JSON report (default `BENCH_cache_sim.json`), `--history PATH` appends
//! one JSONL line per measurement with run metadata for the `bench_check`
//! regression gate's trend data.

use std::time::Instant;

use analysis::{CacheSimConfig, CacheSimResult, CacheSimulator};
use workload::{CdnStreamGen, PublicCdnTraceGen, TraceSet};

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

/// The seed engine, kept verbatim-in-spirit as the measurement baseline.
mod legacy {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    use std::net::IpAddr;

    use analysis::{CacheSimResult, ResolverCacheResult};
    use dns_wire::{IpPrefix, Name, RecordType};
    use netsim::SimTime;
    use workload::TraceSet;

    type Key = (u32, u32, RecordType);
    type LiveEntry = (Option<IpPrefix>, SimTime);

    #[derive(Default)]
    struct ModeState {
        entries: HashMap<Key, Vec<LiveEntry>>,
        heap: BinaryHeap<Reverse<(SimTime, Key)>>,
        live_per_resolver: HashMap<u32, usize>,
        max_live_per_resolver: HashMap<u32, usize>,
        hits: HashMap<u32, u64>,
    }

    impl ModeState {
        fn purge(&mut self, now: SimTime) {
            while let Some(Reverse((exp, key))) = self.heap.peek().copied() {
                if exp > now {
                    break;
                }
                self.heap.pop();
                if let Some(list) = self.entries.get_mut(&key) {
                    let before = list.len();
                    list.retain(|(_, e)| *e > now);
                    let removed = before - list.len();
                    if removed > 0 {
                        *self.live_per_resolver.entry(key.0).or_default() -= removed;
                    }
                    if list.is_empty() {
                        self.entries.remove(&key);
                    }
                }
            }
        }

        fn lookup(&mut self, key: Key, source: Option<&IpPrefix>, now: SimTime) -> bool {
            let hit = self
                .entries
                .get(&key)
                .map(|list| {
                    list.iter().any(|(scope, exp)| {
                        *exp > now
                            && match (scope, source) {
                                (None, _) => true,
                                (Some(p), Some(s)) => p.is_default_route() || p.covers(s),
                                (Some(p), None) => p.is_default_route(),
                            }
                    })
                })
                .unwrap_or(false);
            if hit {
                *self.hits.entry(key.0).or_default() += 1;
            }
            hit
        }

        fn insert(&mut self, key: Key, scope: Option<IpPrefix>, expiry: SimTime) {
            self.entries.entry(key).or_default().push((scope, expiry));
            self.heap.push(Reverse((expiry, key)));
            let lr = self.live_per_resolver.entry(key.0).or_default();
            *lr += 1;
            let mx = self.max_live_per_resolver.entry(key.0).or_default();
            *mx = (*mx).max(*lr);
        }
    }

    /// Both modes over the trace, exactly as the original simulator ran
    /// them (including the per-record `qname.clone()` interning).
    pub fn run(trace: &TraceSet) -> CacheSimResult {
        let mut name_ids: HashMap<Name, u32> = HashMap::new();
        let mut resolver_ids: HashMap<IpAddr, u32> = HashMap::new();
        let mut resolvers: Vec<IpAddr> = Vec::new();
        let mut ecs_mode = ModeState::default();
        let mut plain_mode = ModeState::default();
        let mut lookups: HashMap<u32, u64> = HashMap::new();

        for rec in &trace.records {
            let rid = *resolver_ids.entry(rec.resolver).or_insert_with(|| {
                resolvers.push(rec.resolver);
                (resolvers.len() - 1) as u32
            });
            let next_name_id = name_ids.len() as u32;
            let nid = *name_ids.entry(rec.qname.clone()).or_insert(next_name_id);
            let key = (rid, nid, rec.qtype);
            let now = SimTime::from_micros(rec.at_micros);
            let expiry = now + netsim::SimDuration::from_secs(rec.ttl as u64);

            *lookups.entry(rid).or_default() += 1;

            plain_mode.purge(now);
            if !plain_mode.lookup(key, None, now) {
                plain_mode.insert(key, None, expiry);
            }

            ecs_mode.purge(now);
            let source = rec.ecs_source;
            if !ecs_mode.lookup(key, source.as_ref(), now) {
                let entry_prefix = match (source, rec.response_scope) {
                    (Some(src), Some(scope)) => Some(src.truncate(scope.min(src.len()))),
                    _ => None,
                };
                ecs_mode.insert(key, entry_prefix, expiry);
            }
        }

        let mut per_resolver: Vec<ResolverCacheResult> = resolvers
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let rid = i as u32;
                ResolverCacheResult {
                    resolver: *addr,
                    max_size_ecs: ecs_mode
                        .max_live_per_resolver
                        .get(&rid)
                        .copied()
                        .unwrap_or(0),
                    max_size_no_ecs: plain_mode
                        .max_live_per_resolver
                        .get(&rid)
                        .copied()
                        .unwrap_or(0),
                    hits_ecs: ecs_mode.hits.get(&rid).copied().unwrap_or(0),
                    hits_no_ecs: plain_mode.hits.get(&rid).copied().unwrap_or(0),
                    lookups: lookups.get(&rid).copied().unwrap_or(0),
                    // The seed engine never evicted early.
                    evictions_ecs: 0,
                    evictions_no_ecs: 0,
                }
            })
            .collect();
        per_resolver.sort_by_key(|r| r.resolver);
        CacheSimResult { per_resolver }
    }
}

struct Measurement {
    label: String,
    parallelism: usize,
    seconds: f64,
    records_per_sec: f64,
}

fn time_runs(
    label: &str,
    parallelism: usize,
    records: usize,
    mut run: impl FnMut() -> CacheSimResult,
) -> (CacheSimResult, Measurement) {
    // One warm-up, then best-of-3 (replay is deterministic; variance is
    // scheduler noise, and min is the honest estimate of the work).
    let result = run();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let r = run();
        let dt = start.elapsed().as_secs_f64();
        assert_eq!(
            r.per_resolver, result.per_resolver,
            "nondeterministic replay"
        );
        best = best.min(dt);
    }
    let m = Measurement {
        label: label.to_string(),
        parallelism,
        seconds: best,
        records_per_sec: records as f64 / best,
    };
    (result, m)
}

fn main() {
    let mut queries = 1_000_000usize;
    let mut stream_queries: Option<u64> = None;
    let mut out = "BENCH_cache_sim.json".to_string();
    let mut history: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--queries" => queries = take("--queries").parse().expect("integer"),
            "--stream-queries" => {
                stream_queries = Some(take("--stream-queries").parse().expect("integer"))
            }
            "--out" => out = take("--out"),
            "--history" => history = Some(take("--history")),
            other => panic!("unknown flag {other:?}"),
        }
    }
    let queries = queries.max(1);
    let stream_queries = stream_queries.unwrap_or(queries as u64 * 10).max(1);
    let stages = obs::MetricsRegistry::new();

    // ---- Streaming section (before anything materializes a trace) ----
    // The generator shape matches the materialized section below; only
    // the volume differs. The allocator high-water mark brackets exactly
    // the streaming replays, so the JSON's `peak_alloc_bytes` is the
    // witness that no full-trace buffer ever existed.
    let stream_gen = CdnStreamGen {
        resolvers: 32,
        subnets_per_resolver: 40,
        hostnames: 150,
        queries: stream_queries,
        duration: netsim::SimDuration::from_secs(900),
        ttl: 20,
        seed: 0,
    };
    let stream_source = stream_gen.source();
    let stage_streaming = obs::timer!(stages.histogram("stage_streaming_us"));
    bench::alloc::reset_peak();
    let mut stream_measurements: Vec<Measurement> = Vec::new();
    let mut stream_reference: Option<CacheSimResult> = None;
    for parallelism in [1usize, 2, 8] {
        eprintln!(
            "timing streaming engine at {parallelism} thread(s), {stream_queries} records ..."
        );
        let sim = CacheSimulator::new(CacheSimConfig {
            parallelism,
            ..CacheSimConfig::default()
        });
        let (result, m) = time_runs("streaming", parallelism, stream_queries as usize, || {
            sim.run_streaming(&stream_source)
        });
        if let Some(reference) = &stream_reference {
            assert_eq!(
                result.per_resolver, reference.per_resolver,
                "streaming results diverged at parallelism={parallelism}"
            );
        } else {
            stream_reference = Some(result);
        }
        stream_measurements.push(m);
    }
    let stream_peak_bytes = bench::alloc::peak_bytes();
    drop(stage_streaming);

    // Cross-check: a bounded prefix-sized clone of the same model, both
    // engines end to end (generation included on both sides).
    let cross_records = stream_queries.min(queries as u64);
    eprintln!("cross-checking streaming vs materialized on {cross_records} records ...");
    let cross_source = CdnStreamGen {
        queries: cross_records,
        ..stream_gen.clone()
    }
    .source();
    let cross_sim = CacheSimulator::new(CacheSimConfig::default());
    let (cross_stream_result, cross_stream_m) =
        time_runs("crosscheck_stream", 1, cross_records as usize, || {
            cross_sim.run_streaming(&cross_source)
        });
    let (cross_mat_result, cross_mat_m) =
        time_runs("crosscheck_materialized", 1, cross_records as usize, || {
            cross_sim.run(&cross_source.materialize())
        });
    let crosscheck_ok = cross_stream_result.per_resolver == cross_mat_result.per_resolver;
    assert!(crosscheck_ok, "streaming diverged from materialized replay");
    let stream_ge_materialized = cross_stream_m.records_per_sec >= cross_mat_m.records_per_sec;

    // ---- Materialized section (the original harness) ----
    let gen = PublicCdnTraceGen {
        resolvers: 32,
        subnets_per_resolver: 40,
        hostnames: 150,
        queries,
        duration: netsim::SimDuration::from_secs(900),
        ttl: 20,
        seed: 0,
    };
    eprintln!(
        "generating trace: {} resolvers, {} queries ...",
        gen.resolvers, gen.queries
    );
    let trace: TraceSet = {
        let _t = obs::timer!(stages.histogram("stage_generate_us"));
        gen.generate()
    };
    let records = trace.len();

    let mut measurements: Vec<Measurement> = Vec::new();

    eprintln!("timing legacy (seed) engine ...");
    let (legacy_result, m) = {
        let _t = obs::timer!(stages.histogram("stage_legacy_us"));
        time_runs("legacy_seed", 1, records, || legacy::run(&trace))
    };
    measurements.push(m);

    let stage_sharded = obs::timer!(stages.histogram("stage_sharded_us"));
    for parallelism in [1usize, 2, 8] {
        eprintln!("timing sharded engine at {parallelism} thread(s) ...");
        let sim = CacheSimulator::new(CacheSimConfig {
            parallelism,
            ..CacheSimConfig::default()
        });
        let (result, m) = time_runs("sharded", parallelism, records, || sim.run(&trace));
        assert_eq!(
            result.per_resolver, legacy_result.per_resolver,
            "engine rewrite changed results at parallelism={parallelism}"
        );
        measurements.push(m);
    }
    drop(stage_sharded);

    // Bounded-cache variants: capacity = ∞ must cost <10% over the
    // unbounded path (the ticks it carries are the only overhead); a tight
    // capacity additionally pays the LRU scans its evictions require.
    let stage_bounded = obs::timer!(stages.histogram("stage_bounded_us"));
    eprintln!("timing bounded engine (capacity = usize::MAX) ...");
    let sim = CacheSimulator::new(CacheSimConfig {
        capacity: Some(usize::MAX),
        ..CacheSimConfig::default()
    });
    let (inf_result, inf_m) = time_runs("bounded_inf", 1, records, || sim.run(&trace));
    assert_eq!(
        inf_result.per_resolver, legacy_result.per_resolver,
        "infinite capacity changed results"
    );
    let bounded_inf_rps = inf_m.records_per_sec;
    measurements.push(inf_m);

    eprintln!("timing bounded engine (capacity = 64) ...");
    let sim = CacheSimulator::new(CacheSimConfig {
        capacity: Some(64),
        ..CacheSimConfig::default()
    });
    let (tight_result, tight_m) = time_runs("bounded_64", 1, records, || sim.run(&trace));
    let tight_evictions: u64 = tight_result
        .per_resolver
        .iter()
        .map(|r| r.evictions_ecs + r.evictions_no_ecs)
        .sum();
    assert!(
        tight_result
            .per_resolver
            .iter()
            .all(|r| r.max_size_ecs <= 64 && r.max_size_no_ecs <= 64),
        "capacity bound exceeded"
    );
    measurements.push(tight_m);
    drop(stage_bounded);

    // Telemetry is a function of the result: its lookup counter must
    // account for every replayed record.
    let lookups_recorded = inf_result
        .to_metrics()
        .counter("cache_sim_lookups_total")
        .unwrap_or(0);
    assert_eq!(lookups_recorded, records as u64, "telemetry lost lookups");

    let baseline = measurements[0].records_per_sec;
    let seq = measurements[1].records_per_sec;
    let bounded_inf = bounded_inf_rps;

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"cache_sim_replay\",\n");
    json.push_str(&format!(
        "  \"trace\": {{\"records\": {records}, \"resolvers\": {}, \"queries_label\": \"public-resolver/cdn\"}},\n",
        gen.resolvers
    ));
    json.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"parallelism\": {}, \"seconds\": {:.4}, \"records_per_sec\": {:.0}, \"speedup_vs_seed\": {:.2}}}{}\n",
            m.label,
            m.parallelism,
            m.seconds,
            m.records_per_sec,
            m.records_per_sec / baseline,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"single_thread_speedup_vs_seed\": {:.2},\n",
        seq / baseline
    ));
    json.push_str(&format!(
        "  \"bounded_cache\": {{\"overhead_at_infinite_capacity\": {:.4}, \"evictions_at_capacity_64\": {tight_evictions}}},\n",
        1.0 - bounded_inf / seq
    ));
    json.push_str(&format!(
        "  \"telemetry\": {{\"lookups_recorded\": {lookups_recorded}}},\n",
    ));
    json.push_str("  \"streaming\": {\n");
    json.push_str(&format!(
        "    \"records\": {stream_queries},\n    \"peak_alloc_bytes\": {stream_peak_bytes},\n    \"peak_alloc_mib\": {:.1},\n",
        stream_peak_bytes as f64 / (1024.0 * 1024.0)
    ));
    json.push_str("    \"rows\": [\n");
    for (i, m) in stream_measurements.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"parallelism\": {}, \"seconds\": {:.4}, \"records_per_sec\": {:.0}}}{}\n",
            m.parallelism,
            m.seconds,
            m.records_per_sec,
            if i + 1 < stream_measurements.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"crosscheck\": {{\"records\": {cross_records}, \"matches_materialized\": {crosscheck_ok}, \"stream_records_per_sec\": {:.0}, \"materialized_records_per_sec\": {:.0}, \"stream_ge_materialized\": {stream_ge_materialized}}}\n",
        cross_stream_m.records_per_sec, cross_mat_m.records_per_sec
    ));
    json.push_str("  },\n");
    let stage_snap = stages.snapshot();
    let stage_us = |name: &str| stage_snap.histogram(name).map(|h| h.max).unwrap_or(0);
    json.push_str(&format!(
        "  \"stage_wall_us\": {{\"streaming\": {}, \"generate\": {}, \"legacy\": {}, \"sharded\": {}, \"bounded\": {}}},\n",
        stage_us("stage_streaming_us"),
        stage_us("stage_generate_us"),
        stage_us("stage_legacy_us"),
        stage_us("stage_sharded_us"),
        stage_us("stage_bounded_us"),
    ));
    json.push_str("  \"results_identical_across_engines_and_threads\": true\n");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out}");

    if let Some(path) = &history {
        for m in &stream_measurements {
            let line = bench::regression::history_line(
                "bench_cache_sim",
                &[
                    ("engine", "\"streaming\"".to_string()),
                    ("parallelism", m.parallelism.to_string()),
                    ("records", stream_queries.to_string()),
                    ("records_per_sec", format!("{:.0}", m.records_per_sec)),
                    ("peak_alloc_bytes", stream_peak_bytes.to_string()),
                ],
            );
            bench::regression::append_history(path, &line).expect("append history");
        }
        for m in &measurements {
            let line = bench::regression::history_line(
                "bench_cache_sim",
                &[
                    ("engine", format!("\"{}\"", m.label)),
                    ("parallelism", m.parallelism.to_string()),
                    ("records", records.to_string()),
                    ("records_per_sec", format!("{:.0}", m.records_per_sec)),
                ],
            );
            bench::regression::append_history(path, &line).expect("append history");
        }
        eprintln!("appended {} rows to {path}", measurements.len());
    }
}
