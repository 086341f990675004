//! Memory is the contract of streaming replay: `run_streaming` must hold
//! the caches and one chunk buffer per shard, never the trace.
//!
//! The witness is a counting global allocator (an integration test is its
//! own binary, so no other test pays for it). Peak heap while streaming
//! must sit under a fixed budget *and* stay flat as the record count
//! grows — flatness is the real claim: a materialised trace would grow by
//! hundreds of MiB between the two sizes measured here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use analysis::{CacheSimConfig, CacheSimulator};
use netsim::SimDuration;
use workload::CdnStreamGen;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator plus live/peak byte counters (one relaxed `fetch_add`
/// and `fetch_max` per allocation).
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn on_alloc(size: usize) {
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only counts bytes on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                on_dealloc(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

const MIB: usize = 1024 * 1024;
/// ~2× the measured peak (37 MiB at 0.5M records, 42 MiB at 10M: eight
/// 4.5 MiB chunk buffers plus the caches).
const BUDGET: usize = 80 * MIB;

/// The counters are process-wide, so the tests in this binary take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// The fig1-shaped stream the budget was pinned on.
fn stream_gen(queries: u64) -> CdnStreamGen {
    CdnStreamGen {
        resolvers: 32,
        subnets_per_resolver: 40,
        hostnames: 150,
        queries,
        duration: SimDuration::from_secs(900),
        ttl: 20,
        seed: 0,
    }
}

/// Peak heap growth while `queries` records stream through eight shards.
/// The model (name table, resolver table) is built before the bracket: it
/// is the same size at every record count and is not what streaming saves.
fn peak_while_streaming(queries: u64) -> usize {
    let source = stream_gen(queries).source();
    let sim = CacheSimulator::new(CacheSimConfig {
        parallelism: 8,
        ..CacheSimConfig::default()
    });
    let floor = CURRENT.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let result = sim.run_streaming(&source);
    let peak = PEAK.load(Ordering::Relaxed);
    let replayed: u64 = result.per_resolver.iter().map(|r| r.lookups).sum();
    assert_eq!(replayed, queries, "the stream was not replayed in full");
    let grown = peak - floor;
    eprintln!("{queries} records: peak heap {grown} B above a {floor} B floor");
    grown
}

#[test]
fn streaming_heap_is_flat_in_record_count() {
    let _turn = exclusive();
    let small = peak_while_streaming(500_000);
    let large = peak_while_streaming(2_000_000);
    assert!(
        small > MIB,
        "peak {small} B at 0.5M records: the counting allocator is not counting"
    );
    assert!(
        large < BUDGET,
        "peak {large} B at 2M records is over the {BUDGET} B budget"
    );
    assert!(
        large.abs_diff(small) < 8 * MIB,
        "peak heap moved with the record count: {small} B at 0.5M, {large} B at 2M"
    );
}

/// The full-volume run the budget was pinned at, and the streaming ≡
/// materialised cross-check on a clone small enough to materialise. Slow
/// in a debug build; CI runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "10M records: ~3 s release, ~20 s debug"]
fn ten_million_records_stay_under_budget_and_match_materialized() {
    let _turn = exclusive();
    let peak = peak_while_streaming(10_000_000);
    assert!(
        peak < BUDGET,
        "peak {peak} B at 10M records is over the {BUDGET} B budget"
    );

    let source = stream_gen(50_000).source();
    let sim = CacheSimulator::new(CacheSimConfig::default());
    assert_eq!(
        sim.run_streaming(&source).per_resolver,
        sim.run(&source.materialize()).per_resolver,
        "streaming diverged from materialized replay"
    );
}
