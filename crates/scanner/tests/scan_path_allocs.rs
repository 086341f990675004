//! The allocation budget of a simulated probe.
//!
//! A probe's cost on the simulated path is mostly what each hop
//! allocates: the scanner's qname and query, every node's decode, the
//! egress's upstream exchange and cache entry, the authoritative's
//! answer. This pins the count — not a time — with a counting global
//! allocator (an integration test is its own binary, so no other test
//! pays for it), over one 1,000-probe scan of the world the `scan_sim`
//! benchmark runs: 72 forwarders, 44 healthy, 14 lossy, 7 dead and 7
//! refusing, tracing off. Building the world is not counted. The scan is
//! single-threaded from one seed, and the tables that entries leave (the
//! relays' and the egress's pending exchanges) hash with Fx, not with a
//! per-process seed, so where a removal leaves a tombstone, and so when a
//! table rehashes, is the same every run: the count repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use netsim::SimDuration;
use scanner::{
    run_scan, ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanCapture, ScanConfig,
    ScanWorld,
};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// System allocator plus a count of the calls that obtain memory.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only counts calls on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

const PROBES: u64 = 1_000;
/// Per probe, over the whole scan: 7,926 allocations per scan measured,
/// rounded up to a whole allocation per probe.
const PROBE_BUDGET: usize = 8;

/// The benchmark's `scan_sim` world at `seed`.
fn world(seed: u64) -> ScanWorld {
    let cfg = ScanConfig {
        window: 64,
        rate_per_sec: 400,
        burst: 16,
        ..ScanConfig::default()
    };
    ForwarderChainSpec::new(seed)
        .group(44, ForwarderHealth::Healthy, 64500)
        .group(14, ForwarderHealth::Lossy(0.25), 64501)
        .group(7, ForwarderHealth::Dead, 64502)
        .group(7, ForwarderHealth::Refusing, 64503)
        .build(cfg, |targets| RoundRobinFeed::new(targets.to_vec(), PROBES))
}

/// Allocator calls one scan makes.
fn scan_allocations(seed: u64) -> usize {
    let mut world = world(seed);
    let mut capture = ScanCapture::new(512);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_scan(&mut world, SimDuration::from_secs(60), &mut capture);
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.reconciled && !report.stuck, "{report:?}");
    assert_eq!(report.stats.probes, PROBES);
    count
}

#[test]
fn a_simulated_probe_stays_inside_its_allocation_budget() {
    let count = scan_allocations(1);
    let per_probe = count as f64 / PROBES as f64;
    assert!(
        count <= PROBE_BUDGET * PROBES as usize,
        "simulated path allocates again: {per_probe:.2} allocations per probe, budget {PROBE_BUDGET}"
    );
}
