//! The allocation budget of a cache hit.
//!
//! A hit is what the `dnsd` pool does with it: the query read in place
//! ([`MessageView`]) → [`Resolver::begin`] → the answer encoded into a
//! lent buffer, and what it costs is mostly what it allocates: names,
//! section vectors, the reply buffer.
//! This pins the count — not a time — with a counting global allocator
//! (an integration test is its own binary, so no other test pays for it),
//! over the configuration the `serve_warm` benchmark runs: 256 four-label
//! names × 16 client /24s, resolved once through an
//! `anycast_service_egress` engine over a [`SharedEcsCache`], then hit
//! again. The count repeats exactly, so it is asserted per hit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::wire::WireWriter;
use dns_wire::{EcsOption, Message, MessageView, Name, Question};
use netsim::SimTime;
use resolver::{Resolver, ResolverConfig, SharedEcsCache, Step};

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

/// Allocator calls `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const NAMES: usize = 256;
const SUBNETS: u8 = 16;
/// Per hit, over the read in place + `begin` + encode: the answer
/// vector, as measured.
const HIT_BUDGET: usize = 1;

#[test]
fn a_cache_hit_stays_inside_its_allocation_budget_and_encodes_with_none() {
    let apex = Name::from_ascii("warm.bench.example").unwrap();
    let names: Vec<Name> = (0..NAMES)
        .map(|i| apex.child(&format!("n{i}")).unwrap())
        .collect();
    let mut zone = Zone::new(apex);
    for (i, name) in names.iter().enumerate() {
        let addr = Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1);
        zone.add_a(name.clone(), 3600, addr).unwrap();
    }
    let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
    auth.set_logging(false);

    let from = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let config = ResolverConfig::anycast_service_egress(from);
    let cache = Arc::new(SharedEcsCache::for_config(&config, 4));
    let mut engine = Resolver::with_shared_cache(config, cache);
    let now = SimTime::from_micros(1);

    let queries: Vec<Vec<u8>> = names
        .iter()
        .flat_map(|name| {
            (0..SUBNETS).map(move |s| {
                let mut q = Message::query(u16::from(s), Question::a(name.clone()));
                q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(20, 0, s, 0), 24));
                q.to_bytes().unwrap()
            })
        })
        .collect();
    for wire in &queries {
        let q = MessageView::parse(wire).unwrap();
        match engine.begin(q, from, now) {
            Step::NeedUpstream(pending) => {
                engine.drive_upstream_capturing(pending, now, &mut auth);
            }
            Step::Answer(_) => panic!("every warm-up key is new"),
        }
    }

    // One hit outside the count: it sizes the lent buffer, as the pool's
    // first batches do.
    let mut lent = Vec::new();
    let mut per_hit = Vec::new();
    for (i, wire) in queries.iter().chain(&queries).enumerate() {
        let ((reply, encode), total) = allocations(|| {
            let q = MessageView::parse(wire).unwrap();
            let Step::Answer(resp) = engine.begin(q, from, now) else {
                panic!("warmed key missed");
            };
            let mut w = WireWriter::with_buffer(std::mem::take(&mut lent));
            let ((), encode) = allocations(|| resp.write(&mut w).unwrap());
            (w.finish().unwrap(), encode)
        });
        assert_eq!(reply[..2], wire[..2], "the reply answers this query");
        assert_eq!(Message::from_bytes(&reply).unwrap().answers.len(), 1);
        lent = reply;
        if i > 0 {
            assert_eq!(encode, 0, "hit {i}: encoding into a lent buffer allocated");
            per_hit.push(total);
        }
    }
    let (min, max) = (per_hit.iter().min().unwrap(), per_hit.iter().max().unwrap());
    assert_eq!(min, max, "the count repeats exactly");
    assert!(
        *max <= HIT_BUDGET,
        "hit path allocates again: {max} allocations per hit, budget {HIT_BUDGET}"
    );
}
