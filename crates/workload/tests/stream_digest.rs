//! Pins of generated *content*, written on the code they pin: FNV-1a 64
//! digests over every field of streamed records, over `Zipf::sample`
//! ranks and over the vendored `gen_range`, plus two seeded properties
//! that carry the original arithmetic — the inverted-CDF binary search
//! and the `u128` stratified window — as their reference. A generator
//! change that moves one bit of one record fails here by name, not as a
//! shifted number in `experiments_output.txt`.
//!
//! A failing property prints `STREAM_DIGEST_SEED=<seed>` to replay it.

use std::net::IpAddr;

use dns_wire::IpPrefix;
use netsim::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use workload::stream::{StreamRecord, TraceStreamSource, WorkloadModel};
use workload::{AllNamesStreamGen, CdnStreamGen, Zipf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn fnv_addr(h: u64, addr: Option<IpAddr>) -> u64 {
    match addr {
        None => fnv1a(h, &[0]),
        Some(IpAddr::V4(a)) => fnv1a(fnv1a(h, &[4]), &a.octets()),
        Some(IpAddr::V6(a)) => fnv1a(fnv1a(h, &[6]), &a.octets()),
    }
}

fn fnv_prefix(h: u64, prefix: Option<IpPrefix>) -> u64 {
    match prefix {
        None => fnv1a(h, &[0]),
        Some(p) => fnv1a(fnv_addr(h, Some(p.addr())), &[p.len()]),
    }
}

/// Every field of a record, in declaration order.
fn fnv_record(mut h: u64, r: &StreamRecord) -> u64 {
    h = fnv_u64(h, r.index);
    h = fnv_u64(h, r.at_micros);
    h = fnv_u64(h, r.resolver_id as u64);
    h = fnv_u64(h, r.name_id as u64);
    h = fnv_u64(h, r.qtype.to_u16() as u64);
    h = fnv_prefix(h, r.ecs_source);
    h = match r.response_scope {
        None => fnv1a(h, &[0]),
        Some(s) => fnv1a(h, &[1, s]),
    };
    h = fnv_u64(h, r.ttl as u64);
    fnv_addr(h, r.client)
}

/// Digest of the first `n` records of the full stream.
fn stream_digest<M: WorkloadModel>(source: &TraceStreamSource<M>, n: usize) -> u64 {
    let mut stream = source.open();
    let mut buf = Vec::new();
    let mut h = FNV_OFFSET;
    let mut seen = 0usize;
    while seen < n && stream.next_chunk_into(&mut buf) {
        for r in buf.iter().take(n - seen) {
            h = fnv_record(h, r);
        }
        seen += buf.len().min(n - seen);
    }
    assert_eq!(seen, n, "stream shorter than the pin");
    h
}

#[test]
fn pinned_cdn_stream_records() {
    // The study's fig1 shape (ecs-study fig1's defaults, scaled names).
    let source = CdnStreamGen {
        resolvers: 40,
        subnets_per_resolver: 80,
        hostnames: 150,
        queries: 3_000_000,
        duration: SimDuration::from_secs(1800),
        ttl: 20,
        seed: 1,
    }
    .source();
    let h = stream_digest(&source, 50_000);
    assert_eq!(h, 0x08f5_b2c4_ac63_0e2c, "{h:#018x}");
}

#[test]
fn pinned_all_names_stream_records() {
    let source = AllNamesStreamGen {
        seed: 1,
        ..AllNamesStreamGen::default()
    }
    .source();
    let h = stream_digest(&source, 50_000);
    assert_eq!(h, 0x1255_e6f4_8440_827e, "{h:#018x}");
}

#[test]
fn pinned_zipf_ranks() {
    // The three samplers of the study: a resolver volume split, a CDN name
    // table, the All-Names universe.
    let pins: [(usize, f64, u64); 3] = [
        (40, 0.8, 0x66b9_be4f_1552_37b8),
        (150, 1.0, 0xff4e_4e35_f346_6df9),
        (13_300, 1.25, 0x1d8b_2101_5042_a4a5),
    ];
    for (n, s, want) in pins {
        let zipf = Zipf::new(n, s);
        let mut rng = SmallRng::seed_from_u64(0x21BF ^ n as u64);
        let mut h = FNV_OFFSET;
        for _ in 0..10_000 {
            h = fnv_u64(h, zipf.sample(&mut rng) as u64);
        }
        assert_eq!(h, want, "Zipf({n}, {s}): {h:#018x}");
    }
}

/// 1,000 draws from each range, each folded in as a sign-extended `u64`.
macro_rules! range_digest {
    ($rng:expr, $h:expr, $($range:expr),+ $(,)?) => {{
        let mut h = $h;
        $(
            for _ in 0..1_000 {
                h = fnv_u64(h, $rng.gen_range($range) as i128 as u64);
            }
        )+
        h
    }};
}

#[test]
fn pinned_gen_range_draws() {
    let mut rng = SmallRng::seed_from_u64(0x6E6E);
    let mut h = FNV_OFFSET;
    h = range_digest!(rng, h, 0u8..1, 3u8..200, 0u8..=255, 7u8..=7, 250u8..=255);
    h = range_digest!(
        rng,
        h,
        0u32..100,
        10u32..4_000_000_000,
        0u32..=u32::MAX,
        1u32..=6
    );
    h = range_digest!(
        rng,
        h,
        0u64..1,
        0u64..14_155_776,
        1u64 << 40..(1u64 << 63) + 12_345,
        0u64..u64::MAX,
        0u64..=u64::MAX,
        1u64..=u64::MAX,
        5u64..=5
    );
    h = range_digest!(
        rng,
        h,
        0usize..8,
        0usize..65_536,
        0usize..=usize::MAX,
        17usize..=40
    );
    h = range_digest!(
        rng,
        h,
        -5i64..5,
        i64::MIN..0,
        i64::MIN..i64::MAX,
        i64::MIN..=i64::MAX,
        -1i64..=1,
        i64::MAX - 3..=i64::MAX
    );
    assert_eq!(h, 0x83bb_527d_5aa1_8464, "{h:#018x}");
}

// ---------------------------------------------------------------------------
// Seeded properties: the original arithmetic is the reference
// ---------------------------------------------------------------------------

fn property_seed() -> u64 {
    std::env::var("STREAM_DIGEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5D16_E571)
}

/// An RNG whose every draw is the same chosen word, so a test picks `u`.
struct Fixed(u64);

impl RngCore for Fixed {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The word whose `f64` draw is `k · 2⁻⁵³`.
fn word_for(k: u64) -> u64 {
    k << 11
}

/// The normalised CDF exactly as `Zipf::new` accumulates it.
fn reference_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// The original sampler: binary search for the first rank with cdf ≥ u.
fn reference_rank(cdf: &[f64], u: f64) -> usize {
    match cdf.binary_search_by(|v| v.partial_cmp(&u).expect("finite")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

#[test]
fn zipf_sample_equals_the_binary_search() {
    const TWO_53: u64 = 1 << 53;
    let seed = property_seed();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut exact_hits = 0u64;
    for case in 0..64 {
        let n = match case {
            0 => 1,
            1 => 2,
            2 => 50_000,
            _ if case % 2 == 0 => rng.gen_range(1..=64usize),
            _ => rng.gen_range(1..=50_000usize),
        };
        let s = match case % 5 {
            0 => 0.0,
            1 => 2.0,
            _ => rng.gen_range(0.0..2.0),
        };
        let zipf = Zipf::new(n, s);
        let cdf = reference_cdf(n, s);
        let check = |word: u64| {
            let u = (word >> 11) as f64 * (1.0 / TWO_53 as f64);
            let got = zipf.sample(&mut Fixed(word));
            let want = reference_rank(&cdf, u);
            assert_eq!(
                got, want,
                "Zipf({n}, {s}) at u={u:e} (word {word:#x}); STREAM_DIGEST_SEED={seed}"
            );
        };
        // The ends of the unit interval.
        check(0);
        check(word_for(1));
        check(u64::MAX); // u = 1 − 2⁻⁵³
        check(word_for(TWO_53 - 2));
        // u on and either side of CDF values: every value in [0.5, 1) is a
        // multiple of 2⁻⁵³, so the draw can equal it exactly.
        for _ in 0..200 {
            let j = rng.gen_range(0..n);
            let scaled = cdf[j] * TWO_53 as f64;
            let k = (scaled as u64).min(TWO_53 - 1);
            if scaled.fract() == 0.0 && scaled < TWO_53 as f64 {
                exact_hits += 1;
            }
            check(word_for(k.saturating_sub(1)));
            check(word_for(k));
            check(word_for((k + 1).min(TWO_53 - 1)));
        }
        for _ in 0..2_000 {
            check(rng.next_u64());
        }
    }
    assert!(
        exact_hits > 1_000,
        "only {exact_hits} draws equal to a CDF value"
    );
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-record RNG seed exactly as `stream.rs` mixes it.
fn record_seed(seed: u64, i: u64) -> u64 {
    let salt: u64 = 0x5EED_CAFE;
    let mut x = (seed ^ salt.rotate_left(17) ^ i.wrapping_mul(GOLDEN)).wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The original stratified timestamp: `u128` window bounds and a `u128`
/// modulo of the record RNG's first draw.
fn reference_at(seed: u64, i: u64, total: u64, dur_us: u64) -> u64 {
    let d = dur_us.max(1) as u128;
    let t = total.max(1) as u128;
    let start = (i as u128 * d / t) as u64;
    let end = (((i as u128) + 1) * d / t) as u64;
    let end = end.max(start + 1);
    let word = SmallRng::seed_from_u64(record_seed(seed, i)).next_u64();
    start + (word as u128 % (end - start) as u128) as u64
}

#[test]
fn stratified_timestamps_equal_the_u128_form() {
    let seed = property_seed();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57A7);
    let mut overflowing = 0u64;
    for case in 0..400u64 {
        // An All-Names record draws its timestamp first, so `at_micros`
        // is `stratified_at` of the record RNG's first word.
        let (total, dur_us): (u64, u64) = match case % 8 {
            // Study-sized streams.
            0 | 1 => (
                rng.gen_range(1..=5_000_000),
                rng.gen_range(1..=86_400_000_000),
            ),
            // More records than microseconds: windows clamp to 1 µs.
            2 => {
                let dur = rng.gen_range(0..=1_000_000u64);
                (rng.gen_range(dur.max(1)..=dur.max(1) * 1000), dur)
            }
            // The benchmark's index space and beyond: i·d overflows u64.
            3 | 4 => (
                rng.gen_range(1u64 << 32..=1u64 << 40),
                rng.gen_range(1u64 << 40..=1u64 << 50),
            ),
            // i·(d mod t) overflows too.
            5 => (
                rng.gen_range(1u64 << 50..=u64::MAX),
                rng.gen_range(1u64 << 50..=u64::MAX),
            ),
            6 => (u64::MAX, u64::MAX - rng.gen_range(0..=3u64)),
            _ => (rng.gen_range(1..=u64::MAX), rng.gen_range(0..=u64::MAX)),
        };
        let model_seed = rng.next_u64();
        let model = AllNamesStreamGen {
            v4_subnets: 2,
            v6_subnets: 1,
            clients_per_subnet: 1,
            slds: 2,
            hostnames_per_sld: 1,
            queries: total,
            duration: SimDuration::from_micros(dur_us),
            seed: model_seed,
            ..AllNamesStreamGen::default()
        }
        .build();
        let mut indices = vec![0, total - 1, total / 2, total.saturating_sub(2)];
        for _ in 0..40 {
            indices.push(rng.gen_range(0..total));
        }
        for i in indices {
            if (i as u128 * dur_us as u128) > u64::MAX as u128 {
                overflowing += 1;
            }
            assert_eq!(
                model.record(i).at_micros,
                reference_at(model_seed, i, total, dur_us),
                "i={i} total={total} dur_us={dur_us}; STREAM_DIGEST_SEED={seed}"
            );
        }
    }
    assert!(
        overflowing > 2_000,
        "only {overflowing} overflowing products"
    );
}
