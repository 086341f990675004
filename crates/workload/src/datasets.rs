//! Generators for the paper's four datasets (§4), scaled.

use dns_wire::{IpPrefix, RecordType};
use netsim::SimDuration;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::IpAddr;
use topology::AddrAllocator;

use crate::names::NameUniverse;
use crate::trace::{TraceRecord, TraceSet};

// ---------------------------------------------------------------------------
// Behaviour-class populations (CDN & Scan datasets)
// ---------------------------------------------------------------------------

/// §6.1 probing-behaviour classes with the paper's CDN-dataset counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbingClass {
    /// ECS on 100% of A/AAAA queries (3382 resolvers).
    Always,
    /// ECS for specific hostnames, cache bypassed for them (258).
    HostnameProbe,
    /// ECS probes at 30-minute multiples carrying loopback (32).
    IntervalLoopback,
    /// ECS for specific hostnames on cache miss (88).
    OnMiss,
    /// No discernible pattern (387).
    Mixed,
}

/// Table 1 source-prefix classes (IPv4 rows; the dominant ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixClass {
    /// RFC-recommended /24.
    Slash24,
    /// /32 with jammed last byte.
    Slash32Jammed,
    /// /32 revealing the full address.
    Slash32Full,
    /// /25 (one extra bit).
    Slash25,
    /// Coarse /16.
    Slash16,
    /// /22 cap.
    Slash22,
    /// IPv6 /56 (RFC recommendation).
    V6Slash56,
    /// IPv6 /48.
    V6Slash48,
    /// IPv6 full /128.
    V6Slash128,
}

/// §6.3 cache-compliance classes with the paper's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComplianceClass {
    /// Honors scope, never conveys >24 bits (76 resolvers).
    Correct,
    /// Reuses cached answers irrespective of scope (103).
    IgnoresScope,
    /// Accepts and caches >24-bit prefixes (15).
    AcceptsLong,
    /// Caps prefix and scope at /22 (8).
    Cap22,
    /// Sends a private-space prefix and mishandles zero scope (1).
    PrivateLeak,
}

/// One resolver in a generated population.
#[derive(Debug, Clone)]
pub struct ResolverSpec {
    /// The resolver's public address.
    pub addr: IpAddr,
    /// Probing behaviour.
    pub probing: ProbingClass,
    /// Prefix behaviour.
    pub prefix: PrefixClass,
    /// Cache behaviour.
    pub compliance: ComplianceClass,
    /// Whether it belongs to the dominant (Chinese) AS.
    pub dominant_as: bool,
    /// Whether the major CDN whitelisted it.
    pub whitelisted: bool,
}

/// Generates the CDN-dataset resolver population: by default the paper's
/// exact §6.1 class counts (3382/258/32/88/387 = 4147 resolvers, 3067 of
/// them in the dominant AS), scaled by `scale` (counts divided, minimum 1).
#[derive(Debug, Clone)]
pub struct CdnDatasetGen {
    /// Divisor applied to the paper's counts.
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CdnDatasetGen {
    /// Paper-exact counts.
    pub fn full() -> Self {
        CdnDatasetGen { scale: 1, seed: 0 }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: usize, seed: u64) -> Self {
        CdnDatasetGen {
            scale: scale.max(1),
            seed,
        }
    }

    /// Generates the population.
    pub fn generate(&self) -> Vec<ResolverSpec> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut alloc = AddrAllocator::new();
        let class_counts: [(ProbingClass, usize); 5] = [
            (ProbingClass::Always, 3382),
            (ProbingClass::HostnameProbe, 258),
            (ProbingClass::IntervalLoopback, 32),
            (ProbingClass::OnMiss, 88),
            (ProbingClass::Mixed, 387),
        ];
        let mut out = Vec::new();
        let mut dominant_left = 3067usize.div_ceil(self.scale);
        for (class, n) in class_counts {
            let n = n.div_ceil(self.scale);
            for _ in 0..n {
                let block = alloc.alloc_v4_block();
                // The dominant AS's 3067 resolvers all send ECS on every
                // query (they are within the "Always" class) and jam /32.
                let dominant = class == ProbingClass::Always && dominant_left > 0;
                if dominant {
                    dominant_left -= 1;
                }
                let prefix = if dominant {
                    PrefixClass::Slash32Jammed
                } else {
                    // Non-dominant resolvers follow Table 1's CDN column
                    // proportions (roughly: /24 dominates, then /32s, /25,
                    // /22 and a few /16).
                    *[
                        PrefixClass::Slash24,
                        PrefixClass::Slash24,
                        PrefixClass::Slash24,
                        PrefixClass::Slash24,
                        PrefixClass::Slash32Full,
                        PrefixClass::Slash25,
                        PrefixClass::Slash22,
                        PrefixClass::Slash16,
                    ]
                    .choose(&mut rng)
                    .expect("non-empty")
                };
                let compliance = *[
                    ComplianceClass::Correct,
                    ComplianceClass::IgnoresScope,
                    ComplianceClass::IgnoresScope,
                    ComplianceClass::AcceptsLong,
                    ComplianceClass::Cap22,
                ]
                .choose(&mut rng)
                .expect("non-empty");
                out.push(ResolverSpec {
                    addr: AddrAllocator::host_in(&block, 1),
                    probing: class,
                    prefix,
                    compliance,
                    dominant_as: dominant,
                    whitelisted: false,
                });
            }
        }
        out
    }
}

/// Generates the Scan-dataset egress population: Table 1's scan column
/// (1384 /24 "Google-like", 130 /32-jammed Chinese, the IPv6 rows, …),
/// scaled.
#[derive(Debug, Clone)]
pub struct ScanDatasetGen {
    /// Divisor applied to the paper's counts.
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ScanDatasetGen {
    /// Paper-exact counts.
    pub fn full() -> Self {
        ScanDatasetGen { scale: 1, seed: 0 }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: usize, seed: u64) -> Self {
        ScanDatasetGen {
            scale: scale.max(1),
            seed,
        }
    }

    /// Generates the population. Counts follow Table 1's Scan column:
    /// 1384×/24, 130×/32-jammed, 8×/22, 1×/25, 3×/18, plus IPv6 rows
    /// (2×/32, 4×/48, 5×/56, 4×/64 — approximated by the nearest classes).
    pub fn generate(&self) -> Vec<ResolverSpec> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut alloc = AddrAllocator::new();
        let rows: [(PrefixClass, usize); 8] = [
            (PrefixClass::Slash24, 1384),
            (PrefixClass::Slash32Jammed, 130),
            (PrefixClass::Slash22, 8),
            (PrefixClass::Slash25, 1),
            (PrefixClass::Slash16, 3),
            (PrefixClass::V6Slash56, 5),
            (PrefixClass::V6Slash48, 4),
            (PrefixClass::V6Slash128, 2),
        ];
        let mut out = Vec::new();
        for (prefix, n) in rows {
            let n = n.div_ceil(self.scale);
            for _ in 0..n {
                let block = alloc.alloc_v4_block();
                let compliance = match prefix {
                    PrefixClass::Slash22 => ComplianceClass::Cap22,
                    PrefixClass::Slash32Jammed => ComplianceClass::IgnoresScope,
                    _ => {
                        if rng.gen_bool(0.5) {
                            ComplianceClass::Correct
                        } else {
                            ComplianceClass::IgnoresScope
                        }
                    }
                };
                out.push(ResolverSpec {
                    addr: AddrAllocator::host_in(&block, 1),
                    probing: ProbingClass::Always,
                    prefix,
                    compliance,
                    dominant_as: prefix == PrefixClass::Slash32Jammed,
                    whitelisted: false,
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Trace generators (Public Resolver/CDN & All-Names datasets)
// ---------------------------------------------------------------------------

/// Generates the Public-Resolver/CDN trace: `resolvers` egress resolvers of
/// a whitelisted public service querying one CDN for 3 hours, all queries
/// carrying ECS, all responses scoped, fixed TTL (20 s in the paper).
#[derive(Debug, Clone)]
pub struct PublicCdnTraceGen {
    /// Number of egress resolvers (paper: 2370).
    pub resolvers: usize,
    /// Client /24 subnets per resolver (fan-in).
    pub subnets_per_resolver: usize,
    /// Distinct CDN hostnames.
    pub hostnames: usize,
    /// Total queries to generate.
    pub queries: usize,
    /// Trace duration.
    pub duration: SimDuration,
    /// Authoritative TTL for every answer.
    pub ttl: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PublicCdnTraceGen {
    fn default() -> Self {
        PublicCdnTraceGen {
            resolvers: 120,
            subnets_per_resolver: 40,
            hostnames: 400,
            queries: 400_000,
            duration: SimDuration::from_secs(3 * 3600),
            ttl: 20,
            seed: 0,
        }
    }
}

impl PublicCdnTraceGen {
    /// Generates the trace.
    pub fn generate(&self) -> TraceSet {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut alloc = AddrAllocator::new();
        let mut universe =
            NameUniverse::generate((self.hostnames / 4).max(1), 4, 1.0, self.seed ^ 0x5EED);
        universe.set_uniform_ttl(self.ttl);

        // Resolver addresses and their client subnet pools. Real egress
        // resolvers vary enormously in volume and client fan-in (the paper
        // notes "varying traffic volume per IP address"); volume follows a
        // Zipf across resolvers and fan-in spreads 1..2x around the mean.
        let resolvers: Vec<IpAddr> = (0..self.resolvers)
            .map(|_| AddrAllocator::host_in(&alloc.alloc_v4_block(), 1))
            .collect();
        let pools: Vec<Vec<IpPrefix>> = (0..self.resolvers)
            .map(|_| {
                let n = if self.subnets_per_resolver <= 1 {
                    1
                } else {
                    rng.gen_range(1..self.subnets_per_resolver * 2)
                };
                (0..n).map(|_| alloc.alloc_v4_block()).collect()
            })
            .collect();
        let resolver_volume = crate::zipf::Zipf::new(self.resolvers, 0.8);

        // Per-name response scope: the CDN maps most names at /24, some
        // coarser. Fixed per name (a CDN's granularity for a property is
        // stable over a 3-hour window).
        let scopes: Vec<u8> = (0..universe.len())
            .map(|_| {
                *[24u8, 24, 24, 24, 24, 16, 16, 8]
                    .choose(&mut rng)
                    .expect("non-empty")
            })
            .collect();

        let mut set = TraceSet::new("public-resolver/cdn");
        let dur_us = self.duration.as_micros();
        for _ in 0..self.queries {
            let r = resolver_volume.sample(&mut rng);
            let subnet = pools[r][rng.gen_range(0..pools[r].len())];
            let n = universe.sample(&mut rng);
            set.records.push(TraceRecord {
                at_micros: rng.gen_range(0..dur_us),
                resolver: resolvers[r],
                qname: universe.name(n).clone(),
                qtype: RecordType::A,
                ecs_source: Some(subnet),
                response_scope: Some(scopes[n]),
                ttl: self.ttl,
                client: None,
            });
        }
        set.sort_by_time();
        // Intern names and resolvers now, while the trace is hot: replay
        // then never hashes a Name.
        set.build_index();
        set
    }
}

/// Generates the All-Names trace: 24 hours of one busy egress resolver of
/// an anycast service, with client addresses recorded and authoritative
/// scopes from a realistic mix; TTLs span the operational range.
#[derive(Debug, Clone)]
pub struct AllNamesTraceGen {
    /// IPv4 client /24 subnets (paper: 12.3K).
    pub v4_subnets: usize,
    /// IPv6 client /48 subnets (paper: 2.8K).
    pub v6_subnets: usize,
    /// Clients per subnet (paper: ~5).
    pub clients_per_subnet: usize,
    /// Second-level domains (paper: 19,014).
    pub slds: usize,
    /// Hostnames per SLD (paper: ~7).
    pub hostnames_per_sld: usize,
    /// Total queries (paper: 11.1M).
    pub queries: usize,
    /// Trace duration.
    pub duration: SimDuration,
    /// Zipf exponent of name popularity (DNS workloads are strongly
    /// head-heavy; ~1.2 reproduces operational hit rates).
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AllNamesTraceGen {
    fn default() -> Self {
        AllNamesTraceGen {
            v4_subnets: 1230,
            v6_subnets: 280,
            clients_per_subnet: 5,
            slds: 1900,
            hostnames_per_sld: 7,
            queries: 1_500_000,
            duration: SimDuration::from_secs(24 * 3600),
            zipf_exponent: 1.25,
            seed: 0,
        }
    }
}

impl AllNamesTraceGen {
    /// Generates the trace.
    pub fn generate(&self) -> TraceSet {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut alloc = AddrAllocator::new();
        let universe = NameUniverse::generate(
            self.slds,
            self.hostnames_per_sld,
            self.zipf_exponent,
            self.seed ^ 0xA11,
        );

        let resolver: IpAddr = AddrAllocator::host_in(&alloc.alloc_v4_block(), 1);

        // Clients: addresses within their subnets.
        let mut clients: Vec<(IpAddr, IpPrefix)> = Vec::new();
        for _ in 0..self.v4_subnets {
            let block = alloc.alloc_v4_block();
            let n = rng.gen_range(1..self.clients_per_subnet * 2);
            for i in 0..n {
                clients.push((AddrAllocator::host_in(&block, 1 + i as u32), block));
            }
        }
        for _ in 0..self.v6_subnets {
            let block = alloc.alloc_v6_block();
            let n = rng.gen_range(1..self.clients_per_subnet * 2);
            for i in 0..n {
                clients.push((AddrAllocator::host_in(&block, 1 + i as u32), block));
            }
        }

        // Per-name scope: All-Names records all carry non-zero scope.
        // Weighted toward /24 (v4) with coarser minorities; IPv6 names use
        // the equivalent in the 32..=64 range, chosen at query time from
        // the client family.
        let v4_scopes: Vec<u8> = (0..universe.len())
            .map(|_| {
                *[24u8, 24, 24, 24, 20, 16, 16, 12]
                    .choose(&mut rng)
                    .expect("non-empty")
            })
            .collect();
        let v6_scopes: Vec<u8> = (0..universe.len())
            .map(|_| {
                *[48u8, 48, 48, 56, 40, 32]
                    .choose(&mut rng)
                    .expect("non-empty")
            })
            .collect();

        let mut set = TraceSet::new("all-names");
        let dur_us = self.duration.as_micros();
        for _ in 0..self.queries {
            let (client, subnet) = clients[rng.gen_range(0..clients.len())];
            let n = universe.sample(&mut rng);
            let (qtype, source, scope) = match client {
                IpAddr::V4(_) => (
                    RecordType::A,
                    subnet, // the /24
                    v4_scopes[n],
                ),
                IpAddr::V6(_) => (RecordType::Aaaa, subnet, v6_scopes[n]),
            };
            set.records.push(TraceRecord {
                at_micros: rng.gen_range(0..dur_us),
                resolver,
                qname: universe.name(n).clone(),
                qtype,
                ecs_source: Some(source),
                response_scope: Some(scope),
                ttl: universe.ttl(n),
                client: Some(client),
            });
        }
        set.sort_by_time();
        set.build_index();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdn_population_counts_full() {
        let pop = CdnDatasetGen::full().generate();
        assert_eq!(pop.len(), 4147);
        let count = |c: ProbingClass| pop.iter().filter(|r| r.probing == c).count();
        assert_eq!(count(ProbingClass::Always), 3382);
        assert_eq!(count(ProbingClass::HostnameProbe), 258);
        assert_eq!(count(ProbingClass::IntervalLoopback), 32);
        assert_eq!(count(ProbingClass::OnMiss), 88);
        assert_eq!(count(ProbingClass::Mixed), 387);
        assert_eq!(pop.iter().filter(|r| r.dominant_as).count(), 3067);
        // All dominant-AS resolvers jam /32.
        assert!(pop
            .iter()
            .filter(|r| r.dominant_as)
            .all(|r| r.prefix == PrefixClass::Slash32Jammed));
        // Addresses unique.
        let mut addrs: Vec<_> = pop.iter().map(|r| r.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 4147);
    }

    #[test]
    fn cdn_population_scales() {
        let pop = CdnDatasetGen::scaled(10, 1).generate();
        let count = |c: ProbingClass| pop.iter().filter(|r| r.probing == c).count();
        assert_eq!(count(ProbingClass::Always), 339);
        assert_eq!(count(ProbingClass::IntervalLoopback), 4);
        assert!(count(ProbingClass::OnMiss) >= 1);
    }

    #[test]
    fn scan_population_shape() {
        let pop = ScanDatasetGen::full().generate();
        let count = |p: PrefixClass| pop.iter().filter(|r| r.prefix == p).count();
        assert_eq!(count(PrefixClass::Slash24), 1384);
        assert_eq!(count(PrefixClass::Slash32Jammed), 130);
        assert_eq!(count(PrefixClass::Slash22), 8);
        // /22-capped resolvers carry the Cap22 compliance class.
        assert!(pop
            .iter()
            .filter(|r| r.prefix == PrefixClass::Slash22)
            .all(|r| r.compliance == ComplianceClass::Cap22));
    }

    #[test]
    fn public_cdn_trace_shape() {
        let gen = PublicCdnTraceGen {
            resolvers: 10,
            subnets_per_resolver: 5,
            hostnames: 40,
            queries: 5000,
            ..PublicCdnTraceGen::default()
        };
        let t = gen.generate();
        assert_eq!(t.len(), 5000);
        assert_eq!(t.resolvers().len(), 10);
        assert!(t.records.iter().all(|r| r.ecs_source.is_some()));
        // All scopes non-zero, all TTLs 20.
        assert!(t.records.iter().all(|r| r.response_scope.unwrap() > 0));
        assert!(t.records.iter().all(|r| r.ttl == 20));
        // Time-ordered within duration.
        assert!(t
            .records
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros));
        assert!(t.records.last().unwrap().at_micros < gen.duration.as_micros());
    }

    #[test]
    fn all_names_trace_shape() {
        let gen = AllNamesTraceGen {
            v4_subnets: 50,
            v6_subnets: 10,
            clients_per_subnet: 3,
            slds: 100,
            hostnames_per_sld: 3,
            queries: 20_000,
            ..AllNamesTraceGen::default()
        };
        let t = gen.generate();
        assert_eq!(t.len(), 20_000);
        assert_eq!(t.resolvers().len(), 1, "single busy resolver");
        assert!(t.clients().len() > 50);
        // Mixed families present.
        assert!(t.records.iter().any(|r| r.qtype == RecordType::A));
        assert!(t.records.iter().any(|r| r.qtype == RecordType::Aaaa));
        // Non-zero scopes throughout (dataset definition).
        assert!(t.records.iter().all(|r| r.response_scope.unwrap() > 0));
        // TTL mix is diverse.
        let ttls: std::collections::HashSet<u32> = t.records.iter().map(|r| r.ttl).collect();
        assert!(ttls.len() >= 3);
        // Every record has a client and its ECS source contains the client.
        assert!(t
            .records
            .iter()
            .all(|r| r.ecs_source.unwrap().contains(r.client.unwrap())));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = PublicCdnTraceGen {
            queries: 1000,
            ..PublicCdnTraceGen::default()
        }
        .generate();
        let b = PublicCdnTraceGen {
            queries: 1000,
            ..PublicCdnTraceGen::default()
        }
        .generate();
        assert_eq!(a.records, b.records);

        let a = AllNamesTraceGen {
            v4_subnets: 30,
            v6_subnets: 5,
            slds: 40,
            queries: 1000,
            ..AllNamesTraceGen::default()
        }
        .generate();
        let b = AllNamesTraceGen {
            v4_subnets: 30,
            v6_subnets: 5,
            slds: 40,
            queries: 1000,
            ..AllNamesTraceGen::default()
        }
        .generate();
        assert_eq!(a.records, b.records);

        let pa = CdnDatasetGen::scaled(7, 3).generate();
        let pb = CdnDatasetGen::scaled(7, 3).generate();
        assert_eq!(pa.len(), pb.len());
        assert!(pa.iter().zip(pb.iter()).all(|(x, y)| x.addr == y.addr
            && x.probing == y.probing
            && x.prefix == y.prefix
            && x.compliance == y.compliance));
    }
}
