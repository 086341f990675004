//! §6.1: probing-strategy classification, closed-loop.
//!
//! We instantiate the CDN-dataset resolver population (each resolver
//! configured with its ground-truth probing behaviour), drive a day of
//! client traffic through them against a CDN authoritative that — like the
//! paper's major CDN — whitelists ECS and therefore *appears non-ECS* to
//! all of them, then run the paper's classifier on the CDN's query log and
//! check it recovers the planted counts of every row of
//! [`workload::PROBING_TABLE`], scaled.

use std::collections::HashMap;
use std::net::IpAddr;

use analysis::probing::{classify_all, root_ecs_offenders};
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, Name, Question};
use netsim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::Resolver;
use topology::AddrAllocator;
use workload::{CdnDatasetGen, ProbingClass, PROBING_TABLE};

use crate::behavior::resolver_config_for;
use crate::report::Report;

/// Trace duration (paper: one day).
const DURATION: SimDuration = SimDuration::from_secs(24 * 3600);
/// Zone TTL for CDN names.
const TTL: u32 = 300;
/// RNG seed of the population and the client traffic.
const SEED: u64 = 0;

/// Parameters: the ones a caller sets. The rest are the constants above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's population counts.
    pub scale: usize,
    /// Base queries per resolver over the trace.
    pub queries_per_resolver: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 20,
            queries_per_resolver: 400,
        }
    }
}

/// Outcome: measured class counts and classification accuracy.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ground-truth class per resolver.
    pub truth: HashMap<IpAddr, ProbingClass>,
    /// Classifier verdict per resolver (`None`: no ECS seen).
    pub verdicts: HashMap<IpAddr, Option<ProbingClass>>,
    /// Fraction of resolvers classified into their ground-truth class.
    pub accuracy: f64,
    /// Root-ECS offenders found / planted.
    pub root_offenders_found: usize,
    /// Root-ECS offenders planted.
    pub root_offenders_planted: usize,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let population = CdnDatasetGen::scaled(config.scale, SEED).generate();

    // The CDN's zone: a handful of accelerated hostnames.
    let apex = Name::from_ascii("cdn.example").expect("valid");
    let mut zone = Zone::new(apex.clone());
    let mut hostnames = Vec::new();
    for i in 0..24 {
        let name = apex.child(&format!("h{i}")).expect("valid");
        zone.add_a(
            name.clone(),
            TTL,
            std::net::Ipv4Addr::new(198, 51, 100, i as u8 + 1),
        )
        .expect("in zone");
        hostnames.push(name);
    }
    // Whitelisted ECS with an empty whitelist: every resolver in this
    // population is non-whitelisted, so the CDN appears non-ECS.
    let mut cdn = AuthServer::new(
        zone,
        EcsHandling::whitelisted(ScopePolicy::MatchSource, Default::default()),
    );

    // Hostname-probing and on-miss resolvers single out the hottest names.
    let probe_names = vec![hostnames[0].clone(), hostnames[1].clone()];
    let zipf = workload::Zipf::new(hostnames.len(), 1.0);

    let mut truth = HashMap::new();
    let mut alloc = AddrAllocator::new();
    for spec in &population {
        truth.insert(spec.addr, spec.probing);
        let mut resolver = Resolver::new(resolver_config_for(spec, &probe_names));
        let client_block = alloc.alloc_v4_block();

        // A day of client queries: sorted base times plus short bursts
        // (page loads re-request the same name within seconds — these
        // bursts are what expose cache-bypassing probes).
        let mut schedule: Vec<(u64, usize)> = Vec::new();
        for _ in 0..config.queries_per_resolver {
            let at = rng.gen_range(0..DURATION.as_micros());
            let name_idx = zipf.sample(&mut rng);
            schedule.push((at, name_idx));
            if rng.gen_bool(0.35) {
                for _ in 0..rng.gen_range(1..3) {
                    let burst_at = at + rng.gen_range(1_000_000..40_000_000);
                    schedule.push((burst_at, name_idx));
                }
            }
        }
        schedule.sort_unstable();

        for (at, name_idx) in schedule {
            let client = AddrAllocator::host_in(&client_block, 1 + rng.gen_range(0..200));
            let q = Message::query(1, Question::a(hostnames[name_idx].clone()));
            resolver.resolve_msg(&q, client, SimTime::from_micros(at), &mut cdn);
        }
    }

    let log = cdn.take_log();
    let verdicts = classify_all(&log, 60);

    let correct = truth
        .iter()
        .filter(|(addr, class)| verdicts.get(addr) == Some(&Some(**class)))
        .count();
    let accuracy = correct as f64 / truth.len() as f64;

    // Root-server side experiment: the DITL analysis found 15 resolvers
    // sending ECS to a root server. Plant the scaled count and re-detect.
    let planted = 15usize.div_ceil(config.scale);
    let mut root_zone = Zone::new(Name::root());
    root_zone
        .add(dns_wire::Record::new(
            Name::from_ascii("com").expect("valid"),
            172800,
            dns_wire::Rdata::Ns(Name::from_ascii("a.gtld-servers.net").expect("valid")),
        ))
        .expect("in zone");
    let mut root = AuthServer::new(root_zone, EcsHandling::disabled());
    for (i, spec) in population.iter().enumerate() {
        let mut q = Message::query(
            7,
            Question::new(
                Name::from_ascii("com").expect("valid"),
                dns_wire::RecordType::Ns,
                dns_wire::RecordClass::In,
            ),
        );
        if i < planted {
            q.set_ecs(EcsOption::from_v4(
                std::net::Ipv4Addr::new(100, 64, 1, 0),
                24,
            ));
        }
        root.handle(&q, spec.addr, SimTime::ZERO);
    }
    let offenders = root_ecs_offenders(root.log());

    let mut report = Report::new("probing", "§6.1 probing-strategy classes");
    for &(class, paper, label) in PROBING_TABLE {
        let planted_n = truth.values().filter(|c| **c == class).count();
        let found = verdicts.values().filter(|v| **v == Some(class)).count();
        report.row(
            label,
            format!("{paper} (scaled: {planted_n})"),
            found,
            // Within 25% of the planted count.
            (found as f64 - planted_n as f64).abs() <= (planted_n as f64 * 0.25).max(2.0),
        );
    }
    report.row(
        "classifier accuracy vs ground truth",
        "n/a (closed loop)",
        format!("{:.1}%", accuracy * 100.0),
        accuracy >= 0.85,
    );
    report.row(
        "root-ECS offenders (DITL)",
        format!("15 (scaled: {planted})"),
        offenders.len(),
        offenders.len() == planted,
    );
    let outcome = Outcome {
        truth,
        verdicts,
        accuracy,
        root_offenders_found: offenders.len(),
        root_offenders_planted: planted,
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_recovers_planted_classes() {
        let config = Config {
            scale: 60,
            queries_per_resolver: 250,
        };
        let (out, report) = run(&config);
        assert!(
            out.accuracy >= 0.8,
            "accuracy {} too low\n{report}",
            out.accuracy
        );
        assert_eq!(out.root_offenders_found, out.root_offenders_planted);
    }
}
