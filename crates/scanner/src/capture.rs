//! Bounded capture of scanner-induced authoritative traffic, grouped the
//! way the §6 classifiers want it: one stream per egress resolver.
//!
//! The driver drains the authoritative query log every simulation slice
//! (so the log never grows with probe count) and feeds it here. The
//! capture keeps a *bounded sample* per resolver — enough for
//! [`analysis::probing::classify_probing`] to run — plus exact aggregate
//! counters, so a 10^6-probe scan classifies in O(resolvers × cap)
//! memory while still accounting every entry.

use std::collections::BTreeMap;
use std::net::IpAddr;

use analysis::probing::{classify_probing, verdict_name};
use analysis::ProbingClass;
use authoritative::QueryLogEntry;

/// Stable wire name for a §6.1 verdict (JSON values): the snake-case form
/// of [`verdict_name`], e.g. `hostname_probe`, `no_ecs`.
fn wire_name(verdict: Option<ProbingClass>) -> String {
    let mut out = String::new();
    for (i, c) in verdict_name(verdict).chars().enumerate() {
        if i > 0 && c.is_ascii_uppercase() {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Per-resolver bounded samples plus exact aggregate counters.
#[derive(Debug)]
pub struct ScanCapture {
    sample_cap: usize,
    per_resolver: BTreeMap<IpAddr, Vec<QueryLogEntry>>,
    /// Entries absorbed (exact, unaffected by sampling).
    pub total: u64,
    /// Entries kept as samples.
    pub sampled: u64,
    /// Entries dropped by the per-resolver cap (counted, never silent).
    pub cap_dropped: u64,
    /// Entries that carried an ECS option (exact).
    pub ecs_total: u64,
}

impl ScanCapture {
    /// A capture keeping at most `sample_cap` entries per resolver
    /// (≥ 1). The cap bounds memory; all counters stay exact.
    pub fn new(sample_cap: usize) -> Self {
        ScanCapture {
            sample_cap: sample_cap.max(1),
            per_resolver: BTreeMap::new(),
            total: 0,
            sampled: 0,
            cap_dropped: 0,
            ecs_total: 0,
        }
    }

    /// Folds one drained batch of authoritative log entries in.
    pub fn absorb(&mut self, entries: Vec<QueryLogEntry>) {
        for e in entries {
            self.total += 1;
            if e.ecs.is_some() {
                self.ecs_total += 1;
            }
            let stream = self.per_resolver.entry(e.resolver).or_default();
            if stream.len() < self.sample_cap {
                stream.push(e);
                self.sampled += 1;
            } else {
                self.cap_dropped += 1;
            }
        }
    }

    /// Distinct egress resolvers seen.
    pub fn resolvers(&self) -> usize {
        self.per_resolver.len()
    }

    /// Runs the §6.1 classifier over every resolver's sampled stream.
    /// Deterministic: `BTreeMap` keyed by resolver address.
    pub fn classify(&self, short_window_secs: u64) -> BTreeMap<IpAddr, Option<ProbingClass>> {
        self.per_resolver
            .iter()
            .map(|(addr, entries)| (*addr, classify_probing(entries, short_window_secs)))
            .collect()
    }

    /// Deterministic JSON: aggregate counters plus per-resolver verdicts,
    /// keys in address order. Byte-identical across identical-seed runs.
    pub fn to_json(&self, short_window_secs: u64) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"total\":{},\"sampled\":{},\"cap_dropped\":{},\"ecs_total\":{},\"resolvers\":{{",
            self.total, self.sampled, self.cap_dropped, self.ecs_total
        ));
        let mut first = true;
        for (addr, verdict) in self.classify(short_window_secs) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{addr}\":\"{}\"", wire_name(verdict)));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{EcsOption, Name, RecordType};
    use netsim::SimTime;

    fn entry(resolver: &str, qname: &str, at_s: u64, ecs: bool) -> QueryLogEntry {
        QueryLogEntry {
            at: SimTime::from_secs(at_s),
            resolver: resolver.parse().unwrap(),
            qname: Name::from_ascii(qname).unwrap(),
            qtype: RecordType::A,
            ecs: ecs.then(|| EcsOption::new("192.0.2.0".parse().unwrap(), 24)),
            response_scope: None,
            answers: Vec::new(),
        }
    }

    #[test]
    fn caps_samples_but_counts_everything() {
        let mut c = ScanCapture::new(2);
        c.absorb(vec![
            entry("9.9.9.9", "a.scan.example", 0, true),
            entry("9.9.9.9", "b.scan.example", 1, true),
            entry("9.9.9.9", "c.scan.example", 2, false),
            entry("9.9.9.10", "d.scan.example", 3, false),
        ]);
        assert_eq!(c.total, 4);
        assert_eq!(c.sampled, 3, "third 9.9.9.9 entry hit the cap");
        assert_eq!(c.cap_dropped, 1);
        assert_eq!(c.ecs_total, 2);
        assert_eq!(c.resolvers(), 2);
    }

    #[test]
    fn classifies_per_resolver_streams() {
        let mut c = ScanCapture::new(64);
        // 9.9.9.9: ECS on every address query → Always.
        // 9.9.9.10: no ECS at all → NoEcs.
        c.absorb(vec![
            entry("9.9.9.9", "a.scan.example", 0, true),
            entry("9.9.9.9", "b.scan.example", 30, true),
            entry("9.9.9.10", "c.scan.example", 0, false),
        ]);
        let verdicts = c.classify(60);
        assert_eq!(
            verdicts[&"9.9.9.9".parse::<IpAddr>().unwrap()],
            Some(ProbingClass::Always)
        );
        assert_eq!(verdicts[&"9.9.9.10".parse::<IpAddr>().unwrap()], None);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let build = || {
            let mut c = ScanCapture::new(8);
            c.absorb(vec![
                entry("9.9.9.10", "a.scan.example", 0, false),
                entry("9.9.9.9", "b.scan.example", 0, true),
            ]);
            c.to_json(60)
        };
        let j = build();
        assert_eq!(j, build(), "byte-identical");
        assert!(
            j.find("9.9.9.10").unwrap() > j.find("\"9.9.9.9\"").unwrap(),
            "address order: {j}"
        );
        assert!(j.contains("\"total\":2"));
    }
}
