//! Source-prefix-length tabulation (§6.2, Table 1).
//!
//! Groups an authoritative log by resolver, collects the set of source
//! prefix lengths each sends (per family), and detects the "jammed last
//! byte" pattern: /32 sources whose final octet is a constant across many
//! distinct prefixes. [`PrefixLengthTable::count`] reads a single-length
//! row back as the [`PrefixClass`] the `workload` populations plant.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, Ipv4Addr};

use authoritative::QueryLogEntry;
use dns_wire::{AddressFamily, EcsOption};
use workload::PrefixClass;

/// Per-resolver prefix behaviour profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverPrefixProfile {
    /// The resolver.
    pub resolver: IpAddr,
    /// Distinct IPv4 source prefix lengths observed.
    pub v4_lengths: BTreeSet<u8>,
    /// Distinct IPv6 source prefix lengths observed.
    pub v6_lengths: BTreeSet<u8>,
    /// For /32 sources: `Some(byte)` when every observed /32 prefix ends in
    /// the same final octet AND at least two distinct prefixes were seen
    /// (otherwise a constant byte means nothing).
    pub jammed_byte: Option<u8>,
    /// Final octets of the /32 sources seen.
    last_bytes: BTreeSet<u8>,
    /// Distinct /32 sources seen.
    distinct_32: BTreeSet<Ipv4Addr>,
}

impl ResolverPrefixProfile {
    fn new(resolver: IpAddr) -> Self {
        ResolverPrefixProfile {
            resolver,
            v4_lengths: BTreeSet::new(),
            v6_lengths: BTreeSet::new(),
            jammed_byte: None,
            last_bytes: BTreeSet::new(),
            distinct_32: BTreeSet::new(),
        }
    }

    /// Folds one ECS source in.
    fn observe(&mut self, opt: &EcsOption) {
        let len = opt.source_prefix_len();
        match opt.family() {
            AddressFamily::V4 => {
                self.v4_lengths.insert(len);
                if let (32, Some(a)) = (len, opt.to_v4()) {
                    self.last_bytes.insert(a.octets()[3]);
                    self.distinct_32.insert(a);
                    self.jammed_byte = if self.last_bytes.len() == 1 && self.distinct_32.len() >= 2
                    {
                        self.last_bytes.first().copied()
                    } else {
                        None
                    };
                }
            }
            AddressFamily::V6 => {
                self.v6_lengths.insert(len);
            }
        }
    }

    /// Table-1 row label for this resolver, e.g. `"24"`, `"32/jammed last
    /// byte"`, `"24,32/jammed last byte"`.
    pub fn row_label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for l in &self.v4_lengths {
            if *l == 32 && self.jammed_byte.is_some() {
                parts.push("32/jammed last byte".to_string());
            } else {
                parts.push(l.to_string());
            }
        }
        for l in &self.v6_lengths {
            parts.push(format!("{l} (IPv6)"));
        }
        parts.join(",")
    }

    /// The class whose row this is, or `None` for a row no class produces
    /// (several lengths, or a length no class sends).
    fn class(&self) -> Option<PrefixClass> {
        let v4: Vec<u8> = self.v4_lengths.iter().copied().collect();
        let v6: Vec<u8> = self.v6_lengths.iter().copied().collect();
        Some(match (v4.as_slice(), v6.as_slice()) {
            ([24], []) => PrefixClass::Slash24,
            ([32], []) if self.jammed_byte.is_some() => PrefixClass::Slash32Jammed,
            ([32], []) => PrefixClass::Slash32Full,
            ([25], []) => PrefixClass::Slash25,
            ([16], []) => PrefixClass::Slash16,
            ([22], []) => PrefixClass::Slash22,
            ([], [56]) => PrefixClass::V6Slash56,
            ([], [48]) => PrefixClass::V6Slash48,
            ([], [128]) => PrefixClass::V6Slash128,
            _ => return None,
        })
    }

    /// True when the resolver follows the RFC recommendation (≤ 24 v4,
    /// ≤ 56 v6) on every query — effective bits for jammed /32 count as 24.
    pub fn rfc_compliant(&self) -> bool {
        let v4_ok = self
            .v4_lengths
            .iter()
            .all(|l| *l <= 24 || (*l == 32 && self.jammed_byte.is_some()));
        let v6_ok = self.v6_lengths.iter().all(|l| *l <= 56);
        // Jammed /32 still *claims* 32 bits, which the paper calls an
        // incorrect implementation — count it as non-compliant.
        v4_ok && v6_ok && !self.v4_lengths.contains(&32)
    }
}

/// The Table-1 aggregate: for each distinct length-combination row, how
/// many resolvers exhibit it.
#[derive(Debug, Clone, Default)]
pub struct PrefixLengthTable {
    /// Row label → resolver count.
    pub rows: BTreeMap<String, usize>,
    /// Per-resolver profiles for drill-down, in resolver order.
    pub profiles: Vec<ResolverPrefixProfile>,
}

impl PrefixLengthTable {
    /// Builds the table from an authoritative log.
    pub fn build(log: &[QueryLogEntry]) -> Self {
        let mut table = PrefixLengthTable::default();
        table.absorb(log);
        table
    }

    /// Folds a batch of authoritative log entries in; entries without ECS
    /// are skipped. Absorbing a log in batches builds the same table as
    /// building it whole.
    pub fn absorb(&mut self, log: &[QueryLogEntry]) {
        for e in log {
            let Some(opt) = &e.ecs else { continue };
            let i = match self
                .profiles
                .binary_search_by_key(&e.resolver, |p| p.resolver)
            {
                Ok(i) => i,
                Err(i) => {
                    self.profiles
                        .insert(i, ResolverPrefixProfile::new(e.resolver));
                    i
                }
            };
            self.profiles[i].observe(opt);
        }
        self.rows.clear();
        for p in &self.profiles {
            *self.rows.entry(p.row_label()).or_default() += 1;
        }
    }

    /// Number of ECS-enabled resolvers in the table.
    pub fn resolver_count(&self) -> usize {
        self.profiles.len()
    }

    /// Number of resolvers whose row is `class`'s.
    pub fn count(&self, class: PrefixClass) -> usize {
        self.profiles
            .iter()
            .filter(|p| p.class() == Some(class))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{EcsOption, Name, RecordType};
    use netsim::SimTime;
    use std::net::Ipv4Addr;

    fn entry(resolver: u8, ecs: EcsOption) -> QueryLogEntry {
        QueryLogEntry {
            at: SimTime::ZERO,
            resolver: IpAddr::V4(Ipv4Addr::new(9, 9, 9, resolver)),
            qname: Name::from_ascii("a.example.com").unwrap(),
            qtype: RecordType::A,
            ecs: Some(ecs),
            response_scope: None,
            answers: Vec::new(),
        }
    }

    #[test]
    fn tabulates_simple_24() {
        let log = vec![
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 0), 24)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 0), 24)),
            entry(2, EcsOption::from_v4(Ipv4Addr::new(10, 0, 3, 0), 24)),
        ];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.resolver_count(), 2);
        assert_eq!(t.rows["24"], 2);
        assert!(t.profiles.iter().all(|p| p.rfc_compliant()));
    }

    #[test]
    fn detects_jammed_byte() {
        let log = vec![
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 1), 32)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 1), 32)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 9, 3, 1), 32)),
        ];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.count(PrefixClass::Slash32Jammed), 1);
        assert_eq!(t.profiles[0].jammed_byte, Some(1));
        assert_eq!(t.rows["32/jammed last byte"], 1);
        // Claiming /32 is non-compliant even when jammed.
        assert!(!t.profiles[0].rfc_compliant());
    }

    #[test]
    fn single_32_prefix_not_jammed() {
        // One observation cannot establish jamming.
        let log = vec![entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 7), 32))];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.count(PrefixClass::Slash32Jammed), 0);
        assert_eq!(t.rows["32"], 1);
    }

    #[test]
    fn true_full_32_not_jammed() {
        let log = vec![
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 7), 32)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 9), 32)),
        ];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.count(PrefixClass::Slash32Jammed), 0);
        assert!(!t.profiles[0].rfc_compliant());
    }

    #[test]
    fn combination_rows() {
        let log = vec![
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 0), 24)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 1), 32)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 3, 1), 32)),
        ];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.rows["24,32/jammed last byte"], 1);
    }

    #[test]
    fn v6_lengths_tracked() {
        let log = vec![entry(
            1,
            EcsOption::from_v6("2001:db8::".parse().unwrap(), 56),
        )];
        let t = PrefixLengthTable::build(&log);
        assert_eq!(t.rows["56 (IPv6)"], 1);
        assert!(t.profiles[0].rfc_compliant());
        let log = vec![entry(
            1,
            EcsOption::from_v6("2001:db8::1".parse().unwrap(), 128),
        )];
        let t = PrefixLengthTable::build(&log);
        assert!(!t.profiles[0].rfc_compliant());
    }

    #[test]
    fn absorbing_in_batches_builds_the_whole_log_table() {
        let log = vec![
            entry(2, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 0), 24)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 1), 32)),
            entry(3, EcsOption::from_v6("2001:db8::".parse().unwrap(), 56)),
            entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 1), 32)),
            entry(2, EcsOption::from_v4(Ipv4Addr::new(10, 0, 2, 9), 32)),
        ];
        let whole = PrefixLengthTable::build(&log);
        let mut batched = PrefixLengthTable::default();
        for batch in log.chunks(2) {
            batched.absorb(batch);
        }
        assert_eq!(batched.rows, whole.rows);
        assert_eq!(batched.profiles, whole.profiles);
        assert_eq!(whole.profiles[0].jammed_byte, Some(1));
        assert_eq!(whole.rows["24,32"], 1);
    }

    #[test]
    fn non_ecs_entries_ignored() {
        let mut e = entry(1, EcsOption::from_v4(Ipv4Addr::new(10, 0, 1, 0), 24));
        e.ecs = None;
        let t = PrefixLengthTable::build(&[e]);
        assert_eq!(t.resolver_count(), 0);
    }
}
