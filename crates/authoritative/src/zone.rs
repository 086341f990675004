//! Static zone data: record sets keyed by (name, type).

use dns_wire::{Name, Rdata, Record, RecordType};
use std::collections::HashMap;
use std::fmt;

/// Errors from zone construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneError {
    /// The record's owner is outside the zone apex.
    OutOfZone {
        /// Offending owner name.
        name: Name,
        /// Zone apex.
        apex: Name,
    },
    /// A CNAME cannot coexist with other data at the same name (RFC 2181) —
    /// the very restriction that motivates CNAME flattening (§8.4).
    CnameConflict(Name),
}

impl fmt::Display for ZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneError::OutOfZone { name, apex } => {
                write!(f, "record {name} outside zone {apex}")
            }
            ZoneError::CnameConflict(name) => {
                write!(f, "CNAME at {name} conflicts with existing data")
            }
        }
    }
}

impl std::error::Error for ZoneError {}

/// A DNS zone: an apex and its records.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    apex: Name,
    records: HashMap<(Name, RecordType), Vec<Record>>,
    synth_a: Option<(u32, std::net::Ipv4Addr)>,
}

impl Zone {
    /// Creates an empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            records: HashMap::new(),
            synth_a: None,
        }
    }

    /// Synthesizes an A record (with this TTL and address) for any in-zone
    /// name that has no static data — a wildcard-style catch-all, so a scan
    /// authoritative can answer millions of unique probe names without
    /// holding per-name state. Off by default.
    pub fn set_synth_a(&mut self, ttl: u32, addr: std::net::Ipv4Addr) -> &mut Self {
        self.synth_a = Some((ttl, addr));
        self
    }

    /// Zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Adds a record, enforcing in-zone ownership and CNAME exclusivity.
    pub fn add(&mut self, record: Record) -> Result<(), ZoneError> {
        if !record.name.is_subdomain_of(&self.apex) {
            return Err(ZoneError::OutOfZone {
                name: record.name,
                apex: self.apex.clone(),
            });
        }
        let rtype = record.rtype();
        if rtype == RecordType::Cname {
            // A CNAME may not coexist with any other data at the name.
            let conflict = self
                .records
                .keys()
                .any(|(n, t)| *n == record.name && *t != RecordType::Cname);
            if conflict {
                return Err(ZoneError::CnameConflict(record.name));
            }
        } else {
            let conflict = self
                .records
                .contains_key(&(record.name.clone(), RecordType::Cname));
            if conflict {
                return Err(ZoneError::CnameConflict(record.name));
            }
        }
        self.records
            .entry((record.name.clone(), rtype))
            .or_default()
            .push(record);
        Ok(())
    }

    /// Convenience: add an A record.
    pub fn add_a(
        &mut self,
        name: Name,
        ttl: u32,
        addr: std::net::Ipv4Addr,
    ) -> Result<(), ZoneError> {
        self.add(Record::new(name, ttl, Rdata::A(addr)))
    }

    /// Convenience: add a CNAME record.
    pub fn add_cname(&mut self, name: Name, ttl: u32, target: Name) -> Result<(), ZoneError> {
        self.add(Record::new(name, ttl, Rdata::Cname(target)))
    }

    /// Looks up records, following CNAMEs inside the zone. Returns the chain
    /// of records to put in the answer section (CNAMEs first), or an empty
    /// vector if the name has no data of the requested type.
    ///
    /// `exists` distinguishes NXDOMAIN (no data of any type at the name)
    /// from NODATA.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Vec<Record> {
        let mut out = Vec::new();
        let mut cur = name.clone();
        // Bound CNAME chains defensively.
        for _ in 0..8 {
            if let Some(rs) = self.records.get(&(cur.clone(), rtype)) {
                out.extend(rs.iter().cloned());
                return out;
            }
            if rtype != RecordType::Cname {
                if let Some(cnames) = self.records.get(&(cur.clone(), RecordType::Cname)) {
                    if let Some(first) = cnames.first() {
                        out.push(first.clone());
                        if let Some(target) = first.rdata.as_cname() {
                            cur = target.clone();
                            continue;
                        }
                    }
                }
            }
            break;
        }
        if out.is_empty() && rtype == RecordType::A {
            if let Some((ttl, addr)) = self.synth_a {
                if name.is_subdomain_of(&self.apex) {
                    out.push(Record::new(name.clone(), ttl, Rdata::A(addr)));
                }
            }
        }
        out
    }

    /// True when the name owns any record (of any type). With
    /// [`Zone::set_synth_a`] enabled every in-zone name exists.
    pub fn name_exists(&self, name: &Name) -> bool {
        (self.synth_a.is_some() && name.is_subdomain_of(&self.apex))
            || self.records.keys().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn zone() -> Zone {
        let mut z = Zone::new(name("example.com"));
        z.add_a(name("www.example.com"), 300, Ipv4Addr::new(192, 0, 2, 1))
            .unwrap();
        z.add_a(name("www.example.com"), 300, Ipv4Addr::new(192, 0, 2, 2))
            .unwrap();
        z.add_cname(name("alias.example.com"), 300, name("www.example.com"))
            .unwrap();
        z
    }

    #[test]
    fn direct_lookup() {
        let z = zone();
        let rs = z.lookup(&name("www.example.com"), RecordType::A);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.rtype() == RecordType::A));
    }

    #[test]
    fn cname_chase() {
        let z = zone();
        let rs = z.lookup(&name("alias.example.com"), RecordType::A);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].rtype(), RecordType::Cname);
        assert_eq!(rs[1].rtype(), RecordType::A);
    }

    #[test]
    fn cname_query_returns_cname_only() {
        let z = zone();
        let rs = z.lookup(&name("alias.example.com"), RecordType::Cname);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn missing_name_empty() {
        let z = zone();
        assert!(z
            .lookup(&name("nope.example.com"), RecordType::A)
            .is_empty());
        assert!(!z.name_exists(&name("nope.example.com")));
        assert!(z.name_exists(&name("www.example.com")));
    }

    #[test]
    fn out_of_zone_rejected() {
        let mut z = zone();
        assert!(matches!(
            z.add_a(name("www.other.org"), 60, Ipv4Addr::new(1, 1, 1, 1)),
            Err(ZoneError::OutOfZone { .. })
        ));
    }

    #[test]
    fn cname_exclusivity() {
        let mut z = zone();
        // CNAME added where A exists.
        assert!(matches!(
            z.add_cname(name("www.example.com"), 60, name("x.example.com")),
            Err(ZoneError::CnameConflict(_))
        ));
        // A added where CNAME exists.
        assert!(matches!(
            z.add_a(name("alias.example.com"), 60, Ipv4Addr::new(1, 1, 1, 1)),
            Err(ZoneError::CnameConflict(_))
        ));
    }

    #[test]
    fn dangling_cname_returns_partial_chain() {
        let mut z = Zone::new(name("example.com"));
        z.add_cname(name("a.example.com"), 60, name("missing.example.com"))
            .unwrap();
        let rs = z.lookup(&name("a.example.com"), RecordType::A);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn synth_a_answers_any_in_zone_name() {
        let mut z = zone();
        z.set_synth_a(60, Ipv4Addr::new(203, 0, 113, 9));
        // A previously-missing name now synthesizes one A record…
        let rs = z.lookup(&name("p123.x1-2-3-4.example.com"), RecordType::A);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].ttl, 60);
        assert!(z.name_exists(&name("p123.x1-2-3-4.example.com")));
        // …static data still wins…
        let rs = z.lookup(&name("www.example.com"), RecordType::A);
        assert_eq!(rs.len(), 2);
        // …and out-of-zone names stay absent.
        assert!(z.lookup(&name("www.other.org"), RecordType::A).is_empty());
        assert!(!z.name_exists(&name("www.other.org")));
        // Non-A types are not synthesized.
        assert!(z
            .lookup(&name("p123.x1-2-3-4.example.com"), RecordType::Txt)
            .is_empty());
    }

    #[test]
    fn cname_loop_terminates() {
        let mut z = Zone::new(name("example.com"));
        z.add_cname(name("a.example.com"), 60, name("b.example.com"))
            .unwrap();
        z.add_cname(name("b.example.com"), 60, name("a.example.com"))
            .unwrap();
        let rs = z.lookup(&name("a.example.com"), RecordType::A);
        assert!(rs.len() <= 16, "loop must terminate");
    }
}
