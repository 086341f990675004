//! Resource records: types, classes, and the RR envelope.

use std::fmt;

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::rdata::Rdata;
use crate::wire::{WireReader, WireWriter};

/// Record type (the TYPE field / QTYPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 address.
    A,
    /// Authoritative nameserver.
    Ns,
    /// Canonical name alias.
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse DNS).
    Ptr,
    /// Text strings.
    Txt,
    /// IPv6 address.
    Aaaa,
    /// EDNS0 pseudo-record (RFC 6891).
    Opt,
    /// Query-only: any type.
    Any,
    /// Anything else, preserved numerically.
    Unknown(u16),
}

impl RecordType {
    /// Numeric TYPE value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Any => 255,
            RecordType::Unknown(v) => v,
        }
    }

    /// Decodes a numeric TYPE value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            255 => RecordType::Any,
            other => RecordType::Unknown(other),
        }
    }

    /// True for the address types ECS responses are tailored for. The paper
    /// notes resolvers should not send ECS on other types (e.g. NS).
    pub fn is_address(self) -> bool {
        matches!(self, RecordType::A | RecordType::Aaaa)
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Any => write!(f, "ANY"),
            RecordType::Unknown(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Record class. Internet is the only one in real use; the OPT record
/// repurposes this field for the UDP payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// Internet.
    In,
    /// Chaos (used for server identification queries).
    Ch,
    /// Query-only: any class.
    Any,
    /// Anything else (including OPT payload sizes).
    Unknown(u16),
}

impl RecordClass {
    /// Numeric CLASS value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Any => 255,
            RecordClass::Unknown(v) => v,
        }
    }

    /// Decodes a numeric CLASS value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            255 => RecordClass::Any,
            other => RecordClass::Unknown(other),
        }
    }
}

/// A resource record: owner name, type, class, TTL, and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record class (almost always IN).
    pub class: RecordClass,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed record data; determines the TYPE field.
    pub rdata: Rdata,
}

impl Record {
    /// Convenience constructor for an IN record.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Self {
        Record {
            name,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// The record's TYPE, derived from the RDATA variant.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// Encodes the record, compressing the owner name and any compressible
    /// names inside RDATA.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        self.name.write(w)?;
        w.put_u16(self.rtype().to_u16());
        w.put_u16(self.class.to_u16());
        w.put_u32(self.ttl);
        let rdlength_at = w.len();
        w.put_u16(0); // patched below
        let start = w.len();
        self.rdata.write(w)?;
        let rdlen = w.len() - start;
        if rdlen > u16::MAX as usize {
            return Err(WireError::MessageTooLong(rdlen));
        }
        w.patch_u16(rdlength_at, rdlen as u16);
        Ok(())
    }

    /// Parses one record (not OPT — the message layer intercepts those).
    pub fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        let name = Name::read(r)?;
        let rtype = RecordType::from_u16(r.read_u16("record type")?);
        let class = RecordClass::from_u16(r.read_u16("record class")?);
        let ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("rdlength")? as usize;
        let mut sub = r.sub_reader(rdlen, "rdata")?;
        let start = sub.position();
        let rdata = Rdata::read(rtype, &mut sub, rdlen)?;
        let consumed = sub.position() - start;
        if consumed != rdlen {
            return Err(WireError::RdataLengthMismatch {
                declared: rdlen,
                consumed,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Ptr,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Opt,
            RecordType::Any,
            RecordType::Unknown(999),
        ] {
            assert_eq!(RecordType::from_u16(t.to_u16()), t);
        }
        assert!(RecordType::A.is_address());
        assert!(RecordType::Aaaa.is_address());
        assert!(!RecordType::Ns.is_address());
    }

    #[test]
    fn class_codes_roundtrip() {
        for c in [
            RecordClass::In,
            RecordClass::Ch,
            RecordClass::Any,
            RecordClass::Unknown(4096),
        ] {
            assert_eq!(RecordClass::from_u16(c.to_u16()), c);
        }
    }

    #[test]
    fn record_roundtrip_a() {
        let rec = Record::new(
            name("www.example.com"),
            300,
            Rdata::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let mut w = WireWriter::new();
        rec.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        let back = Record::read(&mut r).unwrap();
        assert_eq!(back, rec);
        assert!(r.is_empty());
    }

    #[test]
    fn record_roundtrip_unknown_type() {
        let rec = Record::new(
            name("x.example"),
            60,
            Rdata::Unknown {
                rtype: 999,
                data: vec![1, 2, 3, 4],
            },
        );
        let mut w = WireWriter::new();
        rec.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::read(&mut r).unwrap(), rec);
    }

    #[test]
    fn rdlength_mismatch_detected() {
        // Handcraft an A record claiming 5 rdata bytes (A parses exactly 4).
        let mut w = WireWriter::new();
        name("a.example").write(&mut w).unwrap();
        w.put_u16(1); // TYPE A
        w.put_u16(1); // IN
        w.put_u32(60);
        w.put_u16(5);
        w.put_bytes(&[1, 2, 3, 4, 9]);
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Record::read(&mut r),
            Err(WireError::RdataLengthMismatch {
                declared: 5,
                consumed: 4
            })
        ));
    }

    #[test]
    fn display_types() {
        assert_eq!(RecordType::A.to_string(), "A");
        assert_eq!(RecordType::Unknown(300).to_string(), "TYPE300");
    }
}
