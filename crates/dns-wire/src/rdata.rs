//! Typed RDATA for the record types the study uses.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::record::RecordType;
use crate::wire::{WireReader, WireWriter};

/// SOA record fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaData {
    /// Primary nameserver.
    pub mname: Name,
    /// Responsible mailbox.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval.
    pub refresh: u32,
    /// Retry interval.
    pub retry: u32,
    /// Expire limit.
    pub expire: u32,
    /// Negative-caching TTL (RFC 2308).
    pub minimum: u32,
}

/// Typed record data. The variant determines the record TYPE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(Name),
    /// Delegation nameserver.
    Ns(Name),
    /// Reverse pointer target.
    Ptr(Name),
    /// Text record: one or more character strings of up to 255 bytes each.
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa(SoaData),
    /// Any type we do not interpret, kept as raw bytes.
    Unknown {
        /// Numeric record type.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl Rdata {
    /// The TYPE implied by this RDATA.
    pub fn rtype(&self) -> RecordType {
        match self {
            Rdata::A(_) => RecordType::A,
            Rdata::Aaaa(_) => RecordType::Aaaa,
            Rdata::Cname(_) => RecordType::Cname,
            Rdata::Ns(_) => RecordType::Ns,
            Rdata::Ptr(_) => RecordType::Ptr,
            Rdata::Txt(_) => RecordType::Txt,
            Rdata::Soa(_) => RecordType::Soa,
            Rdata::Unknown { rtype, .. } => RecordType::from_u16(*rtype),
        }
    }

    /// Encodes the RDATA body (without the RDLENGTH prefix).
    ///
    /// Names inside well-known types (CNAME, NS, PTR, SOA) are eligible for
    /// compression per RFC 1035/3597; unknown types are written verbatim.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        match self {
            Rdata::A(a) => w.put_bytes(&a.octets()),
            Rdata::Aaaa(a) => w.put_bytes(&a.octets()),
            Rdata::Cname(n) | Rdata::Ns(n) | Rdata::Ptr(n) => n.write(w)?,
            Rdata::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::LabelTooLong(s.len()));
                    }
                    w.put_u8(s.len() as u8);
                    w.put_bytes(s);
                }
            }
            Rdata::Soa(soa) => {
                soa.mname.write(w)?;
                soa.rname.write(w)?;
                w.put_u32(soa.serial);
                w.put_u32(soa.refresh);
                w.put_u32(soa.retry);
                w.put_u32(soa.expire);
                w.put_u32(soa.minimum);
            }
            Rdata::Unknown { data, .. } => w.put_bytes(data),
        }
        Ok(())
    }

    /// Parses RDATA of the given type from a bounded reader. `rdlen` is the
    /// declared RDLENGTH, needed for types with no internal structure.
    pub fn read(rtype: RecordType, r: &mut WireReader<'_>, rdlen: usize) -> WireResult<Self> {
        match rtype {
            RecordType::A => {
                let b = r.read_bytes(4, "A rdata")?;
                Ok(Rdata::A(Ipv4Addr::new(b[0], b[1], b[2], b[3])))
            }
            RecordType::Aaaa => {
                let b = r.read_bytes(16, "AAAA rdata")?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                Ok(Rdata::Aaaa(Ipv6Addr::from(o)))
            }
            RecordType::Cname => Ok(Rdata::Cname(Name::read(r)?)),
            RecordType::Ns => Ok(Rdata::Ns(Name::read(r)?)),
            RecordType::Ptr => Ok(Rdata::Ptr(Name::read(r)?)),
            RecordType::Txt => {
                let mut strings = Vec::new();
                let mut left = rdlen;
                while left > 0 {
                    let n = r.read_u8("TXT string length")? as usize;
                    let s = r.read_bytes(n, "TXT string")?;
                    strings.push(s.to_vec());
                    left = left.checked_sub(1 + n).ok_or(WireError::Truncated {
                        context: "TXT rdata",
                    })?;
                }
                Ok(Rdata::Txt(strings))
            }
            RecordType::Soa => Ok(Rdata::Soa(SoaData {
                mname: Name::read(r)?,
                rname: Name::read(r)?,
                serial: r.read_u32("SOA serial")?,
                refresh: r.read_u32("SOA refresh")?,
                retry: r.read_u32("SOA retry")?,
                expire: r.read_u32("SOA expire")?,
                minimum: r.read_u32("SOA minimum")?,
            })),
            other => Ok(Rdata::Unknown {
                rtype: other.to_u16(),
                data: r.read_bytes(rdlen, "unknown rdata")?.to_vec(),
            }),
        }
    }

    /// Extracts the alias target, if this is a CNAME.
    pub fn as_cname(&self) -> Option<&Name> {
        match self {
            Rdata::Cname(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rdata: Rdata) -> Rdata {
        let mut w = WireWriter::new();
        rdata.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        Rdata::read(rdata.rtype(), &mut r, bytes.len()).unwrap()
    }

    #[test]
    fn a_roundtrip() {
        let rd = Rdata::A(Ipv4Addr::new(203, 0, 113, 9));
        assert_eq!(roundtrip(rd.clone()), rd);
    }

    #[test]
    fn aaaa_roundtrip() {
        let rd = Rdata::Aaaa("2001:db8::42".parse().unwrap());
        assert_eq!(roundtrip(rd.clone()), rd);
    }

    #[test]
    fn cname_ns_ptr_roundtrip() {
        for rd in [
            Rdata::Cname(Name::from_ascii("target.example.net").unwrap()),
            Rdata::Ns(Name::from_ascii("ns1.example.net").unwrap()),
            Rdata::Ptr(Name::from_ascii("host.example.net").unwrap()),
        ] {
            assert_eq!(roundtrip(rd.clone()), rd);
        }
    }

    #[test]
    fn txt_roundtrip_multi_string() {
        let rd = Rdata::Txt(vec![b"hello".to_vec(), b"world".to_vec(), vec![]]);
        assert_eq!(roundtrip(rd.clone()), rd);
    }

    #[test]
    fn txt_string_too_long_rejected() {
        let rd = Rdata::Txt(vec![vec![0u8; 256]]);
        let mut w = WireWriter::new();
        assert!(rd.write(&mut w).is_err());
    }

    #[test]
    fn soa_roundtrip() {
        let rd = Rdata::Soa(SoaData {
            mname: Name::from_ascii("ns1.example.com").unwrap(),
            rname: Name::from_ascii("hostmaster.example.com").unwrap(),
            serial: 2024010101,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        });
        assert_eq!(roundtrip(rd.clone()), rd);
    }

    #[test]
    fn unknown_type_preserved() {
        let rd = Rdata::Unknown {
            rtype: 99,
            data: vec![0xDE, 0xAD],
        };
        assert_eq!(roundtrip(rd.clone()), rd);
        assert_eq!(rd.rtype(), RecordType::Unknown(99));
    }

    #[test]
    fn truncated_a_rejected() {
        let bytes = [1, 2, 3];
        let mut r = WireReader::new(&bytes);
        assert!(Rdata::read(RecordType::A, &mut r, 3).is_err());
    }
}
