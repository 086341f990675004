//! The DNS message header (RFC 1035 §4.1.1).

use crate::error::WireResult;
use crate::wire::{WireReader, WireWriter};

/// Operation code from the header's OPCODE field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification.
    Notify,
    /// Dynamic update.
    Update,
    /// Any value not otherwise assigned.
    Unknown(u8),
}

impl Opcode {
    /// Numeric value of the opcode.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit opcode field.
    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// Response code. Only the low four header bits are modeled here; the EDNS
/// extended RCODE is combined at the message layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error — the server could not interpret the query. Returned by
    /// pre-EDNS servers receiving an OPT record (the failure mode the
    /// paper's probing discussion cites).
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused by policy.
    Refused,
    /// Any other value.
    Unknown(u8),
}

impl Rcode {
    /// Numeric value (4 bits).
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit RCODE field.
    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }

    /// True when the response indicates success.
    pub fn is_ok(self) -> bool {
        self == Rcode::NoError
    }
}

/// The header flag bits (QR, AA, TC, RD, RA, AD, CD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Query (false) or response (true).
    pub qr: bool,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authenticated data (DNSSEC).
    pub ad: bool,
    /// Checking disabled (DNSSEC).
    pub cd: bool,
}

/// A parsed DNS header: ID, flags, opcode, rcode, and the four section
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier.
    pub id: u16,
    /// Flag bits.
    pub flags: Flags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code (low four bits only).
    pub rcode: Rcode,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
    /// Authority count.
    pub nscount: u16,
    /// Additional count.
    pub arcount: u16,
}

impl Header {
    /// A query header with recursion desired, zero counts.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            flags: Flags {
                rd: true,
                ..Flags::default()
            },
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }

    /// Encodes the fixed twelve bytes.
    pub fn write(&self, w: &mut WireWriter) {
        w.put_u16(self.id);
        let mut hi: u8 = 0;
        if self.flags.qr {
            hi |= 0x80;
        }
        hi |= self.opcode.to_u8() << 3;
        if self.flags.aa {
            hi |= 0x04;
        }
        if self.flags.tc {
            hi |= 0x02;
        }
        if self.flags.rd {
            hi |= 0x01;
        }
        let mut lo: u8 = 0;
        if self.flags.ra {
            lo |= 0x80;
        }
        if self.flags.ad {
            lo |= 0x20;
        }
        if self.flags.cd {
            lo |= 0x10;
        }
        lo |= self.rcode.to_u8();
        w.put_u8(hi);
        w.put_u8(lo);
        w.put_u16(self.qdcount);
        w.put_u16(self.ancount);
        w.put_u16(self.nscount);
        w.put_u16(self.arcount);
    }

    /// Parses the fixed twelve bytes.
    #[inline]
    pub fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        let id = r.read_u16("header id")?;
        let hi = r.read_u8("header flags high")?;
        let lo = r.read_u8("header flags low")?;
        let flags = Flags {
            qr: hi & 0x80 != 0,
            aa: hi & 0x04 != 0,
            tc: hi & 0x02 != 0,
            rd: hi & 0x01 != 0,
            ra: lo & 0x80 != 0,
            ad: lo & 0x20 != 0,
            cd: lo & 0x10 != 0,
        };
        Ok(Header {
            id,
            flags,
            opcode: Opcode::from_u8((hi >> 3) & 0x0F),
            rcode: Rcode::from_u8(lo & 0x0F),
            qdcount: r.read_u16("qdcount")?,
            ancount: r.read_u16("ancount")?,
            nscount: r.read_u16("nscount")?,
            arcount: r.read_u16("arcount")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_rcode_roundtrip() {
        for v in 0..=15u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
        assert!(Rcode::NoError.is_ok());
        assert!(!Rcode::ServFail.is_ok());
    }

    #[test]
    fn header_roundtrip_all_flags() {
        let h = Header {
            id: 0xBEEF,
            flags: Flags {
                qr: true,
                aa: true,
                tc: true,
                rd: true,
                ra: true,
                ad: true,
                cd: true,
            },
            opcode: Opcode::Update,
            rcode: Rcode::Refused,
            qdcount: 1,
            ancount: 2,
            nscount: 3,
            arcount: 4,
        };
        let mut w = WireWriter::new();
        h.write(&mut w);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 12);
        let mut r = WireReader::new(&bytes);
        assert_eq!(Header::read(&mut r).unwrap(), h);
    }

    #[test]
    fn known_byte_layout() {
        // Standard RD query: flags bytes must be 0x01 0x00.
        let mut h = Header::query(0x1234);
        h.qdcount = 1;
        let mut w = WireWriter::new();
        h.write(&mut w);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, [0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn response_bit_layout() {
        let mut h = Header::query(1);
        h.flags.qr = true;
        h.flags.ra = true;
        h.rcode = Rcode::NxDomain;
        let mut w = WireWriter::new();
        h.write(&mut w);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes[2], 0x81); // QR | RD
        assert_eq!(bytes[3], 0x83); // RA | NXDOMAIN
    }

    #[test]
    fn truncated_header_rejected() {
        let mut r = WireReader::new(&[0u8; 11]);
        assert!(Header::read(&mut r).is_err());
    }
}
