//! EDNS0 (RFC 6891): the OPT pseudo-record and its options.

use crate::ecs::EcsOption;
use crate::error::WireResult;
use crate::name::Name;
use crate::wire::{WireReader, WireWriter};

/// EDNS option codes we recognize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionCode {
    /// EDNS Client Subnet (RFC 7871).
    ClientSubnet,
    /// EDNS Cookie (RFC 7873).
    Cookie,
    /// Anything else.
    Unknown(u16),
}

impl OptionCode {
    /// Numeric option code.
    pub fn to_u16(self) -> u16 {
        match self {
            OptionCode::ClientSubnet => 8,
            OptionCode::Cookie => 10,
            OptionCode::Unknown(v) => v,
        }
    }

    /// Decodes a numeric option code.
    pub fn from_u16(v: u16) -> Self {
        match v {
            8 => OptionCode::ClientSubnet,
            10 => OptionCode::Cookie,
            other => OptionCode::Unknown(other),
        }
    }
}

/// A single EDNS option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdnsOption {
    /// Parsed client-subnet option.
    ClientSubnet(EcsOption),
    /// Any option we keep opaque.
    Other {
        /// Numeric option code.
        code: u16,
        /// Raw option body.
        data: Vec<u8>,
    },
}

impl EdnsOption {
    /// The option's code.
    pub fn code(&self) -> OptionCode {
        match self {
            EdnsOption::ClientSubnet(_) => OptionCode::ClientSubnet,
            EdnsOption::Other { code, .. } => OptionCode::from_u16(*code),
        }
    }

    fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        match self {
            EdnsOption::ClientSubnet(ecs) => {
                w.put_u16(OptionCode::ClientSubnet.to_u16());
                let length_at = w.len();
                w.put_u16(0);
                ecs.write(w);
                w.patch_u16(length_at, (w.len() - length_at - 2) as u16);
            }
            EdnsOption::Other { code, data } => {
                w.put_u16(*code);
                w.put_u16(data.len() as u16);
                w.put_bytes(data);
            }
        }
        Ok(())
    }

    fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        let code = r.read_u16("EDNS option code")?;
        let len = r.read_u16("EDNS option length")? as usize;
        let body = r.read_bytes(len, "EDNS option body")?;
        match OptionCode::from_u16(code) {
            OptionCode::ClientSubnet => Ok(EdnsOption::ClientSubnet(EcsOption::from_wire(body)?)),
            _ => Ok(EdnsOption::Other {
                code,
                data: body.to_vec(),
            }),
        }
    }
}

/// The OPT pseudo-record (RFC 6891 §6.1). Exactly zero or one per message;
/// its fixed fields repurpose the class (UDP payload size) and TTL
/// (extended RCODE, version, DO bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptRecord {
    /// Requestor's maximum UDP payload size.
    pub udp_payload_size: u16,
    /// Upper eight bits of the extended response code.
    pub extended_rcode: u8,
    /// EDNS version (0).
    pub version: u8,
    /// DNSSEC OK bit.
    pub dnssec_ok: bool,
    /// Options carried in the RDATA.
    pub options: Vec<EdnsOption>,
}

impl OptRecord {
    /// An empty OPT advertising the given payload size.
    pub fn new(udp_payload_size: u16) -> Self {
        OptRecord {
            udp_payload_size,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }

    /// Returns the first client-subnet option, if present.
    pub fn ecs(&self) -> Option<&EcsOption> {
        self.options.iter().find_map(|o| match o {
            EdnsOption::ClientSubnet(e) => Some(e),
            _ => None,
        })
    }

    /// Replaces (or inserts) the client-subnet option.
    pub fn set_ecs(&mut self, ecs: EcsOption) {
        self.options
            .retain(|o| !matches!(o, EdnsOption::ClientSubnet(_)));
        self.options.push(EdnsOption::ClientSubnet(ecs));
    }

    /// Removes any client-subnet option.
    pub fn clear_ecs(&mut self) {
        self.options
            .retain(|o| !matches!(o, EdnsOption::ClientSubnet(_)));
    }

    /// Encodes the full pseudo-record (owner name through RDATA).
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        Name::root().write_uncompressed(w);
        w.put_u16(41); // TYPE OPT
        w.put_u16(self.udp_payload_size);
        w.put_u8(self.extended_rcode);
        w.put_u8(self.version);
        w.put_u16(if self.dnssec_ok { 0x8000 } else { 0 });
        let rdlength_at = w.len();
        w.put_u16(0);
        let start = w.len();
        for opt in &self.options {
            opt.write(w)?;
        }
        let rdlen = w.len() - start;
        w.patch_u16(rdlength_at, rdlen as u16);
        Ok(())
    }

    /// Parses the body of an OPT record. The caller has already consumed the
    /// owner name and TYPE, and checked the owner was root.
    pub fn read_after_type(r: &mut WireReader<'_>) -> WireResult<Self> {
        let udp_payload_size = r.read_u16("OPT class")?;
        let extended_rcode = r.read_u8("OPT extended rcode")?;
        let version = r.read_u8("OPT version")?;
        let flags = r.read_u16("OPT flags")?;
        let rdlen = r.read_u16("OPT rdlength")? as usize;
        let mut sub = r.sub_reader(rdlen, "OPT rdata")?;
        let mut options = Vec::new();
        while sub.remaining() > 0 {
            options.push(EdnsOption::read(&mut sub)?);
        }
        Ok(OptRecord {
            udp_payload_size,
            extended_rcode,
            version,
            dnssec_ok: flags & 0x8000 != 0,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn roundtrip(opt: &OptRecord) -> OptRecord {
        let mut w = WireWriter::new();
        opt.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        // Consume owner (root) + TYPE.
        let owner = Name::read(&mut r).unwrap();
        assert!(owner.is_root());
        assert_eq!(r.read_u16("type").unwrap(), 41);
        OptRecord::read_after_type(&mut r).unwrap()
    }

    #[test]
    fn empty_opt_roundtrip() {
        let opt = OptRecord::new(4096);
        assert_eq!(roundtrip(&opt), opt);
    }

    #[test]
    fn opt_with_ecs_roundtrip() {
        let mut opt = OptRecord::new(1232);
        opt.set_ecs(EcsOption::from_v4(Ipv4Addr::new(198, 51, 100, 7), 24));
        let back = roundtrip(&opt);
        assert_eq!(back.ecs().unwrap().source_prefix_len(), 24);
    }

    #[test]
    fn opt_with_unknown_option_roundtrip() {
        let mut opt = OptRecord::new(4096);
        opt.options.push(EdnsOption::Other {
            code: 10,
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        assert_eq!(roundtrip(&opt), opt);
        assert_eq!(opt.options[0].code(), OptionCode::Cookie);
    }

    #[test]
    fn set_ecs_replaces() {
        let mut opt = OptRecord::new(4096);
        opt.set_ecs(EcsOption::from_v4(Ipv4Addr::new(1, 2, 3, 0), 24));
        opt.set_ecs(EcsOption::from_v4(Ipv4Addr::new(9, 9, 9, 0), 24));
        assert_eq!(opt.options.len(), 1);
        assert_eq!(opt.ecs().unwrap().to_v4(), Some(Ipv4Addr::new(9, 9, 9, 0)));
        opt.clear_ecs();
        assert!(opt.ecs().is_none());
    }

    #[test]
    fn dnssec_ok_bit() {
        let mut opt = OptRecord::new(4096);
        opt.dnssec_ok = true;
        let back = roundtrip(&opt);
        assert!(back.dnssec_ok);
    }

    #[test]
    fn option_code_mapping() {
        assert_eq!(OptionCode::from_u16(8), OptionCode::ClientSubnet);
        assert_eq!(OptionCode::from_u16(10), OptionCode::Cookie);
        assert_eq!(OptionCode::from_u16(77), OptionCode::Unknown(77));
        assert_eq!(OptionCode::Unknown(77).to_u16(), 77);
    }
}
