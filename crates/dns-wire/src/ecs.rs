//! The EDNS Client Subnet option (RFC 7871).
//!
//! Wire layout of the option body:
//!
//! ```text
//! +0 (MSB)                            +1 (LSB)
//! +---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+
//! |                            FAMILY                             |
//! +---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+
//! |     SOURCE PREFIX-LENGTH      |     SCOPE PREFIX-LENGTH       |
//! +---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+
//! |                           ADDRESS...                          /
//! +---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+---+
//! ```
//!
//! ADDRESS carries exactly `ceil(source_prefix_len / 8)` octets; bits beyond
//! the source prefix length MUST be zero. In queries SCOPE MUST be zero; in
//! responses SCOPE tells the resolver how widely the answer may be cached.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::{WireError, WireResult};
use crate::prefix::IpPrefix;
use crate::wire::WireWriter;

/// The ECS FAMILY field (IANA address-family numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressFamily {
    /// IPv4 (1).
    V4,
    /// IPv6 (2).
    V6,
}

impl AddressFamily {
    /// Numeric family code.
    pub fn to_u16(self) -> u16 {
        match self {
            AddressFamily::V4 => 1,
            AddressFamily::V6 => 2,
        }
    }

    /// Maximum prefix length for this family.
    pub fn max_prefix_len(self) -> u8 {
        match self {
            AddressFamily::V4 => 32,
            AddressFamily::V6 => 128,
        }
    }

    /// Full address width in octets.
    pub fn addr_octets(self) -> usize {
        match self {
            AddressFamily::V4 => 4,
            AddressFamily::V6 => 16,
        }
    }
}

/// A parsed ECS option.
///
/// Invariants maintained by construction and parsing:
/// * `source_prefix_len`/`scope_prefix_len` never exceed the family maximum;
/// * address bits beyond `source_prefix_len` are zero.
///
/// Note the paper (§6.2) observed resolvers that *violate* the RFC's
/// recommendations (e.g. 32-bit source prefixes with a "jammed" last byte).
/// Those are expressible here — they are protocol-legal — while structurally
/// invalid options (excess address bytes, non-zero trailing bits) are
/// rejected at parse time per RFC 7871 §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcsOption {
    family: AddressFamily,
    source_prefix_len: u8,
    scope_prefix_len: u8,
    /// Address stored family-typed with host bits (beyond source prefix)
    /// already zeroed.
    addr: IpAddr,
}

impl EcsOption {
    /// Builds a query option from an address and source prefix length,
    /// truncating the address. Scope is zero, as queries require.
    pub fn new(addr: IpAddr, source_prefix_len: u8) -> Self {
        let family = match addr {
            IpAddr::V4(_) => AddressFamily::V4,
            IpAddr::V6(_) => AddressFamily::V6,
        };
        let len = source_prefix_len.min(family.max_prefix_len());
        EcsOption {
            family,
            source_prefix_len: len,
            scope_prefix_len: 0,
            addr: crate::prefix::mask_addr(addr, len),
        }
    }

    /// IPv4 convenience constructor.
    pub fn from_v4(addr: Ipv4Addr, source_prefix_len: u8) -> Self {
        EcsOption::new(IpAddr::V4(addr), source_prefix_len)
    }

    /// IPv6 convenience constructor.
    pub fn from_v6(addr: Ipv6Addr, source_prefix_len: u8) -> Self {
        EcsOption::new(IpAddr::V6(addr), source_prefix_len)
    }

    /// Builds an option from a prefix.
    pub fn from_prefix(prefix: IpPrefix) -> Self {
        EcsOption::new(prefix.addr(), prefix.len())
    }

    /// The RFC 7871 §7.1.2 "no information" query option: family per the
    /// caller, source prefix 0, no address octets. Authoritative servers
    /// answering such a query must not tailor the response.
    pub fn no_info_v4() -> Self {
        EcsOption {
            family: AddressFamily::V4,
            source_prefix_len: 0,
            scope_prefix_len: 0,
            addr: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        }
    }

    /// Returns a copy with the scope prefix length set (for responses).
    /// The scope is clamped to the family maximum.
    pub fn with_scope(mut self, scope: u8) -> Self {
        self.scope_prefix_len = scope.min(self.family.max_prefix_len());
        self
    }

    /// Address family.
    pub fn family(&self) -> AddressFamily {
        self.family
    }

    /// SOURCE PREFIX-LENGTH field.
    pub fn source_prefix_len(&self) -> u8 {
        self.source_prefix_len
    }

    /// SCOPE PREFIX-LENGTH field.
    pub fn scope_prefix_len(&self) -> u8 {
        self.scope_prefix_len
    }

    /// The (masked) address.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The IPv4 address if this is a v4 option.
    pub fn to_v4(&self) -> Option<Ipv4Addr> {
        match self.addr {
            IpAddr::V4(a) => Some(a),
            IpAddr::V6(_) => None,
        }
    }

    /// The source prefix as an [`IpPrefix`].
    pub fn source_prefix(&self) -> IpPrefix {
        IpPrefix::new(self.addr, self.source_prefix_len)
            .expect("invariant: source_prefix_len <= family max")
    }

    /// The *scope* prefix of a response: the address truncated to the scope
    /// length. Per RFC 7871 §7.3.1 this governs cache reuse.
    pub fn scope_prefix(&self) -> IpPrefix {
        IpPrefix::new(self.addr, self.scope_prefix_len.min(self.source_prefix_len))
            .expect("invariant: lengths <= family max")
    }

    /// True when the carried prefix is from non-routable space — the §8.1
    /// pitfall (loopback, RFC 1918, link-local).
    pub fn is_non_routable(&self) -> bool {
        self.source_prefix().is_non_routable()
    }

    /// Encodes the option body.
    pub fn to_wire(&self) -> WireResult<Vec<u8>> {
        let mut w = WireWriter::with_buffer(Vec::with_capacity(4 + self.family.addr_octets()));
        self.write(&mut w);
        w.finish()
    }

    /// Appends the option body to `w`: family, the two prefix lengths and
    /// the `ceil(source / 8)` significant address octets (the host bits of
    /// `addr` are zero by invariant).
    pub(crate) fn write(&self, w: &mut WireWriter) {
        w.put_u16(self.family.to_u16());
        w.put_u8(self.source_prefix_len);
        w.put_u8(self.scope_prefix_len);
        let octets = (self.source_prefix_len as usize).div_ceil(8);
        match self.addr {
            IpAddr::V4(a) => w.put_bytes(&a.octets()[..octets]),
            IpAddr::V6(a) => w.put_bytes(&a.octets()[..octets]),
        }
    }

    /// Parses an option body, enforcing RFC 7871 §6 validity:
    /// * family must be 1 or 2;
    /// * prefix lengths must fit the family;
    /// * exactly `ceil(source/8)` address octets must be present;
    /// * bits beyond the source prefix must be zero.
    pub fn from_wire(body: &[u8]) -> WireResult<Self> {
        if body.len() < 4 {
            return Err(WireError::BadEcs("option shorter than 4 bytes"));
        }
        let family = match u16::from_be_bytes([body[0], body[1]]) {
            1 => AddressFamily::V4,
            2 => AddressFamily::V6,
            _ => return Err(WireError::BadEcs("unknown address family")),
        };
        let source = body[2];
        let scope = body[3];
        if source > family.max_prefix_len() {
            return Err(WireError::BadEcs("source prefix length exceeds family"));
        }
        if scope > family.max_prefix_len() {
            return Err(WireError::BadEcs("scope prefix length exceeds family"));
        }
        let expected = (source as usize).div_ceil(8);
        let addr_bytes = &body[4..];
        if addr_bytes.len() != expected {
            return Err(WireError::BadEcs("address octet count mismatch"));
        }
        let addr = match family {
            AddressFamily::V4 => {
                let mut o = [0u8; 4];
                o[..addr_bytes.len()].copy_from_slice(addr_bytes);
                IpAddr::V4(Ipv4Addr::from(o))
            }
            AddressFamily::V6 => {
                let mut o = [0u8; 16];
                o[..addr_bytes.len()].copy_from_slice(addr_bytes);
                IpAddr::V6(Ipv6Addr::from(o))
            }
        };
        // RFC 7871 §6: trailing bits beyond the source prefix MUST be zero.
        if crate::prefix::mask_addr(addr, source) != addr {
            return Err(WireError::BadEcs("non-zero bits beyond source prefix"));
        }
        Ok(EcsOption {
            family,
            source_prefix_len: source,
            scope_prefix_len: scope,
            addr,
        })
    }
}

impl fmt::Display for EcsOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}",
            self.addr, self.source_prefix_len, self.scope_prefix_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_truncates_address() {
        let e = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 77), 24);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(e.source_prefix_len(), 24);
        assert_eq!(e.scope_prefix_len(), 0);
    }

    #[test]
    fn wire_roundtrip_v4() {
        let e = EcsOption::from_v4(Ipv4Addr::new(198, 51, 100, 0), 24).with_scope(16);
        let wire = e.to_wire().unwrap();
        // family=1, source=24, scope=16, 3 address bytes.
        assert_eq!(wire, vec![0, 1, 24, 16, 198, 51, 100]);
        assert_eq!(EcsOption::from_wire(&wire).unwrap(), e);
    }

    #[test]
    fn wire_roundtrip_v6() {
        let e = EcsOption::from_v6("2001:db8:ab:cd::1".parse().unwrap(), 56);
        let wire = e.to_wire().unwrap();
        assert_eq!(wire.len(), 4 + 7);
        let back = EcsOption::from_wire(&wire).unwrap();
        assert_eq!(back.family(), AddressFamily::V6);
        assert_eq!(back.source_prefix_len(), 56);
        assert_eq!(back, e);
    }

    #[test]
    fn no_info_option() {
        let e = EcsOption::no_info_v4();
        let wire = e.to_wire().unwrap();
        assert_eq!(wire, vec![0, 1, 0, 0]);
        assert_eq!(EcsOption::from_wire(&wire).unwrap(), e);
    }

    #[test]
    fn parse_rejects_bad_family() {
        assert!(matches!(
            EcsOption::from_wire(&[0, 3, 0, 0]),
            Err(WireError::BadEcs(_))
        ));
    }

    #[test]
    fn parse_rejects_excess_prefix() {
        // family v4, source 33.
        assert!(EcsOption::from_wire(&[0, 1, 33, 0, 1, 2, 3, 4, 5]).is_err());
        // family v4, scope 33.
        assert!(EcsOption::from_wire(&[0, 1, 0, 33]).is_err());
    }

    #[test]
    fn parse_rejects_octet_count_mismatch() {
        // source 24 requires exactly 3 address octets.
        assert!(EcsOption::from_wire(&[0, 1, 24, 0, 1, 2]).is_err());
        assert!(EcsOption::from_wire(&[0, 1, 24, 0, 1, 2, 3, 4]).is_err());
        assert!(EcsOption::from_wire(&[0, 1, 24, 0, 1, 2, 3]).is_ok());
    }

    #[test]
    fn parse_rejects_nonzero_trailing_bits() {
        // source 23 with the 24th bit set.
        assert!(matches!(
            EcsOption::from_wire(&[0, 1, 23, 0, 192, 0, 3]),
            Err(WireError::BadEcs(_))
        ));
        // source 23 with bit 23 set is fine (192.0.2.0/23).
        assert!(EcsOption::from_wire(&[0, 1, 23, 0, 192, 0, 2]).is_ok());
    }

    #[test]
    fn parse_rejects_short_body() {
        assert!(EcsOption::from_wire(&[0, 1, 0]).is_err());
        assert!(EcsOption::from_wire(&[]).is_err());
    }

    #[test]
    fn scope_prefix_respects_source_cap() {
        // A malformed-but-parseable response with scope longer than source:
        // RFC 7871 says resolvers must treat such answers carefully; we clamp
        // at the accessor level.
        let e = EcsOption::from_v4(Ipv4Addr::new(10, 0, 0, 0), 16).with_scope(24);
        assert_eq!(e.scope_prefix().len(), 16);
    }

    #[test]
    fn non_routable_flag() {
        assert!(EcsOption::from_v4(Ipv4Addr::new(127, 0, 0, 1), 32).is_non_routable());
        assert!(EcsOption::from_v4(Ipv4Addr::new(169, 254, 252, 0), 24).is_non_routable());
        assert!(!EcsOption::from_v4(Ipv4Addr::new(8, 8, 8, 0), 24).is_non_routable());
    }

    #[test]
    fn jammed_last_byte_is_expressible() {
        // The paper's /32-with-jammed-last-byte behaviour: source 32 but the
        // low byte is a constant (0x01). This is protocol-legal.
        let e = EcsOption::from_v4(Ipv4Addr::new(203, 0, 113, 1), 32);
        let wire = e.to_wire().unwrap();
        assert_eq!(wire, vec![0, 1, 32, 0, 203, 0, 113, 1]);
        assert_eq!(EcsOption::from_wire(&wire).unwrap(), e);
    }

    #[test]
    fn display_format() {
        let e = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(16);
        assert_eq!(e.to_string(), "192.0.2.0/24/16");
    }

    #[test]
    fn prefix_views() {
        let e = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(16);
        assert_eq!(e.source_prefix().to_string(), "192.0.2.0/24");
        assert_eq!(e.scope_prefix().to_string(), "192.0.0.0/16");
    }
}
