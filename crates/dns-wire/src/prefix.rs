//! IP address prefixes with the bit-level operations RFC 7871 requires.
//!
//! The ECS option carries a *prefix* of a client address: a source prefix
//! length plus only as many address octets as the prefix needs, with unused
//! trailing bits zeroed. This module centralizes that arithmetic so that the
//! resolver cache, authoritative scope logic, and analysis code all agree on
//! truncation and containment semantics.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Error raised by prefix construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixError {
    /// The offending prefix length.
    pub len: u8,
    /// The maximum allowed for the family.
    pub max: u8,
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prefix length {} exceeds family maximum {}",
            self.len, self.max
        )
    }
}

impl std::error::Error for PrefixError {}

/// An IP prefix: an address with all bits beyond `len` forced to zero.
///
/// ```
/// use dns_wire::IpPrefix;
/// use std::net::{IpAddr, Ipv4Addr};
///
/// let p = IpPrefix::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77)), 24).unwrap();
/// assert_eq!(p.to_string(), "192.0.2.0/24");
/// assert!(p.contains(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))));
/// assert!(!p.contains(IpAddr::V4(Ipv4Addr::new(192, 0, 3, 1))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpPrefix {
    addr: IpAddr,
    len: u8,
}

impl IpPrefix {
    /// Creates a prefix, zeroing host bits. `len` must not exceed 32 for
    /// IPv4 or 128 for IPv6.
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, PrefixError> {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return Err(PrefixError { len, max });
        }
        Ok(IpPrefix {
            addr: mask_addr(addr, len),
            len,
        })
    }

    /// Convenience constructor for IPv4.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        Self::new(IpAddr::V4(addr), len)
    }

    /// Convenience constructor for IPv6.
    pub fn v6(addr: Ipv6Addr, len: u8) -> Result<Self, PrefixError> {
        Self::new(IpAddr::V6(addr), len)
    }

    /// A single-address prefix (/32 or /128).
    pub fn host(addr: IpAddr) -> Self {
        let len = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        IpPrefix { addr, len }
    }

    /// The masked network address.
    pub fn addr(&self) -> IpAddr {
        self.addr
    }

    /// The prefix length in bits. (`is_empty` would be meaningless for a
    /// prefix; the zero-length prefix is the default route, see
    /// [`IpPrefix::is_default_route`].)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length prefix of either family.
    pub fn is_default_route(&self) -> bool {
        self.len == 0
    }

    /// Family maximum (32 or 128).
    pub fn family_bits(&self) -> u8 {
        match self.addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        }
    }

    /// True if this is an IPv4 prefix.
    pub fn is_v4(&self) -> bool {
        matches!(self.addr, IpAddr::V4(_))
    }

    /// Shortens the prefix to at most `len` bits, re-zeroing host bits.
    /// Lengthening is a no-op (returns self unchanged).
    pub fn truncate(&self, len: u8) -> IpPrefix {
        if len >= self.len {
            *self
        } else {
            IpPrefix {
                addr: mask_addr(self.addr, len),
                len,
            }
        }
    }

    /// True if `addr` falls within this prefix. Addresses of the other
    /// family never match.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self.addr, addr) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                mask_addr(addr, self.len) == self.addr
            }
            _ => false,
        }
    }

    /// True if `other` is fully inside this prefix (same family, longer or
    /// equal length, matching leading bits).
    pub fn covers(&self, other: &IpPrefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// True if the prefix is from non-routable space: loopback, RFC 1918
    /// private, link-local/self-assigned, or unspecified. These are the
    /// prefixes §8.1 of the paper shows confusing CDN mapping.
    pub fn is_non_routable(&self) -> bool {
        match self.addr {
            IpAddr::V4(a) => {
                let o = a.octets();
                o[0] == 127 // loopback
                    || o[0] == 10 // RFC1918
                    || (o[0] == 172 && (16..=31).contains(&o[1]))
                    || (o[0] == 192 && o[1] == 168)
                    || (o[0] == 169 && o[1] == 254) // link-local
                    || a.is_unspecified()
                    // A /0 ECS prefix is not "non-routable", it is "no info".
                    && self.len > 0
            }
            IpAddr::V6(a) => {
                a.is_loopback()
                    || (a.segments()[0] & 0xFE00) == 0xFC00 // ULA fc00::/7
                    || (a.segments()[0] & 0xFFC0) == 0xFE80 // link-local
                    || (a.is_unspecified() && self.len > 0)
            }
        }
    }

    /// Number of address octets needed on the wire for this prefix length
    /// (RFC 7871: `ceil(len / 8)`).
    pub fn wire_octets(&self) -> usize {
        self.len.div_ceil(8) as usize
    }

    /// The significant address octets, truncated per `wire_octets` with the
    /// final partial octet masked.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let full = match self.addr {
            IpAddr::V4(a) => a.octets().to_vec(),
            IpAddr::V6(a) => a.octets().to_vec(),
        };
        full[..self.wire_octets()].to_vec()
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Zeroes all bits of `addr` beyond the first `len`.
pub fn mask_addr(addr: IpAddr, len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(a) => {
            let bits = u32::from(a);
            let masked = if len == 0 {
                0
            } else {
                bits & (u32::MAX << (32 - len.min(32)))
            };
            IpAddr::V4(Ipv4Addr::from(masked))
        }
        IpAddr::V6(a) => {
            let bits = u128::from(a);
            let masked = if len == 0 {
                0
            } else {
                bits & (u128::MAX << (128 - len.min(128) as u32))
            };
            IpAddr::V6(Ipv6Addr::from(masked))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn v6(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn masks_host_bits() {
        let p = IpPrefix::v4(v4("192.0.2.77"), 24).unwrap();
        assert_eq!(p.addr(), IpAddr::V4(v4("192.0.2.0")));
        let p = IpPrefix::v4(v4("10.255.255.255"), 12).unwrap();
        assert_eq!(p.addr(), IpAddr::V4(v4("10.240.0.0")));
        let p = IpPrefix::v4(v4("255.255.255.255"), 0).unwrap();
        assert_eq!(p.addr(), IpAddr::V4(v4("0.0.0.0")));
        let p = IpPrefix::v6(v6("2001:db8::ff"), 32).unwrap();
        assert_eq!(p.addr(), IpAddr::V6(v6("2001:db8::")));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(IpPrefix::v4(v4("1.2.3.4"), 33).is_err());
        assert!(IpPrefix::v6(v6("::1"), 129).is_err());
        assert!(IpPrefix::v4(v4("1.2.3.4"), 32).is_ok());
        assert!(IpPrefix::v6(v6("::1"), 128).is_ok());
    }

    #[test]
    fn contains_and_covers() {
        let p = IpPrefix::v4(v4("192.0.2.0"), 24).unwrap();
        assert!(p.contains(IpAddr::V4(v4("192.0.2.255"))));
        assert!(!p.contains(IpAddr::V4(v4("192.0.3.0"))));
        assert!(!p.contains(IpAddr::V6(v6("::192.0.2.1"))));
        let sub = IpPrefix::v4(v4("192.0.2.128"), 25).unwrap();
        assert!(p.covers(&sub));
        assert!(!sub.covers(&p));
        assert!(p.covers(&p));
        let zero = IpPrefix::v4(v4("0.0.0.0"), 0).unwrap();
        assert!(zero.covers(&p));
        assert!(zero.is_default_route());
    }

    #[test]
    fn truncate_shortens_only() {
        let p = IpPrefix::v4(v4("192.0.2.77"), 32).unwrap();
        assert_eq!(p.truncate(24).to_string(), "192.0.2.0/24");
        assert_eq!(p.truncate(16).to_string(), "192.0.0.0/16");
        // Lengthening is a no-op.
        assert_eq!(p.truncate(32), p);
        let q = IpPrefix::v4(v4("192.0.2.0"), 24).unwrap();
        assert_eq!(q.truncate(30), q);
    }

    #[test]
    fn non_routable_detection() {
        assert!(IpPrefix::v4(v4("127.0.0.1"), 32).unwrap().is_non_routable());
        assert!(IpPrefix::v4(v4("127.0.0.0"), 24).unwrap().is_non_routable());
        assert!(IpPrefix::v4(v4("169.254.252.0"), 24)
            .unwrap()
            .is_non_routable());
        assert!(IpPrefix::v4(v4("10.1.2.3"), 24).unwrap().is_non_routable());
        assert!(IpPrefix::v4(v4("172.16.0.0"), 16)
            .unwrap()
            .is_non_routable());
        assert!(IpPrefix::v4(v4("192.168.1.0"), 24)
            .unwrap()
            .is_non_routable());
        assert!(!IpPrefix::v4(v4("192.0.2.0"), 24).unwrap().is_non_routable());
        assert!(!IpPrefix::v4(v4("8.8.8.0"), 24).unwrap().is_non_routable());
        assert!(IpPrefix::v6(v6("::1"), 128).unwrap().is_non_routable());
        assert!(IpPrefix::v6(v6("fe80::1"), 64).unwrap().is_non_routable());
        assert!(IpPrefix::v6(v6("fd00::"), 48).unwrap().is_non_routable());
        assert!(!IpPrefix::v6(v6("2001:db8::"), 32)
            .unwrap()
            .is_non_routable());
    }

    #[test]
    fn wire_octets_math() {
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 0).unwrap().wire_octets(), 0);
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 1).unwrap().wire_octets(), 1);
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 8).unwrap().wire_octets(), 1);
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 9).unwrap().wire_octets(), 2);
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 24).unwrap().wire_octets(), 3);
        assert_eq!(IpPrefix::v4(v4("1.2.3.4"), 25).unwrap().wire_octets(), 4);
        assert_eq!(IpPrefix::v6(v6("::"), 56).unwrap().wire_octets(), 7);
    }

    #[test]
    fn wire_bytes_are_masked() {
        let p = IpPrefix::v4(v4("192.0.2.255"), 25).unwrap();
        assert_eq!(p.wire_bytes(), vec![192, 0, 2, 128]);
        let p = IpPrefix::v4(v4("192.0.2.255"), 24).unwrap();
        assert_eq!(p.wire_bytes(), vec![192, 0, 2]);
    }

    #[test]
    fn display_parse_shapes() {
        let p = IpPrefix::v4(v4("192.0.2.7"), 24).unwrap();
        assert_eq!(p.to_string(), "192.0.2.0/24");
        // /56 keeps only 7 address octets: the low byte of the fourth
        // segment (0x0002) is zeroed.
        let p = IpPrefix::v6(v6("2001:db8:1:2::"), 56).unwrap();
        assert_eq!(p.to_string(), "2001:db8:1::/56");
        let p = IpPrefix::v6(v6("2001:db8:1:200::"), 56).unwrap();
        assert_eq!(p.to_string(), "2001:db8:1:200::/56");
    }

    #[test]
    fn host_prefix() {
        let p = IpPrefix::host(IpAddr::V4(v4("1.2.3.4")));
        assert_eq!(p.len(), 32);
        assert_eq!(p.family_bits(), 32);
        assert!(p.is_v4());
        let p = IpPrefix::host(IpAddr::V6(v6("2001:db8::1")));
        assert_eq!(p.len(), 128);
        assert_eq!(p.family_bits(), 128);
        assert!(!p.is_v4());
    }
}
