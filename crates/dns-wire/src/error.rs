//! Error type shared by all wire-format operations.

use std::fmt;

/// Result alias for wire-format operations.
pub type WireResult<T> = Result<T, WireError>;

/// Errors raised while parsing or serializing DNS messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete structure could be read.
    Truncated {
        /// What was being parsed when the input ran out.
        context: &'static str,
    },
    /// A domain-name label exceeded 63 octets.
    LabelTooLong(usize),
    /// A domain name exceeded 255 octets in wire form.
    NameTooLong(usize),
    /// A label contained bytes that are not permitted in hostnames.
    InvalidLabel,
    /// A compression pointer pointed at or after its own position.
    BadCompressionPointer {
        /// Offset of the pointer itself.
        at: usize,
        /// Target offset the pointer referenced.
        target: usize,
    },
    /// Too many chained compression pointers (loop suspected).
    CompressionLoop,
    /// The two high bits of a label length byte were `01` or `10`, which
    /// are reserved and never valid.
    ReservedLabelType(u8),
    /// An RDATA section did not match its declared RDLENGTH.
    RdataLengthMismatch {
        /// Declared RDLENGTH.
        declared: usize,
        /// Bytes actually consumed.
        consumed: usize,
    },
    /// An EDNS option body was malformed.
    BadEdnsOption(&'static str),
    /// An ECS option violated RFC 7871 (bad family, excess address bytes,
    /// non-zero trailing bits, …).
    BadEcs(&'static str),
    /// More than one OPT record appeared in a message (RFC 6891 §6.1.1).
    DuplicateOpt,
    /// An OPT record appeared with a non-root owner name.
    OptOwnerNotRoot,
    /// A message exceeded the 64 KiB wire-size limit while serializing.
    MessageTooLong(usize),
    /// A count field in the header promised more entries than the body held.
    CountMismatch {
        /// Which section disagreed.
        section: &'static str,
    },
    /// An address prefix operation was given an out-of-range prefix length.
    PrefixLenOutOfRange {
        /// The offending length.
        len: u8,
        /// Maximum allowed for the address family.
        max: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "input truncated while parsing {context}")
            }
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::InvalidLabel => write!(f, "label contains invalid bytes"),
            WireError::BadCompressionPointer { at, target } => {
                write!(
                    f,
                    "compression pointer at {at} targets {target} (not strictly backwards)"
                )
            }
            WireError::CompressionLoop => write!(f, "compression pointer chain too long"),
            WireError::ReservedLabelType(b) => {
                write!(f, "reserved label type in length byte {b:#04x}")
            }
            WireError::RdataLengthMismatch { declared, consumed } => {
                write!(
                    f,
                    "rdata declared {declared} bytes but parsing consumed {consumed}"
                )
            }
            WireError::BadEdnsOption(why) => write!(f, "malformed EDNS option: {why}"),
            WireError::BadEcs(why) => write!(f, "malformed ECS option: {why}"),
            WireError::DuplicateOpt => write!(f, "more than one OPT record in message"),
            WireError::OptOwnerNotRoot => write!(f, "OPT record owner name is not the root"),
            WireError::MessageTooLong(n) => {
                write!(f, "serialized message of {n} bytes exceeds 65535")
            }
            WireError::CountMismatch { section } => {
                write!(f, "header count disagrees with body in {section} section")
            }
            WireError::PrefixLenOutOfRange { len, max } => {
                write!(f, "prefix length {len} out of range (max {max})")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::Truncated { context: "header" };
        assert!(e.to_string().contains("header"));
        let e = WireError::BadCompressionPointer { at: 30, target: 40 };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains("40"));
        let e = WireError::PrefixLenOutOfRange { len: 40, max: 32 };
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(WireError::LabelTooLong(64), WireError::LabelTooLong(64));
        assert_ne!(WireError::LabelTooLong(64), WireError::NameTooLong(64));
    }
}
