//! Message framing for stream transports.
//!
//! DNS over a stream needs explicit message boundaries. RFC 1035 §4.2.2:
//! each message is preceded by a two-byte big-endian length.
//! [`frame_tcp`] / [`unframe_tcp`] are the pure-buffer version (no I/O);
//! `dnsd`'s TCP listener writes its replies through [`frame_tcp`]. The
//! simulator's stream transports carry whole messages and charge the
//! handshake in round trips (`resolver::Transport`), so they frame nothing.
//!
//! [`unframe_tcp`] returns `(payload, consumed)` so a caller draining a
//! stream buffer knows where the next frame starts, and reports an
//! incomplete frame as [`WireError::Truncated`]: read more and retry.

use crate::error::{WireError, WireResult};

/// Largest message a two-byte length prefix can carry.
pub const MAX_FRAME_LEN: usize = u16::MAX as usize;

/// Prefixes `msg` with its two-byte big-endian length (RFC 1035 §4.2.2).
pub fn frame_tcp(msg: &[u8]) -> WireResult<Vec<u8>> {
    if msg.len() > MAX_FRAME_LEN {
        return Err(WireError::MessageTooLong(msg.len()));
    }
    let mut out = Vec::with_capacity(2 + msg.len());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    Ok(out)
}

/// Reads one length-prefixed message from the front of `buf`, returning
/// the payload and the total bytes consumed (`2 + payload.len()`).
/// [`WireError::Truncated`] means the frame is incomplete — read more and
/// retry with the longer buffer.
pub fn unframe_tcp(buf: &[u8]) -> WireResult<(&[u8], usize)> {
    if buf.len() < 2 {
        return Err(WireError::Truncated {
            context: "tcp length prefix",
        });
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    if buf.len() < 2 + len {
        return Err(WireError::Truncated {
            context: "tcp framed message",
        });
    }
    Ok((&buf[2..2 + len], 2 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trip_with_trailing_bytes() {
        let msg = b"\x12\x34hello dns";
        let mut framed = frame_tcp(msg).unwrap();
        assert_eq!(framed.len(), msg.len() + 2);
        framed.extend_from_slice(b"NEXT FRAME");
        let (payload, consumed) = unframe_tcp(&framed).unwrap();
        assert_eq!(payload, msg);
        assert_eq!(consumed, msg.len() + 2);
    }

    #[test]
    fn tcp_empty_and_max_sizes() {
        let empty = frame_tcp(b"").unwrap();
        let (payload, consumed) = unframe_tcp(&empty).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, 2);
        let big = vec![0xAB; MAX_FRAME_LEN];
        let framed = frame_tcp(&big).unwrap();
        assert_eq!(unframe_tcp(&framed).unwrap().0, &big[..]);
        let over = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            frame_tcp(&over),
            Err(WireError::MessageTooLong(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn tcp_incomplete_frames_ask_for_more() {
        assert!(matches!(
            unframe_tcp(&[0x00]),
            Err(WireError::Truncated { .. })
        ));
        // Prefix promises 5 bytes, only 3 arrived.
        assert!(matches!(
            unframe_tcp(&[0x00, 0x05, 1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
    }
}
