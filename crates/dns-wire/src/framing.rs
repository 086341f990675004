//! Message framing for stream transports.
//!
//! DNS over a stream needs explicit message boundaries. RFC 1035 §4.2.2:
//! each message is preceded by a two-byte big-endian length.
//! [`frame_tcp`] writes one frame into a buffer and [`read_tcp_frame`]
//! reads one from any [`Read`], a socket or a byte slice alike; `dnsd`'s
//! TCP server and client use both. The simulator's stream transports
//! carry whole messages and charge the handshake in round trips
//! (`resolver::Transport`), so they frame nothing.

use std::io::{self, Read};

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

/// Reads one length-prefixed message from `stream` and leaves whatever
/// follows it unread. A stream that ends inside the frame, its length
/// prefix included, is [`io::ErrorKind::UnexpectedEof`].
pub fn read_tcp_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut msg = vec![0u8; u16::from_be_bytes(len) as usize];
    stream.read_exact(&mut msg)?;
    Ok(msg)
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
        let mut stream = &framed[..];
        assert_eq!(read_tcp_frame(&mut stream).unwrap(), msg);
        assert_eq!(stream, b"NEXT FRAME");
    }

    #[test]
    fn tcp_empty_and_max_sizes() {
        let empty = frame_tcp(b"").unwrap();
        let mut stream = &empty[..];
        assert!(read_tcp_frame(&mut stream).unwrap().is_empty());
        assert!(stream.is_empty());
        let big = vec![0xAB; MAX_FRAME_LEN];
        let framed = frame_tcp(&big).unwrap();
        assert_eq!(read_tcp_frame(&mut &framed[..]).unwrap(), big);
        let over = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            frame_tcp(&over),
            Err(WireError::MessageTooLong(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn tcp_incomplete_frames_ask_for_more() {
        let eof = |bytes: &[u8]| read_tcp_frame(&mut &bytes[..]).unwrap_err().kind();
        assert_eq!(eof(&[0x00]), io::ErrorKind::UnexpectedEof);
        // Prefix promises 5 bytes, only 3 arrived.
        assert_eq!(eof(&[0x00, 0x05, 1, 2, 3]), io::ErrorKind::UnexpectedEof);
    }
}
