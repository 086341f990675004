//! Low-level byte reader/writer with DNS name compression support.
//!
//! [`WireReader`] is a cursor over an immutable byte slice that knows how to
//! follow compression pointers. [`WireWriter`] appends to a growable buffer
//! and remembers the offsets of names it has written so later names can be
//! compressed against them.

use bytes::{BufMut, BytesMut};
use std::collections::HashMap;

use crate::error::{WireError, WireResult};

/// Maximum number of compression pointers we will chase for a single name.
/// A legitimate name has at most 127 labels, so 128 jumps is generous.
pub const MAX_POINTER_CHASES: usize = 128;

/// Cursor over a DNS message being parsed.
///
/// The reader always retains a view of the *entire* message so that
/// compression pointers (which are absolute offsets from the start of the
/// message) can be resolved from anywhere.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current absolute offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The whole underlying message (used by name decompression).
    pub fn full_message(&self) -> &'a [u8] {
        self.buf
    }

    /// Moves the cursor to an absolute offset. Only used internally for
    /// pointer chasing; offsets are validated by the caller.
    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Reads a single octet.
    pub fn read_u8(&mut self, context: &'static str) -> WireResult<u8> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated { context });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    pub fn read_u16(&mut self, context: &'static str) -> WireResult<u16> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated { context });
        }
        let v = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    /// Reads a big-endian `u32`.
    pub fn read_u32(&mut self, context: &'static str) -> WireResult<u32> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated { context });
        }
        let mut be = [0u8; 4];
        be.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_be_bytes(be))
    }

    /// Reads exactly `n` bytes, returning a slice borrowed from the message.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Upper-bounds a section's `Vec` preallocation from a header count.
    ///
    /// A hostile header can claim 65 535 records while the message holds
    /// only a handful of bytes; allocating `count` slots up front would let
    /// a 12-byte datagram reserve megabytes. Clamp to the number of
    /// entries the unread bytes could possibly encode, at `min_wire` bytes
    /// each (the smallest legal encoding — for a record, a 1-byte root
    /// owner + type + class + TTL + RDLENGTH = 11 bytes). Parsing still
    /// attempts `count` entries and fails with the usual truncation/count
    /// errors; only the speculative allocation is bounded.
    pub fn capacity_for(&self, count: u16, min_wire: usize) -> usize {
        (count as usize).min(self.remaining() / min_wire.max(1))
    }

    /// Returns a sub-reader limited to the next `n` bytes and advances this
    /// reader past them. The sub-reader still sees the full message for
    /// compression-pointer resolution but its cursor starts at the sub-slice.
    pub fn sub_reader(&mut self, n: usize, context: &'static str) -> WireResult<WireReader<'a>> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let start = self.pos;
        self.pos += n;
        Ok(WireReader {
            buf: &self.buf[..start + n],
            pos: start,
        })
    }
}

/// Append-only writer with name compression bookkeeping.
#[derive(Debug)]
pub struct WireWriter {
    buf: BytesMut,
    /// Maps a fully-qualified lowercase name suffix (e.g. `www.example.com.`)
    /// to the message offset where it was first written. Offsets above
    /// 0x3FFF cannot be expressed as pointers and are not recorded.
    name_offsets: HashMap<String, u16>,
    /// When false, name compression is disabled (useful for testing and for
    /// contexts like RDATA of unknown types where compression is forbidden).
    compress: bool,
}

impl WireWriter {
    /// Creates an empty writer with compression enabled.
    pub fn new() -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(512),
            name_offsets: HashMap::new(),
            compress: true,
        }
    }

    /// Creates a writer with name compression disabled.
    pub fn without_compression() -> Self {
        let mut w = Self::new();
        w.compress = false;
        w
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Overwrites a big-endian `u16` at an absolute offset (used to patch
    /// RDLENGTH and header counts after the fact).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let be = v.to_be_bytes();
        self.buf[offset] = be[0];
        self.buf[offset + 1] = be[1];
    }

    /// Looks up a previously written name suffix; returns its offset if it
    /// can be the target of a compression pointer.
    pub(crate) fn lookup_name(&self, key: &str) -> Option<u16> {
        if !self.compress {
            return None;
        }
        self.name_offsets.get(key).copied()
    }

    /// Records that a name suffix was written starting at `offset`.
    pub(crate) fn record_name(&mut self, key: String, offset: usize) {
        // Pointers only address the low 14 bits.
        if offset <= 0x3FFF {
            self.name_offsets.entry(key).or_insert(offset as u16);
        }
    }

    /// Finalizes the writer, validating the DNS message size limit.
    pub fn finish(self) -> WireResult<Vec<u8>> {
        if self.buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(self.buf.len()));
        }
        Ok(self.buf.to_vec())
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_scalars_roundtrip() {
        let data = [0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let mut r = WireReader::new(&data);
        assert_eq!(r.read_u8("t").unwrap(), 0xAB);
        assert_eq!(r.read_u16("t").unwrap(), 0x1234);
        assert_eq!(r.read_u32("t").unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_u8("t").unwrap(), 0x01);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_truncation_reports_context() {
        let mut r = WireReader::new(&[0x00]);
        let err = r.read_u16("header id").unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                context: "header id"
            }
        );
    }

    #[test]
    fn reader_read_bytes_borrows() {
        let data = [1, 2, 3, 4, 5];
        let mut r = WireReader::new(&data);
        let s = r.read_bytes(3, "t").unwrap();
        assert_eq!(s, &[1, 2, 3]);
        assert_eq!(r.position(), 3);
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn sub_reader_is_bounded_but_sees_prefix() {
        let data = [9, 9, 1, 2, 3, 7, 7];
        let mut r = WireReader::new(&data);
        r.read_u16("skip").unwrap();
        let mut sub = r.sub_reader(3, "rdata").unwrap();
        assert_eq!(sub.read_bytes(3, "t").unwrap(), &[1, 2, 3]);
        assert!(sub.is_empty());
        // Parent reader advanced past the sub-slice.
        assert_eq!(r.read_u16("t").unwrap(), 0x0707);
    }

    #[test]
    fn sub_reader_truncation() {
        let data = [1, 2];
        let mut r = WireReader::new(&data);
        assert!(r.sub_reader(3, "rdata").is_err());
    }

    #[test]
    fn capacity_for_clamps_hostile_counts() {
        let data = [0u8; 40];
        let mut r = WireReader::new(&data);
        r.read_u16("skip").unwrap();
        // 38 bytes remain: at most 3 eleven-byte records could fit, however
        // large the claimed count.
        assert_eq!(r.capacity_for(u16::MAX, 11), 3);
        // An honest count below the ceiling passes through unchanged.
        assert_eq!(r.capacity_for(2, 11), 2);
        // A zero min_wire must not divide by zero.
        assert_eq!(r.capacity_for(10, 0), 10);
    }

    #[test]
    fn writer_scalars() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_bytes(&[1, 2]);
        assert_eq!(
            w.finish().unwrap(),
            vec![0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2]
        );
    }

    #[test]
    fn writer_patch_u16() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(0xFF);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.finish().unwrap(), vec![0xBE, 0xEF, 0xFF]);
    }

    #[test]
    fn writer_rejects_oversize_message() {
        let mut w = WireWriter::new();
        w.put_bytes(&vec![0u8; 70_000]);
        assert!(matches!(w.finish(), Err(WireError::MessageTooLong(70_000))));
    }

    #[test]
    fn name_offset_not_recorded_beyond_pointer_range() {
        let mut w = WireWriter::new();
        w.put_bytes(&vec![0u8; 0x4000]);
        w.record_name("example.com.".into(), 0x4000);
        assert_eq!(w.lookup_name("example.com."), None);
        w.record_name("example.org.".into(), 12);
        assert_eq!(w.lookup_name("example.org."), Some(12));
    }

    #[test]
    fn compression_disabled_lookup_is_none() {
        let mut w = WireWriter::without_compression();
        w.record_name("a.example.".into(), 0);
        assert_eq!(w.lookup_name("a.example."), None);
    }
}
