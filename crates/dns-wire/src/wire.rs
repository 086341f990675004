//! Low-level byte reader/writer with DNS name compression support.
//!
//! [`WireReader`] is a cursor over an immutable byte slice that knows how to
//! follow compression pointers. [`WireWriter`] appends to a plain `Vec<u8>`
//! (its own, or one the caller lends) and remembers the offsets of names it
//! has written so later names can be compressed against them.

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
    #[inline]
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
    #[inline]
    pub fn read_u8(&mut self, context: &'static str) -> WireResult<u8> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated { context });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn read_u16(&mut self, context: &'static str) -> WireResult<u16> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated { context });
        }
        let v = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    /// Reads a big-endian `u32`.
    #[inline]
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
    #[inline]
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
    #[inline]
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

/// Most name suffixes one message records as compression targets. Every
/// message this workspace builds stays far below it; a message with more
/// distinct names than this still compresses against the targets it has,
/// it only stops adding new ones — so the work per written name is at most
/// this many comparisons per label, however many names a peer makes us
/// relay.
pub const MAX_COMPRESSION_TARGETS: usize = 64;

/// Targets a writer holds inline. A query records two or three and a
/// typical answer a few more; only a message recording more spills the
/// rest to the heap, so starting a writer sets 64 bytes, not a table of
/// [`MAX_COMPRESSION_TARGETS`].
const INLINE_TARGETS: usize = 16;

/// A suffix of a name written earlier in the message.
#[derive(Debug, Clone, Copy, Default)]
struct Target {
    /// Offset of the suffix's first length octet (≤ 0x3FFF, so a pointer
    /// can address it).
    at: u16,
    /// Length of the suffix's uncompressed label sequence, root octet
    /// excluded: a candidate of another length cannot match.
    len: u8,
}

/// Append-only writer with name compression bookkeeping.
///
/// Compression keeps no copy of any name. It remembers *where* the first
/// [`MAX_COMPRESSION_TARGETS`] distinct suffixes were written, in write
/// order, and tests a candidate suffix against the labels already in the
/// buffer at those offsets (following the pointers it wrote itself), label
/// by label and ASCII case-insensitively. For each name the longest suffix
/// is tried first and the earliest recorded target wins.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// The first recorded targets, in write order.
    targets: [Target; INLINE_TARGETS],
    /// The targets recorded after `targets` filled, in write order: empty,
    /// and owning no heap memory, until then.
    spilled: Vec<Target>,
    /// How many targets are recorded, inline and spilled.
    recorded: usize,
    /// When false, name compression is disabled (useful for testing and for
    /// contexts like RDATA of unknown types where compression is forbidden).
    compress: bool,
    /// Candidate-against-target tests made so far.
    #[cfg(test)]
    comparisons: usize,
}

impl WireWriter {
    /// Creates an empty writer with compression enabled.
    pub fn new() -> Self {
        Self::with_buffer(Vec::with_capacity(512))
    }

    /// Creates a writer with name compression disabled.
    pub fn without_compression() -> Self {
        let mut w = Self::new();
        w.compress = false;
        w
    }

    /// Creates a writer (compression enabled) that appends to a buffer the
    /// caller lends: `buf` is emptied, its capacity is reused, and
    /// [`WireWriter::finish`] hands it back.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter {
            buf,
            targets: [Target::default(); INLINE_TARGETS],
            spilled: Vec::new(),
            recorded: 0,
            compress: true,
            #[cfg(test)]
            comparisons: 0,
        }
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
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites a big-endian `u16` at an absolute offset (used to patch
    /// RDLENGTH and header counts after the fact).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Appends a name given as its uncompressed label sequence without the
    /// root octet (length octet, label bytes, …), compressed against the
    /// recorded targets: the labels no target covers, then a pointer to
    /// the longest suffix one does — or the root octet when none does.
    /// Every label written out becomes a target itself.
    pub(crate) fn put_name(&mut self, labels: &[u8]) {
        let mut pointer = None;
        let mut cut = labels.len();
        if self.compress {
            cut = 0;
            while cut < labels.len() {
                pointer = self.find_target(&labels[cut..]);
                if pointer.is_some() {
                    break;
                }
                cut += 1 + labels[cut] as usize;
            }
            let base = self.buf.len();
            let mut at = 0;
            while at < cut {
                self.record_target(base + at, labels.len() - at);
                at += 1 + labels[at] as usize;
            }
        }
        self.buf.extend_from_slice(&labels[..cut]);
        match pointer {
            Some(target) => self.put_u16(0xC000 | target),
            None => self.put_u8(0),
        }
    }

    /// The earliest recorded target whose name equals `candidate`.
    fn find_target(&mut self, candidate: &[u8]) -> Option<u16> {
        let inline = &self.targets[..self.recorded.min(INLINE_TARGETS)];
        let found = inline
            .iter()
            .chain(&self.spilled)
            .enumerate()
            .find(|(_, t)| t.len as usize == candidate.len() && self.name_at_is(t.at, candidate))
            .map(|(i, t)| (i, t.at));
        #[cfg(test)]
        {
            self.comparisons += found.map_or(self.recorded, |(i, _)| i + 1);
        }
        found.map(|(_, at)| at)
    }

    /// True when the name written at `at` is `candidate`, ignoring ASCII
    /// case. Only pointers to strictly earlier bytes are followed and every
    /// read is bounds-checked, so bytes a caller patched over cannot make
    /// this loop or panic — at worst a name is not compressed.
    fn name_at_is(&self, at: u16, mut candidate: &[u8]) -> bool {
        let mut at = at as usize;
        loop {
            let Some(&len) = self.buf.get(at) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(at + 1) else {
                    return false;
                };
                let target = ((len & 0x3F) as usize) << 8 | lo as usize;
                if target >= at {
                    return false;
                }
                at = target;
                continue;
            }
            if len == 0 {
                return candidate.is_empty();
            }
            // Length octet and label bytes in one comparison: length
            // octets are below 'A', so folding leaves them exact.
            let n = 1 + len as usize;
            match (self.buf.get(at..at + n), candidate.get(..n)) {
                (Some(written), Some(wanted)) if written.eq_ignore_ascii_case(wanted) => {
                    candidate = &candidate[n..];
                    at += n;
                }
                _ => return false,
            }
        }
    }

    /// Records that a name suffix of `len` label bytes starts at `offset`,
    /// unless a pointer could not address it (pointers carry 14 bits) or
    /// the table is full.
    fn record_target(&mut self, offset: usize, len: usize) {
        if offset <= 0x3FFF && self.recorded < MAX_COMPRESSION_TARGETS {
            let target = Target {
                at: offset as u16,
                len: len as u8,
            };
            match self.targets.get_mut(self.recorded) {
                Some(slot) => *slot = target,
                None => self.spilled.push(target),
            }
            self.recorded += 1;
        }
    }

    /// Finalizes the writer, validating the DNS message size limit, and
    /// returns the buffer it wrote into.
    pub fn finish(self) -> WireResult<Vec<u8>> {
        if self.buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(self.buf.len()));
        }
        Ok(self.buf)
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

    /// `example.<tld>` as the label sequence `put_name` takes.
    fn example(tld: &[u8; 3]) -> Vec<u8> {
        [b"\x07example\x03", &tld[..]].concat()
    }

    #[test]
    fn name_offset_not_recorded_beyond_pointer_range() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0u8; 12]);
        w.put_name(&example(b"org"));
        w.put_bytes(&vec![0u8; 0x4000 - w.len()]);
        // Written where no pointer can reach: not a target, so its twin
        // is written out in full again.
        w.put_name(&example(b"com"));
        w.put_name(&example(b"com"));
        // The name at offset 12 is still one.
        w.put_name(&example(b"org"));
        let bytes = w.finish().unwrap();
        let com = [&example(b"com")[..], &[0]].concat();
        assert_eq!(bytes[0x4000..], [&com[..], &com[..], &[0xC0, 12]].concat());
    }

    #[test]
    fn compression_disabled_lookup_is_none() {
        // No target is looked up, so the twin is written out in full.
        let mut w = WireWriter::without_compression();
        w.put_name(&example(b"com"));
        w.put_name(&example(b"com"));
        let com = [&example(b"com")[..], &[0]].concat();
        assert_eq!(w.finish().unwrap(), [&com[..], &com[..]].concat());
    }

    #[test]
    fn lent_buffer_is_emptied_reused_and_handed_back() {
        let mut lent = Vec::with_capacity(300);
        lent.extend_from_slice(b"stale");
        let ptr = lent.as_ptr();
        let mut w = WireWriter::with_buffer(lent);
        assert!(w.is_empty());
        w.put_u16(0xBEEF);
        let back = w.finish().unwrap();
        assert_eq!(back, [0xBE, 0xEF]);
        assert_eq!((back.as_ptr(), back.capacity()), (ptr, 300));
    }

    #[test]
    fn past_the_target_cap_names_still_compress_and_work_per_name_stays_bounded() {
        use crate::{Message, Name, Question, Rdata, Record};
        // Three times the cap in names that share only their TLD: each one
        // written out adds two targets until the table is full.
        let names: Vec<Name> = (0..3 * MAX_COMPRESSION_TARGETS)
            .map(|i| Name::from_ascii(&format!("host{i}.zone{i}.example")).unwrap())
            .collect();
        let twice = || names.iter().chain(&names);

        let mut w = WireWriter::new();
        let mut ends = Vec::new();
        for n in twice() {
            let before = w.comparisons;
            n.write(&mut w).unwrap();
            assert!(w.comparisons - before <= MAX_COMPRESSION_TARGETS * n.label_count());
            ends.push(w.len());
        }
        assert_eq!(w.recorded, MAX_COMPRESSION_TARGETS);
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        for n in twice() {
            assert_eq!(&Name::read(&mut r).unwrap(), n);
        }
        assert!(r.is_empty());
        // Second time round, a name recorded before the table filled is a
        // bare pointer; one written after it is written out again, down
        // to a pointer at `example`.
        let second = |i: usize| ends[names.len() + i] - ends[names.len() + i - 1];
        assert_eq!(second(1), 2);
        assert_eq!(
            second(names.len() - 1),
            names[names.len() - 1].wire_len() - 9 + 2
        );

        // The same through a whole message.
        let mut m = Message::query(1, Question::a(names[0].clone()));
        m.flags.qr = true;
        m.answers = twice()
            .map(|n| Record::new(n.clone(), 60, Rdata::A([192, 0, 2, 1].into())))
            .collect();
        let compressed = m.to_bytes().unwrap();
        assert_eq!(Message::from_bytes(&compressed).unwrap(), m);
        let mut plain = WireWriter::without_compression();
        m.write(&mut plain).unwrap();
        assert!(compressed.len() <= plain.finish().unwrap().len());
    }
}
