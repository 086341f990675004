//! Domain names: validation, case-insensitive comparison, wire encoding with
//! compression, and decompression-aware parsing.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

use crate::error::{WireError, WireResult};
use crate::wire::{WireReader, WireWriter, MAX_POINTER_CHASES};

/// Maximum length of a single label in octets.
const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire form (including length octets and root).
const MAX_NAME_LEN: usize = 255;

/// Longest wire form, root octet excluded, that a [`Name`] keeps inline:
/// with its length and the variant tag a `Name` is 40 bytes, and every
/// name `ecs-study all` builds fits.
const INLINE_LEN: usize = 38;

/// A fully-qualified domain name.
///
/// Stored as its uncompressed wire form — each label as a length octet
/// (1–63) followed by that many bytes — without the terminating root
/// octet, so the root name is the empty form. A form of at most 38 bytes
/// is kept inline and a longer one in one heap buffer, by length alone:
/// a short name owns no heap memory and cloning it is a copy.
/// Comparison and hashing are ASCII case-insensitive, as required by
/// RFC 1035 §2.3.3; they fold the whole form at once, which is safe
/// because a length octet is at most 63 and ASCII folding only moves
/// bytes in `0x41..=0x5A`.
///
/// ```
/// use dns_wire::Name;
/// let a = Name::from_ascii("WWW.Example.COM").unwrap();
/// let b = Name::from_ascii("www.example.com").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "www.example.com.");
/// ```
#[derive(Clone)]
pub struct Name {
    /// Invariant: length-prefixed labels tile the form exactly, every
    /// length octet is in `1..=63`, the form is shorter than
    /// `MAX_NAME_LEN`, and it is `Inline` exactly when it fits there.
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// The first `len` of `bytes`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_LEN],
    },
    Heap(Box<[u8]>),
}

impl Default for Name {
    fn default() -> Self {
        Name::from_parts(&[])
    }
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name::default()
    }

    /// Parses a presentation-format name such as `"www.example.com"` or
    /// `"www.example.com."`. An empty string or `"."` yields the root.
    ///
    /// Labels are restricted to visible ASCII excluding the dot; this is
    /// stricter than raw DNS (which is 8-bit clean) but matches hostname
    /// practice and keeps the study's synthetic names unambiguous. The
    /// underscore is allowed for service labels.
    pub fn from_ascii(s: &str) -> WireResult<Self> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        // Every dot becomes the next label's length octet, plus one for
        // the first label: the form is `s.len() + 1` bytes exactly. It is
        // assembled on the stack when it fits, and every label is checked
        // before its length is.
        let len = s.len() + 1;
        let fits = len < MAX_NAME_LEN;
        let mut wire = [0u8; MAX_NAME_LEN];
        let mut at = 0;
        for label in s.split('.') {
            if label.is_empty() {
                return Err(WireError::InvalidLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(WireError::InvalidLabel);
            }
            if fits {
                wire[at] = label.len() as u8;
                wire[at + 1..at + 1 + label.len()].copy_from_slice(label.as_bytes());
                at += 1 + label.len();
            }
        }
        if !fits {
            return Err(WireError::NameTooLong(len + 1));
        }
        Ok(Name::from_parts(&[&wire[..len]]))
    }

    /// Keeps the concatenation of `parts`, a well-formed form shorter
    /// than `MAX_NAME_LEN`: inline when it fits, else in one exact-size
    /// heap buffer.
    #[inline]
    fn from_parts(parts: &[&[u8]]) -> Name {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let repr = if len <= INLINE_LEN {
            let mut bytes = [0; INLINE_LEN];
            let mut at = 0;
            for part in parts {
                bytes[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            Repr::Inline {
                len: len as u8,
                bytes,
            }
        } else {
            Repr::Heap(parts.concat().into())
        };
        Name { repr }
    }

    /// The uncompressed wire form, root octet excluded.
    #[inline]
    fn wire(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire().is_empty()
    }

    /// Iterates over the labels, most-significant last (`www`, `example`,
    /// `com`).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        let wire = self.wire();
        self.label_starts()
            .map(move |at| &wire[at + 1..at + 1 + wire[at] as usize])
    }

    /// Offset of each label's length octet in `wire`, in order.
    fn label_starts(&self) -> impl Iterator<Item = usize> + '_ {
        let wire = self.wire();
        let mut at = 0;
        std::iter::from_fn(move || {
            let len = *wire.get(at)?;
            let start = at;
            at += 1 + len as usize;
            Some(start)
        })
    }

    /// The labels from the `skip`-th on, as a name.
    fn suffix(&self, skip: usize) -> Name {
        let wire = self.wire();
        let from = self.label_starts().nth(skip).unwrap_or(wire.len());
        Name::from_parts(&[&wire[from..]])
    }

    /// Length of the name in uncompressed wire form: one length octet per
    /// label plus the label bytes plus the terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.wire().len() + 1
    }

    /// Returns the parent name (strips the leftmost label). The root's
    /// parent is the root.
    pub fn parent(&self) -> Name {
        self.suffix(1)
    }

    /// Prepends a label, e.g. `Name("example.com").child("www")`.
    pub fn child(&self, label: &str) -> WireResult<Name> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(WireError::InvalidLabel);
        }
        let ours = self.wire();
        let len = 1 + label.len() + ours.len();
        if len >= MAX_NAME_LEN {
            return Err(WireError::NameTooLong(len + 1));
        }
        Ok(Name::from_parts(&[
            &[label.len() as u8],
            label.as_bytes(),
            ours,
        ]))
    }

    /// True if `self` equals `other` or is a descendant of it. Every name is
    /// under the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let (ours, theirs) = (self.wire(), other.wire());
        let Some(cut) = ours.len().checked_sub(theirs.len()) else {
            return false;
        };
        // The tail must start on a label boundary: equal bytes that begin
        // inside one of our labels are not a suffix of the name.
        ours[cut..].eq_ignore_ascii_case(theirs)
            && (cut == ours.len() || self.label_starts().any(|at| at == cut))
    }

    /// The second-level domain of this name as used in the paper (the two
    /// most senior labels, e.g. `cnn.com` for `media.cnn.com`). Returns
    /// `None` for the root and TLD-only names.
    pub fn second_level_domain(&self) -> Option<Name> {
        let skip = self.label_count().checked_sub(2)?;
        Some(self.suffix(skip))
    }

    /// Canonical lowercase presentation form ending with a dot; used for
    /// display and serialization.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(self.wire_len());
        s.extend(self.canonical_bytes().map(|b| b as char));
        s
    }

    /// The bytes of [`Name::canonical`] before they become `char`s: every
    /// label folded to lowercase and followed by a dot; the root is a
    /// lone dot.
    fn canonical_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.labels()
            .flat_map(|l| {
                l.iter()
                    .map(u8::to_ascii_lowercase)
                    .chain(std::iter::once(b'.'))
            })
            .chain(self.is_root().then_some(b'.'))
    }

    /// Encodes this name, compressing against names already in `w`
    /// (see [`WireWriter`] for how a target is found and what bounds it).
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_name(self.wire());
        Ok(())
    }

    /// Encodes without compression (and without recording offsets), as
    /// required inside RDATA of types unknown to compressors.
    pub fn write_uncompressed(&self, w: &mut WireWriter) {
        w.put_bytes(self.wire());
        w.put_u8(0);
    }

    /// Parses a possibly compressed name from the reader. The reader's
    /// cursor ends just past the name (after the pointer, if the name ends
    /// with one).
    #[inline]
    pub fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        // Assembled in place when the form fits inline. A longer one is
        // walked a second time, into its exact-size heap buffer.
        let start = r.clone();
        let mut bytes = [0u8; INLINE_LEN];
        let mut len = 0usize;
        walk(r, |label| {
            if let Some(to) = bytes.get_mut(len..len + 1 + label.len()) {
                to[0] = label.len() as u8;
                to[1..].copy_from_slice(label);
            }
            len += 1 + label.len();
        })?;
        if len <= INLINE_LEN {
            let len = len as u8;
            return Ok(Name {
                repr: Repr::Inline { len, bytes },
            });
        }
        let mut wire = Vec::with_capacity(len);
        walk(&mut start.clone(), |label| {
            wire.push(label.len() as u8);
            wire.extend_from_slice(label);
        })?;
        Ok(Name {
            repr: Repr::Heap(wire.into()),
        })
    }

    /// Steps over a name as [`Name::read`] would read it, under the same
    /// rules and with the same errors, copying nothing. Returns its
    /// uncompressed wire length (1 for the root).
    #[inline]
    pub(crate) fn skip(r: &mut WireReader<'_>) -> WireResult<usize> {
        walk(r, |_| {})
    }

    /// The name whose uncompressed wire form, root octet excluded, is
    /// `plain`: a form a walk has already accepted, so it is copied, not
    /// walked again.
    #[inline]
    pub(crate) fn from_plain(plain: &[u8]) -> Name {
        Name::from_parts(&[plain])
    }

    /// Whether `plain`, a form as [`Name::from_plain`] takes it, is this
    /// name (ASCII case-insensitively, as `==` compares; a length octet is
    /// at most 63 and so never folds).
    #[inline]
    pub(crate) fn eq_plain(&self, plain: &[u8]) -> bool {
        self.wire().eq_ignore_ascii_case(plain)
    }

    /// Reads a name as [`Name::skip`] does and tells whether it equals
    /// `self` (ASCII case-insensitively, as `==` compares), without
    /// copying a label.
    pub(crate) fn read_eq(&self, r: &mut WireReader<'_>) -> WireResult<bool> {
        let wire = self.wire();
        let mut at = 0usize;
        let mut same = true;
        walk(r, |label| {
            same = same
                && wire.get(at) == Some(&(label.len() as u8))
                && wire
                    .get(at + 1..at + 1 + label.len())
                    .is_some_and(|ours| ours.eq_ignore_ascii_case(label));
            at += 1 + label.len();
        })?;
        Ok(same && at == wire.len())
    }
}

/// The one walk over a possibly compressed name on the wire, and so the
/// one place its rules are written: a label is a length octet of 1–63
/// and its bytes, a zero octet ends the name, a compression pointer must
/// point strictly backwards and at most [`MAX_POINTER_CHASES`] of them
/// are followed, the two reserved label types are rejected, and the name
/// may not exceed [`MAX_NAME_LEN`] octets. Hands each label to `label`
/// in order, and returns the name's uncompressed wire length (root octet
/// included). The reader's cursor ends just past the name (after the
/// pointer, if the name ends with one).
#[inline]
fn walk(r: &mut WireReader<'_>, mut label: impl FnMut(&[u8])) -> WireResult<usize> {
    // The walk indexes the reader's bytes directly: pointers are offsets
    // into the same bytes, and the caller's cursor moves once, at the
    // end, to just past the name's first pointer or its root octet.
    let buf = r.full_message();
    let mut pos = r.position();
    let mut resume = None;
    // Uncompressed length so far, root octet excluded.
    let mut len = 0usize;
    let mut chases = 0usize;
    loop {
        let Some(&len_byte) = buf.get(pos) else {
            return Err(WireError::Truncated {
                context: "name label length",
            });
        };
        pos += 1;
        match len_byte & 0xC0 {
            0x00 => {
                if len_byte == 0 {
                    break;
                }
                let Some(bytes) = buf.get(pos..pos + len_byte as usize) else {
                    return Err(WireError::Truncated {
                        context: "name label",
                    });
                };
                pos += bytes.len();
                // Wire length so far, counting the root octet to come.
                let wire_len = len + 1 + bytes.len() + 1;
                if wire_len > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong(wire_len));
                }
                label(bytes);
                len += 1 + bytes.len();
            }
            0xC0 => {
                let Some(&lo) = buf.get(pos) else {
                    return Err(WireError::Truncated {
                        context: "compression pointer low byte",
                    });
                };
                pos += 1;
                let target = (((len_byte & 0x3F) as usize) << 8) | lo as usize;
                // The pointer must reference strictly earlier bytes.
                let at = pos - 2;
                if target >= at {
                    return Err(WireError::BadCompressionPointer { at, target });
                }
                chases += 1;
                if chases > MAX_POINTER_CHASES {
                    return Err(WireError::CompressionLoop);
                }
                resume.get_or_insert(pos);
                pos = target;
            }
            other => return Err(WireError::ReservedLabelType(other | (len_byte & 0x3F))),
        }
    }
    r.seek(resume.unwrap_or(pos));
    Ok(len + 1)
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire().eq_ignore_ascii_case(other.wire())
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One `write` of the folded wire form, root octet included so that
        // no name's bytes are a prefix of another's, folded in a buffer
        // sized to the form's storage.
        fn write_folded<const N: usize>(wire: &[u8], state: &mut impl Hasher) {
            let mut folded = [0u8; N];
            let n = wire.len();
            folded[..n].copy_from_slice(wire);
            folded[..n].make_ascii_lowercase();
            state.write(&folded[..=n]);
        }
        match &self.repr {
            Repr::Inline { .. } => write_folded::<{ INLINE_LEN + 1 }>(self.wire(), state),
            Repr::Heap(wire) => write_folded::<MAX_NAME_LEN>(wire, state),
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Orders as the [`Name::canonical`] strings do. Two different names
    /// can share a canonical string (a label may contain a dot on the
    /// wire), so ties fall through to the folded wire bytes: `Equal` means
    /// `==`.
    fn cmp(&self, other: &Self) -> Ordering {
        fn folded(wire: &[u8]) -> impl Iterator<Item = u8> + '_ {
            wire.iter().map(u8::to_ascii_lowercase)
        }
        self.canonical_bytes()
            .cmp(other.canonical_bytes())
            .then_with(|| folded(self.wire()).cmp(folded(other.wire())))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The presentation form with the wire's own case, and with the zone-file
/// escapes (`\.`, `\\`, `\DDD`) for bytes that would otherwise make two
/// different names print alike.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_char('.');
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7E => f.write_char(b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            f.write_char('.')?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::from_ascii(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(name("www.example.com").to_string(), "www.example.com.");
        assert_eq!(name("www.example.com.").to_string(), "www.example.com.");
        assert_eq!(name("").to_string(), ".");
        assert_eq!(name(".").to_string(), ".");
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(name("WWW.EXAMPLE.COM"));
        assert!(set.contains(&name("www.example.com")));
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(Name::from_ascii("a..b").is_err());
        assert!(Name::from_ascii("a b.com").is_err());
        let long = "x".repeat(64);
        assert!(matches!(
            Name::from_ascii(&format!("{long}.com")),
            Err(WireError::LabelTooLong(64))
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        // 5 labels of 63 bytes = 5*64+1 = 321 > 255.
        let l = "x".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}.{l}");
        assert!(matches!(
            Name::from_ascii(&s),
            Err(WireError::NameTooLong(_))
        ));
    }

    /// The decode-side twin of `rejects_overlong_name`: no single run of
    /// labels is too long, the pointer chain's sum is. This is the bound of
    /// the stack buffer `read` assembles into.
    #[test]
    fn pointer_chain_summing_past_255_rejected() {
        let chain = |first_label: usize| {
            // 0: three 63-byte labels + root (193 bytes); then the name
            // under test: one more label and a pointer back to 0.
            let mut bytes = Vec::new();
            for _ in 0..3 {
                bytes.push(63);
                bytes.extend_from_slice(&[b'x'; 63]);
            }
            bytes.push(0);
            let start = bytes.len();
            bytes.push(first_label as u8);
            bytes.extend_from_slice(&vec![b'y'; first_label]);
            bytes.extend_from_slice(&[0xC0, 0x00]);
            (bytes, start)
        };
        // 62 + 192 + 1 = 255: the longest legal name, to the byte.
        let (bytes, start) = chain(61);
        let mut r = WireReader::new(&bytes);
        r.seek(start);
        let longest = Name::read(&mut r).unwrap();
        assert_eq!(longest.wire_len(), MAX_NAME_LEN);
        assert_eq!(longest.label_count(), 4);
        assert!(r.is_empty());
        // One byte more.
        let (bytes, start) = chain(62);
        let mut r = WireReader::new(&bytes);
        r.seek(start);
        assert_eq!(Name::read(&mut r), Err(WireError::NameTooLong(256)));
    }

    #[test]
    fn underscore_service_labels_allowed() {
        assert!(Name::from_ascii("_dns.resolver.arpa").is_ok());
    }

    #[test]
    fn parent_child_sld() {
        let n = name("media.cnn.com");
        assert_eq!(n.parent(), name("cnn.com"));
        assert_eq!(n.second_level_domain().unwrap(), name("cnn.com"));
        assert_eq!(name("com").second_level_domain(), None);
        assert_eq!(name("cnn.com").child("www").unwrap(), name("www.cnn.com"));
        assert_eq!(Name::root().parent(), Name::root());
    }

    #[test]
    fn subdomain_checks() {
        assert!(name("a.b.example.com").is_subdomain_of(&name("example.com")));
        assert!(name("example.com").is_subdomain_of(&name("example.com")));
        assert!(name("example.com").is_subdomain_of(&Name::root()));
        assert!(!name("example.com").is_subdomain_of(&name("a.example.com")));
        assert!(!name("badexample.com").is_subdomain_of(&name("example.com")));
        // Case-insensitive.
        assert!(name("A.EXAMPLE.COM").is_subdomain_of(&name("example.com")));
    }

    #[test]
    fn subdomain_suffix_must_start_on_a_label_boundary() {
        // One label whose bytes end in what looks like the wire form of
        // `com`: 05 'a' 03 'c' 'o' 'm' is a TLD, not a name under `com`.
        let bytes = [5, b'a', 3, b'c', b'o', b'm', 0];
        let odd = Name::read(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(odd.label_count(), 1);
        assert!(!odd.is_subdomain_of(&name("com")));
        assert!(odd.is_subdomain_of(&odd));
        assert!(odd.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let n = name("www.example.com");
        let mut w = WireWriter::without_compression();
        n.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(
            bytes,
            [
                3, b'w', b'w', b'w', 7, b'e', b'x', b'a', b'm', b'p', b'l', b'e', 3, b'c', b'o',
                b'm', 0
            ]
        );
        let mut r = WireReader::new(&bytes);
        assert_eq!(Name::read(&mut r).unwrap(), n);
        assert!(r.is_empty());
    }

    #[test]
    fn wire_len_matches_encoding() {
        for s in ["", "com", "www.example.com", "a.b.c.d.e.f"] {
            let n = name(s);
            let mut w = WireWriter::without_compression();
            n.write(&mut w).unwrap();
            assert_eq!(w.finish().unwrap().len(), n.wire_len(), "{s}");
        }
    }

    #[test]
    fn compression_full_suffix_match() {
        let mut w = WireWriter::new();
        name("www.example.com").write(&mut w).unwrap();
        let before = w.len();
        name("www.example.com").write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        // Second copy is a bare 2-byte pointer to offset 0.
        assert_eq!(bytes.len(), before + 2);
        assert_eq!(&bytes[before..], &[0xC0, 0x00]);
        let mut r = WireReader::new(&bytes);
        r.seek(before);
        assert_eq!(Name::read(&mut r).unwrap(), name("www.example.com"));
    }

    #[test]
    fn compression_partial_suffix_match() {
        let mut w = WireWriter::new();
        name("www.example.com").write(&mut w).unwrap();
        let second_start = w.len();
        name("mail.example.com").write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        // "mail" label (5 bytes) + pointer (2 bytes) to "example.com" at
        // offset 4.
        assert_eq!(bytes.len() - second_start, 5 + 2);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xC0, 0x04]);
        let mut r = WireReader::new(&bytes);
        r.seek(second_start);
        assert_eq!(Name::read(&mut r).unwrap(), name("mail.example.com"));
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = WireWriter::new();
        name("WWW.Example.COM").write(&mut w).unwrap();
        let before = w.len();
        name("www.example.com").write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), before + 2);
    }

    #[test]
    fn pointer_chain_resolves() {
        // Manually build: name1 at 0 = "example.com";
        // name2 at 13 = "www" + ptr->0; name3 at 18 = ptr->13.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&[7]);
        bytes.extend_from_slice(b"example");
        bytes.extend_from_slice(&[3]);
        bytes.extend_from_slice(b"com");
        bytes.push(0);
        let n2 = bytes.len();
        bytes.push(3);
        bytes.extend_from_slice(b"www");
        bytes.extend_from_slice(&[0xC0, 0x00]);
        let n3 = bytes.len();
        bytes.extend_from_slice(&[0xC0, n2 as u8]);
        let mut r = WireReader::new(&bytes);
        r.seek(n3);
        assert_eq!(Name::read(&mut r).unwrap(), name("www.example.com"));
        assert!(r.is_empty());
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to itself.
        let bytes = [0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::read(&mut r),
            Err(WireError::BadCompressionPointer { .. })
        ));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers pointing at each other would need a forward pointer,
        // which is already rejected; instead test a long backwards chain.
        // 0: ptr -> impossible; build chain of pointers each pointing to the
        // previous pointer. First entry is a real root name.
        let mut bytes = Vec::from([0u8]); // root at 0
        for i in 0..200u16 {
            let target = if i == 0 { 0 } else { 1 + 2 * (i as usize - 1) };
            bytes.push(0xC0 | ((target >> 8) as u8));
            bytes.push((target & 0xFF) as u8);
        }
        let start = bytes.len() - 2;
        let mut r = WireReader::new(&bytes);
        r.seek(start);
        // Chain length 200 exceeds MAX_POINTER_CHASES... but each chase ends
        // at a previous pointer that ends at root. Valid parse is fine until
        // the chase limit; ensure we do not loop forever either way.
        let res = Name::read(&mut r);
        assert!(matches!(res, Err(WireError::CompressionLoop)));
    }

    #[test]
    fn reserved_label_types_rejected() {
        let bytes = [0x40, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::read(&mut r),
            Err(WireError::ReservedLabelType(_))
        ));
        let bytes = [0x80, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::read(&mut r),
            Err(WireError::ReservedLabelType(_))
        ));
    }

    #[test]
    fn truncated_label_rejected() {
        let bytes = [5, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::read(&mut r),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn ordering_is_canonical() {
        let mut v = [name("b.com"), name("a.com"), name("A.b.com")];
        v.sort();
        assert_eq!(v[0], name("a.b.com"));
        assert_eq!(v[1], name("a.com"));
        assert_eq!(v[2], name("b.com"));
    }

    #[test]
    fn names_that_print_alike_are_neither_equal_nor_tied() {
        // A label may contain a dot on the wire; `a.b` under `com` and
        // `a` under `b.com` share a canonical string and nothing else.
        let one = name("com").child("a.b").unwrap();
        let two = name("a.b.com");
        assert_eq!(one.canonical(), two.canonical());
        assert_ne!(one, two);
        assert_ne!(one.cmp(&two), Ordering::Equal);
        assert_eq!(one.cmp(&two), two.cmp(&one).reverse());
    }

    #[test]
    fn debug_is_the_presentation_form() {
        assert_eq!(format!("{:?}", name("WWW.Example.com")), "WWW.Example.com.");
        assert_eq!(format!("{:?}", Name::root()), ".");
        // Bytes that would make two names print alike are escaped.
        let odd = name("com").child("a.b").unwrap().child("\u{1}\\").unwrap();
        assert_eq!(format!("{odd:?}"), "\\001\\\\.a\\.b.com.");
    }
}
