//! Domain names: validation, case-insensitive comparison, wire encoding with
//! compression, and decompression-aware parsing.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{WireError, WireResult};
use crate::wire::{WireReader, WireWriter, MAX_POINTER_CHASES};

/// Maximum length of a single label in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire form (including length octets and root).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name.
///
/// Internally stored as a vector of labels, each 1–63 bytes. The root name
/// has zero labels. Comparison and hashing are ASCII case-insensitive, as
/// required by RFC 1035 §2.3.3.
///
/// ```
/// use dns_wire::Name;
/// let a = Name::from_ascii("WWW.Example.COM").unwrap();
/// let b = Name::from_ascii("www.example.com").unwrap();
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "www.example.com.");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
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
        let mut labels = Vec::new();
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
            labels.push(label.as_bytes().to_vec());
        }
        let name = Name { labels };
        let wl = name.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wl));
        }
        Ok(name)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over the labels, most-significant last (`www`, `example`,
    /// `com`).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(|l| l.as_slice())
    }

    /// Length of the name in uncompressed wire form: one length octet per
    /// label plus the label bytes plus the terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Returns the parent name (strips the leftmost label). The root's
    /// parent is the root.
    pub fn parent(&self) -> Name {
        if self.labels.is_empty() {
            return Name::root();
        }
        Name {
            labels: self.labels[1..].to_vec(),
        }
    }

    /// Prepends a label, e.g. `Name("example.com").child("www")`.
    pub fn child(&self, label: &str) -> WireResult<Name> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(WireError::InvalidLabel);
        }
        labels.push(label.as_bytes().to_vec());
        labels.extend(self.labels.iter().cloned());
        let name = Name { labels };
        let wl = name.wire_len();
        if wl > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wl));
        }
        Ok(name)
    }

    /// True if `self` equals `other` or is a descendant of it. Every name is
    /// under the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..]
            .iter()
            .zip(other.labels.iter())
            .all(|(a, b)| eq_ignore_case(a, b))
    }

    /// The second-level domain of this name as used in the paper (the two
    /// most senior labels, e.g. `cnn.com` for `media.cnn.com`). Returns
    /// `None` for the root and TLD-only names.
    pub fn second_level_domain(&self) -> Option<Name> {
        if self.labels.len() < 2 {
            return None;
        }
        Some(Name {
            labels: self.labels[self.labels.len() - 2..].to_vec(),
        })
    }

    /// Canonical lowercase presentation form ending with a dot; used as the
    /// compression map key and for display.
    pub fn canonical(&self) -> String {
        if self.labels.is_empty() {
            return ".".to_string();
        }
        let mut s = String::with_capacity(self.wire_len());
        for l in &self.labels {
            for &b in l {
                s.push(b.to_ascii_lowercase() as char);
            }
            s.push('.');
        }
        s
    }

    /// Serializes this name, compressing against names already in `w`.
    ///
    /// Compression strategy: for each suffix of the name (longest first),
    /// check whether that suffix was written before. If so, emit the labels
    /// preceding the suffix followed by a pointer; otherwise write the whole
    /// name and record every suffix offset.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        // Collect the canonical form of every suffix, from the full name
        // down to the last single label.
        let n = self.labels.len();
        for start in 0..n {
            let key = suffix_key(&self.labels[start..]);
            if let Some(ptr) = w.lookup_name(&key) {
                // Write labels before the matched suffix, then the pointer.
                for (i, label) in self.labels[..start].iter().enumerate() {
                    let suffix = suffix_key(&self.labels[i..]);
                    w.record_name(suffix, w.len());
                    w.put_u8(label.len() as u8);
                    w.put_bytes(label);
                }
                w.put_u16(0xC000 | ptr);
                return Ok(());
            }
        }
        // No suffix matched: write the full name and record offsets.
        for (i, label) in self.labels.iter().enumerate() {
            let suffix = suffix_key(&self.labels[i..]);
            w.record_name(suffix, w.len());
            w.put_u8(label.len() as u8);
            w.put_bytes(label);
        }
        w.put_u8(0); // root
        Ok(())
    }

    /// Serializes without compression (and without recording offsets), as
    /// required inside RDATA of types unknown to compressors.
    pub fn write_uncompressed(&self, w: &mut WireWriter) {
        for label in &self.labels {
            w.put_u8(label.len() as u8);
            w.put_bytes(label);
        }
        w.put_u8(0);
    }

    /// Parses a possibly compressed name from the reader. The reader's
    /// cursor ends just past the name (after the pointer, if the name ends
    /// with one).
    pub fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        let mut labels = Vec::new();
        let mut wire_len = 1usize; // terminating root octet
        let mut chases = 0usize;
        // After the first pointer jump we continue reading from a clone so
        // the caller's cursor stays just past the pointer.
        let mut jumped: Option<WireReader<'_>> = None;

        loop {
            let cur: &mut WireReader<'_> = jumped.as_mut().unwrap_or(r);
            let len_byte = cur.read_u8("name label length")?;
            match len_byte & 0xC0 {
                0x00 => {
                    if len_byte == 0 {
                        break;
                    }
                    let label = cur.read_bytes(len_byte as usize, "name label")?;
                    wire_len += 1 + label.len();
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    labels.push(label.to_vec());
                }
                0xC0 => {
                    let lo = cur.read_u8("compression pointer low byte")?;
                    let target = (((len_byte & 0x3F) as usize) << 8) | lo as usize;
                    // The pointer must reference strictly earlier bytes.
                    let at = cur.position() - 2;
                    if target >= at {
                        return Err(WireError::BadCompressionPointer { at, target });
                    }
                    chases += 1;
                    if chases > MAX_POINTER_CHASES {
                        return Err(WireError::CompressionLoop);
                    }
                    let full = cur.full_message();
                    let mut next = WireReader::new(full);
                    next.seek(target);
                    jumped = Some(next);
                }
                other => return Err(WireError::ReservedLabelType(other | (len_byte & 0x3F))),
            }
        }
        Ok(Name { labels })
    }
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.eq_ignore_ascii_case(b)
}

fn suffix_key(labels: &[Vec<u8>]) -> String {
    let mut s = String::new();
    for l in labels {
        for &b in l {
            s.push(b.to_ascii_lowercase() as char);
        }
        s.push('.');
    }
    s
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| eq_ignore_case(a, b))
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(b'.');
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.canonical().cmp(&other.canonical())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::from_ascii(s)
    }
}

// Serde: names serialize as their presentation form.
impl serde::Serialize for Name {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.canonical())
    }
}

impl<'de> serde::Deserialize<'de> for Name {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Name::from_ascii(&s).map_err(serde::de::Error::custom)
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
}
