//! The question section entry (QNAME, QTYPE, QCLASS).

use std::fmt;

use crate::error::WireResult;
use crate::name::Name;
use crate::record::{RecordClass, RecordType};
use crate::wire::{WireReader, WireWriter};

/// A single question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Name being queried.
    pub name: Name,
    /// Query type.
    pub qtype: RecordType,
    /// Query class.
    pub qclass: RecordClass,
}

impl Question {
    /// Creates a question.
    pub fn new(name: Name, qtype: RecordType, qclass: RecordClass) -> Self {
        Question {
            name,
            qtype,
            qclass,
        }
    }

    /// An IN A question for `name`.
    pub fn a(name: Name) -> Self {
        Question::new(name, RecordType::A, RecordClass::In)
    }

    /// Encodes the question.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        self.name.write(w)?;
        w.put_u16(self.qtype.to_u16());
        w.put_u16(self.qclass.to_u16());
        Ok(())
    }

    /// Parses a question.
    #[inline]
    pub fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Question {
            name: Name::read(r)?,
            qtype: RecordType::from_u16(r.read_u16("qtype")?),
            qclass: RecordClass::from_u16(r.read_u16("qclass")?),
        })
    }

    /// Steps over a question as [`Question::read`] would read it, under
    /// the same rules and with the same errors, copying nothing. Returns
    /// its name's uncompressed wire length (as [`Name::skip`] does), its
    /// QTYPE and its QCLASS.
    #[inline]
    pub(crate) fn skip(r: &mut WireReader<'_>) -> WireResult<(usize, RecordType, RecordClass)> {
        let name_len = Name::skip(r)?;
        let qtype = RecordType::from_u16(r.read_u16("qtype")?);
        let qclass = RecordClass::from_u16(r.read_u16("qclass")?);
        Ok((name_len, qtype, qclass))
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.qtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let q = Question::a(Name::from_ascii("www.example.com").unwrap());
        let mut w = WireWriter::new();
        q.write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Question::read(&mut r).unwrap(), q);
        assert!(r.is_empty());
    }

    #[test]
    fn constructors() {
        let n = Name::from_ascii("x.example").unwrap();
        assert_eq!(Question::a(n.clone()).qtype, RecordType::A);
        assert_eq!(Question::a(n.clone()).qclass, RecordClass::In);
    }

    #[test]
    fn display() {
        let q = Question::a(Name::from_ascii("a.example.com").unwrap());
        assert_eq!(q.to_string(), "a.example.com. A");
    }
}
