//! A borrowed, validating reading of a datagram: what a hop that reads
//! only a header, a question or an ECS option needs, without building a
//! [`Message`](crate::Message).

use crate::ecs::EcsOption;
use crate::edns::{read_option, OptFixed, OptionCode};
use crate::error::{WireError, WireResult};
use crate::header::{Flags, Header, Opcode, Rcode};
use crate::message::short;
use crate::name::Name;
use crate::question::Question;
use crate::record::{Record, RecordType};
use crate::wire::WireReader;

/// Offset of the first question: right after the twelve header bytes.
const QUESTION_AT: usize = 12;

/// A datagram that [`Message::from_bytes`](crate::Message::from_bytes)
/// accepts, read in place.
///
/// [`MessageView::parse`] walks every section under the decoder's own
/// rules: the name walk is the one [`Name::read`] runs, the record
/// envelope, the OPT layout and the ECS check are the decoder's own
/// functions, and each RDATA type is stepped over as
/// [`Rdata::read`](crate::Rdata::read) reads it. So it accepts exactly
/// the datagrams `from_bytes` accepts, and fails with the same error
/// where it does not; `prop_wire.rs` holds it to that. It allocates
/// nothing and copies no label. What it keeps is what a relay, a scanner
/// or an authoritative reads: the header, the first question's name (to
/// compare in place) and type, and the OPT record's payload size and
/// client-subnet option.
///
/// ```
/// use dns_wire::{EcsOption, Message, MessageView, Name, Question};
/// use std::net::Ipv4Addr;
///
/// let qname = Name::from_ascii("www.example.com").unwrap();
/// let mut q = Message::query(7, Question::a(qname.clone()));
/// q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
/// let bytes = q.to_bytes().unwrap();
///
/// let view = MessageView::parse(&bytes).unwrap();
/// assert_eq!(view.id(), 7);
/// assert!(!view.is_response());
/// assert!(view.question_is(&qname));
/// assert_eq!(view.udp_payload_size(), Some(4096));
/// assert_eq!(view.ecs().unwrap().source_prefix_len(), 24);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    bytes: &'a [u8],
    header: Header,
    /// The first question's QTYPE, when there is a question.
    qtype: Option<RecordType>,
    /// The OPT record's advertised payload size and first client-subnet
    /// option, when the message carries OPT.
    edns: Option<(u16, Option<EcsOption>)>,
}

impl<'a> MessageView<'a> {
    /// Validates `bytes` as a whole message and keeps what the view
    /// exposes. Fails exactly when
    /// [`Message::from_bytes`](crate::Message::from_bytes) fails, with
    /// the same error.
    pub fn parse(bytes: &'a [u8]) -> WireResult<Self> {
        let mut r = WireReader::new(bytes);
        let header = Header::read(&mut r)?;
        let mut qtype = None;
        for _ in 0..header.qdcount {
            let t = Question::skip(&mut r).map_err(short("question"))?;
            qtype = qtype.or(Some(t));
        }
        for _ in 0..header.ancount {
            Record::skip(&mut r).map_err(short("answer"))?;
        }
        for _ in 0..header.nscount {
            Record::skip(&mut r).map_err(short("authority"))?;
        }
        let mut edns = None;
        for _ in 0..header.arcount {
            let mark = r.clone();
            let owner_len = Name::skip(&mut r).map_err(short("additional"))?;
            if RecordType::from_u16(r.read_u16("record type")?) != RecordType::Opt {
                r = mark;
                Record::skip(&mut r).map_err(short("additional"))?;
                continue;
            }
            if owner_len != 1 {
                return Err(WireError::OptOwnerNotRoot);
            }
            if edns.is_some() {
                return Err(WireError::DuplicateOpt);
            }
            let mut opt = OptFixed::read(&mut r)?;
            let mut ecs = None;
            while opt.options.remaining() > 0 {
                let (code, body) = read_option(&mut opt.options)?;
                if OptionCode::from_u16(code) == OptionCode::ClientSubnet {
                    let parsed = EcsOption::from_wire(body)?;
                    ecs = ecs.or(Some(parsed));
                }
            }
            edns = Some((opt.udp_payload_size, ecs));
        }
        Ok(MessageView {
            bytes,
            header,
            qtype,
            edns,
        })
    }

    /// Transaction ID.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// Header flag bits.
    pub fn flags(&self) -> Flags {
        self.header.flags
    }

    /// Operation code.
    pub fn opcode(&self) -> Opcode {
        self.header.opcode
    }

    /// Response code (the header's low four bits).
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// True when this message is a response.
    pub fn is_response(&self) -> bool {
        self.header.flags.qr
    }

    /// The first question's type, if there is a question.
    pub fn qtype(&self) -> Option<RecordType> {
        self.qtype
    }

    /// True when there is a question and the first one asks for `name`
    /// (compared as [`Name`]'s `==` compares), read in place.
    pub fn question_is(&self, name: &Name) -> bool {
        if self.qtype.is_none() {
            return false;
        }
        let mut r = WireReader::new(self.bytes);
        r.seek(QUESTION_AT);
        // `parse` walked this name already: the walk cannot fail here.
        name.read_eq(&mut r).unwrap_or(false)
    }

    /// The question section, decoded, for a caller that echoes the
    /// questions back: nothing is allocated for one question whose name
    /// is at most 38 wire bytes.
    pub fn questions(&self) -> impl Iterator<Item = Question> + 'a {
        let mut r = WireReader::new(self.bytes);
        r.seek(QUESTION_AT);
        // `parse` walked every question already: none fails here.
        (0..self.header.qdcount).map_while(move |_| Question::read(&mut r).ok())
    }

    /// The OPT record's advertised UDP payload size; `None` when the
    /// message carries no OPT.
    pub fn udp_payload_size(&self) -> Option<u16> {
        self.edns.map(|(size, _)| size)
    }

    /// The first client-subnet option, as
    /// [`Message::ecs`](crate::Message::ecs) finds it.
    pub fn ecs(&self) -> Option<&EcsOption> {
        self.edns.as_ref().and_then(|(_, ecs)| ecs.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, Rdata};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    #[test]
    fn a_reply_reads_as_its_decoded_message_does() {
        let mut q = Message::query(0x2A2A, Question::a(name("Probe-1.Scan.Example")));
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(198, 51, 100, 0), 24));
        let mut resp = Message::response_to(&q);
        resp.rcode = Rcode::NxDomain;
        resp.answers.push(Record::new(
            name("probe-1.scan.example"),
            60,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 1)),
        ));
        resp.set_ecs(q.ecs().unwrap().with_scope(20));
        let bytes = resp.to_bytes().unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.id(), 0x2A2A);
        assert!(view.is_response());
        assert_eq!(view.rcode(), Rcode::NxDomain);
        assert_eq!(view.qtype(), Some(RecordType::A));
        assert!(view.question_is(&name("probe-1.scan.example")));
        assert!(!view.question_is(&name("probe-1.scan")));
        assert!(!view.question_is(&name("probe-1.scan.example.net")));
        assert_eq!(view.ecs(), resp.ecs());
        assert_eq!(view.udp_payload_size(), Some(4096));
        assert_eq!(view.questions().collect::<Vec<_>>(), resp.questions);
    }

    #[test]
    fn no_question_matches_no_name() {
        let mut bytes = Message::query(1, Question::a(name("a.example")))
            .to_bytes()
            .unwrap();
        bytes.truncate(QUESTION_AT);
        bytes[5] = 0; // qdcount 0
        let view = MessageView::parse(&bytes).unwrap();
        assert_eq!(view.qtype(), None);
        assert!(!view.question_is(&Name::root()));
        assert_eq!(view.questions().count(), 0);
        assert_eq!(view.udp_payload_size(), None);
    }
}
