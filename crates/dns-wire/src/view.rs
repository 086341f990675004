//! A borrowed, validating reading of a datagram: what a hop that reads
//! only a header, a question, an answer section or an ECS option needs,
//! without building a [`Message`](crate::Message).

use crate::ecs::EcsOption;
use crate::edns::{read_option, OptFixed, OptionCode};
use crate::error::{WireError, WireResult};
use crate::header::{Flags, Header, Opcode, Rcode};
use crate::message::short;
use crate::name::Name;
use crate::question::Question;
use crate::record::{Record, RecordClass, RecordType};
use crate::wire::WireReader;

/// Offset of the first question: right after the twelve header bytes.
const QUESTION_AT: usize = 12;

/// A compression pointer to [`QUESTION_AT`]: how an encoder writes an
/// owner name that repeats the first question's.
const TO_QUESTION: [u8; 2] = [0xC0, QUESTION_AT as u8];

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
/// nothing and copies no label. What it keeps is what a relay, a scanner,
/// an authoritative or a resolver reads: the header, the first question's
/// name (to compare in place), type and class, where the answer section
/// starts (to decode it alone), and the OPT record's payload size and
/// client-subnet option. A first question written without a compression
/// pointer — as every encoder writes it — is kept as its byte range, so
/// comparing it, decoding it, and decoding an answer owner that points at
/// it copy that range instead of walking the labels again.
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
    /// The first question's QTYPE and QCLASS, when there is a question.
    question: Option<(RecordType, RecordClass)>,
    /// The first question's name in its uncompressed wire form, root octet
    /// excluded, when it is written without a compression pointer.
    plain_qname: Option<&'a [u8]>,
    /// Offset of the answer section: right after the last question.
    answers_at: usize,
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
        let mut question = None;
        let mut plain_qname = None;
        for _ in 0..header.qdcount {
            let (name_len, qtype, qclass) = Question::skip(&mut r).map_err(short("question"))?;
            if question.is_none() {
                question = Some((qtype, qclass));
                // A walk that followed a pointer stepped over fewer bytes
                // than the name's length: the pointer's two stand for a
                // suffix of at least three (a label and the root) or for
                // the root alone.
                let name_end = r.position() - 4;
                if name_end - QUESTION_AT == name_len {
                    plain_qname = Some(&bytes[QUESTION_AT..name_end - 1]);
                }
            }
        }
        let answers_at = r.position();
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
            question,
            plain_qname,
            answers_at,
            edns,
        })
    }

    /// The datagram this view reads.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
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
        self.question.map(|(qtype, _)| qtype)
    }

    /// True when there is a question and the first one is `question`
    /// (compared as [`Question`]'s `==` compares), its name read in place.
    pub fn asks(&self, question: &Question) -> bool {
        self.question == Some((question.qtype, question.qclass)) && self.question_is(&question.name)
    }

    /// The one rule every upstream reader applies: a reply to query `id`
    /// asking `question` echoes the question or none (an id is guessable).
    pub fn is_reply_to(&self, id: u16, question: Option<&Question>) -> bool {
        self.is_response()
            && self.id() == id
            && (self.question.is_none() || question.is_some_and(|q| self.asks(q)))
    }

    /// True when there is a question and the first one asks for `name`
    /// (compared as [`Name`]'s `==` compares), read in place.
    pub fn question_is(&self, name: &Name) -> bool {
        if self.question.is_none() {
            return false;
        }
        if let Some(plain) = self.plain_qname {
            return name.eq_plain(plain);
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
        let first = self
            .plain_qname
            .zip(self.question)
            .map(|(plain, (qtype, qclass))| Question {
                name: Name::from_plain(plain),
                qtype,
                qclass,
            });
        let mut r = WireReader::new(self.bytes);
        // A plain first question ends after its root octet, type and class.
        r.seek(
            self.plain_qname
                .map_or(QUESTION_AT, |plain| QUESTION_AT + plain.len() + 5),
        );
        let rest = usize::from(self.header.qdcount) - usize::from(first.is_some());
        // `parse` walked every question already: none fails here.
        first
            .into_iter()
            .chain((0..rest).map_while(move |_| Question::read(&mut r).ok()))
    }

    /// The answer section, decoded — the one section a caller that keeps
    /// records reads; the others stay where they lie.
    pub fn answers(&self) -> Vec<Record> {
        let mut r = WireReader::new(self.bytes);
        r.seek(self.answers_at);
        let mut record = || {
            let owner = match self.plain_qname {
                // The owner points at a plain first question: it is that
                // name.
                Some(plain) if self.bytes[r.position()..].starts_with(&TO_QUESTION) => {
                    r.seek(r.position() + TO_QUESTION.len());
                    Name::from_plain(plain)
                }
                _ => Name::read(&mut r).ok()?,
            };
            Record::read_owned_by(owner, &mut r).ok()
        };
        // `parse` walked every answer already: none fails here.
        let mut answers = Vec::with_capacity(usize::from(self.header.ancount));
        answers.extend((0..self.header.ancount).map_while(|_| record()));
        answers
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
        assert_eq!(view.answers(), resp.answers);
        assert!(view.asks(&resp.questions[0]));
        let mut other_class = resp.questions[0].clone();
        other_class.qclass = crate::RecordClass::Ch;
        assert!(!view.asks(&other_class));
        assert!(view.is_reply_to(0x2A2A, Some(&resp.questions[0])));
        assert!(!view.is_reply_to(0x2A2B, Some(&resp.questions[0])));
        assert!(!view.is_reply_to(0x2A2A, Some(&other_class)));
        assert!(!view.is_reply_to(0x2A2A, None));
        let query_bytes = q.to_bytes().unwrap();
        let query = MessageView::parse(&query_bytes).unwrap();
        assert!(
            !query.is_reply_to(0x2A2A, Some(&resp.questions[0])),
            "a query"
        );
    }

    /// A first question that is itself a compression pointer (here into
    /// the header, whose id and flags spell the name `a`) is read by
    /// walking it, and an answer owner pointing at it reads through both
    /// pointers.
    #[test]
    fn a_question_written_with_a_pointer_reads_as_decoded() {
        let bytes = [
            0x01, b'a', 0x00, 0x00, // id 0x0161, flags: `a` at offset 0
            0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, // one question, one answer
            0xC0, 0x00, 0x00, 0x01, 0x00, 0x01, // the question: `a` by pointer, A IN
            0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, // the answer's owner points at it
            0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 192, 0, 2, 1,
        ];
        let decoded = Message::from_bytes(&bytes).unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        assert!(view.question_is(&name("A")));
        assert!(view.asks(&decoded.questions[0]));
        assert_eq!(view.questions().collect::<Vec<_>>(), decoded.questions);
        assert_eq!(view.answers(), decoded.answers);
        assert_eq!(decoded.answers[0].name, name("a"));
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
        assert!(view.answers().is_empty());
        assert!(!view.asks(&Question::a(name("a.example"))));
        assert_eq!(view.udp_payload_size(), None);
        bytes[2] |= 0x80; // QR: a reply that carries no question
        let reply = MessageView::parse(&bytes).unwrap();
        assert!(reply.is_reply_to(1, Some(&Question::a(name("a.example")))));
        assert!(reply.is_reply_to(1, None));
        assert!(!reply.is_reply_to(2, None));
    }
}
