//! Complete DNS messages: the header, four sections, and EDNS handling.

use std::net::IpAddr;

use crate::ecs::EcsOption;
use crate::edns::OptRecord;
use crate::error::{WireError, WireResult};
use crate::header::{Flags, Header, Opcode, Rcode};
use crate::name::Name;
use crate::one_vec::OneVec;
use crate::question::Question;
use crate::rdata::Rdata;
use crate::record::{Record, RecordType};
use crate::view::MessageView;
use crate::wire::{WireReader, WireWriter};

/// A DNS message.
///
/// The OPT pseudo-record is held separately in `edns` rather than in the
/// additional section; serialization appends it automatically and parsing
/// extracts it (validating there is at most one with a root owner name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID.
    pub id: u16,
    /// Header flag bits.
    pub flags: Flags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code (low 4 bits; combined with the EDNS extended rcode via
    /// [`Message::extended_rcode`]).
    pub rcode: Rcode,
    /// Question section.
    pub questions: OneVec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (excluding OPT).
    pub additionals: Vec<Record>,
    /// EDNS OPT pseudo-record, if present.
    pub edns: Option<OptRecord>,
}

impl Message {
    /// A recursive query for one question.
    pub fn query(id: u16, question: Question) -> Self {
        Message {
            id,
            flags: Flags {
                rd: true,
                ..Flags::default()
            },
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            questions: OneVec::one(question),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// Builds a response skeleton for a query: copies ID, question, RD; sets
    /// QR. Does not copy EDNS (the responder decides its own OPT).
    pub fn response_to(query: &Message) -> Self {
        Message {
            id: query.id,
            flags: Flags {
                qr: true,
                rd: query.flags.rd,
                ..Flags::default()
            },
            opcode: query.opcode,
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True when this message is a response.
    pub fn is_response(&self) -> bool {
        self.flags.qr
    }

    /// Ensures an OPT record exists, advertising `udp_payload_size`.
    pub fn set_edns(&mut self, udp_payload_size: u16) -> &mut OptRecord {
        let opt = self
            .edns
            .get_or_insert_with(|| OptRecord::new(udp_payload_size));
        opt.udp_payload_size = udp_payload_size;
        opt
    }

    /// The ECS option, if the message carries one.
    pub fn ecs(&self) -> Option<&EcsOption> {
        self.edns.as_ref().and_then(|o| o.ecs())
    }

    /// Sets (replacing) the ECS option, creating the OPT record if needed
    /// ([`OptRecord::with_ecs`]).
    pub fn set_ecs(&mut self, ecs: EcsOption) {
        match &mut self.edns {
            Some(opt) => opt.set_ecs(ecs),
            None => self.edns = Some(OptRecord::with_ecs(ecs)),
        }
    }

    /// Removes the ECS option, keeping the OPT record.
    pub fn clear_ecs(&mut self) {
        if let Some(o) = self.edns.as_mut() {
            o.clear_ecs();
        }
    }

    /// The combined 12-bit extended response code (RFC 6891 §6.1.3).
    pub fn extended_rcode(&self) -> u16 {
        let hi = self.edns.as_ref().map(|o| o.extended_rcode).unwrap_or(0) as u16;
        (hi << 4) | self.rcode.to_u8() as u16
    }

    /// All A/AAAA addresses in the answer section, in order.
    pub fn answer_addrs(&self) -> Vec<IpAddr> {
        self.answers
            .iter()
            .filter_map(|r| match &r.rdata {
                Rdata::A(a) => Some(IpAddr::V4(*a)),
                Rdata::Aaaa(a) => Some(IpAddr::V6(*a)),
                _ => None,
            })
            .collect()
    }

    /// Minimum TTL across answer records (the effective cache lifetime of
    /// the response), or `None` when there are no answers.
    pub fn min_answer_ttl(&self) -> Option<u32> {
        self.answers.iter().map(|r| r.ttl).min()
    }

    /// Encodes the message with name compression.
    pub fn to_bytes(&self) -> WireResult<Vec<u8>> {
        self.parts().to_bytes()
    }

    /// The message's parts, borrowed, as [`MessageParts::write`] writes
    /// them.
    pub fn parts(&self) -> MessageParts<'_> {
        MessageParts {
            id: self.id,
            flags: self.flags,
            opcode: self.opcode,
            rcode: self.rcode,
            questions: &self.questions,
            answers: &self.answers,
            authorities: &self.authorities,
            additionals: &self.additionals,
            edns: self.edns.as_ref(),
        }
    }

    /// Whether the message encodes in at most `limit` bytes: the answer of
    /// `self.to_bytes().is_ok_and(|b| b.len() <= limit)`. It encodes only
    /// when it has to: a message whose uncompressed upper bound fits is
    /// answered without writing a byte, and only one whose bound exceeds
    /// the limit is encoded and measured, so the answer stays exact.
    pub fn fits_in(&self, limit: usize) -> bool {
        match self.max_len() {
            Some(bound) if bound <= limit.min(u16::MAX as usize) => true,
            _ => self.to_bytes().is_ok_and(|b| b.len() <= limit),
        }
    }

    /// What [`Message::write`] writes at most: the header, every name at
    /// its full [`Name::wire_len`], every RDATA at full length, and the
    /// OPT record's own bound. Compression only shortens names, so the
    /// encoding is never longer. `None` when some record would fail to
    /// encode whatever its length.
    fn max_len(&self) -> Option<usize> {
        let questions: usize = self.questions.iter().map(|q| q.name.wire_len() + 4).sum();
        let mut len = 12 + questions + self.edns.as_ref().map_or(0, OptRecord::max_len);
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            len += r.name.wire_len() + 10 + r.rdata.max_len()?;
        }
        Some(len)
    }

    /// Encodes into an existing writer.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        self.parts().write(w)
    }

    /// Parses a message from wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(bytes);
        let header = Header::read(&mut r)?;
        let mut questions = OneVec::new();
        for _ in 0..header.qdcount {
            questions.push(Question::read(&mut r).map_err(short("question"))?);
        }
        let answers = read_section(&mut r, header.ancount, "answer")?;
        let authorities = read_section(&mut r, header.nscount, "authority")?;

        // Additional section: intercept OPT records.
        let mut additionals = Vec::new();
        let mut edns: Option<OptRecord> = None;
        for _ in 0..header.arcount {
            let mark = r.clone();
            let name = Name::read(&mut r).map_err(short("additional"))?;
            let rtype = RecordType::from_u16(r.read_u16("record type")?);
            if rtype == RecordType::Opt {
                if !name.is_root() {
                    return Err(WireError::OptOwnerNotRoot);
                }
                if edns.is_some() {
                    return Err(WireError::DuplicateOpt);
                }
                edns = Some(OptRecord::read_after_type(&mut r)?);
            } else {
                // Rewind and parse as a normal record.
                r = mark;
                additionals.push(Record::read(&mut r).map_err(short("additional"))?);
            }
        }

        Ok(Message {
            id: header.id,
            flags: header.flags,
            opcode: header.opcode,
            rcode: header.rcode,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

/// What a server reads of a query to answer it, from a decoded
/// [`Message`] or in place from a [`MessageView`]: what the answer repeats
/// (id, RD, opcode, questions), the payload size it must fit, and the
/// client-subnet option whose scope it echoes (RFC 7871 §7.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHead {
    /// Transaction ID.
    pub id: u16,
    /// Recursion desired.
    pub rd: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// The question section, as asked.
    pub questions: OneVec<Question>,
    /// The advertised UDP payload size, when the query carries OPT.
    pub udp_payload_size: Option<u16>,
    /// The first client-subnet option.
    pub ecs: Option<EcsOption>,
}

impl From<&Message> for QueryHead {
    /// Reads a decoded query.
    fn from(query: &Message) -> Self {
        QueryHead {
            id: query.id,
            rd: query.flags.rd,
            opcode: query.opcode,
            questions: query.questions.clone(),
            udp_payload_size: query.edns.as_ref().map(|opt| opt.udp_payload_size),
            ecs: query.ecs().copied(),
        }
    }
}

impl From<MessageView<'_>> for QueryHead {
    /// Reads a query in place.
    fn from(query: MessageView<'_>) -> Self {
        QueryHead {
            id: query.id(),
            rd: query.flags().rd,
            opcode: query.opcode(),
            questions: query.questions().collect(),
            udp_payload_size: query.udp_payload_size(),
            ecs: query.ecs().copied(),
        }
    }
}

/// A message's fields held apart and borrowed: what a caller that has
/// the parts of a message, but no [`Message`], writes — a resolver
/// answering from a reply it read through a [`MessageView`].
/// [`Message::write`] writes through this too, so there is one encoder
/// and equal parts give equal bytes.
#[derive(Debug, Clone, Copy)]
pub struct MessageParts<'a> {
    /// Transaction ID.
    pub id: u16,
    /// Header flag bits.
    pub flags: Flags,
    /// Operation code.
    pub opcode: Opcode,
    /// Response code (low 4 bits).
    pub rcode: Rcode,
    /// Question section.
    pub questions: &'a [Question],
    /// Answer section.
    pub answers: &'a [Record],
    /// Authority section.
    pub authorities: &'a [Record],
    /// Additional section (excluding OPT).
    pub additionals: &'a [Record],
    /// EDNS OPT pseudo-record, written last, if present.
    pub edns: Option<&'a OptRecord>,
}

impl MessageParts<'_> {
    /// Encodes the parts with name compression.
    pub fn to_bytes(&self) -> WireResult<Vec<u8>> {
        let mut w = WireWriter::new();
        self.write(&mut w)?;
        w.finish()
    }

    /// Encodes into an existing writer: the header, then each section in
    /// order, then OPT.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        let header = Header {
            id: self.id,
            flags: self.flags,
            opcode: self.opcode,
            rcode: self.rcode,
            qdcount: self.questions.len() as u16,
            ancount: self.answers.len() as u16,
            nscount: self.authorities.len() as u16,
            arcount: (self.additionals.len() + usize::from(self.edns.is_some())) as u16,
        };
        header.write(w);
        for q in self.questions {
            q.write(w)?;
        }
        for r in self.answers {
            r.write(w)?;
        }
        for r in self.authorities {
            r.write(w)?;
        }
        for r in self.additionals {
            r.write(w)?;
        }
        if let Some(opt) = self.edns {
            opt.write(w)?;
        }
        Ok(())
    }
}

fn read_section(
    r: &mut WireReader<'_>,
    count: u16,
    section: &'static str,
) -> WireResult<Vec<Record>> {
    // A record is at least 11 wire bytes (root owner + type + class + TTL +
    // RDLENGTH); bound the preallocation by what the buffer could hold.
    let mut out = Vec::with_capacity(r.capacity_for(count, 11));
    for _ in 0..count {
        out.push(Record::read(r).map_err(short(section))?);
    }
    Ok(out)
}

/// Reports a section that ran out of bytes as the header count it broke.
pub(crate) fn short(section: &'static str) -> impl Fn(WireError) -> WireError {
    move |e| match e {
        WireError::Truncated { .. } => WireError::CountMismatch { section },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn sample_query() -> Message {
        let mut m = Message::query(0x1111, Question::a(name("www.example.com")));
        m.set_edns(4096);
        m.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        m
    }

    #[test]
    fn query_roundtrip() {
        let m = sample_query();
        let bytes = m.to_bytes().unwrap();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.ecs().unwrap().source_prefix_len(), 24);
        assert!(!back.is_response());
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        resp.flags.aa = true;
        resp.answers.push(Record::new(
            name("www.example.com"),
            20,
            Rdata::Cname(name("edge.cdn.example")),
        ));
        resp.answers.push(Record::new(
            name("edge.cdn.example"),
            20,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 5)),
        ));
        resp.authorities.push(Record::new(
            name("cdn.example"),
            3600,
            Rdata::Ns(name("ns1.cdn.example")),
        ));
        resp.additionals.push(Record::new(
            name("ns1.cdn.example"),
            3600,
            Rdata::A(Ipv4Addr::new(198, 51, 100, 53)),
        ));
        resp.set_edns(4096);
        resp.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(16));

        let bytes = resp.to_bytes().unwrap();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back, resp);
        assert!(back.is_response());
        assert_eq!(back.ecs().unwrap().scope_prefix_len(), 16);
        assert_eq!(
            back.answer_addrs(),
            vec![IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5))]
        );
        assert_eq!(back.min_answer_ttl(), Some(20));
    }

    #[test]
    fn response_to_copies_question_and_rd() {
        let q = sample_query();
        let r = Message::response_to(&q);
        assert_eq!(r.id, q.id);
        assert!(r.flags.qr);
        assert!(r.flags.rd);
        assert_eq!(r.questions, q.questions);
        assert!(r.edns.is_none(), "EDNS must not be copied implicitly");
    }

    #[test]
    fn compression_shrinks_message() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        for i in 0..4 {
            resp.answers.push(Record::new(
                name("www.example.com"),
                60,
                Rdata::A(Ipv4Addr::new(203, 0, 113, i)),
            ));
        }
        let bytes = resp.to_bytes().unwrap();
        // Owner names after the first should be 2-byte pointers: the records
        // are 2+2+2+4+2+4 = 16 bytes each with a pointer owner.
        let mut uncompressed = WireWriter::without_compression();
        resp.write(&mut uncompressed).unwrap();
        assert!(bytes.len() < uncompressed.finish().unwrap().len());
        assert_eq!(Message::from_bytes(&bytes).unwrap(), resp);
    }

    #[test]
    fn a_label_containing_a_dot_is_not_compressed_against_two_labels() {
        // What any upstream may send and `Name::read` accepts: a CNAME
        // whose target is the single label `a.b` under `com`. Relayed, it
        // must not come back as a pointer to the owner `a.b.com`.
        let two = name("a.b.com");
        let one = name("com").child("a.b").unwrap();
        let mut resp = Message::response_to(&Message::query(7, Question::a(two.clone())));
        resp.answers
            .push(Record::new(two.clone(), 60, Rdata::Cname(one.clone())));
        resp.answers.push(Record::new(
            one.clone(),
            60,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 9)),
        ));
        let bytes = resp.to_bytes().unwrap();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back.answers[0].name, two);
        assert_eq!(back.answers[0].rdata.as_cname(), Some(&one));
        assert_eq!(back.answers[1].name, one);
        assert_eq!(back, resp);
        // The two names do share `com`, and the second `a.b` label is a
        // pointer to the first.
        assert_eq!(
            Message::from_bytes(&back.to_bytes().unwrap()).unwrap(),
            resp
        );
        assert_eq!(bytes.len(), 12 + (9 + 4) + (2 + 10 + 6) + (2 + 10 + 4));
    }

    #[test]
    fn duplicate_opt_rejected() {
        let mut m = sample_query();
        m.edns = None;
        let mut w = WireWriter::new();
        // Handcraft: header arcount 2 with two OPTs.
        let header = Header {
            id: 1,
            flags: Flags::default(),
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 2,
        };
        header.write(&mut w);
        OptRecord::new(512).write(&mut w).unwrap();
        OptRecord::new(512).write(&mut w).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(
            Message::from_bytes(&bytes).unwrap_err(),
            WireError::DuplicateOpt
        );
    }

    #[test]
    fn opt_with_nonroot_owner_rejected() {
        let mut w = WireWriter::new();
        let header = Header {
            id: 1,
            flags: Flags::default(),
            opcode: Opcode::Query,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 1,
        };
        header.write(&mut w);
        name("x.example").write(&mut w).unwrap();
        w.put_u16(41); // OPT
        w.put_u16(4096);
        w.put_u32(0);
        w.put_u16(0);
        let bytes = w.finish().unwrap();
        assert_eq!(
            Message::from_bytes(&bytes).unwrap_err(),
            WireError::OptOwnerNotRoot
        );
    }

    #[test]
    fn count_mismatch_detected() {
        let m = sample_query();
        let mut bytes = m.to_bytes().unwrap();
        // Claim 2 questions.
        bytes[5] = 2;
        assert!(matches!(
            Message::from_bytes(&bytes),
            Err(WireError::CountMismatch { .. }) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_counts_fail_cleanly_without_huge_allocation() {
        // A 12-byte datagram claiming 65 535 records in every section must
        // fail with a parse error (and, per the bounded-preallocation
        // guard, reserve no section capacity at all on the way).
        let mut bytes = sample_query().to_bytes().unwrap();
        bytes.truncate(12);
        for i in [4, 6, 8, 10] {
            bytes[i] = 0xFF;
            bytes[i + 1] = 0xFF;
        }
        assert!(matches!(
            Message::from_bytes(&bytes),
            Err(WireError::CountMismatch { .. }) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn extended_rcode_combines() {
        let mut m = sample_query();
        m.rcode = Rcode::Unknown(0x6);
        m.set_edns(4096).extended_rcode = 0x2;
        assert_eq!(m.extended_rcode(), 0x26);
        let mut m2 = Message::query(1, Question::a(name("a.example")));
        m2.rcode = Rcode::FormErr;
        assert_eq!(m2.extended_rcode(), 1);
    }

    #[test]
    fn clear_ecs_keeps_opt() {
        let mut m = sample_query();
        m.clear_ecs();
        assert!(m.ecs().is_none());
        assert!(m.edns.is_some());
    }

    #[test]
    fn formerr_response_models_pre_edns_server() {
        // The failure mode RFC 7871 probing guards against: an old server
        // answering EDNS queries with FORMERR and no OPT.
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        resp.rcode = Rcode::FormErr;
        let bytes = resp.to_bytes().unwrap();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back.rcode, Rcode::FormErr);
        assert!(back.edns.is_none());
        assert!(back.ecs().is_none());
    }

    /// What the inline storage costs in size, so that growing it again is
    /// a decision: a `Name` holds up to 38 wire bytes in 40, and a
    /// `Message` carries one question and one OPT option without a heap
    /// allocation in 176.
    #[test]
    fn inline_values_stay_their_chosen_size() {
        use std::mem::size_of;
        assert!(size_of::<Name>() <= 40, "Name is {}", size_of::<Name>());
        assert!(
            size_of::<Message>() <= 176,
            "Message is {}",
            size_of::<Message>()
        );
    }
}
