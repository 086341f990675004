#![warn(missing_docs)]

//! DNS wire format implemented from scratch.
//!
//! This crate provides everything needed to construct, serialize, and parse
//! DNS messages for the ECS study: domain names with compression, the
//! twelve-byte header, questions, resource records (A, AAAA, CNAME, NS, SOA,
//! TXT, PTR, OPT), the EDNS0 mechanism (RFC 6891), and the EDNS
//! Client-Subnet option (RFC 7871).
//!
//! Design notes:
//!
//! * Parsing is defensive: every length is validated, compression pointers
//!   must point strictly backwards, and unknown record types and EDNS options
//!   are preserved as opaque bytes rather than rejected.
//! * A hop that reads only a header, a question or an ECS option reads a
//!   [`MessageView`]: the same validation as [`Message::from_bytes`], in
//!   place, with nothing built.
//! * A [`Name`] holds its uncompressed wire form inline when it is at
//!   most 38 bytes and in one heap buffer when it is longer, so most names
//!   never allocate, and equality, hashing and encoding are single passes
//!   over it. A message's questions and an OPT record's options are a
//!   [`OneVec`], which holds the usual single element inline.
//! * Serialization appends to a plain `Vec<u8>` — the encoder's own or one
//!   the caller lends and gets back ([`wire::WireWriter::with_buffer`]) —
//!   and compresses names against the bytes already written, through a
//!   bounded table of offsets ([`wire::MAX_COMPRESSION_TARGETS`]) whose
//!   first entries are inline; no name is copied or re-keyed to be
//!   compressed.
//! * All types are plain data — no I/O — so the same code drives both the
//!   deterministic simulator and any real socket front-end.
//!
//! # Quick example
//!
//! ```
//! use dns_wire::{Message, Question, RecordType, RecordClass, EcsOption, Name};
//! use std::net::Ipv4Addr;
//!
//! let mut msg = Message::query(0x1234, Question::new(
//!     Name::from_ascii("www.example.com").unwrap(),
//!     RecordType::A,
//!     RecordClass::In,
//! ));
//! msg.set_edns(4096);
//! msg.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 7), 24));
//!
//! let wire = msg.to_bytes().unwrap();
//! let back = Message::from_bytes(&wire).unwrap();
//! assert_eq!(back.ecs().unwrap().source_prefix_len(), 24);
//! // The address is truncated to the prefix on the wire.
//! assert_eq!(back.ecs().unwrap().to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
//! ```

pub mod ecs;
pub mod edns;
pub mod error;
pub mod framing;
pub mod header;
pub mod message;
pub mod name;
pub mod one_vec;
pub mod prefix;
pub mod question;
pub mod rdata;
pub mod record;
pub mod view;
pub mod wire;

pub use ecs::{AddressFamily, EcsOption};
pub use edns::{EdnsOption, OptRecord, OptionCode};
pub use error::{WireError, WireResult};
pub use header::{Flags, Header, Opcode, Rcode};
pub use message::{Message, MessageParts, QueryHead};
pub use name::Name;
pub use one_vec::OneVec;
pub use prefix::{IpPrefix, PrefixError};
pub use question::Question;
pub use rdata::{Rdata, SoaData};
pub use record::{Record, RecordClass, RecordType};
pub use view::MessageView;
