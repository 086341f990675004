//! Trace serialization: a line-oriented TSV format for [`TraceSet`]s, so
//! generated workloads can be saved, shared, and replayed — the same role
//! the paper's (proprietary) packet logs played.
//!
//! Format, one record per line, tab-separated:
//!
//! ```text
//! at_micros  resolver  qname  qtype  ecs_source  response_scope  ttl  client
//! ```
//!
//! Missing optional fields are `-`; prefixes print as `addr/len`. The first
//! line is a header comment `#ecs-trace v1 <label>`.
//!
//! The v2 framing (`#ecs-trace v2 <count> <label>`) additionally declares
//! the record count up front so chunked readers can detect a truncated
//! tail: [`ChunkedTraceReader`] errors with [`TraceIoError::Truncated`]
//! when the input ends before the declared count, instead of silently
//! yielding a short trace.

use dns_wire::{IpPrefix, Name, RecordType};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::IpAddr;
use std::str::FromStr;

use crate::trace::{TraceRecord, TraceSet};

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    /// The header line is missing or malformed.
    BadHeader,
    /// A record line has the wrong number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// A v2 input ended before its declared record count — a corrupt or
    /// truncated tail, never silently accepted.
    Truncated {
        /// Records the header declared.
        expected: u64,
        /// Records actually read.
        got: u64,
    },
    /// Underlying I/O failure.
    Io(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadHeader => write!(f, "missing or malformed #ecs-trace header"),
            TraceIoError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 8 fields, got {got}")
            }
            TraceIoError::BadField { line, field } => {
                write!(f, "line {line}: malformed field '{field}'")
            }
            TraceIoError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated trace: header declared {expected} records, found {got}"
                )
            }
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e.to_string())
    }
}

/// Writes a trace in TSV form.
pub fn write_trace<W: Write>(trace: &TraceSet, mut out: W) -> Result<(), TraceIoError> {
    writeln!(out, "#ecs-trace v1 {}", trace.label)?;
    write_records(&trace.records, &mut out)
}

/// Writes a trace with the v2 counted header, so readers can detect a
/// truncated tail.
pub fn write_trace_v2<W: Write>(trace: &TraceSet, mut out: W) -> Result<(), TraceIoError> {
    writeln!(out, "#ecs-trace v2 {} {}", trace.records.len(), trace.label)?;
    write_records(&trace.records, &mut out)
}

fn write_records<W: Write>(records: &[TraceRecord], out: &mut W) -> Result<(), TraceIoError> {
    let mut line = String::with_capacity(128);
    for r in records {
        line.clear();
        write!(
            line,
            "{}\t{}\t{}\t{}",
            r.at_micros,
            r.resolver,
            r.qname,
            r.qtype.to_u16()
        )
        .expect("string write");
        match &r.ecs_source {
            Some(p) => write!(line, "\t{}/{}", p.addr(), p.len()).expect("string write"),
            None => line.push_str("\t-"),
        }
        match r.response_scope {
            Some(s) => write!(line, "\t{s}").expect("string write"),
            None => line.push_str("\t-"),
        }
        write!(line, "\t{}", r.ttl).expect("string write");
        match r.client {
            Some(c) => write!(line, "\t{c}").expect("string write"),
            None => line.push_str("\t-"),
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`].
pub fn read_trace<R: BufRead>(input: R) -> Result<TraceSet, TraceIoError> {
    let mut lines = input.lines();
    let header = lines.next().ok_or(TraceIoError::BadHeader)??;
    let label = header
        .strip_prefix("#ecs-trace v1 ")
        .ok_or(TraceIoError::BadHeader)?
        .to_string();
    let mut set = TraceSet::new(label);
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        set.records.push(parse_record(i + 2, &line)?);
    }
    Ok(set)
}

fn parse_record(lineno: usize, line: &str) -> Result<TraceRecord, TraceIoError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 8 {
        return Err(TraceIoError::FieldCount {
            line: lineno,
            got: fields.len(),
        });
    }
    let bad = |field: &'static str| TraceIoError::BadField {
        line: lineno,
        field,
    };
    let at_micros: u64 = fields[0].parse().map_err(|_| bad("at_micros"))?;
    let resolver: IpAddr = fields[1].parse().map_err(|_| bad("resolver"))?;
    let qname = Name::from_ascii(fields[2]).map_err(|_| bad("qname"))?;
    let qtype = RecordType::from_u16(fields[3].parse().map_err(|_| bad("qtype"))?);
    let ecs_source = match fields[4] {
        "-" => None,
        s => {
            let (addr, len) = s.split_once('/').ok_or_else(|| bad("ecs_source"))?;
            let addr = IpAddr::from_str(addr).map_err(|_| bad("ecs_source"))?;
            let len: u8 = len.parse().map_err(|_| bad("ecs_source"))?;
            Some(IpPrefix::new(addr, len).map_err(|_| bad("ecs_source"))?)
        }
    };
    let response_scope = match fields[5] {
        "-" => None,
        s => Some(s.parse().map_err(|_| bad("response_scope"))?),
    };
    let ttl: u32 = fields[6].parse().map_err(|_| bad("ttl"))?;
    let client = match fields[7] {
        "-" => None,
        s => Some(s.parse().map_err(|_| bad("client"))?),
    };
    Ok(TraceRecord {
        at_micros,
        resolver,
        qname,
        qtype,
        ecs_source,
        response_scope,
        ttl,
        client,
    })
}

/// Chunked reader over the v2 counted format. Yields `Vec<TraceRecord>`
/// chunks of at most `chunk_size` records and **errors** — never silently
/// truncates — when the input ends before the count the header declared.
pub struct ChunkedTraceReader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
    label: String,
    expected: u64,
    read: u64,
    chunk_size: usize,
    done: bool,
}

impl<R: BufRead> ChunkedTraceReader<R> {
    /// Opens a v2 trace, consuming and validating the header.
    pub fn new(input: R, chunk_size: usize) -> Result<Self, TraceIoError> {
        let mut lines = input.lines().enumerate();
        let (_, header) = lines.next().ok_or(TraceIoError::BadHeader)?;
        let header = header?;
        let rest = header
            .strip_prefix("#ecs-trace v2 ")
            .ok_or(TraceIoError::BadHeader)?;
        let (count, label) = rest.split_once(' ').ok_or(TraceIoError::BadHeader)?;
        let expected: u64 = count.parse().map_err(|_| TraceIoError::BadHeader)?;
        Ok(ChunkedTraceReader {
            lines,
            label: label.to_string(),
            expected,
            read: 0,
            chunk_size: chunk_size.max(1),
            done: false,
        })
    }

    /// The trace label from the header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The record count the header declared.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

impl<R: BufRead> Iterator for ChunkedTraceReader<R> {
    type Item = Result<Vec<TraceRecord>, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.read == self.expected {
            self.done = true;
            return None;
        }
        let mut chunk = Vec::with_capacity(self.chunk_size);
        while chunk.len() < self.chunk_size && self.read < self.expected {
            let Some((i, line)) = self.lines.next() else {
                self.done = true;
                return Some(Err(TraceIoError::Truncated {
                    expected: self.expected,
                    got: self.read,
                }));
            };
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            if line.is_empty() {
                continue;
            }
            match parse_record(i + 1, &line) {
                Ok(r) => {
                    chunk.push(r);
                    self.read += 1;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        Some(Ok(chunk))
    }
}

/// Reads a trace written by [`write_trace_v2`], erroring on a truncated
/// tail.
pub fn read_trace_v2<R: BufRead>(input: R) -> Result<TraceSet, TraceIoError> {
    let mut reader = ChunkedTraceReader::new(input, 8192)?;
    let mut set = TraceSet::new(reader.label().to_string());
    set.records.reserve(reader.expected() as usize);
    for chunk in &mut reader {
        set.records.extend(chunk?);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::AllNamesTraceGen;

    fn roundtrip(trace: &TraceSet) -> TraceSet {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        read_trace(std::io::Cursor::new(buf)).unwrap()
    }

    /// The v1 bytes `ecs-study export-traces` writes, pinned as text: the
    /// header line, `addr/len` prefixes for both families, and `-` for
    /// every absent optional field.
    #[test]
    fn written_trace_is_the_pinned_text() {
        let record =
            |at_micros, qname: &str, qtype, ecs_source, response_scope, ttl, client| TraceRecord {
                at_micros,
                resolver: "9.9.9.9".parse().unwrap(),
                qname: Name::from_ascii(qname).unwrap(),
                qtype,
                ecs_source,
                response_scope,
                ttl,
                client,
            };
        let mut trace = TraceSet::new("golden three");
        trace.records.push(record(
            1_500_000,
            "www.example.com",
            RecordType::A,
            Some(IpPrefix::new("203.0.113.0".parse().unwrap(), 24).unwrap()),
            Some(24),
            20,
            Some("203.0.113.77".parse().unwrap()),
        ));
        trace.records.push(record(
            2_000_001,
            "v6.example.com",
            RecordType::Aaaa,
            Some(IpPrefix::new("2001:db8:12::".parse().unwrap(), 48).unwrap()),
            Some(0),
            300,
            Some("2001:db8:12::7".parse().unwrap()),
        ));
        trace.records.push(record(
            7,
            "a.example.com",
            RecordType::A,
            None,
            None,
            60,
            None,
        ));
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "#ecs-trace v1 golden three\n\
             1500000\t9.9.9.9\twww.example.com.\t1\t203.0.113.0/24\t24\t20\t203.0.113.77\n\
             2000001\t9.9.9.9\tv6.example.com.\t28\t2001:db8:12::/48\t0\t300\t2001:db8:12::7\n\
             7\t9.9.9.9\ta.example.com.\t1\t-\t-\t60\t-\n"
        );
    }

    #[test]
    fn generated_trace_roundtrips() {
        let trace = AllNamesTraceGen {
            v4_subnets: 20,
            v6_subnets: 5,
            slds: 30,
            queries: 500,
            ..AllNamesTraceGen::default()
        }
        .generate();
        let back = roundtrip(&trace);
        assert_eq!(back.label, trace.label);
        assert_eq!(back.records, trace.records);
    }

    #[test]
    fn optional_fields_roundtrip_as_dashes() {
        let mut trace = TraceSet::new("opt");
        trace.records.push(TraceRecord {
            at_micros: 7,
            resolver: "9.9.9.9".parse().unwrap(),
            qname: Name::from_ascii("a.example.com").unwrap(),
            qtype: RecordType::A,
            ecs_source: None,
            response_scope: None,
            ttl: 60,
            client: None,
        });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\t-\t-\t60\t-"));
        assert_eq!(roundtrip(&trace).records, trace.records);
    }

    #[test]
    fn header_required() {
        let err = read_trace(std::io::Cursor::new(b"not a header\n".to_vec())).unwrap_err();
        assert_eq!(err, TraceIoError::BadHeader);
        let err = read_trace(std::io::Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err, TraceIoError::BadHeader);
    }

    #[test]
    fn field_errors_carry_line_numbers() {
        let data =
            b"#ecs-trace v1 t\n1\t9.9.9.9\ta.example.\t1\t-\t-\t60\t-\nbroken line\n".to_vec();
        let err = read_trace(std::io::Cursor::new(data)).unwrap_err();
        assert_eq!(err, TraceIoError::FieldCount { line: 3, got: 1 });

        let data = b"#ecs-trace v1 t\n1\tnot-an-ip\ta.example.\t1\t-\t-\t60\t-\n".to_vec();
        let err = read_trace(std::io::Cursor::new(data)).unwrap_err();
        assert_eq!(
            err,
            TraceIoError::BadField {
                line: 2,
                field: "resolver"
            }
        );
    }

    #[test]
    fn v2_roundtrips_with_count() {
        let trace = AllNamesTraceGen {
            v4_subnets: 20,
            v6_subnets: 5,
            slds: 30,
            queries: 500,
            ..AllNamesTraceGen::default()
        }
        .generate();
        let mut buf = Vec::new();
        write_trace_v2(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("#ecs-trace v2 500 "));
        let back = read_trace_v2(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.label, trace.label);
        assert_eq!(back.records, trace.records);
    }

    #[test]
    fn chunked_reader_yields_bounded_chunks() {
        let trace = AllNamesTraceGen {
            v4_subnets: 20,
            v6_subnets: 5,
            slds: 30,
            queries: 500,
            ..AllNamesTraceGen::default()
        }
        .generate();
        let mut buf = Vec::new();
        write_trace_v2(&trace, &mut buf).unwrap();
        let reader = ChunkedTraceReader::new(std::io::Cursor::new(buf), 128).unwrap();
        assert_eq!(reader.expected(), 500);
        let mut total = 0usize;
        for chunk in reader {
            let chunk = chunk.unwrap();
            assert!(chunk.len() <= 128);
            total += chunk.len();
        }
        assert_eq!(total, 500);
    }

    #[test]
    fn corrupt_tail_errors_instead_of_truncating() {
        let trace = AllNamesTraceGen {
            v4_subnets: 20,
            v6_subnets: 5,
            slds: 30,
            queries: 500,
            ..AllNamesTraceGen::default()
        }
        .generate();
        let mut buf = Vec::new();
        write_trace_v2(&trace, &mut buf).unwrap();

        // Drop whole trailing lines: the counted header catches it.
        let text = String::from_utf8(buf.clone()).unwrap();
        let kept: Vec<&str> = text.lines().take(401).collect(); // header + 400 records
        let short = kept.join("\n") + "\n";
        let err = read_trace_v2(std::io::Cursor::new(short.into_bytes())).unwrap_err();
        assert_eq!(
            err,
            TraceIoError::Truncated {
                expected: 500,
                got: 400
            }
        );

        // Cut mid-line: the mangled record itself errors.
        buf.truncate(buf.len() - 7);
        let err = read_trace_v2(std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(
                err,
                TraceIoError::FieldCount { .. }
                    | TraceIoError::BadField { .. }
                    | TraceIoError::Truncated { .. }
            ),
            "unexpected error: {err:?}"
        );

        // v1 header is rejected by the v2 reader.
        let err = ChunkedTraceReader::new(std::io::Cursor::new(b"#ecs-trace v1 t\n".to_vec()), 8)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, TraceIoError::BadHeader);
    }

    #[test]
    fn empty_lines_skipped() {
        let data =
            b"#ecs-trace v1 t\n\n1\t9.9.9.9\ta.example.\t1\t10.0.0.0/24\t24\t60\t10.0.0.7\n\n"
                .to_vec();
        let set = read_trace(std::io::Cursor::new(data)).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.records[0].ecs_source.unwrap().len(), 24);
        assert_eq!(set.records[0].client.unwrap().to_string(), "10.0.0.7");
    }
}
