//! Trace export: [`write_trace`] prints a [`TraceSet`] as line-oriented
//! TSV, the shape the paper's (proprietary) packet logs had, so a generated
//! workload can be inspected or handed to other tools. Nothing in the
//! repository reads the format back: replay takes its records from the
//! generators (`TraceSet`) or from [`crate::TraceStreamSource`].
//!
//! Format, one record per line, tab-separated:
//!
//! ```text
//! at_micros  resolver  qname  qtype  ecs_source  response_scope  ttl  client
//! ```
//!
//! Missing optional fields are `-`; prefixes print as `addr/len`. The first
//! line is a header comment `#ecs-trace v1 <label>`.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::trace::TraceSet;

/// Writes a trace in TSV form.
pub fn write_trace<W: Write>(trace: &TraceSet, mut out: W) -> io::Result<()> {
    writeln!(out, "#ecs-trace v1 {}", trace.label)?;
    let mut line = String::with_capacity(128);
    for r in &trace.records {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use dns_wire::{IpPrefix, Name, RecordType};

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
}
