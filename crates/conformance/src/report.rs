//! Machine-readable conformance report.
//!
//! Hand-rolled JSON (the vendored serde stub carries no codegen), matching
//! the style of the obs exporters.

/// One (subject-config, scenario) cell of the conformance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Which paper table the cell belongs to: `"6.1-probing"`,
    /// `"6.2-prefix"`, `"6.3-compliance"`.
    pub section: &'static str,
    /// Cell identifier, e.g. `"always"`, `"jammed-32"`, `"cap22"`.
    pub cell: String,
    /// Subject resolver configuration driven through the scenario.
    pub config: String,
    /// Authoritative scenario name.
    pub scenario: String,
    /// The class the subject is built to land in.
    pub expected: String,
    /// The class the oracle actually assigned.
    pub observed: String,
}

impl CellResult {
    /// True when the oracle agreed with the ground truth.
    pub fn pass(&self) -> bool {
        self.expected == self.observed
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"section\":{},\"cell\":{},\"config\":{},\"scenario\":{},\"expected\":{},\"observed\":{},\"pass\":{}}}",
            json_str(self.section),
            json_str(&self.cell),
            json_str(&self.config),
            json_str(&self.scenario),
            json_str(&self.expected),
            json_str(&self.observed),
            self.pass()
        )
    }
}

/// One metric series whose value differed between the in-process engine and
/// the socket-backed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    /// Series name, e.g. `resolver_retries_total`.
    pub series: String,
    /// Rendered value on the in-process side.
    pub engine: String,
    /// Rendered value on the socket side.
    pub socket: String,
    /// True when the series is on the transport-timing whitelist.
    pub whitelisted: bool,
}

impl MetricDelta {
    fn to_json(&self) -> String {
        format!(
            "{{\"series\":{},\"engine\":{},\"socket\":{},\"whitelisted\":{}}}",
            json_str(&self.series),
            json_str(&self.engine),
            json_str(&self.socket),
            self.whitelisted
        )
    }
}

/// Outcome of the engine-vs-dnsd differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Queries driven through both subjects.
    pub queries: usize,
    /// Client-facing responses that were not byte-identical.
    pub mismatched_answers: usize,
    /// Legacy `ResolverStats` snapshots were equal.
    pub stats_equal: bool,
    /// `CacheStats` snapshots were equal.
    pub cache_equal: bool,
    /// Real-socket timeouts the socket side absorbed (0 in a healthy run;
    /// when non-zero the whitelisted transport series legitimately drift).
    pub socket_timeouts: u64,
    /// Series allowed to differ between the two transports, fixed up front.
    pub whitelist: Vec<&'static str>,
    /// Every observed metric difference, whitelisted or not.
    pub deltas: Vec<MetricDelta>,
}

impl DifferentialReport {
    /// Metric differences outside the whitelist — must be empty to pass.
    pub fn unexpected_deltas(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| !d.whitelisted)
    }

    /// Identical answers and no off-whitelist metric drift.
    pub fn pass(&self) -> bool {
        self.mismatched_answers == 0 && self.unexpected_deltas().count() == 0
    }

    fn to_json(&self) -> String {
        let whitelist = self
            .whitelist
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(",");
        let deltas = self
            .deltas
            .iter()
            .map(MetricDelta::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"queries\":{},\"mismatched_answers\":{},\"stats_equal\":{},\"cache_equal\":{},\"socket_timeouts\":{},\"whitelist\":[{}],\"deltas\":[{}],\"pass\":{}}}",
            self.queries,
            self.mismatched_answers,
            self.stats_equal,
            self.cache_equal,
            self.socket_timeouts,
            whitelist,
            deltas,
            self.pass()
        )
    }
}

/// The full harness output: every matrix cell plus the optional
/// differential section (absent when the environment offers no loopback
/// sockets and the caller tolerates that).
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Oracle-vs-ground-truth matrix cells.
    pub cells: Vec<CellResult>,
    /// Engine-vs-dnsd differential outcome, when sockets were available.
    pub differential: Option<DifferentialReport>,
    /// Human-readable notes (e.g. why the differential section is absent).
    pub notes: Vec<String>,
}

impl ConformanceReport {
    /// True when every cell and the differential (if present) passed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(CellResult::pass)
            && self.differential.as_ref().map(|d| d.pass()).unwrap_or(true)
    }

    /// Failing cell identifiers, for error messages.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cells
            .iter()
            .filter(|c| !c.pass())
            .map(|c| {
                format!(
                    "{}/{}: expected {}, observed {}",
                    c.section, c.cell, c.expected, c.observed
                )
            })
            .collect();
        if let Some(d) = &self.differential {
            if !d.pass() {
                out.push(format!(
                    "differential: {} mismatched answers, {} unexpected metric deltas",
                    d.mismatched_answers,
                    d.unexpected_deltas().count()
                ));
            }
        }
        out
    }

    /// Renders the whole report as a JSON document.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(CellResult::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let differential = match &self.differential {
            Some(d) => d.to_json(),
            None => "null".to_string(),
        };
        let notes = self
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"cells\":[{}],\"differential\":{},\"notes\":[{}],\"passed\":{}}}",
            cells,
            differential,
            notes,
            self.passed()
        )
    }
}

/// `s` as a quoted JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", obs::json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(pass: bool) -> CellResult {
        CellResult {
            section: "6.1-probing",
            cell: "always".into(),
            config: "rfc_compliant".into(),
            scenario: "honors-scope".into(),
            expected: "Always".into(),
            observed: if pass { "Always" } else { "Mixed" }.into(),
        }
    }

    #[test]
    fn report_pass_aggregates_cells_and_differential() {
        let mut r = ConformanceReport {
            cells: vec![cell(true)],
            differential: None,
            notes: vec![],
        };
        assert!(r.passed());
        r.cells.push(cell(false));
        assert!(!r.passed());
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn differential_pass_requires_empty_unexpected() {
        let mut d = DifferentialReport {
            queries: 10,
            mismatched_answers: 0,
            stats_equal: true,
            cache_equal: true,
            socket_timeouts: 0,
            whitelist: vec!["resolver_retries_total"],
            deltas: vec![MetricDelta {
                series: "resolver_retries_total".into(),
                engine: "0".into(),
                socket: "2".into(),
                whitelisted: true,
            }],
        };
        assert!(d.pass());
        d.deltas.push(MetricDelta {
            series: "resolver_client_queries_total".into(),
            engine: "10".into(),
            socket: "9".into(),
            whitelisted: false,
        });
        assert!(!d.pass());
        assert_eq!(d.unexpected_deltas().count(), 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = ConformanceReport {
            cells: vec![cell(true)],
            differential: Some(DifferentialReport {
                queries: 1,
                mismatched_answers: 0,
                stats_equal: true,
                cache_equal: true,
                socket_timeouts: 0,
                whitelist: vec![],
                deltas: vec![],
            }),
            notes: vec!["a \"quoted\" note".into()],
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"passed\":true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
