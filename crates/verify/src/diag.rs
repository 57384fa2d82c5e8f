//! The shared diagnostics core: one [`Diagnostic`] type emitted by both the
//! mapping verifier (`FV0xx` rules) and the frontend semantic pass (`FS0xx`
//! rules), with text and machine-readable (`--diag-json`) rendering.

use fpfa_frontend::Span;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// A lint: suspicious but legal; never fails a run.
    Warn,
    /// A violation of a hard constraint; fails `--verify` runs.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => f.write_str("warning"),
            Severity::Deny => f.write_str("error"),
        }
    }
}

/// One finding of a verification or lint rule.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (`FV003`, `FS001`, ...).
    pub rule: &'static str,
    /// Deny (error) or warn.
    pub severity: Severity,
    /// Source position, for frontend diagnostics.
    pub span: Option<Span>,
    /// Structural position, for mapping diagnostics (`"tile 1, level 3"`,
    /// `"cycle 12, pp2"`, ...).
    pub location: Option<String>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// A deny-level diagnostic.
    pub fn deny(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Deny,
            span: None,
            location: None,
            message: message.into(),
        }
    }

    /// A warn-level diagnostic.
    pub fn warn(rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warn,
            span: None,
            location: None,
            message: message.into(),
        }
    }

    /// Attaches a source span (frontend rules).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attaches a structural location (mapping rules).
    pub fn with_location(mut self, location: impl Into<String>) -> Self {
        self.location = Some(location.into());
        self
    }

    /// One JSON object: `{"rule":..,"severity":..,"line":..,"column":..,
    /// "location":..,"message":..}` (span/location keys present only when
    /// set).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"rule\":\"{}\"", json_escape(self.rule)));
        out.push_str(&format!(
            ",\"severity\":\"{}\"",
            match self.severity {
                Severity::Warn => "warn",
                Severity::Deny => "deny",
            }
        ));
        if let Some(span) = self.span {
            out.push_str(&format!(
                ",\"line\":{},\"column\":{}",
                span.line, span.column
            ));
        }
        if let Some(location) = &self.location {
            out.push_str(&format!(",\"location\":\"{}\"", json_escape(location)));
        }
        out.push_str(&format!(",\"message\":\"{}\"", json_escape(&self.message)));
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    /// `kernel.c:12:7: error[FS003]: ...` for spanned diagnostics (the file
    /// prefix is the caller's job), `error[FV003]: ... (tile 1, level 3)`
    /// for structural ones.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(f, "{span}: ")?;
        }
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if let Some(location) = &self.location {
            write!(f, " ({location})")?;
        }
        Ok(())
    }
}

/// The outcome of one verification or lint run: every diagnostic found.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VerifyReport {
    /// The findings, in rule order of discovery.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        VerifyReport::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs every finding of another report.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when nothing deny-level was found (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// `true` when some finding carries the given rule id.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// The diagnostics carrying the given rule id.
    pub fn of_rule(&self, rule: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// A JSON array of every finding (the `--diag-json` payload body).
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for diagnostic in &self.diagnostics {
            writeln!(f, "{diagnostic}")?;
        }
        Ok(())
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Documentation of one rule, for `--help`-style listings and the README
/// table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RuleInfo {
    /// Stable rule identifier.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary of what the rule checks.
    pub summary: &'static str,
}

/// Every rule the crate implements, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "FV001",
        severity: Severity::Deny,
        summary: "simplified CDFG is well formed (all violations collected)",
    },
    RuleInfo {
        id: "FV002",
        severity: Severity::Deny,
        summary: "schedule is complete and consistent with clustering and program",
    },
    RuleInfo {
        id: "FV003",
        severity: Severity::Deny,
        summary: "every same-tile dependence edge is level-separated",
    },
    RuleInfo {
        id: "FV004",
        severity: Severity::Deny,
        summary: "at most num_pps data-paths per tile per level",
    },
    RuleInfo {
        id: "FV005",
        severity: Severity::Deny,
        summary: "cross-tile dependences separated by 1 + hop latency levels",
    },
    RuleInfo {
        id: "FV006",
        severity: Severity::Deny,
        summary: "every memory read sees a value stored (or preloaded) earlier",
    },
    RuleInfo {
        id: "FV007",
        severity: Severity::Deny,
        summary: "register moves precede use and operands match the dataflow",
    },
    RuleInfo {
        id: "FV008",
        severity: Severity::Deny,
        summary: "per-cycle memory/crossbar/register-port and capacity limits hold",
    },
    RuleInfo {
        id: "FV009",
        severity: Severity::Deny,
        summary: "each cut edge has exactly one transfer, correctly timed",
    },
    RuleInfo {
        id: "FV010",
        severity: Severity::Deny,
        summary: "per-cycle inter-tile link budget is respected",
    },
    RuleInfo {
        id: "FV011",
        severity: Severity::Deny,
        summary: "traffic report and energy totals equal the accounted events",
    },
    RuleInfo {
        id: "FV012",
        severity: Severity::Deny,
        summary: "statespace reads are homed and preloaded consistently",
    },
    RuleInfo {
        id: "FV013",
        severity: Severity::Deny,
        summary: "result fingerprint matches the requesting configuration",
    },
    RuleInfo {
        id: "FV014",
        severity: Severity::Deny,
        summary: "headline report equals values recomputed from the program",
    },
    RuleInfo {
        id: "FS001",
        severity: Severity::Warn,
        summary: "scalar declaration is never read",
    },
    RuleInfo {
        id: "FS002",
        severity: Severity::Warn,
        summary: "array declaration is never accessed",
    },
    RuleInfo {
        id: "FS003",
        severity: Severity::Deny,
        summary: "scalar read before assignment inside a loop",
    },
    RuleInfo {
        id: "FS004",
        severity: Severity::Warn,
        summary: "loop bound is not a compile-time constant (may not unroll)",
    },
    RuleInfo {
        id: "FS005",
        severity: Severity::Warn,
        summary: "constant arithmetic wraps the 64-bit machine word",
    },
    RuleInfo {
        id: "FS006",
        severity: Severity::Deny,
        summary: "constant array index out of bounds",
    },
];

/// Looks up a rule's documentation by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_text_and_json() {
        let d = Diagnostic::deny("FV003", "cluster c3 not level-separated")
            .with_location("tile 0, level 2");
        assert_eq!(
            d.to_string(),
            "error[FV003]: cluster c3 not level-separated (tile 0, level 2)"
        );
        let json = d.to_json();
        assert!(json.contains("\"rule\":\"FV003\""));
        assert!(json.contains("\"severity\":\"deny\""));
        assert!(json.contains("\"location\":\"tile 0, level 2\""));

        let s = Diagnostic::warn("FS001", "`x` is never read").with_span(Span::new(3, 9));
        assert_eq!(s.to_string(), "3:9: warning[FS001]: `x` is never read");
        assert!(s.to_json().contains("\"line\":3,\"column\":9"));
    }

    #[test]
    fn report_counts_and_json_array() {
        let mut report = VerifyReport::new();
        assert!(report.is_clean());
        report.push(Diagnostic::warn("FS001", "w"));
        report.push(Diagnostic::deny("FV001", "e\"quoted\""));
        assert_eq!(report.warn_count(), 1);
        assert_eq!(report.deny_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has_rule("FV001"));
        assert!(!report.has_rule("FV002"));
        let json = report.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("e\\\"quoted\\\""));
    }

    #[test]
    fn rule_table_is_sorted_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for rule in RULES {
            assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
            assert!(!rule.summary.is_empty());
        }
        assert!(rule_info("FV013").is_some());
        assert!(rule_info("FV999").is_none());
    }
}
