//! Diagnostic types and output formatting (text + machine-readable JSON).

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule name, e.g. `panic-free-hot-path`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// `file:line rule message` — the text diagnostic format.
    pub fn render(&self) -> String {
        format!("{}:{} [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Aggregate result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of would-be violations suppressed by `ringlint: allow(..)`.
    pub allowed: usize,
}

impl Report {
    /// Sorts violations into the stable reporting order.
    pub fn finish(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Per-rule violation counts in rule-declaration order, followed by
    /// the `stale-allow` hygiene count.
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        crate::rules::ALL_RULES
            .iter()
            .copied()
            .chain(std::iter::once(crate::rules::RULE_STALE))
            .map(|r| (r, self.violations.iter().filter(|v| v.rule == r).count()))
            .collect()
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "ringlint: {} file(s) scanned, {} violation(s), {} allowed\n",
            self.files_scanned,
            self.violations.len(),
            self.allowed
        ));
        out
    }

    /// Machine-readable JSON report (hand-rolled; no serde offline).
    ///
    /// Schema history: v3 removed the three dataflow rules
    /// (`buffer-loan`, `lock-across-submit`, `swallowed-ring-error`) from
    /// `counts`; v2 renamed `version` to `schema_version`, added them and
    /// `stale-allow`; v1 covered the five token rules only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"schema_version\":3,");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"allowed\":{},", self.allowed));
        out.push_str("\"counts\":{");
        let counts = self.counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{rule}\":{n}"));
        }
        out.push_str("},\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                json_escape(v.rule),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            files_scanned: 2,
            violations: vec![Violation {
                rule: "unsafe-audit",
                file: "crates/io/src/ring.rs".into(),
                line: 10,
                message: "m".into(),
            }],
            allowed: 1,
        };
        r.finish();
        let j = r.to_json();
        assert!(j.starts_with("{\"schema_version\":3,"));
        assert!(j.contains("\"files_scanned\":2"));
        assert!(j.contains("\"allowed\":1"));
        assert!(j.contains("\"unsafe-audit\":1"));
        assert!(j.contains("\"line\":10"));
        // v3 counts: the six rules and exemption hygiene, nothing else.
        assert!(j.contains("\"stale-allow\":0"), "{j}");
        for gone in ["buffer-loan", "lock-across-submit", "swallowed-ring-error"] {
            assert!(!j.contains(gone), "{gone} in {j}");
        }
    }

    #[test]
    fn violations_sorted() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "b-rule",
            file: "b.rs".into(),
            line: 2,
            message: String::new(),
        });
        r.violations.push(Violation {
            rule: "a-rule",
            file: "a.rs".into(),
            line: 9,
            message: String::new(),
        });
        r.finish();
        assert_eq!(r.violations[0].file, "a.rs");
    }
}
