//! Human diagnostics and the machine-readable reports:
//! `lint_report.json` (schema v3, with call-graph ambiguities) and an
//! optional SARIF 2.1.0 rendering for code-scanning UIs.
//!
//! JSON is emitted by hand (escaping per RFC 8259) — the linter lints
//! the serializers, so it cannot depend on them. Both renderings are
//! byte-deterministic: findings arrive pre-sorted and every map is
//! iterated in a fixed order.

use crate::rules::RULES;
use crate::LintRun;

/// Schema stamp for both report formats. v2 added `schema_version`
/// itself, the `ambiguities` section, and rules R5–R8; v3 has two
/// statuses, `failing` and `waived`.
pub const SCHEMA_VERSION: u32 = 3;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// The full JSON report: rule catalogue, every finding (with its
/// status), unresolved call-graph ambiguities, and the summary the CI
/// gate reads.
pub fn render_json(run: &LintRun) -> String {
    let (findings, ambiguities) = (&run.findings, &run.ambiguities);
    let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"rules\": {{\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": \"{}\"{}\n",
            id,
            json_escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"status\": \"{}\", \"message\": \"{}\"}}{}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            if f.waived { "waived" } else { "failing" },
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"ambiguities\": [\n");
    for (i, a) in ambiguities.iter().enumerate() {
        let cands: Vec<String> =
            a.candidates.iter().map(|c| format!("\"{}\"", json_escape(c))).collect();
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"call\": \"{}\", \"candidates\": [{}]}}{}\n",
            json_escape(&a.file),
            a.line,
            json_escape(&a.path),
            cands.join(", "),
            if i + 1 < ambiguities.len() { "," } else { "" }
        ));
    }
    let failing = run.failing().count();
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"total\": {}, \"failing\": {}, \"waived\": {}, \"ambiguities\": {}, \"files_scanned\": {}}}\n}}\n",
        findings.len(),
        failing,
        findings.len() - failing,
        ambiguities.len(),
        run.files_scanned
    ));
    out
}

/// Minimal SARIF 2.1.0: one run, the rule catalogue as
/// `tool.driver.rules`, one result per finding. Levels: `error` for
/// a failing finding, `note` for a waived one.
pub fn render_sarif(run: &LintRun) -> String {
    let findings = &run.findings;
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
    );
    out.push_str(&format!(
        "  \"properties\": {{\"schema_version\": {SCHEMA_VERSION}}},\n  \"runs\": [\n    {{\n      \"tool\": {{\n        \"driver\": {{\n          \"name\": \"suplint\",\n          \"rules\": [\n"
    ));
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            id,
            json_escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let level = if f.waived { "note" } else { "error" };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            f.rule,
            level,
            json_escape(&f.message),
            json_escape(&f.file),
            f.line.max(1),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Compiler-style human diagnostics, failing findings first. The
/// `{file}:{line}: [{rule}] {message}` shape is load-bearing: CI's
/// GitHub problem matcher parses it for inline annotations.
pub fn render_human(run: &LintRun) -> String {
    let mut out = String::new();
    for f in run.failing() {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message));
    }
    for f in run.findings.iter().filter(|f| f.waived) {
        out.push_str(&format!("{}:{}: [{}] waived: {}\n", f.file, f.line, f.rule, f.message));
    }
    let failing = run.failing().count();
    out.push_str(&format!(
        "suplint: {} finding(s) — {} failing, {} waived — across {} files\n",
        run.findings.len(),
        failing,
        run.findings.len() - failing,
        run.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Ambiguity;
    use crate::rules::Finding;

    fn sample() -> LintRun {
        let findings = vec![Finding {
            rule: "R1",
            file: "a \"b\"\\c.rs".into(),
            line: 3,
            message: "tab\there".into(),
            waived: false,
        }];
        let ambiguities = vec![Ambiguity {
            file: "x.rs".into(),
            line: 9,
            path: "frob".into(),
            candidates: vec!["a::A::frob".into(), "b::B::frob".into()],
        }];
        LintRun { findings, files_scanned: 1, ambiguities }
    }

    #[test]
    fn json_escapes_and_balances() {
        let json = render_json(&sample());
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("a \\\"b\\\"\\\\c.rs"));
        assert!(json.contains("tab\\there"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"status\": \"failing\""));
        assert!(json.contains("\"failing\": 1, \"waived\": 0"));
        assert!(json.contains("\"ambiguities\": 1"));
        assert!(json.contains("\"call\": \"frob\""));
    }

    #[test]
    fn sarif_levels_follow_status() {
        let mut run = sample();
        run.findings.push(Finding {
            rule: "R7",
            file: "w.rs".into(),
            line: 5,
            message: "waived one".into(),
            waived: true,
        });
        let sarif = render_sarif(&run);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"schema_version\": 3"));
        assert_eq!(sarif.matches("\"level\": \"error\"").count(), 1);
        assert_eq!(sarif.matches("\"level\": \"note\"").count(), 1);
        assert!(!sarif.contains("\"level\": \"warning\""));
        assert_eq!(sarif.matches('{').count(), sarif.matches('}').count());
        // Every rule in the catalogue is declared.
        for (id, _) in RULES {
            assert!(sarif.contains(&format!("{{\"id\": \"{id}\"")), "{id}");
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let run = sample();
        assert_eq!(render_json(&run), render_json(&run));
        assert_eq!(render_sarif(&run), render_sarif(&run));
    }
}
