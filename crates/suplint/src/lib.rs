//! `suplint` — the workspace's own static-analysis pass.
//!
//! Dependency-free by design: a hand-rolled lexer ([`lexer`]), one
//! front end — the recursive-descent item-tree parser ([`syntax`]),
//! which also decides every token's module, test and loop scope — a
//! token-stream rule engine over those scopes ([`rules`]), a workspace
//! call graph with the interprocedural rules R5/R6 ([`callgraph`]) and
//! a JSON/SARIF/human reporter ([`report`]). See DESIGN.md § "Static
//! analysis & enforced invariants" for the rule catalogue and zone map.
//!
//! The pass runs in two phases: per-file analysis (waiver map, item
//! tree, token rules), then workspace-global analysis (call-graph
//! resolution, panic propagation, lock ordering) over the collected
//! item trees, and applies waivers once to every finding.
//! [`lint_sources`] runs both phases over in-memory sources;
//! [`lint_workspace`] feeds it from disk. A run fails if and only if
//! some finding is not waived.

pub mod callgraph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

use std::io;
use std::path::{Path, PathBuf};

use callgraph::{Ambiguity, CallGraph, WaiverIndex};
use rules::{Finding, SourceFile};

/// Everything one lint pass produced.
#[derive(Debug)]
pub struct LintRun {
    /// Sorted by file, line and rule; waived ones flagged.
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Call sites the graph refused to resolve (≥2 candidates). Not
    /// failures — visibility into where the taint analysis is blind.
    pub ambiguities: Vec<Ambiguity>,
}

impl LintRun {
    /// The findings no waiver covers: the run fails if there is one.
    pub fn failing(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }
}

fn is_test_dir(name: &str) -> bool {
    matches!(name, "tests" | "benches" | "examples")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Derive the [`SourceFile`] description from a repo-relative path.
/// `crates/tsdb/src/wal.rs` → modpath `["tsdb", "wal"]`; anything under
/// `tests/`, `benches/` or `examples/` is whole-file test context.
pub fn classify(rel: &str) -> SourceFile {
    let parts: Vec<&str> = rel.split('/').collect();
    // (crate key, components after the crate dir)
    let (krate, rest): (&str, &[&str]) = match parts.as_slice() {
        ["crates", k, rest @ ..] => (k, rest),
        rest => ("root", rest),
    };
    let test_context = rest.first().is_some_and(|d| is_test_dir(d));
    let mut modpath = vec![krate.to_string()];
    let components: &[&str] = match rest.first() {
        Some(&"src") => &rest[1..],
        _ => rest,
    };
    for (i, c) in components.iter().enumerate() {
        let c = if i + 1 == components.len() {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if matches!(stem, "lib" | "main" | "mod") {
                continue;
            }
            stem
        } else {
            c
        };
        modpath.push(c.to_string());
    }
    SourceFile { path: rel.to_string(), modpath, test_context }
}

/// Lint every Rust source in the workspace rooted at `root`:
/// `crates/*/{src,tests,benches,examples}` plus the root package.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        krates.sort();
        for k in krates.into_iter().filter(|k| k.is_dir()) {
            for sub in ["src", "tests", "benches", "examples"] {
                let d = k.join(sub);
                if d.is_dir() {
                    collect_rs(&d, &mut files)?;
                }
            }
        }
    }
    for sub in ["src", "tests", "benches", "examples"] {
        let d = root.join(sub);
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();

    let mut sources: Vec<(SourceFile, Vec<u8>)> = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let src = std::fs::read(&path)?;
        sources.push((classify(&rel), src));
    }
    Ok(lint_sources(&sources))
}

/// The two-phase pass over in-memory sources. Phase 1 runs the token
/// rules per file and collects each file's waiver map and item tree;
/// phase 2 builds the workspace call graph and runs R5 (panic
/// propagation, seeded only by unwaived panic sites) and R6 (lock
/// order). Then the one waiver pass: a finding is waived when a
/// justified waiver for its rule covers its line — except W0, which
/// reports a waiver that is not one. Tests feed synthetic multi-crate
/// fixtures through this.
pub fn lint_sources(sources: &[(SourceFile, Vec<u8>)]) -> LintRun {
    let mut findings = Vec::new();
    let mut waivers: WaiverIndex = WaiverIndex::new();
    let mut trees: Vec<(SourceFile, syntax::FileItems)> = Vec::new();
    for (file, src) in sources {
        let analysis = rules::analyze_file(file, src);
        findings.extend(analysis.findings);
        if !analysis.waived_lines.is_empty() {
            waivers.insert(file.path.clone(), analysis.waived_lines);
        }
        trees.push((file.clone(), analysis.items));
    }

    let graph = CallGraph::build(&trees);
    findings.extend(callgraph::panic_propagation(&graph, &waivers));
    findings.extend(callgraph::lock_order(&graph));
    for f in findings.iter_mut().filter(|f| f.rule != "W0") {
        f.waived = waivers
            .get(&f.file)
            .and_then(|m| m.get(&f.line))
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    LintRun { findings, files_scanned: sources.len(), ambiguities: graph.ambiguities }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_module_paths() {
        assert_eq!(classify("crates/tsdb/src/wal.rs").modpath, ["tsdb", "wal"]);
        assert_eq!(classify("crates/tsdb/src/lib.rs").modpath, ["tsdb"]);
        assert_eq!(classify("crates/core/src/bin/repro.rs").modpath, ["core", "bin", "repro"]);
        assert_eq!(classify("src/lib.rs").modpath, ["root"]);
        let t = classify("crates/tsdb/tests/proptests.rs");
        assert!(t.test_context);
        assert_eq!(t.modpath, ["tsdb", "tests", "proptests"]);
        assert!(!classify("crates/tsdb/src/db.rs").test_context);
    }

    #[test]
    fn lint_sources_runs_both_phases() {
        let sources = vec![
            (
                classify("crates/tsdb/src/wal.rs"),
                b"pub fn replay() { supremm_metrics::parse::field(); }".to_vec(),
            ),
            (
                classify("crates/metrics/src/parse.rs"),
                b"pub fn field() -> u8 { \"7\".parse().expect(\"digit\") }".to_vec(),
            ),
        ];
        let run = lint_sources(&sources);
        let rules: Vec<&str> = run.findings.iter().filter(|f| !f.waived).map(|f| f.rule).collect();
        // R5 fires in the zone file; the panic site itself is outside
        // every R1 zone, so no R1.
        assert_eq!(rules, vec!["R5"], "{:?}", run.findings);
        assert!(run.findings[0].message.contains("tsdb::wal::replay → metrics::parse::field"));

        // Waiving the panic site kills the taint seed.
        let waived = vec![
            sources[0].clone(),
            (
                classify("crates/metrics/src/parse.rs"),
                b"pub fn field() -> u8 { \"7\".parse().expect(\"digit\") } // suplint: allow(R5) -- literal digit always parses".to_vec(),
            ),
        ];
        let run2 = lint_sources(&waived);
        assert!(run2.findings.iter().all(|f| f.waived || f.rule != "R5"), "{:?}", run2.findings);
    }

    #[test]
    fn an_unwaived_finding_of_any_rule_fails_and_the_same_finding_waived_passes() {
        // Per rule: files whose first one's line 1 carries exactly one
        // finding of that rule.
        let cases: [(&str, Vec<(&str, &str)>); 8] = [
            ("R1", vec![("crates/tsdb/src/wal.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }")]),
            ("R2", vec![("crates/obs/src/a.rs", "fn f(m: &HashMap<u8, u8>) {}")]),
            ("R3", vec![("crates/tsdb/src/codec.rs", "fn f(a: u32, b: u32) -> u32 { a + b }")]),
            ("R4", vec![("crates/core/src/a.rs", "fn f() { let m = rx.lock().unwrap(); }")]),
            (
                "R5",
                vec![
                    (
                        "crates/tsdb/src/wal.rs",
                        "pub fn replay() { supremm_metrics::parse::field(); }",
                    ),
                    (
                        "crates/metrics/src/parse.rs",
                        "pub fn field() -> u8 { \"7\".parse().expect(\"digit\") }",
                    ),
                ],
            ),
            (
                "R6",
                vec![(
                    "crates/core/src/a.rs",
                    "fn f(rx: R, m: M) { let g = m.lock(); let x = rx.recv(); }",
                )],
            ),
            ("R7", vec![("crates/tsdb/src/db.rs", "fn f(v: &[u8]) -> Vec<u8> { v.to_vec() }")]),
            (
                "R8",
                vec![(
                    "crates/relay/src/agent.rs",
                    "fn f(o: &Obs, n: &str) { o.counter(n).inc(); }",
                )],
            ),
        ];
        for (rule, files) in cases {
            let lint = |waiver: &str| {
                let sources: Vec<(SourceFile, Vec<u8>)> = files
                    .iter()
                    .enumerate()
                    .map(|(i, (path, src))| {
                        let src = if i == 0 { format!("{src}{waiver}") } else { src.to_string() };
                        (classify(path), src.into_bytes())
                    })
                    .collect();
                lint_sources(&sources)
            };
            let run = lint("");
            let failing: Vec<(&str, u32)> = run.failing().map(|f| (f.rule, f.line)).collect();
            assert_eq!(failing, [(rule, 1)], "{rule}: {:?}", run.findings);

            let run = lint(&format!(" // suplint: allow({rule}) -- argued in review"));
            assert_eq!(run.failing().count(), 0, "{rule}: {:?}", run.findings);
            assert!(run.findings.iter().any(|f| f.rule == rule && f.waived), "{rule}");
        }

        // A waiver without a reason is W0, and no waiver covers a W0.
        let src = b"// suplint: allow(W0) -- a waiver cannot excuse a broken one\n// suplint: allow(R1)\nfn f() {}";
        let run = lint_sources(&[(classify("crates/tsdb/src/wal.rs"), src.to_vec())]);
        let failing: Vec<(&str, u32)> = run.failing().map(|f| (f.rule, f.line)).collect();
        assert_eq!(failing, [("W0", 2)]);
    }
}
