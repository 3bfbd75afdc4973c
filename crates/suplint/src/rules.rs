//! The rule engine: project invariants as named token-stream rules.
//!
//! Rules run over the lexed token stream, each token in the scope the
//! item-tree parser recorded for it ([`crate::syntax::TokScope`]: its
//! module path, whether it is test code, whether it sits in a loop
//! body). Test code — `#[cfg(test)]`/`#[test]` items and statements,
//! files and inline modules under `#![cfg(test)]`, and anything under
//! `tests/`, `benches/`, `examples/` — is exempt from every rule: a
//! test may unwrap all it likes.
//!
//! ## Rule catalogue
//!
//! - **R1 panic-freedom**: no `.unwrap()`, `.expect()`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!` inside designated
//!   fallible zones (decode/recovery/serving paths that must survive
//!   corrupt bytes). `unwrap_or*` variants are fine — they are the
//!   cure, not the disease.
//! - **R2 determinism**: no `HashMap`/`HashSet` in modules that
//!   produce serialized output, reports or dataset artifacts — use
//!   `BTreeMap`/`BTreeSet` or sort explicitly. Any mention counts
//!   (imports included): a type that cannot appear cannot be iterated.
//! - **R3 codec arithmetic**: bare binary `+ - * <<` in `tsdb::codec`
//!   must be `wrapping_*`/`checked_*` — the bit-exact round-trip
//!   guarantee. Operations with an integer-literal operand are exempt
//!   (bounded by construction: `7 - self.used`, `len * 2 + 16`).
//! - **R4 lock hygiene** (workspace-wide): no `.lock().unwrap()` /
//!   `.lock().expect()` — a poisoned mutex must be recovered, not
//!   amplified into an abort — and no lock guard held across a
//!   blocking `recv()`/IO call in the same expression chain.
//! - **R7 hot-path allocation discipline**: `.to_vec()`, `.clone()`,
//!   `format!` and `String::from` in the tsdb query/codec and relay
//!   wire-decode zones must carry a waiver naming why the copy is
//!   unavoidable — the query path's latency budget is an allocation
//!   budget.
//! - **R8 obs metric hygiene** (everywhere outside `obs` itself):
//!   metric names passed to `.counter()`/`.gauge()`/`.histogram()`
//!   must be string literals (or `concat!` of literals) matching the
//!   `name{k="v",…}` grammar, and must not be registered inside loop
//!   bodies — registration takes the family write lock.
//!
//! Two rules are *interprocedural* and live in [`crate::callgraph`],
//! fed by the item trees this module extracts per file:
//!
//! - **R5 panic propagation**: a function in an R1 zone must not be
//!   able to *reach* a panic-capable token through any workspace call
//!   chain (fixed-point taint over the call graph, diagnostics carry
//!   the chain).
//! - **R6 lock-order consistency**: the global lock-acquisition order
//!   graph (built from guard scopes and calls made while guards are
//!   held) must be acyclic; a cycle is a potential deadlock. Named
//!   guards held across blocking calls are R6 too (R4 only sees
//!   single-expression chains).
//!
//! Waiver syntax: `// suplint: allow(R1) -- <justification>` on the
//! offending line or the line directly above. The justification is
//! mandatory; a waiver without one is itself a finding (**W0**), which
//! no waiver covers. A run fails if and only if some finding is not
//! waived. An `allow(R1)` on a panic site also removes it as an R5
//! taint seed: the justification asserts the panic cannot fire, so
//! there is nothing to propagate.

use std::collections::BTreeMap;

use crate::lexer::{lex, TokKind, Token};
use crate::syntax::{is_ident, is_punct, panic_site, BLOCKING_CALLS};

/// Fallible zones (module-path prefixes): decode, WAL replay, segment
/// open/seal, raw-format scanners, HTTP handlers, store bridges, and
/// the whole remote-write relay (wire decode, spool recovery, agent
/// retry loop, ingest server).
pub const R1_ZONES: &[&str] = &[
    "tsdb",
    "taccstats::format",
    "xdmod::serve",
    "warehouse::tsdbio",
    "warehouse::jobcodec",
    "relay",
];

/// Serialized-output zones: job records, system series, reports,
/// experiment artifacts — everything whose bytes land in a file,
/// response or golden test.
pub const R2_ZONES: &[&str] = &[
    "warehouse::streaming",
    "warehouse::ingest",
    "warehouse::timeseries",
    "warehouse::tsdbio",
    "core::experiments",
    "xdmod",
    "metrics::json",
    "tsdb::db",
    "tsdb::segment",
    "tsdb::retention",
    "obs",
    "relay",
];

/// Bit-exact codec arithmetic.
pub const R3_ZONES: &[&str] = &["tsdb::codec"];

/// Allocation-budget zones: the tsdb query/codec hot path and the relay
/// wire decoder. Every heap copy here must be argued for.
pub const R7_ZONES: &[&str] =
    &["tsdb::codec", "tsdb::db", "tsdb::segment", "tsdb::retention", "relay::wire"];

/// Rule catalogue for reports.
pub const RULES: &[(&str, &str)] = &[
    ("R1", "panic-freedom: no unwrap/expect/panic!/unreachable!/todo! in fallible zones"),
    ("R2", "determinism: no HashMap/HashSet in serialized-output zones (use BTreeMap or sort)"),
    ("R3", "codec arithmetic: bare + - * << in tsdb::codec must be wrapping_*/checked_*"),
    ("R4", "lock hygiene: no .lock().unwrap()/.expect(); no guard held across blocking calls"),
    ("R5", "panic propagation: no call chain from an R1-zone fn to a panic-capable token"),
    ("R6", "lock order: global acquisition-order graph must be acyclic; no guard across blocking calls"),
    ("R7", "hot-path allocation: to_vec/clone/format!/String::from in query/codec/wire zones need a waiver"),
    ("R8", "metric hygiene: literal prom-grammar metric names; no registration in loop bodies"),
    ("W0", "waivers: every `suplint: allow` must parse and carry a non-empty justification"),
];

/// Keywords that cannot end an expression — a `+ - * <<` right after
/// one is unary/irrelevant, not binary arithmetic.
const NONEXPR_KEYWORDS: &[&[u8]] = &[
    b"return",
    b"if",
    b"else",
    b"match",
    b"in",
    b"break",
    b"continue",
    b"while",
    b"loop",
    b"let",
    b"mut",
    b"ref",
    b"move",
    b"where",
    b"use",
    b"pub",
    b"fn",
    b"impl",
    b"for",
    b"struct",
    b"enum",
    b"mod",
    b"const",
    b"static",
    b"type",
    b"trait",
    b"unsafe",
    b"dyn",
    b"as",
    b"yield",
];

/// One source file as the engine sees it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (diagnostics, waiver index).
    pub path: String,
    /// Module path: crate directory name, then modules from the file
    /// path (`crates/tsdb/src/wal.rs` → `["tsdb", "wal"]`).
    pub modpath: Vec<String>,
    /// Whole file is test context (`tests/`, `benches/`, `examples/`).
    pub test_context: bool,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Suppressed by a justified waiver (reported, never failing).
    pub waived: bool,
}

/// Does a module path fall under any of the zone prefixes?
pub fn in_zone(mods: &[String], zones: &[&str]) -> bool {
    zones.iter().any(|z| {
        let parts: Vec<&str> = z.split("::").collect();
        parts.len() <= mods.len() && parts.iter().zip(mods.iter()).all(|(a, b)| a == b)
    })
}

fn newlines(text: &[u8]) -> u32 {
    text.iter().filter(|&&c| c == b'\n').count() as u32
}

fn lossy(text: &[u8]) -> String {
    String::from_utf8_lossy(text).into_owned()
}

// --- waivers ---------------------------------------------------------------

enum WaiverParse {
    NotAWaiver,
    Ok(Vec<String>),
    Bad(&'static str),
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len().max(1)).position(|w| w == needle)
}

fn parse_waiver(comment: &[u8]) -> WaiverParse {
    let Some(at) = find_sub(comment, b"suplint:") else { return WaiverParse::NotAWaiver };
    let mut rest = &comment[at + b"suplint:".len()..];
    // Block comments carry their closing delimiter in the token text.
    if rest.ends_with(b"*/") {
        rest = &rest[..rest.len() - 2];
    }
    let rest = lossy(rest);
    let rest = rest.trim();
    let Some(args) = rest.strip_prefix("allow") else {
        return WaiverParse::Bad(
            "malformed waiver: expected `suplint: allow(<rules>) -- <reason>`",
        );
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        return WaiverParse::Bad(
            "malformed waiver: expected `suplint: allow(<rules>) -- <reason>`",
        );
    };
    let Some(close) = args.find(')') else {
        return WaiverParse::Bad("malformed waiver: unclosed rule list");
    };
    let rules: Vec<String> =
        args[..close].split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if rules.is_empty() {
        return WaiverParse::Bad("malformed waiver: empty rule list");
    }
    let tail = args[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        return WaiverParse::Bad("waiver missing justification: append `-- <reason>`");
    };
    if reason.trim().is_empty() {
        return WaiverParse::Bad("waiver missing justification: append `-- <reason>`");
    }
    WaiverParse::Ok(rules)
}

/// line → rules a justified waiver covers on that line.
pub type WaiverLines = BTreeMap<u32, Vec<String>>;

/// The file's waiver map, plus W0 findings for malformed/unjustified
/// waivers.
fn collect_waivers(toks: &[Token<'_>]) -> (WaiverLines, Vec<(u32, &'static str)>) {
    let mut covered = WaiverLines::new();
    let mut bad: Vec<(u32, &'static str)> = Vec::new();
    let mut last_code_line = 0u32;
    for t in toks {
        if !t.is_comment() {
            last_code_line = t.line + newlines(t.text);
            continue;
        }
        let end_line = t.line + newlines(t.text);
        match parse_waiver(t.text) {
            WaiverParse::NotAWaiver => {}
            WaiverParse::Bad(msg) => bad.push((t.line, msg)),
            WaiverParse::Ok(rules) => {
                // Trailing a statement: covers its own line. Standing
                // alone: covers the line directly below.
                let target = if last_code_line == t.line { t.line } else { end_line + 1 };
                covered.entry(target).or_default().extend(rules);
            }
        }
    }
    (covered, bad)
}

// --- per file ----------------------------------------------------------------

/// Everything the engine extracts from one file: token-rule findings
/// (waivers not yet applied — [`crate::lint_sources`] does that once,
/// for every rule), the justified-waiver line map, and the item tree
/// (consumed by the call graph).
#[derive(Debug)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub waived_lines: WaiverLines,
    pub items: crate::syntax::FileItems,
}

/// Lint one file on its own, every rule included. Returns all
/// findings, waived ones flagged.
pub fn lint_file(file: &SourceFile, src: &[u8]) -> Vec<Finding> {
    crate::lint_sources(&[(file.clone(), src.to_vec())]).findings
}

/// One file through the front end: lex, collect waivers, parse the item
/// tree with every token's scope, and run the token rules over the
/// tokens that are not test code.
pub fn analyze_file(file: &SourceFile, src: &[u8]) -> FileAnalysis {
    let toks = lex(src);
    let (waived_lines, bad_waivers) = collect_waivers(&toks);
    let sig: Vec<Token<'_>> = toks.iter().copied().filter(|t| !t.is_comment()).collect();
    let items = crate::syntax::parse(&sig);

    let mut findings: Vec<Finding> = Vec::new();
    if !file.test_context {
        let modules: Vec<Vec<String>> =
            items.modules.iter().map(|m| [file.modpath.as_slice(), m].concat()).collect();
        for (i, scope) in items.scopes.iter().enumerate().filter(|(_, s)| !s.test) {
            check_rules(&sig, i, &modules[scope.module], &file.path, scope.in_loop, &mut findings);
        }
    }
    for (line, msg) in bad_waivers {
        findings.push(Finding {
            rule: "W0",
            file: file.path.clone(),
            line,
            message: msg.to_string(),
            waived: false,
        });
    }
    FileAnalysis { findings, waived_lines, items }
}

fn check_rules(
    sig: &[Token<'_>],
    i: usize,
    mods: &[String],
    path: &str,
    in_loop: bool,
    out: &mut Vec<Finding>,
) {
    let t = sig[i];
    let prev = i.checked_sub(1).and_then(|p| sig.get(p));
    let next = sig.get(i + 1);
    let push = |out: &mut Vec<Finding>, rule: &'static str, message: String| {
        out.push(Finding { rule, file: path.to_string(), line: t.line, message, waived: false });
    };

    // R1: panic-freedom in fallible zones.
    if in_zone(mods, R1_ZONES) {
        if let Some(what) = panic_site(sig, i) {
            let cure = if what.ends_with('!') {
                "return an error instead of aborting"
            } else {
                "propagate with `?` or handle the failure"
            };
            push(out, "R1", format!("{what} in a fallible zone — {cure}"));
        }
    }

    // R2: determinism in serialized-output zones.
    if in_zone(mods, R2_ZONES)
        && t.kind == TokKind::Ident
        && (t.text == b"HashMap" || t.text == b"HashSet")
    {
        push(
            out,
            "R2",
            format!(
                "{} in a serialized-output zone — use BTreeMap/BTreeSet or an explicit sort",
                lossy(t.text)
            ),
        );
    }

    // R3: codec arithmetic.
    if in_zone(mods, R3_ZONES)
        && t.kind == TokKind::Punct
        && matches!(t.text, b"+" | b"-" | b"*" | b"<<")
        && prev.is_some_and(is_expression_end)
        && !literal_operand(prev, sig, i)
    {
        push(out, "R3", format!("bare `{}` in the codec — use wrapping_*/checked_* (integer-literal operands are exempt)", lossy(t.text)));
    }

    // R7: allocation discipline in the query/codec/wire hot paths.
    // Allocations that only feed error construction are exempt: a
    // failure path is cold by definition, and corruption messages are
    // where the detail belongs.
    if in_zone(mods, R7_ZONES) && !in_error_context(sig, i) {
        if t.kind == TokKind::Ident
            && (t.text == b"to_vec" || t.text == b"clone")
            && prev.is_some_and(|p| is_punct(p, b"."))
            && next.is_some_and(|n| is_punct(n, b"("))
        {
            push(out, "R7", format!(".{}() in a hot path — borrow, reuse a buffer, or waive with the reason the copy is unavoidable", lossy(t.text)));
        }
        if is_ident(&t, b"format") && next.is_some_and(|n| is_punct(n, b"!")) {
            push(
                out,
                "R7",
                "format! in a hot path — preallocate or push_str, or waive with a reason"
                    .to_string(),
            );
        }
        if is_ident(&t, b"String")
            && next.is_some_and(|n| is_punct(n, b"::"))
            && sig.get(i + 2).is_some_and(|n| is_ident(n, b"from"))
            && sig.get(i + 3).is_some_and(|n| is_punct(n, b"("))
        {
            push(
                out,
                "R7",
                "String::from in a hot path — borrow &str or waive with a reason".to_string(),
            );
        }
    }

    // R8: metric hygiene everywhere outside the obs crate itself.
    if mods.first().map(String::as_str) != Some("obs")
        && t.kind == TokKind::Ident
        && matches!(t.text, b"counter" | b"gauge" | b"histogram")
        && prev.is_some_and(|p| is_punct(p, b"."))
        && next.is_some_and(|n| is_punct(n, b"("))
    {
        let what = lossy(t.text);
        match sig.get(i + 2) {
            Some(arg) if arg.kind == TokKind::Str => {
                match str_literal_value(arg.text) {
                    Some(name) if metric_name_ok(&name) => {}
                    Some(name) => push(
                        out,
                        "R8",
                        format!("metric name {name:?} violates the `name{{k=\"v\",…}}` grammar"),
                    ),
                    None => push(out, "R8", format!("unparseable metric-name literal passed to .{what}()")),
                }
            }
            Some(arg) if is_ident(arg, b"concat") && sig.get(i + 3).is_some_and(|n| is_punct(n, b"!")) => {
                // concat!("a", "b") is static — grammar checked at the
                // rendered name by obs's own tests.
            }
            Some(_) => push(
                out,
                "R8",
                format!("non-literal metric name passed to .{what}() — names must be string literals or concat!-static"),
            ),
            None => {}
        }
        if in_loop {
            push(out, "R8", format!(".{what}() inside a loop body — register once outside the loop and reuse the handle"));
        }
    }

    // R4: lock hygiene, everywhere.
    if is_ident(&t, b"lock")
        && prev.is_some_and(|p| is_punct(p, b"."))
        && next.is_some_and(|n| is_punct(n, b"("))
        && sig.get(i + 2).is_some_and(|n| is_punct(n, b")"))
    {
        if sig.get(i + 3).is_some_and(|n| is_punct(n, b"."))
            && sig.get(i + 4).is_some_and(|n| n.text == b"unwrap" || n.text == b"expect")
        {
            push(out, "R4", format!(".lock().{}() — recover the poisoned guard (PoisonError::into_inner) or restructure", lossy(sig[i + 4].text)));
        }
        // A blocking call later in the same expression chain holds the
        // guard across it (named-guard flows are out of scope).
        let mut j = i + 3;
        let limit = (i + 256).min(sig.len());
        while j < limit {
            let a = sig[j];
            if is_punct(&a, b";") || is_punct(&a, b"{") || is_punct(&a, b"}") {
                break;
            }
            if is_punct(&a, b".")
                && sig
                    .get(j + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && BLOCKING_CALLS.contains(&n.text))
                && sig.get(j + 2).is_some_and(|n| is_punct(n, b"("))
            {
                push(
                    out,
                    "R4",
                    format!(
                        "lock guard held across blocking .{}() — receive/IO first, lock second",
                        lossy(sig[j + 1].text)
                    ),
                );
                break;
            }
            j += 1;
        }
    }
}

/// Error-construction markers for the R7 exemption: an allocation whose
/// enclosing expression is building an error value runs only on the
/// failure path.
const ERROR_CTX: &[&[u8]] =
    &[b"Err", b"map_err", b"ok_or", b"ok_or_else", b"or_else", b"expect_err"];

/// Is the token at `i` inside error construction? Scans backward within
/// the current statement (stopping at `;`/`{`/`}` and at `?` — after a
/// `?` the expression is back on the success path) for an
/// error-adapter/constructor ident, including anything named `*error*`
/// or `*corrupt*`.
fn in_error_context(sig: &[Token<'_>], i: usize) -> bool {
    let mut j = i;
    let mut steps = 0usize;
    while j > 0 && steps < 64 {
        j -= 1;
        steps += 1;
        let t = &sig[j];
        if t.kind == TokKind::Punct && t.text == b"{" {
            // A `{` opened by a closure (`|| {` / `|e| {`) is still the
            // same expression — keep scanning into the caller, e.g.
            // `.map_err(|e| { bad(format!(..)) })`.
            let closure = j
                .checked_sub(1)
                .map(|p| &sig[p])
                .is_some_and(|p| p.kind == TokKind::Punct && matches!(p.text, b"|" | b"||"));
            if !closure {
                return false;
            }
            continue;
        }
        if t.kind == TokKind::Punct && matches!(t.text, b";" | b"}" | b"?") {
            return false;
        }
        if t.kind == TokKind::Ident {
            if ERROR_CTX.contains(&t.text) {
                return true;
            }
            let lower = t.text.to_ascii_lowercase();
            if lower.windows(5).any(|w| w == b"error") || lower.windows(7).any(|w| w == b"corrupt")
            {
                return true;
            }
        }
    }
    false
}

/// Decode a Rust string-literal token (`"…"`, `r"…"`, `r#"…"#`) to its
/// value. Returns `None` for literals the linter cannot decode (exotic
/// escapes) — those get flagged rather than guessed at.
fn str_literal_value(text: &[u8]) -> Option<String> {
    if text.first() == Some(&b'r') {
        let mut j = 1;
        let mut hashes = 0usize;
        while text.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if text.get(j) != Some(&b'"') {
            return None;
        }
        let start = j + 1;
        let end = text.len().checked_sub(1 + hashes)?;
        if end < start {
            return None;
        }
        return Some(lossy(&text[start..end]));
    }
    if text.len() < 2 || text[0] != b'"' || text[text.len() - 1] != b'"' {
        return None;
    }
    let inner = &text[1..text.len() - 1];
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < inner.len() {
        if inner[i] == b'\\' {
            let c = *inner.get(i + 1)?;
            out.push(match c {
                b'"' => b'"',
                b'\\' => b'\\',
                b'n' => b'\n',
                b't' => b'\t',
                b'r' => b'\r',
                b'0' => 0,
                _ => return None,
            });
            i += 2;
        } else {
            out.push(inner[i]);
            i += 1;
        }
    }
    Some(lossy(&out))
}

/// Prometheus-style metric-name grammar: `base` or `base{k="v",k2="v2"}`
/// where `base` is `[a-zA-Z_:][a-zA-Z0-9_:]*` and keys are
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
fn metric_name_ok(s: &str) -> bool {
    let b = s.as_bytes();
    let base_char = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b':';
    let mut i = 0usize;
    while i < b.len() && base_char(b[i]) {
        i += 1;
    }
    if i == 0 || b[0].is_ascii_digit() {
        return false;
    }
    if i == b.len() {
        return true;
    }
    if b[i] != b'{' {
        return false;
    }
    i += 1;
    loop {
        let ks = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i == ks || b[ks].is_ascii_digit() {
            return false;
        }
        if b.get(i) != Some(&b'=') || b.get(i + 1) != Some(&b'"') {
            return false;
        }
        i += 2;
        while i < b.len() && b[i] != b'"' {
            if b[i] == b'\\' {
                i += 1;
            }
            i += 1;
        }
        if i >= b.len() {
            return false;
        }
        i += 1;
        if b.get(i) == Some(&b',') {
            i += 1;
            continue;
        }
        break;
    }
    b.get(i) == Some(&b'}') && i + 1 == b.len()
}

/// Could the previous token end an expression? If not, the operator is
/// unary (`-x`, `*ptr`, `&*y`) or part of a type, not arithmetic.
fn is_expression_end(p: &Token<'_>) -> bool {
    match p.kind {
        TokKind::Int | TokKind::Float => true,
        TokKind::Ident => !NONEXPR_KEYWORDS.contains(&p.text),
        TokKind::Punct => p.text == b")" || p.text == b"]" || p.text == b"?",
        _ => false,
    }
}

/// Exempt when an adjacent operand is an integer literal — bounded by
/// construction. Looks through one opening paren on the right so
/// `x << (64 - w)` counts as literal-adjacent.
fn literal_operand(prev: Option<&Token<'_>>, sig: &[Token<'_>], i: usize) -> bool {
    if prev.is_some_and(|p| p.kind == TokKind::Int) {
        return true;
    }
    match sig.get(i + 1) {
        Some(n) if n.kind == TokKind::Int => true,
        Some(n) if is_punct(n, b"(") => sig.get(i + 2).is_some_and(|n2| n2.kind == TokKind::Int),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(modpath: &[&str], src: &str) -> Vec<Finding> {
        let file = SourceFile {
            path: "test.rs".into(),
            modpath: modpath.iter().map(|s| s.to_string()).collect(),
            test_context: false,
        };
        lint_file(&file, src.as_bytes())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().filter(|f| !f.waived).map(|f| f.rule).collect()
    }

    #[test]
    fn r1_flags_unwrap_in_zone_but_not_outside() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_of(&run(&["tsdb", "wal"], src)), vec!["R1"]);
        assert!(rules_of(&run(&["clustersim", "sim"], src)).is_empty());
    }

    #[test]
    fn r1_skips_unwrap_or_and_test_modules() {
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }";
        assert!(rules_of(&run(&["tsdb", "db"], ok)).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests { fn f() { None::<u8>.unwrap(); panic!(\"x\") } }";
        assert!(rules_of(&run(&["tsdb", "db"], test_mod)).is_empty());
        let not_test = "#[cfg(not(test))]\nfn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(rules_of(&run(&["tsdb", "db"], not_test)), vec!["R1"]);
    }

    #[test]
    fn r1_flags_abort_macros() {
        let src =
            "fn f(x: u8) { match x { 0 => todo!(), 1 => unreachable!(\"no\"), _ => panic!() } }";
        assert_eq!(rules_of(&run(&["taccstats", "format"], src)), vec!["R1", "R1", "R1"]);
    }

    #[test]
    fn r2_flags_hash_collections_in_output_zones() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        assert_eq!(rules_of(&run(&["warehouse", "streaming"], src)), vec!["R2", "R2", "R2"]);
        assert!(rules_of(&run(&["procsim", "kernel"], src)).is_empty());
    }

    #[test]
    fn r3_flags_bare_arithmetic_but_exempts_literals() {
        assert_eq!(
            rules_of(&run(&["tsdb", "codec"], "fn f(a: u32, b: u32) -> u32 { a + b }")),
            vec!["R3"]
        );
        for ok in [
            "fn f(a: u32) -> u32 { a + 1 }",
            "fn f(a: u32) -> u32 { 64 - a }",
            "fn f(a: u32, b: u32) -> u32 { a.wrapping_add(b) }",
            "fn f(a: u64, w: u32) -> u64 { a << (64 - w) }",
            "fn f(a: i64) -> i64 { -a }",
            "fn f(a: &u32) -> u32 { *a }",
        ] {
            assert!(rules_of(&run(&["tsdb", "codec"], ok)).is_empty(), "{ok}");
        }
        let shift = "fn f(a: u64, s: u32) -> u64 { a << s }";
        assert_eq!(rules_of(&run(&["tsdb", "codec"], shift)), vec!["R3"]);
        assert!(rules_of(&run(&["tsdb", "wal"], shift)).is_empty(), "R3 is codec-only");
    }

    #[test]
    fn r4_flags_lock_unwrap_and_lock_across_recv_everywhere() {
        let src = "fn f() { let m = rx.lock().unwrap(); }";
        assert_eq!(rules_of(&run(&["core", "pipeline"], src)), vec!["R4"]);
        let chain = "fn f() { let msg = rx.lock().expect(\"poisoned\").recv(); }";
        assert_eq!(rules_of(&run(&["core", "pipeline"], chain)), vec!["R4", "R4"]);
        let ok = "fn f() { let g = rx.lock(); }";
        assert!(rules_of(&run(&["core", "pipeline"], ok)).is_empty());
    }

    #[test]
    fn r7_flags_allocations_in_hot_zones_only() {
        let src = "fn f(v: &[u8]) -> Vec<u8> { v.to_vec() }";
        assert_eq!(rules_of(&run(&["tsdb", "codec"], src)), vec!["R7"]);
        assert_eq!(rules_of(&run(&["relay", "wire"], src)), vec!["R7"]);
        assert!(rules_of(&run(&["relay", "spool"], src)).is_empty());
        let clones = "fn f(s: &S) -> S { s.clone() }\nfn g(n: u32) -> String { format!(\"{n}\") }\nfn h(s: &str) -> String { String::from(s) }";
        assert_eq!(rules_of(&run(&["tsdb", "db"], clones)), vec!["R7", "R7", "R7"]);
        let waived =
            "fn f(v: &[u8]) -> Vec<u8> { v.to_vec() } // suplint: allow(R7) -- cold error path";
        assert!(rules_of(&run(&["tsdb", "db"], waived)).is_empty());
        // `Clone` derive and trait impls don't trip the rule.
        let derive = "#[derive(Clone)]\nstruct S;\nimpl Clone for T { fn clone(&self) -> T { T } }";
        assert!(rules_of(&run(&["tsdb", "db"], derive)).is_empty());
    }

    #[test]
    fn r7_exempts_error_construction() {
        for cold in [
            "fn f(p: &P) -> Result<(), E> { Err(corrupt(format!(\"{}: bad magic\", p.display()))) }",
            "fn f(x: Option<u8>) -> Result<u8, E> { x.ok_or_else(|| E::new(format!(\"missing\"))) }",
            "fn f() -> E { TsdbError::Corrupt(format!(\"boom\")) }",
            "fn f() { let bad = |w: &str| corrupt(format!(\"ctx: {w}\")); }",
        ] {
            assert!(rules_of(&run(&["tsdb", "segment"], cold)).is_empty(), "{cold}");
        }
        // `?` puts the expression back on the success path: the clone
        // after it is hot even though an error adapter came before.
        let hot =
            "fn f(h: &M) -> Result<String, E> { Ok(h.get(0).ok_or_else(|| bad(\"x\"))?.clone()) }";
        assert_eq!(rules_of(&run(&["tsdb", "segment"], hot)), vec!["R7"]);
    }

    #[test]
    fn r8_checks_metric_name_literals_and_grammar() {
        let ok = "fn f(o: &Obs) { o.counter(\"relay_frames_total\").inc(); }";
        assert!(rules_of(&run(&["relay", "agent"], ok)).is_empty());
        let labeled = "fn f(o: &Obs) { o.counter(\"serve_requests_total{endpoint=\\\"v1_series\\\"}\").inc(); }";
        assert!(
            rules_of(&run(&["xdmod", "serve"], labeled)).is_empty(),
            "{:?}",
            run(&["xdmod", "serve"], labeled)
        );
        let concat = "fn f(o: &Obs) { o.gauge(concat!(\"tsdb_\", \"memtable_bytes\")).set(1); }";
        assert!(rules_of(&run(&["tsdb", "wal"], concat)).is_empty());
        let dynamic = "fn f(o: &Obs, name: &str) { o.counter(name).inc(); }";
        assert_eq!(rules_of(&run(&["relay", "agent"], dynamic)), vec!["R8"]);
        let bad_grammar = "fn f(o: &Obs) { o.counter(\"9bad name\").inc(); }";
        assert_eq!(rules_of(&run(&["relay", "agent"], bad_grammar)), vec!["R8"]);
        let bad_labels = "fn f(o: &Obs) { o.counter(\"x{k=unquoted}\").inc(); }";
        assert_eq!(rules_of(&run(&["relay", "agent"], bad_labels)), vec!["R8"]);
        // Inside the obs crate the registry implements these methods.
        assert!(rules_of(&run(&["obs"], dynamic)).is_empty());
    }

    #[test]
    fn r8_flags_registration_in_loop_bodies() {
        let looped = "fn f(o: &Obs, xs: &[u8]) { for x in xs { o.counter(\"a_total\").inc(); } }";
        assert_eq!(rules_of(&run(&["relay", "agent"], looped)), vec!["R8"]);
        let whiled = "fn f(o: &Obs) { while go() { o.gauge(\"d\").set(0); } }";
        assert_eq!(rules_of(&run(&["relay", "agent"], whiled)), vec!["R8"]);
        let hoisted =
            "fn f(o: &Obs, xs: &[u8]) { let c = o.counter(\"a_total\"); for x in xs { c.inc(); } }";
        assert!(rules_of(&run(&["relay", "agent"], hoisted)).is_empty());
        // `impl X for Y` and `for<'a>` are not loops.
        let impls = "impl Frob for S { fn g(&self, o: &Obs) { o.counter(\"a_total\").inc(); } }";
        assert!(rules_of(&run(&["relay", "agent"], impls)).is_empty());
    }

    #[test]
    fn metric_grammar() {
        for good in ["a", "a_b:c", "x_total{k=\"v\"}", "x{a=\"1\",b_2=\"two words\"}"] {
            assert!(metric_name_ok(good), "{good}");
        }
        for bad in ["", "9x", "x{", "x{}", "x{k}", "x{k=v}", "x{k=\"v\"", "x{k=\"v\"}y", "x y"] {
            assert!(!metric_name_ok(bad), "{bad}");
        }
    }

    #[test]
    fn waivers_suppress_with_reason_and_fail_without() {
        let waived = "fn f(x: Option<u8>) -> u8 {\n    // suplint: allow(R1) -- provably Some by construction\n    x.unwrap()\n}";
        let fs = run(&["tsdb", "db"], waived);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].waived);

        let trailing = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // suplint: allow(R1) -- fine";
        assert!(rules_of(&run(&["tsdb", "db"], trailing)).is_empty());

        let wrong_rule = "fn f(x: Option<u8>) -> u8 {\n    // suplint: allow(R2) -- wrong rule\n    x.unwrap()\n}";
        assert_eq!(rules_of(&run(&["tsdb", "db"], wrong_rule)), vec!["R1"]);

        let no_reason = "fn f(x: Option<u8>) -> u8 {\n    // suplint: allow(R1)\n    x.unwrap()\n}";
        let rs = rules_of(&run(&["tsdb", "db"], no_reason));
        assert!(rs.contains(&"W0"), "{rs:?}");
        assert!(rs.contains(&"R1"), "an unjustified waiver suppresses nothing: {rs:?}");
    }

    #[test]
    fn inline_mod_scoping_enters_and_leaves_zones() {
        let src = "mod codec { fn f(a: u32, b: u32) -> u32 { a * b } }\nfn g(a: u32, b: u32) -> u32 { a * b }";
        let fs = run(&["tsdb"], src);
        assert_eq!(rules_of(&fs), vec!["R3"]);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn test_context_files_are_exempt() {
        let file = SourceFile {
            path: "crates/tsdb/tests/x.rs".into(),
            modpath: vec!["tsdb".into(), "tests".into(), "x".into()],
            test_context: true,
        };
        let fs = lint_file(&file, b"fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert!(fs.is_empty());
    }
}
