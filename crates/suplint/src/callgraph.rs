//! Workspace-wide call graph over the item trees from [`crate::syntax`],
//! and the two interprocedural rules that run on it:
//!
//! - **R5 panic propagation**: fixed-point taint from every
//!   panic-capable token to every function in an R1 zone that can reach
//!   it, diagnostics carrying the full call chain.
//! - **R6 lock-order consistency**: a global lock-acquisition order
//!   graph built from guard scopes (intra-function held-pairs plus
//!   locks acquired by callees while a guard is held); cycles are
//!   potential deadlocks. Named guards held across blocking calls are
//!   flagged too (generalizing token rule R4 beyond a single expression
//!   chain).
//!
//! ## Resolution policy
//!
//! Call targets are resolved by *suffix-path matching* against the
//! qualified paths of workspace functions (`crate :: modules :: [SelfTy]
//! :: name`), after expanding `use` renames and normalizing
//! `crate`/`self`/`super` and `supremm_*` crate idents:
//!
//! - a multi-segment path call resolves when exactly one function's
//!   qualified path ends with it;
//! - `self.m(…)` resolves against methods of the enclosing impl type in
//!   the same crate;
//! - a bare call `f(…)` resolves in the caller's own module, then
//!   through single-name imports and glob imports — never further
//!   (Rust scoping: a bare name cannot reach another module unimported);
//! - a plain method call `x.m(…)` resolves only when `m` names exactly
//!   one workspace method *and* is not a common std method name
//!   ([`STD_METHODS`]) — std receivers would otherwise be misattributed.
//!
//! Anything matching more than one candidate becomes an explicit
//! [`Ambiguity`] (surfaced in `lint_report.json`), and contributes **no
//! edge**: taint through a guessed edge would drown the report in false
//! positives, while the ambiguity list keeps the blind spot visible.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{in_zone, Finding, SourceFile, WaiverLines, R1_ZONES};
use crate::syntax::{CallKind, FileItems, FnItem};

/// Method names too common in std to resolve by name uniqueness.
pub const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "end",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "int",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "parse",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "saturating_sub",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "zip",
];

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Repo-relative file path.
    pub file: String,
    /// Module path: file modpath + inline mods (no self type, no name).
    pub mods: Vec<String>,
    pub self_ty: Option<String>,
    pub name: String,
    pub line: u32,
}

impl FnNode {
    /// `crate::module::Type::name` for diagnostics.
    pub fn display(&self) -> String {
        let mut parts: Vec<&str> = self.mods.iter().map(String::as_str).collect();
        if let Some(ty) = &self.self_ty {
            parts.push(ty);
        }
        parts.push(&self.name);
        parts.join("::")
    }

    /// Qualified path used for suffix matching.
    fn qual(&self) -> Vec<String> {
        let mut q = self.mods.clone();
        if let Some(ty) = &self.self_ty {
            q.push(ty.clone());
        }
        q.push(self.name.clone());
        q
    }
}

/// A call site that matched more than one workspace function.
#[derive(Debug, Clone)]
pub struct Ambiguity {
    pub file: String,
    pub line: u32,
    /// The path as written at the call site.
    pub path: String,
    /// Display names of the candidate targets, sorted.
    pub candidates: Vec<String>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    items: Vec<FnItem>,
    /// `edges[caller] = [(callee, call line), …]`, deduped + sorted.
    pub edges: Vec<Vec<(usize, u32)>>,
    pub ambiguities: Vec<Ambiguity>,
}

/// Map a crate identifier as written in source to the workspace crate
/// key (directory name): `supremm_tsdb` → `tsdb`, `suplint` → `suplint`.
fn crate_key(ident: &str) -> Option<String> {
    if let Some(rest) = ident.strip_prefix("supremm_") {
        if rest == "suite" {
            return Some("root".to_string());
        }
        return Some(rest.to_string());
    }
    if ident == "suplint" {
        return Some("suplint".to_string());
    }
    None
}

/// Names that can never resolve inside the workspace.
fn is_external_root(seg: &str) -> bool {
    matches!(seg, "std" | "core" | "alloc")
}

impl CallGraph {
    /// Build the graph from per-file item trees. Test functions are
    /// excluded entirely — they are exempt from the rules and would
    /// pollute name resolution.
    pub fn build(files: &[(SourceFile, FileItems)]) -> CallGraph {
        let mut g = CallGraph::default();
        // File-level module path for each fn: SourceFile.modpath already
        // includes the crate key and file stem; inline mods append.
        for (sf, items) in files {
            for f in &items.fns {
                if f.test || sf.test_context {
                    continue;
                }
                let mut mods = sf.modpath.clone();
                mods.extend(f.mods.iter().cloned());
                g.nodes.push(FnNode {
                    file: sf.path.clone(),
                    mods,
                    self_ty: f.self_ty.clone(),
                    name: f.name.clone(),
                    line: f.line,
                });
                g.items.push(f.clone());
            }
        }
        // Name index for candidate lookup.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(id);
        }
        // Per-file alias maps (alias → absolute-ish path) and globs.
        let mut file_aliases: BTreeMap<&str, BTreeMap<&str, Vec<String>>> = BTreeMap::new();
        let mut file_globs: BTreeMap<&str, Vec<Vec<String>>> = BTreeMap::new();
        for (sf, items) in files {
            let aliases = file_aliases.entry(sf.path.as_str()).or_default();
            for u in &items.uses {
                aliases.insert(u.alias.as_str(), normalize_path(&u.path, &sf.modpath));
            }
            let globs = file_globs.entry(sf.path.as_str()).or_default();
            for gpath in &items.globs {
                globs.push(normalize_path(gpath, &sf.modpath));
            }
        }

        let empty_aliases = BTreeMap::new();
        let empty_globs = Vec::new();
        let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); g.nodes.len()];
        let mut ambiguities: Vec<Ambiguity> = Vec::new();
        for (caller, node) in g.nodes.iter().enumerate() {
            let aliases = file_aliases.get(node.file.as_str()).unwrap_or(&empty_aliases);
            let globs = file_globs.get(node.file.as_str()).unwrap_or(&empty_globs);
            for call in &g.items[caller].calls {
                match g.resolve(node, call.kind, &call.path, aliases, globs, &by_name) {
                    Resolution::None => {}
                    Resolution::Edge(callee) => edges[caller].push((callee, call.line)),
                    Resolution::Ambiguous(cands) => {
                        let mut names: Vec<String> =
                            cands.iter().map(|&id| g.nodes[id].display()).collect();
                        names.sort();
                        names.dedup();
                        if names.len() < 2 {
                            // All candidates render identically (e.g.
                            // cfg-split impls): treat as resolved.
                            if let Some(&id) = cands.first() {
                                edges[caller].push((id, call.line));
                            }
                        } else {
                            ambiguities.push(Ambiguity {
                                file: node.file.clone(),
                                line: call.line,
                                path: call.path.join("::"),
                                candidates: names,
                            });
                        }
                    }
                }
            }
        }
        for e in &mut edges {
            e.sort();
            e.dedup_by_key(|(callee, _)| *callee);
        }
        ambiguities.sort_by(|a, b| (&a.file, a.line, &a.path).cmp(&(&b.file, b.line, &b.path)));
        ambiguities.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.path == b.path);
        g.edges = edges;
        g.ambiguities = ambiguities;
        g
    }

    pub fn item(&self, id: usize) -> &FnItem {
        &self.items[id]
    }

    fn resolve(
        &self,
        node: &FnNode,
        kind: CallKind,
        path: &[String],
        aliases: &BTreeMap<&str, Vec<String>>,
        globs: &[Vec<String>],
        by_name: &BTreeMap<&str, Vec<usize>>,
    ) -> Resolution {
        let Some(name) = path.last() else { return Resolution::None };
        let mut candidates: Vec<usize>;
        match kind {
            CallKind::MethodSelf => {
                let Some(ty) = &node.self_ty else { return Resolution::None };
                let same_crate = node.mods.first();
                candidates = by_name
                    .get(name.as_str())
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| {
                                self.nodes[id].self_ty.as_deref() == Some(ty.as_str())
                                    && self.nodes[id].mods.first() == same_crate
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                // Several impl blocks of the same type are one type:
                // prefer the caller's own file when both define it.
                if candidates.len() > 1 {
                    let same_file: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&id| self.nodes[id].file == node.file)
                        .collect();
                    if same_file.len() == 1 {
                        candidates = same_file;
                    }
                }
            }
            CallKind::Method => {
                if STD_METHODS.contains(&name.as_str()) {
                    return Resolution::None;
                }
                candidates = by_name
                    .get(name.as_str())
                    .map(|ids| {
                        ids.iter().copied().filter(|&id| self.nodes[id].self_ty.is_some()).collect()
                    })
                    .unwrap_or_default();
                if candidates.len() > 1 {
                    // A method defined by several types is ambiguous —
                    // unless every candidate shares one self type (impl
                    // blocks split across files).
                    let tys: BTreeSet<&Option<String>> =
                        candidates.iter().map(|&id| &self.nodes[id].self_ty).collect();
                    if tys.len() > 1 {
                        return Resolution::Ambiguous(candidates);
                    }
                }
            }
            CallKind::Path if path.len() == 1 => {
                // Bare call: same module first.
                candidates = by_name
                    .get(name.as_str())
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| {
                                self.nodes[id].self_ty.is_none() && self.nodes[id].mods == node.mods
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                // Then single-name imports.
                if candidates.is_empty() {
                    if let Some(full) = aliases.get(name.as_str()) {
                        candidates = self.suffix_match(full, by_name);
                    }
                }
                // Then glob imports.
                if candidates.is_empty() {
                    for gbase in globs {
                        let mut full = gbase.clone();
                        full.push(name.clone());
                        candidates.extend(self.suffix_match(&full, by_name));
                    }
                    candidates.sort_unstable();
                    candidates.dedup();
                }
            }
            CallKind::Path => {
                // Expand a leading alias (`use tsdb::codec as cc; cc::f()`),
                // then normalize and suffix-match.
                let mut full: Vec<String> = match aliases.get(path[0].as_str()) {
                    Some(base) => {
                        let mut v = base.clone();
                        v.extend(path[1..].iter().cloned());
                        v
                    }
                    None => path.to_vec(),
                };
                full = normalize_path(&full, &node.mods);
                if full.first().is_some_and(|s| is_external_root(s)) {
                    return Resolution::None;
                }
                candidates = self.suffix_match(&full, by_name);
            }
        }
        match candidates.len() {
            0 => Resolution::None,
            1 => Resolution::Edge(candidates[0]),
            _ => Resolution::Ambiguous(candidates),
        }
    }

    /// All functions whose qualified path ends with `suffix`.
    fn suffix_match(&self, suffix: &[String], by_name: &BTreeMap<&str, Vec<usize>>) -> Vec<usize> {
        let Some(name) = suffix.last() else { return Vec::new() };
        by_name
            .get(name.as_str())
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        let q = self.nodes[id].qual();
                        q.len() >= suffix.len() && q[q.len() - suffix.len()..] == *suffix
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Outcome of resolving one call site.
enum Resolution {
    None,
    Edge(usize),
    Ambiguous(Vec<usize>),
}

/// Normalize a path's leading segments against the referencing module:
/// `crate::` → the crate key, `self::` → the module, `super::` → the
/// parent, `supremm_x::` → `x`.
fn normalize_path(path: &[String], mods: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut rest = path;
    match path.first().map(String::as_str) {
        Some("crate") => {
            out.extend(mods.first().cloned());
            rest = &path[1..];
        }
        Some("self") => {
            out.extend(mods.iter().cloned());
            rest = &path[1..];
        }
        Some("super") => {
            let mut m = mods.to_vec();
            m.pop();
            let mut i = 1;
            while path.get(i).map(String::as_str) == Some("super") {
                m.pop();
                i += 1;
            }
            out.extend(m);
            rest = &path[i..];
        }
        Some(seg) => {
            if let Some(key) = crate_key(seg) {
                out.push(key);
                rest = &path[1..];
            }
        }
        None => {}
    }
    out.extend(rest.iter().cloned());
    out
}

// --- R5: interprocedural panic propagation ---------------------------------

/// Where a function's panic-taint comes from.
#[derive(Debug, Clone)]
enum Taint {
    /// The function itself contains a panic-capable token.
    Direct(String),
    /// Tainted via a call: `(callee, call line)`.
    Via(usize, u32),
}

/// Lines waived per file: `file → line → rules`. Built by the driver
/// from each file's waiver map.
pub type WaiverIndex = BTreeMap<String, WaiverLines>;

fn line_waives(waivers: &WaiverIndex, file: &str, line: u32, rules: &[&str]) -> bool {
    waivers
        .get(file)
        .and_then(|m| m.get(&line))
        .is_some_and(|rs| rs.iter().any(|r| rules.contains(&r.as_str())))
}

/// Run R5 over the graph. A panic site whose line carries an `allow(R1)`
/// or `allow(R5)` waiver is not a seed (the justification asserts it
/// cannot fire); a zone function whose *own* body panics is R1's
/// business and is skipped here.
pub fn panic_propagation(g: &CallGraph, waivers: &WaiverIndex) -> Vec<Finding> {
    let n = g.nodes.len();
    let mut taint: Vec<Option<Taint>> = vec![None; n];
    // Seeds, in deterministic node order.
    for (id, node) in g.nodes.iter().enumerate() {
        if let Some(p) = g
            .item(id)
            .panics
            .iter()
            .find(|p| !line_waives(waivers, &node.file, p.line, &["R1", "R5"]))
        {
            taint[id] = Some(Taint::Direct(format!("{} at {}:{}", p.what, node.file, p.line)));
        }
    }
    // Reverse edges.
    let mut redges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (caller, outs) in g.edges.iter().enumerate() {
        for &(callee, line) in outs {
            redges[callee].push((caller, line));
        }
    }
    for r in &mut redges {
        r.sort_unstable();
    }
    // BFS from all seeds at once: shortest chains, deterministic order.
    let mut queue: std::collections::VecDeque<usize> =
        (0..n).filter(|&id| taint[id].is_some()).collect();
    while let Some(id) = queue.pop_front() {
        for &(caller, line) in &redges[id] {
            if taint[caller].is_none() {
                taint[caller] = Some(Taint::Via(id, line));
                queue.push_back(caller);
            }
        }
    }

    let mut findings = Vec::new();
    for id in 0..n {
        let node = &g.nodes[id];
        let Some(Taint::Via(first_callee, line)) = taint[id].clone() else { continue };
        if !in_zone(&node.mods, R1_ZONES) {
            continue;
        }
        // Render the chain: f → g → h (root site).
        let mut chain = vec![node.display()];
        let mut cur = first_callee;
        let root = loop {
            chain.push(g.nodes[cur].display());
            match &taint[cur] {
                Some(Taint::Via(next, _)) if chain.len() < 12 => cur = *next,
                Some(Taint::Direct(site)) => break site.clone(),
                _ => {
                    // Chain display capped; find the root below.
                    let mut probe = cur;
                    let site = loop {
                        match &taint[probe] {
                            Some(Taint::Via(next, _)) => probe = *next,
                            Some(Taint::Direct(site)) => break site.clone(),
                            None => break String::from("?"),
                        }
                    };
                    chain.push("…".to_string());
                    break site;
                }
            }
        };
        findings.push(Finding {
            rule: "R5",
            file: node.file.clone(),
            line,
            message: format!(
                "panic-capable path out of a panic-free zone: {} ({})",
                chain.join(" → "),
                root
            ),
            waived: false,
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

// --- R6: lock-order consistency --------------------------------------------

/// Normalize a syntactic lock receiver to a workspace-wide identity.
/// `self.x` → `crate::SelfTy.x` (field identity survives cross-module
/// calls); `SCREAMING` statics → `crate::NAME`; anything else is scoped
/// to the function (locals cannot escape).
fn lock_identity(raw: &str, node: &FnNode) -> String {
    let krate = node.mods.first().map(String::as_str).unwrap_or("?");
    if let Some(rest) = raw.strip_prefix("self.") {
        if let Some(ty) = &node.self_ty {
            return format!("{krate}::{ty}.{rest}");
        }
    }
    let head = raw.split('.').next().unwrap_or(raw);
    let screaming = !head.is_empty()
        && head.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    if screaming {
        return format!("{krate}::{raw}");
    }
    format!("{}::{}::{raw}", node.mods.join("::"), node.name)
}

/// One directed lock-order edge with its evidence site.
#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: Option<String>,
}

/// Run R6. Emits one finding per lock-order cycle (reported at the
/// lexicographically first evidence site, message carrying every edge),
/// plus one per named guard held across a blocking call.
pub fn lock_order(g: &CallGraph) -> Vec<Finding> {
    let n = g.nodes.len();
    // Locks each function acquires, transitively (fixed point).
    let mut acq: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, node) in g.nodes.iter().enumerate() {
        for ev in &g.item(id).locks {
            acq[id].insert(lock_identity(&ev.lock, node));
        }
    }
    loop {
        let mut changed = false;
        for caller in 0..n {
            for &(callee, _) in &g.edges[caller] {
                if caller == callee {
                    continue;
                }
                let add: Vec<String> = acq[callee].difference(&acq[caller]).cloned().collect();
                if !add.is_empty() {
                    acq[caller].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges.
    let mut edges: Vec<LockEdge> = Vec::new();
    for id in 0..n {
        let node = &g.nodes[id];
        for ev in &g.item(id).locks {
            let to = lock_identity(&ev.lock, node);
            for h in &ev.held {
                let from = lock_identity(h, node);
                if from != to {
                    edges.push(LockEdge {
                        from,
                        to: to.clone(),
                        file: node.file.clone(),
                        line: ev.line,
                        via: None,
                    });
                }
            }
        }
        // Held across a call: callee's (transitive) locks come after.
        let callees: BTreeMap<usize, u32> = g.edges[id].iter().copied().collect();
        for call in &g.item(id).calls {
            if call.held.is_empty() {
                continue;
            }
            for (&callee, &_eline) in &callees {
                // Only pair the call site with its resolved edge line.
                if g.edges[id].iter().any(|&(c, l)| c == callee && l == call.line) {
                    for l in &acq[callee] {
                        for h in &call.held {
                            let from = lock_identity(h, &g.nodes[id]);
                            if from != *l {
                                edges.push(LockEdge {
                                    from,
                                    to: l.clone(),
                                    file: g.nodes[id].file.clone(),
                                    line: call.line,
                                    via: Some(g.nodes[callee].display()),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Adjacency + cycle detection via iterative SCC (Tarjan).
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for e in &edges {
        keys.insert(&e.from);
        keys.insert(&e.to);
    }
    let idx: BTreeMap<&str, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let names: Vec<&str> = keys.into_iter().collect();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); names.len()];
    for e in &edges {
        if let (Some(&a), Some(&b)) = (idx.get(e.from.as_str()), idx.get(e.to.as_str())) {
            adj[a].insert(b);
        }
    }
    let sccs = tarjan(&adj);

    let mut findings = Vec::new();
    for scc in sccs {
        let cyclic = scc.len() > 1 || (scc.len() == 1 && adj[scc[0]].contains(&scc[0]));
        if !cyclic {
            continue;
        }
        let members: BTreeSet<&str> = scc.iter().map(|&i| names[i]).collect();
        // Evidence: every edge within the SCC, deterministic order.
        let mut evidence: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| members.contains(e.from.as_str()) && members.contains(e.to.as_str()))
            .collect();
        evidence.sort_by(|a, b| {
            (&a.file, a.line, &a.from, &a.to).cmp(&(&b.file, b.line, &b.from, &b.to))
        });
        evidence.dedup_by(|a, b| a.from == b.from && a.to == b.to);
        let Some(first) = evidence.first() else { continue };
        let desc: Vec<String> = evidence
            .iter()
            .map(|e| {
                let via = e.via.as_deref().map(|v| format!(" via {v}")).unwrap_or_default();
                format!("{} → {} at {}:{}{}", e.from, e.to, e.file, e.line, via)
            })
            .collect();
        findings.push(Finding {
            rule: "R6",
            file: first.file.clone(),
            line: first.line,
            message: format!(
                "lock-order cycle across {{{}}}: {}",
                members.iter().copied().collect::<Vec<_>>().join(", "),
                desc.join("; ")
            ),
            waived: false,
        });
    }

    // Named guard held across a blocking call.
    for id in 0..n {
        let node = &g.nodes[id];
        for b in &g.item(id).blocked {
            findings.push(Finding {
                rule: "R6",
                file: node.file.clone(),
                line: b.line,
                message: format!(
                    "guard for {} held across blocking .{}() — receive/IO first, lock second",
                    lock_identity(&b.lock, node),
                    b.call
                ),
                waived: false,
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

/// Iterative Tarjan SCC (no recursion: must survive adversarial input).
fn tarjan(adj: &[BTreeSet<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    // Explicit DFS frames: (node, neighbor iterator position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, adj[start].iter().copied().collect(), 0));
        while let Some((v, neigh, pos)) = frames.last_mut() {
            if *pos < neigh.len() {
                let w = neigh[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, adj[w].iter().copied().collect(), 0));
                } else if on_stack[w] {
                    let v = *v;
                    low[v] = low[v].min(index[w]);
                }
            } else {
                let v = *v;
                frames.pop();
                if let Some((parent, _, _)) = frames.last() {
                    low[*parent] = low[*parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax;

    fn analyze(files: &[(&str, &[&str], &str)]) -> Vec<(SourceFile, FileItems)> {
        files
            .iter()
            .map(|(path, modpath, src)| {
                let sf = SourceFile {
                    path: path.to_string(),
                    modpath: modpath.iter().map(|s| s.to_string()).collect(),
                    test_context: false,
                };
                let toks = lex(src.as_bytes());
                let sig: Vec<_> = toks.into_iter().filter(|t| !t.is_comment()).collect();
                (sf, syntax::parse(&sig))
            })
            .collect()
    }

    #[test]
    fn resolves_cross_crate_suffix_paths() {
        let files = analyze(&[
            ("crates/tsdb/src/wal.rs", &["tsdb", "wal"], "pub fn replay() { helpers::boom(); }"),
            (
                "crates/metrics/src/helpers.rs",
                &["metrics", "helpers"],
                "pub fn boom() { panic!(\"x\") }",
            ),
        ]);
        let g = CallGraph::build(&files);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges[0], vec![(1, 1)]);
        let findings = panic_propagation(&g, &WaiverIndex::new());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "R5");
        assert!(findings[0].message.contains("tsdb::wal::replay → metrics::helpers::boom"));
    }

    #[test]
    fn multi_hop_chain_across_crates() {
        // zone fn → helper in another crate → panic site (3 hops).
        let files = analyze(&[
            (
                "crates/tsdb/src/db.rs",
                &["tsdb", "db"],
                "use supremm_metrics::convert::widen;\npub fn query() { widen(); }",
            ),
            (
                "crates/metrics/src/convert.rs",
                &["metrics", "convert"],
                "pub fn widen() { inner_cast() }\nfn inner_cast() { None::<u8>.unwrap(); }",
            ),
        ]);
        let g = CallGraph::build(&files);
        let findings = panic_propagation(&g, &WaiverIndex::new());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let msg = &findings[0].message;
        assert!(
            msg.contains(
                "tsdb::db::query → metrics::convert::widen → metrics::convert::inner_cast"
            ),
            "{msg}"
        );
        assert!(msg.contains(".unwrap() at crates/metrics/src/convert.rs:2"), "{msg}");
    }

    #[test]
    fn waived_panic_site_is_not_a_seed() {
        let files = analyze(&[
            ("crates/tsdb/src/db.rs", &["tsdb", "db"], "pub fn query() { crate::util::widen(); }"),
            ("crates/tsdb/src/util.rs", &["tsdb", "util"], "pub fn widen() { x.unwrap(); }"),
        ]);
        let g = CallGraph::build(&files);
        let mut waivers = WaiverIndex::new();
        waivers
            .entry("crates/tsdb/src/util.rs".to_string())
            .or_default()
            .insert(1, vec!["R1".to_string()]);
        assert!(panic_propagation(&g, &waivers).is_empty());
    }

    #[test]
    fn ambiguous_calls_report_but_do_not_taint() {
        let files = analyze(&[
            ("crates/tsdb/src/db.rs", &["tsdb", "db"], "pub fn query(x: X) { x.frob(); }"),
            (
                "crates/metrics/src/a.rs",
                &["metrics", "a"],
                "struct A; impl A { pub fn frob(&self) { panic!() } }",
            ),
            (
                "crates/warehouse/src/b.rs",
                &["warehouse", "b"],
                "struct B; impl B { pub fn frob(&self) {} }",
            ),
        ]);
        let g = CallGraph::build(&files);
        assert!(panic_propagation(&g, &WaiverIndex::new()).is_empty());
        assert_eq!(g.ambiguities.len(), 1);
        assert_eq!(g.ambiguities[0].path, "frob");
        assert_eq!(g.ambiguities[0].candidates.len(), 2);
    }

    #[test]
    fn two_lock_inversion_is_a_cycle() {
        let files = analyze(&[(
            "crates/core/src/pipeline.rs",
            &["core", "pipeline"],
            "struct P; impl P {\n\
             fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
             }",
        )]);
        let g = CallGraph::build(&files);
        let findings = lock_order(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R6");
        assert!(findings[0].message.contains("lock-order cycle"));
        assert!(findings[0].message.contains("core::P.alpha"));
        assert!(findings[0].message.contains("core::P.beta"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let files = analyze(&[(
            "crates/core/src/pipeline.rs",
            &["core", "pipeline"],
            "struct P; impl P {\n\
             fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             }",
        )]);
        let g = CallGraph::build(&files);
        assert!(lock_order(&g).is_empty());
    }

    #[test]
    fn interprocedural_inversion_through_a_call() {
        let files = analyze(&[(
            "crates/core/src/pipeline.rs",
            &["core", "pipeline"],
            "struct P; impl P {\n\
             fn outer(&self) { let a = self.alpha.lock(); self.inner_beta(); }\n\
             fn inner_beta(&self) { let b = self.beta.lock(); }\n\
             fn other(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
             }",
        )]);
        let g = CallGraph::build(&files);
        let findings = lock_order(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("via core::pipeline::P::inner_beta"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn guard_across_blocking_call() {
        let files = analyze(&[(
            "crates/core/src/pipeline.rs",
            &["core", "pipeline"],
            "fn f(rx: R, m: M) { let g = m.lock(); let x = rx.recv(); }",
        )]);
        let g = CallGraph::build(&files);
        let findings = lock_order(&g);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("held across blocking .recv()"));
    }
}
