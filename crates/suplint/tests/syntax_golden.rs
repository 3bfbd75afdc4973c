//! Golden tests for the item-tree parser and workspace call graph over
//! deliberately nasty Rust, plus fuzz-style guarantees: the parser must
//! never panic and must always terminate on arbitrary token soup. The
//! nightly CI job reruns the property tests with `SUPREMM_CASES=1024`.

use suplint::callgraph::CallGraph;
use suplint::classify;
use suplint::lexer::lex;
use suplint::syntax::{parse, CallKind, FileItems};
use supremm_metrics::rng::{cases, SplitMix64};

fn items(src: &str) -> FileItems {
    parse(&lex(src.as_bytes()))
}

fn fn_names(it: &FileItems) -> Vec<&str> {
    it.fns.iter().map(|f| f.name.as_str()).collect()
}

// ---------------------------------------------------------------- item tree

#[test]
fn nested_mods_and_impls_recover_qualified_context() {
    let it = items(
        "mod outer {\n\
             mod inner {\n\
                 struct S;\n\
                 impl S { fn method(&self) {} }\n\
                 fn free() {}\n\
             }\n\
             impl super::T { fn other(&self) {} }\n\
         }\n\
         fn top() {}",
    );
    assert_eq!(fn_names(&it), ["method", "free", "other", "top"]);
    assert_eq!(it.fns[0].mods, ["outer", "inner"]);
    assert_eq!(it.fns[0].self_ty.as_deref(), Some("S"));
    assert_eq!(it.fns[1].mods, ["outer", "inner"]);
    assert_eq!(it.fns[1].self_ty, None);
    // `impl super::T` — the self type is the final segment.
    assert_eq!(it.fns[2].self_ty.as_deref(), Some("T"));
    assert_eq!(it.fns[2].mods, ["outer"]);
    assert!(it.fns[3].mods.is_empty());
}

#[test]
fn generic_and_trait_impls_yield_the_concrete_self_type() {
    let it = items(
        "impl<K: Ord, V> Map<K, V> { fn get(&self) {} }\n\
         impl<'a> Iterator for Cursor<'a> { fn next(&mut self) {} }\n\
         impl Default for Plain { fn default() {} }",
    );
    assert_eq!(fn_names(&it), ["get", "next", "default"]);
    assert_eq!(it.fns[0].self_ty.as_deref(), Some("Map"));
    // Trait impls attribute methods to the *implementing* type.
    assert_eq!(it.fns[1].self_ty.as_deref(), Some("Cursor"));
    assert_eq!(it.fns[2].self_ty.as_deref(), Some("Plain"));
}

#[test]
fn use_renames_and_globs_are_recorded() {
    let it = items(
        "use supremm_tsdb::wal::Wal as Journal;\n\
         use crate::codec::{encode, decode as undo};\n\
         use supremm_metrics::parse::*;\n\
         fn f() {}",
    );
    let binds: Vec<(&str, Vec<&str>)> = it
        .uses
        .iter()
        .map(|u| (u.alias.as_str(), u.path.iter().map(String::as_str).collect()))
        .collect();
    assert!(binds.contains(&(("Journal"), vec!["supremm_tsdb", "wal", "Wal"])));
    assert!(binds.contains(&(("encode"), vec!["crate", "codec", "encode"])));
    assert!(binds.contains(&(("undo"), vec!["crate", "codec", "decode"])));
    assert_eq!(it.globs, vec![vec!["supremm_metrics", "parse"]]);
}

#[test]
fn call_kinds_distinguish_method_and_path_calls() {
    let it = items(
        "fn f(&self) {\n\
             self.helper();\n\
             other.helper();\n\
             crate::util::helper();\n\
         }",
    );
    let f = &it.fns[0];
    let kinds: Vec<(String, &CallKind)> =
        f.calls.iter().map(|c| (c.path.join("::"), &c.kind)).collect();
    assert!(kinds.iter().any(|(p, k)| p == "helper" && matches!(k, CallKind::MethodSelf)));
    assert!(kinds.iter().any(|(p, k)| p == "helper" && matches!(k, CallKind::Method)));
    assert!(kinds.iter().any(|(p, k)| p == "crate::util::helper" && matches!(k, CallKind::Path)));
}

#[test]
fn macro_bodies_and_cfg_test_do_not_leak_facts() {
    let it = items(
        "macro_rules! boom { () => { fn fake() { x.unwrap(); } }; }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             fn helper() { y.unwrap(); }\n\
         }\n\
         fn prod() {}",
    );
    // The macro body's `fn fake` may or may not be recovered, but the
    // production function must be present and non-test, and anything in
    // the cfg(test) module must carry the test flag.
    let prod = it.fns.iter().find(|f| f.name == "prod").expect("prod fn");
    assert!(!prod.test);
    for f in it.fns.iter().filter(|f| f.name == "helper") {
        assert!(f.test, "cfg(test) fns must be excluded from the graph");
    }
}

#[test]
fn strings_comments_and_lifetimes_do_not_confuse_the_walker() {
    let it = items(
        "fn f<'a>(x: &'a str) {\n\
             let s = \"fn not_a_fn() { a.unwrap(); }\";\n\
             // fn also_not_one() {}\n\
             /* fn nope() { b.unwrap() } */\n\
             let r = r#\"fn raw() {}\"#;\n\
             real_call();\n\
         }",
    );
    assert_eq!(fn_names(&it), ["f"]);
    assert!(it.fns[0].panics.is_empty(), "panic tokens inside literals must not count");
    assert!(it.fns[0].calls.iter().any(|c| c.path.join("::") == "real_call"));
}

#[test]
fn nested_fns_own_their_facts() {
    let it = items(
        "fn outer() {\n\
             fn inner() { x.unwrap(); }\n\
             safe();\n\
         }",
    );
    let outer = it.fns.iter().find(|f| f.name == "outer").unwrap();
    let inner = it.fns.iter().find(|f| f.name == "inner").unwrap();
    assert!(outer.panics.is_empty(), "inner's unwrap belongs to inner");
    assert_eq!(inner.panics.len(), 1);
    assert!(outer.calls.iter().any(|c| c.path.join("::") == "safe"));
}

// --------------------------------------------------------------- call graph

fn graph_of(files: &[(&str, &str)]) -> CallGraph {
    let trees: Vec<_> =
        files.iter().map(|(rel, src)| (classify(rel), parse(&lex(src.as_bytes())))).collect();
    CallGraph::build(&trees)
}

fn edge_exists(g: &CallGraph, from: &str, to: &str) -> bool {
    let find = |d: &str| g.nodes.iter().position(|n| n.display() == d);
    match (find(from), find(to)) {
        (Some(f), Some(t)) => g.edges[f].iter().any(|&(c, _)| c == t),
        _ => false,
    }
}

#[test]
fn golden_graph_aliases_methods_and_suffix_paths() {
    let g = graph_of(&[
        (
            "crates/tsdb/src/db.rs",
            "use supremm_metrics::parse::field as parse_field;\n\
             pub struct Tsdb;\n\
             impl Tsdb {\n\
                 pub fn open(&self) { self.replay(); parse_field(); }\n\
                 fn replay(&self) { supremm_warehouse::store::load(); }\n\
             }",
        ),
        ("crates/metrics/src/parse.rs", "pub fn field() -> u8 { 0 }"),
        ("crates/warehouse/src/store.rs", "pub fn load() {}"),
    ]);
    // `self.replay()` resolves to the same-impl method.
    assert!(edge_exists(&g, "tsdb::db::Tsdb::open", "tsdb::db::Tsdb::replay"));
    // The `use … as` rename resolves through the alias.
    assert!(edge_exists(&g, "tsdb::db::Tsdb::open", "metrics::parse::field"));
    // Fully-qualified cross-crate path.
    assert!(edge_exists(&g, "tsdb::db::Tsdb::replay", "warehouse::store::load"));
    assert!(g.ambiguities.is_empty(), "{:?}", g.ambiguities);
}

#[test]
fn golden_graph_reports_ambiguity_instead_of_guessing() {
    let g = graph_of(&[
        ("crates/relay/src/wire.rs", "pub fn run() { helper::step(); }"),
        ("crates/tsdb/src/helper.rs", "pub fn step() {}"),
        ("crates/obs/src/helper.rs", "pub fn step() {}"),
    ]);
    assert_eq!(g.ambiguities.len(), 1, "{:?}", g.ambiguities);
    let amb = &g.ambiguities[0];
    assert_eq!(amb.path, "helper::step");
    assert_eq!(amb.candidates.len(), 2);
    // No edge was invented for the unresolvable call.
    assert!(!edge_exists(&g, "relay::wire::run", "tsdb::helper::step"));
    assert!(!edge_exists(&g, "relay::wire::run", "obs::helper::step"));
}

#[test]
fn golden_graph_excludes_test_functions() {
    let g = graph_of(&[(
        "crates/tsdb/src/db.rs",
        "pub fn query() {}\n\
             #[cfg(test)]\n\
             mod tests { fn check() { crate::db::query(); } }",
    )]);
    assert!(g.nodes.iter().all(|n| n.name != "check"), "test fns stay out of the graph");
}

// ------------------------------------------------------------ property fuzz

/// Vocabulary biased towards the parser's trigger tokens so random
/// programs actually exercise item recovery, not just the error paths.
fn soup_word(rng: &mut SplitMix64) -> &'static str {
    #[rustfmt::skip]
    const WORDS: &[&str] = &[
        "fn", "impl", "mod", "use", "struct", "trait", "for", "where", "as",
        "let", "self", "crate", "super", "loop", "while", "match", "move",
        "{", "}", "(", ")", "[", "]", "<", ">", "::", ":", ";", ",", ".",
        "->", "=>", "=", "#", "!", "?", "&", "|", "||", "'a", "'static",
        "x", "y", "unwrap", "expect", "lock", "read", "write", "drop",
        "panic", "r#\"raw\"#", "\"str\"", "// line comment\n", "/* block */",
        "0", "1.5", "'c'", "\n",
    ];
    rng.pick(WORDS)
}

/// The parser and call-graph builder never panic and always
/// terminate, whatever bytes they are fed.
#[test]
fn parser_survives_arbitrary_bytes() {
    cases("parser_survives_arbitrary_bytes", 256, |rng| {
        let bytes = rng.vec(0..512, |r| r.next_u64() as u8);
        let toks = lex(&bytes);
        let tree = parse(&toks);
        // The output stays internally consistent even on garbage.
        for f in &tree.fns {
            assert!(f.mods.len() <= 64);
        }
    });
}

/// Rust-shaped token soup: unbalanced braces, truncated items,
/// pathological nesting — recovery must stay total.
#[test]
fn parser_survives_token_soup() {
    cases("parser_survives_token_soup", 256, |rng| {
        let words = rng.vec(0..256, soup_word);
        let src = words.join(" ");
        let tree = parse(&lex(src.as_bytes()));
        let files = vec![(classify("crates/tsdb/src/fuzz.rs"), tree)];
        let g = CallGraph::build(&files);
        assert_eq!(g.nodes.len(), g.edges.len());
    });
}

/// Lexing is a partition: parsing a file twice yields the same tree
/// (determinism underwrites the byte-stable reports).
#[test]
fn parse_is_deterministic() {
    cases("parse_is_deterministic", 256, |rng| {
        let words = rng.vec(0..128, soup_word);
        let src = words.join(" ");
        let a = parse(&lex(src.as_bytes()));
        let b = parse(&lex(src.as_bytes()));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    });
}
