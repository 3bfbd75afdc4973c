//! Structure recovery: the linter's one front end. A lightweight
//! recursive-descent layer over the token stream that rebuilds the item
//! tree (modules, `fn`s, `impl` blocks, traits, `use` declarations),
//! records for every token the scope the token rules need
//! ([`TokScope`]: inline-module path, test code or not, inside a loop
//! body or not), and collects per-function facts for the
//! interprocedural rules:
//!
//! - calls made (free/path calls, `self.` method calls, plain method
//!   calls), each with the lock guards live at the call site;
//! - panic-capable tokens ([`panic_site`], the recogniser R1 shares);
//! - lock acquisitions (`.lock()` / argument-less `.read()`/`.write()`)
//!   in program order, with guard liveness tracked across `let`
//!   bindings, block scopes and explicit `drop(guard)`;
//! - blocking calls made while a named guard is live.
//!
//! Test code is decided here, once: an item under an outer
//! `#[cfg(test)]`/`#[test]`, a statement under one inside a body, and
//! the whole enclosing file or inline module under an inner
//! `#![cfg(test)]` (an attribute naming `test` without `not`). Test
//! tokens contribute no facts and no token-rule findings.
//!
//! The parser inherits the lexer's two hard guarantees — **never
//! panics, always terminates** on arbitrary token soup (pinned by the
//! properties in `tests/syntax_golden.rs`). All indexing goes through
//! `get`, every loop advances the cursor, and recursion is capped at
//! [`MAX_DEPTH`] (deeper nesting is skipped, not followed).

use crate::lexer::{TokKind, Token};

/// Recursion cap for nested modules/impls/functions. Real code nests a
/// handful of levels; token soup can nest arbitrarily and must not
/// overflow the stack.
pub const MAX_DEPTH: usize = 64;

/// Everything recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    /// `use a::b::c;` / `use a::b as d;` — local name → path as written.
    pub uses: Vec<UseItem>,
    /// `use a::b::*;` — base paths of glob imports.
    pub globs: Vec<Vec<String>>,
    /// Inline-module paths inside the file; [`TokScope::module`] indexes
    /// it, and entry 0 is the file's own module (`[]`).
    pub modules: Vec<Vec<String>>,
    /// One scope per input token, in token order.
    pub scopes: Vec<TokScope>,
}

/// Where one token sits, as the token rules see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokScope {
    /// Index into [`FileItems::modules`].
    pub module: usize,
    /// Test code: exempt from the rules.
    pub test: bool,
    /// Inside a `loop`/`while`/`for` body (rule R8).
    pub in_loop: bool,
}

/// One `use` binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseItem {
    /// The name the import binds locally.
    pub alias: String,
    /// Full path segments as written (leading `crate`/`self`/`super`
    /// kept; normalization happens in the call graph).
    pub path: Vec<String>,
}

/// How a call site is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)`, `a::b::foo(…)`, `Type::foo(…)`.
    Path,
    /// `self.foo(…)` — resolvable against the enclosing impl.
    MethodSelf,
    /// `expr.foo(…)` — resolvable only by name uniqueness.
    Method,
}

/// One call made inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments; a method call carries just the method name.
    pub path: Vec<String>,
    pub kind: CallKind,
    pub line: u32,
    /// Local lock identities (see [`LockEvent::lock`]) held here.
    pub held: Vec<String>,
}

/// One panic-capable token.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// `.unwrap()`, `panic!`, … — for diagnostics.
    pub what: String,
    pub line: u32,
}

/// One lock acquisition, in program order.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Receiver chain as written, e.g. `self.inner`, `STORE`,
    /// `self.state.wal`. Normalized per-crate in the call graph.
    pub lock: String,
    /// `lock`, `read` or `write`.
    pub op: &'static str,
    pub line: u32,
    /// Lock identities already held when this one is acquired.
    pub held: Vec<String>,
}

/// A blocking call made while a *named* guard is live (the
/// same-expression-chain case stays with token rule R4).
#[derive(Debug, Clone)]
pub struct BlockedHold {
    pub lock: String,
    pub call: String,
    pub line: u32,
}

/// One function (free fn, inherent/trait method, or trait default).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inline `mod` nesting inside the file (the file's own module path
    /// is prepended by the caller).
    pub mods: Vec<String>,
    /// Enclosing `impl`/`trait` self-type name, if any.
    pub self_ty: Option<String>,
    pub line: u32,
    /// Under `#[cfg(test)]`/`#[test]` (file-level test context is the
    /// caller's business).
    pub test: bool,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    pub locks: Vec<LockEvent>,
    pub blocked: Vec<BlockedHold>,
}

/// Macros that abort.
const PANIC_MACROS: &[&[u8]] = &[b"panic", b"unreachable", b"todo", b"unimplemented"];

/// Calls that block the current thread: R4 within one expression
/// chain, R6 while a named guard is live.
pub(crate) const BLOCKING_CALLS: &[&[u8]] = &[
    b"recv",
    b"recv_timeout",
    b"recv_deadline",
    b"accept",
    b"wait",
    b"wait_timeout",
    b"join",
    b"read_exact",
    b"read_to_end",
    b"read_to_string",
    b"write_all",
    b"sync_all",
    b"sync_data",
];

pub(crate) fn is_punct(t: &Token<'_>, s: &[u8]) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

pub(crate) fn is_ident(t: &Token<'_>, s: &[u8]) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn text(t: &Token<'_>) -> String {
    String::from_utf8_lossy(t.text).into_owned()
}

/// The one panic-site recogniser, behind both R1's findings and
/// [`FnItem::panics`] (R5's seeds): the token at `i` as `.unwrap()`,
/// `.expect()` or an aborting macro (`panic!`, …), rendered for
/// diagnostics.
pub(crate) fn panic_site(toks: &[Token<'_>], i: usize) -> Option<String> {
    let t = toks.get(i).filter(|t| t.kind == TokKind::Ident)?;
    let next = toks.get(i + 1);
    let after_dot = i.checked_sub(1).and_then(|p| toks.get(p)).is_some_and(|p| is_punct(p, b"."));
    if after_dot
        && matches!(t.text, b"unwrap" | b"expect")
        && next.is_some_and(|n| is_punct(n, b"("))
    {
        Some(format!(".{}()", text(t)))
    } else if PANIC_MACROS.contains(&t.text) && next.is_some_and(|n| is_punct(n, b"!")) {
        Some(format!("{}!", text(t)))
    } else {
        None
    }
}

/// Parse one file's comment-free token stream into its item tree.
/// `toks` must not contain comment tokens (filter first).
pub fn parse(toks: &[Token<'_>]) -> FileItems {
    let out = FileItems {
        modules: vec![Vec::new()],
        scopes: vec![TokScope::default(); toks.len()],
        ..FileItems::default()
    };
    let mut p = Parser { t: toks, i: 0, cur: TokScope::default(), out };
    // A stray `}` ends an item list; carry on so every token is scoped.
    while p.i < toks.len() {
        p.items(&mut Vec::new(), None, false, 0);
    }
    p.out
}

struct Parser<'a, 't> {
    t: &'a [Token<'t>],
    i: usize,
    /// The scope every token the cursor passes is recorded with.
    cur: TokScope,
    out: FileItems,
}

impl Parser<'_, '_> {
    fn at(&self, off: usize) -> Option<&Token<'_>> {
        self.t.get(self.i + off)
    }

    /// Record the token at the cursor in the current scope and step
    /// past it. Every forward move of the cursor goes through here.
    fn bump(&mut self) {
        if let Some(s) = self.out.scopes.get_mut(self.i) {
            *s = self.cur;
        }
        self.i += 1;
    }

    fn advance_to(&mut self, end: usize) {
        while self.i < end {
            self.bump();
        }
    }

    /// Skip a balanced group opened by the token at the cursor (`{`,
    /// `(` or `[`). Cursor ends after the closing delimiter (or at end
    /// of input). Delimiters of all three kinds are balanced together.
    fn skip_balanced(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.t.get(self.i) {
            if t.kind == TokKind::Punct {
                match t.text {
                    b"{" | b"(" | b"[" => depth += 1,
                    b"}" | b")" | b"]" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.bump();
                            return;
                        }
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skip to the end of a brace-less item: past the next `;` at
    /// delimiter depth 0, or past a balanced `{…}` body (struct/enum
    /// with a brace body, e.g. `struct S { x: u8 }`).
    fn skip_item(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.t.get(self.i) {
            if t.kind == TokKind::Punct {
                match t.text {
                    b"(" | b"[" => depth += 1,
                    b")" | b"]" => depth -= 1,
                    b";" if depth <= 0 => {
                        self.bump();
                        return;
                    }
                    b"{" if depth <= 0 => {
                        self.skip_balanced();
                        return;
                    }
                    b"}" if depth <= 0 => return, // stray close: caller's
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Consume an attribute `#[…]` / `#![…]`; returns whether it marks
    /// test context (`test`/`tests` without `not` anywhere inside).
    fn attr(&mut self) -> bool {
        self.bump(); // '#'
        if self.at(0).is_some_and(|t| is_punct(t, b"!")) {
            self.bump();
        }
        let (mut saw_test, mut saw_not) = (false, false);
        if self.at(0).is_some_and(|t| is_punct(t, b"[")) {
            let mut depth = 0i64;
            while let Some(t) = self.t.get(self.i) {
                if is_punct(t, b"[") {
                    depth += 1;
                } else if is_punct(t, b"]") {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        break;
                    }
                } else if is_ident(t, b"test") || is_ident(t, b"tests") {
                    saw_test = true;
                } else if is_ident(t, b"not") {
                    saw_not = true;
                }
                self.bump();
            }
        }
        saw_test && !saw_not
    }

    /// Parse items until a closing `}` (consumed) or end of input.
    fn items(
        &mut self,
        mods: &mut Vec<String>,
        self_ty: Option<&str>,
        mut in_test: bool,
        depth: usize,
    ) {
        let mut pending_test = false;
        while let Some(t) = self.t.get(self.i) {
            if is_punct(t, b"}") {
                self.bump();
                return;
            }
            if is_punct(t, b"#")
                && self.at(1).is_some_and(|n| is_punct(n, b"[") || is_punct(n, b"!"))
            {
                // An inner attribute covers the whole enclosing file or
                // module, an outer one the item that follows.
                let inner = self.at(1).is_some_and(|n| is_punct(n, b"!"));
                if self.attr() {
                    if inner {
                        in_test = true;
                    } else {
                        pending_test = true;
                    }
                }
                continue;
            }
            self.cur.test = in_test || pending_test;
            if t.kind == TokKind::Ident {
                match t.text {
                    b"pub" => {
                        self.bump();
                        // `pub(crate)` / `pub(in path)`.
                        if self.at(0).is_some_and(|n| is_punct(n, b"(")) {
                            self.skip_balanced();
                        }
                        continue;
                    }
                    b"unsafe" | b"async" | b"default" => {
                        self.bump();
                        continue;
                    }
                    b"const" => {
                        // `const fn` keeps going; `const NAME: … = …;` skips.
                        if self.at(1).is_some_and(|n| is_ident(n, b"fn")) {
                            self.bump();
                        } else {
                            self.skip_item();
                            pending_test = false;
                        }
                        continue;
                    }
                    b"extern" => {
                        // `extern "C" fn` prefix or an extern block.
                        self.bump();
                        if self.at(0).is_some_and(|n| n.kind == TokKind::Str) {
                            self.bump();
                        }
                        if self.at(0).is_some_and(|n| is_punct(n, b"{")) {
                            self.skip_balanced();
                            pending_test = false;
                        }
                        continue;
                    }
                    b"use" => {
                        self.bump();
                        self.parse_use();
                        pending_test = false;
                        continue;
                    }
                    b"mod" => {
                        let name = self.at(1).filter(|n| n.kind == TokKind::Ident).map(text);
                        self.bump();
                        if name.is_some() {
                            self.bump();
                        }
                        match (name, self.at(0)) {
                            (Some(name), Some(n)) if is_punct(n, b"{") => {
                                self.bump();
                                if depth >= MAX_DEPTH {
                                    self.i = self.i.saturating_sub(1);
                                    self.skip_balanced();
                                } else {
                                    mods.push(name);
                                    let outer = self.cur;
                                    self.cur.module = self.out.modules.len();
                                    self.out.modules.push(mods.clone());
                                    self.items(mods, None, in_test || pending_test, depth + 1);
                                    self.cur = outer;
                                    mods.pop();
                                }
                            }
                            _ => self.skip_item(), // `mod name;`
                        }
                        pending_test = false;
                        continue;
                    }
                    b"impl" => {
                        self.bump();
                        let ty = self.impl_self_ty();
                        if self.at(0).is_some_and(|n| is_punct(n, b"{")) {
                            self.bump();
                            if depth >= MAX_DEPTH {
                                self.i = self.i.saturating_sub(1);
                                self.skip_balanced();
                            } else {
                                self.items(mods, ty.as_deref(), in_test || pending_test, depth + 1);
                            }
                        }
                        pending_test = false;
                        continue;
                    }
                    b"trait" => {
                        let name = self.at(1).filter(|n| n.kind == TokKind::Ident).map(text);
                        self.bump();
                        if name.is_some() {
                            self.bump();
                        }
                        // Skip generics/supertraits/where to the body.
                        while let Some(n) = self.t.get(self.i) {
                            if is_punct(n, b"{") || is_punct(n, b";") || is_punct(n, b"}") {
                                break;
                            }
                            self.bump();
                        }
                        if self.at(0).is_some_and(|n| is_punct(n, b"{")) {
                            self.bump();
                            if depth >= MAX_DEPTH {
                                self.i = self.i.saturating_sub(1);
                                self.skip_balanced();
                            } else {
                                self.items(
                                    mods,
                                    name.as_deref(),
                                    in_test || pending_test,
                                    depth + 1,
                                );
                            }
                        } else if self.at(0).is_some_and(|n| is_punct(n, b";")) {
                            self.bump();
                        }
                        pending_test = false;
                        continue;
                    }
                    b"fn" => {
                        self.parse_fn(mods, self_ty, depth);
                        pending_test = false;
                        continue;
                    }
                    b"struct" | b"enum" | b"union" | b"static" | b"type" | b"macro_rules" => {
                        self.skip_item();
                        pending_test = false;
                        continue;
                    }
                    _ => {}
                }
            }
            // Anything unrecognized (stray tokens, `;`, macro invocations
            // at item level): advance, balancing groups so their contents
            // are not misread as items. A `;` or a `{…}` group ends the
            // item an attribute was for.
            if t.kind == TokKind::Punct && matches!(t.text, b"{" | b"(" | b"[") {
                self.skip_balanced();
            } else {
                self.bump();
            }
            if is_punct(t, b";") || is_punct(t, b"{") {
                pending_test = false;
            }
        }
    }

    /// After `impl`: skip generics, read the self type (after `for` when
    /// present), stop before the body `{` / terminating `;`. Returns the
    /// self type's last path-segment name.
    fn impl_self_ty(&mut self) -> Option<String> {
        // Leading generics `<…>`.
        if self.at(0).is_some_and(|t| is_punct(t, b"<")) {
            self.skip_angles();
        }
        let mut last_ident: Option<String> = None;
        while let Some(t) = self.t.get(self.i) {
            if is_punct(t, b"{") || is_punct(t, b";") || is_punct(t, b"}") {
                break;
            }
            if is_ident(t, b"where") {
                // Bounds follow; the name is already decided.
                while let Some(n) = self.t.get(self.i) {
                    if is_punct(n, b"{") || is_punct(n, b";") || is_punct(n, b"}") {
                        break;
                    }
                    self.bump();
                }
                break;
            }
            if is_ident(t, b"for") {
                last_ident = None;
                self.bump();
                continue;
            }
            if is_punct(t, b"<") {
                self.skip_angles();
                continue;
            }
            if t.kind == TokKind::Ident
                && !matches!(t.text, b"dyn" | b"mut" | b"const" | b"unsafe" | b"impl")
            {
                last_ident = Some(text(t));
            }
            self.bump();
        }
        last_ident
    }

    /// Skip a `<…>` group starting at `<`. `>>`/`>=`-style puncts close
    /// the right number of levels; gives up at `{`/`;` (malformed).
    fn skip_angles(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.t.get(self.i) {
            if t.kind == TokKind::Punct {
                match t.text {
                    b"<" => depth += 1,
                    b"<<" => depth += 2,
                    b">" => depth -= 1,
                    b">>" => depth -= 2,
                    b"{" | b";" => return,
                    _ => {}
                }
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// `use` declaration after the keyword. Handles `a::b::c`, `as`
    /// renames, nested `{…}` groups and `*` globs.
    fn parse_use(&mut self) {
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut prefix, 0);
        // Consume the trailing `;` if present.
        if self.at(0).is_some_and(|t| is_punct(t, b";")) {
            self.bump();
        }
    }

    fn use_tree(&mut self, prefix: &mut Vec<String>, depth: usize) {
        let base_len = prefix.len();
        let mut last: Option<String> = None;
        while let Some(t) = self.t.get(self.i) {
            if is_punct(t, b";") || is_punct(t, b",") || is_punct(t, b"}") {
                break;
            }
            if t.kind == TokKind::Ident && t.text != b"as" {
                last = Some(text(t));
                self.bump();
                continue;
            }
            if is_punct(t, b"::") {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                self.bump();
                // Nested group or glob?
                match self.t.get(self.i) {
                    Some(n) if is_punct(n, b"{") => {
                        self.bump();
                        if depth < MAX_DEPTH {
                            loop {
                                self.use_tree(prefix, depth + 1);
                                match self.t.get(self.i) {
                                    Some(n) if is_punct(n, b",") => self.bump(),
                                    Some(n) if is_punct(n, b"}") => {
                                        self.bump();
                                        break;
                                    }
                                    _ => break,
                                }
                            }
                        } else {
                            self.i = self.i.saturating_sub(1);
                            self.skip_balanced();
                        }
                        prefix.truncate(base_len);
                        return;
                    }
                    Some(n) if is_punct(n, b"*") => {
                        self.out.globs.push(prefix.clone());
                        self.bump();
                        prefix.truncate(base_len);
                        return;
                    }
                    _ => continue,
                }
            }
            if is_ident(t, b"as") {
                self.bump();
                let rename = self.at(0).filter(|n| n.kind == TokKind::Ident).map(text);
                if rename.is_some() {
                    self.bump();
                }
                if let (Some(name), Some(alias)) = (last.take(), rename) {
                    let mut path = prefix.clone();
                    path.push(name);
                    self.out.uses.push(UseItem { alias, path });
                }
                continue;
            }
            // `*` glob right after the prefix (no `::` seen — `use x::*`
            // is handled above; a bare `use *` is nonsense, skip).
            self.bump();
        }
        if let Some(name) = last {
            let mut path = prefix.clone();
            path.push(name.clone());
            // `use a::b::self;` → the module itself under its own name.
            let alias = if name == "self" {
                path.pop();
                match path.last() {
                    Some(m) => m.clone(),
                    None => {
                        prefix.truncate(base_len);
                        return;
                    }
                }
            } else {
                name
            };
            self.out.uses.push(UseItem { alias, path });
        }
        prefix.truncate(base_len);
    }

    /// `fn` item: signature, then body fact collection. The function is
    /// test code when its `fn` token is.
    fn parse_fn(&mut self, mods: &[String], self_ty: Option<&str>, depth: usize) {
        let test = self.cur.test;
        let fn_line = self.t.get(self.i).map(|t| t.line).unwrap_or(0);
        self.bump(); // `fn`
        let Some(name_tok) = self.at(0).filter(|n| n.kind == TokKind::Ident) else {
            return;
        };
        let name = text(name_tok);
        self.bump();
        // Generics.
        if self.at(0).is_some_and(|t| is_punct(t, b"<")) {
            self.skip_angles();
        }
        // Parameters.
        if self.at(0).is_some_and(|t| is_punct(t, b"(")) {
            self.skip_balanced();
        }
        // Return type / where clause: scan to body `{` or `;`.
        while let Some(t) = self.t.get(self.i) {
            if is_punct(t, b"{") || is_punct(t, b";") || is_punct(t, b"}") {
                break;
            }
            self.bump();
        }
        let mut item = FnItem {
            name,
            mods: mods.to_vec(),
            self_ty: self_ty.map(str::to_string),
            line: fn_line,
            test,
            calls: Vec::new(),
            panics: Vec::new(),
            locks: Vec::new(),
            blocked: Vec::new(),
        };
        match self.t.get(self.i) {
            Some(t) if is_punct(t, b"{") => {
                self.bump();
                self.body(&mut item, mods, self_ty, depth);
            }
            Some(t) if is_punct(t, b";") => self.bump(),
            _ => {}
        }
        self.out.fns.push(item);
    }

    /// Function body: collect call/panic/lock facts until the matching
    /// `}`, and scope its tokens — a statement under a test attribute is
    /// test code, a `loop`/`while`/`for` body is a loop. Test tokens
    /// contribute no facts. Guard liveness is tracked with a scope
    /// stack; nested `fn` items are parsed as their own functions (their
    /// tokens do not contribute facts to the enclosing one).
    fn body(&mut self, item: &mut FnItem, mods: &[String], self_ty: Option<&str>, depth: usize) {
        let outer = self.cur;
        // Guards per open brace scope; index 0 is the body itself.
        let mut scopes: Vec<Vec<(Option<String>, String)>> = vec![Vec::new()];
        // Whether each open brace scope is a loop body, parallel to `scopes`.
        let mut loops: Vec<bool> = vec![outer.in_loop];
        // Index of the first token of the current statement.
        let mut stmt_start = self.i;
        // `(`/`[` nesting: a `;` inside them ends no statement.
        let mut brackets = 0i64;
        // A `loop`/`while`/`for` seen, its body `{` not yet.
        let mut pending_loop = false;
        // Brace depth of the statement a test attribute marked, until it ends.
        let mut test_stmt: Option<usize> = None;

        while let Some(t) = self.t.get(self.i).copied() {
            self.cur.test = item.test || test_stmt.is_some();
            self.cur.in_loop = loops.last().copied().unwrap_or(outer.in_loop);
            if is_punct(&t, b"#")
                && self.at(1).is_some_and(|n| is_punct(n, b"[") || is_punct(n, b"!"))
            {
                if self.attr() && test_stmt.is_none() {
                    test_stmt = Some(scopes.len());
                }
                continue;
            }
            if is_punct(&t, b"{") {
                if scopes.len() >= MAX_DEPTH {
                    self.skip_balanced();
                    continue;
                }
                scopes.push(Vec::new());
                loops.push(pending_loop || self.cur.in_loop);
                pending_loop = false;
                self.bump();
                stmt_start = self.i;
                continue;
            }
            if is_punct(&t, b"}") {
                scopes.pop();
                loops.pop();
                self.bump();
                stmt_start = self.i;
                if scopes.is_empty() {
                    self.cur = outer;
                    return;
                }
                if test_stmt.is_some_and(|d| scopes.len() <= d) {
                    test_stmt = None;
                }
                continue;
            }
            if is_punct(&t, b";") {
                // Temporary (unnamed) guards die at statement end.
                if let Some(top) = scopes.last_mut() {
                    top.retain(|(name, _)| name.is_some());
                }
                self.bump();
                stmt_start = self.i;
                if brackets <= 0 {
                    pending_loop = false;
                    if test_stmt == Some(scopes.len()) {
                        test_stmt = None;
                    }
                }
                continue;
            }
            if is_ident(&t, b"fn") && depth < MAX_DEPTH {
                self.parse_fn(mods, self_ty, depth + 1);
                stmt_start = self.i;
                if test_stmt == Some(scopes.len()) {
                    test_stmt = None;
                }
                continue;
            }
            let prev = self.i.checked_sub(1).and_then(|p| self.t.get(p));
            if is_ident(&t, b"loop") || is_ident(&t, b"while") {
                pending_loop = true;
            } else if is_ident(&t, b"for")
                && !self.at(1).is_some_and(|n| is_punct(n, b"<"))
                && !prev.is_some_and(|p| p.kind == TokKind::Ident || is_punct(p, b">"))
            {
                // `for x in …`, but not `impl X for Y` or `for<'a>`.
                pending_loop = true;
            }
            // `drop(g)` releases the named guard.
            if is_ident(&t, b"drop")
                && self.at(1).is_some_and(|n| is_punct(n, b"("))
                && self.at(2).is_some_and(|n| n.kind == TokKind::Ident)
                && self.at(3).is_some_and(|n| is_punct(n, b")"))
            {
                let victim = self.at(2).map(text).unwrap_or_default();
                for scope in scopes.iter_mut().rev() {
                    if let Some(pos) =
                        scope.iter().rposition(|(n, _)| n.as_deref() == Some(victim.as_str()))
                    {
                        scope.remove(pos);
                        break;
                    }
                }
                self.advance_to(self.i + 4);
                continue;
            }

            if t.kind == TokKind::Ident && !self.cur.test {
                let next = self.at(1);
                let is_dot_call = prev.is_some_and(|p| is_punct(p, b"."))
                    && next.is_some_and(|n| is_punct(n, b"("));

                if let Some(what) = panic_site(self.t, self.i) {
                    item.panics.push(PanicSite { what, line: t.line });
                }

                // Lock acquisition: `.lock()` / `.read()` / `.write()`
                // with no arguments.
                if is_dot_call
                    && matches!(t.text, b"lock" | b"read" | b"write")
                    && self.at(2).is_some_and(|n| is_punct(n, b")"))
                {
                    let op: &'static str = match t.text {
                        b"lock" => "lock",
                        b"read" => "read",
                        _ => "write",
                    };
                    let lock = self.receiver_chain(self.i);
                    if !lock.is_empty() {
                        let held: Vec<String> =
                            live_guards(&scopes).filter(|l| **l != lock).cloned().collect();
                        item.locks.push(LockEvent { lock: lock.clone(), op, line: t.line, held });
                        // If the chain keeps going past recovery
                        // adapters (`.lock().unwrap_or_else(..).take()`),
                        // the binding holds a value derived *from* the
                        // guard; the guard itself is a temporary that
                        // dies at the statement end.
                        let guard = if self.chain_consumes_guard(self.i + 3) {
                            None
                        } else {
                            self.binding_name(stmt_start)
                        };
                        if let Some(top) = scopes.last_mut() {
                            top.push((guard, lock));
                        }
                        self.advance_to(self.i + 3); // name, '(', ')'
                        continue;
                    }
                }

                // Blocking call with a named guard live.
                if is_dot_call && BLOCKING_CALLS.contains(&t.text) {
                    let named: Vec<String> = scopes
                        .iter()
                        .flatten()
                        .filter(|(n, _)| n.is_some())
                        .map(|(_, l)| l.clone())
                        .collect();
                    for lock in named {
                        item.blocked.push(BlockedHold { lock, call: text(&t), line: t.line });
                    }
                }

                // Call sites.
                if next.is_some_and(|n| is_punct(n, b"(")) {
                    let held: Vec<String> = live_guards(&scopes).cloned().collect();
                    if prev.is_some_and(|p| is_punct(p, b".")) {
                        // Method call — skip trivial adapters that are
                        // never workspace functions worth an edge.
                        let kind = if self.i >= 2
                            && self.t.get(self.i - 2).is_some_and(|r| is_ident(r, b"self"))
                            && (self.i < 3
                                || !self
                                    .t
                                    .get(self.i - 3)
                                    .is_some_and(|r| is_punct(r, b".") || is_punct(r, b"::")))
                        {
                            CallKind::MethodSelf
                        } else {
                            CallKind::Method
                        };
                        item.calls.push(CallSite {
                            path: vec![text(&t)],
                            kind,
                            line: t.line,
                            held,
                        });
                    } else if !prev.is_some_and(|p| is_punct(p, b"::")) {
                        // Path call: this ident is the path head; gather
                        // `seg::seg::…::name(` forward.
                        let (path, end) = self.path_forward(self.i);
                        if self.t.get(end).is_some_and(|n| is_punct(n, b"(")) {
                            item.calls.push(CallSite {
                                path,
                                kind: CallKind::Path,
                                line: t.line,
                                held,
                            });
                        }
                    }
                } else if !prev.is_some_and(|p| is_punct(p, b".") || is_punct(p, b"::")) {
                    // Maybe the head of a multi-segment path call.
                    let (path, end) = self.path_forward(self.i);
                    if path.len() > 1 && self.t.get(end).is_some_and(|n| is_punct(n, b"(")) {
                        let held: Vec<String> = live_guards(&scopes).cloned().collect();
                        let line = t.line;
                        item.calls.push(CallSite { path, kind: CallKind::Path, line, held });
                        self.advance_to(end);
                        continue;
                    }
                }
            }

            if t.kind == TokKind::Punct {
                match t.text {
                    b"(" | b"[" => brackets += 1,
                    b")" | b"]" => brackets -= 1,
                    _ => {}
                }
            }
            self.bump();
        }
        self.cur = outer;
    }

    /// Forward scan of `seg(::seg)*` starting at an ident; returns the
    /// segments and the index just past the last segment.
    fn path_forward(&self, start: usize) -> (Vec<String>, usize) {
        let mut segs = Vec::new();
        let mut i = start;
        loop {
            match self.t.get(i) {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(text(t));
                    i += 1;
                }
                _ => break,
            }
            match self.t.get(i) {
                Some(t) if is_punct(t, b"::") => i += 1,
                _ => break,
            }
        }
        (segs, i)
    }

    /// Backward scan of the receiver chain before `.name()` at `at`:
    /// `self.state.wal` ← idents/`self` joined by `.`/`::`. Stops at
    /// anything else (`)`, literals, operators): the chain is then
    /// partial but still usable as a local identity.
    fn receiver_chain(&self, at: usize) -> String {
        let mut segs: Vec<String> = Vec::new();
        let mut i = at;
        // Expect a separator before the current position.
        while let Some(sep) = i.checked_sub(1).and_then(|p| self.t.get(p)) {
            if !(is_punct(sep, b".") || is_punct(sep, b"::")) {
                break;
            }
            let Some(seg) = i.checked_sub(2).and_then(|p| self.t.get(p)) else { break };
            if seg.kind != TokKind::Ident {
                break;
            }
            segs.push(text(seg));
            i -= 2;
        }
        segs.reverse();
        segs.join(".")
    }

    /// Look ahead from just past a `.lock()`/`.read()`/`.write()` call
    /// (`j` points at the token after the closing `)`) and decide
    /// whether the method chain *consumes* the guard: chains that
    /// continue past the poison-recovery adapters (`.unwrap()`,
    /// `.expect(..)`, `.unwrap_or_else(..)`) or a `?` with a further
    /// method call or field access bind a derived value, not the
    /// guard itself.
    fn chain_consumes_guard(&self, mut j: usize) -> bool {
        loop {
            let Some(t) = self.t.get(j) else { return false };
            if is_punct(t, b"?") {
                j += 1;
                continue;
            }
            if !is_punct(t, b".") {
                return false;
            }
            let Some(name) = self.t.get(j + 1) else { return false };
            if name.kind != TokKind::Ident {
                // `.0`, `.await`, … — a projection/consumption.
                return true;
            }
            let called = self.t.get(j + 2).is_some_and(|n| is_punct(n, b"("));
            if !called {
                // Field access: binds the field, not the guard.
                return true;
            }
            if !matches!(name.text, b"unwrap" | b"expect" | b"unwrap_or_else") {
                return true;
            }
            // Skip the adapter's balanced argument list.
            let mut depth = 0i64;
            j += 2;
            while let Some(t) = self.t.get(j) {
                if t.kind == TokKind::Punct {
                    match t.text {
                        b"(" | b"[" | b"{" => depth += 1,
                        b")" | b"]" | b"}" => {
                            depth -= 1;
                            if depth <= 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
        }
    }

    /// If the statement starting at `stmt_start` is a `let` binding,
    /// return the bound name (the last plain identifier before `=`,
    /// skipping `mut`/`ref` and pattern constructors).
    fn binding_name(&self, stmt_start: usize) -> Option<String> {
        let first = self.t.get(stmt_start)?;
        if !is_ident(first, b"let") {
            return None;
        }
        let mut name: Option<String> = None;
        let mut i = stmt_start + 1;
        while i < self.i {
            let t = self.t.get(i)?;
            if is_punct(t, b"=") {
                return name;
            }
            if t.kind == TokKind::Ident
                && !matches!(t.text, b"mut" | b"ref" | b"Ok" | b"Some" | b"Err" | b"box")
            {
                name = Some(text(t));
            }
            i += 1;
        }
        None
    }
}

fn live_guards(scopes: &[Vec<(Option<String>, String)>]) -> impl Iterator<Item = &String> {
    scopes.iter().flatten().map(|(_, l)| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileItems {
        let toks = lex(src.as_bytes());
        let sig: Vec<Token<'_>> = toks.into_iter().filter(|t| !t.is_comment()).collect();
        parse(&sig)
    }

    #[test]
    fn recovers_fns_mods_impls() {
        let items = parse_src(
            "fn free() {}\n\
             mod inner { pub fn nested() {} }\n\
             struct S;\n\
             impl S { fn method(&self) { self.helper(); } fn helper(&self) {} }\n\
             impl std::fmt::Display for S { fn fmt(&self) {} }",
        );
        let names: Vec<(String, Vec<String>, Option<String>)> =
            items.fns.iter().map(|f| (f.name.clone(), f.mods.clone(), f.self_ty.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), vec![], None),
                ("nested".into(), vec!["inner".into()], None),
                ("method".into(), vec![], Some("S".into())),
                ("helper".into(), vec![], Some("S".into())),
                ("fmt".into(), vec![], Some("S".into())),
            ]
        );
        let method = &items.fns[2];
        assert_eq!(method.calls.len(), 1);
        assert_eq!(method.calls[0].kind, CallKind::MethodSelf);
        assert_eq!(method.calls[0].path, vec!["helper".to_string()]);
    }

    #[test]
    fn use_renames_and_globs() {
        let items = parse_src(
            "use a::b::c;\n\
             use x::y as z;\n\
             use m::{n, o as p, q::r};\n\
             use w::*;",
        );
        let u: Vec<(String, Vec<String>)> =
            items.uses.iter().map(|u| (u.alias.clone(), u.path.clone())).collect();
        assert!(u.contains(&("c".into(), vec!["a".into(), "b".into(), "c".into()])));
        assert!(u.contains(&("z".into(), vec!["x".into(), "y".into()])));
        assert!(u.contains(&("n".into(), vec!["m".into(), "n".into()])));
        assert!(u.contains(&("p".into(), vec!["m".into(), "o".into()])));
        assert!(u.contains(&("r".into(), vec!["m".into(), "q".into(), "r".into()])));
        assert_eq!(items.globs, vec![vec!["w".to_string()]]);
    }

    #[test]
    fn panic_and_call_facts() {
        let items =
            parse_src("fn f(x: Option<u8>) -> u8 { helper(); codec::decode(x); x.unwrap() }");
        let f = &items.fns[0];
        assert_eq!(f.panics.len(), 1);
        assert_eq!(f.panics[0].what, ".unwrap()");
        let paths: Vec<Vec<String>> = f.calls.iter().map(|c| c.path.clone()).collect();
        assert!(paths.contains(&vec!["helper".to_string()]));
        assert!(paths.contains(&vec!["codec".to_string(), "decode".to_string()]));
    }

    #[test]
    fn lock_order_and_guard_liveness() {
        let items = parse_src(
            "fn f(&self) {\n\
                 let a = self.first.lock();\n\
                 let b = self.second.lock();\n\
                 drop(a);\n\
                 let c = self.third.lock();\n\
             }",
        );
        let f = &items.fns[0];
        assert_eq!(f.locks.len(), 3);
        assert_eq!(f.locks[0].lock, "self.first");
        assert!(f.locks[0].held.is_empty());
        assert_eq!(f.locks[1].held, vec!["self.first".to_string()]);
        // After drop(a) only b is live.
        assert_eq!(f.locks[2].held, vec!["self.second".to_string()]);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let items = parse_src("fn f(&self) { self.a.lock().push(1); let g = self.b.lock(); }");
        let f = &items.fns[0];
        assert_eq!(f.locks.len(), 2);
        assert!(f.locks[1].held.is_empty(), "temporary guard must not outlive its statement");
    }

    #[test]
    fn blocking_call_with_named_guard() {
        let items = parse_src("fn f(&self) { let g = self.state.lock(); let x = rx.recv(); }");
        let f = &items.fns[0];
        assert_eq!(f.blocked.len(), 1);
        assert_eq!(f.blocked[0].lock, "self.state");
        assert_eq!(f.blocked[0].call, "recv");
    }

    #[test]
    fn consumed_guard_chain_is_a_temporary() {
        // `.take()` past the recovery adapter binds the taken value,
        // not the guard — the guard dies at the `;`, so the later
        // blocking call runs lock-free.
        let items = parse_src(
            "fn f(&self) {\n\
                 let h = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();\n\
                 let r = h.join();\n\
             }",
        );
        let f = &items.fns[0];
        assert_eq!(f.locks.len(), 1, "the .lock() is still recorded");
        assert!(f.blocked.is_empty(), "no named guard is live at the join");
    }

    #[test]
    fn unwrapped_guard_binding_stays_named() {
        let items =
            parse_src("fn f(&self) { let g = self.state.lock().unwrap(); let x = rx.recv(); }");
        let f = &items.fns[0];
        assert_eq!(f.blocked.len(), 1, ".unwrap() alone still yields the guard");
        assert_eq!(f.blocked[0].lock, "self.state");
    }

    #[test]
    fn cfg_test_marks_functions() {
        let items = parse_src("#[cfg(test)]\nmod tests { fn helper() {} }\nfn prod() {}");
        assert!(items.fns[0].test);
        assert!(!items.fns[1].test);
    }

    #[test]
    fn scope_exit_releases_guards() {
        let items = parse_src("fn f(&self) { { let g = self.a.lock(); } let h = self.b.lock(); }");
        let f = &items.fns[0];
        assert!(f.locks[1].held.is_empty(), "guard from a closed block is dead");
    }

    #[test]
    fn read_write_with_args_are_not_locks() {
        let items =
            parse_src("fn f(&self) { file.read(&mut buf); sock.write(&data); map.read(); }");
        let f = &items.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].lock, "map");
        assert_eq!(f.locks[0].op, "read");
    }
}
