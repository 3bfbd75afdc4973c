//! A hand-rolled Rust lexer, just enough for token-stream linting.
//!
//! Fidelity targets the constructs that break naive regex linting:
//! nested `/* /* */ */` block comments, raw strings with arbitrary `#`
//! fences, byte/C strings, raw identifiers, `'a` lifetimes vs `'a'`
//! char literals, numeric literals with base prefixes and type
//! suffixes, and longest-match punctuation (`<<=` before `<<`).
//!
//! Two hard guarantees, pinned by the fuzz tests in
//! `tests/lexer_golden.rs`:
//!
//! 1. **Never panics** — tokens are byte slices, so input that is not
//!    valid UTF-8 (or not valid Rust) still lexes.
//! 2. **Always terminates** — every loop advances the cursor by at
//!    least one byte; unterminated literals and comments simply end at
//!    end-of-input.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers like `r#match` included).
    Ident,
    /// `'a`, `'static`, `'outer` — lifetime or loop label, not a char.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Any string literal: `"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `c"…"`.
    Str,
    /// Integer literal, any base or suffix (`0x1E`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `1e9`, `3.14f64`, `1.`).
    Float,
    /// Operator or delimiter, longest-match.
    Punct,
    /// `// …` to end of line (doc comments included).
    LineComment,
    /// `/* … */` with nesting (doc comments included).
    BlockComment,
}

/// One token: kind, raw bytes, and the 1-based line of its first byte.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    pub kind: TokKind,
    pub text: &'a [u8],
    pub line: u32,
}

impl Token<'_> {
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic() || c >= 0x80
}

fn is_ident_cont(c: u8) -> bool {
    is_ident_start(c) || c.is_ascii_digit()
}

fn scan_ident(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && is_ident_cont(b[pos]) {
        pos += 1;
    }
    pos
}

/// Body of a `"…"` / `'…'` literal after the opening quote; returns the
/// position after the closing quote (or end of input if unterminated).
fn scan_quoted(b: &[u8], mut pos: usize, quote: u8, line: &mut u32) -> usize {
    while pos < b.len() {
        match b[pos] {
            b'\\' => {
                // An escaped newline (string line-continuation) still
                // advances the line counter.
                if b.get(pos + 1) == Some(&b'\n') {
                    *line += 1;
                }
                pos = (pos + 2).min(b.len());
            }
            b'\n' => {
                *line += 1;
                pos += 1;
            }
            c if c == quote => return pos + 1,
            _ => pos += 1,
        }
    }
    pos
}

/// Body of a raw string after `r##…"`: runs to `"` followed by `hashes`
/// `#`s. `pos` is just after the opening quote.
fn scan_raw_string(b: &[u8], mut pos: usize, hashes: usize, line: &mut u32) -> usize {
    while pos < b.len() {
        if b[pos] == b'\n' {
            *line += 1;
        }
        if b[pos] == b'"'
            && b.len() - pos > hashes
            && b[pos + 1..pos + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return pos + 1 + hashes;
        }
        if b[pos] == b'"' && hashes == 0 {
            return pos + 1;
        }
        pos += 1;
    }
    pos
}

/// Numeric literal starting at `pos` (first byte is a digit). Returns
/// (end, kind).
fn scan_number(b: &[u8], mut pos: usize) -> (usize, TokKind) {
    if b[pos] == b'0' && matches!(b.get(pos + 1), Some(b'x' | b'X' | b'o' | b'b')) {
        // Base-prefixed: digits + suffix, never a float (0x1E is an int).
        pos += 2;
        pos = scan_ident(b, pos);
        return (pos, TokKind::Int);
    }
    let mut kind = TokKind::Int;
    while pos < b.len() && (b[pos].is_ascii_digit() || b[pos] == b'_') {
        pos += 1;
    }
    // A dot continues the number only when it cannot start a method
    // call (`1.max(2)`) or a range (`0..10`).
    if pos < b.len() && b[pos] == b'.' {
        let after = b.get(pos + 1).copied();
        let method_or_range = matches!(after, Some(c) if is_ident_start(c) || c == b'.');
        if !method_or_range {
            kind = TokKind::Float;
            pos += 1;
            while pos < b.len() && (b[pos].is_ascii_digit() || b[pos] == b'_') {
                pos += 1;
            }
        }
    }
    if pos < b.len() && (b[pos] == b'e' || b[pos] == b'E') {
        let (sign, digit) = (b.get(pos + 1).copied(), b.get(pos + 2).copied());
        let exp = matches!(sign, Some(c) if c.is_ascii_digit())
            || (matches!(sign, Some(b'+' | b'-'))
                && matches!(digit, Some(c) if c.is_ascii_digit()));
        if exp {
            kind = TokKind::Float;
            pos += 2; // 'e' + first sign/digit
            while pos < b.len() && (b[pos].is_ascii_digit() || b[pos] == b'_') {
                pos += 1;
            }
        }
    }
    // Type suffix (u32, f64, …) — f-suffixes keep Int vs Float as
    // already decided except an explicit float suffix.
    if pos < b.len() && is_ident_start(b[pos]) {
        if b[pos] == b'f' {
            kind = TokKind::Float;
        }
        pos = scan_ident(b, pos);
    }
    (pos, kind)
}

/// Multi-byte puncts, longest first within each arity.
const PUNCTS3: &[&[u8]] = &[b"<<=", b">>=", b"..=", b"..."];
const PUNCTS2: &[&[u8]] = &[
    b"::", b"->", b"=>", b"==", b"!=", b"<=", b">=", b"&&", b"||", b"<<", b">>", b"+=", b"-=",
    b"*=", b"/=", b"%=", b"^=", b"&=", b"|=", b"..",
];

/// Lex a whole source buffer. Whitespace is dropped; comments are kept
/// (the waiver scanner needs them).
pub fn lex(src: &[u8]) -> Vec<Token<'_>> {
    let b = src;
    let mut toks = Vec::new();
    let mut pos = 0usize;
    let mut line = 1u32;
    while pos < b.len() {
        let start = pos;
        let start_line = line;
        let c = b[pos];
        let kind = match c {
            b'\n' => {
                line += 1;
                pos += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                pos += 1;
                continue;
            }
            b'/' if b.get(pos + 1) == Some(&b'/') => {
                while pos < b.len() && b[pos] != b'\n' {
                    pos += 1;
                }
                TokKind::LineComment
            }
            b'/' if b.get(pos + 1) == Some(&b'*') => {
                pos += 2;
                let mut depth = 1usize;
                while pos < b.len() && depth > 0 {
                    if b[pos] == b'/' && b.get(pos + 1) == Some(&b'*') {
                        depth += 1;
                        pos += 2;
                    } else if b[pos] == b'*' && b.get(pos + 1) == Some(&b'/') {
                        depth -= 1;
                        pos += 2;
                    } else {
                        if b[pos] == b'\n' {
                            line += 1;
                        }
                        pos += 1;
                    }
                }
                TokKind::BlockComment
            }
            b'"' => {
                pos = scan_quoted(b, pos + 1, b'"', &mut line);
                TokKind::Str
            }
            b'\'' => match b.get(pos + 1).copied() {
                Some(b'\\') => {
                    pos = scan_quoted(b, pos + 1, b'\'', &mut line);
                    TokKind::Char
                }
                Some(c2) if is_ident_start(c2) => {
                    let id_end = scan_ident(b, pos + 1);
                    if b.get(id_end) == Some(&b'\'') {
                        // 'a' — a char literal (possibly multi-byte).
                        pos = id_end + 1;
                        TokKind::Char
                    } else {
                        // 'a without closing quote — a lifetime/label.
                        pos = id_end;
                        TokKind::Lifetime
                    }
                }
                Some(_) => {
                    // '(' and friends: a char literal of one symbol.
                    pos = scan_quoted(b, pos + 1, b'\'', &mut line);
                    TokKind::Char
                }
                None => {
                    pos += 1;
                    TokKind::Punct
                }
            },
            b'0'..=b'9' => {
                let (end, k) = scan_number(b, pos);
                pos = end;
                k
            }
            c if is_ident_start(c) => {
                let id_end = scan_ident(b, pos);
                let id = &b[pos..id_end];
                match (id, b.get(id_end).copied()) {
                    // String prefixes must be adjacent to the quote.
                    (b"b" | b"c", Some(b'"')) => {
                        pos = scan_quoted(b, id_end + 1, b'"', &mut line);
                        TokKind::Str
                    }
                    (b"b", Some(b'\'')) => {
                        pos = scan_quoted(b, id_end + 1, b'\'', &mut line);
                        TokKind::Char
                    }
                    (b"r" | b"br" | b"cr", Some(b'"')) => {
                        pos = scan_raw_string(b, id_end + 1, 0, &mut line);
                        TokKind::Str
                    }
                    (b"r" | b"br" | b"cr", Some(b'#')) => {
                        let mut hashes = 0usize;
                        while b.get(id_end + hashes) == Some(&b'#') {
                            hashes += 1;
                        }
                        if b.get(id_end + hashes) == Some(&b'"') {
                            pos = scan_raw_string(b, id_end + hashes + 1, hashes, &mut line);
                            TokKind::Str
                        } else if id == b"r" && hashes == 1 {
                            // r#match — a raw identifier.
                            pos = scan_ident(b, id_end + 1);
                            TokKind::Ident
                        } else {
                            pos = id_end;
                            TokKind::Ident
                        }
                    }
                    _ => {
                        pos = id_end;
                        TokKind::Ident
                    }
                }
            }
            _ => {
                let rest = &b[pos..];
                let hit3 = PUNCTS3.iter().find(|p| rest.starts_with(p));
                let hit2 = PUNCTS2.iter().find(|p| rest.starts_with(p));
                pos += match (hit3, hit2) {
                    (Some(p), _) => p.len(),
                    (None, Some(p)) => p.len(),
                    (None, None) => 1,
                };
                TokKind::Punct
            }
        };
        toks.push(Token { kind, text: &b[start..pos.min(b.len())], line: start_line });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src.as_bytes())
            .into_iter()
            .map(|t| (t.kind, std::str::from_utf8(t.text).unwrap_or("<bin>")))
            .collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = a + 0x1E << 2;");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Ident, "a"),
                (TokKind::Punct, "+"),
                (TokKind::Int, "0x1E"),
                (TokKind::Punct, "<<"),
                (TokKind::Int, "2"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn floats_ranges_and_method_calls_on_ints() {
        assert_eq!(kinds("1.5e3")[0], (TokKind::Float, "1.5e3"));
        assert_eq!(kinds("(1.)")[1], (TokKind::Float, "1."));
        let r = kinds("0..10");
        assert_eq!(r, vec![(TokKind::Int, "0"), (TokKind::Punct, ".."), (TokKind::Int, "10")]);
        let m = kinds("1.max(2)");
        assert_eq!(m[0], (TokKind::Int, "1"));
        assert_eq!(m[1], (TokKind::Punct, "."));
        assert_eq!(m[2], (TokKind::Ident, "max"));
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; 'outer: loop {} }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).map(|&(_, t)| t).collect();
        let chars: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Char).map(|&(_, t)| t).collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'outer"]);
        assert_eq!(chars, vec!["'a'", "'\\''"]);
    }

    #[test]
    fn line_numbers_cross_multiline_tokens() {
        let src = "a\n\"two\nlines\"\nb";
        let toks = lex(src.as_bytes());
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4, "newline inside the string is counted");
    }

    #[test]
    fn line_numbers_cross_string_continuations() {
        // `\` at end of line inside a string literal: the newline is
        // escaped away from the string's value, but it is still a
        // source line.
        let src = "\"first \\\n second\"\nx";
        let toks = lex(src.as_bytes());
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3, "escaped newline still advances the line counter");
    }
}
