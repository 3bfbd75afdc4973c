//! Golden tests for the hard tokens, plus fuzz-style guarantees: the
//! lexer must never panic and must always terminate on arbitrary byte
//! soup (it runs on every file in the workspace, including this one).

use suplint::lexer::{lex, TokKind, Token};
use supremm_metrics::rng::SplitMix64;

fn kinds(src: &str) -> Vec<TokKind> {
    lex(src.as_bytes()).into_iter().map(|t| t.kind).collect()
}

fn texts(src: &str) -> Vec<String> {
    lex(src.as_bytes()).into_iter().map(|t| String::from_utf8_lossy(t.text).into_owned()).collect()
}

#[test]
fn raw_strings_with_fences() {
    // Quotes and apparent fences inside the body do not terminate it.
    let toks = lex(br##"let s = r#"has "quotes" and \ no escapes"#;"##);
    let raw: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(raw.len(), 1);
    assert_eq!(raw[0].text, br##"r#"has "quotes" and \ no escapes"#"##);

    let toks = lex(br###"r##"inner "# fence survives"##"###);
    assert_eq!(toks.len(), 1);
    assert_eq!(toks[0].kind, TokKind::Str);

    // Zero-fence raw string: backslash is literal.
    let toks = lex(br##"let p = r"C:\dir";x"##);
    let raw: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(raw[0].text, br##"r"C:\dir""##);
}

#[test]
fn byte_strings_and_byte_chars() {
    let toks = lex(b"let b = b\"bytes\\\"esc\"; let c = b'x'; let r = br#\"raw\"#;");
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 2);
    assert_eq!(strs[0].text, b"b\"bytes\\\"esc\"");
    assert_eq!(strs[1].text, b"br#\"raw\"#");
    let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
    assert_eq!(chars.len(), 1);
    assert_eq!(chars[0].text, b"b'x'");
}

#[test]
fn nested_block_comments() {
    let toks = lex(b"a /* outer /* inner */ still outer */ b");
    let k: Vec<_> = toks.iter().map(|t| t.kind).collect();
    assert_eq!(k, vec![TokKind::Ident, TokKind::BlockComment, TokKind::Ident]);
    assert_eq!(toks[1].text, b"/* outer /* inner */ still outer */".as_slice());

    // Unterminated nesting consumes to EOF without hanging.
    let toks = lex(b"x /* /* never closed ");
    assert_eq!(toks.len(), 2);
    assert_eq!(toks[1].kind, TokKind::BlockComment);
}

#[test]
fn lifetime_vs_char_disambiguation() {
    let src = "impl<'de> X<'de> { fn f(&'de self) -> char { 'd' } }";
    let toks = lex(src.as_bytes());
    let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
    let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
    assert_eq!((lifetimes, chars), (3, 1));

    // Escaped quote chars and labels.
    let toks = lex(b"let q = '\\''; 'outer: for _ in 0..1 { break 'outer; }");
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
}

#[test]
fn raw_identifiers_are_idents_not_raw_strings() {
    let toks = texts("let r#match = r#move;");
    assert!(toks.contains(&"r#match".to_string()));
    assert!(toks.contains(&"r#move".to_string()));
    assert_eq!(kinds("let r#match = 1;")[1], TokKind::Ident);
}

#[test]
fn shifts_vs_generics_and_compound_ops() {
    // `>>` closing nested generics lexes as one punct — the rules never
    // depend on `>>`, only on `<<`, which generics cannot produce.
    let toks = texts("let v: Vec<Vec<u8>> = x << 2; a <<= 1; b >>= 1;");
    assert!(toks.contains(&">>".to_string()));
    assert!(toks.contains(&"<<".to_string()));
    assert!(toks.contains(&"<<=".to_string()));
    assert!(toks.contains(&">>=".to_string()));
    assert!(!toks.contains(&"..".to_string()));
}

#[test]
fn strings_swallow_comment_markers_and_vice_versa() {
    let toks = lex(b"\"// not a comment\" + x");
    assert_eq!(toks[0].kind, TokKind::Str);
    let toks = lex(b"// \"not a string\nx");
    assert_eq!(toks[0].kind, TokKind::LineComment);
    assert_eq!(toks[1].text, b"x".as_slice());
    let toks = lex(b"/* \"no string\" 'n */ y");
    assert_eq!(toks[0].kind, TokKind::BlockComment);
}

// --- fuzz: never panic, always terminate -----------------------------------

fn check_lex(buf: &[u8]) {
    let toks = lex(buf);
    // Termination is implied by returning; also pin basic sanity:
    // token text lies inside the buffer and lines are monotonic.
    let mut consumed = 0usize;
    let mut last_line = 1u32;
    for t in &toks {
        assert!(t.text.len() <= buf.len());
        assert!(t.line >= last_line, "line numbers go backwards");
        last_line = t.line;
        consumed += t.text.len();
    }
    assert!(consumed <= buf.len(), "tokens overlap or exceed the input");
}

#[test]
fn arbitrary_byte_soup_never_panics() {
    let mut rng = SplitMix64::new(0x5eed_1234);
    for round in 0..300 {
        let len = rng.below(2048) as usize;
        let buf: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        check_lex(&buf);
        let _ = round;
    }
}

#[test]
fn tricky_fragment_soup_never_panics() {
    // Fragments chosen to land mid-literal, mid-fence, mid-escape.
    const FRAGS: &[&[u8]] = &[
        b"r#\"",
        b"\"#",
        b"r###",
        b"b'",
        b"'\\",
        b"'a",
        b"/*",
        b"*/",
        b"//",
        b"\\",
        b"\"",
        b"0x",
        b"1e",
        b"1.",
        b"..=",
        b"<<=",
        b"'",
        b"#",
        b"r#",
        b"br",
        b"cr\"",
        b"\n",
        b"\xff\xfe",
        b"\xe2\x98",
        b"mod x {",
        b"}",
        b"#[cfg(test)]",
    ];
    let mut rng = SplitMix64::new(42);
    for _ in 0..500 {
        let n = rng.below(24) as usize;
        let mut buf = Vec::new();
        for _ in 0..n {
            buf.extend_from_slice(rng.pick(FRAGS));
        }
        check_lex(&buf);
    }
}

#[test]
fn truncation_of_valid_source_never_panics() {
    let src: &[u8] = br##"
        //! Doc comment with `code`.
        fn f<'a>(x: &'a [u8]) -> u64 {
            let s = r#"raw "body" here"#;
            let c = '\u{1F600}';
            let n = 0x1E_u64 << 3;
            /* nested /* comments */ ok */
            n.wrapping_add(s.len() as u64).wrapping_add(c as u64)
        }
    "##;
    for cut in 0..src.len() {
        check_lex(&src[..cut]);
    }
}

#[test]
fn every_token_is_within_line_bounds() {
    let src = b"a\nb\nc\n\"multi\nline\"\nend";
    let toks: Vec<Token<'_>> = lex(src);
    assert_eq!(toks.last().map(|t| t.line), Some(6));
}
