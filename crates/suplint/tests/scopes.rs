//! The one front end's scoping, as a table: for each hand-written
//! snippet in a panic-free zone, the R1 and R8 lines reported and the
//! `test` flag of every function the item tree recovers. The token
//! rules and the call graph read the same scopes, so a snippet that
//! disagrees between them cannot pass.

use suplint::rules::analyze_file;
use suplint::{classify, lint_sources};

struct Case {
    name: &'static str,
    src: &'static str,
    r1: &'static [u32],
    r8: &'static [u32],
    /// `(fn name, test)` in the order the parser records them (a nested
    /// fn before the one around it).
    fns: &'static [(&'static str, bool)],
}

const CASES: &[Case] = &[
    Case {
        name: "#![cfg(test)] at file level covers every item, inline modules included",
        src: "#![cfg(test)]\n\
              fn a(x: Option<u8>) -> u8 { x.unwrap() }\n\
              fn b(x: Option<u8>) -> u8 { x.unwrap() }\n\
              mod m { #![cfg(test)] fn c(x: Option<u8>) -> u8 { x.unwrap() } }",
        r1: &[],
        r8: &[],
        fns: &[("a", true), ("b", true), ("c", true)],
    },
    Case {
        name: "#![cfg(test)] inside an inline mod covers that mod only",
        src: "fn a(x: Option<u8>) -> u8 { x.unwrap() }\n\
              mod m {\n\
                  #![cfg(test)]\n\
                  fn c(x: Option<u8>) -> u8 { x.unwrap() }\n\
                  fn d(x: Option<u8>) -> u8 { x.unwrap() }\n\
              }\n\
              fn b(x: Option<u8>) -> u8 { x.unwrap() }",
        r1: &[1, 7],
        r8: &[],
        fns: &[("a", false), ("c", true), ("d", true), ("b", false)],
    },
    Case {
        name: "#![cfg(not(test))] is production",
        src: "#![cfg(not(test))]\n\
              fn a(x: Option<u8>) -> u8 { x.unwrap() }",
        r1: &[2],
        r8: &[],
        fns: &[("a", false)],
    },
    Case {
        name: "a #[cfg(test)] fn inside a zone fn's body",
        src: "fn zone(x: Option<u8>) -> u8 {\n\
                  #[cfg(test)]\n\
                  fn helper(y: Option<u8>) -> u8 { y.unwrap() }\n\
                  x.unwrap()\n\
              }",
        r1: &[4],
        r8: &[],
        fns: &[("helper", true), ("zone", false)],
    },
    Case {
        name: "#[cfg(test)] use ends at its `;`",
        src: "#[cfg(test)]\n\
              use std::collections::BTreeMap;\n\
              fn prod(x: Option<u8>) -> u8 { x.unwrap() }",
        r1: &[3],
        r8: &[],
        fns: &[("prod", false)],
    },
    Case {
        name: "impl X for Y and for<'a> are not loops",
        src: "impl Frob for S {\n\
                  fn g(&self, o: &Obs) { o.counter(\"a_total\").inc(); }\n\
              }\n\
              fn h(o: &Obs) {\n\
                  let f: Box<dyn for<'a> Fn(&'a u8)> = Box::new(|_| {});\n\
                  o.counter(\"b_total\").inc();\n\
              }",
        r1: &[],
        r8: &[],
        fns: &[("g", false), ("h", false)],
    },
    Case {
        name:
            "a closure inside a for body is in the loop; a `;` inside `[…]` does not end the header",
        src: "fn f(o: &Obs, xs: &[u8]) {\n\
                  for x in xs {\n\
                      let c = || o.counter(\"a_total\").inc();\n\
                      c();\n\
                  }\n\
                  for y in [0u8; 4] { o.gauge(\"b\").set(0); }\n\
                  o.counter(\"c_total\").inc();\n\
              }",
        r1: &[],
        r8: &[3, 6],
        fns: &[("f", false)],
    },
    Case {
        name: "an .unwrap() in a zone const initializer",
        src: "const N: u8 = Some(7u8).unwrap();\n\
              fn f() -> u8 { N }",
        r1: &[1],
        r8: &[],
        fns: &[("f", false)],
    },
];

#[test]
fn token_rules_and_item_tree_share_one_scope() {
    let file = classify("crates/relay/src/agent.rs");
    for case in CASES {
        let run = lint_sources(&[(file.clone(), case.src.as_bytes().to_vec())]);
        let lines = |rule: &str| -> Vec<u32> {
            run.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
        };
        assert_eq!(lines("R1"), case.r1, "{}: R1 {:?}", case.name, run.findings);
        assert_eq!(lines("R8"), case.r8, "{}: R8 {:?}", case.name, run.findings);

        let items = analyze_file(&file, case.src.as_bytes()).items;
        let fns: Vec<(&str, bool)> = items.fns.iter().map(|f| (f.name.as_str(), f.test)).collect();
        assert_eq!(fns, case.fns, "{}", case.name);
    }
}
