//! The `suplint` binary end to end, on a throwaway workspace holding a
//! `Cargo.toml` and one zone file: exit codes, the `file:line: [RULE]`
//! lines CI's problem matcher reads, and which report gets written.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const FILE: &str = "crates/tsdb/src/lib.rs";

/// A fresh workspace root whose one source file is `src`.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str, src: &str) -> Tree {
        let root = std::env::temp_dir().join(format!("suplint-cli-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/tsdb/src")).expect("temp dir");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write Cargo.toml");
        fs::write(root.join(FILE), src).expect("write source");
        Tree(root)
    }

    fn suplint(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_suplint"))
            .arg("--workspace")
            .arg("--root")
            .arg(&self.0)
            .args(args)
            .output()
            .expect("run suplint")
    }

    fn path(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn exit_code_is_zero_iff_every_finding_is_waived() {
    let clean = Tree::new("clean", "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n");
    let out = clean.suplint(&["--no-json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 finding(s)"), "{}", stdout(&out));

    let unwaived = Tree::new("unwaived", "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    let out = unwaived.suplint(&["--no-json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).lines().any(|l| l.starts_with(&format!("{FILE}:1: [R1] .unwrap()"))),
        "{}",
        stdout(&out)
    );

    let waived = Tree::new(
        "waived",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // suplint: allow(R1) -- callers pass Some\n",
    );
    let out = waived.suplint(&["--no-json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(
        stdout(&out).contains(&format!("{FILE}:1: [R1] waived: .unwrap()")),
        "{}",
        stdout(&out)
    );
}

#[test]
fn retired_flags_are_unknown_arguments() {
    let tree = Tree::new("retired", "pub fn f() {}\n");
    // The two flags of the findings ratchet this linter no longer has.
    for args in [&[concat!("--base", "line"), "x"][..], &[concat!("--write-base", "line")]] {
        let out = tree.suplint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"), "{args:?}");
    }
}

#[test]
fn json_flag_picks_the_report_path_and_no_json_writes_none() {
    let tree = Tree::new("reports", "pub fn f() {}\n");
    let default_report = tree.path("lint_report.json");

    let chosen = tree.path("out.json");
    let out = tree.suplint(&["--json", chosen.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(0));
    let report = fs::read_to_string(&chosen).expect("report written where --json says");
    assert!(report.contains("\"schema_version\": 3"), "{report}");
    assert!(!default_report.exists());

    fs::remove_file(&chosen).expect("remove report");
    let out = tree.suplint(&["--no-json"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        !chosen.exists() && !default_report.exists() && !tree.path("lint_report.sarif").exists()
    );
}
