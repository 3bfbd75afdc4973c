//! End-to-end test of the `supremm` binary: simulate → dump → re-ingest →
//! report → diagnose, all through the real CLI over a real directory.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_supremm")
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin()).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supremm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_cli_round_trip() {
    let dir = temp_dir("rt");
    let dir_s = dir.to_str().unwrap();

    // simulate
    let (stdout, stderr, ok) =
        run(&["simulate", "--machine", "ranger", "--nodes", "8", "--days", "1", "--out", dir_s]);
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("raw files"), "{stdout}");
    for artifact in ["accounting.log", "lariat.jsonl", "syslog.jsonl", "jobs.tsdb"] {
        assert!(dir.join(artifact).exists(), "{artifact} missing");
    }
    assert!(dir.join("raw").is_dir());
    // The simulate dump also carries the compressed time-series store.
    assert!(dir.join("store").join("series").is_dir(), "store/series missing");

    // job table (segment format) before re-ingest
    let before = std::fs::read(dir.join("jobs.tsdb")).unwrap();

    // ingest (rebuild the warehouse from the dump)
    let (stdout, stderr, ok) = run(&["ingest", "--data", dir_s]);
    assert!(ok, "ingest failed: {stderr}");
    assert!(stdout.contains("ingested"), "{stdout}");
    let after = std::fs::read(dir.join("jobs.tsdb")).unwrap();
    assert_eq!(before, after, "re-ingest must reproduce the warehouse exactly");

    // reports
    let (stdout, _, ok) = run(&["report", "--data", dir_s, "--kind", "top-apps"]);
    assert!(ok);
    assert!(stdout.contains("node-hours by application"), "{stdout}");
    let (stdout, _, ok) = run(&["report", "--data", dir_s, "--kind", "efficiency"]);
    assert!(ok);
    assert!(stdout.contains("machine average efficiency"), "{stdout}");
    let (_, _, ok) = run(&["report", "--data", dir_s, "--kind", "monthly"]);
    assert!(ok);
    let report = std::fs::read_to_string(dir.join("REPORT.md")).unwrap();
    assert!(report.contains("## Summary"));

    // diagnose
    let (stdout, _, ok) = run(&["diagnose", "--data", dir_s]);
    assert!(ok);
    assert!(stdout.contains("abnormal terminations"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_errors_are_clean() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");

    let (_, stderr, ok) = run(&["report", "--data", "/nonexistent-supremm-dir"]);
    assert!(!ok);
    assert!(stderr.contains("jobs.tsdb"), "{stderr}");

    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("usage"), "{stdout}");
}
