//! CLI: `cargo run -p suplint -- --workspace`
//!
//! Exit codes: 0 clean (every finding waived), 1 un-waived findings,
//! 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use suplint::report::{render_human, render_json, render_sarif};
use suplint::{lint_workspace, rules};

const USAGE: &str = "usage: suplint --workspace [options]

options:
  --workspace            lint the whole workspace (crates/*/{src,tests,benches} + root)
  --root <dir>           workspace root (default: current directory)
  --json <path>          machine-readable report (default: <root>/lint_report.json)
  --no-json              skip writing the JSON report
  --format sarif         also write SARIF 2.1.0 next to the JSON report (lint_report.sarif)
  --rules                print the rule catalogue and exit
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("suplint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> std::io::Result<ExitCode> {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut no_json = false;
    let mut sarif = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => root = PathBuf::from(args.next().unwrap_or_default()),
            "--json" => json_path = Some(PathBuf::from(args.next().unwrap_or_default())),
            "--no-json" => no_json = true,
            "--format" => match args.next().as_deref() {
                Some("sarif") => sarif = true,
                other => {
                    eprintln!("suplint: unknown format {other:?} (supported: sarif)\n{USAGE}");
                    return Ok(ExitCode::from(2));
                }
            },
            "--rules" => {
                for (id, desc) in rules::RULES {
                    println!("{id}  {desc}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("suplint: unknown argument {other:?}\n{USAGE}");
                return Ok(ExitCode::from(2));
            }
        }
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "suplint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return Ok(ExitCode::from(2));
    }

    let run = lint_workspace(&root)?;

    if !no_json {
        let json_path = json_path.unwrap_or_else(|| root.join("lint_report.json"));
        std::fs::write(&json_path, render_json(&run))?;
        if sarif {
            std::fs::write(json_path.with_extension("sarif"), render_sarif(&run))?;
        }
    }

    print!("{}", render_human(&run));
    match run.failing().count() {
        0 => Ok(ExitCode::SUCCESS),
        n => {
            eprintln!("suplint: FAILED — {n} un-waived finding(s)");
            Ok(ExitCode::FAILURE)
        }
    }
}
