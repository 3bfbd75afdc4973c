//! Regression guard: the committed tree must lint clean. `suplint
//! --workspace` exits 0 — every historical finding has been fixed or
//! carries an inline waiver with a reason, and any new finding fails
//! this test before it fails CI.

use std::path::Path;

use suplint::lint_workspace;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = lint_workspace(&root).expect("workspace sources readable");
    assert!(run.files_scanned > 50, "workspace walk looks truncated: {}", run.files_scanned);

    let failing: Vec<String> = run
        .failing()
        .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        failing.is_empty(),
        "un-waived lint findings on the committed tree:\n{}",
        failing.join("\n")
    );
}
