//! Integration tests for the hot-path lint pass: the working tree itself
//! must be clean, and the walker must find findings a single-file scan
//! would.

use guillotine_audit::lint_repo;
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/audit → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

/// The gate contract at HEAD: linting the real tree yields zero
/// unsuppressed findings, and every honoured suppression names a real
/// file. This is the test that breaks when someone lands a serve-path
/// `unwrap()` without an `audit:allow`.
#[test]
fn working_tree_is_lint_clean() {
    let outcome = lint_repo(repo_root()).expect("source tree walk");
    assert!(
        outcome.findings.is_empty(),
        "unsuppressed lint findings at HEAD:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    for (location, rule) in &outcome.allows {
        let file = location
            .rsplit_once(':')
            .map(|(f, _)| f)
            .unwrap_or(location);
        assert!(
            repo_root().join(file).is_file(),
            "suppression {location} ({rule}) names a missing file"
        );
    }
}

/// The known, reviewed suppressions: the fleet slot-take invariant (once,
/// in the fleet's one dispatch path) and the compile-time Unicode
/// case-variant expansion. If this list grows, the
/// new entry was either justified in review or someone is bypassing the
/// gate — either way it should show up in a test diff.
#[test]
fn suppression_inventory_is_exactly_the_reviewed_set() {
    let outcome = lint_repo(repo_root()).expect("source tree walk");
    let mut rules: Vec<&str> = outcome.allows.iter().map(|(_, r)| r.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        ["no-case-alloc", "no-case-alloc", "no-panic"],
        "allows: {:?}",
        outcome.allows
    );
}
