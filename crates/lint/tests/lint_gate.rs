//! The gate's own gate: each negative fixture must trip exactly its
//! rule at the expected span, the real workspace must be clean, and
//! deleting the flush from the driver's commit path must fail
//! persist-order (the acceptance regression for §4.3).

use std::path::{Path, PathBuf};
use std::process::Command;

use ccnvme_lint::{lint_sources, Config, RuleId};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_config() -> Config {
    Config::load(&repo_root().join("lint.toml")).expect("lint.toml parses")
}

/// Runs the ccnvme-lint binary on one fixture, rooted at the fixtures
/// dir (so the `tests/` path component doesn't mark it as test code),
/// returning (exit code, stdout).
fn run_on_fixture(name: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ccnvme-lint"))
        .arg("--config")
        .arg(repo_root().join("lint.toml"))
        .arg("--root")
        .arg(fixtures_dir())
        .arg(fixtures_dir().join(name))
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn fixture_persist_order_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_persist_order.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_persist_order.rs:9: [persist-order]"),
        "expected persist-order at line 9, got:\n{stdout}"
    );
}

#[test]
fn fixture_atomic_ordering_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_atomic_ordering.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_atomic_ordering.rs:6: [atomic-ordering]")
            && stdout.contains("max_committed"),
        "expected Relaxed-on-critical at line 6, got:\n{stdout}"
    );
    assert!(
        stdout.contains("bad_atomic_ordering.rs:11: [atomic-ordering]") && stdout.contains("ord:"),
        "expected missing-justification at line 11, got:\n{stdout}"
    );
}

#[test]
fn fixture_unsafe_audit_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_unsafe_audit.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_unsafe_audit.rs:5: [unsafe-audit]"),
        "expected unsafe-audit at line 5, got:\n{stdout}"
    );
}

#[test]
fn fixture_metric_namespace_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_metric_namespace.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_metric_namespace.rs:5: [metric-namespace]")
            && stdout.contains("bogus.retries"),
        "expected metric-namespace at line 5, got:\n{stdout}"
    );
}

#[test]
fn fixture_observer_purity_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_observer_purity.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_observer_purity.rs:6: [observer-purity]")
            && stdout.contains("bb.flush"),
        "expected observer-purity at line 6, got:\n{stdout}"
    );
}

#[test]
fn fixture_branch_flush_fails_path_sensitively() {
    // The old lexical walker called this fixture clean (store → flush
    // → bell in source order); the path-sensitive analyzer must flag
    // the fall-through arm and print the offending path.
    let (code, stdout) = run_on_fixture("bad_branch_flush.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_branch_flush.rs:12: [persist-order]")
            && stdout.contains("not dominated")
            && stdout.contains("path:"),
        "expected a path-sensitive persist-order violation at line 12, got:\n{stdout}"
    );
}

#[test]
fn fixture_closure_capture_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_closure_capture.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_closure_capture.rs:10: [persist-order]")
            && stdout.contains("not dominated"),
        "expected persist-order at line 10 (spawned flush cannot dominate), got:\n{stdout}"
    );
}

#[test]
fn fixture_static_race_fails_with_rule_and_span() {
    let (code, stdout) = run_on_fixture("bad_static_race.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_static_race.rs:10: [static-race]") && stdout.contains("max_committed"),
        "expected static-race at line 10, got:\n{stdout}"
    );
}

#[test]
fn fixture_suppression_in_string_does_not_suppress() {
    let (code, stdout) = run_on_fixture("bad_suppress_in_string.rs");
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("bad_suppress_in_string.rs:10: [persist-order]"),
        "a directive inside a string literal must not suppress, got:\n{stdout}"
    );
}

#[test]
fn explain_prints_rule_documentation() {
    for rule in RuleId::all() {
        let out = Command::new(env!("CARGO_BIN_EXE_ccnvme-lint"))
            .arg("--explain")
            .arg(rule.as_str())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "--explain {rule}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(rule.as_str()),
            "--explain {rule} must name the rule, got:\n{stdout}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_ccnvme-lint"))
        .arg("--explain")
        .arg("no-such-rule")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_is_clean() {
    let root = repo_root();
    let cfg = workspace_config();
    let findings = ccnvme_lint::lint_tree(&root, &cfg).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "workspace must pass its own gate:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_binary_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_ccnvme-lint"))
        .arg("--root")
        .arg(repo_root())
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// The acceptance regression: strip the commit-path flush from the real
/// driver source and the gate must fail with persist-order — proving it
/// guards the exact invariant the paper's Figure 3 depends on.
#[test]
fn deleting_commit_path_flush_breaks_persist_order() {
    let root = repo_root();
    let path = root.join("crates/core/src/ccdriver.rs");
    let src = std::fs::read_to_string(&path).expect("driver source");
    assert!(
        src.contains("q.dev.pmr.flush();"),
        "enqueue's flush moved — update this test"
    );
    let broken = src.replacen("q.dev.pmr.flush();", "", 1);
    let cfg = workspace_config();
    let findings = lint_sources(
        &[(PathBuf::from("crates/core/src/ccdriver.rs"), broken)],
        &cfg,
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == RuleId::PersistOrder && f.message.contains("not dominated")),
        "expected a persist-order violation after deleting the flush, got: {findings:?}"
    );

    // Control: the pristine source passes.
    let clean = lint_sources(&[(PathBuf::from("crates/core/src/ccdriver.rs"), src)], &cfg);
    let po: Vec<_> = clean
        .iter()
        .filter(|f| f.rule == RuleId::PersistOrder)
        .collect();
    assert!(
        po.is_empty(),
        "pristine driver must pass persist-order: {po:?}"
    );
}
