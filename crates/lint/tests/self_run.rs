//! The tool eating its own dog food: the live workspace has no
//! findings, and a seeded violation of the dataflow pass fails the
//! gate.

use std::path::PathBuf;

use fademl_lint::report::Finding;
use fademl_lint::{collect_findings, source};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

#[test]
fn live_workspace_is_clean_against_baseline() {
    let files = source::load_workspace(&workspace_root()).expect("workspace scan succeeds");
    assert!(files.len() > 50, "workspace walk looks truncated");
    let findings = collect_findings(&files);
    assert!(
        findings.is_empty(),
        "lint gate broken:\n{}",
        render(&findings)
    );
}

/// Injects one extra source file into the real workspace scan — the
/// seeded-violation harness for the dataflow passes. Each seeded file
/// must produce a finding for the expected rule at the expected path.
fn assert_gate_breaks(path: &str, src: &str, rule: &str) {
    let mut files = source::load_workspace(&workspace_root()).expect("workspace scan succeeds");
    files.push(source::SourceFile::from_source(path, src));
    let findings = collect_findings(&files);
    assert!(
        findings.iter().any(|f| f.rule == rule && f.path == path),
        "expected a `{rule}` finding at {path}; got:\n{}",
        render(&findings)
    );
}

#[test]
fn seeded_lock_across_io_fails_the_gate() {
    assert_gate_breaks(
        "crates/serve/src/injected.rs",
        "pub fn sneaky(&self) {\n    let g = self.state.lock();\n    std::fs::write(\"dump\", g.render());\n}\n",
        "lock-across-io",
    );
}
