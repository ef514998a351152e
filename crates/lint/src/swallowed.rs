//! Pass — `swallowed-error`: silently discarded fallible results.
//!
//! Two shapes, workspace-wide outside `#[cfg(test)]`:
//!
//! * `let _ = some_call(…);` — a call result thrown away. Plain value
//!   discards without a call (`let _ = margin;`) are exempt, as is the
//!   infallible `write!`/`writeln!`-to-`String` idiom. Calls that
//!   resolve to workspace functions are exempt when every candidate
//!   returns something other than `Result` (discarding a plain value
//!   is the caller's business); unresolved calls (std, vendored) are
//!   assumed fallible.
//! * `expr.ok();` — a `Result` demoted to `Option` and dropped on the
//!   floor as a statement.
//!
//! A deliberate best-effort discard is *fixed*, not baselined, by
//! annotating the statement (same line or the line above) with a
//! `// best-effort: <why>` comment — the analogue of `// SAFETY:` on an
//! `unsafe` block, and greppable the same way.

use std::collections::BTreeMap;

use crate::callgraph::is_test_fn;
use crate::ir::{Ir, Stmt};
use crate::report::Finding;
use crate::source::SourceFile;

/// The annotation that marks a discard as deliberate.
pub const ANNOTATION: &str = "best-effort:";

/// Runs the pass over the whole workspace.
pub fn check(ir: &Ir, files: &[SourceFile]) -> Vec<Finding> {
    // fn name → true if any same-named workspace fn returns Result.
    let mut returns_result: BTreeMap<&str, bool> = BTreeMap::new();
    for file in &ir.files {
        for f in &file.fns {
            let e = returns_result.entry(f.name.as_str()).or_insert(false);
            *e |= f.returns_result;
        }
    }
    let mut findings = Vec::new();
    for (fi, file) in ir.files.iter().enumerate() {
        let src = &files[fi];
        for f in &file.fns {
            if is_test_fn(src, f) {
                continue;
            }
            for stmt in f.stmts() {
                if let Some(kind) = discard_kind(stmt, &returns_result) {
                    if is_annotated(src, stmt.line) {
                        continue;
                    }
                    findings.push(Finding::new(
                        "swallowed-error",
                        &file.path,
                        stmt.line,
                        format!(
                            "{kind} discards a fallible result — handle it, or mark \
                             the discard deliberate with `// {ANNOTATION} <why>`"
                        ),
                        src.lines
                            .get(stmt.line.wrapping_sub(1))
                            .map_or("", |l| l.raw.as_str()),
                    ));
                }
            }
        }
    }
    findings
}

/// Classifies a statement as a swallowed-error discard.
fn discard_kind(stmt: &Stmt, returns_result: &BTreeMap<&str, bool>) -> Option<&'static str> {
    let text = stmt.text.as_str();
    if stmt.has_let && stmt.lets.as_slice() == ["_"] {
        if stmt.calls.is_empty() {
            return None; // plain value discard, nothing fallible
        }
        if text.contains("write!(") || text.contains("writeln!(") {
            return None; // fmt-to-String is infallible
        }
        // If every call resolves to workspace fns that never return
        // Result, the discard can't be swallowing an error.
        let all_infallible = stmt
            .calls
            .iter()
            .all(|c| returns_result.get(c.name.as_str()) == Some(&false));
        if all_infallible {
            return None;
        }
        return Some("`let _ = …`");
    }
    if !stmt.has_let
        && (text.ends_with(".ok();") || text.ends_with(".ok()"))
        && !text.starts_with("return")
        && stmt.calls.iter().any(|c| c.name == "ok")
    {
        return Some("trailing `.ok()`");
    }
    None
}

/// Whether the discard is annotated on its line or the line above.
fn is_annotated(file: &SourceFile, line: usize) -> bool {
    let idx = line.wrapping_sub(1);
    [idx.checked_sub(1), Some(idx)]
        .into_iter()
        .flatten()
        .filter_map(|i| file.lines.get(i))
        .any(|l| l.raw.contains(ANNOTATION))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = [SourceFile::from_source("crates/net/src/client.rs", src)];
        let ir = Ir::parse(&files);
        check(&ir, &files)
    }

    #[test]
    fn unannotated_let_underscore_call_is_flagged() {
        let found = run("fn f(s: &TcpStream) {\n    let _ = s.shutdown(Shutdown::Both);\n}\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "swallowed-error");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn annotation_on_line_or_above_suppresses() {
        let same = run(
            "fn f(s: &TcpStream) {\n    let _ = s.shutdown(Shutdown::Both); // best-effort: peer may be gone\n}\n",
        );
        assert!(same.is_empty(), "{same:?}");
        let above = run(
            "fn f(s: &TcpStream) {\n    // best-effort: peer may be gone\n    let _ = s.shutdown(Shutdown::Both);\n}\n",
        );
        assert!(above.is_empty(), "{above:?}");
    }

    #[test]
    fn plain_value_discard_and_fmt_write_are_exempt() {
        let found = run(
            "fn f(out: &mut String, margin: f32) {\n    let _ = margin;\n    let _ = writeln!(out, \"{}\", 1);\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn trailing_ok_statement_is_flagged() {
        let found = run("fn f(path: &Path) {\n    std::fs::remove_file(path).ok();\n}\n");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains(".ok()"));
    }

    #[test]
    fn workspace_fn_known_infallible_is_exempt() {
        let found = run("fn observe(x: u32) -> u32 { x }\nfn f() {\n    let _ = observe(3);\n}\n");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn workspace_fn_returning_result_is_flagged() {
        let found =
            run("fn save(x: u32) -> Result<(), E> { Ok(()) }\nfn f() {\n    let _ = save(3);\n}\n");
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let found = run(
            "#[cfg(test)]\nmod tests {\n    fn t(p: &Path) { let _ = std::fs::remove_file(p); }\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
