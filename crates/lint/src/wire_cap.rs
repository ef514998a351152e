//! Pass — `wire-cap-check`: every length/count decoded from an
//! untrusted byte stream must be compared against a cap before it
//! flows into an allocation.
//!
//! Scope: the six framed codecs (`FADEMLN` wire frames, `FADEMLC1`
//! checkpoints, `FADEMLW2` weights, `FADEMLS1` datasets, `FADEMLD1`
//! detector artifacts, the `FADEMLL1` stage ledger) — the files in
//! [`CODEC_FILES`]. `ByteReader` and the
//! envelope (`crates/tensor/src/io.rs`) are the blessed primitives:
//! `get_bytes`/`get_str` and `open_record` validate against the
//! remaining buffer internally and are not allocation sinks here.
//!
//! Per-function taint dataflow over the IR statement list:
//!
//! * **Sources** — `let` bindings whose initialiser calls a raw
//!   integer decode (`get_u8`/`get_u16`/`get_u32`/`get_u64`) or a
//!   file-local `read_*` helper (e.g. `read_usize` in the detector
//!   codec).
//! * **Propagation** — a `let` whose right-hand side mentions a
//!   tainted variable taints its bindings (`let bytes =
//!   numel.checked_mul(4)…`).
//! * **Guards** — a statement comparing the variable (`<`, `>`, `<=`,
//!   `>=`, `==`, `!=` adjacent to it), clamping it (`.min(`,
//!   `.clamp(`), or range-checking it (`…contains(&var)`) clears the
//!   taint: the decode has been checked against *something*, and the
//!   existing codecs all bail on the failing branch.
//! * **Sinks** — `with_capacity(…)`, `vec![…]`, or `.reserve(…)` in a
//!   statement still mentioning a tainted variable is a finding.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::callgraph::is_test_fn;
use crate::ir::{FnItem, Ir};
use crate::report::Finding;
use crate::source::{word_bounded, SourceFile};

/// The codec files under the cap-check contract.
pub const CODEC_FILES: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/nn/src/checkpoint.rs",
    "crates/nn/src/serialize.rs",
    "crates/detect/src/forest.rs",
    "crates/data/src/persist.rs",
    "crates/core/src/experiments/resume.rs",
];

const INT_DECODES: &[&str] = &["get_u8()", "get_u16()", "get_u32()", "get_u64()"];

/// Runs the cap-check pass over the codec files.
pub fn check(ir: &Ir, files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, file) in ir.files.iter().enumerate() {
        if !CODEC_FILES.contains(&file.path.as_str()) {
            continue;
        }
        // File-local decode helpers (`read_usize` style) are taint
        // sources just like the raw integer getters.
        let local_readers: BTreeSet<&str> = file
            .fns
            .iter()
            .map(|f| f.name.as_str())
            .filter(|n| n.starts_with("read_"))
            .collect();
        for f in &file.fns {
            if is_test_fn(&files[fi], f) {
                continue;
            }
            check_fn(f, &file.path, &files[fi], &local_readers, &mut findings);
        }
    }
    findings
}

fn check_fn(
    f: &FnItem,
    path: &str,
    file: &SourceFile,
    local_readers: &BTreeSet<&str>,
    findings: &mut Vec<Finding>,
) {
    // var → line it was decoded on.
    let mut tainted: BTreeMap<String, usize> = BTreeMap::new();
    for stmt in f.stmts() {
        let text = stmt.text.as_str();
        // Guards clear taint before sinks are checked, so
        // `with_capacity(count.min(CAP))` is clean in one statement.
        let guarded: Vec<String> = tainted
            .keys()
            .filter(|v| is_guarded(text, v))
            .cloned()
            .collect();
        for v in guarded {
            tainted.remove(&v);
        }
        if has_alloc_sink(text) {
            let excerpt = file
                .lines
                .get(stmt.line.wrapping_sub(1))
                .map_or("", |l| l.raw.as_str());
            if let Some((var, decode_line)) = tainted.iter().find(|(v, _)| mentions(text, v)) {
                findings.push(Finding::new(
                    "wire-cap-check",
                    path,
                    stmt.line,
                    format!(
                        "`{var}` decoded from the wire at line {decode_line} reaches an \
                         allocation without a cap comparison — clamp or reject before \
                         reserving"
                    ),
                    excerpt,
                ));
            } else if INT_DECODES.iter().any(|p| text.contains(p)) {
                findings.push(Finding::new(
                    "wire-cap-check",
                    path,
                    stmt.line,
                    "wire decode flows directly into an allocation in one statement — \
                     bind it, cap-check it, then reserve",
                    excerpt,
                ));
            }
        }
        // New bindings taint last: the sink statement's own binding
        // (`let v = Vec::with_capacity(n)`) is a vector, not a length.
        if stmt.has_let {
            let is_source = INT_DECODES.iter().any(|p| text.contains(p))
                || stmt
                    .calls
                    .iter()
                    .any(|c| local_readers.contains(c.name.as_str()));
            let propagates = tainted.keys().any(|v| mentions(text, v));
            if is_source || propagates {
                for name in &stmt.lets {
                    if name != "_" {
                        tainted.insert(name.clone(), stmt.line);
                    }
                }
            }
        }
    }
}

fn has_alloc_sink(text: &str) -> bool {
    text.contains("with_capacity(") || text.contains("vec![") || text.contains(".reserve(")
}

/// Word-boundary mention of `var` in the flattened statement text.
fn mentions(text: &str, var: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = text[from..].find(var) {
        let idx = from + rel;
        if word_bounded(text, idx, var.len()) {
            return true;
        }
        from = idx + var.len();
    }
    false
}

/// Whether `text` compares/clamps/range-checks `var`.
fn is_guarded(text: &str, var: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = text[from..].find(var) {
        let idx = from + rel;
        if word_bounded(text, idx, var.len()) {
            let after = &text[idx + var.len()..];
            let before = &text[..idx];
            if after.starts_with("==")
                || after.starts_with("!=")
                || after.starts_with("<")
                || (after.starts_with('>') && !after.starts_with(">>"))
                || after.starts_with(".min(")
                || after.starts_with(".clamp(")
            {
                return true;
            }
            if before.ends_with("==")
                || before.ends_with("!=")
                || before.ends_with("<=")
                || before.ends_with(">=")
                || (before.ends_with('<') && !before.ends_with("<<"))
                || (before.ends_with('>') && !before.ends_with("->") && !before.ends_with(">>"))
                || before.ends_with("contains(&")
                || before.ends_with("contains(")
            {
                return true;
            }
        }
        from = idx + var.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = [SourceFile::from_source("crates/net/src/wire.rs", src)];
        let ir = Ir::parse(&files);
        check(&ir, &files)
    }

    #[test]
    fn unchecked_decode_into_allocation_is_flagged() {
        let found = run(
            "fn decode(r: &mut ByteReader) {\n    let count = r.get_u32() as usize;\n    let mut v = Vec::with_capacity(count);\n}\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "wire-cap-check");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn cap_comparison_before_allocation_is_clean() {
        let found = run(
            "fn decode(r: &mut ByteReader) -> Result<()> {\n    let count = r.get_u32() as usize;\n    if count > MAX_TENSORS {\n        return Err(bad());\n    }\n    let mut v = Vec::with_capacity(count);\n    Ok(())\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn min_clamp_in_the_sink_statement_is_clean() {
        let found = run(
            "fn decode(r: &mut ByteReader) {\n    let count = r.get_u32() as usize;\n    let mut v = Vec::with_capacity(count.min(1024));\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn taint_propagates_through_derived_lets() {
        let found = run(
            "fn decode(r: &mut ByteReader) {\n    let n = r.get_u16() as usize;\n    let bytes = n * 4;\n    let mut v = vec![0u8; bytes];\n}\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("bytes"));
    }

    #[test]
    fn range_contains_guard_is_recognized() {
        let found = run(
            "fn decode(r: &mut ByteReader) -> Result<()> {\n    let psi = r.get_u32() as usize;\n    if !(2..=MAX).contains(&psi) {\n        return Err(bad());\n    }\n    let mut v = Vec::with_capacity(psi);\n    Ok(())\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn local_read_helper_is_a_source() {
        let found = run(
            "fn read_usize(r: &mut ByteReader) -> usize { r.get_u64() as usize }\nfn decode(r: &mut ByteReader) {\n    let trees = read_usize(r);\n    let mut v = Vec::with_capacity(trees);\n}\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let files = [SourceFile::from_source(
            "crates/core/src/report.rs",
            "fn f(r: &mut ByteReader) {\n    let n = r.get_u32() as usize;\n    let v = Vec::with_capacity(n);\n}\n",
        )];
        let ir = Ir::parse(&files);
        assert!(check(&ir, &files).is_empty());
    }
}
